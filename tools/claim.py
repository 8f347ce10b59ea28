"""Claim runs: each variant trained 30 epochs at three corpus seeds, as one JSON record.

Run from anywhere, with this tree's own source:

    python3 tools/claim.py --out claim.json

The tool synthesises the 200+50-scene corpus at each corpus seed (0, 7919
and 1) once, with this tree's `curioseq synth`, and trains each variant
(`xe`, the zero-reward control `zero_reward`, the README `crl` and `rho_0`,
`crl` at `intrinsic_scale` 0) on it with `curioseq train`, for 30 epochs
of the README config. The corpus synthesis, the config, the variants and
the runner come from `tools/same_bytes.py`: every process runs at one
BLAS thread, and at most two run at a time, so a run's wall time includes
sharing the host with one other run.

The record holds, per run, its wall time and the per-epoch SERIES of its
`reports.jsonl`; per seed and variant, the last epoch's val CIDEr and
distinct-2 and the mean val CIDEr over the last TAIL epochs (all of them
when fewer ran); per seed, each variant's paired differences in those
three numbers against each of REFERENCES; and, per variant and reference,
the number of seeds on which the variant's number is the larger. It names
the commit checked out in the tree (`git rev-parse HEAD`), or the sha given
with `--commit` for a tree without git metadata; without either the tool
exits 2 before it runs anything. When git sees uncommitted changes under
`src/` or `tools/`, the runs used code that no commit holds, so the record
reads `"dirty": true` beside the commit those changes sit on. It prints the
table of the ROADMAP's Baseline, one row per variant and one cell per seed
(CIDEr@last / distinct-2@last / tail mean CIDEr), with the mean of the
tail means last, and exits 1 when a run fails. Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def _load(name: str):
    """A sibling tool, loaded by path: tools/ is not a package."""
    spec = importlib.util.spec_from_file_location(f"curioseq_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bytes = _load("same_bytes")
bench_pairs = _load("bench_pairs")

SEEDS = (0, 7919, 1)
VARIANTS = ("xe", "zero_reward", "crl", "rho_0")
REFERENCES = ("xe", "zero_reward")
EPOCHS = 30
SCENES, VAL_SCENES = 200, 50  # each corpus seed's train and val scenes
TAIL = 5                # the last epochs whose val CIDEr is averaged
SERIES = ("val_cider", "val_distinct2", "mean_episode_length", "eos_rate",
          "mean_extrinsic_reward")
SUMMARY = ("val_cider_last", "val_distinct2_last", "val_cider_tail_mean")


def series(reports: list[dict]) -> dict[str, list[float]]:
    """Each field of SERIES over a run's report lines, one per epoch."""
    return {name: [r[name] for r in reports] for name in SERIES}


def summarize(run: dict[str, list[float]]) -> dict[str, float]:
    """The SUMMARY numbers of one run's series."""
    tail = run["val_cider"][-TAIL:]
    return {"val_cider_last": run["val_cider"][-1],
            "val_distinct2_last": run["val_distinct2"][-1],
            "val_cider_tail_mean": sum(tail) / len(tail)}


def paired(summaries: dict[int, dict[str, dict]]) -> tuple[dict, dict]:
    """Per seed, each variant's SUMMARY differences (variant minus
    reference) against each reference of REFERENCES that ran at that seed,
    and per variant and reference, the seeds on which each difference is
    positive. summaries maps a seed to {variant: summarize(...)}."""
    diffs: dict = {}
    wins: dict = {}
    for seed, runs in summaries.items():
        for variant, own in runs.items():
            for ref in REFERENCES:
                if ref == variant or ref not in runs:
                    continue
                d = {name: own[name] - runs[ref][name] for name in SUMMARY}
                diffs.setdefault(seed, {}).setdefault(variant, {})[f"vs_{ref}"] = d
                won = wins.setdefault(variant, {}).setdefault(f"vs_{ref}",
                                                              dict.fromkeys(SUMMARY, 0))
                for name in SUMMARY:
                    won[name] += d[name] > 0
    return diffs, wins


def table(summaries: dict[int, dict[str, dict]], seeds, variants) -> list[str]:
    """The Baseline table: a row per variant, a cell per seed, and the mean
    of the variant's tail means over the seeds it ran at."""
    lines = ["| run | " + " | ".join(f"seed {s}" for s in seeds) + " | mean |",
             "|-----|" + "--------|" * len(seeds) + "------|"]
    for variant in variants:
        cells, tails = [], []
        for seed in seeds:
            s = summaries.get(seed, {}).get(variant)
            if s is None:
                cells.append("failed")
                continue
            cells.append(f"{s['val_cider_last']:.3f} / {s['val_distinct2_last']:.4f} / "
                         f"{s['val_cider_tail_mean']:.3f}")
            tails.append(s["val_cider_tail_mean"])
        mean = f"{sum(tails) / len(tails):.3f}" if tails else "-"
        lines.append(f"| `{variant}` | " + " | ".join(cells) + f" | {mean} |")
    return lines


def dirty(tree: Path) -> bool:
    """Whether git sees uncommitted changes to src/ or tools/ in tree (False
    when git cannot tell)."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "tools"], cwd=tree,
                              capture_output=True, text=True)
    except OSError:
        return False
    return proc.returncode == 0 and proc.stdout.strip() != ""


def train(tree: Path, config: Path, out: Path) -> dict | None:
    """One `curioseq train` run: its wall time and series, or None when it
    fails (its stderr goes to ours)."""
    start = time.perf_counter()
    proc = same_bytes.curioseq(tree, "train", "--config", str(config), "--out", str(out))
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"{out}: train exit {proc.returncode}\n{proc.stderr.rstrip()}", file=sys.stderr)
        return None
    lines = (out / "reports.jsonl").read_text().splitlines()
    return {"wall_s": wall, **series([json.loads(line) for line in lines])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the JSON record")
    parser.add_argument("--commit", type=bench_pairs.commit_sha,
                        help="the tree's 40-hex-digit sha, for a tree without git")
    args = parser.parse_args(argv)
    tree = TOOLS.parent
    commit = args.commit or bench_pairs.commit_of(tree)
    if commit is None:
        parser.error(f"git cannot name the commit of {tree}; pass --commit")
    changed = dirty(tree)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        with ThreadPoolExecutor(same_bytes.JOBS) as pool:
            list(pool.map(lambda s: same_bytes.synth_corpus(tree, work / f"corpus{s}", s,
                                                            SCENES, VAL_SCENES), SEEDS))
            pending = {}
            for seed in SEEDS:
                corpus = work / f"corpus{seed}"
                for variant in VARIANTS:
                    config = work / f"seed{seed}" / variant / "config.json"
                    config.parent.mkdir(parents=True, exist_ok=True)
                    config.write_text(json.dumps({
                        **same_bytes.README_CONFIG, "epochs": EPOCHS,
                        "train_manifest": str(corpus / "train_manifest.json"),
                        "val_manifest": str(corpus / "val_manifest.json"),
                        **same_bytes.VARIANTS[variant]}))
                    pending[seed, variant] = pool.submit(train, tree, config, config.parent / "run")
            runs = {key: job.result() for key, job in pending.items()}
    summaries: dict[int, dict[str, dict]] = {}
    for (seed, variant), run in runs.items():
        if run is not None:
            summaries.setdefault(seed, {})[variant] = summarize(run)
    diffs, wins = paired(summaries)
    failed = [f"seed{seed} {variant}" for (seed, variant), run in runs.items() if run is None]
    doc = {"commit": commit, "dirty": changed, "seeds": SEEDS, "variants": VARIANTS,
           "epochs": EPOCHS, "scenes": SCENES, "val_scenes": VAL_SCENES, "tail_epochs": TAIL,
           "config": same_bytes.README_CONFIG, "overrides": {v: same_bytes.VARIANTS[v]
                                                             for v in VARIANTS},
           "jobs": same_bytes.JOBS, "elapsed_s": time.perf_counter() - start,
           "runs": {f"seed{seed} {variant}": run for (seed, variant), run in runs.items()},
           "summary": summaries, "paired": diffs, "seeds_won": wins, "failed": failed}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(table(summaries, SEEDS, VARIANTS)))
    if failed:
        print(f"error: {len(failed)} runs failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
