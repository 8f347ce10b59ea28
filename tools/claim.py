"""Claim runs: each variant trained 30 epochs at three corpus seeds, as one JSON record.

Run from anywhere, with this tree's own source:

    python3 tools/claim.py --out claim.json

The tool synthesises the 200+50-scene corpus at each corpus seed (0, 7919
and 1) once, with this tree's `curioseq synth`, and trains each variant
(`xe`, the zero-reward control `zero_reward`, the README `crl`, `rho_0`,
`crl` at `intrinsic_scale` 0, and the shuffled twins `crl_shuffled` and
`rho_0_shuffled`) on it with `curioseq train`, for 30 epochs of the README
config. The corpus synthesis, the config, the variants and the runner come
from `tools/same_bytes.py`: every process runs at one BLAS thread, and at
most two run at a time, so a run's wall time includes sharing the host
with one other run.

A variant named v + TWIN is v's shuffled-reward twin: it trains with v's
config in a child process (twin_main) that wraps
`curioseq.rewards.terminal_q`, the one call that reads the terminal
rewards, so that call k of the run permutes a copy of its rewards with
`numpy.random.default_rng([corpus seed, k])`. The rewards keep their
values, and each episode gets another episode's score; the reported
`mean_extrinsic_reward` is the real one, which `train_step` sums apart.
The child exits 3 when terminal_q was never called, so a renamed call
fails the run instead of training an untwinned copy.

Each seed's corpus is synthesised a second time with HELDOUT_SCENES
(1,000) val scenes, whose first 50 are the corpus's val split; the tool
stops unless the two train manifests and vocabularies are equal. After
training, one child process per run (heldout_main) loads its config,
`last.ckpt` and the held-out split once and scores each block of BLOCK
(50) consecutive scenes as `curioseq eval` would score that block alone,
with the train split's IDF, so every held-out scene is decoded once.

The record holds, per run, its wall time, the per-epoch SERIES of its
`reports.jsonl` and each held-out block's CIDEr and distinct-2; per seed
and variant, the last epoch's val CIDEr and distinct-2, the mean val
CIDEr over the last TAIL epochs (all of them when fewer ran), the
held-out CIDEr (the mean of the block CIDErs, which are of equal size)
and the sample standard deviation of the block CIDErs, and the mean and
sample standard deviation of the block distinct-2s; per seed,
each variant's paired differences in the SUMMARY numbers and the held-out
CIDEr against each of REFERENCES and against its twin (`vs_twin`); and,
per variant and reference, the number of seeds on which the variant's
number is the larger. It names the commit checked out in the tree (`git
rev-parse HEAD`), or the sha given with `--commit` for a tree without git
metadata; without either the tool exits 2 before it runs anything. When
git sees uncommitted changes under `src/` or `tools/`, the runs used code
that no commit holds, so the record reads `"dirty": true` beside the
commit those changes sit on. It prints the table of the ROADMAP's
Baseline, one row per variant and one cell per seed (CIDEr@last /
distinct-2@last / tail mean CIDEr), with the mean of the tail means last,
and exits 1 when a run fails. The tool uses only the standard library; its
child processes import numpy and curioseq from the tree's source.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
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
VARIANTS = ("xe", "zero_reward", "crl", "rho_0", "crl_shuffled", "rho_0_shuffled")
REFERENCES = ("xe", "zero_reward")
TWIN = "_shuffled"      # the suffix of a shuffled-reward twin's name
EPOCHS = 30
SCENES, VAL_SCENES = 200, 50  # each corpus seed's train and val scenes
HELDOUT_SCENES, BLOCK = 1000, 50  # the held-out val scenes, scored in blocks of BLOCK
TAIL = 5                # the last epochs whose val CIDEr is averaged
SERIES = ("val_cider", "val_distinct2", "mean_episode_length", "eos_rate",
          "mean_extrinsic_reward")
SUMMARY = ("val_cider_last", "val_distinct2_last", "val_cider_tail_mean")
PAIRED = (*SUMMARY, "heldout_cider")
# a child process: sys.argv is [-c, this file, its arguments...]
CHILD = "import runpy, sys; sys.exit(runpy.run_path(sys.argv[1])[{!r}](sys.argv[2:]))"


def series(reports: list[dict]) -> dict[str, list[float]]:
    """Each field of SERIES over a run's report lines, one per epoch."""
    return {name: [r[name] for r in reports] for name in SERIES}


def summarize(run: dict[str, list[float]]) -> dict[str, float]:
    """The SUMMARY numbers of one run's series."""
    tail = run["val_cider"][-TAIL:]
    return {"val_cider_last": run["val_cider"][-1],
            "val_distinct2_last": run["val_distinct2"][-1],
            "val_cider_tail_mean": sum(tail) / len(tail)}


def heldout(blocks: list[float], distinct2: list[float]) -> dict[str, float]:
    """The held-out numbers of one run, from its CIDEr and distinct-2 on
    each block: the mean and sample standard deviation of the block CIDErs
    (the mean is the CIDEr of every held-out scene, up to rounding, as the
    blocks are equal) and of the block distinct-2s. Distinct-2 over every
    held-out scene saturates, so only the block mean compares with the val
    split's."""
    return {"heldout_cider": statistics.fmean(blocks),
            "heldout_block_std": statistics.stdev(blocks),
            "heldout_block_distinct2_mean": statistics.fmean(distinct2),
            "heldout_block_distinct2_std": statistics.stdev(distinct2)}


def paired(summaries: dict[int, dict[str, dict]]) -> tuple[dict, dict]:
    """Per seed, each variant's differences (variant minus reference) in
    the PAIRED numbers that both runs hold, against each reference of
    REFERENCES and against its twin (`vs_twin`) that ran at that seed, and
    per variant and reference, the seeds on which each difference is
    positive. summaries maps a seed to {variant: summarize(...), with the
    heldout(...) numbers when they were scored}."""
    diffs: dict = {}
    wins: dict = {}
    for seed, runs in summaries.items():
        for variant, own in runs.items():
            refs = {f"vs_{ref}": ref for ref in REFERENCES} | {"vs_twin": variant + TWIN}
            for key, ref in refs.items():
                if ref == variant or ref not in runs:
                    continue
                d = {name: own[name] - runs[ref][name] for name in PAIRED
                     if name in own and name in runs[ref]}
                diffs.setdefault(seed, {}).setdefault(variant, {})[key] = d
                won = wins.setdefault(variant, {}).setdefault(key, dict.fromkeys(d, 0))
                for name in d:
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


def shuffle(terminal, seed: int, k: int):
    """A copy of the terminal rewards of a run's call k to terminal_q,
    permuted by numpy.random.default_rng([seed, k])."""
    import numpy as np
    return np.asarray(terminal)[np.random.default_rng([seed, k]).permutation(len(terminal))]


def twin_main(argv: list[str]) -> int:
    """`curioseq argv[1:]` with every terminal_q call's rewards shuffled at
    corpus seed argv[0]; 3 when no call was made."""
    from curioseq import cli, rewards
    calls = 0
    terminal_q = rewards.terminal_q

    def shuffled(terminal, *args):
        nonlocal calls
        calls += 1
        return terminal_q(shuffle(terminal, int(argv[0]), calls - 1), *args)

    rewards.terminal_q = shuffled
    code = cli.main(argv[1:])
    if code == 0 and calls == 0:
        print("error: terminal_q was never called, so no reward was shuffled", file=sys.stderr)
        return 3
    return code


def heldout_main(argv: list[str]) -> int:
    """Score checkpoint argv[2] on the val split of config file argv[1],
    argv[0] consecutive scenes at a time, each block as `curioseq eval`
    scores it: prints a JSON list of each block's cider and distinct2."""
    from curioseq import cli, metrics, trainer
    block = int(argv[0])
    cfg = trainer.TrainConfig(**json.loads(Path(argv[1]).read_text()))
    ds, train_ds = cli.load_split(cfg, cfg.val_manifest)
    model, _ = trainer.load_model(argv[2], cfg, ds.vocab.size, ds.feature_dim)
    idf = metrics.build_idf(trainer.reference_documents(train_ds.scenes, train_ds.vocab))
    reports = [trainer.evaluate(ds.scenes[b:b + block], model, ds.vocab, idf, cfg)
               for b in range(0, len(ds.scenes), block)]
    print(json.dumps([{"cider": r.cider, "distinct2": r.distinct2} for r in reports]))
    return 0


def synth_heldout(tree: Path, corpus: Path, out: Path, seed: int) -> Path:
    """The val manifest of the corpus of seed again in out, with
    HELDOUT_SCENES val scenes. Stops unless its train manifest and
    vocabulary are corpus's."""
    same_bytes.synth_corpus(tree, out, seed, SCENES, HELDOUT_SCENES)
    for name in ("train_manifest.json", "vocab.txt"):
        if (out / name).read_bytes() != (corpus / name).read_bytes():
            raise SystemExit(f"error: the held-out synthesis of corpus seed {seed} has "
                             f"another {name}")
    return out / "val_manifest.json"


def dirty(tree: Path) -> bool:
    """Whether git sees uncommitted changes to src/ or tools/ in tree (False
    when git cannot tell)."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "tools"], cwd=tree,
                              capture_output=True, text=True)
    except OSError:
        return False
    return proc.returncode == 0 and proc.stdout.strip() != ""


def train(tree: Path, config: Path, out: Path, twin_seed: int | None = None) -> dict | None:
    """One `curioseq train` run, or with twin_seed its shuffled-reward twin
    at that corpus seed: its wall time and series, or None when it fails
    (its stderr goes to ours)."""
    args = ("train", "--config", str(config), "--out", str(out))
    start = time.perf_counter()
    proc = (same_bytes.curioseq(tree, *args) if twin_seed is None else
            same_bytes.python(tree, "-c", CHILD.format("twin_main"), str(TOOLS / "claim.py"),
                              str(twin_seed), *args))
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"{out}: train exit {proc.returncode}\n{proc.stderr.rstrip()}", file=sys.stderr)
        return None
    lines = (out / "reports.jsonl").read_text().splitlines()
    return {"wall_s": wall, **series([json.loads(line) for line in lines])}


def claim_run(tree: Path, config: Path, seed: int, variant: str,
              manifest: Path) -> dict | None:
    """One variant's train run at one seed, then heldout_main's scores of
    its last.ckpt on each block of the held-out manifest: the train record
    with `heldout_block_cider` and `heldout_block_distinct2` added, or None
    when a command fails."""
    out = config.parent / "run"
    run = train(tree, config, out, seed if variant.endswith(TWIN) else None)
    if run is None:
        return None
    scored = config.parent / "heldout.json"
    scored.write_text(json.dumps({**json.loads(config.read_text()),
                                  "val_manifest": str(manifest)}))
    proc = same_bytes.python(tree, "-c", CHILD.format("heldout_main"), str(TOOLS / "claim.py"),
                             str(BLOCK), str(scored), str(out / "last.ckpt"))
    if proc.returncode != 0:
        print(f"{out}: held-out scoring exit {proc.returncode}\n{proc.stderr.rstrip()}",
              file=sys.stderr)
        return None
    blocks = json.loads(proc.stdout)
    return {**run, "heldout_block_cider": [b["cider"] for b in blocks],
            "heldout_block_distinct2": [b["distinct2"] for b in blocks]}


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
            heldouts = dict(zip(SEEDS, pool.map(
                lambda s: synth_heldout(tree, work / f"corpus{s}", work / f"heldout{s}", s),
                SEEDS)))
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
                        **same_bytes.VARIANTS[variant.removesuffix(TWIN)]}))
                    pending[seed, variant] = pool.submit(claim_run, tree, config, seed, variant,
                                                         heldouts[seed])
            runs = {key: job.result() for key, job in pending.items()}
    summaries: dict[int, dict[str, dict]] = {}
    for (seed, variant), run in runs.items():
        if run is not None:
            summaries.setdefault(seed, {})[variant] = {
                **summarize(run), **heldout(run["heldout_block_cider"],
                                            run["heldout_block_distinct2"])}
    diffs, wins = paired(summaries)
    failed = [f"seed{seed} {variant}" for (seed, variant), run in runs.items() if run is None]
    doc = {"commit": commit, "dirty": changed, "seeds": SEEDS, "variants": VARIANTS,
           "epochs": EPOCHS, "scenes": SCENES, "val_scenes": VAL_SCENES, "tail_epochs": TAIL,
           "heldout_scenes": HELDOUT_SCENES, "block_scenes": BLOCK,
           "config": same_bytes.README_CONFIG,
           "overrides": {v: same_bytes.VARIANTS[v.removesuffix(TWIN)] for v in VARIANTS},
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
