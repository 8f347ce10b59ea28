"""Byte-for-byte comparison of training runs of a change and its parent.

Run from the root of the changed tree, with a copy of the parent commit
beside it (a `git archive` of it will do):

    python3 tools/same_bytes.py --parent ../parent

The tool synthesises the 200+50-scene corpora at corpus seeds 0 and 7919
once, with this tree's `curioseq synth`. It then trains each variant of
VARIANTS on each corpus in both trees with `curioseq train`, for 3 epochs
of the README config; a variant's keys override the corpus's manifests,
so `crl_no_val` trains without a val manifest and validates on the train
split. The RAGGED variants train on a copy of the corpus whose scene i (in
each manifest's order) keeps the first m - (i mod 4) of its m regions, so
their minibatches pad and mask regions, which the grammar's equal region
counts never do. After the `crl` and `xe` runs (DECODED) it decodes
with their `last.ckpt` in each tree (DECODES): `curioseq eval` scores the
val split and `curioseq generate` prints the paragraph of the first val
scene, each greedy and at beam width 2. Every process runs at one BLAS
thread, and at most two run at a time. For each run the tool prints the
sha256 prefix of each of its three output files (FILES) and of each printed
decode record side by side, and exits 1 when a file or a record differs
or a run fails; a file that neither tree wrote counts as the same.
`--seed`, `--variant`, `--epochs`, `--scenes` and `--val-scenes` narrow
the set. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FILES = ("reports.jsonl", "last.ckpt", "best.ckpt")
README_CONFIG = {"optimizer": "adam", "learning_rate": 0.003, "imitation_weight": 6.0,
                 "t_max": 30}
VARIANTS = {
    "crl": {},
    "crl_lambda_0.5": {"td_lambda": 0.5},
    "xe": {"mode": "xe"},
    "crl_sgd": {"optimizer": "sgd", "learning_rate": 0.0006},
    "alpha_0": {"action_loss_weight": 0.0},
    "beta_0": {"state_loss_weight": 0.0},
    "rho_0": {"intrinsic_scale": 0.0},
    "zero_reward": {"bleu_weight": 0.0, "cider_weight": 0.0, "intrinsic_scale": 0.0},
    "crl_no_val": {"val_manifest": None},
    "crl_ragged": {},
    "xe_ragged": {"mode": "xe"},
}
RAGGED = ("crl_ragged", "xe_ragged")
DECODED = ("crl", "xe")
FIRST_VAL_SCENE = "val_0000"
DECODES = {
    "eval_greedy": ("eval", "--split", "val"),
    "eval_beam2": ("eval", "--split", "val", "--beam-width", "2"),
    "generate_greedy": ("generate", "--scene-id", FIRST_VAL_SCENE),
    "generate_beam2": ("generate", "--scene-id", FIRST_VAL_SCENE, "--beam-width", "2"),
}
SEEDS = (0, 7919)
JOBS = 2                # processes at a time
PREFIX = 12             # hex digits of each sha256 shown
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def curioseq(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """`python -m curioseq.cli args` on tree's own source, at one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return subprocess.run([sys.executable, "-m", "curioseq.cli", *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def file_hashes(out: Path) -> dict[str, str | None]:
    """The sha256 of each of FILES in out, None for a file that is not there."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            if (out / name).is_file() else None for name in FILES}


def compare(runs: dict[str, dict]) -> tuple[list[str], bool]:
    """Lines that set each run's parent and change hashes side by side, and
    whether every run of both trees finished with the same files and eval
    records. runs maps a run's name to {"parent": side, "change": side}, a
    side being the hashes of its output (file_hashes, and for a decoded
    run those of its DECODES records) or None when the run failed."""
    lines, same = [], True
    width = max(map(len, runs), default=0)
    for name, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        if parent is None or change is None:
            failed = " and ".join(side for side in ("parent", "change") if sides[side] is None)
            lines.append(f"{name}: FAILED ({failed})")
            same = False
            continue
        for file in {**parent, **change}:
            a, b = ((h.get(file) or "absent")[:PREFIX] for h in (parent, change))
            equal = parent.get(file) == change.get(file)
            lines.append(f"{name:<{width}} {file:<15} {a:<{PREFIX}} {b:<{PREFIX}} "
                         f"{'same' if equal else 'DIFFERENT'}")
            same = same and equal
    return lines, same


def synth_corpus(tree: Path, out: Path, seed: int, scenes: int, val_scenes: int) -> None:
    proc = curioseq(tree, "synth", "--out", str(out), "--seed", str(seed),
                    "--scenes", str(scenes), "--val-scenes", str(val_scenes))
    if proc.returncode != 0:
        raise SystemExit(f"error: synth of corpus seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")


def ragged_copy(corpus: Path, out: Path) -> None:
    """A copy of corpus in out whose scene i, counted in each manifest's
    order, keeps the first m - (i mod 4) rows of its (m, E) feature file."""
    shutil.copytree(corpus, out)
    for manifest in ("train_manifest.json", "val_manifest.json"):
        for i, scene in enumerate(json.loads((out / manifest).read_text())["scenes"]):
            path = out / scene["features"]
            raw = path.read_bytes()
            m, e = struct.unpack_from("<II", raw)
            keep = m - i % 4
            path.write_bytes(struct.pack("<II", keep, e) + raw[8:8 + keep * e * 8])


def train_run(tree: Path, config: Path, out: Path, decode: bool) -> dict[str, str | None] | None:
    """The file_hashes of one train run and, when decode, the sha256 of
    what each command of DECODES prints with its last.ckpt; None when a
    command fails (its stderr goes to ours)."""
    commands = [("train", "--config", str(config), "--out", str(out))]
    if decode:
        commands += [(*args, "--config", str(config), "--checkpoint", str(out / "last.ckpt"))
                     for args in DECODES.values()]
    printed = []
    for args in commands:
        proc = curioseq(tree, *args)
        if proc.returncode != 0:
            print(f"{out}: {args[0]} exit {proc.returncode}\n{proc.stderr.rstrip()}",
                  file=sys.stderr)
            return None
        printed.append(proc.stdout)
    return {**file_hashes(out), **{name: hashlib.sha256(text.encode()).hexdigest()
                                   for name, text in zip(DECODES, printed[1:])}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="a copy of the parent commit's tree")
    parser.add_argument("--work", type=Path,
                        help="where corpora and runs go (default: a temporary directory)")
    parser.add_argument("--seed", type=int, action="append", help="corpus seed, repeatable")
    parser.add_argument("--variant", action="append", choices=VARIANTS, help="repeatable")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--scenes", type=int, default=200)
    parser.add_argument("--val-scenes", type=int, default=50)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": Path.cwd()}
    for tree in trees.values():
        if not (tree / "src" / "curioseq" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/curioseq/cli.py")
    with tempfile.TemporaryDirectory() as scratch:
        work = (args.work or Path(scratch)).resolve()
        seeds, variants = args.seed or SEEDS, args.variant or list(VARIANTS)
        with ThreadPoolExecutor(JOBS) as pool:
            list(pool.map(lambda s: synth_corpus(trees["change"], work / f"corpus{s}", s,
                                                 args.scenes, args.val_scenes), seeds))
            pending = {}
            for seed in seeds:
                ragged_copy(work / f"corpus{seed}", work / f"ragged{seed}")
                for variant in variants:
                    corpus = work / f"{'ragged' if variant in RAGGED else 'corpus'}{seed}"
                    name = f"seed{seed} {variant}"
                    config = work / f"seed{seed}" / variant / "config.json"
                    config.parent.mkdir(parents=True, exist_ok=True)
                    config.write_text(json.dumps({
                        **README_CONFIG, "epochs": args.epochs,
                        "train_manifest": str(corpus / "train_manifest.json"),
                        "val_manifest": str(corpus / "val_manifest.json"),
                        **VARIANTS[variant]}))
                    pending[name] = {side: pool.submit(train_run, tree, config,
                                                       config.parent / side, variant in DECODED)
                                     for side, tree in trees.items()}
            runs = {name: {side: job.result() for side, job in sides.items()}
                    for name, sides in pending.items()}
    lines, same = compare(runs)
    print(f"run, file, then the sha256[:{PREFIX}] of the parent's and of the change's")
    print("\n".join(lines))
    print(f"{len(runs)} runs: " + ("every file byte-identical" if same
                                  else "a file differs or a run failed"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
