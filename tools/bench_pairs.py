"""Paired benchmark runs of a change against its parent, written as one JSON file.

Run from the root of the changed tree, with a checkout of the parent commit
beside it:

    python3 tools/bench_pairs.py --parent ../parent --out BENCH_8.json \\
        --plan crl_epoch:0:10 --plan crl_epoch:7919:4 --plan xe_epoch:0:6 \\
        --plan decode:0:6 --traced crl_epoch --traced xe_epoch --traced decode

The record names the parent's commit: `git rev-parse HEAD` in the parent
tree, or, for a parent tree without git metadata (one made with `git
archive`), the 40-hex-digit sha given with `--parent-commit`. Without
either the tool exits 2 before it runs anything.

Each `--plan workload:seed:pairs` runs `python3 perfbench/run.py` that many
times in each tree, alternating: the parent runs first in even pairs and the
change first in odd pairs. Each `--traced workload` adds one `--trace 1` run
(seed 0) per tree. The output embeds every `.perfbench_out/` record
verbatim, with the run log and, per workload and seed, each metric's median
and [q1, q3] per side, the pairs the change won and whether the gain rule
holds: the change won at least 9 of every 10 pairs, ties counting for
neither side, and the gap between the medians exceeds the distance between
the parent's quartiles. A metric whose gap, in either direction, lies
within that distance is marked unresolved: the runs cannot tell the two
trees apart on it (a parent without spread resolves every gap, none
included). Every metric of the benchmark is lower-is-better.
For each end-to-end metric of the changed tree's BENCHMARK.json, the
summary also records its bound and whether the change's median is worse
than the parent's by more than it, and the tool prints one line per
workload, seed and end-to-end metric, with the gain rule's verdict. Uses
only the standard library.

A run that exits non-zero ends the plan: the record so far is written, with
that run's exit code and the tail of its stderr in the run log, and the tool
exits 1. It also exits 1 when a run was incorrect or when an end-to-end
median is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRING = "pair i runs parent then change for even i, change then parent for odd i"
BENCHMARK = "python3 perfbench/run.py --workload <w> --seed <s> --trace <t>"
STDERR_TAIL = 20        # lines of a failed run's stderr kept in the run log


class RunFailed(Exception):
    """A perfbench run that exited non-zero."""


def quartiles(values: list[float]) -> dict:
    """Median and the quartiles of statistics.quantiles(n=4); one sample is
    its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def end_to_end_bounds(tree: Path) -> dict[str, float]:
    """The relative bound of each end-to-end metric in tree's BENCHMARK.json."""
    doc = json.loads((tree / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in doc["end_to_end"]}


def summarize(pairs: list[dict], bounds: dict[str, float] | None = None) -> dict:
    """Per metric over pairs of {"parent": record, "change": record}: each
    side's median and [q1, q3], the pairs the change won (a lower value)
    and tied, its median relative to the parent's, whether the gap between
    the medians exceeds the parent's quartile distance, whether the shift
    is unresolved (that gap, in either direction, lies within the parent's
    non-zero quartile distance), and whether the gain rule holds: a gap past that
    distance, with wins in at least 9 of 10 pairs. A metric
    with a bound also records it and whether the change's median is worse
    than the parent's by more than the bound."""
    bounds = bounds or {}
    out: dict = {"pairs": len(pairs),
                 "all_correct": all(p[side]["correct"] and p[side]["failed"] == 0
                                    for p in pairs for side in ("parent", "change"))}
    names = sorted(set.intersection(*(set(p[side]["metrics"]) for p in pairs
                                      for side in ("parent", "change"))))
    for name in names:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gap = parent["median"] - change["median"]
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        iqr = parent["q3"] - parent["q1"]
        gap_exceeds = gap > iqr
        out[name] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "ties": sum(c == p for p, c in zip(values["parent"], values["change"])),
            "relative_change": (change["median"] / parent["median"] - 1.0
                                if parent["median"] else 0.0),
            "gap_exceeds_parent_iqr": gap_exceeds,
            "unresolved": iqr > 0 and abs(gap) <= iqr,
            "gain_rule_holds": 10 * wins >= 9 * len(pairs) and gap_exceeds,
        }
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["worse_than_bound"] = out[name]["relative_change"] > bounds[name]
    return out


def bound_lines(key: str, summary: dict) -> list[str]:
    """One line per metric of summary that has a bound."""
    return [f"{key}: {name} {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
            f"({m['relative_change']:+.1%}, bound +{m['bound']:.0%}: "
            f"{'WORSE' if m['worse_than_bound'] else 'within'}), change won "
            f"{m['change_wins']}/{summary['pairs']}, gap exceeds parent IQR: "
            f"{m['gap_exceeds_parent_iqr']}{' (unresolved)' if m['unresolved'] else ''}, gain rule: "
            f"{'holds' if m['gain_rule_holds'] else 'not met'}"
            for name, m in sorted(summary.items()) if isinstance(m, dict) and "bound" in m]


def run_once(tree: Path, workload: str, seed: int, trace: int, log: list[str],
             label: str) -> dict:
    """One perfbench run in tree, at the benchmark's own run length; returns
    its .perfbench_out/ record. Raises RunFailed when the run exits non-zero,
    after logging its exit code and the tail of its stderr."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    log.append(f"{time.strftime('%H:%M:%S')} {label} {workload} seed {seed} trace {trace}: "
               f"exit {proc.returncode} {last[0]}")
    print(log[-1], file=sys.stderr)
    if proc.returncode != 0:
        log.extend(proc.stderr.rstrip().splitlines()[-STDERR_TAIL:])
        raise RunFailed(f"{label} {workload} seed {seed} trace {trace} exited {proc.returncode}")
    path = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def parse_plan(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def commit_of(tree: Path) -> str | None:
    """The commit checked out in tree, or None when git cannot tell."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def commit_sha(text: str) -> str:
    """A full commit sha: 40 hex digits, kept in lower case."""
    if len(text) != 40 or any(c not in "0123456789abcdef" for c in text.lower()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a 40-hex-digit commit sha")
    return text.lower()


def passed(doc: dict) -> bool:
    """Every summarized run correct with no failed operation, every traced
    run too, and no end-to-end median worse than its bound."""
    summaries = [entry["summary"] for entry in doc["paired"].values() if "summary" in entry]
    return (all(s["all_correct"] for s in summaries)
            and not any(m.get("worse_than_bound") for s in summaries for m in s.values()
                        if isinstance(m, dict))
            and all(rec["correct"] and rec["failed"] == 0
                    for sides in doc["traced"].values() for rec in sides.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="a checkout of the parent commit")
    parser.add_argument("--parent-commit", type=commit_sha,
                        help="the parent's 40-hex-digit sha, for a parent tree without git")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--plan", action="append", default=[], type=parse_plan,
                        help="workload:seed:pairs, repeatable")
    parser.add_argument("--traced", action="append", default=[],
                        help="a workload to trace once per tree (seed 0), repeatable")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": Path.cwd()}
    parent_commit = args.parent_commit or commit_of(trees["parent"])
    if parent_commit is None:
        parser.error(f"git cannot name the commit of {trees['parent']}; pass --parent-commit")
    bounds = end_to_end_bounds(trees["change"])
    log: list[str] = []
    paired: dict = {}
    traced: dict = {}
    failure = None
    try:
        for workload, seed, n in args.plan:
            pairs = []
            paired[f"{workload}-seed{seed}"] = {"pairs": pairs}
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"order": ", ".join(order)}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, 0, log, f"pair {i} {side}")
                pairs.append(pair)
            paired[f"{workload}-seed{seed}"]["summary"] = summarize(pairs, bounds)
        for workload in args.traced:
            traced[workload] = {side: run_once(trees[side], workload, 0, 1, log, f"traced {side}")
                                for side in ("parent", "change")}
    except RunFailed as exc:
        failure = str(exc)
    doc = {"benchmark": BENCHMARK, "pairing": PAIRING, "parent_commit": parent_commit,
           "paired": paired, "traced": traced, "run_log": log}
    if failure:
        doc["failed_run"] = failure
        print(f"error: {failure}", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for key, entry in paired.items():
        if "summary" in entry:
            for line in bound_lines(key, entry["summary"]):
                print(line)
    return 0 if failure is None and passed(doc) else 1


if __name__ == "__main__":
    sys.exit(main())
