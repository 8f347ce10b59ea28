"""curioseq benchmark: one workload per invocation.

Run from the root of a curioseq source tree:

    python3 perfbench/run.py --workload crl_epoch --seed 0 --seconds 25 --trace 0

With --trace 0 it repeats the workload's pass until --seconds have passed
and at least two passes ran, setting up afresh three times before every pass
and after the last (median `setup_s`), and prints the end-to-end metrics. With --trace 1 it runs one
untraced pass and one traced pass and prints the per-layer metrics. Every
run checks the outputs; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Details (sample counts,
environment, spans of a traced run) go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from statistics import median

from checks import cap_blas_threads, environment, first_mismatch, percentile, samples_beyond
from tracing import MODULES, Tracer, unit_of

# One BLAS thread: the kernel works on small matrices (hidden size 64), and a second
# thread would only let the scheduler and neighbouring processes set the numbers.
BLAS_THREADS = 1
SETUPS_PER_PASS = 3
MIN_PASSES = 2


def import_curioseq(root: Path):
    """Import curioseq from <root>/src, and from nowhere else."""
    src = (root / "src").resolve()
    if not (src / "curioseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no curioseq sources under {src}; "
                         "run from the root of a curioseq checkout")
    sys.path.insert(0, str(src))
    package = importlib.import_module("curioseq")
    if Path(package.__file__).resolve().parent != src / "curioseq":
        raise SystemExit(f"error: imported curioseq from {package.__file__}, not {src}")
    for name in MODULES:
        importlib.import_module(f"curioseq.{name}")
    return package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas = cap_blas_threads(BLAS_THREADS)
    import numpy  # after the thread caps, so that they take effect

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    root = Path.cwd()
    cs = import_curioseq(root)
    env = environment(numpy.__version__)
    print(f"environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)

    out_dir = root / ".perfbench_out"
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(cs, workloads, args.workload, args.seed, workdir)
        if args.trace:
            metrics, extra = bench.traced(out_dir)
        else:
            metrics, extra = bench.untraced(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()
    if bench.passes_ok == 0:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1

    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "environment": env, "blas": blas, **extra}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


class Bench:
    """One invocation: set-ups, passes and their checks, with the tallies of
    attempted and failed operations."""

    def __init__(self, cs, workloads, workload: str, seed: int, workdir: Path):
        self.cs = cs
        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.passes_ok = 0
        self.reference: list[str] | None = None

    def set_up(self):
        start = time.perf_counter()
        corpus = self.wl.set_up(self.cs, self.workload, self.seed, self.workdir)
        return corpus, time.perf_counter() - start

    def run_pass(self, corpus):
        """One pass, checked against the first; a failure is counted, not raised."""
        gc.collect()  # start every pass from a heap without the last pass's garbage
        try:
            result = self.wl.run_pass(self.cs, self.workload, corpus, self.workdir)
        except Exception:  # noqa: BLE001 - a failing pass is tallied and the run goes on
            traceback.print_exc()
            ops = self.wl.expected_ops(self.workload)
            self.attempted += ops
            self.failed += ops
            return None
        self.attempted += result.attempted
        self.failed += result.failed
        if self.reference is None:
            self.reference = result.outputs
        else:
            mismatch = first_mismatch(self.reference, result.outputs)
            if mismatch is not None:
                print(f"check failed: repeat differs from the first pass at output "
                      f"{mismatch}", file=sys.stderr)
                self.failed += result.attempted - result.failed
        self.passes_ok += 1
        return result

    def untraced(self, seconds: float):
        setups = []

        def set_up_timed():
            corpus, took = self.set_up()
            setups.append(took)
            return corpus

        # Set-ups are spread over the run, before every pass and after the
        # last, so that their median does not rest on one moment of the machine.
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            for _ in range(SETUPS_PER_PASS):
                corpus = set_up_timed()
            result = self.run_pass(corpus)
            if result is None and not passes:
                break
            if result is not None:
                passes.append(result)
        for _ in range(SETUPS_PER_PASS):
            set_up_timed()
        if not passes:
            return {}, {}
        xe = (self.wl.decode_xe_loss(self.cs, corpus) if self.workload == "decode"
              else median([p.xe_loss for p in passes]))
        step_ms = [ms for p in passes for ms in p.step_ms]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (median(setups), "s"),
            "epoch_s": (median([p.seconds for p in passes]), "s"),
            "xe_loss": (xe, "nats"),
            "step_ms.p90": (percentile(step_ms, 90), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        extra = {"setup_samples_s": setups, "pass_s": [p.seconds for p in passes],
                 "step_ms_samples": len(step_ms),
                 "step_ms_beyond_p90": samples_beyond(len(step_ms), 90)}
        if self.workload == "decode":
            extra["decode"] = decode_summary(passes)
        summary = ", ".join(f"{k}={v:.6g}{u}" for k, (v, u) in values.items())
        print(f"{self.workload} seed {self.seed}: {len(passes)} passes, "
              f"{len(step_ms)} steps; {summary}")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, extra

    def traced(self, out_dir: Path):
        corpus, _ = self.set_up()
        plain = self.run_pass(corpus)
        tracer = Tracer()
        tracer.install(self.cs)
        try:
            corpus, _ = self.set_up()
            traced = self.run_pass(corpus)
        finally:
            tracer.uninstall()
        stem = f"{self.workload}-seed{self.seed}"
        tracer.write_spans(out_dir / f"{stem}.spans.jsonl")
        metrics = tracer.metrics()
        both = plain is not None and traced is not None
        metrics["trace.overhead_s"] = traced.seconds - plain.seconds if both else 0.0
        metrics["failed_ratio"] = self.failed / self.attempted if self.attempted else 0.0
        return ({k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
                {"spans": len(tracer.spans)})


def decode_summary(passes) -> dict:
    """Greedy and beam throughput and latency, pooled over all passes."""
    out = {}
    for kind in ("greedy", "beam"):
        samples = [s for p in passes for s in p.details[f"{kind}_s"]]
        ms = [1e3 * s for s in samples]
        lengths = [n for p in passes for n in p.details[f"{kind}_len"]]
        out[kind] = {"scenes_per_s": len(samples) / sum(samples),
                     "ms.p50": percentile(ms, 50), "ms.p95": percentile(ms, 95),
                     "samples": len(samples), "mean_length": sum(lengths) / len(lengths)}
    return out


if __name__ == "__main__":
    sys.exit(main())
