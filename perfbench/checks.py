"""Statistics, output checks and environment record for the benchmark.

Nothing here imports numpy or curioseq, so the launcher can use it before the
BLAS thread caps are set.
"""

from __future__ import annotations

import math
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - math.ceil(q / 100.0 * n)


def first_mismatch(reference: list[str], repeat: list[str]) -> int | None:
    """Index of the first output of `repeat` that differs from `reference`,
    or None when the two are identical (equal strings are equal bytes)."""
    for i, (a, b) in enumerate(zip(reference, repeat)):
        if a != b:
            return i
    if len(reference) != len(repeat):
        return min(len(reference), len(repeat))
    return None


def all_finite(doc: dict) -> bool:
    """True when every float in a (nested) report dict is finite."""
    for value in doc.values():
        if isinstance(value, dict) and not all_finite(value):
            return False
        if isinstance(value, float) and not math.isfinite(value):
            return False
    return True


def decode_is_valid(tokens, vocab_size: int, t_max: int, eos: int) -> bool:
    """A decode is valid when every id is in the vocabulary and it ends in
    <eos> or stops at t_max."""
    if not tokens or len(tokens) > t_max:
        return False
    if any(not 0 <= t < vocab_size for t in tokens):
        return False
    return tokens[-1] == eos or len(tokens) == t_max


def cap_blas_threads(limit: int) -> dict[str, str]:
    """Cap every BLAS/OpenMP thread variable at `limit`; call before numpy is
    imported. Returns the settings in force."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= limit:
            os.environ[var] = str(limit)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "nproc": nproc(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
