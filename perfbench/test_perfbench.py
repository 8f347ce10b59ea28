"""Tests of the benchmark's own helpers: `python -m pytest perfbench`."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from checks import (all_finite, cap_blas_threads, decode_is_valid, first_mismatch,
                    percentile, samples_beyond)
from run import Bench
from tracing import MODULES, Span, Tracer, self_times

SRC = Path(__file__).resolve().parents[1] / "src"


# -- percentiles ------------------------------------------------------------

def test_percentile_nearest_rank_with_stated_sample_count():
    values = list(range(1, 21))            # 20 samples, shuffled below
    shuffled = values[::2] + values[1::2]
    assert percentile(shuffled, 50) == 10
    assert percentile(shuffled, 90) == 18
    assert percentile(shuffled, 100) == 20
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(20, 90) == 2


def test_p95_has_ten_samples_beyond_it_at_two_hundred():
    values = [float(v) for v in range(200)]
    assert percentile(values, 95) == 189.0
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(26, 50) == 13


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# -- self time --------------------------------------------------------------

def test_self_time_is_span_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 8.0, 0),
        Span("b.child", 5.0, 6.0, 2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1), Span("x", 2.0, 6.0, 0), Span("y", 4.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_metrics_inclusive_and_self_seconds():
    ticks = iter([0.0, 1.0, 2.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return []

    def outer():
        return wrapped_inner()

    wrapped_inner = tracer._wrap(inner, "curiosity.sp_loss")
    tracer._wrap(outer, "trainer.train_step")()
    metrics = tracer.metrics()
    assert metrics["trainer.train_step.s"] == 4.0
    assert metrics["trainer.train_step.self_s"] == 3.0
    assert metrics["curiosity.sp_loss.s"] == 1.0
    assert metrics["curiosity.sp_loss.calls"] == 1


def test_tracer_inclusive_time_counts_a_recursive_call_once():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def evaluate(depth):
        return wrapped(depth - 1) if depth else 0

    wrapped = tracer._wrap(evaluate, "trainer.evaluate")
    wrapped(1)
    metrics = tracer.metrics()
    assert metrics["trainer.evaluate.calls"] == 2
    assert metrics["trainer.evaluate.s"] == 5.0
    assert metrics["trainer.evaluate.self_s"] == 5.0


# -- output checks ----------------------------------------------------------

def test_byte_identical_check_catches_a_perturbed_report():
    report = json.dumps({"xe_loss": 57.76005177958521, "val_cider": 0.0}, sort_keys=True)
    perturbed = json.dumps({"xe_loss": 57.760051779585215, "val_cider": 0.0}, sort_keys=True)
    tokens = ["4 5 6 2", "7 8 2"]
    assert first_mismatch([report] + tokens, [report] + tokens) is None
    assert first_mismatch([report] + tokens, [perturbed] + tokens) == 0
    assert first_mismatch([report] + tokens, [report, "4 5 6 2", "7 9 2"]) == 2
    assert first_mismatch([report] + tokens, [report] + tokens[:1]) == 2


def _stub_bench(outputs_per_pass):
    passes = iter(outputs_per_pass)

    def run_pass(cs, workload, corpus, workdir):
        return SimpleNamespace(outputs=next(passes), attempted=3, failed=0)

    stub = SimpleNamespace(run_pass=run_pass, expected_ops=lambda workload: 3)
    return Bench(cs=None, workloads=stub, workload="xe_epoch", seed=0, workdir=Path("."))


def test_bench_counts_a_perturbed_repeat_as_failed():
    report = '{"xe_loss": 57.76}'
    bench = _stub_bench([[report, "1 2"], [report, "1 2"], ['{"xe_loss": 57.77}', "1 2"]])
    for _ in range(3):
        bench.run_pass(corpus=None)
    assert bench.attempted == 9
    assert bench.failed == 3
    assert bench.passes_ok == 3


def test_bench_counts_a_raising_pass_without_crashing():
    def run_pass(cs, workload, corpus, workdir):
        raise FloatingPointError("boom")

    stub = SimpleNamespace(run_pass=run_pass, expected_ops=lambda workload: 7)
    bench = Bench(cs=None, workloads=stub, workload="decode", seed=0, workdir=Path("."))
    assert bench.run_pass(corpus=None) is None
    assert (bench.attempted, bench.failed, bench.passes_ok) == (7, 7, 0)


def test_decode_validity():
    assert decode_is_valid([5, 6, 2], vocab_size=10, t_max=30, eos=2)
    assert decode_is_valid([5] * 30, vocab_size=10, t_max=30, eos=2)
    assert not decode_is_valid([5] * 29, vocab_size=10, t_max=30, eos=2)
    assert not decode_is_valid([5, 10, 2], vocab_size=10, t_max=30, eos=2)
    assert not decode_is_valid([-1, 2], vocab_size=10, t_max=30, eos=2)
    assert not decode_is_valid([], vocab_size=10, t_max=30, eos=2)


def test_all_finite_looks_into_nested_reports():
    assert all_finite({"a": 1.0, "bleu": {"1": 0.5}, "n": 3})
    assert not all_finite({"a": 1.0, "bleu": {"1": float("nan")}})
    assert not all_finite({"a": float("inf")})


def test_blas_threads_are_capped(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "64")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    settings = cap_blas_threads(2)
    assert settings["OPENBLAS_NUM_THREADS"] == "2"
    assert settings["OMP_NUM_THREADS"] == "1"


# -- tracer installation ----------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import curioseq
    for name in MODULES:
        __import__(f"curioseq.{name}")
    kernel, trainer = curioseq.kernel, curioseq.trainer
    originals = (kernel.gradients, trainer.gradients, kernel.Tensor.__init__)

    tracer = Tracer()
    tracer.install(curioseq)
    try:
        assert trainer.gradients is kernel.gradients
        assert trainer.gradients is not originals[0]
        p = kernel.Parameter([1.0, 2.0], "w")
        loss = kernel.sumsq(p)
        grads = trainer.gradients(loss, [p])
    finally:
        tracer.uninstall()
    assert (kernel.gradients, trainer.gradients, kernel.Tensor.__init__) == originals
    assert grads["w"].tolist() == [2.0, 4.0]
    metrics = tracer.metrics()
    assert metrics["kernel.gradients.calls"] == 1
    assert metrics["kernel.nodes.param"] == 1
    assert metrics["kernel.nodes.sumsq"] == 1
    assert metrics["kernel.nodes"] == 2
