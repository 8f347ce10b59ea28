"""The benchmark's tracer (perfbench/tracing.py) wraps curioseq functions by
module and name. These checks fail here, rather than in a traced benchmark
run, when a traced name disappears or a train step grows extra backward
passes. tracing.py uses only the standard library, so it is loaded by path."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import curioseq
from curioseq import kernel as K
from curioseq import metrics as M
from curioseq import policy as P
from curioseq import synth
from curioseq import trainer as T
from oracles import one_row_sample

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("curioseq_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    for name in module.MODULES:
        importlib.import_module(f"curioseq.{name}")
    return module


def test_every_traced_name_resolves(tracing):
    missing = [f"{mod}.{fn}" for mod, fn in tracing.TRACED
               if not callable(getattr(getattr(curioseq, mod), fn, None))]
    assert missing == []


def test_trainer_shares_the_kernel_gradients_binding(tracing):
    assert curioseq.trainer.gradients is curioseq.kernel.gradients


def test_traced_crl_step_has_one_backward_and_one_embedding_per_state(tracing, monkeypatch):
    spec = synth.GrammarSpec(nouns=("box", "tree", "dog"), adjectives=("red",),
                             verbs=("standing",), objects_per_scene=2, regions=3,
                             feature_dim=6, references_per_scene=2, seed=5)
    train, _, vocab = synth.synth_split(spec, 4, 1)
    cfg = T.TrainConfig(batch_size=4, hidden_size=6, t_max=12, epochs=1)
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    idf = M.build_idf(T.reference_documents(train, vocab))
    opt = K.OptimState(learning_rate=cfg.learning_rate)

    def rngs():
        return [np.random.default_rng([4, i]) for i in range(len(train))]

    # the episodes the step must sample: same initial model, same generators;
    # all of them end at <eos> before t_max
    oracle = [one_row_sample(model.policy, scene.features, cfg.t_max, rng)
              for scene, rng in zip(train, rngs())]
    assert max(len(t) for t in oracle) < cfg.t_max
    steps = max([len(t) for t in oracle] + [len(scene.references[0]) for scene in train])
    captured = []
    unroll_rows = P.unroll_rows

    def capture(*args):
        captured.append(unroll_rows(*args))
        return captured[-1]

    monkeypatch.setattr(P, "unroll_rows", capture)
    tracer = tracing.Tracer()
    tracer.install(curioseq)
    try:
        curioseq.trainer.train_step(train, model, opt, cfg, vocab, idf, rngs(), eta=1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["trainer.backward_passes_per_step"] == 1.0
    # the curiosity pass embeds all sampled states in one call
    assert metrics["curiosity.embed_state.calls"] == 1
    # every step goes through the module-level policy_step binding: one per
    # step of the single row unroll, which samples and scores in the same
    # steps and runs until its longest row ends
    assert metrics["policy.policy_step.calls"] == steps
    (run,) = captured
    assert [t.actions for t in run.traces] == [t.actions for t in oracle]
    for got, want in zip(run.traces, oracle):
        np.testing.assert_allclose(got.log_probs, want.log_probs, rtol=0, atol=1e-12)
