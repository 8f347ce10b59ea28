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


def test_traced_crl_step_has_one_backward_and_one_embedding_per_state(tracing):
    spec = synth.GrammarSpec(nouns=("box", "tree", "dog"), adjectives=("red",),
                             verbs=("standing",), objects_per_scene=2, regions=3,
                             feature_dim=6, references_per_scene=2, seed=5)
    train, _, vocab = synth.synth_split(spec, 4, 1)
    cfg = T.TrainConfig(batch_size=4, hidden_size=6, t_max=8, epochs=1)
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    idf = M.build_idf(T.reference_documents(train, vocab))
    opt = K.OptimState(learning_rate=cfg.learning_rate)
    # the episodes the step will sample: same initial model, same rng stream
    rng = np.random.default_rng(0)
    with K.no_grad():
        sampled = [len(P.rollout_sample(model.policy, scene.features, cfg.t_max, rng))
                   for scene in train]
    longest_row = max(sampled + [len(scene.references[0]) for scene in train])
    tracer = tracing.Tracer()
    tracer.install(curioseq)
    try:
        curioseq.trainer.train_step(train, model, opt, cfg, vocab, idf,
                                    np.random.default_rng(0), eta=1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["trainer.backward_passes_per_step"] == 1.0
    assert 0.0 < metrics["curiosity.embeds_per_state"] <= 1.0
    assert metrics["policy.sampled_steps"] == sum(sampled)
    # every step goes through the module-level policy_step binding: one per
    # sampled step, then one per step of the batched unroll over all rows
    assert metrics["policy.policy_step.calls"] == metrics["policy.sampled_steps"] + longest_row
