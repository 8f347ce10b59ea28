"""The benchmark's tracer (perfbench/tracing.py) wraps curioseq functions by
module and name, and its workloads (perfbench/workloads.py) call and probe
them. These checks fail here, rather than in a benchmark run, when a traced
or called name disappears, a probed decoder stops being called once per
scene or a train step grows extra backward passes. tracing.py uses only the
standard library, so it is loaded by path."""

import ast
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
from oracles import one_row_sample, unstack

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def workload_names():
    """(module, name) of every cs.<module>.<name> that workloads.py reads
    and every Probe(cs.<module>, "<name>") it installs."""
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "cs"):
            names.add((node.value.attr, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Probe":
            module, attr = node.args
            names.add((module.attr, attr.value))
    return names


def test_every_workload_name_resolves(tracing):
    names = workload_names()
    assert ("trainer", "xe_loss") in names and ("policy", "beam_search") in names
    assert [f"{mod}.{name}" for mod, name in sorted(names)
            if not hasattr(getattr(curioseq, mod), name)] == []


@pytest.fixture(scope="module")
def corpus():
    spec = synth.GrammarSpec(nouns=("box", "tree", "dog"), adjectives=("red",),
                             verbs=("standing",), objects_per_scene=2, regions=3,
                             feature_dim=6, references_per_scene=2, seed=5)
    return synth.synth_split(spec, 4, 3)


@pytest.mark.parametrize("decode,width,probed", [("greedy", 1, "rollout_greedy"),
                                                 ("beam", 2, "beam_search")])
def test_evaluate_calls_the_probed_decoder_once_per_scene(corpus, monkeypatch, decode, width,
                                                          probed):
    train, val, vocab = corpus
    cfg = T.TrainConfig(hidden_size=6, t_max=8, decode=decode, beam_width=width)
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    calls = []
    for name in ("rollout_greedy", "beam_search"):
        def counted(params, features, *rest, _name=name, _decode=getattr(P, name)):
            calls.append((_name, id(features)))
            return _decode(params, features, *rest)

        monkeypatch.setattr(P, name, counted)
    T.evaluate(val, model, vocab, M.build_idf(T.reference_documents(train, vocab)), cfg)
    assert calls == [(probed, id(scene.features)) for scene in val]


def test_train_validates_through_the_probed_greedy_decoder_under_a_beam_config(corpus,
                                                                               monkeypatch):
    """The epoch workloads read every val decode off the rollout_greedy
    probe: train decodes greedily whatever cfg.decode says, so a beam config
    trains and reports as its greedy twin."""
    train, val, vocab = corpus
    calls = []
    for name in ("rollout_greedy", "beam_search"):
        def counted(params, features, *rest, _name=name, _decode=getattr(P, name)):
            calls.append((_name, id(features)))
            return _decode(params, features, *rest)

        monkeypatch.setattr(P, name, counted)
    reports = {}
    for decode, width in (("beam", 2), ("greedy", 1)):
        calls.clear()
        cfg = T.TrainConfig(hidden_size=6, t_max=8, batch_size=2, epochs=2, decode=decode,
                            beam_width=width)
        reports[decode] = [r.to_json() for r in T.train(train, val, vocab, cfg).reports]
        assert calls == [("rollout_greedy", id(scene.features)) for scene in val] * 2
    assert reports["beam"] == reports["greedy"]


def test_xe_loss_is_a_0d_node(corpus):
    train, _, vocab = corpus
    cfg = T.TrainConfig(hidden_size=6)
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    with K.no_grad():
        loss = T.xe_loss(model.policy, train[0], 0)
    assert loss.data.ndim == 0
    assert float(loss.data) > 0.0


def test_trainer_shares_the_kernel_gradients_binding(tracing):
    assert curioseq.trainer.gradients is curioseq.kernel.gradients


def test_traced_crl_step_has_one_backward_and_one_embedding_per_state(tracing, monkeypatch):
    spec = synth.GrammarSpec(nouns=("box", "tree", "dog"), adjectives=("red",),
                             verbs=("standing",), objects_per_scene=2, regions=3,
                             feature_dim=6, references_per_scene=2, seed=5)
    train, _, vocab = synth.synth_split(spec, 4, 1)
    cfg = T.TrainConfig(batch_size=4, hidden_size=6, t_max=12, epochs=1)
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    docs = T.reference_documents(train, vocab)
    idf = M.build_idf(docs)
    references = [M.reference_stats(doc, idf) for doc in docs]
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
        curioseq.trainer.train_step(train, model, opt, cfg, vocab, references, rngs(),
                                    eta=1.0)
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
    assert [t.actions for t in unstack(run.episodes)] == [t.actions for t in oracle]
    for got, want in zip(unstack(run.episodes), oracle):
        np.testing.assert_allclose(got.log_probs, want.log_probs, rtol=0, atol=1e-12)


def test_traced_step_counts_read_the_length_of_each_result(tracing, corpus):
    """The tracer's _observe takes len() of what rollout_sample and
    forced_step_losses return as their number of steps."""
    train, _, vocab = corpus
    cfg = T.TrainConfig(hidden_size=6)
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    # scene i samples with t_max 2 + i, so the episodes differ in length
    oracle = [one_row_sample(model.policy, scene.features, 2 + i, np.random.default_rng([9, i]))
              for i, scene in enumerate(train)]
    assert len({len(t) for t in oracle}) > 1
    tracer = tracing.Tracer()
    tracer.install(curioseq)
    try:
        for i, scene in enumerate(train):
            curioseq.policy.rollout_sample(model.policy, scene.features, 2 + i,
                                           np.random.default_rng([9, i]))
            curioseq.policy.forced_step_losses(model.policy, scene.features,
                                               scene.references[0])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["policy.rollout_sample.calls"] == len(train)
    assert metrics["policy.sampled_steps"] == sum(len(t) for t in oracle)
    assert metrics["policy.forced_steps"] == sum(len(s.references[0]) for s in train)


@pytest.mark.parametrize("run", ["train_step", "greedy", "beam"])
def test_a_traced_step_builds_no_node_and_each_unrolled_step_is_one_call(tracing, corpus,
                                                                        monkeypatch, run):
    """A train step, a greedy and a beam-2 decode, each traced on its own:
    policy_step builds no graph node (kernel.nodes_per_policy_step reads 0,
    which a recorded per-step node would raise), and the tracer counts one
    policy.policy_step call for each step that unroll ran."""
    train, val, vocab = corpus
    cfg = T.TrainConfig(batch_size=4, hidden_size=6, t_max=8, epochs=1)
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    idf = M.build_idf(T.reference_documents(train, vocab))
    references = [M.reference_stats(doc, idf) for doc in T.reference_documents(train, vocab)]
    calls = {
        "train_step": lambda: curioseq.trainer.train_step(
            train, model, K.OptimState(learning_rate=cfg.learning_rate), cfg, vocab, references,
            [np.random.default_rng([4, i]) for i in range(len(train))], eta=1.0),
        "greedy": lambda: curioseq.policy.rollout_greedy(model.policy, val[0].features, cfg.t_max),
        "beam": lambda: curioseq.policy.beam_search(model.policy, val[0].features, cfg.t_max, 2),
    }
    unrolled = []
    unroll = P.unroll

    def counted(params, scene, step, t_max):
        def counted_step(*args):
            unrolled[-1] += 1
            return step(*args)

        unrolled.append(0)
        return unroll(params, scene, counted_step, t_max)

    monkeypatch.setattr(P, "unroll", counted)
    tracer = tracing.Tracer()
    tracer.install(curioseq)
    try:
        calls[run]()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    (steps,) = unrolled
    assert steps > 1
    assert metrics["policy.policy_step.calls"] == steps
    assert metrics["kernel.nodes_per_policy_step"] == 0.0
    if run != "train_step":
        assert metrics["policy.decode_steps"] == steps
