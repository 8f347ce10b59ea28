import json
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from curioseq import curiosity as C
from curioseq import kernel as K
from curioseq import metrics as M
from curioseq import policy as P
from curioseq import rewards as R
from curioseq import synth
from curioseq import trainer as T
from curioseq.vocab import EOS_ID
import oracles
from oracles import add_n, rl_surrogate, scale


# what train writes to cfg.out_dir
RUN_FILES = ["best.ckpt", "effective_config.json", "last.ckpt", "reports.jsonl"]


class Stopped(Exception):
    """Ends a train call where a kill would."""


@pytest.fixture(scope="module")
def tiny_corpus():
    spec = synth.GrammarSpec(
        nouns=("box", "tree", "dog", "cat"),
        adjectives=("red", "tall"),
        verbs=("standing", "sitting"),
        objects_per_scene=2,
        regions=3,
        feature_dim=8,
        references_per_scene=2,
        seed=3,
    )
    train, val, vocab = synth.synth_split(spec, 10, 4)
    return train, val, vocab


def tiny_config(**kw):
    defaults = dict(epochs=1, batch_size=5, hidden_size=12, t_max=12, seed=0,
                    optimizer="sgd", learning_rate=1e-3)
    defaults.update(kw)
    return T.TrainConfig(**defaults)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        T.TrainConfig()

    @pytest.mark.parametrize("field,value", [
        ("discount", 1.5),
        ("td_lambda", -0.1),
        ("imitation_decay", 0.0),
        ("imitation_decay", 1.5),
        ("intrinsic_scale", -1.0),
        ("learning_rate", 0.0),
        ("lr_decay", 0.0),
        ("lr_decay", -1.0),
        ("lr_decay_period", 0),
        ("batch_size", 0),
        ("clip_norm", -1.0),
        ("optimizer", "rmsprop"),
        ("mode", "hybrid"),
        ("mode", "no_intrinsic"),
        ("beam_width", 0),
        ("curiosity_init_scale", 0.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(T.ConfigError):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "intrinsic_scale", "discount", "td_lambda", "action_loss_weight", "state_loss_weight",
        "imitation_weight", "imitation_decay", "bleu_weight", "cider_weight", "learning_rate",
        "lr_decay", "clip_norm", "curiosity_init_scale"])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(T.ConfigError, match=f"{field} must be finite"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("value", [True, False, "x", None])
    @pytest.mark.parametrize("field", [
        "intrinsic_scale", "discount", "td_lambda", "action_loss_weight", "state_loss_weight",
        "imitation_weight", "imitation_decay", "bleu_weight", "cider_weight", "learning_rate",
        "lr_decay", "clip_norm", "curiosity_init_scale"])
    def test_non_number_floats_rejected(self, field, value):
        # a JSON true is a bool, which Python counts as an int; only
        # clip_norm may be null
        if value is None and field == "clip_norm":
            assert tiny_config(clip_norm=None).clip_norm is None
            return
        with pytest.raises(T.ConfigError, match=f"{field} must be a number"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, "3", None])
    def test_non_integer_lr_decay_period_rejected(self, value):
        # 2.5 would decay at fractional periods, and true at period 1
        with pytest.raises(T.ConfigError, match="lr_decay_period must be an integer"):
            tiny_config(lr_decay_period=value)

    def test_an_int_is_a_number(self):
        assert tiny_config(imitation_weight=6, learning_rate=1).imitation_weight == 6

    @pytest.mark.parametrize("field,value", [("train_manifest", 5), ("val_manifest", ["x"]),
                                             ("out_dir", 5)])
    def test_non_string_paths_rejected(self, field, value):
        with pytest.raises(T.ConfigError, match=f"{field} must be a string or null"):
            tiny_config(**{field: value})


class TestSchedules:
    def test_eta_start(self):
        assert T.eta_schedule(1.0, 0.9, 0) == 1.0

    def test_eta_three_epochs(self):
        assert T.eta_schedule(1.0, 0.9, 3) == 0.9 ** 3

    def test_eta_constant_when_decay_one(self):
        assert T.eta_schedule(2.5, 1.0, 17) == 2.5

    def test_lr_paper_values(self):
        assert T.lr_schedule(6e-4, 0.8, 3, 0) == 6e-4
        assert T.lr_schedule(6e-4, 0.8, 3, 2) == 6e-4
        assert T.lr_schedule(6e-4, 0.8, 3, 3) == 6e-4 * 0.8

    def test_exactness_over_fifty_epochs(self):
        for k in range(51):
            assert T.eta_schedule(1.0, 0.9, k) == 1.0 * 0.9 ** k
            assert T.lr_schedule(6e-4, 0.8, 3, k) == 6e-4 * 0.8 ** (k // 3)

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            T.eta_schedule(1.0, 0.9, -1)
        with pytest.raises(ValueError):
            T.lr_schedule(1.0, 0.9, 3, -1)


class TestXeLoss:
    def test_uniform_policy_gives_length_times_log_vocab(self, tiny_corpus):
        train, _, vocab = tiny_corpus
        cfg = tiny_config()
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        for p in model.policy.parameters():
            p.data[...] = 0.0
        scene = train[0]
        loss = T.xe_loss(model.policy, scene)
        expected = len(scene.references[0]) * math.log(vocab.size)
        assert float(loss.data) == pytest.approx(expected, rel=1e-8)

    def test_matches_per_step_cross_entropy_scan(self, tiny_corpus):
        train, _, vocab = tiny_corpus
        cfg = tiny_config(seed=4)
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        scene = train[0]
        loss = float(T.xe_loss(model.policy, scene).data)
        # independent scan with explicit policy steps
        from curioseq.vocab import BOS_ID
        with K.no_grad():
            total = 0.0
            state = oracles.zero_state(model.policy)
            prev = BOS_ID
            scene_row = P.project_batch(model.policy, [scene.features])
            for tok in scene.references[0]:
                logits, record = P.policy_step(model.policy, np.array([prev]), state, scene_row)
                state = record.state
                total += -math.log(K.softmax_values(logits)[0, tok] + 1e-12)
                prev = tok
        assert loss == pytest.approx(total, abs=1e-10)

    def test_gradcheck(self, tiny_corpus):
        train, _, vocab = tiny_corpus
        cfg = tiny_config(seed=5, hidden_size=6)
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        scene = train[0]

        def fn():
            return T.xe_loss(model.policy, scene)

        assert oracles.grad_check(fn, model.policy.parameters(), max_coords=10) <= 1e-4


def reference_stats(batch, train, vocab):
    """The reference statistics of each scene of batch against the idf of
    the train split, as train builds them."""
    idf = M.build_idf(T.reference_documents(train, vocab))
    return [M.reference_stats(doc, idf) for doc in T.reference_documents(batch, vocab)]


def scene_rngs(seed, n):
    """One sampling generator per scene of a minibatch."""
    return [np.random.default_rng([seed, i]) for i in range(n)]


def snapshot(params):
    return {p.name: p.data.copy() for p in params}


def changed(before, params):
    return {p.name for p in params if not (before[p.name] == p.data).all()}


class TestTrainStep:
    def run_step(self, tiny_corpus, cfg, seed=0):
        train, _, vocab = tiny_corpus
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        opt = K.OptimState(learning_rate=cfg.learning_rate, clip_norm=cfg.clip_norm,
                           variant=cfg.optimizer)
        batch = train[: cfg.batch_size]
        eta = 1.0 if cfg.mode == "xe" else cfg.imitation_weight
        sampled = [] if cfg.mode == "xe" else batch        # as train passes them
        before = snapshot(model.parameters())
        stats = T.train_step(batch, model, opt, cfg, vocab, reference_stats(sampled, train, vocab),
                             scene_rngs(seed, len(sampled)), eta=eta)
        return model, before, stats

    def test_zero_weights_and_advantages_change_nothing(self, tiny_corpus):
        # alpha = beta = eta = 0 with zero advantages: no parameter moves
        cfg = tiny_config(action_loss_weight=0.0, state_loss_weight=0.0,
                          imitation_weight=0.0, intrinsic_scale=0.0,
                          bleu_weight=0.0, cider_weight=0.0)
        model, before, _ = self.run_step(tiny_corpus, cfg)
        assert changed(before, model.parameters()) == set()

    def test_alpha_beta_zero_leave_curiosity_unchanged(self, tiny_corpus):
        cfg = tiny_config(action_loss_weight=0.0, state_loss_weight=0.0)
        model, before, _ = self.run_step(tiny_corpus, cfg)
        assert changed(before, model.curiosity.parameters()) == set()
        assert changed(before, model.policy.parameters()) != set()

    def test_zero_advantage_and_eta_leave_policy_unchanged(self, tiny_corpus):
        cfg = tiny_config(imitation_weight=0.0, intrinsic_scale=0.0,
                          bleu_weight=0.0, cider_weight=0.0)
        model, before, _ = self.run_step(tiny_corpus, cfg)
        assert changed(before, model.policy.parameters()) == set()
        # curiosity still trains on its own losses
        assert changed(before, model.curiosity.parameters()) != set()

    def test_xe_mode_touches_only_policy(self, tiny_corpus):
        cfg = tiny_config(mode="xe")
        model, before, _ = self.run_step(tiny_corpus, cfg)
        assert changed(before, model.curiosity.parameters()) == set()
        assert changed(before, model.policy.parameters()) != set()

    def test_combined_step_with_disabled_rl_equals_pure_xe_step(self, tiny_corpus):
        # eta = 1, gamma = 0, rho = 0, alpha = beta = 0 and zero metric
        # weights: the combined update must equal a standalone imitation step
        train, _, vocab = tiny_corpus
        shared = dict(clip_norm=None, discount=0.0, intrinsic_scale=0.0,
                      action_loss_weight=0.0, state_loss_weight=0.0,
                      bleu_weight=0.0, cider_weight=0.0, imitation_weight=1.0)
        crl_model, _, _ = self.run_step(tiny_corpus, tiny_config(mode="crl", **shared))
        xe_model, _, _ = self.run_step(tiny_corpus, tiny_config(mode="xe", **shared))
        for a, b in zip(crl_model.policy.parameters(), xe_model.policy.parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)

    def test_nan_loss_aborts_with_term_name(self, tiny_corpus):
        train, _, vocab = tiny_corpus
        cfg = tiny_config()
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        model.policy.W_p.data[0, 0] = np.nan
        opt = K.OptimState(learning_rate=cfg.learning_rate)
        with pytest.raises(T.TrainingAborted, match="imitation|reinforcement"):
            T.train_step(train[:4], model, opt, cfg, vocab,
                         reference_stats(train[:4], train, vocab), scene_rngs(0, 4), eta=1.0)

    def test_grads_cleared_after_step(self, tiny_corpus):
        cfg = tiny_config()
        model, _, _ = self.run_step(tiny_corpus, cfg)
        assert K.global_grad_norm(model.parameters()) == 0.0

    @pytest.mark.parametrize("mode", ["crl", "xe"])
    def test_each_step_builds_the_gate_terms_from_its_own_parameters(self, tiny_corpus,
                                                                     monkeypatch, mode):
        """Two consecutive steps: the policy gradient of each, as it reaches
        sgd_step, equals the per-step graph of the unhoisted step over the
        same rows and weights, built from the parameters that step ran with.
        A gate term or word table kept from the first step would pass the
        first comparison only."""
        train, _, vocab = tiny_corpus
        cfg = tiny_config(mode=mode)
        batch = train[:cfg.batch_size]
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        policy = model.policy.parameters()
        seen, errors = {}, []
        loss, sgd_step = P.RowUnroll.loss, T.sgd_step

        def record_loss(run, weights):
            seen.update(run=run, weights=weights)
            return loss(run, weights)

        def checked_step(params, opt):
            got = {p.name: p.grad.copy() for p in params}
            run, w = seen.pop("run"), seen["weights"]
            tokens = ([scene.references[0] for scene in batch]
                      + [t.actions for t in oracles.unstack(run.episodes)])
            feats = [scene.features for scene in batch] * (len(tokens) // len(batch))
            # the oracle's two weights: eta/B on the reference rows' cross-entropy
            # and -A/B on the sampled rows' log-probabilities
            b = len(batch)
            oracle = oracles.padded_score_rows(
                model.policy, feats, tokens,
                [w[r, :len(t)] if r < b else np.zeros(len(t)) for r, t in enumerate(tokens)],
                [np.zeros(len(t)) if r < b else -w[r, :len(t)] for r, t in enumerate(tokens)],
                unhoisted=True)
            K.zero_grads(policy)
            oracles.backward(oracle.loss)
            errors.append(max(np.abs(got[q.name] - q.grad).max() / np.abs(q.grad).max()
                              for q in policy))
            for p in params:
                p.grad[...] = got[p.name]
            sgd_step(params, opt)

        monkeypatch.setattr(P.RowUnroll, "loss", record_loss)
        monkeypatch.setattr(T, "sgd_step", checked_step)
        opt = T.new_optimizer(cfg)
        sampled = [] if mode == "xe" else batch
        references = reference_stats(sampled, train, vocab)
        for step in range(2):
            T.train_step(batch, model, opt, cfg, vocab, references,
                         scene_rngs(step, len(sampled)), eta=1.0)
        assert len(errors) == 2 and max(errors) <= 1e-12, errors

    def test_the_zero_reward_control_gets_the_imitation_gradient_alone(self, tiny_corpus,
                                                                      monkeypatch):
        """mode crl with bleu_weight, cider_weight and intrinsic_scale at 0:
        every advantage is 0, so the policy's gradients as they reach
        sgd_step equal, bit for bit, those of the step's own unroll weighted
        eta/B on its reference rows and 0 on its sampled rows."""
        train, _, vocab = tiny_corpus
        cfg = tiny_config(bleu_weight=0.0, cider_weight=0.0, intrinsic_scale=0.0,
                          imitation_weight=2.0)
        batch = train[:cfg.batch_size]
        b = len(batch)
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        policy = model.policy.parameters()
        seen = {}
        loss, sgd_step = P.RowUnroll.loss, T.sgd_step

        def record_loss(run, weights):
            seen["run"] = run
            return loss(run, weights)

        def checked_step(params, opt):
            got = {p.name: p.grad.copy() for p in params}
            run = seen["run"]
            weights = np.zeros(run.ce_values.shape)
            weights[:b] = cfg.imitation_weight / b
            K.zero_grads(policy)
            oracles.backward(loss(run, weights))
            seen["want"] = {p.name: p.grad.copy() for p in policy}
            for p in params:
                p.grad[...] = got[p.name]
            seen["got"] = got
            sgd_step(params, opt)

        monkeypatch.setattr(P.RowUnroll, "loss", record_loss)
        monkeypatch.setattr(T, "sgd_step", checked_step)
        stats = T.train_step(batch, model, T.new_optimizer(cfg), cfg, vocab,
                             reference_stats(batch, train, vocab), scene_rngs(0, b),
                             eta=cfg.imitation_weight)
        assert seen["run"].episodes.lengths.size == b and stats.sampled_steps > b
        assert stats.rl_loss == 0.0 and stats.extrinsic_sum == 0.0
        assert stats.intrinsic_sum == 0.0
        for p in policy:
            assert np.abs(seen["want"][p.name]).max() > 0.0, p.name
            assert np.array_equal(seen["got"][p.name], seen["want"][p.name]), p.name

    @pytest.mark.parametrize("mode", ["crl", "xe"])
    def test_a_minibatch_projects_each_scene_once(self, tiny_corpus, monkeypatch, mode):
        calls = []
        project = P.project_batch

        def counted(params, features):
            calls.append(len(features))
            return project(params, features)

        monkeypatch.setattr(P, "project_batch", counted)
        cfg = tiny_config(mode=mode)
        self.run_step(tiny_corpus, cfg)
        assert calls == [cfg.batch_size]


def separate_group_gradients(tiny_corpus, cfg, seed=0):
    """Oracle for one crl train_step: the policy, state-prediction and
    action-prediction losses of the same traces, each with its own backward."""
    train, _, vocab = tiny_corpus
    model = T.init_model(cfg, vocab.size, train[0].feature_dim)
    idf = M.build_idf(T.reference_documents(train, vocab))
    batch = train[: cfg.batch_size]
    policy_terms, sp_terms, ap_terms = [], [], []
    for scene, rng in zip(batch, scene_rngs(seed, len(batch))):
        episode = P.rollout_sample(model.policy, scene.features, cfg.t_max, rng)
        (intrinsic,) = C.intrinsic_rewards(episode, model.curiosity, cfg.intrinsic_scale)
        (trace,) = oracles.unstack(episode)
        cand = vocab.decode_text(trace.actions)
        refs = [vocab.decode_text(r) for r in scene.references]
        r_e = 0.0
        if cand:
            r_e = (cfg.bleu_weight * M.bleu([(cand, refs)], max_n=4, mode="sentence")
                   + cfg.cider_weight * M.cider_single(cand, refs, idf))
        q = R.q_closed_form(r_e, len(trace), cfg.discount)
        rl = rl_surrogate(model.policy, scene.features, trace.actions, q + intrinsic)
        xe = T.xe_loss(model.policy, scene, 0)
        policy_terms.append(K.add(rl, scale(xe, cfg.imitation_weight)))
        sp_terms.append(C.sp_loss(episode, model.curiosity))
        ap_terms.append(C.ap_loss(episode, model.curiosity))
    losses = [scale(add_n(terms), 1.0 / len(batch))
              for terms in (policy_terms, sp_terms, ap_terms)]
    grads = [oracles.gradients(loss, model.parameters()) for loss in losses]
    return grads, [float(loss.data) for loss in losses[1:]]


class TestPerGroupUpdate:
    """One SGD step must give each parameter group its own gradient: the
    policy its loss, each predictor its own unweighted loss, and the shared
    embedding alpha * d(ap) + beta * d(sp)."""

    @pytest.mark.parametrize("alpha,beta", [(0.2, 0.8), (0.0, 0.8), (0.2, 0.0)])
    def test_update_matches_separate_group_gradients(self, tiny_corpus, alpha, beta):
        cfg = tiny_config(clip_norm=None, action_loss_weight=alpha,
                          state_loss_weight=beta)
        model, before, stats = TestTrainStep().run_step(tiny_corpus, cfg)
        (g_pol, g_sp, g_ap), (sp_value, ap_value) = separate_group_gradients(
            tiny_corpus, cfg)
        lr = cfg.learning_rate
        cur = model.curiosity
        expected = {p.name: g_pol[p.name] for p in model.policy.parameters()}
        for p in cur.embedding_parameters():
            expected[p.name] = alpha * g_ap[p.name] + beta * g_sp[p.name]
        for p in cur.state_predictor_parameters():
            expected[p.name] = g_sp[p.name] if beta > 0 else np.zeros_like(p.data)
        for p in cur.action_predictor_parameters():
            expected[p.name] = g_ap[p.name] if alpha > 0 else np.zeros_like(p.data)
        for p in model.parameters():
            np.testing.assert_allclose(p.data, before[p.name] - lr * expected[p.name],
                                       rtol=1e-12, atol=0, err_msg=p.name)
        assert stats.sp_loss == (pytest.approx(sp_value, rel=1e-12) if beta > 0 else 0.0)
        assert stats.ap_loss == (pytest.approx(ap_value, rel=1e-12) if alpha > 0 else 0.0)
        assert changed(before, cur.embedding_parameters()) == {"curiosity.phi_W",
                                                               "curiosity.phi_b"}


class TestAdvantageAssembly:
    """train_step's (B, T) assembly against the per-episode loop it replaced
    (oracles.per_episode_assembly), fed the same episodes and curiosity
    errors: the sampled rows' weights handed to RowUnroll.loss, A/B, against
    the oracle's log-prob weights -A/B, and the step's report sums must be
    equal, not close."""

    @pytest.mark.parametrize("rho", [0.7, 0.0], ids=["crl", "no_intrinsic"])
    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_weights_and_stats_equal_the_per_episode_oracle(self, tiny_corpus, monkeypatch,
                                                            rho, lam):
        train, _, vocab = tiny_corpus
        # episodes of up to 16 steps and a large curiosity init: with these a
        # sum over a zero-padded row rounds apart from one over the episode's
        # own steps, which the report sums must keep
        cfg = tiny_config(td_lambda=lam, t_max=16, intrinsic_scale=rho,
                          curiosity_init_scale=3.0, batch_size=10)
        batch = train[:cfg.batch_size]
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        seen = {}
        curiosity_pass, loss = C.curiosity_pass, P.RowUnroll.loss

        def record_pass(*args, **kwargs):
            seen["terms"] = curiosity_pass(*args, **kwargs)
            return seen["terms"]

        def record_loss(run, weights):
            seen["run"], seen["weights"] = run, weights
            return loss(run, weights)

        monkeypatch.setattr(C, "curiosity_pass", record_pass)
        monkeypatch.setattr(P.RowUnroll, "loss", record_loss)
        references = reference_stats(batch, train, vocab)
        stats = T.train_step(batch, model, K.OptimState(learning_rate=cfg.learning_rate), cfg,
                             vocab, references, scene_rngs(0, len(batch)), eta=1.0)
        run = seen["run"]
        traces = oracles.unstack(run.episodes)
        # the batch holds episodes that end at <eos> and at t_max, of several lengths
        assert 0 < sum(t.ended_with_eos for t in traces) < len(traces)
        assert len({len(t) for t in traces}) > 2
        errors = [e[:len(t)] for e, t in zip(seen["terms"].errors, traces)]
        lp_weights, sums = oracles.per_episode_assembly(traces, errors, references, vocab, cfg,
                                                        run.ce_values.shape)
        b = len(batch)
        assert np.array_equal(seen["weights"][b:], -lp_weights[b:])
        assert (seen["weights"][:b] == 1.0 / b).all()
        assert {name: getattr(stats, name) for name in sums} == sums
        assert (sums["intrinsic_sum"] > 0.0) == (rho > 0.0)


class TestTrain:
    @pytest.mark.parametrize("mode", ["crl", "xe"])
    def test_reference_statistics_are_counted_once_per_run(self, tiny_corpus, monkeypatch, mode):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=3, mode=mode)
        calls = []
        reference_stats, evaluate = M.reference_stats, T.evaluate

        def counted(*args, **kwargs):
            calls.append(args[0])
            return reference_stats(*args, **kwargs)

        monkeypatch.setattr(M, "reference_stats", counted)
        reports = [r.to_json() for r in T.train(train, val, vocab, cfg).reports]
        train_stats = 0 if mode == "xe" else len(train)
        assert len(calls) == train_stats + len(val)
        # the same run with evaluate building the val statistics in every epoch
        monkeypatch.setattr(T, "evaluate", lambda scenes, model, vocab_, idf, cfg_, references:
                            evaluate(scenes, model, vocab_, idf, cfg_))
        del calls[:]
        assert [r.to_json() for r in T.train(train, val, vocab, cfg).reports] == reports
        assert len(calls) == train_stats + 4 * len(val)

    @pytest.mark.parametrize("mode,with_val,count", [("crl", False, 6), ("crl", True, 9),
                                                     ("xe", False, 6), ("xe", True, 3)])
    def test_each_split_counts_its_reference_statistics_once(self, tiny_corpus, monkeypatch,
                                                             mode, with_val, count):
        # without a val split, one train table scores the episodes and the validation
        train, val, vocab = tiny_corpus
        train, val = train[:6], val[:3] if with_val else []
        cfg = tiny_config(epochs=2, mode=mode)
        calls = []
        reference_stats, evaluate = M.reference_stats, T.evaluate

        def counted(*args, **kwargs):
            calls.append(args[0])
            return reference_stats(*args, **kwargs)

        monkeypatch.setattr(M, "reference_stats", counted)
        reports = [r.to_json() for r in T.train(train, val, vocab, cfg).reports]
        assert len(calls) == count
        # the reports of a run whose evaluate builds its own statistics
        monkeypatch.setattr(T, "evaluate", lambda scenes, model, vocab_, idf, cfg_, references:
                            evaluate(scenes, model, vocab_, idf, cfg_))
        assert [r.to_json() for r in T.train(train, val, vocab, cfg).reports] == reports

    def test_zero_epochs_returns_initial_params(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=0)
        result = T.train(train, val, vocab, cfg)
        reference = T.init_model(cfg, vocab.size, train[0].feature_dim)
        assert result.reports == []
        for a, b in zip(result.model.parameters(), reference.parameters()):
            assert (a.data == b.data).all()

    def test_report_count_matches_epochs(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        result = T.train(train, val, vocab, tiny_config(epochs=3))
        assert [r.epoch for r in result.reports] == [0, 1, 2]

    def test_schedules_applied_per_epoch(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=4, lr_decay_period=2, lr_decay=0.5,
                          imitation_decay=0.9)
        result = T.train(train, val, vocab, cfg)
        for k, report in enumerate(result.reports):
            assert report.eta == cfg.imitation_weight * 0.9 ** k
            assert report.learning_rate == cfg.learning_rate * 0.5 ** (k // 2)

    def test_deterministic_given_seed(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=2, seed=7)
        a = T.train(train, val, vocab, cfg)
        b = T.train(train, val, vocab, cfg)
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert (pa.data == pb.data).all()
        assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]

    def test_all_report_fields_finite(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        result = T.train(train, val, vocab, tiny_config(epochs=2))
        for report in result.reports:
            report.validate_finite()

    def test_checkpoints_written_and_resumable(self, tiny_corpus, tmp_path):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=2, out_dir=str(tmp_path))
        result = T.train(train, val, vocab, cfg)
        assert (tmp_path / "last.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        model, _, start_epoch, best_cider = T.resume_state(tmp_path / "last.ckpt", cfg,
                                                           vocab.size, train[0].feature_dim)
        assert (start_epoch, best_cider) == (2, result.best_cider)
        for a, b in zip(model.parameters(), result.model.parameters()):
            assert (a.data == b.data).all()

    def test_resumed_run_matches_uninterrupted(self, tiny_corpus, tmp_path):
        # for both optimizers: the report, reports.jsonl and last.ckpt bytes
        # of the resumed epoch equal those of the uninterrupted run, and
        # last.ckpt is the one file of the run's state
        train, val, vocab = tiny_corpus
        for optimizer in ("sgd", "adam"):
            full_dir, part_dir = tmp_path / optimizer / "full", tmp_path / optimizer / "part"
            full_cfg = tiny_config(epochs=3, seed=9, optimizer=optimizer, out_dir=str(full_dir))
            full = T.train(train, val, vocab, full_cfg)

            part_cfg = tiny_config(epochs=2, seed=9, optimizer=optimizer, out_dir=str(part_dir))
            T.train(train, val, vocab, part_cfg)
            resumed_cfg = tiny_config(epochs=3, seed=9, optimizer=optimizer,
                                      out_dir=str(part_dir))
            resumed = T.train(train, val, vocab, resumed_cfg, resume=True)
            assert [r.epoch for r in resumed.reports] == [2]
            assert resumed.reports[0].to_json() == full.reports[2].to_json(), optimizer
            for a, b in zip(full.model.parameters(), resumed.model.parameters()):
                np.testing.assert_allclose(a.data, b.data, rtol=0, atol=0, err_msg=optimizer)
            assert sorted(p.name for p in part_dir.iterdir()) == RUN_FILES
            for name in ("last.ckpt", "reports.jsonl"):
                assert ((part_dir / name).read_bytes()
                        == (full_dir / name).read_bytes()), (optimizer, name)

    @pytest.mark.parametrize("optimizer,learning_rate,seed,improving", [
        ("sgd", 0.02, 1, [0, 3]), ("adam", 0.005, 5, [0, 1, 2])])
    def test_a_run_stopped_at_any_checkpoint_write_resumes_to_the_same_files(
            self, tiny_corpus, tmp_path, monkeypatch, optimizer, learning_rate, seed,
            improving):
        # stop train right after each os.replace of a run's saves, as a kill
        # would, resume in place (from last.ckpt, or from the start without one),
        # and check every output against the uninterrupted run's; every run
        # writes to one directory, so effective_config.json is the same too
        train, val, vocab = tiny_corpus
        replace = os.replace
        out = tmp_path / "run"
        cfg = tiny_config(epochs=4, seed=seed, optimizer=optimizer,
                          learning_rate=learning_rate, out_dir=str(out))

        def run(stop_after=None, resume=False):
            reports, written = [], []

            def stopping_replace(src, dst):
                replace(src, dst)
                written.append(Path(dst).name)
                if len(written) == stop_after:
                    raise Stopped

            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", stopping_replace)
                try:
                    T.train(train, val, vocab, cfg, resume=resume, report_sink=reports.append)
                except Stopped:
                    pass
            return [r.to_json() for r in reports], written

        def files():
            return {p.name: p.read_bytes() for p in out.iterdir()}

        full_reports, full_writes = run()
        # the run has epochs that write best.ckpt after the first and one that does not
        assert [json.loads(r)["epoch"] for r in full_reports] == [0, 1, 2, 3]
        assert full_writes.count("best.ckpt") == len(improving)
        assert full_writes.count("last.ckpt") == 4
        full = files()
        assert sorted(full) == RUN_FILES
        assert full["reports.jsonl"].decode().splitlines() == full_reports
        for stop in range(1, len(full_writes) + 1):
            shutil.rmtree(out)
            reports, written = run(stop_after=stop)
            assert written == full_writes[:stop]
            last = out / "last.ckpt"
            start = T.ckpt.load_checkpoint(last)[1]["epoch"] + 1 if last.exists() else 0
            kept = [r for r in reports if json.loads(r)["epoch"] < start]
            resumed_reports, _ = run(resume=True)
            assert kept + resumed_reports == full_reports, stop
            assert files() == full, stop

    def test_resume_state_restores_the_optimizer_it_was_saved_with(self, tiny_corpus, tmp_path):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=1, optimizer="adam", out_dir=str(tmp_path))
        result = T.train(train, val, vocab, cfg)
        path = tmp_path / "last.ckpt"
        _, opt, start_epoch, best_cider = T.resume_state(path, cfg, vocab.size,
                                                         train[0].feature_dim)
        assert (start_epoch, best_cider) == (1, result.best_cider)
        steps = -(-len(train) // cfg.batch_size)
        tensors, extra = T.ckpt.load_checkpoint(path)
        assert extra["optimizer"] == {"variant": "adam", "step_count": steps}
        assert opt.step_count == steps and opt.variant == "adam"
        names = sorted(p.name for p in result.model.parameters())
        assert sorted(opt.slots) == names
        # last.ckpt holds the parameters and their moments; best.ckpt the parameters alone
        assert sorted(tensors) == sorted(names + [f"{k}.{n}" for n in names for k in "mv"])
        for name in names:
            for key in "mv":
                assert (opt.slots[name][key] == tensors[f"{key}.{name}"]).all()
        assert sorted(T.ckpt.load_checkpoint(tmp_path / "best.ckpt")[0]) == names
        assert sorted(p.name for p in tmp_path.iterdir()) == RUN_FILES
        # the moments are copies, not views that keep the file's whole buffer alive
        assert all(moment.base is None for slot in opt.slots.values() for moment in slot.values())
        with pytest.raises(T.ckpt.CheckpointError, match="'adam', not 'sgd'"):
            T.resume_state(path, tiny_config(optimizer="sgd"), vocab.size, train[0].feature_dim)

    def test_resume_state_rejects_missing_optimizer_state(self, tiny_corpus, tmp_path):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=1, optimizer="adam", out_dir=str(tmp_path))
        T.train(train, val, vocab, cfg)
        tensors, extra = T.ckpt.load_checkpoint(tmp_path / "last.ckpt")
        no_record = {k: v for k, v in extra.items() if k != "optimizer"}
        no_moment = {k: v for k, v in tensors.items() if k != "v.policy.W_e"}
        misshapen = {**tensors, "m.policy.W_e": tensors["m.policy.W_e"][:1]}
        cases = {"a.ckpt": (tensors, no_record, "holds no optimizer state"),
                 "b.ckpt": (no_moment, extra, "lacks the adam moment 'v.policy.W_e'"),
                 "c.ckpt": (misshapen, extra, "lacks the adam moment 'm.policy.W_e'")}
        for name, (t, e, message) in cases.items():
            T.ckpt.save_checkpoint(tmp_path / name, t, extra=e)
            with pytest.raises(T.ckpt.CheckpointError,
                               match=re.escape(f"checkpoint {tmp_path / name} {message}")):
                T.resume_state(tmp_path / name, cfg, vocab.size, train[0].feature_dim)

    def test_a_checkpoint_without_an_optimizer_record_does_not_resume(self, tiny_corpus,
                                                                      tmp_path):
        # train writes the optimizer record into every last.ckpt, under sgd
        # too, so a checkpoint without one is no run's state under either
        train, val, vocab = tiny_corpus
        model = T.init_model(tiny_config(), vocab.size, train[0].feature_dim)
        T.save_model(tmp_path / "old.ckpt", model, extra={"epoch": 0, "best_cider": 0.5})
        for optimizer in ("sgd", "adam"):
            with pytest.raises(T.ckpt.CheckpointError,
                               match=re.escape(f"checkpoint {tmp_path / 'old.ckpt'} holds no "
                                               "optimizer state")):
                T.resume_state(tmp_path / "old.ckpt", tiny_config(optimizer=optimizer),
                               vocab.size, train[0].feature_dim)

    def test_a_checkpoint_without_an_epoch_does_not_resume(self, tiny_corpus, tmp_path):
        # train writes an epoch and a best_cider into every last.ckpt, so a
        # checkpoint without them is not a run's state
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=1)
        T.save_model(tmp_path / "bare.ckpt", T.init_model(cfg, vocab.size, train[0].feature_dim))
        with pytest.raises(T.ckpt.CheckpointError,
                           match=re.escape(f"checkpoint {tmp_path / 'bare.ckpt'} has a "
                                           "malformed epoch or best_cider")):
            T.resume_state(tmp_path / "bare.ckpt", cfg, vocab.size, train[0].feature_dim)

    def test_resume_needs_an_out_dir(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        with pytest.raises(T.ConfigError, match="no out_dir"):
            T.train(train, val, vocab, tiny_config(), resume=True)

    @pytest.mark.parametrize("key,value", [("epoch", "x"), ("epoch", None), ("epoch", 1.0),
                                           ("epoch", True), ("epoch", -1), ("epoch", -3),
                                           ("best_cider", "high"), ("best_cider", None),
                                           ("best_cider", math.nan), ("best_cider", math.inf)])
    def test_resume_state_rejects_a_malformed_epoch_or_best_cider(self, tiny_corpus, tmp_path,
                                                                  key, value):
        train, val, vocab = tiny_corpus
        cfg = tiny_config(epochs=1, out_dir=str(tmp_path))
        T.train(train, val, vocab, cfg)
        tensors, extra = T.ckpt.load_checkpoint(tmp_path / "last.ckpt")
        T.ckpt.save_checkpoint(tmp_path / "bad.ckpt", tensors, extra={**extra, key: value})
        with pytest.raises(T.ckpt.CheckpointError,
                           match=re.escape(f"checkpoint {tmp_path / 'bad.ckpt'} has a "
                                           "malformed epoch or best_cider")):
            T.resume_state(tmp_path / "bad.ckpt", cfg, vocab.size, train[0].feature_dim)


class TestLearningDynamics:
    def test_episode_length_and_eos_rate_count_the_sampled_episodes(self, tiny_corpus,
                                                                     monkeypatch):
        train, val, vocab = tiny_corpus
        captured = []
        unroll_rows = P.unroll_rows

        def capture(*args):
            captured.append(unroll_rows(*args))
            return captured[-1]

        monkeypatch.setattr(P, "unroll_rows", capture)
        (report,) = T.train(train, val, vocab, tiny_config(epochs=1, t_max=6)).reports
        traces = [trace for run in captured for trace in oracles.unstack(run.episodes)]
        assert len(traces) == len(train)
        lengths = [len(trace.actions) for trace in traces]
        ended = [trace.actions[-1] == EOS_ID for trace in traces]
        # the batch has both kinds of episode: some reach <eos>, some t_max
        assert 0 < sum(ended) < len(traces)
        assert report.mean_episode_length == sum(lengths) / len(traces)
        assert report.eos_rate == sum(ended) / len(traces)
        assert all(n == 6 for n, eos in zip(lengths, ended) if not eos)

    def test_zero_in_xe_mode(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        (report,) = T.train(train, val, vocab, tiny_config(epochs=1, mode="xe")).reports
        assert report.mean_episode_length == 0.0 and report.eos_rate == 0.0


class TestEvaluate:
    def test_reference_decode_scores_one(self, tiny_corpus):
        # oracle decode stub: feed the references back as candidates
        train, _, vocab = tiny_corpus
        samples = [(vocab.decode_text(s.references[0]),
                    [vocab.decode_text(r) for r in s.references]) for s in train]
        for n in (1, 2, 3, 4):
            assert M.bleu(samples, max_n=n) == pytest.approx(1.0)

    def test_deterministic_across_calls(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        cfg = tiny_config()
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        idf = M.build_idf(T.reference_documents(train, vocab))
        a = T.evaluate(val, model, vocab, idf, cfg)
        b = T.evaluate(val, model, vocab, idf, cfg)
        assert a.bleu == b.bleu and a.cider == b.cider

    def test_beam_and_greedy_both_reported(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        cfg_g = tiny_config(decode="greedy")
        cfg_b = tiny_config(decode="beam", beam_width=2)
        model = T.init_model(cfg_g, vocab.size, train[0].feature_dim)
        idf = M.build_idf(T.reference_documents(train, vocab))
        greedy = T.evaluate(val, model, vocab, idf, cfg_g)
        beam = T.evaluate(val, model, vocab, idf, cfg_b)
        # both are finite reports; no ordering between them is asserted
        assert math.isfinite(greedy.cider) and math.isfinite(beam.cider)


@pytest.fixture(scope="module")
def desk_corpus():
    """The desk-scale corpus: 200 train and 50 val scenes of the default grammar."""
    return synth.synth_split(synth.GrammarSpec(seed=0), 200, 50)


def reference_fragments(corpus):
    """Decodes that share many grams with the references, in another order:
    scene i decodes its own reference i % 2, or every third scene the next
    scene's, rotated by 7i tokens and cut to (11i mod 31) tokens, some empty."""
    train, val, _ = corpus
    scenes = train + val
    out = []
    for i, scene in enumerate(scenes):
        source = scenes[(i + 1) % len(scenes)] if i % 3 == 2 else scene
        tokens = list(source.references[i % 2])
        k = 7 * i % len(tokens)
        out.append((tokens[k:] + tokens[:k])[:11 * i % 31])
    return out


class TestEvaluateScoring:
    """evaluate's one pass over the samples against the oracle scorer's four
    corpus BLEU calls and its CIDEr call on the same decodes, bit for bit."""

    def oracle_scores(self, scenes, vocab, idf, decodes):
        samples = [(vocab.decode_text(tokens), [vocab.decode_text(r) for r in s.references])
                   for s, tokens in zip(scenes, decodes)]
        return ({n: oracles.bleu(samples, max_n=n, mode="corpus") for n in (1, 2, 3, 4)},
                oracles.cider(samples, idf))

    def capture(self, monkeypatch, name):
        decodes = []
        decode = getattr(P, name)

        def captured(*args):
            decodes.append(decode(*args))
            return decodes[-1]

        monkeypatch.setattr(P, name, captured)
        return decodes

    @pytest.mark.parametrize("decode,width,name", [("greedy", 1, "rollout_greedy"),
                                                   ("beam", 2, "beam_search")])
    def test_model_decodes_score_as_the_oracle(self, desk_corpus, monkeypatch, decode, width,
                                               name):
        train, val, vocab = desk_corpus
        cfg = T.TrainConfig(hidden_size=64, t_max=30, decode=decode, beam_width=width)
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        idf = M.build_idf(T.reference_documents(train, vocab))
        decodes = self.capture(monkeypatch, name)
        report = T.evaluate(val, model, vocab, idf, cfg)
        assert (report.bleu, report.cider) == self.oracle_scores(val, vocab, idf, decodes)

    def test_reference_fragments_score_as_the_oracle(self, desk_corpus, monkeypatch):
        train, val, vocab = desk_corpus
        scenes = train + val
        fragments = {id(s.features): tokens
                     for s, tokens in zip(scenes, reference_fragments(desk_corpus))}
        monkeypatch.setattr(P, "rollout_greedy",
                            lambda params, features, t_max: fragments[id(features)])
        cfg = T.TrainConfig(hidden_size=8, t_max=30)
        model = T.init_model(cfg, vocab.size, train[0].feature_dim)
        idf = M.build_idf(T.reference_documents(train, vocab))
        report = T.evaluate(scenes, model, vocab, idf, cfg)
        decodes = [fragments[id(s.features)] for s in scenes]
        bleu, cider = self.oracle_scores(scenes, vocab, idf, decodes)
        assert report.bleu == bleu and report.cider == cider
        assert 0.0 < min(bleu.values()) and 0.0 < cider

    def test_rewards_of_reference_fragments_equal_the_oracle(self, desk_corpus):
        train, val, vocab = desk_corpus
        docs = T.reference_documents(train + val, vocab)
        idf = M.build_idf(docs[:len(train)])
        for tokens, refs in zip(reference_fragments(desk_corpus), docs):
            cand = vocab.decode_text(tokens)
            assert R.scored_reward(cand, M.reference_stats(refs, idf), 1.0, 2.0) == \
                oracles.scored_reward(cand, refs, idf, 1.0, 2.0)


class TestAblationModes:
    def test_three_modes_produce_distinct_finite_trajectories(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        trajectories = {}
        # crl, its no-curiosity ablation (intrinsic_scale 0) and imitation only
        for name, kw in (("crl", {}), ("rho0", {"intrinsic_scale": 0.0}), ("xe", {"mode": "xe"})):
            cfg = tiny_config(epochs=2, seed=11, **kw)
            result = T.train(train, val, vocab, cfg)
            for r in result.reports:
                r.validate_finite()
            trajectories[name] = tuple(r.xe_loss for r in result.reports)
        assert len(set(trajectories.values())) == 3

    def test_rho_zero_zeroes_intrinsic_reward(self, tiny_corpus):
        train, val, vocab = tiny_corpus
        result = T.train(train, val, vocab, tiny_config(epochs=1, intrinsic_scale=0.0))
        assert result.reports[0].mean_intrinsic_reward == 0.0
        assert result.reports[0].mean_extrinsic_reward > 0.0
