import dataclasses

import numpy as np
import pytest

from curioseq import kernel as K
from curioseq import policy as P
from curioseq.vocab import BOS_ID, EOS_ID
import oracles as O
from oracles import (add_n, composite_policy_step, constant, cross_entropy, dotp, forced_trace,
                     forced_unroll, one_row_sample, padded_sample_rows, padded_score_rows,
                     per_hypothesis_beam, rl_surrogate, sequence_log_prob, term_batch,
                     unhoisted_batch, unhoisted_policy_step, unstack, visual_gate_terms,
                     zero_state)


def sample_trace(params, feats, t_max, rng):
    """rollout_sample's one-row episode as a trace of its steps."""
    (trace,) = unstack(P.rollout_sample(params, feats, t_max, rng))
    return trace


def tiny_policy(seed=0, vocab_size=9, hidden=6, feature_dim=4, sharpen=1.0):
    rng = np.random.default_rng(seed)
    params = P.init_policy(rng, vocab_size, hidden, feature_dim)
    if sharpen != 1.0:
        for p in params.parameters():
            p.data *= sharpen
    feats = rng.standard_normal((3, feature_dim))
    return params, feats


def one_row(params, feats):
    """One scene as the single row of a project_batch scene."""
    return P.project_batch(params, [feats])


def rounded_tie(vocab, low, high):
    """(1, vocab) logits whose softmax gives high a larger probability than
    low (p about 0.04, above every other word's) where the two probabilities
    round to one log(max(p, LOGPROB_FLOOR)): from a shared logit near 0.5,
    high's is raised by a few ulps until that holds."""
    logits = np.zeros((1, vocab))
    for shared in np.linspace(0.5, 0.6, 101):
        logits[0, [low, high]] = shared
        for _ in range(8):
            logits[0, high] = np.nextafter(logits[0, high], np.inf)
            p = K.softmax_values(logits)[0]
            logd = np.log(np.maximum(p, K.LOGPROB_FLOOR))
            if p[high] > p[low] and logd[high] == logd[low]:
                return logits
    raise AssertionError("no rounded tie found")


def enumerate_best(params, feats, t_max, eos=EOS_ID):
    """Exhaustive scoring of every action sequence that ends at eos or t_max."""
    results = []

    def rec(prefix):
        if prefix and (prefix[-1] == eos or len(prefix) == t_max):
            results.append((sequence_log_prob(params, feats, list(prefix)), prefix))
            return
        for w in range(params.vocab_size):
            rec(prefix + (w,))

    rec(())
    return min(results, key=lambda c: (-c[0], c[1]))


def created_tensors(monkeypatch):
    """Patch kernel.Tensor to record every tensor built from now on."""
    created = []
    init = K.Tensor.__init__

    def counted(tensor, *args, **kwargs):
        init(tensor, *args, **kwargs)
        created.append(tensor)

    monkeypatch.setattr(K.Tensor, "__init__", counted)
    return created


def region_gradients(monkeypatch, run, loss):
    """The gradients on the run's pre-tanh attention sums that the loss's
    reverse pass gets from attention_backward, one (rows, d_pre) pair per
    step in step order: the scene rows that stepped and their (len(rows),
    m, Z) gradient on the regions."""
    got = []
    backward = P.attention_backward

    def spy(*args):
        d_w_a, d_pre = backward(*args)
        got.append(d_pre)
        return d_w_a, d_pre

    monkeypatch.setattr(P, "attention_backward", spy)
    loss.backward_fn(np.ones(()), lambda node, g: None)
    return list(zip(run.rows, got[::-1], strict=True))


def counted_steps(monkeypatch):
    """Patch policy.policy_step to record the positional arguments of every
    call."""
    calls = []
    step = P.policy_step

    def counted(*args, **kwargs):
        calls.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(P, "policy_step", counted)
    return calls


def eos_first(seed, boost):
    """A tiny policy whose <eos> logit at the first step is raised by boost:
    W_p's <eos> row gains boost times the direction of that step's s_lang."""
    params, feats = tiny_policy(seed=seed, vocab_size=5, hidden=4, feature_dim=3, sharpen=3.0)
    _, record = P.policy_step(params, np.array([BOS_ID]), zero_state(params),
                              one_row(params, feats))
    z = params.hidden_size
    s_lang = record.state[0, z:2 * z]
    params.W_p.data[EOS_ID] += boost * s_lang / (s_lang @ s_lang)
    return params, feats


class TestPolicyStep:
    def test_scenes_with_equal_region_counts_get_an_all_true_mask(self):
        rng = np.random.default_rng(3)
        params = P.init_policy(rng, vocab_size=6, hidden=4, feature_dim=3)
        scene = P.project_batch(params, [rng.standard_normal((4, 3)) for _ in range(3)])
        assert scene.mask.dtype == bool and scene.mask.shape == (3, 4)
        assert scene.mask.all()

    def test_single_region_attention_is_one(self):
        rng = np.random.default_rng(2)
        params = P.init_policy(rng, vocab_size=6, hidden=4, feature_dim=3)
        feats = rng.standard_normal((1, 3))
        _, record = P.policy_step(params, np.array([BOS_ID]), zero_state(params),
                                  one_row(params, feats))
        assert record.attn.tolist() == [[1.0]]
        np.testing.assert_allclose(record.attended, feats, atol=1e-15)

    def test_zero_parameters_give_uniform_distribution(self):
        params, feats = tiny_policy(vocab_size=8)
        for p in params.parameters():
            p.data[...] = 0.0
        logits, _ = P.policy_step(params, np.array([BOS_ID]), zero_state(params),
                                  one_row(params, feats))
        np.testing.assert_allclose(K.softmax_values(logits), 1.0 / 8, atol=1e-15)

    def test_distribution_and_attention_normalized(self):
        params, feats = tiny_policy(seed=5)
        state = zero_state(params)
        for word in (BOS_ID, 4, 7):
            logits, record = P.policy_step(params, np.array([word]), state, one_row(params, feats))
            state = record.state
            dist = K.softmax_values(logits)
            assert abs(dist.sum() - 1.0) <= 1e-9
            assert (dist > 0).all()
            assert abs(record.attn.sum() - 1.0) <= 1e-9
            assert (record.attn >= 0).all()

    def test_state_concat_invariant(self):
        # one state array [s_vis, s_lang, c_vis, c_lang]; an episode records
        # its first 2Z columns, [s_vis, s_lang], as the curiosity state
        params, feats = tiny_policy(seed=6)
        z = params.hidden_size
        _, record = P.policy_step(params, np.array([BOS_ID]), zero_state(params),
                                  one_row(params, feats))
        _, parts, _, _ = composite_policy_step(params, np.array([BOS_ID]), None,
                                               term_batch(params, [feats]))
        assert record.state.shape == (1, 4 * z)
        np.testing.assert_array_equal(record.state, parts.data)
        episode = P.rollout_sample(params, feats, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(episode.states[0, 0], record.state[0, :2 * z])

    def test_recorded_step_creates_at_most_3_nodes(self, monkeypatch):
        # a step is plain arrays: while recording, it creates no node at all
        params, feats = tiny_policy(seed=3)
        scene = one_row(params, feats)
        _, record = P.policy_step(params, np.array([BOS_ID]), zero_state(params), scene)
        created = created_tensors(monkeypatch)
        logits, step = P.policy_step(params, np.array([4]), record.state, scene)
        monkeypatch.undo()
        assert created == []
        assert type(logits) is np.ndarray and type(step.state) is np.ndarray

    def test_word_index_validated(self):
        params, feats = tiny_policy()
        with pytest.raises(IndexError):
            P.policy_step(params, np.array([params.vocab_size]), zero_state(params),
                          one_row(params, feats))

    def test_an_int_word_or_a_state_vector_is_rejected(self):
        params, feats = tiny_policy()
        scene = one_row(params, feats)
        _, record = P.policy_step(params, np.array([BOS_ID]), zero_state(params), scene)
        with pytest.raises(K.ShapeError):
            P.policy_step(params, BOS_ID, zero_state(params), scene)
        with pytest.raises(K.ShapeError):
            P.policy_step(params, np.array([4]), record.state[0], scene)
        with pytest.raises(K.ShapeError):
            P.policy_step(params, np.array([4, 4]), record.state, scene)

    def test_a_missing_state_is_rejected(self):
        # a step reads the state it is given: unroll starts from the zeros
        params, feats = tiny_policy()
        with pytest.raises(K.ShapeError):
            P.policy_step(params, np.array([BOS_ID]), None, one_row(params, feats))

    def test_a_scene_of_other_rows_is_rejected(self):
        # every row reads its own scene row: a one-row scene serves one row
        params, feats, _ = row_batch()
        for scene in (P.project_batch(params, feats[:2]), P.project_batch(params, feats[:1])):
            with pytest.raises(K.ShapeError):
                P.policy_step(params, np.array([4, 4, 4]), zero_state(params, 3), scene)

    def test_teacher_forced_gradients_match_finite_differences(self):
        params, feats = tiny_policy(seed=7, vocab_size=7, hidden=5)
        tokens = [4, 6, 3, EOS_ID]

        def fn():
            return P.unroll_rows(params, [feats], [tokens], len(tokens)).loss(np.ones((1, 4)))

        assert O.grad_check(fn, params.parameters(), max_coords=20) <= 1e-4


class TestRolloutSample:
    def test_same_seed_same_trace(self):
        params, feats = tiny_policy(seed=8)
        a = sample_trace(params, feats, 6, np.random.default_rng(3))
        b = sample_trace(params, feats, 6, np.random.default_rng(3))
        assert a.actions == b.actions
        assert a.log_probs == b.log_probs

    def test_never_exceeds_t_max(self):
        params, feats = tiny_policy(seed=9)
        for t_max in (1, 2, 5):
            episode = P.rollout_sample(params, feats, t_max, np.random.default_rng(0))
            assert 1 <= len(episode) <= t_max
            assert episode.actions.shape == (1, len(episode))

    def test_deterministic_distribution_ignores_seed(self):
        # saturate the output projection so one token gets probability ~1
        params, feats = tiny_policy(seed=10)
        params.W_p.data[...] = 0.0
        params.W_p.data[5, :] = 500.0  # row 5 dominates for any nonzero state
        traces = [sample_trace(params, feats, 4, np.random.default_rng(s))
                  for s in (0, 1, 2)]
        assert traces[0].actions == traces[1].actions == traces[2].actions

    def test_trace_lists_aligned_and_eos_flag(self):
        params, feats = tiny_policy(seed=11)
        episode = P.rollout_sample(params, feats, 8, np.random.default_rng(4))
        t = len(episode)
        assert episode.lengths.tolist() == [t]
        assert episode.log_probs.shape == (1, t)
        assert episode.states.shape == (1, t, 2 * params.hidden_size)
        assert episode.ended_with_eos.tolist() == [episode.actions[0, -1] == EOS_ID]

    def test_log_probs_match_forced_recomputation(self):
        params, feats = tiny_policy(seed=12)
        trace = sample_trace(params, feats, 6, np.random.default_rng(9))
        assert sequence_log_prob(params, feats, trace.actions) == pytest.approx(
            sum(trace.log_probs), abs=1e-12)


T_MAX = 6


def row_batch():
    """Six scenes with m = 2 and m = 5, one reference each (one longer than
    T_MAX, one of a single token) and a generator each. Token 5's output row
    is scaled so far that the distribution of every step saturates toward
    or away from it, depending on the state; the sampled episodes include a
    one-step episode and one stopped at T_MAX."""
    rng = np.random.default_rng(14)
    params = P.init_policy(rng, vocab_size=9, hidden=6, feature_dim=4)
    params.W_p.data[5] = 1e4 * rng.standard_normal(6)
    params.W_p.data[EOS_ID] += 1.5
    feats = [rng.standard_normal((m, 4)) for m in (2, 5, 2, 5, 5, 2)]
    refs = [[4, 6, EOS_ID], [5, 3, 7, 4, 8, 6, 3, EOS_ID], [EOS_ID], [7, 7, 3, EOS_ID],
            [8, 5, EOS_ID], [6, 4, 4, 8, 3, EOS_ID]]
    return params, feats, refs


def row_rngs(n):
    return [np.random.default_rng([14, i]) for i in range(n)]


def unroll_batch(params, feats, refs):
    return P.unroll_rows(params, feats, refs, T_MAX, row_rngs(len(feats)))


def weighted_loss(run, refs):
    """Imitation weights eta_r on each reference row and -A_t on each
    sampled row, with seeded advantages; returns (eta, advantages, loss)."""
    n = len(refs)
    eta = np.linspace(0.5, 1.5, n)
    adv = [np.random.default_rng([15, i]).uniform(-1.0, 2.0, k)
           for i, k in enumerate(run.episodes.lengths)]
    ce_w, lp_w = np.zeros(run.ce_values.shape), np.zeros(run.ce_values.shape)
    for r, ref in enumerate(refs):
        ce_w[r, :len(ref)] = eta[r]
    for i, a in enumerate(adv):
        lp_w[n + i, :len(a)] = -a
    return eta, adv, run.loss(ce_w - lp_w)


class TestUnroll:
    """The step contract of policy.unroll: step(t, probs, record) returns
    the rows that go on, in order and possibly repeated, and their tokens."""

    def test_repeated_and_reordered_rows_read_their_parents_rows(self, monkeypatch):
        params, feats, _ = row_batch()          # m = 2 and m = 5: masked regions
        scene = P.project_batch(params, feats[:3])
        rows, token = np.array([2, 0, 0, 1, 2]), np.array([4, 5, 6, 7, 8])
        seen = []

        def step(t, probs, record):
            seen.append(record)
            return rows, token

        calls = counted_steps(monkeypatch)
        P.unroll(params, scene, step, 2)
        monkeypatch.undo()
        assert len(calls) == 2
        _, prev, state, child = calls[1]
        np.testing.assert_array_equal(prev, token)
        np.testing.assert_array_equal(state, seen[0].state[rows])
        np.testing.assert_array_equal(child.features, scene.features[rows])
        np.testing.assert_array_equal(child.region_proj, scene.region_proj[rows])
        np.testing.assert_array_equal(child.mean_gates, scene.mean_gates[rows])
        assert child.word_gates is scene.word_gates and child.W_state is scene.W_state
        np.testing.assert_array_equal(child.mask, scene.mask[rows])

    def test_every_row_in_order_gathers_nothing(self, monkeypatch):
        params, feats, _ = row_batch()
        n = len(feats)
        taken = []
        take = P.ProjectedScene.take
        monkeypatch.setattr(P.ProjectedScene, "take",
                            lambda scene, rows: taken.append(rows) or take(scene, rows))
        calls = counted_steps(monkeypatch)
        records = []
        P.unroll(params, P.project_batch(params, feats), lambda t, probs, record:
                 records.append(record) or (np.arange(n), np.full(n, 4)), 3)
        monkeypatch.undo()
        assert len(calls) == 3 and taken == []
        # each step reads the very state array the step before made
        assert all(args[2] is r.state for args, r in zip(calls[1:], records))

    def test_empty_rows_end_the_loop(self, monkeypatch):
        params, feats, _ = row_batch()
        calls = counted_steps(monkeypatch)
        P.unroll(params, P.project_batch(params, feats), lambda t, probs, record:
                 (np.arange(len(feats)) if t < 1 else np.empty(0, dtype=np.intp),
                  np.full(len(feats), 4)), 5)
        monkeypatch.undo()
        assert len(calls) == 2


def _root(a):
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class TestStepRecord:
    """A training step's record holds each value once and nothing that the
    reverse pass remakes elementwise: no regions (the unroll's scene holds
    them), no copy of s_vis (its state holds it), no state read (the step
    before's state holds it), no attention tanh and one activation array
    per LSTM cell. The reverse pass recomputes the rest bit for bit."""

    def test_a_record_holds_each_value_once(self):
        params, feats, refs = row_batch()
        run = unroll_batch(params, feats, refs)
        z, e = params.hidden_size, params.feature_dim
        m = run.scene.features.shape[1]
        assert e != z
        assert not {"read", "tanh"} & {f.name for f in dataclasses.fields(P.StepRecord)}
        for rows, step in zip(run.rows, run.steps, strict=True):
            n = rows.size
            arrays = list(vars(step).values())
            s_vis = step.state[:, :z]
            for a in arrays:
                assert not np.shares_memory(a, run.scene.features)
                assert not (a.ndim == 3 and a.shape[-1] in (e, z))     # no regions, no tanh
                if a.ndim == 2 and not np.shares_memory(a, step.state):
                    assert not any(np.array_equal(a[:, k:k + z], s_vis)
                                   for k in range(a.shape[1] - z + 1))
            assert step.attended.shape == (n, e)
            assert step.vis.shape == step.lang.shape == (n, 4 * z)
            # every buffer but the state's: words, attention weights,
            # attended features and the two cells' activations
            own = {id(_root(a)): _root(a) for a in arrays if not np.shares_memory(a, step.state)}
            assert sum(a.nbytes for a in own.values()) == (
                step.words.nbytes + 8 * n * (m + e + 2 * 4 * z))

    def test_the_reverse_pass_recomputes_what_the_forward_made(self, monkeypatch):
        # row drops and m = 2 and m = 5 scenes: gathered reads and masked regions
        params, feats, refs = row_batch()
        made_tanh, made_cells, read_tanh, read_cells = [], [], [], []

        def spy(name, log, pick):
            fn = getattr(P, name)

            def logged(*args):
                out = fn(*args)
                log.append([np.copy(a) for a in pick(args, out)])
                return out

            monkeypatch.setattr(P, name, logged)

        # a cell's cache is (c_prev, act, tanh(c)); the attention's tanh is
        # attention_forward's second output and attention_backward's third input
        spy("attention_forward", made_tanh, lambda args, out: [out[1]])
        spy("lstm_cell_forward", made_cells, lambda args, out: [out[2][2], out[2][0]])
        spy("attention_backward", read_tanh, lambda args, out: [args[2]])
        spy("lstm_cell_backward", read_cells, lambda args, out: [args[0][2], args[0][0]])
        run = unroll_batch(params, feats, refs)
        _, _, loss = weighted_loss(run, refs)
        loss.backward_fn(np.ones(()), lambda node, g: None)
        monkeypatch.undo()
        assert len({rows.size for rows in run.rows}) > 2
        assert run.scene.mask is not None
        # the forward runs step by step, a visual then a language cell per
        # step; the reverse pass runs the steps and each step's cells backward
        assert len(made_tanh) == len(read_tanh) == len(run.steps)
        for (want,), (got,) in zip(made_tanh, read_tanh[::-1], strict=True):
            np.testing.assert_array_equal(got, want)
        assert len(made_cells) == len(read_cells) == 2 * len(run.steps)
        for (want_tc, want_c), (got_tc, got_c) in zip(made_cells, read_cells[::-1], strict=True):
            np.testing.assert_array_equal(got_tc, want_tc)
            np.testing.assert_array_equal(got_c, want_c)


class TestSampleRows:
    """The sampled rows of unroll_rows against the one-row sampler and the
    padded row sampler, scene for scene."""

    def test_batch_covers_the_edge_cases(self):
        params, feats, refs = row_batch()
        traces = unstack(unroll_batch(params, feats, refs).episodes)
        lengths = [len(t) for t in traces]
        assert 1 in lengths and T_MAX in lengths
        assert any(1 < n < T_MAX for n in lengths)
        assert max(len(ref) for ref in refs) > T_MAX
        assert {f.shape[0] for f in feats} == {2, 5}
        top = [K.softmax_values(logits.data).max()
               for f, t in zip(feats, traces)
               for _, logits, _ in forced_unroll(params, f, t.actions)]
        assert max(top) > 1.0 - 1e-12

    def test_equals_one_row_sampler_scene_for_scene(self):
        params, feats, refs = row_batch()
        traces = unstack(unroll_batch(params, feats, refs).episodes)
        one_row = [one_row_sample(params, f, T_MAX, rng)
                   for f, rng in zip(feats, row_rngs(len(feats)))]
        padded = padded_sample_rows(params, feats, T_MAX, row_rngs(len(feats)))
        for oracle in (one_row, padded):
            for got, want in zip(traces, oracle):
                assert got.actions == want.actions
                np.testing.assert_allclose(got.log_probs, want.log_probs, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got.states, want.states, rtol=0, atol=1e-12)

    def test_log_probs_equal_forced_unroll(self):
        params, feats, refs = row_batch()
        traces = unstack(unroll_batch(params, feats, refs).episodes)
        for f, trace in zip(feats, traces):
            forced = forced_trace(params, f, trace.actions)
            np.testing.assert_allclose(trace.log_probs, forced.log_probs, rtol=0, atol=1e-12)

    def test_each_generator_draws_once_per_recorded_step(self):
        params, feats, refs = row_batch()
        rngs = row_rngs(len(feats))
        traces = unstack(P.unroll_rows(params, feats, refs, T_MAX, rngs).episodes)
        for rng, fresh, trace in zip(rngs, row_rngs(len(feats)), traces):
            fresh.random(len(trace))
            assert rng.random() == fresh.random()

    def test_rejects_bad_arguments(self):
        params, feats, refs = row_batch()
        n = len(feats)
        with pytest.raises(ValueError):
            P.unroll_rows(params, feats, refs, T_MAX, row_rngs(n - 1))
        with pytest.raises(ValueError):
            P.unroll_rows(params, feats, refs[:-1], T_MAX)
        with pytest.raises(ValueError):
            P.unroll_rows(params, feats, [], 0, row_rngs(n))
        with pytest.raises(ValueError):
            P.unroll_rows(params, feats, [], T_MAX)


class TestScoreRows:
    """The weighted loss of unroll_rows against the per-scene entry points."""

    def test_matches_summed_per_scene_losses(self):
        params, feats, refs = row_batch()
        run = unroll_batch(params, feats, refs)
        n = len(feats)
        eta, adv, loss = weighted_loss(run, refs)
        K.zero_grads(params.parameters())
        O.backward(loss)
        batched = {q.name: q.grad.copy() for q in params.parameters()}

        per_scene = [dotp(add_n([cross_entropy(logits, tok)
                                   for tok, logits, _ in forced_unroll(params, f, ref)]),
                            constant([e]))
                     for f, ref, e in zip(feats, refs, eta)]
        per_scene += [rl_surrogate(params, f, t.actions, a)
                      for f, t, a in zip(feats, unstack(run.episodes), adv)]
        oracle = add_n(per_scene)
        K.zero_grads(params.parameters())
        O.backward(oracle)
        assert float(loss.data) == pytest.approx(float(oracle.data), rel=1e-12)
        for q in params.parameters():
            np.testing.assert_allclose(batched[q.name], q.grad, rtol=0,
                                       atol=1e-12 * np.abs(q.grad).max(), err_msg=q.name)
        for r, (f, ref) in enumerate(zip(feats, refs)):
            expected = P.forced_step_losses(params, f, ref)
            assert expected.shape == (len(ref),)
            np.testing.assert_allclose(run.ce_values[r, :len(ref)], expected, rtol=1e-12)
            assert (run.ce_values[r, len(ref):] == 0.0).all()

    def test_padded_steps_and_regions_get_exactly_zero_gradient(self, monkeypatch):
        params, feats, _ = row_batch()
        feats, refs = feats[:2], [[4, 6], [5, 3, 7, 4, 8, EOS_ID]]
        # row 0 ends after two steps and row 1 after six: token 6 would be
        # fed only to row 0 past its end, and <eos> to neither
        forced = P.unroll_rows(params, feats, refs, T_MAX)
        joint = P.unroll_rows(params, feats, refs, T_MAX, row_rngs(2))
        for run, rows in ((forced, feats), (joint, feats + feats)):
            weights = np.ones(run.ce_values.shape)
            K.zero_grads(params.parameters())
            loss = run.loss(weights)
            O.backward(loss)
            if not run.episodes.lengths.size:
                assert (params.W_e.grad[EOS_ID] == 0.0).all()
                assert (params.W_e.grad[6] == 0.0).all()
                assert (params.W_e.grad[4] != 0.0).any()      # fed on row 0's second step
            # each scene's regions, at every step its rows take: m = 2, then m = 5 of 5
            reached = np.zeros(len(rows), dtype=bool)
            for ids, d_pre in region_gradients(monkeypatch, run, loss):
                for i, r in enumerate(ids):
                    m = rows[r].shape[0]
                    assert (d_pre[i, m:] == 0.0).all()
                    reached[r] |= (d_pre[i, :m] != 0.0).any()
            assert reached.all()

    def test_batched_step_makes_the_same_nodes_as_a_vector_step(self, monkeypatch):
        # none: a step of two rows, like a step of one, builds no tensor
        params, feats, _ = row_batch()
        scene = P.project_batch(params, feats[:2])
        _, record = P.policy_step(params, np.array([BOS_ID, BOS_ID]), zero_state(params, 2), scene)
        created = created_tensors(monkeypatch)
        logits, step = P.policy_step(params, np.array([4, 5]), record.state, scene)
        P.policy_step(params, np.array([4]), zero_state(params), scene.take(np.array([0])))
        monkeypatch.undo()
        assert logits.shape == (2, params.vocab_size) and step.attn.shape == (2, 5)
        assert created == []

    def test_empty_row_rejected(self):
        params, feats, _ = row_batch()
        with pytest.raises(ValueError):
            P.unroll_rows(params, feats[:2], [[4], []], T_MAX)


class TestUnrollRows:
    """The joint unroll against the padded sampler and scorer it replaces."""

    def test_sampled_rows_do_not_depend_on_the_forced_rows(self):
        params, feats, refs = row_batch()
        joint = unstack(unroll_batch(params, feats, refs).episodes)
        alone = unstack(P.unroll_rows(params, feats, [], T_MAX, row_rngs(len(feats))).episodes)
        one = [sample_trace(params, f, T_MAX, rng)
               for f, rng in zip(feats, row_rngs(len(feats)))]
        for a, b, c in zip(joint, alone, one):
            assert a.actions == b.actions == c.actions
            np.testing.assert_allclose(a.log_probs, b.log_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.log_probs, c.log_probs, rtol=0, atol=1e-12)

    def test_steps_only_the_rows_that_have_not_finished(self, monkeypatch):
        params, feats, refs = row_batch()
        rows = []
        step = P.policy_step

        def counted(params_, prev, state, scene, **kwargs):
            rows.append(len(prev))
            return step(params_, prev, state, scene, **kwargs)

        monkeypatch.setattr(P, "policy_step", counted)
        run = unroll_batch(params, feats, refs)
        monkeypatch.undo()
        ends = [len(ref) for ref in refs] + [len(t) for t in unstack(run.episodes)]
        assert len(rows) == max(ends) == len(run.rows)
        assert rows == [sum(e > t for e in ends) for t in range(len(rows))]
        for t, ids in enumerate(run.rows):
            assert ids.tolist() == [r for r, e in enumerate(ends) if e > t]
        # the episodes span the steps that ran, with 0 past each one's end
        episodes = run.episodes
        assert episodes.lengths.tolist() == ends[len(refs):]
        assert episodes.actions.shape == episodes.log_probs.shape == (len(feats), len(rows))
        assert episodes.states.shape == (len(feats), len(rows), 2 * params.hidden_size)
        past = np.arange(len(rows)) >= episodes.lengths[:, None]
        assert (episodes.actions[past] == 0).all() and (episodes.log_probs[past] == 0).all()
        assert (episodes.states[past] == 0).all()
        assert len(episodes) == sum(ends[len(refs):])

    def test_loss_and_gradients_equal_the_padded_scorer(self):
        params, feats, refs = row_batch()
        run = unroll_batch(params, feats, refs)
        n = len(feats)
        eta, adv, loss = weighted_loss(run, refs)
        K.zero_grads(params.parameters())
        O.backward(loss)
        grads = {q.name: q.grad.copy() for q in params.parameters()}

        sampled = [t.actions for t in unstack(run.episodes)]
        oracle = padded_score_rows(params, feats + feats, refs + sampled,
                                   [[e] * len(ref) for e, ref in zip(eta, refs)]
                                   + [[0.0] * len(s) for s in sampled],
                                   [[0.0] * len(ref) for ref in refs] + [-a for a in adv])
        K.zero_grads(params.parameters())
        O.backward(oracle.loss)
        assert float(loss.data) == pytest.approx(float(oracle.loss.data), rel=1e-12, abs=0)
        for q in params.parameters():
            np.testing.assert_allclose(grads[q.name], q.grad, rtol=0,
                                       atol=1e-12 * np.abs(q.grad).max(), err_msg=q.name)
        assert run.ce_values.shape == oracle.cross_entropy.shape
        np.testing.assert_allclose(run.ce_values[:n], oracle.cross_entropy[:n], rtol=1e-12, atol=0)
        for i, trace in enumerate(unstack(run.episodes)):
            np.testing.assert_allclose(oracle.log_prob[n + i, :len(trace)], trace.log_probs,
                                       rtol=1e-12, atol=0)

    def test_weights_of_finished_steps_are_never_read(self):
        params, feats, refs = row_batch()
        run = unroll_batch(params, feats, refs)
        n = len(feats)
        ends = [len(ref) for ref in refs] + [len(t) for t in unstack(run.episodes)]
        ce_w = np.full(run.ce_values.shape, np.nan)
        lp_w = np.full(run.ce_values.shape, np.nan)
        for r, end in enumerate(ends):
            ce_w[r, :end] = 1.0 if r < n else 0.0
            lp_w[r, :end] = 0.0 if r < n else -1.0
        K.zero_grads(params.parameters())
        O.backward(run.loss(ce_w - lp_w))
        assert all(np.isfinite(q.grad).all() for q in params.parameters())

    def test_row_r_and_row_b_plus_r_read_scene_r(self):
        # the forced row and the sampled row of scene r read its one
        # projected row, which equals row r of the minibatch's projection
        params, feats, refs = row_batch()
        scene = unroll_batch(params, feats, refs).scene
        own = P.project_batch(params, feats)
        b = len(feats)
        for name in ("features", "region_proj", "mean_gates", "means", "mask"):
            rows, want = getattr(scene, name), getattr(own, name)
            assert rows.shape[0] == 2 * b, name
            assert (rows[:b] == want).all() and (rows[b:] == want).all(), name
        assert (scene.word_gates == own.word_gates).all()
        assert (scene.W_state == own.W_state).all()

    @pytest.mark.parametrize("kinds", ["forced", "sampled", "both"])
    def test_each_scene_is_projected_once(self, monkeypatch, kinds):
        params, feats, refs = row_batch()
        calls, takes = [], []
        project, take = P.project_batch, P.ProjectedScene.take

        def counted(params_, features):
            calls.append(list(features))
            return project(params_, features)

        def counted_take(scene, rows):
            takes.append(rows)
            return take(scene, rows)

        monkeypatch.setattr(P, "project_batch", counted)
        monkeypatch.setattr(P.ProjectedScene, "take", counted_take)
        P.unroll_rows(params, feats, [] if kinds == "sampled" else refs, T_MAX,
                      [] if kinds == "forced" else row_rngs(len(feats)))
        monkeypatch.undo()
        assert len(calls) == 1 and len(calls[0]) == len(feats)
        assert all(a is f for a, f in zip(calls[0], feats))
        # the first take maps every row to its scene
        rows = np.arange(len(feats) * (2 if kinds == "both" else 1)) % len(feats)
        assert takes[0].tolist() == rows.tolist()


class TestUnrollNode:
    """RowUnroll.loss is one node whose backward pass runs the unroll's
    steps in reverse: its loss and gradients against the padded scorer's
    per-step graph, built on policy_step's nodes or on the unhoisted step."""

    @staticmethod
    def unrolled(kind, t_max, scenes=slice(None)):
        """(params, feats, refs, run, ce_weights, lp_weights) of a forced,
        sampled or joint unroll of row_batch's scenes, weighted as in
        weighted_loss (refs is [] when no row is forced)."""
        params, feats, refs = row_batch()
        feats, refs = feats[scenes], refs[scenes]
        forced = refs if kind != "sampled" else []
        rngs = row_rngs(len(feats)) if kind != "forced" else []
        run = P.unroll_rows(params, feats, forced, t_max, rngs)
        ce_w, lp_w = np.zeros(run.ce_values.shape), np.zeros(run.ce_values.shape)
        for r, ref in enumerate(forced):
            ce_w[r, :len(ref)] = 0.5 + r / len(forced)
        for i, k in enumerate(run.episodes.lengths):
            lp_w[len(forced) + i, :k] = -np.random.default_rng([15, i]).uniform(-1.0, 2.0, k)
        return params, feats, forced, run, ce_w, lp_w if rngs else None

    @pytest.mark.parametrize("unhoisted", [False, True])
    @pytest.mark.parametrize("kind,t_max,scenes", [
        ("forced", T_MAX, slice(None)), ("sampled", T_MAX, slice(None)),
        ("joint", T_MAX, slice(None)), ("sampled", 1, slice(None)), ("joint", 1, slice(None)),
        ("joint", T_MAX, slice(1, 2)), ("forced", T_MAX, slice(2, 3))])
    def test_loss_and_gradients_equal_the_padded_scorer(self, kind, t_max, scenes, unhoisted):
        params, feats, forced, run, ce_w, lp_w = self.unrolled(kind, t_max, scenes)
        if kind == "forced" and scenes == slice(None):
            # row drops down to one-row steps, over m = 2 and m = 5 regions
            assert len(run.rows[-1]) == 1 and len({len(r) for r in run.rows}) > 2
            assert [EOS_ID] in forced
        K.zero_grads(params.parameters())
        loss = run.loss(ce_w if lp_w is None else ce_w - lp_w)
        O.backward(loss)
        grads = {q.name: q.grad.copy() for q in params.parameters()}

        sampled = [t.actions for t in unstack(run.episodes)]
        n = len(forced)
        rows = [(ce_w[r, :len(tok)], np.zeros(len(tok)) if lp_w is None else lp_w[r, :len(tok)])
                for r, tok in enumerate(list(forced) + sampled)]
        oracle = padded_score_rows(params, (feats if forced else []) + (feats if sampled else []),
                                   list(forced) + sampled, [c for c, _ in rows],
                                   [lp for _, lp in rows], unhoisted=unhoisted)
        K.zero_grads(params.parameters())
        O.backward(oracle.loss)
        # -CE stands in for logp in the loss value, not in its gradient
        lp_as_ce = 0.0 if lp_w is None else -float((lp_w * oracle.cross_entropy).sum())
        assert float(loss.data) == pytest.approx(
            float((ce_w * oracle.cross_entropy).sum()) + lp_as_ce, rel=1e-12, abs=0)
        if lp_w is None:
            assert float(loss.data) == pytest.approx(float(oracle.loss.data), rel=1e-12, abs=0)
        for q in params.parameters():
            want = q.grad
            # one step from the zero state gives the recurrent weights nothing
            assert np.abs(want).max() > 0.0 or (len(run.rows) == 1
                                                and q in (params.vis.W_h, params.lang.W_h))
            np.testing.assert_allclose(grads[q.name], want, rtol=0,
                                       atol=1e-12 * np.abs(want).max(), err_msg=q.name)
        np.testing.assert_allclose(run.ce_values, oracle.cross_entropy, rtol=1e-12, atol=0)

    def test_records_one_node_and_no_step_nodes(self, monkeypatch):
        # the unrolls build no tensor; the loss is one node over the Parameters
        params, feats, refs = row_batch()
        created = created_tensors(monkeypatch)
        run = unroll_batch(params, feats, refs)
        P.rollout_greedy(params, feats[1], T_MAX)
        P.beam_search(params, feats[1], T_MAX, 3)
        monkeypatch.undo()
        assert created == []
        _, _, loss = weighted_loss(run, refs)
        assert loss.op == "unroll" and list(loss.parents) == params.parameters()
        assert [node.op for node in O._toposort(loss) if node.op != "param"] == ["unroll"]

    @pytest.mark.parametrize("kind", ["forced", "joint"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        params = P.init_policy(rng, vocab_size=7, hidden=5, feature_dim=4)
        feats = [rng.standard_normal((m, 4)) for m in (2, 4, 3)]
        refs = [[4, 6, EOS_ID], [5, EOS_ID], [3, 4, 5, 6, EOS_ID]]

        def fn():
            run = P.unroll_rows(params, feats, refs, 4,
                                row_rngs(len(feats)) if kind == "joint" else [])
            w = np.full(run.ce_values.shape, 0.4)
            w[:len(refs)] = 0.7
            return run.loss(w)

        assert O.grad_check(fn, params.parameters(), max_coords=20) <= 1e-4

    def test_visual_gate_terms_match_finite_differences(self):
        rng = np.random.default_rng(18)
        params = P.init_policy(rng, vocab_size=7, hidden=5, feature_dim=4)
        params.vis.b.data[...] = rng.standard_normal(params.vis.b.shape)
        means = rng.standard_normal((3, 4))
        weights = [rng.standard_normal(shape) for shape in ((3, 20), (7, 20), (20, 10))]

        def flat(t):
            return K.Tensor(t.data.ravel(), (t,), lambda g, accum: accum(t, g.reshape(t.shape)))

        def fn():
            return add_n([dotp(constant(w.ravel()), flat(t))
                          for w, t in zip(weights, visual_gate_terms(params, means))])

        checked = [params.W_v, params.W_e, *params.vis.parameters()]
        assert O.grad_check(fn, checked) <= 1e-4

    def test_an_unroll_under_no_grad_gives_the_recorded_loss_and_gradients(self):
        params, feats, refs = row_batch()
        with K.no_grad():
            detached = unroll_batch(params, feats, refs)
        runs = []
        for run in (unroll_batch(params, feats, refs), detached):
            _, _, loss = weighted_loss(run, refs)
            runs.append((float(loss.data), K.gradients(loss, params.parameters())))
        (value, grads), (detached_value, detached_grads) = runs
        assert detached_value == value
        for q in params.parameters():
            assert np.abs(grads[q.name]).max() > 0.0
            np.testing.assert_array_equal(detached_grads[q.name], grads[q.name], err_msg=q.name)
        with K.no_grad():
            assert float(weighted_loss(detached, refs)[2].data) == value


def step_values(params, scene, words):
    """(logits, state, attended features, attention) arrays of policy_step
    for each word vector of words, from the zero state."""
    state, outs = zero_state(params, len(words[0])), []
    for word in words:
        logits, record = P.policy_step(params, word, state, scene)
        state = record.state
        outs.append((logits, state, record.attended, record.attn))
    return outs


def composite_values(params, scene, words):
    """step_values of composite_policy_step's nodes."""
    state, outs = None, []
    for word in words:
        logits, state, v_hat, attn = composite_policy_step(params, word, state, scene)
        outs.append((logits.data, state.data, v_hat.data, attn.data))
    return outs


def forced_refs(targets):
    """The reference of each row that feeds it, after <bos>, the targets of
    the steps before: row r's targets[t][r] of every step t."""
    return [[int(t[r]) for t in targets] for r in range(len(targets[0]))]


class TestFusedStep:
    """policy_step, the attention-LSTM step over plain arrays, against the
    composite graph of single-purpose kernel ops it fuses: the same outputs
    bit for bit; an n-row step against n one-row steps; and the gathers of
    unroll. Its gradients are RowUnroll.loss's (TestUnrollNode)."""

    @staticmethod
    def vector_case():
        """One sequence, as one row."""
        params, feats = tiny_policy(seed=21)
        words = [np.array([w]) for w in (BOS_ID, 4, 7, EOS_ID)]
        return params, [feats], words[:-1], words[1:]

    @staticmethod
    def row_case(saturated=True):
        params, feats, _ = row_batch()          # m = 2 and m = 5: masked regions
        if not saturated:                       # finite differences need smooth logits
            params.W_p.data[...] = np.random.default_rng(3).uniform(-0.5, 0.5, params.W_p.shape)
        words = [np.full(6, BOS_ID), np.array([4, 5, 6, 7, 8, 3]), np.array([5, 5, 2, EOS_ID, 4, 6])]
        return params, feats, words, words[1:] + [words[0]]

    @pytest.mark.parametrize("case", ["vector_case", "row_case"])
    def test_outputs_equal_the_composite_step(self, case):
        params, feats, words, _ = getattr(self, case)()
        fused = step_values(params, P.project_batch(params, feats), words)
        composite = composite_values(params, term_batch(params, feats), words)
        for got, want in zip(fused, composite):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_each_row_equals_a_one_row_step(self):
        # n rows, each with its own scene (m = 2 padded to 5, or m = 5),
        # against n one-row calls, one scene each; and the gradient of the
        # n-row teacher-forced unroll against the sum of the n one-row ones
        params, feats, words, targets = self.row_case(saturated=False)
        refs = forced_refs(targets)
        weights = np.linspace(0.5, 1.5, len(feats))[:, None] * np.ones(len(words))
        rows = step_values(params, P.project_batch(params, feats), words)
        K.zero_grads(params.parameters())
        O.backward(P.unroll_rows(params, feats, refs, len(words)).loss(weights))
        batched = {q.name: q.grad.copy() for q in params.parameters()}
        K.zero_grads(params.parameters())
        for r, f in enumerate(feats):
            m = f.shape[0]
            one = step_values(params, one_row(params, f), [w[r:r + 1] for w in words])
            for got, want in zip(rows, one):
                for a, b in zip(got[:3], want[:3]):
                    np.testing.assert_allclose(a[r:r + 1], b, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(got[3][r:r + 1, :m], want[3], rtol=1e-12, atol=1e-15)
                assert (got[3][r, m:] == 0.0).all()
            # accumulates over the rows
            O.backward(P.unroll_rows(params, [f], [refs[r]], len(words)).loss(weights[r:r + 1]))
        for q in params.parameters():
            np.testing.assert_allclose(batched[q.name], q.grad, rtol=1e-12, atol=1e-15,
                                       err_msg=q.name)

    def test_padded_regions_get_exactly_zero_gradient(self, monkeypatch):
        params, feats, words, targets = self.row_case()
        run = P.unroll_rows(params, feats, forced_refs(targets), len(words))
        mask = run.scene.mask
        regions = np.zeros(run.scene.region_proj.shape)
        for ids, d_pre in region_gradients(monkeypatch, run, run.loss(np.ones(run.ce_values.shape))):
            assert (d_pre[~mask[ids]] == 0.0).all()
            regions[ids] += d_pre
        assert (regions[mask] != 0.0).any(axis=-1).all()

    @staticmethod
    def gathers(monkeypatch):
        """Record, in call order, each policy_step's (state argument, record),
        each gather of the rows of a state that a step made (an index array
        into it) and the rows of each ProjectedScene.take."""
        events = []
        step, take = P.policy_step, P.ProjectedScene.take

        class Logged(np.ndarray):
            """A state that logs each index array it is gathered by."""

            def __getitem__(self, key):
                if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
                    events.append(("gather", key))
                return np.ndarray.__getitem__(self, key)

        def counted_step(*args, **kwargs):
            logits, record = step(*args, **kwargs)
            events.append(("step", (args[2], record)))
            record.state = record.state.view(Logged)
            return logits, record

        def counted_take(scene, rows):
            events.append(("take", rows))
            return take(scene, rows)

        monkeypatch.setattr(P, "policy_step", counted_step)
        monkeypatch.setattr(P.ProjectedScene, "take", counted_take)
        return events

    @staticmethod
    def after_each_step(events, kind):
        """Per step, the events of kind ("gather" or "take") after it. The
        next step must read the state that step made, or after a gather its
        gathered rows."""
        counts, gathered, last = [], None, None
        # a take before the first step is unroll_rows' scene map, no gather
        while events and events[0][0] != "step":
            events = events[1:]
        for event, value in events:
            if event == "step":
                read, record = value
                if last is not None and gathered is None:
                    assert read is last.state
                elif last is not None:
                    np.testing.assert_array_equal(read, last.state.view(np.ndarray)[gathered])
                counts.append(0)
                gathered, last = None, record
                continue
            if event == "gather":
                gathered = value
            if event == kind:
                counts[-1] += 1
        return counts

    def test_a_reordering_beam_step_gathers_the_state_once(self, monkeypatch):
        # after each step, either nothing is gathered or, once, the state
        # and scene rows of the parents
        params, feats = tiny_policy(seed=3, vocab_size=5, hidden=4, feature_dim=3, sharpen=3.0)
        events = self.gathers(monkeypatch)
        P.beam_search(params, feats, 6, width=3)
        monkeypatch.undo()
        counts = self.after_each_step(events, "gather")
        assert len(counts) == 6 and sum(map(bool, counts)) >= 2 and max(counts) == 1
        assert self.after_each_step(events, "take") == counts

    def test_a_row_drop_gathers_the_state_once(self, monkeypatch):
        # and the scene rows once, as the rows hold several scenes
        params, feats, refs = row_batch()
        events = self.gathers(monkeypatch)
        run = unroll_batch(params, feats, refs)
        monkeypatch.undo()
        drops = [int(len(a) > len(b)) for a, b in zip(run.rows, run.rows[1:])] + [0]
        assert sum(drops) >= 2
        assert self.after_each_step(events, "gather") == drops
        assert self.after_each_step(events, "take") == drops

    def test_no_gather_follows_the_last_step(self, monkeypatch):
        # a width-3 beam that runs all t_max = 6 steps reorders its rows
        # after steps 1 and 2; no step is left to read a gather after step 6
        rng = np.random.default_rng(0)
        params = P.init_policy(rng, 9, 5, 4)
        for p in params.parameters():
            p.data *= 6.0
        events = self.gathers(monkeypatch)
        P.beam_search(params, rng.standard_normal((3, 4)), 6, width=3)
        monkeypatch.undo()
        assert self.after_each_step(events, "gather") == [1, 1, 0, 0, 0, 0]
        assert self.after_each_step(events, "take") == [1, 1, 0, 0, 0, 0]


class TestGreedy:
    def test_deterministic_across_calls(self):
        params, feats = tiny_policy(seed=13)
        assert P.rollout_greedy(params, feats, 6) == P.rollout_greedy(params, feats, 6)

    def test_equals_beam_width_one(self):
        # both run the one search; the oracle's own argmax loop is the
        # reference apart from it
        for seed in range(10):
            params, feats = tiny_policy(seed=seed, vocab_size=6, hidden=4)
            g = P.rollout_greedy(params, feats, 5)
            ref = O.stepwise_argmax(params, feats, 5)
            assert g == ref == P.beam_search(params, feats, 5, width=1), \
                f"seed {seed}: greedy {g} != stepwise argmax {ref}"

    def test_a_rounded_tie_goes_to_the_lower_id(self, monkeypatch):
        # two probabilities that round to one log: argmax(p) takes the larger
        # (id 6), the search ranks by the log and takes the lower id (5)
        params, feats = tiny_policy(seed=0, vocab_size=40, hidden=4)
        first = rounded_tie(params.vocab_size, 5, 6)
        ends = np.where(np.arange(params.vocab_size) == EOS_ID, 50.0, 0.0)[None]
        step = P.policy_step

        def crafted(params, word, state, scene):
            _, record = step(params, word, state, scene)
            return (first if word[0] == BOS_ID else ends), record

        monkeypatch.setattr(P, "policy_step", crafted)
        assert P.rollout_greedy(params, feats, 5) == [5, EOS_ID]
        assert O.stepwise_argmax(params, feats, 5) == [6, EOS_ID]

    def test_stepwise_argmax_not_global_optimum(self):
        # frozen instance where the stepwise-argmax path differs from the
        # globally most probable sequence found by exhaustive enumeration
        params, feats = tiny_policy(seed=1, vocab_size=3, hidden=4,
                                    feature_dim=3, sharpen=4.0)
        greedy = P.rollout_greedy(params, feats, 3)
        _, best = enumerate_best(params, feats, 3)
        assert tuple(greedy) != best
        assert greedy == O.stepwise_argmax(params, feats, 3)


class TestBeamSearch:
    def test_full_width_finds_global_optimum(self):
        for seed in (1, 3, 7, 12):
            params, feats = tiny_policy(seed=seed, vocab_size=3, hidden=4,
                                        feature_dim=3, sharpen=4.0)
            _, best = enumerate_best(params, feats, 3)
            got = P.beam_search(params, feats, 3, width=27)
            assert tuple(got) == best, f"seed {seed}"

    def test_wider_beams_never_score_worse(self):
        for seed in (0, 4, 9):
            params, feats = tiny_policy(seed=seed, vocab_size=4, hidden=4,
                                        feature_dim=3, sharpen=3.0)
            scores = []
            for width in (1, 2, 4, 16, 64):
                tokens = P.beam_search(params, feats, 3, width=width)
                scores.append(sequence_log_prob(params, feats, tokens))
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    @pytest.mark.parametrize("width", [1, 2, 3, 27])
    def test_row_beam_equals_per_hypothesis_beam(self, width):
        for seed in range(20):
            params, feats = tiny_policy(seed=seed, vocab_size=5, hidden=4,
                                        feature_dim=3, sharpen=3.0)
            assert P.beam_search(params, feats, 4, width) == per_hypothesis_beam(
                params, feats, 4, width), f"seed {seed}"

    @pytest.mark.parametrize("width", [1, 2, 3, 27])
    def test_exact_ties_break_toward_the_smaller_token_path(self, width):
        # zero output weights: every candidate of a step has the same score,
        # so the beam keeps the `width` smallest tokens; once <eos> is among
        # them, the one-step paragraph wins on total log-probability
        params, feats = tiny_policy(seed=3, vocab_size=5, hidden=4, feature_dim=3)
        params.W_p.data[...] = 0.0
        expected = [EOS_ID] if width > EOS_ID else [0, 0, 0, 0]
        assert P.beam_search(params, feats, 4, width) == expected
        assert per_hypothesis_beam(params, feats, 4, width) == expected

    @pytest.mark.parametrize("width", [2, 3])
    def test_stops_once_a_finished_score_beats_every_live_score(self, monkeypatch, width):
        # <eos> dominates the first step, so after it the finished [<eos>]
        # beats every live partial: one step, where the oracle runs on
        params, feats = eos_first(seed=0, boost=10.0)
        calls = counted_steps(monkeypatch)
        got = P.beam_search(params, feats, 6, width)
        assert len(calls) == 1
        del calls[:]
        assert per_hypothesis_beam(params, feats, 6, width) == got == [EOS_ID]
        assert len(calls) > 1

    @pytest.mark.parametrize("boost", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_early_stop_equals_the_per_hypothesis_beam(self, width, boost):
        # at widths 2 and 3, boost -1 runs all 6 steps on every seed, boost 0
        # stops after 1, 2 or 6 steps, and boost 1 after step 1
        for seed in range(20):
            params, feats = eos_first(seed=seed, boost=boost)
            assert P.beam_search(params, feats, 6, width) == per_hypothesis_beam(
                params, feats, 6, width), f"seed {seed}"

    def test_rejects_zero_width(self):
        params, feats = tiny_policy()
        with pytest.raises(ValueError):
            P.beam_search(params, feats, 3, width=0)


class TestSequenceLogProb:
    def test_single_step(self):
        params, feats = tiny_policy(seed=14)
        logits, _ = P.policy_step(params, np.array([BOS_ID]), zero_state(params),
                                  one_row(params, feats))
        assert sequence_log_prob(params, feats, [3]) == pytest.approx(
            float(np.log(K.softmax_values(logits)[0, 3])))

    def test_exp_at_most_one(self):
        params, feats = tiny_policy(seed=15)
        lp = sequence_log_prob(params, feats, [1, 2])
        assert np.exp(lp) <= 1.0

    def test_empty_sequence_rejected(self):
        params, feats = tiny_policy()
        with pytest.raises(ValueError):
            sequence_log_prob(params, feats, [])


def test_full_unroll_backprop_gradcheck():
    # teacher-forced multi-step rollout through both LSTMs and the attention
    params, feats = tiny_policy(seed=16, vocab_size=8, hidden=6, feature_dim=5)
    tokens = [5, 3, 7, 4, EOS_ID]

    def fn():
        return P.unroll_rows(params, [feats], [tokens], len(tokens)).loss(np.ones((1, 5)))

    assert O.grad_check(fn, params.parameters(), max_coords=15, seed=1) <= 1e-4
