import numpy as np
import pytest

from curioseq import kernel as K
from curioseq import policy as P
from curioseq import rewards as R
from curioseq.vocab import BOS_ID, EOS_ID
from oracles import one_row_sample, per_hypothesis_beam


def tiny_policy(seed=0, vocab_size=9, hidden=6, feature_dim=4, sharpen=1.0):
    rng = np.random.default_rng(seed)
    params = P.init_policy(rng, vocab_size, hidden, feature_dim)
    if sharpen != 1.0:
        for p in params.parameters():
            p.data *= sharpen
    feats = rng.standard_normal((3, feature_dim))
    return params, feats


def enumerate_best(params, feats, t_max, eos=EOS_ID):
    """Exhaustive scoring of every action sequence that ends at eos or t_max."""
    results = []

    def rec(prefix):
        if prefix and (prefix[-1] == eos or len(prefix) == t_max):
            results.append((P.sequence_log_prob(params, feats, list(prefix)), prefix))
            return
        for w in range(params.vocab_size):
            rec(prefix + (w,))

    rec(())
    return min(results, key=lambda c: (-c[0], c[1]))


class TestPolicyStep:
    def test_single_region_attention_is_one(self):
        rng = np.random.default_rng(2)
        params = P.init_policy(rng, vocab_size=6, hidden=4, feature_dim=3)
        feats = rng.standard_normal((1, 3))
        _, _, v_hat, attn = P.policy_step(params, BOS_ID, None, feats)
        assert attn.data.tolist() == [1.0]
        np.testing.assert_allclose(v_hat.data, feats[0], atol=1e-15)

    def test_zero_parameters_give_uniform_distribution(self):
        params, feats = tiny_policy(vocab_size=8)
        for p in params.parameters():
            p.data[...] = 0.0
        logits, _, _, _ = P.policy_step(params, BOS_ID, None, feats)
        np.testing.assert_allclose(K.softmax(logits).data, 1.0 / 8, atol=1e-15)

    def test_distribution_and_attention_normalized(self):
        params, feats = tiny_policy(seed=5)
        state = None
        for word in (BOS_ID, 4, 7):
            logits, state, _, attn = P.policy_step(params, word, state, feats)
            dist = K.softmax(logits)
            assert abs(dist.data.sum() - 1.0) <= 1e-9
            assert (dist.data > 0).all()
            assert abs(attn.data.sum() - 1.0) <= 1e-9
            assert (attn.data >= 0).all()

    def test_state_concat_invariant(self):
        params, feats = tiny_policy(seed=6)
        _, state, _, _ = P.policy_step(params, BOS_ID, None, feats)
        np.testing.assert_array_equal(
            state.concat.data,
            np.concatenate([state.s_vis.data, state.s_lang.data]))

    def test_recorded_step_creates_at_most_16_nodes(self, monkeypatch):
        params, feats = tiny_policy(seed=3)
        scene = P.project_scene(params, feats)
        _, state, _, _ = P.policy_step(params, BOS_ID, None, scene)
        created = []
        init = K.Tensor.__init__

        def counted(tensor, *args, **kwargs):
            created.append(tensor)
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(K.Tensor, "__init__", counted)
        P.policy_step(params, 4, state, scene)
        monkeypatch.undo()
        assert len(created) <= 16, sorted(t.op for t in created)

    def test_word_index_validated(self):
        params, feats = tiny_policy()
        with pytest.raises(IndexError):
            P.policy_step(params, params.vocab_size, None, feats)

    def test_teacher_forced_gradients_match_finite_differences(self):
        params, feats = tiny_policy(seed=7, vocab_size=7, hidden=5)
        tokens = [4, 6, 3, EOS_ID]

        def fn():
            return K.add_n(P.forced_step_losses(params, feats, tokens))

        assert K.grad_check(fn, params.parameters(), max_coords=20) <= 1e-4


class TestRolloutSample:
    def test_same_seed_same_trace(self):
        params, feats = tiny_policy(seed=8)
        a = P.rollout_sample(params, feats, 6, np.random.default_rng(3))
        b = P.rollout_sample(params, feats, 6, np.random.default_rng(3))
        assert a.actions == b.actions
        assert a.log_probs == b.log_probs

    def test_never_exceeds_t_max(self):
        params, feats = tiny_policy(seed=9)
        for t_max in (1, 2, 5):
            trace = P.rollout_sample(params, feats, t_max, np.random.default_rng(0))
            assert 1 <= len(trace) <= t_max

    def test_deterministic_distribution_ignores_seed(self):
        # saturate the output projection so one token gets probability ~1
        params, feats = tiny_policy(seed=10)
        params.W_p.data[...] = 0.0
        params.W_p.data[5, :] = 500.0  # row 5 dominates for any nonzero state
        traces = [P.rollout_sample(params, feats, 4, np.random.default_rng(s))
                  for s in (0, 1, 2)]
        assert traces[0].actions == traces[1].actions == traces[2].actions

    def test_trace_lists_aligned_and_eos_flag(self):
        params, feats = tiny_policy(seed=11)
        trace = P.rollout_sample(params, feats, 8, np.random.default_rng(4))
        t = len(trace)
        assert len(trace.log_probs) == len(trace.states) == len(trace.attention) == t
        assert trace.logprob_nodes == []          # sampled without a graph
        assert len(P.unroll_forced(params, feats, trace.actions).logprob_nodes) == t
        assert trace.ended_with_eos == (trace.actions[-1] == EOS_ID)
        for attn in trace.attention:
            assert abs(attn.sum() - 1.0) <= 1e-9

    def test_log_probs_match_forced_recomputation(self):
        params, feats = tiny_policy(seed=12)
        trace = P.rollout_sample(params, feats, 6, np.random.default_rng(9))
        assert P.sequence_log_prob(params, feats, trace.actions) == pytest.approx(
            sum(trace.log_probs), abs=1e-12)


class TestSampleRows:
    """The row sampler against the one-row oracle, scene for scene."""

    T_MAX = 6

    def make(self):
        # token 5's output row is scaled so far that the distribution of
        # every step saturates toward or away from it, depending on the state
        rng = np.random.default_rng(14)
        params = P.init_policy(rng, vocab_size=9, hidden=6, feature_dim=4)
        params.W_p.data[5] = 1e4 * rng.standard_normal(6)
        params.W_p.data[EOS_ID] += 1.5
        feats = [rng.standard_normal((m, 4)) for m in (2, 5, 2, 5, 5, 2)]
        return params, feats

    @staticmethod
    def rngs(n):
        return [np.random.default_rng([14, i]) for i in range(n)]

    def test_batch_covers_the_edge_cases(self):
        params, feats = self.make()
        traces = P.sample_rows(params, feats, self.T_MAX, self.rngs(len(feats)))
        lengths = [len(t) for t in traces]
        assert 1 in lengths and self.T_MAX in lengths
        assert any(1 < n < self.T_MAX for n in lengths)
        assert {f.shape[0] for f in feats} == {2, 5}
        top = [K.softmax_values(logits.data).max()
               for f, t in zip(feats, traces)
               for _, logits, _, _ in P._forced(params, f, t.actions)]
        assert max(top) > 1.0 - 1e-12

    def test_equals_one_row_sampler_scene_for_scene(self):
        params, feats = self.make()
        traces = P.sample_rows(params, feats, self.T_MAX, self.rngs(len(feats)))
        oracle = [one_row_sample(params, f, self.T_MAX, rng)
                  for f, rng in zip(feats, self.rngs(len(feats)))]
        for got, want in zip(traces, oracle):
            assert got.actions == want.actions
            np.testing.assert_allclose(got.log_probs, want.log_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.states, want.states, rtol=0, atol=1e-12)
            assert [a.shape for a in got.attention] == [a.shape for a in want.attention]
            np.testing.assert_allclose(got.attention, want.attention, rtol=0, atol=1e-12)
            assert got.logprob_nodes == []

    def test_log_probs_equal_forced_unroll(self):
        params, feats = self.make()
        traces = P.sample_rows(params, feats, self.T_MAX, self.rngs(len(feats)))
        for f, trace in zip(feats, traces):
            forced = P.unroll_forced(params, f, trace.actions)
            np.testing.assert_allclose(trace.log_probs, forced.log_probs, rtol=0, atol=1e-12)

    def test_each_generator_draws_once_per_recorded_step(self):
        params, feats = self.make()
        rngs = self.rngs(len(feats))
        traces = P.sample_rows(params, feats, self.T_MAX, rngs)
        for rng, fresh, trace in zip(rngs, self.rngs(len(feats)), traces):
            fresh.random(len(trace))
            assert rng.random() == fresh.random()

    def test_rejects_bad_arguments(self):
        params, feats = self.make()
        with pytest.raises(ValueError):
            P.sample_rows(params, feats, self.T_MAX, self.rngs(len(feats) - 1))
        with pytest.raises(ValueError):
            P.sample_rows(params, feats, 0, self.rngs(len(feats)))


class TestGreedy:
    def test_deterministic_across_calls(self):
        params, feats = tiny_policy(seed=13)
        assert P.rollout_greedy(params, feats, 6) == P.rollout_greedy(params, feats, 6)

    def test_equals_beam_width_one(self):
        for seed in range(10):
            params, feats = tiny_policy(seed=seed, vocab_size=6, hidden=4)
            g = P.rollout_greedy(params, feats, 5)
            b = P.beam_search(params, feats, 5, width=1)
            assert g == b, f"seed {seed}: greedy {g} != beam-1 {b}"

    def test_stepwise_argmax_not_global_optimum(self):
        # frozen instance where the stepwise-argmax path differs from the
        # globally most probable sequence found by exhaustive enumeration
        params, feats = tiny_policy(seed=1, vocab_size=3, hidden=4,
                                    feature_dim=3, sharpen=4.0)
        greedy = P.rollout_greedy(params, feats, 3)
        _, best = enumerate_best(params, feats, 3)
        assert tuple(greedy) != best
        # greedy is the stepwise argmax path by construction
        state = None
        prev = BOS_ID
        expected = []
        with K.no_grad():
            for _ in range(3):
                logits, state, _, _ = P.policy_step(params, prev, state, feats)
                prev = int(np.argmax(K.softmax(logits).data))
                expected.append(prev)
                if prev == EOS_ID:
                    break
        assert greedy == expected


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
                scores.append(P.sequence_log_prob(params, feats, tokens))
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

    def test_rejects_zero_width(self):
        params, feats = tiny_policy()
        with pytest.raises(ValueError):
            P.beam_search(params, feats, 3, width=0)


class TestSequenceLogProb:
    def test_single_step(self):
        params, feats = tiny_policy(seed=14)
        with K.no_grad():
            logits, _, _, _ = P.policy_step(params, BOS_ID, None, feats)
        assert P.sequence_log_prob(params, feats, [3]) == pytest.approx(
            float(np.log(K.softmax(logits).data[3])))

    def test_exp_at_most_one(self):
        params, feats = tiny_policy(seed=15)
        lp = P.sequence_log_prob(params, feats, [1, 2])
        assert np.exp(lp) <= 1.0

    def test_empty_sequence_rejected(self):
        params, feats = tiny_policy()
        with pytest.raises(ValueError):
            P.sequence_log_prob(params, feats, [])


def test_full_unroll_backprop_gradcheck():
    # teacher-forced multi-step rollout through both LSTMs and the attention
    params, feats = tiny_policy(seed=16, vocab_size=8, hidden=6, feature_dim=5)
    tokens = [5, 3, 7, 4, EOS_ID]

    def fn():
        return K.add_n(P.forced_step_losses(params, feats, tokens))

    assert K.grad_check(fn, params.parameters(), max_coords=15, seed=1) <= 1e-4


class TestScoreRows:
    """One batched teacher-forced unroll against the per-scene entry points."""

    def make(self):
        params, _ = tiny_policy(seed=21, vocab_size=9, hidden=6, feature_dim=4)
        rng = np.random.default_rng(22)
        f2, f5 = rng.standard_normal((2, 4)), rng.standard_normal((5, 4))
        refs = [[4, 6, EOS_ID], [5, 3, 7, 4, 8, EOS_ID]]
        sampled = [[7, 7, 3, 6], [8, 5]]
        advantages = [rng.uniform(-1.0, 2.0, len(s)) for s in sampled]
        return params, [f2, f5], refs, sampled, advantages

    def test_matches_summed_per_scene_losses(self):
        params, feats, refs, sampled, adv = self.make()
        eta = [0.7, 1.3]
        scores = P.score_rows(
            params, feats + feats, refs + sampled,
            [[eta[0]] * 3, [eta[1]] * 6, [0.0] * 4, [0.0] * 2],
            [[0.0] * 3, [0.0] * 6, -adv[0], -adv[1]])
        names = [q.name for q in params.parameters()]
        K.zero_grads(params.parameters())
        K.backward(scores.loss)
        batched = {q.name: q.grad.copy() for q in params.parameters()}

        per_scene = []
        for f, ref, e in zip(feats, refs, eta):
            per_scene.append(K.scale(K.add_n(P.forced_step_losses(params, f, ref)), e))
        traces = [P.unroll_forced(params, f, s) for f, s in zip(feats, sampled)]
        per_scene += [R.rl_loss(trace, a) for trace, a in zip(traces, adv)]
        oracle = K.add_n(per_scene)
        K.zero_grads(params.parameters())
        K.backward(oracle)
        assert float(scores.loss.data) == pytest.approx(float(oracle.data), rel=1e-12)
        for name, q in zip(names, params.parameters()):
            scale = np.abs(q.grad).max()
            np.testing.assert_allclose(batched[name], q.grad, rtol=0, atol=1e-12 * scale,
                                       err_msg=name)
        for r, ref in enumerate(refs):
            expected = [float(n.data) for n in P.forced_step_losses(params, feats[r], ref)]
            np.testing.assert_allclose(scores.cross_entropy[r, :len(ref)], expected, rtol=1e-12)
            assert (scores.cross_entropy[r, len(ref):] == 0.0).all()
        for r, trace in enumerate(traces):
            np.testing.assert_allclose(scores.log_prob[2 + r, :len(trace)], trace.log_probs,
                                       rtol=1e-12)
            assert (scores.log_prob[2 + r, len(trace):] == 0.0).all()

    def test_padded_steps_and_regions_get_exactly_zero_gradient(self, monkeypatch):
        params, feats, refs, _, _ = self.make()
        # row 0 ends after two steps: its last token 6 and then <eos> are fed
        # only on its padded steps, and row 1 feeds neither
        tokens = [[4, 6], [5, 3, 7, 4, 8, 2]]
        region_grads = []
        project = P.project_batch

        def with_region_parameter(params_, features):
            scene = project(params_, features)
            scene.region_proj = K.Parameter(scene.region_proj.data.copy(), "regions")
            region_grads.append(scene.region_proj)
            return scene

        monkeypatch.setattr(P, "project_batch", with_region_parameter)
        scores = P.score_rows(params, feats, tokens, [[1.0] * 2, [1.0] * 6])
        monkeypatch.undo()
        (regions,) = region_grads
        K.zero_grads(params.parameters() + [regions])
        K.backward(scores.loss)
        assert scores.cross_entropy.shape == (2, 6)
        assert (scores.cross_entropy[0, 2:] == 0.0).all()
        assert (params.W_e.grad[EOS_ID] == 0.0).all()
        assert (params.W_e.grad[6] == 0.0).all()
        assert (params.W_e.grad[4] != 0.0).any()          # fed on row 0's second step
        assert (regions.grad[0, 2:] == 0.0).all()         # scene 0 has m = 2 of 5
        assert (regions.grad[0, :2] != 0.0).any()

    def test_batched_step_makes_the_same_nodes_as_a_vector_step(self, monkeypatch):
        params, feats, _, _, _ = self.make()
        scene = P.project_batch(params, feats)
        _, state, _, _ = P.policy_step(params, np.array([BOS_ID, BOS_ID]), None, scene)
        created = []
        init = K.Tensor.__init__

        def counted(tensor, *args, **kwargs):
            created.append(tensor)
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(K.Tensor, "__init__", counted)
        logits, _, _, attn = P.policy_step(params, np.array([4, 5]), state, scene)
        monkeypatch.undo()
        assert logits.shape == (2, params.vocab_size) and attn.shape == (2, 5)
        assert len(created) <= 16

    def test_empty_row_rejected(self):
        params, feats, _, _, _ = self.make()
        with pytest.raises(ValueError):
            P.score_rows(params, feats, [[4], []], [[1.0], []])
