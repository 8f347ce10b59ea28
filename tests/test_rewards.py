import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curioseq import kernel as K
from curioseq import metrics as M
from curioseq import policy as P
from curioseq import rewards as R
import oracles
from oracles import unstack

# ---------------------------------------------------------------------------
# independent oracle: literal evaluation of the mixed-return double sum


def oracle_td_lambda(rewards, gamma, lam):
    t_len = len(rewards)
    out = []
    for t in range(t_len):
        horizon = t_len - 1 - t

        def g_return(j):
            return sum(gamma ** k * rewards[t + k] for k in range(j + 1))

        mixed = sum(lam ** j * g_return(j) for j in range(horizon + 1))
        out.append((1 - lam) * mixed + lam ** horizon * g_return(horizon))
    return np.array(out)


def double_sum_td_lambda(rewards, gamma, lam):
    """The O(T^2) double sum that td_lambda_q evaluated before its backward
    recursion; same weighting, kept as the reference."""
    r = np.asarray(rewards, dtype=np.float64)
    t_len = r.shape[0]
    q = np.zeros(t_len)
    for t in range(t_len):
        horizon = t_len - 1 - t
        g = 0.0
        mixed = 0.0
        for j in range(horizon + 1):
            g += (gamma ** j) * r[t + j]
            mixed += (lam ** j) * g
        q[t] = (1.0 - lam) * mixed + (lam ** horizon) * g
    return q


class TestTdLambda:
    def test_worked_value_closed_form(self):
        got = R.td_lambda_q([0.0, 0.0, 2.0], gamma=0.9, lam=1.0)
        assert got.tolist() == [1.62, 1.8, 2.0]

    def test_gamma_one_terminal_reward_everywhere(self):
        got = R.td_lambda_q([0.0, 0.0, 0.0, 5.0], gamma=1.0, lam=1.0)
        np.testing.assert_allclose(got, 5.0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 1.0])
    def test_matches_brute_force_oracle(self, lam, gamma):
        rng = np.random.default_rng(17)
        for t_len in (1, 2, 5, 9):
            r = rng.standard_normal(t_len)
            got = R.td_lambda_q(r, gamma, lam)
            np.testing.assert_allclose(got, oracle_td_lambda(r, gamma, lam),
                                       rtol=0, atol=1e-12)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_recursion_matches_double_sum(self, rewards, gamma, lam):
        # the absolute term is relative to the reward scale, plus the smallest
        # normal float: terms that underflow into subnormals round differently
        # in the two evaluation orders
        got = R.td_lambda_q(rewards, gamma, lam)
        np.testing.assert_allclose(got, double_sum_td_lambda(rewards, gamma, lam), rtol=1e-12,
                                   atol=1e-12 * max(rewards) + np.finfo(np.float64).tiny)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            R.td_lambda_q([1.0], gamma=1.5, lam=1.0)
        with pytest.raises(ValueError):
            R.td_lambda_q([1.0], gamma=0.5, lam=-0.1)


class TestClosedForm:
    def test_worked_value(self):
        got = R.q_closed_form(2.0, 3, 0.9)
        assert got.tolist() == [1.62, 1.8, 2.0]

    def test_gamma_one_is_constant(self):
        np.testing.assert_array_equal(R.q_closed_form(3.0, 4, 1.0), 3.0)

    def test_equals_td_lambda_at_one_on_grid(self):
        for t_len in range(1, 21):
            for gamma in (0.0, 0.25, 0.5, 0.9, 1.0):
                r = np.zeros(t_len)
                r[-1] = 2.7
                closed = R.q_closed_form(2.7, t_len, gamma)
                mixed = R.td_lambda_q(r, gamma, 1.0)
                np.testing.assert_allclose(closed, mixed, rtol=0, atol=1e-12)

    def test_monotone_when_terminal_nonnegative(self):
        q = R.q_closed_form(1.3, 10, 0.7)
        assert (np.diff(q) >= 0).all()


class TestExtrinsicReward:
    def setup_method(self):
        self.doc1 = [tuple("a red box sits here".split())]
        self.doc2 = [tuple("the tall tree stands there".split())]
        self.idf = M.build_idf([self.doc1, self.doc2])
        self.refs1 = M.reference_stats(self.doc1, self.idf)

    def test_weighted_combination(self):
        # stubbed metric values: terminal = a * bleu4 + b * cider; at gamma 0
        # the Q of a terminal reward is the reward vector itself
        q = R.terminal_q(np.array([1.0 * 0.1 + 2.0 * 0.2]), np.array([4]), 4, 0.0, 1.0)
        assert q.tolist() == [[0.0, 0.0, 0.0, 0.5]]

    def test_zero_before_terminal(self):
        cand = list(self.doc1[0])
        reward = R.scored_reward(cand, self.refs1, 1.0, 2.0)
        (vec,) = R.terminal_q(np.array([reward]), np.array([len(cand)]), len(cand), 0.0, 0.5)
        assert (vec[:-1] == 0.0).all()
        assert vec[-1] > 0.0

    def test_identical_candidate_gets_bleu_one_plus_cider(self):
        cand = list(self.doc1[0])
        reward = R.scored_reward(cand, self.refs1, bleu_weight=1.0, cider_weight=2.0)
        expected = 1.0 * M.bleu([(cand, self.doc1)], mode="sentence") \
            + 2.0 * M.cider_single(cand, self.doc1, self.idf)
        assert reward == pytest.approx(expected)
        assert M.bleu([(cand, self.doc1)], mode="sentence") == pytest.approx(1.0)

    def test_explicit_length_for_stripped_candidates(self):
        # the episode's length, not the stripped candidate's, sets Q's steps
        reward = R.scored_reward(["a"], self.refs1, 1.0, 2.0)
        q = R.terminal_q(np.array([reward]), np.array([6]), 8, 0.0, 1.0)
        assert q.shape == (1, 8)
        assert (q[0, :5] == 0.0).all() and q[0, 5] == reward and (q[0, 6:] == 0.0).all()

    def test_empty_candidate_scores_zero(self):
        reward = R.scored_reward([], self.refs1, 1.0, 2.0)
        assert reward == 0.0
        assert R.terminal_q(np.array([reward]), np.array([3]), 3, 0.9, 0.5).tolist() == [
            [0.0, 0.0, 0.0]]


class TestTerminalQ:
    """terminal_q against the per-episode q_closed_form, closed-form oracle
    and td_lambda_q."""

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.95, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 1.0])
    def test_equals_the_per_episode_functions_exactly(self, gamma, lam):
        rng = np.random.default_rng([21, int(10 * gamma), int(100 * lam)])
        for _ in range(20):
            lengths = rng.integers(1, 31, size=rng.integers(1, 7))
            steps = int(lengths.max()) + int(rng.integers(0, 3))
            terminal = rng.uniform(-1.0, 3.0, lengths.size)
            q = R.terminal_q(terminal, lengths, steps, gamma, lam)
            assert q.shape == (lengths.size, steps)
            for row, r, k in zip(q, terminal, lengths):
                if lam == 1.0:
                    assert row[:k].tolist() == R.q_closed_form(float(r), int(k), gamma).tolist()
                else:
                    want = oracles.terminal_closed_form_q(float(r), int(k), gamma, lam)
                    assert row[:k].tolist() == want.tolist()
                    # the recursion sums in another order, so it rounds differently
                    recursion = R.td_lambda_q(oracles.terminal_reward_vector(float(r), int(k)),
                                              gamma, lam)
                    np.testing.assert_allclose(row[:k], recursion, rtol=1e-14, atol=0)
                assert (row[k:] == 0.0).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma, lam", [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.9, 0.0)])
    def test_no_discount_pays_only_the_last_step(self, gamma, lam):
        # (gamma lam)^H with gamma lam 0 is 1 at H 0 and 0 before; no step
        # takes 0 to a negative power, which would warn
        terminal = np.array([2.0, -1.5, 0.7])
        lengths = np.array([1, 4, 3])
        q = R.terminal_q(terminal, lengths, 5, gamma, lam)
        want = np.zeros((3, 5))
        want[[0, 1, 2], lengths - 1] = (2.0 - lam) * terminal
        assert q.tolist() == want.tolist()

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            R.terminal_q(np.ones(1), np.array([2]), 2, 1.5, 1.0)
        with pytest.raises(ValueError):
            R.terminal_q(np.ones(1), np.array([2]), 2, 0.5, -0.1)

    def test_td_lambda_q_runs_over_leading_axes(self):
        rewards = np.random.default_rng(4).standard_normal((3, 2, 5))
        got = R.td_lambda_q(rewards, 0.8, 0.6)
        for index in np.ndindex(3, 2):
            assert got[index].tolist() == R.td_lambda_q(rewards[index], 0.8, 0.6).tolist()


def sampled_run(params, feats, t_max=4):
    """The recorded one-row unroll that samples small_rollout's episode."""
    return P.unroll_rows(params, [feats], [], t_max, [np.random.default_rng(5)])


def lp_loss(run, advantage):
    """The policy-gradient loss of the run's sampled row: weight -A_t on its
    log-probabilities, which is weight A_t on its cross-entropies, as
    train_step weights them."""
    ce_w, lp_w = np.zeros(run.ce_values.shape), np.zeros(run.ce_values.shape)
    lp_w[0, :len(advantage)] = -np.asarray(advantage)
    return run.loss(ce_w - lp_w)


@pytest.fixture
def small_rollout():
    rng = np.random.default_rng(0)
    params = P.init_policy(rng, vocab_size=9, hidden=6, feature_dim=4)
    feats = rng.standard_normal((2, 4))
    return params, feats, P.rollout_sample(params, feats, t_max=4, rng=np.random.default_rng(5))


class TestRlLoss:
    """rl_loss is the value of the policy-gradient loss; its gradient is the
    log-prob path of RowUnroll.loss on the sampled row."""

    def test_zero_advantage_gives_zero_loss_and_grads(self, small_rollout):
        params, feats, trace = small_rollout
        assert R.rl_loss(trace, np.zeros((1, len(trace)))) == 0.0
        loss = lp_loss(sampled_run(params, feats), np.zeros(len(trace)))
        assert float(loss.data) == 0.0
        K.zero_grads(params.parameters())
        oracles.backward(loss)
        assert K.global_grad_norm(params.parameters()) == 0.0

    def test_single_step_unit_advantage_matches_cross_entropy_gradient(self, small_rollout):
        params, feats, _ = small_rollout
        run = sampled_run(params, feats, t_max=1)
        assert len(run.episodes) == 1
        K.zero_grads(params.parameters())
        oracles.backward(lp_loss(run, np.ones(1)))
        rl_grads = {p.name: p.grad.copy() for p in params.parameters()}

        xe = P.unroll_rows(params, [feats], [unstack(run.episodes)[0].actions], 1).loss(
            np.ones((1, 1)))
        K.zero_grads(params.parameters())
        oracles.backward(xe)
        for p in params.parameters():
            np.testing.assert_allclose(rl_grads[p.name], p.grad, atol=1e-12)

    def test_gradient_scales_linearly_with_advantage(self, small_rollout):
        params, feats, trace = small_rollout
        adv = np.linspace(0.2, 1.0, len(trace))
        K.zero_grads(params.parameters())
        oracles.backward(lp_loss(sampled_run(params, feats), adv))
        base = {p.name: p.grad.copy() for p in params.parameters()}

        K.zero_grads(params.parameters())
        oracles.backward(lp_loss(sampled_run(params, feats), 3.0 * adv))
        for p in params.parameters():
            np.testing.assert_allclose(p.grad, 3.0 * base[p.name], rtol=1e-12, atol=1e-14)

    def test_gradcheck_with_frozen_advantages(self, small_rollout):
        params, feats, trace = small_rollout
        adv = np.linspace(0.5, 1.5, len(trace))

        def fn():
            return lp_loss(sampled_run(params, feats), adv)

        assert oracles.grad_check(fn, params.parameters(), max_coords=25) <= 1e-4

    def test_length_mismatch(self, small_rollout):
        _, _, trace = small_rollout
        with pytest.raises(ValueError):
            R.rl_loss(trace, np.zeros((1, len(trace) + 1)))

    def test_value_only_evaluation_inside_no_grad(self, small_rollout):
        params, feats, trace = small_rollout
        adv = np.linspace(0.5, 1.5, len(trace))
        with K.no_grad():
            value = float(lp_loss(sampled_run(params, feats), adv).data)
        assert value == float(lp_loss(sampled_run(params, feats), adv).data)
        # -CE stands in for log p: the values differ by at most log(1 + eps / p)
        assert R.rl_loss(trace, adv[None]) == pytest.approx(value, rel=0, abs=1e-9)
        assert R.rl_loss(trace, adv[None]) == -float(adv @ trace.log_probs[0])

    def test_sums_the_episodes_over_their_own_steps(self):
        rng = np.random.default_rng(0)
        params = P.init_policy(rng, vocab_size=9, hidden=6, feature_dim=4)
        feats = [rng.standard_normal((2, 4)) for _ in range(3)]
        episodes = P.unroll_rows(params, feats, [], 5,
                                 [np.random.default_rng([6, i]) for i in range(3)]).episodes
        assert len(set(episodes.lengths.tolist())) > 1
        adv = np.random.default_rng(7).uniform(-1.0, 2.0, episodes.log_probs.shape)
        want = 0.0
        for trace, a in zip(unstack(episodes), adv):
            want += -float(a[:len(trace)] @ np.array(trace.log_probs))
        assert R.rl_loss(episodes, adv) == want
