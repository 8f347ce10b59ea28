import numpy as np
import pytest

from curioseq import curiosity as C
from curioseq import kernel as K
from curioseq import policy as P
import oracles as O
from oracles import (constant, cross_entropy, dotp, first_row, forced_trace, sp_targets, stack,
                     unstack)


def make_setup(seed=0, vocab_size=9, hidden=5, embed=6, t_max=5):
    rng = np.random.default_rng(seed)
    policy = P.init_policy(rng, vocab_size, hidden, feature_dim=4)
    feats = rng.standard_normal((2, 4))
    # one sampled episode, as a one-row Episodes
    trace = P.rollout_sample(policy, feats, t_max, np.random.default_rng(seed + 100))
    cur = C.init_curiosity(np.random.default_rng(seed + 200), vocab_size,
                           state_size=2 * hidden, embed_size=embed)
    return policy, feats, trace, cur


def state_row(trace, t):
    """Step t's state as a one-row matrix."""
    return trace.states[0, t:t + 1]


def zeroed(params):
    for p in params.parameters():
        p.data[...] = 0.0
    return params


class TestEmbedState:
    def test_zero_weights_give_zero_embedding(self):
        _, _, trace, cur = make_setup()
        zeroed(cur)
        out = C.embed_state(state_row(trace, 0), cur)
        np.testing.assert_array_equal(out, np.zeros((1, cur.embed_size)))

    def test_deterministic(self):
        _, _, trace, cur = make_setup()
        a = C.embed_state(state_row(trace, 0), cur)
        b = C.embed_state(state_row(trace, 0), cur)
        assert (a == b).all()

    def test_equals_the_graph_form(self):
        _, _, trace, cur = make_setup(seed=2)
        states = trace.states[0]
        assert np.array_equal(C.embed_state(states, cur), O.embed_state(states, cur).data)

    def test_gradcheck(self):
        _, _, trace, cur = make_setup()
        w = constant(np.random.default_rng(3).standard_normal(cur.embed_size))

        def fn():
            return dotp(w, first_row(O.embed_state(state_row(trace, 0), cur)))

        assert O.grad_check(fn, cur.embedding_parameters()) <= 1e-4

    def test_a_state_vector_is_rejected(self):
        _, _, trace, cur = make_setup()
        with pytest.raises(K.ShapeError):
            C.embed_state(trace.states[0, 0], cur)


class TestPredictNextState:
    """The graph form of the state predictor that the oracle pass builds."""

    def test_zero_weights_give_zero_prediction(self):
        _, _, trace, cur = make_setup()
        zeroed(cur)
        phi = O.embed_state(state_row(trace, 0), cur)
        out = O.predict_next_state(phi, trace.actions[0, :1], cur)
        np.testing.assert_array_equal(out.data, np.zeros((1, cur.embed_size)))

    def test_output_dimension(self):
        _, _, trace, cur = make_setup(embed=7)
        phi = O.embed_state(state_row(trace, 0), cur)
        assert O.predict_next_state(phi, np.array([2]), cur).shape == (1, 7)

    def test_gradcheck(self):
        _, _, trace, cur = make_setup()
        w = constant(np.random.default_rng(4).standard_normal(cur.embed_size))

        def fn():
            phi = O.embed_state(state_row(trace, 0), cur)
            return dotp(w, first_row(O.predict_next_state(phi, trace.actions[0, :1], cur)))

        params = cur.embedding_parameters() + cur.state_predictor_parameters()
        assert O.grad_check(fn, params) <= 1e-4


class TestPredictAction:
    """The graph form of the action predictor that the oracle pass builds."""

    def test_distribution_sums_to_one(self):
        _, _, trace, cur = make_setup()
        phi_a = O.embed_state(state_row(trace, 0), cur)
        phi_b = O.embed_state(state_row(trace, 1), cur)
        dist = K.softmax_values(O.predict_action(phi_a, phi_b, cur).data)[0]
        assert abs(dist.sum() - 1.0) <= 1e-9

    def test_zero_weights_give_uniform(self):
        _, _, trace, cur = make_setup(vocab_size=8)
        zeroed(cur)
        phi_a = O.embed_state(state_row(trace, 0), cur)
        phi_b = O.embed_state(state_row(trace, 1), cur)
        dist = K.softmax_values(O.predict_action(phi_a, phi_b, cur).data)[0]
        np.testing.assert_allclose(dist, 1.0 / 8, atol=1e-15)

    def test_gradcheck(self):
        _, _, trace, cur = make_setup()

        def fn():
            phi_a = O.embed_state(state_row(trace, 0), cur)
            phi_b = O.embed_state(state_row(trace, 1), cur)
            return first_row(cross_entropy(O.predict_action(phi_a, phi_b, cur),
                                           trace.actions[0, :1]))

        params = cur.embedding_parameters() + cur.action_predictor_parameters()
        assert O.grad_check(fn, params) <= 1e-4


class TestSpLoss:
    def test_perfect_prediction_is_zero(self):
        _, _, trace, cur = make_setup()
        zeroed(cur)  # prediction and target both collapse to zero
        assert float(C.sp_loss(trace, cur).data) == 0.0

    def test_single_transition_arithmetic(self):
        # prediction differs from target by a vector of squared norm 0.5
        _, _, trace, cur = make_setup(t_max=2)
        assert len(trace) == 2
        zeroed(cur)
        offset = np.zeros(cur.embed_size)
        offset[0] = np.sqrt(0.5)
        cur.sp_b2.data[...] = offset   # prediction = offset, target = 0
        assert float(C.sp_loss(trace, cur).data) == pytest.approx(0.25)

    def test_short_trace_is_zero(self):
        policy, feats, _, cur = make_setup()
        one_step = stack([forced_trace(policy, feats, [2])])
        assert float(C.sp_loss(one_step, cur).data) == 0.0

    def test_nonnegative(self):
        _, _, trace, cur = make_setup(seed=5)
        assert float(C.sp_loss(trace, cur).data) >= 0.0

    def test_gradcheck_with_frozen_targets(self):
        _, _, trace, cur = make_setup(seed=6)
        targets = sp_targets(trace, cur)
        err = O.grad_check(lambda: C.sp_loss(trace, cur, targets),
                           cur.parameters(), max_coords=30)
        assert err <= 1e-4

    def test_gradients_flow_only_into_embedding_and_state_predictor(self):
        policy, _, trace, cur = make_setup(seed=7)
        everything = policy.parameters() + cur.parameters()
        K.zero_grads(everything)
        O.backward(C.sp_loss(trace, cur))
        assert K.global_grad_norm(policy.parameters()) == 0.0
        assert K.global_grad_norm(cur.action_predictor_parameters()) == 0.0
        assert K.global_grad_norm(cur.state_predictor_parameters()) > 0.0
        assert K.global_grad_norm(cur.embedding_parameters()) > 0.0


class TestApLoss:
    def test_onehot_prediction_is_near_zero(self):
        # force a constant-action trace, then saturate the output layer
        # toward that action so every predicted distribution is one-hot
        policy, feats, _, cur = make_setup(vocab_size=6)
        trace = stack([forced_trace(policy, feats, [4, 4, 4, 4])])
        zeroed(cur)
        cur.ap_b2.data[4] = 1000.0
        assert float(C.ap_loss(trace, cur).data) <= 1e-11

    def test_uniform_prediction_is_log_vocab(self):
        _, _, trace, cur = make_setup(vocab_size=4, t_max=3)
        zeroed(cur)
        if len(trace) >= 2:
            assert float(C.ap_loss(trace, cur).data) == pytest.approx(np.log(4), abs=1e-9)

    def test_nonnegative_and_short_trace_zero(self):
        policy, feats, trace, cur = make_setup(seed=8)
        assert float(C.ap_loss(trace, cur).data) >= 0.0
        one_step = stack([forced_trace(policy, feats, [2])])
        assert float(C.ap_loss(one_step, cur).data) == 0.0

    def test_gradcheck(self):
        _, _, trace, cur = make_setup(seed=9)
        err = O.grad_check(lambda: C.ap_loss(trace, cur), cur.parameters(),
                           max_coords=30)
        assert err <= 1e-4

    def test_gradients_flow_only_into_embedding_and_action_predictor(self):
        policy, _, trace, cur = make_setup(seed=10)
        everything = policy.parameters() + cur.parameters()
        K.zero_grads(everything)
        O.backward(C.ap_loss(trace, cur))
        assert K.global_grad_norm(policy.parameters()) == 0.0
        assert K.global_grad_norm(cur.state_predictor_parameters()) == 0.0
        assert K.global_grad_norm(cur.action_predictor_parameters()) > 0.0
        assert K.global_grad_norm(cur.embedding_parameters()) > 0.0


class TestIntrinsicRewards:
    def test_perfect_predictor_gives_all_zeros(self):
        _, _, trace, cur = make_setup()
        zeroed(cur)
        np.testing.assert_array_equal(C.intrinsic_rewards(trace, cur, 1.0),
                                      np.zeros((1, len(trace))))

    def test_first_step_has_no_reward(self):
        _, _, trace, cur = make_setup(seed=11)
        assert C.intrinsic_rewards(trace, cur, 1.0)[0, 0] == 0.0

    def test_single_transition_arithmetic(self):
        _, _, trace, cur = make_setup(t_max=2)
        zeroed(cur)
        offset = np.zeros(cur.embed_size)
        offset[0] = np.sqrt(0.5)
        cur.sp_b2.data[...] = offset
        rewards = C.intrinsic_rewards(trace, cur, rho=1.0)
        assert rewards[0, 1] == pytest.approx(0.25)

    def test_nonnegative(self):
        _, _, trace, cur = make_setup(seed=12)
        assert (C.intrinsic_rewards(trace, cur, 2.0) >= 0.0).all()

    def test_sum_consistent_with_sp_loss(self):
        _, _, trace, cur = make_setup(seed=13)
        rho = 1.7
        total = C.intrinsic_rewards(trace, cur, rho).sum()
        transitions = len(trace) - 1
        assert total == pytest.approx(
            rho * transitions * float(C.sp_loss(trace, cur).data), abs=1e-12)

    def test_rho_must_be_positive(self):
        _, _, trace, cur = make_setup()
        with pytest.raises(ValueError):
            C.intrinsic_rewards(trace, cur, 0.0)

    def test_no_graph_recorded(self):
        _, _, trace, cur = make_setup(seed=14)
        before = [p.grad.copy() for p in cur.parameters()]
        C.intrinsic_rewards(trace, cur, 1.0)
        for p, b in zip(cur.parameters(), before):
            assert (p.grad == b).all()


def test_init_scale_shrinks_initial_intrinsic_signal():
    _, _, trace, _ = make_setup(seed=15)
    big = C.init_curiosity(np.random.default_rng(1), 9, 10, 6, init_scale=1.0)
    small = C.init_curiosity(np.random.default_rng(1), 9, 10, 6, init_scale=0.1)
    r_big = C.intrinsic_rewards(trace, big, 1.0).sum()
    r_small = C.intrinsic_rewards(trace, small, 1.0).sum()
    assert r_small < r_big


class TestBatchedPass:
    """The pass over many episodes at once against the one-episode views and
    against the graph it replaced (oracles.graph_curiosity_pass)."""

    def make(self):
        policy, feats, episode, cur = make_setup(seed=16, t_max=6)
        traces = unstack(episode) + [forced_trace(policy, feats, [3]),       # no transitions
                                     forced_trace(policy, feats, [4, 1, 1, 5, 2, 7, 3]),
                                     forced_trace(policy, feats, [6, 6, 6, 2])]
        return traces, cur

    def test_matches_mean_of_per_trace_losses_and_gradients(self):
        traces, cur = self.make()
        alpha, beta = 0.3, 0.6
        params = cur.parameters()
        terms = C.curiosity_pass(stack(traces), cur, alpha, beta)
        batched = K.gradients(terms.loss, params)
        n = len(traces)
        per_trace = [C.curiosity_pass(stack([t]), cur, alpha, beta) for t in traces]
        assert terms.sp_loss == pytest.approx(sum(t.sp_loss for t in per_trace) / n, rel=1e-12)
        assert terms.ap_loss == pytest.approx(sum(t.ap_loss for t in per_trace) / n, rel=1e-12)
        per_trace_grads = [K.gradients(t.loss, params) for t in per_trace]
        for q in params:
            mean = sum(g[q.name] for g in per_trace_grads) / n
            np.testing.assert_allclose(batched[q.name], mean, rtol=0,
                                       atol=1e-12 * np.abs(mean).max(), err_msg=q.name)
        assert terms.errors.shape == (n, max(len(t) for t in traces))
        for trace, errors in zip(traces, terms.errors):
            np.testing.assert_allclose(errors[:len(trace)],
                                       C.intrinsic_rewards(stack([trace]), cur, 1.0)[0],
                                       rtol=1e-12, atol=0)
            assert (errors[len(trace):] == 0.0).all()

    @pytest.mark.parametrize("alpha,beta", [(0.2, 0.8), (0.3, 0.6), (1.0, 0.0), (0.0, 1.0)])
    def test_node_equals_the_graph_pass(self, alpha, beta):
        # a one-step episode (no transitions) and repeated actions, which
        # sum into one row of sp_emb's gradient
        traces, cur = self.make()
        episodes = stack(traces)
        params = cur.parameters()
        terms = C.curiosity_pass(episodes, cur, alpha, beta)
        graph = O.graph_curiosity_pass(episodes, cur, alpha, beta)
        assert np.array_equal(terms.errors, graph.errors)
        assert terms.sp_loss == float(graph.sp_loss.data)
        assert terms.ap_loss == float(graph.ap_loss.data)
        assert terms.loss.parents == tuple(params)
        node = K.gradients(terms.loss, params)
        reference = O.gradients(O.graph_curiosity_loss(graph, alpha, beta), params)
        for q in params:
            assert np.array_equal(node[q.name], reference[q.name]), q.name

    def test_node_gradcheck_with_frozen_targets(self):
        # at alpha = beta = 1 the embedding's gradient is the true gradient
        # of the node's value, sp_loss + ap_loss
        traces, cur = self.make()
        episodes = stack(traces)
        targets = sp_targets(episodes, cur)
        err = O.grad_check(lambda: C.curiosity_pass(episodes, cur, 1.0, 1.0, targets).loss,
                           cur.parameters(), max_coords=30)
        assert err <= 1e-4

    def test_one_embedding_call_per_pass(self, monkeypatch):
        traces, cur = self.make()
        calls = []
        embed = C.embed_state

        def counted(states, params):
            calls.append(np.shape(states))
            return embed(states, params)

        monkeypatch.setattr(C, "embed_state", counted)
        C.curiosity_pass(stack(traces), cur, 0.2, 0.8)
        # every state of the episodes with a transition, as one matrix
        assert calls == [(len(traces[0]) + len(traces[2]) + len(traces[3]),
                          cur.phi_W.data.shape[1])]

    def test_no_transitions_embed_nothing(self, monkeypatch):
        policy, feats, _, cur = make_setup()
        monkeypatch.setattr(C, "embed_state", None)
        terms = C.curiosity_pass(stack([forced_trace(policy, feats, [2])] * 2), cur, 1.0, 1.0)
        assert terms.sp_loss == terms.ap_loss == float(terms.loss.data) == 0.0
        assert terms.errors.tolist() == [[0.0], [0.0]]
        grads = K.gradients(terms.loss, cur.parameters())
        assert all((g == 0.0).all() for g in grads.values())


def _closure_arrays(fn):
    """The arrays that fn's closure references, through the closures of the
    functions and the tuples it references, one per owning buffer."""
    found, seen = {}, set()
    todo = [cell.cell_contents for cell in fn.__closure__]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return list(found.values())


class TestPassFootprint:
    """The pass's node keeps phi, the two predictors' hidden activations,
    the (B, T) mask of the embedded steps, the index and weight vectors and
    any caller-given targets; its reverse pass remakes the predictor inputs,
    slopes, outputs and softmax."""

    @pytest.mark.parametrize("frozen", [False, True], ids=["detached", "given"])
    def test_the_node_holds_phi_the_hidden_rows_and_the_vectors(self, frozen):
        traces, cur = TestBatchedPass().make()
        episodes = stack(traces)
        targets = sp_targets(episodes, cur) if frozen else None
        terms = C.curiosity_pass(episodes, cur, 0.3, 0.6, targets)
        s = sum(len(t) for t in traces if len(t) > 1)       # the embedded states
        n = s - sum(len(t) > 1 for t in traces)               # their transitions
        zp, d = cur.embed_size, cur.vocab_size
        assert len({s, n, 2 * zp, d}) == 4 and zp not in (s, n)
        arrays = _closure_arrays(terms.loss.backward_fn)
        # phi, h_sp, h_ap, then src, dst, actions and weights, the bool mask
        # and the targets
        expected = ([(s, zp), (n, zp), (n, zp), (n,), (n,), (n,), (n,), episodes.actions.shape]
                    + [(n, zp)] * frozen)
        assert sorted(a.shape for a in arrays) == sorted(expected)
        assert (sum(a.nbytes for a in arrays)
                == 8 * (s * zp + (2 + frozen) * n * zp + 4 * n) + episodes.actions.size)
        # no (N, 2Zp) input, no slope array, no diff and no (N, D) softmax
        for a in arrays:
            assert a.ndim == 1 or a.dtype == bool or not np.isin(a, (1.0, C.LEAKY_SLOPE)).all()
        if frozen:
            assert any(a is targets for a in arrays)
