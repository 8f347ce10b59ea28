import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curioseq import kernel as K
from oracles import (add_n, additive_attention, attend, first_row, gates_cell, logprob, lstm_cell,
                     project_rows, vslice)


def p(name, arr):
    return K.Parameter(np.asarray(arr, dtype=np.float64), name)


# Elementwise nodes that the composite references below are built from; the
# program's fused ops do this math on plain arrays.


def _elementwise(x, y, dydx, op):
    """The node y = f(x), with the derivative dydx of each entry."""
    return K.Tensor(y, (x,), lambda g, accum: accum(x, g * dydx), op)


def tanh_(x):
    y = np.tanh(x.data)
    return _elementwise(x, y, 1.0 - y * y, "tanh")


def sigmoid_(x):
    y = 1.0 / (1.0 + np.exp(-x.data))
    return _elementwise(x, y, y * (1.0 - y), "sigmoid")


def softmax(x):
    """Softmax over the last axis as a node."""
    y = K.softmax_values(x.data)
    return K.Tensor(y, (x,), lambda g, accum: accum(x, y * (g - (g * y).sum(axis=-1, keepdims=True))),
                    "softmax")


def mul(a, b):
    def bw(g, accum):
        accum(a, g * b.data)
        accum(b, g * a.data)

    return K.Tensor(a.data * b.data, (a, b), bw, "mul")


NONLINEARITIES = {"tanh": tanh_, "sigmoid": sigmoid_, "leaky_relu": K.leaky_relu}


class TestAffine:
    def test_identity(self):
        x = K.constant([[3.0, 4.0]])
        W = p("W", np.eye(2))
        out = K.affine(x, W)
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_zero_matrix_annihilates(self):
        x = K.constant([[5.0, -7.0]])
        out = K.affine(x, p("W", np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_bias(self):
        out = K.affine(K.constant([[1.0, 2.0]]), p("W", [[1.0, 1.0]]), p("b", [10.0]))
        np.testing.assert_array_equal(out.data, [[13.0]])

    def test_shape_mismatch(self):
        with pytest.raises(K.ShapeError):
            K.affine(K.constant([[1.0, 2.0, 3.0]]), p("W", np.eye(2)))
        with pytest.raises(K.ShapeError):            # a vector is not a row
            K.affine(K.constant([1.0, 2.0]), p("W", np.eye(2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        W = p("W", rng.standard_normal((4, 3)))
        b = p("b", rng.standard_normal(4))
        x = p("x", rng.standard_normal((1, 3)))
        weights = K.constant(rng.standard_normal(4))

        def fn():
            return K.dotp(weights, first_row(K.affine(x, W, b)))

        assert K.grad_check(fn, [W, b, x], h=1e-5) <= 1e-4


class TestNonlinearities:
    def test_tanh_zero(self):
        assert tanh_(K.constant([0.0])).data[0] == 0.0

    def test_sigmoid_zero(self):
        assert sigmoid_(K.constant([0.0])).data[0] == 0.5

    def test_leaky_relu_negative_slope(self):
        out = K.leaky_relu(K.constant([-1.0]))
        assert out.data[0] == pytest.approx(-0.01)

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "leaky_relu"])
    def test_backward(self, kind):
        x = p("x", np.random.default_rng(1).standard_normal(6))
        w = K.constant(np.random.default_rng(2).standard_normal(6))

        def fn():
            return K.dotp(w, NONLINEARITIES[kind](x))

        assert K.grad_check(fn, [x]) <= 1e-4


class TestSoftmax:
    def test_constant_vector_is_uniform(self):
        out = K.softmax_values(np.array([7.0, 7.0, 7.0, 7.0]))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_singleton(self):
        assert K.softmax_values(np.array([123.0]))[0] == 1.0

    def test_large_inputs_do_not_overflow(self):
        out = K.softmax_values(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_positive(self, values):
        out = K.softmax_values(np.array(values))
        assert abs(out.sum() - 1.0) <= 1e-9
        assert (out > 0).all()

    def test_backward(self):
        x = p("x", np.random.default_rng(3).standard_normal(5))
        w = K.constant(np.random.default_rng(4).standard_normal(5))
        assert K.grad_check(lambda: K.dotp(w, softmax(x)), [x]) <= 1e-4


class TestCrossEntropy:
    def test_onehot_target_is_near_zero(self):
        logits = K.constant([[0.0, 1000.0, 0.0]])   # softmax is exactly one-hot
        assert abs(K.cross_entropy(logits, np.array([1])).data[0]) <= 1e-11

    def test_uniform_is_log_k(self):
        dist = K.constant([[0.25] * 4])
        assert float(K.cross_entropy(dist, np.array([2])).data[0]) == pytest.approx(
            math.log(4), abs=1e-9)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            K.cross_entropy(K.constant([[1.0]]), np.array([3]))

    def test_fused_softmax_gradient_identity(self):
        # d(-log softmax(x)[i])/dx == softmax(x) - onehot(i)
        rng = np.random.default_rng(5)
        x = p("x", rng.standard_normal((1, 7)))
        K.zero_grads([x])
        K.backward(K.cross_entropy(x, np.array([3])))
        expected = np.exp(x.data[0] - x.data.max())
        expected /= expected.sum()
        expected[3] -= 1.0
        np.testing.assert_allclose(x.grad[0], expected, atol=1e-10)

    def test_plain_distribution_backward(self):
        # the logits of a plain distribution go through the one log-softmax path
        logits = p("d", [[0.2, 0.3, 0.5]])
        assert K.grad_check(lambda: first_row(K.cross_entropy(logits, np.array([2]))),
                            [logits]) <= 1e-4


class TestLogprob:
    def test_exp_of_logprob_at_most_one(self):
        assert math.exp(float(logprob(K.constant([[5.0]]), np.array([0])).data[0])) <= 1.0

    def test_matches_log_of_probability(self):
        logits = K.constant([[0.3, -0.2, 1.4]])
        lp = logprob(logits, np.array([2]))
        assert float(lp.data[0]) == pytest.approx(math.log(K.softmax_values(logits.data)[0, 2]))


class TestLstmCell:
    def make(self, rng, input_size=5, hidden=4):
        return K.init_lstm(rng, "lstm", input_size, hidden)

    def test_zero_weights_and_inputs_give_zero_state(self):
        params = K.LstmParams(
            W_x=p("W_x", np.zeros((16, 5))),
            W_h=p("W_h", np.zeros((16, 4))),
            b=p("b", np.zeros(16)),
        )
        h, c = lstm_cell(K.constant(np.zeros((1, 5))), K.constant(np.zeros((1, 4))),
                         K.constant(np.zeros((1, 4))), params)
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))
        np.testing.assert_array_equal(c.data, np.zeros((1, 4)))

    def test_saturated_gates_carry_cell_state(self):
        # forget gate ~1 and input gate ~0 leave the cell state unchanged
        hidden = 3
        b = np.zeros(12)
        b[0:3] = -50.0   # input gate -> 0
        b[3:6] = 50.0    # forget gate -> 1
        params = K.LstmParams(
            W_x=p("W_x", np.zeros((12, 2))),
            W_h=p("W_h", np.zeros((12, 3))),
            b=p("b", b),
        )
        c_prev = np.array([[0.3, -0.8, 1.1]])
        _, c = lstm_cell(K.constant(np.zeros((1, 2))), K.constant(np.zeros((1, 3))),
                         K.constant(c_prev), params)
        np.testing.assert_allclose(c.data, c_prev, atol=1e-15)

    def test_is_the_gates_cell_of_its_affine_gates(self):
        rng = np.random.default_rng(5)
        params = self.make(rng)
        params.b.data[...] = rng.standard_normal(16)
        x, h0, c0 = (K.constant(rng.standard_normal((2, k))) for k in (5, 4, 4))
        gates = K.add(K.affine(x, params.W_x, params.b), K.affine(h0, params.W_h))
        for a, b in zip(lstm_cell(x, h0, c0, params), gates_cell(gates, c0)):
            np.testing.assert_array_equal(a.data, b.data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = self.make(rng)
        x = p("x", rng.standard_normal((1, 5)))
        h0 = p("h0", rng.standard_normal((1, 4)))
        c0 = p("c0", rng.standard_normal((1, 4)))
        w = K.constant(rng.standard_normal(4))

        def fn():
            h, c = lstm_cell(x, h0, c0, params)
            return K.add(K.dotp(w, first_row(h)), K.dotp(w, first_row(c)))

        checked = params.parameters() + [x, h0, c0]
        assert K.grad_check(fn, checked) <= 1e-4


class TestOptimizer:
    def test_zero_grad_is_identity(self):
        w = p("w", [1.0, 2.0])
        K.sgd_step([w], K.OptimState(learning_rate=0.5))
        np.testing.assert_array_equal(w.data, [1.0, 2.0])

    def test_sgd_arithmetic(self):
        w = p("w", [1.0])
        w.grad[:] = 0.5
        K.sgd_step([w], K.OptimState(learning_rate=0.1, clip_norm=None))
        assert w.data[0] == pytest.approx(0.95)

    def test_global_norm_clipping_halves_grads(self):
        w1 = p("w1", np.zeros(2))
        w2 = p("w2", np.zeros(1))
        w1.grad[:] = [6.0, 0.0]
        w2.grad[:] = 8.0   # global norm 10
        K.sgd_step([w1, w2], K.OptimState(learning_rate=0.0001, clip_norm=5.0))
        np.testing.assert_allclose(w1.grad, [3.0, 0.0])
        np.testing.assert_allclose(w2.grad, [4.0])

    def test_grads_left_intact_until_zeroed(self):
        w = p("w", [1.0])
        w.grad[:] = 2.0
        K.sgd_step([w], K.OptimState(learning_rate=0.1, clip_norm=None))
        assert w.grad[0] == 2.0
        K.zero_grads([w])
        assert w.grad[0] == 0.0

    def test_adam_moves_against_gradient(self):
        w = p("w", [1.0])
        w.grad[:] = 0.5
        K.sgd_step([w], K.OptimState(learning_rate=0.1, clip_norm=None, variant="adam"))
        assert w.data[0] < 1.0

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            K.OptimState(learning_rate=0.0)

    def test_adam_in_place_equals_the_moment_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        w = p("w", rng.standard_normal((3, 4)))
        opt = K.OptimState(learning_rate=0.003, clip_norm=None, variant="adam")
        data, m, v = w.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 6):
            g = rng.standard_normal((3, 4))
            w.grad[...] = g
            K.sgd_step([w], opt)
            m = K.ADAM_BETA1 * m + (1.0 - K.ADAM_BETA1) * g
            v = K.ADAM_BETA2 * v + (1.0 - K.ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - K.ADAM_BETA1 ** t)
            v_hat = v / (1.0 - K.ADAM_BETA2 ** t)
            data -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + K.ADAM_EPS)
            np.testing.assert_array_equal(w.data, data)
            np.testing.assert_array_equal(opt.slots["w"]["m"], m)
            np.testing.assert_array_equal(opt.slots["w"]["v"], v)


class TestGradCheck:
    def test_linear_function_is_nearly_exact(self):
        rng = np.random.default_rng(7)
        w = p("w", rng.standard_normal(5))
        direction = K.constant(rng.standard_normal(5))
        assert K.grad_check(lambda: K.dotp(direction, w), [w]) <= 1e-9

    def test_subsampling_is_seeded(self):
        rng = np.random.default_rng(8)
        w = p("w", rng.standard_normal(500))
        direction = K.constant(rng.standard_normal(500))

        def fn():
            return K.dotp(direction, tanh_(w))

        a = K.grad_check(fn, [w], max_coords=50, seed=3)
        b = K.grad_check(fn, [w], max_coords=50, seed=3)
        assert a == b


class TestGradScale:
    def test_forward_is_identity(self):
        x = p("x", [1.5, -2.0, 0.25])
        np.testing.assert_array_equal(K.grad_scale(x, 0.3).data, x.data)

    def test_unit_scale_passes_gradcheck(self):
        rng = np.random.default_rng(11)
        x = p("x", rng.standard_normal(5))
        w = K.constant(rng.standard_normal(5))

        def fn():
            return K.dotp(w, tanh_(K.grad_scale(tanh_(x), 1.0)))

        assert K.grad_check(fn, [x]) <= 1e-4

    def test_backward_multiplies_gradient(self):
        rng = np.random.default_rng(12)
        x = p("x", rng.standard_normal(4))
        w = K.constant(rng.standard_normal(4))
        grads = {}
        for c in (1.0, 0.25):
            K.zero_grads([x])
            K.backward(K.dotp(w, tanh_(K.grad_scale(tanh_(x), c))))
            grads[c] = x.grad.copy()
        np.testing.assert_allclose(grads[0.25], 0.25 * grads[1.0], rtol=1e-15, atol=0)

    def test_zero_scale_blocks_gradient(self):
        x = p("x", [1.0, -3.0])
        y = p("y", [2.0, 5.0])
        K.zero_grads([x, y])
        K.backward(K.add(K.sumsq(K.grad_scale(x, 0.0)), K.sumsq(y)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])
        np.testing.assert_array_equal(y.grad, [4.0, 10.0])


class TestGraphMachinery:
    def test_shared_subgraph_accumulates(self):
        x = p("x", [2.0])
        y = mul(x, x)  # x^2, dy/dx = 2x = 4
        K.zero_grads([x])
        K.backward(y)
        assert x.grad[0] == pytest.approx(4.0)

    def test_backward_accumulates_across_calls(self):
        x = p("x", [3.0])
        K.zero_grads([x])
        K.backward(K.scale(x, 2.0))
        K.backward(K.scale(x, 5.0))
        assert x.grad[0] == pytest.approx(7.0)

    def test_no_grad_blocks_recording(self):
        x = p("x", [1.0])
        with K.no_grad():
            y = K.scale(x, 3.0)
        assert y.parents == ()
        assert y.backward_fn is None

    def test_forward_values_finite(self):
        rng = np.random.default_rng(9)
        x = K.constant(rng.standard_normal((1, 8)))
        W = p("W", rng.standard_normal((8, 8)))
        out = softmax(tanh_(K.affine(x, W)))
        assert np.isfinite(out.data).all()

    def test_concat_slice_roundtrip_gradient(self):
        a = p("a", [[1.0, 2.0]])
        b = p("b", [[3.0]])
        joined = K.concat([a, b])
        piece = vslice(joined, 1, 3)
        w = K.constant([1.0, 10.0])
        K.zero_grads([a, b])
        K.backward(K.dotp(w, first_row(piece)))
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[10.0]])


def test_identical_seeds_give_bit_identical_updates():
    def run():
        rng = np.random.default_rng(42)
        w = p("w", rng.standard_normal((4, 4)))
        opt = K.OptimState(learning_rate=0.05)
        for _ in range(5):
            x = K.constant(rng.standard_normal((1, 4)))
            loss = K.sumsq(tanh_(K.affine(x, w)))
            K.zero_grads([w])
            K.backward(loss)
            K.sgd_step([w], opt)
        return w.data.copy()

    first, second = run(), run()
    assert (first == second).all()


# ---------------------------------------------------------------------------
# fused ops against the composites they replaced


def seed_lstm_cell(x, h_prev, c_prev, params):
    """The LSTM step as the composite of primitive nodes it used to be."""
    z = params.hidden_size
    gates = K.add(K.affine(x, params.W_x, params.b), K.affine(h_prev, params.W_h))
    i = sigmoid_(vslice(gates, 0, z))
    f = sigmoid_(vslice(gates, z, 2 * z))
    g = tanh_(vslice(gates, 2 * z, 3 * z))
    o = sigmoid_(vslice(gates, 3 * z, 4 * z))
    c = K.add(mul(f, c_prev), mul(i, g))
    return mul(o, tanh_(c)), c


def stack_scalars(nodes):
    out = np.array([float(n.data) for n in nodes])

    def bw(g, accum):
        for i, n in enumerate(nodes):
            accum(n, np.asarray(g[i]))

    return K.Tensor(out, tuple(nodes), bw, "stack")


def seed_attention(R, h_proj, w_a):
    """Per-region add/tanh/dot triples over the one-row (1, m, Z) regions R
    and (1, Z) h_proj, stacked and soft-maxed into an (m,) vector."""
    regions, h = first_row(R), first_row(h_proj)
    rows = [first_row(K.take_row(regions, np.array([i]))) for i in range(R.shape[1])]
    return softmax(stack_scalars(
        [K.dotp(w_a, tanh_(K.add(row, h))) for row in rows]))


def seed_project_rows(features, W):
    """One (1, Z) affine per region of one-row (1, m, E) features."""
    return [K.affine(K.constant(region[None]), W) for region in features[0]]


def forward_and_grads(fn, params):
    K.zero_grads(params)
    out = fn()
    K.backward(out)
    grads = [q.grad.copy() for q in params]
    K.zero_grads(params)
    return float(out.data), grads


def assert_same_function(fused, composite, params, tol=1e-12):
    value_f, grads_f = forward_and_grads(fused, params)
    value_c, grads_c = forward_and_grads(composite, params)
    assert abs(value_f - value_c) <= tol * max(1.0, abs(value_c))
    for q, a, b in zip(params, grads_f, grads_c):
        np.testing.assert_allclose(a, b, rtol=0, atol=tol, err_msg=q.name)


class TestFusedLstm:
    def make(self, seed, input_size=7, hidden=5):
        rng = np.random.default_rng(seed)
        params = K.init_lstm(rng, "lstm", input_size, hidden, bound=0.8)
        params.b.data[...] = rng.standard_normal(4 * hidden)
        x = p("x", rng.standard_normal((1, input_size)))
        h0 = p("h0", rng.standard_normal((1, hidden)))
        c0 = p("c0", rng.standard_normal((1, hidden)))
        wh = K.constant(rng.standard_normal(hidden))
        wc = K.constant(rng.standard_normal(hidden))
        return params, x, h0, c0, wh, wc

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_composite(self, seed):
        params, x, h0, c0, wh, wc = self.make(seed)

        def loss(cell):
            def fn():
                h, c = cell(x, h0, c0, params)
                # two chained steps so the state views feed a second cell
                h2, c2 = cell(h, h, c, K.LstmParams(
                    W_x=params.W_h, W_h=params.W_h, b=params.b))
                return add_n([K.dotp(wh, first_row(h2)), K.dotp(wc, first_row(c2)),
                              K.dotp(wc, first_row(c))])
            return fn

        checked = params.parameters() + [x, h0, c0]
        assert_same_function(loss(lstm_cell), loss(seed_lstm_cell), checked)

    def test_forward_values_match_composite(self):
        params, x, h0, c0, _, _ = self.make(11)
        h, c = lstm_cell(x, h0, c0, params)
        h_ref, c_ref = seed_lstm_cell(x, h0, c0, params)
        np.testing.assert_allclose(h.data, h_ref.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c.data, c_ref.data, rtol=0, atol=1e-12)

    def test_grad_check(self):
        params, x, h0, c0, wh, wc = self.make(12)

        def fn():
            h, c = lstm_cell(x, h0, c0, params)
            return K.add(K.dotp(wh, first_row(h)), K.dotp(wc, first_row(c)))

        assert K.grad_check(fn, params.parameters() + [x, h0, c0]) <= 1e-4

    def test_bad_shapes(self):
        params, x, h0, c0, _, _ = self.make(13)
        with pytest.raises(K.ShapeError):
            lstm_cell(K.constant(np.zeros((1, 3))), h0, c0, params)
        with pytest.raises(K.ShapeError):
            lstm_cell(x, K.constant(np.zeros((1, 4))), c0, params)
        with pytest.raises(K.ShapeError):            # vectors are not rows
            lstm_cell(first_row(x), first_row(h0), first_row(c0), params)
        with pytest.raises(K.ShapeError):
            lstm_cell(x, h0, K.constant(np.zeros((5, 1))), params)


class TestFusedAttention:
    def make(self, seed, m=6, z=5):
        rng = np.random.default_rng(seed)
        R = p("R", rng.standard_normal((1, m, z)))
        h_proj = p("h", rng.standard_normal((1, z)))
        w_a = p("w_a", rng.standard_normal(z))
        w = K.constant(rng.standard_normal(m))
        return R, h_proj, w_a, w

    @pytest.mark.parametrize("seed,m", [(0, 1), (1, 2), (2, 6), (3, 8), (4, 8)])
    def test_matches_composite(self, seed, m):
        R, h_proj, w_a, w = self.make(seed, m=m)
        fused = lambda: K.dotp(w, first_row(additive_attention(R, h_proj, w_a)))  # noqa: E731
        composite = lambda: K.dotp(w, seed_attention(R, h_proj, w_a))  # noqa: E731
        np.testing.assert_allclose(additive_attention(R, h_proj, w_a).data[0],
                                   seed_attention(R, h_proj, w_a).data, rtol=0, atol=1e-12)
        assert_same_function(fused, composite, [R, h_proj, w_a])

    def test_grad_check(self):
        R, h_proj, w_a, w = self.make(5)
        fn = lambda: K.dotp(w, first_row(additive_attention(R, h_proj, w_a)))  # noqa: E731
        assert K.grad_check(fn, [R, h_proj, w_a]) <= 1e-4

    def test_bad_shapes(self):
        R, h_proj, w_a, _ = self.make(6)
        with pytest.raises(K.ShapeError):
            additive_attention(h_proj, h_proj, w_a)
        with pytest.raises(K.ShapeError):
            additive_attention(K.constant(np.zeros((1, 0, 5))), h_proj, w_a)
        with pytest.raises(K.ShapeError):
            additive_attention(R, K.constant(np.zeros((1, 4))), w_a)
        with pytest.raises(K.ShapeError):
            additive_attention(R, h_proj, K.constant(np.zeros(6)))
        with pytest.raises(K.ShapeError):            # (m, Z) regions without the row axis
            additive_attention(first_row(R), first_row(h_proj), w_a)


class TestProjectRows:
    def make(self, seed, m=4, e=3, z=5):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((1, m, e)), p("W", rng.standard_normal((z, e))), \
            K.constant(rng.standard_normal((1, m, z)))

    def test_matches_per_row_affine(self):
        features, W, weights = self.make(0)
        out = project_rows(features, W)
        rows = seed_project_rows(features, W)
        np.testing.assert_allclose(out.data[0], np.concatenate([r.data for r in rows]),
                                   rtol=0, atol=1e-12)

        def fused():
            return K.sumsq(mul(weights, project_rows(features, W)))

        def composite():
            return add_n([K.sumsq(mul(K.constant(weights.data[0, i:i + 1]), r))
                          for i, r in enumerate(seed_project_rows(features, W))])

        assert_same_function(fused, composite, [W])

    def test_grad_check(self):
        features, W, weights = self.make(1)
        assert K.grad_check(lambda: K.sumsq(mul(weights, project_rows(features, W))),
                            [W]) <= 1e-4

    def test_bad_shapes(self):
        features, W, _ = self.make(2)
        with pytest.raises(K.ShapeError):            # (m, E) regions without the row axis
            project_rows(features[0], W)
        with pytest.raises(K.ShapeError):
            project_rows(np.zeros((1, 4, 2)), W)


# ---------------------------------------------------------------------------
# gradient accumulation


class TestGradientAccumulation:
    def test_contributions_of_several_nodes_add_up(self):
        rng = np.random.default_rng(20)
        W = p("W", rng.standard_normal((4, 3)))
        xs = [rng.standard_normal(3) for _ in range(3)]
        ws = [rng.standard_normal(4) for _ in range(3)]
        feats = rng.standard_normal((2, 3))
        fw = rng.standard_normal((2, 4))
        terms = [K.dotp(K.constant(w), first_row(K.affine(K.constant(x[None]), W)))
                 for w, x in zip(ws, xs)]
        terms.append(K.dotp(K.constant(ws[0][:3]), first_row(K.take_row(W, np.array([1])))))
        terms.append(K.sumsq(W))
        terms.append(K.sumsq(mul(K.constant(fw[None]), project_rows(feats[None], W))))
        K.zero_grads([W])
        K.backward(add_n(terms))
        expected = sum(np.outer(w, x) for w, x in zip(ws, xs))
        expected[1] += ws[0][:3]
        expected += 2.0 * W.data
        proj = feats @ W.data.T
        expected += sum(np.outer(2.0 * fw[i] * fw[i] * proj[i], feats[i]) for i in range(2))
        np.testing.assert_allclose(W.grad, expected, rtol=0, atol=1e-12)

    def test_backward_twice_accumulates(self):
        rng = np.random.default_rng(21)
        W = p("W", rng.standard_normal((3, 2)))
        b = p("b", rng.standard_normal(3))
        x1, x2 = rng.standard_normal(2), rng.standard_normal(2)
        w = rng.standard_normal(3)
        K.zero_grads([W, b])
        K.backward(K.dotp(K.constant(w), first_row(K.affine(K.constant(x1[None]), W, b))))
        K.backward(K.dotp(K.constant(w), first_row(K.affine(K.constant(x2[None]), W, b))))
        np.testing.assert_allclose(W.grad, np.outer(w, x1) + np.outer(w, x2),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, 2.0 * w, rtol=0, atol=1e-12)

    def test_computed_weight_passes_its_gradient_on(self):
        rng = np.random.default_rng(22)
        P_ = p("P", rng.standard_normal((3, 2)))
        x = rng.standard_normal(2)
        w = rng.standard_normal(3)
        W = K.scale(P_, 2.0)        # a computed, non-Parameter weight matrix
        K.zero_grads([P_])
        K.backward(K.dotp(K.constant(w), first_row(K.affine(K.constant(x[None]), W))))
        np.testing.assert_allclose(P_.grad, 2.0 * np.outer(w, x), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the leading row axis: every op on n rows against n one-row calls

N_ROWS = 3


def _rng_case(seed=30):
    return np.random.default_rng(seed)


def _case_affine(rng):
    W, b = p("W", rng.standard_normal((4, 5))), p("b", rng.standard_normal(4))
    return {"x": rng.standard_normal((N_ROWS, 5))}, [W, b], \
        lambda get, r: K.affine(get("x"), W, b)


def _case_lstm(rng):
    params = K.init_lstm(rng, "lstm", 6, 3, bound=0.8)
    params.b.data[...] = rng.standard_normal(12)
    inputs = {"x": rng.standard_normal((N_ROWS, 6)), "h": rng.standard_normal((N_ROWS, 3)),
              "c": rng.standard_normal((N_ROWS, 3))}

    def build(get, r):
        h, c = lstm_cell(get("x"), get("h"), get("c"), params)
        return K.concat([h, c])

    return inputs, params.parameters(), build


def _case_gates_cell(rng):
    inputs = {"g": 2.0 * rng.standard_normal((N_ROWS, 12)), "c": rng.standard_normal((N_ROWS, 3))}

    def build(get, r):
        h, c = gates_cell(get("g"), get("c"))
        return K.concat([h, c])

    return inputs, [], build


def _case_concat(rng):
    return {"a": rng.standard_normal((N_ROWS, 2)), "b": rng.standard_normal((N_ROWS, 3))}, [], \
        lambda get, r: K.concat([get("a"), get("b")])


def _case_vslice(rng):
    return {"x": rng.standard_normal((N_ROWS, 5))}, [], lambda get, r: vslice(get("x"), 1, 4)


def _case_take_row(rng):
    W = p("W", rng.standard_normal((7, 4)))
    rows = np.array([3, 0, 3])      # a repeated row accumulates both gradients
    return {}, [W], lambda get, r: K.take_row(W, rows if r is None else rows[r:r + 1])


def _case_attention(rng):
    w_a = p("w_a", rng.standard_normal(4))
    return {"R": rng.standard_normal((N_ROWS, 5, 4)), "h": rng.standard_normal((N_ROWS, 4))}, \
        [w_a], lambda get, r: additive_attention(get("R"), get("h"), w_a)


def _case_attend(rng):
    features = rng.standard_normal((N_ROWS, 4, 3))
    return {"a": rng.standard_normal((N_ROWS, 4))}, [], \
        lambda get, r: attend(get("a"), features if r is None else features[r:r + 1])


def _case_project_rows(rng):
    W = p("W", rng.standard_normal((5, 3)))
    features = rng.standard_normal((N_ROWS, 4, 3))
    return {}, [W], lambda get, r: project_rows(features if r is None else features[r:r + 1], W)


def _case_softmax(rng):
    return {"x": rng.standard_normal((N_ROWS, 6))}, [], lambda get, r: softmax(get("x"))


def _case_cross_entropy(rng):
    targets = np.array([1, 5, 0])
    return {"x": 2.0 * rng.standard_normal((N_ROWS, 6))}, [], \
        lambda get, r: K.cross_entropy(get("x"), targets if r is None else targets[r:r + 1])


def _case_logprob(rng):
    index = np.array([4, 4, 2])
    return {"x": 2.0 * rng.standard_normal((N_ROWS, 6))}, [], \
        lambda get, r: logprob(get("x"), index if r is None else index[r:r + 1])


ROW_CASES = {
    "affine": _case_affine, "lstm_cell": _case_lstm, "gates_cell": _case_gates_cell,
    "concat": _case_concat,
    "vslice": _case_vslice, "take_row": _case_take_row,
    "additive_attention": _case_attention, "attend": _case_attend,
    "project_rows": _case_project_rows, "softmax": _case_softmax,
    "cross_entropy": _case_cross_entropy, "logprob": _case_logprob,
}


def _reduce(out, w):
    """A scalar that depends nonlinearly on every output entry."""
    return K.sumsq(mul(K.constant(w), out))


class TestRowAxis:
    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_grad_check(self, name):
        rng = _rng_case()
        inputs, shared, build = ROW_CASES[name](rng)
        full = {k: p(k, v) for k, v in inputs.items()}
        out = build(full.get, None)
        assert out.shape[0] == N_ROWS
        w = rng.standard_normal(out.shape)
        err = K.grad_check(lambda: _reduce(build(full.get, None), w),
                           shared + list(full.values()))
        assert err <= 1e-4

    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_matches_vector_form_row_by_row(self, name):
        """The vector form of a row op is its one-row call: an n-row call
        equals n one-row calls, in values and in gradients."""
        rng = _rng_case(31)
        inputs, shared, build = ROW_CASES[name](rng)
        full = {k: p(k, v) for k, v in inputs.items()}
        out = build(full.get, None)
        w = rng.standard_normal(out.shape)
        K.zero_grads(shared + list(full.values()))
        K.backward(_reduce(out, w))
        batched = {q.name: q.grad.copy() for q in shared}
        K.zero_grads(shared)
        for r in range(N_ROWS):
            row = {k: p(k, v[r:r + 1]) for k, v in inputs.items()}
            out_r = build(row.get, r)
            assert out_r.shape == (1,) + out.shape[1:]
            np.testing.assert_allclose(out.data[r:r + 1], out_r.data, rtol=1e-12, atol=1e-15)
            K.backward(_reduce(out_r, w[r:r + 1]))    # accumulates the shared grads
            for k, q in row.items():
                np.testing.assert_allclose(full[k].grad[r:r + 1], q.grad, rtol=1e-12, atol=1e-15,
                                           err_msg=k)
        for q in shared:
            np.testing.assert_allclose(batched[q.name], q.grad, rtol=1e-12, atol=1e-15,
                                       err_msg=q.name)

    def test_weighted_sumsq_is_the_weighted_sum_of_row_norms(self):
        rng = _rng_case(32)
        x = p("x", rng.standard_normal((N_ROWS, 4)))
        weights = np.array([0.5, 0.0, 2.0])
        rows = [p(f"x{r}", x.data[r]) for r in range(N_ROWS)]
        assert_same_function(
            lambda: K.sumsq(x, weights),
            lambda: add_n([K.scale(K.sumsq(K.constant(x.data[r])), weights[r])
                           for r in range(N_ROWS)]), [])
        K.zero_grads([x] + rows)
        K.backward(K.sumsq(x, weights))
        for r, row in enumerate(rows):
            K.backward(K.scale(K.sumsq(row), weights[r]))
            np.testing.assert_allclose(x.grad[r], row.grad, rtol=1e-12, atol=0)
        assert (x.grad[1] == 0.0).all()
        assert K.grad_check(lambda: K.sumsq(x, weights), [x]) <= 1e-4
        with pytest.raises(K.ShapeError):
            K.sumsq(x, weights[:2])

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 3, 2)])
    def test_take_row_gathers_any_rank_and_repeats_accumulate(self, shape):
        rng = _rng_case(36)
        x = p("x", rng.standard_normal(shape))
        rows = np.array([4, 0, 4, 2, 4])          # row 4 three times, rows 1 and 3 never
        out = K.take_row(x, rows)
        np.testing.assert_array_equal(out.data, x.data[rows])
        w = rng.standard_normal(out.shape)
        K.zero_grads([x])
        K.backward(_reduce(out, w))
        expected = np.zeros(shape)
        for i, r in enumerate(rows):
            expected[r] += 2.0 * w[i] * w[i] * x.data[r]
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15, atol=0)
        assert (x.grad[[1, 3]] == 0.0).all()
        assert K.grad_check(lambda: _reduce(K.take_row(x, rows), w), [x]) <= 1e-4
        assert K.take_row(x, np.array([2])).shape == (1,) + shape[1:]

    @pytest.mark.parametrize("rows", [[0, 2, 3, 5], [5], [], [3, 1, 4], [4, 0, 4, 2, 4]])
    def test_take_row_scatter_equals_add_at_bit_for_bit(self, rows):
        # increasing rows scatter with +=, the others with np.add.at
        rng = _rng_case(37)
        x = p("x", rng.standard_normal((6, 3, 2)))
        index = np.array(rows, dtype=np.intp)
        out = K.take_row(x, index)
        g = rng.standard_normal(out.shape)
        g[..., 0] = -0.0                          # 0.0 + -0.0 is 0.0 on either path
        grads = []
        out.backward_fn(g, lambda node, grad: grads.append(grad))
        expected = np.zeros_like(x.data)
        np.add.at(expected, index, g)
        (got,) = grads
        assert got.tobytes() == expected.tobytes()

    def test_masked_regions_get_zero_weight_and_zero_gradient(self):
        rng = _rng_case(33)
        R = p("R", rng.standard_normal((2, 5, 4)))
        h = p("h", rng.standard_normal((2, 4)))
        w_a = p("w_a", rng.standard_normal(4))
        mask = np.array([[True, True, False, False, False], [True] * 5])
        attn = additive_attention(R, h, w_a, mask)
        assert (attn.data[0, 2:] == 0.0).all()
        w = rng.standard_normal(attn.shape)
        K.zero_grads([R, h, w_a])
        K.backward(_reduce(attn, w))
        assert (R.grad[0, 2:] == 0.0).all()
        # the real regions of row 0 are the one-row op on its two regions
        R0, h0 = p("R0", R.data[:1, :2]), p("h0", h.data[:1])
        attn0 = additive_attention(R0, h0, w_a)
        np.testing.assert_allclose(attn.data[:1, :2], attn0.data, rtol=1e-12, atol=0)
        K.backward(_reduce(attn0, w[:1, :2]))
        np.testing.assert_allclose(R.grad[:1, :2], R0.grad, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h.grad[:1], h0.grad, rtol=1e-12, atol=1e-15)
        assert K.grad_check(lambda: _reduce(additive_attention(R, h, w_a, mask), w),
                            [R, h, w_a]) <= 1e-4

    def test_zero_weighted_rows_get_zero_gradient(self):
        rng = _rng_case(34)
        logits = p("x", rng.standard_normal((N_ROWS, 5)))
        targets = np.array([2, 0, 4])
        K.zero_grads([logits])
        K.backward(K.add(K.dotp(K.cross_entropy(logits, targets), K.constant([1.5, 0.0, 0.0])),
                         K.dotp(logprob(logits, targets), K.constant([0.0, 0.0, -0.7]))))
        assert (logits.grad[1] == 0.0).all()
        assert (logits.grad[0] != 0.0).any() and (logits.grad[2] != 0.0).any()

    def test_bad_row_shapes(self):
        rng = _rng_case(35)
        W = p("W", rng.standard_normal((4, 3)))
        with pytest.raises(K.ShapeError):
            K.affine(K.constant(np.zeros((2, 2, 3))), W)
        with pytest.raises(K.ShapeError):
            K.concat([K.constant(np.zeros((2, 3))), K.constant(np.zeros((3, 3)))])
        with pytest.raises(K.ShapeError):
            K.take_row(W, np.array([[0, 1]]))
        with pytest.raises(K.ShapeError):
            K.take_row(K.constant(1.0), np.array([0]))
        for index in (1, [0, 1], np.array([0.0, 1.0])):      # only int vectors index
            with pytest.raises(K.ShapeError):
                K.take_row(W, index)
        with pytest.raises(K.ShapeError):
            K.cross_entropy(K.constant(np.zeros((2, 3))), 1)
        with pytest.raises(K.ShapeError):
            K.cross_entropy(K.constant(np.zeros(3)), np.array([1]))
        with pytest.raises(K.ShapeError):
            K.concat([K.constant(np.zeros(2)), K.constant(np.zeros(3))])
        with pytest.raises(IndexError):
            K.take_row(W, np.array([0, 4]))
        with pytest.raises(IndexError):
            K.cross_entropy(K.constant(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(K.ShapeError):
            logprob(K.constant(np.zeros((2, 3))), np.array([0, 1, 2]))
        with pytest.raises(K.ShapeError):
            attend(K.constant(np.zeros((2, 4))), np.zeros((3, 4, 5)))
        with pytest.raises(K.ShapeError):
            additive_attention(K.constant(np.zeros((2, 4, 3))), K.constant(np.zeros((2, 3))),
                               K.constant(np.zeros(3)),
                               np.ones((2, 5), dtype=bool))
        params = K.init_lstm(rng, "l", 3, 2)
        with pytest.raises(K.ShapeError):
            lstm_cell(K.constant(np.zeros((2, 3))), K.constant(np.zeros(2)),
                      K.constant(np.zeros(2)), params)
