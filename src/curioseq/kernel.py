"""Minimal reverse-mode differentiation kernel over float64 numpy arrays.

Every operation the curiosity networks need is implemented here with an
explicit forward value and a backward closure. There is no general graph
compiler: nodes simply remember their parents, and ``backward`` walks them
in reverse topological order. The LSTM and additive-attention math lives
once, in plain-array forward/backward helpers (``lstm_cell_forward`` over
precomputed gates, ``attention_forward`` and their backward halves) that
return their gradients as arrays; the policy step and the unroll's reverse
pass call them, and the policy's only graph node is the unroll's, whose
backward hands every policy Parameter its gradient. All math is 64-bit so
finite-difference checks are reliable.

The ops take rows: an array with a leading row axis, one row per sequence
or state of a minibatch, so one sequence is one row. Indices are int
vectors, one per row; ``take_row`` gathers along the leading row axis, and
``dotp`` and ``sumsq`` reduce per-row values to a scalar loss.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

CE_EPSILON = 1e-12
LOGPROB_FLOOR = 1e-12
DEFAULT_LEAKY_SLOPE = 0.01
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8    # the adaptive variant's decays and floor


class ShapeError(ValueError):
    """Raised when operand dimensions do not agree."""


_RECORDING = [True]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / reward paths)."""
    _RECORDING.append(False)
    try:
        yield
    finally:
        _RECORDING.pop()


class Tensor:
    """A float64 array node. Leaves carry data only; op outputs carry parents
    and a backward closure while recording is enabled."""

    __slots__ = ("data", "parents", "backward_fn", "op")

    def __init__(self, data, parents=(), backward_fn=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if _RECORDING[-1] and parents:
            self.parents = tuple(parents)
            self.backward_fn = backward_fn
        else:
            self.parents = ()
            self.backward_fn = None
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


class Parameter(Tensor):
    """A named leaf tensor with a persistently accumulated gradient."""

    __slots__ = ("grad", "name")

    def __init__(self, value, name: str):
        super().__init__(value, op="param")
        self.grad = np.zeros_like(self.data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def constant(x) -> Tensor:
    return Tensor(x)


# ---------------------------------------------------------------------------
# backward machinery


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, seed: float = 1.0) -> None:
    """Accumulate d(loss)/d(param) into every reachable Parameter's grad.

    Backward closures hand each gradient to ``accum(node, g)``: a Parameter
    adds g to its grad at once, and any other node sums its gradients until
    the walk reaches it.
    """
    grads: dict[int, np.ndarray] = {}

    def accum(node: Tensor, g: np.ndarray) -> None:
        if isinstance(node, Parameter):
            node.grad += g
            return
        if node.backward_fn is None:
            return
        key = id(node)
        prev = grads.get(key)
        grads[key] = g if prev is None else prev + g

    accum(loss, np.full_like(loss.data, seed))
    for node in reversed(_toposort(loss)):
        g = grads.pop(id(node), None)
        if g is not None:
            node.backward_fn(g, accum)


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad[...] = 0.0


def gradients(loss: Tensor, params: Sequence[Parameter]) -> dict[str, np.ndarray]:
    """Zero the given params, backprop the loss, return copies of the grads."""
    zero_grads(params)
    backward(loss)
    return {p.name: p.grad.copy() for p in params}


# ---------------------------------------------------------------------------
# primitives


def affine(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """x W^T (+ b) for each row of an (n, in) matrix x."""
    if W.data.ndim != 2 or x.data.ndim != 2:
        raise ShapeError(f"affine expects a matrix and rows, got {W.shape} and {x.shape}")
    if W.data.shape[1] != x.data.shape[-1]:
        raise ShapeError(f"affine inner dimensions differ: {W.shape} vs {x.shape}")
    out = x.data @ W.data.T
    if b is not None:
        if b.data.shape != out.shape[-1:]:
            raise ShapeError(f"affine bias shape {b.shape} does not match output {out.shape}")
        out = out + b.data

    def bw(g, accum):
        accum(W, g.T @ x.data)
        accum(x, g @ W.data)
        if b is not None:
            accum(b, g.sum(axis=0))

    parents = (x, W) if b is None else (x, W, b)
    return Tensor(out, parents, bw, "affine")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def bw(g, accum):
        accum(a, g)
        accum(b, g)

    return Tensor(a.data + b.data, (a, b), bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")

    def bw(g, accum):
        accum(a, g)
        accum(b, -g)

    return Tensor(a.data - b.data, (a, b), bw, "sub")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g, accum):
        accum(a, g * c)

    return Tensor(a.data * c, (a,), bw, "scale")


def grad_scale(x: Tensor, c: float) -> Tensor:
    """The identity in the forward pass; multiplies the gradient by c in the
    backward pass. Weights one consumer's gradient into a shared node."""
    c = float(c)

    def bw(g, accum):
        accum(x, g * c)

    return Tensor(x.data, (x,), bw, "grad_scale")


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join matrices of equal row count along their columns."""
    n = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != n:
            raise ShapeError("concat expects matrices with equal row counts")
    sizes = [p.data.shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)

    def bw(g, accum):
        off = 0
        for p, k in zip(parts, sizes):
            accum(p, g[:, off:off + k])
            off += k

    return Tensor(out, tuple(parts), bw, "concat")


def check_index(index: np.ndarray, n: int, what: str) -> None:
    """A vector of ints, each in [0, n)."""
    if not isinstance(index, np.ndarray) or index.ndim != 1 or index.dtype.kind not in "iu":
        raise ShapeError(f"{what} expects a vector of ints, got {np.asarray(index).dtype}"
                         f"{np.shape(index)}")
    values = index.tolist()     # numpy's min/max cost ~5 us even on a one-word vector
    if values and (min(values) < 0 or max(values) >= n):
        raise IndexError(f"{what} index out of range [0, {n})")


def take_row(W: Tensor, index: np.ndarray) -> Tensor:
    """Gather along axis 0 of an array of any rank: the n slices W[index[i]]
    stacked for a vector of n indices. The backward pass scatters into
    zeros, adding up the gradients of a repeated index. It is the embedding
    lookup, and it pairs the curiosity pass's state rows."""
    if W.data.ndim < 1:
        raise ShapeError("take_row expects an array with at least one axis")
    check_index(index, W.data.shape[0], "take_row")
    out = W.data[index]         # advanced indexing copies

    def bw(g, accum):
        full = np.zeros_like(W.data)
        if (index[1:] > index[:-1]).all():
            full[index] += g    # no index repeats: the same sums as np.add.at, faster
        else:
            np.add.at(full, index, g)
        accum(W, full)

    return Tensor(out, (W,), bw, "take_row")


def leaky_relu(x: Tensor, slope: float = DEFAULT_LEAKY_SLOPE) -> Tensor:
    factor = np.where(x.data > 0, 1.0, slope)
    y = x.data * factor

    def bw(g, accum):
        accum(x, g * factor)

    return Tensor(y, (x,), bw, "leaky_relu")


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis via max subtraction, as plain arrays:
    what the decoders and samplers read as the next-word distribution."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dotp(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape or a.data.ndim != 1:
        raise ShapeError(f"dotp expects equal vectors, got {a.shape} and {b.shape}")
    out = np.dot(a.data, b.data)

    def bw(g, accum):
        accum(a, g * b.data)
        accum(b, g * a.data)

    return Tensor(out, (a, b), bw, "dot")


def sumsq(x: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """Sum of squares of all entries; with one weight per row of a matrix x,
    the weighted sum of the rows' squared norms."""
    if weights is None:
        out = np.dot(x.data.ravel(), x.data.ravel())
        factor = 2.0
    else:
        if x.data.ndim != 2 or np.shape(weights) != x.data.shape[:1]:
            raise ShapeError(f"sumsq weights {np.shape(weights)} do not match rows of {x.shape}")
        out = np.dot(weights, np.einsum("ij,ij->i", x.data, x.data))
        factor = 2.0 * np.asarray(weights)[:, None]

    def bw(g, accum):
        accum(x, factor * g * x.data)

    return Tensor(out, (x,), bw, "sumsq")


def attend_values(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """features[r].T @ weights[r] per row r of (n, m, E) features and (n, m)
    weights."""
    return np.matmul(weights[:, None, :], features)[:, 0, :]


def attend_grad(features: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The attention-weight gradient of attend_values, given g on its output."""
    return np.matmul(features, g[:, :, None])[:, :, 0]


def attention_forward(R: np.ndarray, h_proj: np.ndarray, w_a: np.ndarray,
                      mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights a = softmax_i(w_a . tanh(R_i + h_proj)) over the
    regions R_i, per row of (n, m, Z) R and (n, Z) h_proj, -inf scores where
    a boolean (n, m) mask is False; returns (a, t) with t the tanh that
    attention_backward reads."""
    t = np.tanh(R + h_proj[:, None, :])
    scores = t @ w_a
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    return softmax_values(scores), t


def attention_backward(w_a: np.ndarray, a: np.ndarray, t: np.ndarray,
                       g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Given g on the weights a, return the gradients (d_w_a, d_pre) on w_a
    and on the pre-tanh sums R_i + h_proj (h_proj's is d_pre's sum over the
    regions). Masked regions have a = 0, so their d_pre is exactly zero."""
    d_scores = a * (g - (g * a).sum(axis=-1, keepdims=True))
    return (d_scores.reshape(-1) @ t.reshape(-1, t.shape[-1]),
            d_scores[..., None] * w_a * (1.0 - t * t))


def _picked(logits: Tensor, index: np.ndarray) -> tuple:
    """Index tuple (arange(n), index) of the chosen entry per row, for (n, D)
    logits and n ints."""
    check_index(index, logits.data.shape[-1], "log-softmax")
    if logits.data.ndim != 2 or index.shape != logits.data.shape[:1]:
        raise ShapeError(f"indices {index.shape} do not match logits {logits.shape}")
    return np.arange(len(index)), index


def cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """-log(softmax(logits)[target] + eps), one value per row of (n, D)
    logits for n targets. The backward pass is softmax(logits) -
    onehot(target)."""
    at = _picked(logits, target)
    p = softmax_values(logits.data)
    out = -np.log(p[at] + CE_EPSILON)

    def bw(g, accum):
        delta = p.copy()
        delta[at] -= 1.0
        accum(logits, g[:, None] * delta)

    return Tensor(out, (logits,), bw, "cross_entropy")


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmParams:
    """Gate weights for one LSTM cell. Gate order in the stacked arrays is
    input, forget, cell candidate, output."""

    W_x: Parameter  # (4Z, input)
    W_h: Parameter  # (4Z, Z)
    b: Parameter    # (4Z,)

    @property
    def hidden_size(self) -> int:
        return self.W_h.data.shape[1]

    def parameters(self) -> list[Parameter]:
        return [self.W_x, self.W_h, self.b]


def init_lstm(rng: np.random.Generator, name: str, input_size: int, hidden: int,
              bound: float = 0.08) -> LstmParams:
    return LstmParams(
        W_x=Parameter(rng.uniform(-bound, bound, (4 * hidden, input_size)), f"{name}.W_x"),
        W_h=Parameter(rng.uniform(-bound, bound, (4 * hidden, hidden)), f"{name}.W_h"),
        b=Parameter(np.zeros(4 * hidden), f"{name}.b"),
    )


def lstm_cell_forward(gates: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The LSTM cell over its (n, 4Z) pre-activation gates, a row per
    sequence; returns (h, c, cache), the cache being what
    lstm_cell_backward reads."""
    z = gates.shape[-1] // 4
    sig = 1.0 / (1.0 + np.exp(-gates))     # the input, forget and output gates
    i, f, o = sig[:, :z], sig[:, z:2 * z], sig[:, 3 * z:]
    g = np.tanh(gates[:, 2 * z:3 * z])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (c_prev, i, f, o, g, tc)


def lstm_cell_backward(cache: tuple, dh: np.ndarray,
                       dc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Given dh and dc on an lstm_cell_forward step's outputs, return the
    gradients (d_gates, dc_prev) on its inputs."""
    c_prev, i, f, o, g, tc = cache
    dc = dc + dh * o * (1.0 - tc * tc)
    d_gates = np.concatenate([
        dc * g * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        dc * i * (1.0 - g * g),
        dh * tc * o * (1.0 - o),
    ], axis=-1)
    return d_gates, dc * f


# ---------------------------------------------------------------------------
# initialization helpers


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...], name: str) -> Parameter:
    fan_out, fan_in = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Parameter(rng.uniform(-bound, bound, shape), name)


def zeros_param(shape: tuple[int, ...], name: str) -> Parameter:
    return Parameter(np.zeros(shape), name)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimState:
    """Learning-rate, clipping and (for the adaptive variant) moment slots."""

    learning_rate: float
    clip_norm: float | None = 5.0
    variant: str = "sgd"
    slots: dict = field(default_factory=dict)
    step_count: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip norm must be positive or None")
        if self.variant not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer variant {self.variant!r}")


def global_grad_norm(params: Iterable[Parameter]) -> float:
    total = 0.0
    for p in params:
        total += float(np.dot(p.grad.ravel(), p.grad.ravel()))
    return math.sqrt(total)


def sgd_step(params: Sequence[Parameter], opt: OptimState) -> None:
    """Clip the global gradient norm, then apply one descent step.

    Clipping rescales the stored grads in place; grads are otherwise left
    intact until zero_grads is called.
    """
    if opt.clip_norm is not None:
        norm = global_grad_norm(params)
        if norm > opt.clip_norm:
            factor = opt.clip_norm / norm
            for p in params:
                p.grad *= factor
    opt.step_count += 1
    if opt.variant == "sgd":
        for p in params:
            p.data -= opt.learning_rate * p.grad
        return
    # adaptive first/second-moment variant
    t = opt.step_count
    for p in params:
        slot = opt.slots.get(p.name)
        if slot is None:
            slot = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
            opt.slots[p.name] = slot
        # in place, with the operations and their order of
        #   m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) (g g),
        #   data -= lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
        m, v = slot["m"], slot["v"]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * p.grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (p.grad * p.grad)
        step = m / (1.0 - ADAM_BETA1 ** t)
        step *= opt.learning_rate
        denom = np.sqrt(v / (1.0 - ADAM_BETA2 ** t))
        denom += ADAM_EPS
        step /= denom
        p.data -= step


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(fn: Callable[[], Tensor], params: Sequence[Parameter],
               h: float = 1e-5, max_coords: int = 200, seed: int = 0,
               floor: float = 1e-2) -> float:
    """Compare analytic gradients of a deterministic scalar fn against central
    finite differences. Returns the max relative error over checked coords.

    The error for one coordinate is |analytic - numeric| / max(|analytic|,
    |numeric|, floor); with floor 1e-2 a 1e-4 threshold corresponds to an
    absolute floor of 1e-6. Tensors with more than max_coords entries are
    subsampled with a seeded RNG.
    """
    zero_grads(params)
    backward(fn())
    analytic = {p.name: p.grad.copy() for p in params}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        ga = analytic[p.name].reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = range(n)
        else:
            coords = sorted(rng.choice(n, size=max_coords, replace=False).tolist())
        for i in coords:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                f_plus = float(fn().data)
                flat[i] = orig - h
                f_minus = float(fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = ga[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            if err > worst:
                worst = err
    zero_grads(params)
    return worst
