"""Minimal reverse-mode differentiation kernel over float64 numpy arrays.

A ``Tensor`` node remembers its parents and a backward closure; there is no
general graph compiler. A training loss is the policy unroll's node, or
the ``add`` of it and the curiosity pass's node; each is one node over its
module's Parameters whose backward closure is that module's whole reverse
pass over plain arrays, so ``gradients`` walks the loss as a tree. The
general DAG walk (``backward`` over a topological order) and the
finite-difference ``grad_check`` live in the tests' ``oracles`` module,
beside the reference graphs they differentiate. Besides the engine
(``Tensor``, ``Parameter``, ``no_grad``, ``gradients``, ``add`` and
``sumsq``), this module holds the LSTM and additive-attention math as
plain-array forward/backward helpers (``lstm_cell_forward`` over
precomputed gates, ``attention_forward`` and their backward halves, which
return their gradients as arrays) and the optimizer. All math is 64-bit
so finite-difference checks are reliable.

The helpers take rows: an array with a leading row axis, one row per
sequence or state of a minibatch, so one sequence is one row.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

CE_EPSILON = 1e-12
LOGPROB_FLOOR = 1e-12
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


# ---------------------------------------------------------------------------
# gradients


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad[...] = 0.0


def gradients(loss: Tensor, params: Sequence[Parameter]) -> dict[str, np.ndarray]:
    """Zero the given params, backprop the loss, return copies of the grads.

    The loss is walked as a tree: ``accum(node, g)`` adds g to a Parameter's
    grad and otherwise runs the node's backward closure on g, once per path
    that reaches the node; a node without one (a leaf, or one made under
    no_grad) takes no gradient. A training loss is such a tree, the ``add``
    of the unroll's and the curiosity pass's nodes, which hand each
    Parameter its gradient directly.
    """
    zero_grads(params)

    def accum(node: Tensor, g: np.ndarray) -> None:
        if isinstance(node, Parameter):
            node.grad += g
        elif node.backward_fn is not None:
            node.backward_fn(g, accum)

    accum(loss, np.ones_like(loss.data))
    return {p.name: p.grad.copy() for p in params}


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def bw(g, accum):
        accum(a, g)
        accum(b, g)

    return Tensor(a.data + b.data, (a, b), bw, "add")


def check_index(index: np.ndarray, n: int, what: str) -> None:
    """A vector of ints, each in [0, n)."""
    if not isinstance(index, np.ndarray) or index.ndim != 1 or index.dtype.kind not in "iu":
        raise ShapeError(f"{what} expects a vector of ints, got {np.asarray(index).dtype}"
                         f"{np.shape(index)}")
    values = index.tolist()     # numpy's min/max cost ~5 us even on a one-word vector
    if values and (min(values) < 0 or max(values) >= n):
        raise IndexError(f"{what} index out of range [0, {n})")


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis via max subtraction, as plain arrays:
    what the decoders and samplers read as the next-word distribution."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


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
                      mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights a = softmax_i(w_a . tanh(R_i + h_proj)) over the
    regions R_i, per row of (n, m, Z) R and (n, Z) h_proj, with -inf scores
    where the boolean (n, m) mask is False, the padded regions; returns
    (a, t) with t the tanh that attention_backward reads."""
    t = np.tanh(R + h_proj[:, None, :])
    return softmax_values(np.where(mask, t @ w_a, -np.inf)), t


def attention_backward(w_a: np.ndarray, a: np.ndarray, t: np.ndarray,
                       g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Given g on the weights a, return the gradients (d_w_a, d_pre) on w_a
    and on the pre-tanh sums R_i + h_proj (h_proj's is d_pre's sum over the
    regions). Masked regions have a = 0, so their d_pre is exactly zero."""
    d_scores = a * (g - (g * a).sum(axis=-1, keepdims=True))
    return (d_scores.reshape(-1) @ t.reshape(-1, t.shape[-1]),
            d_scores[..., None] * w_a * (1.0 - t * t))


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
    sequence; returns (h, c, cache), the cache (c_prev, act, tanh(c)) being
    what lstm_cell_backward reads. act is one (n, 4Z) array in gate order:
    the sigmoid of the input, forget and output gates, and in the cell
    candidate's block, whose sigmoid nothing reads, its tanh."""
    z = gates.shape[-1] // 4
    act = 1.0 / (1.0 + np.exp(-gates))
    g = np.tanh(gates[:, 2 * z:3 * z], out=act[:, 2 * z:3 * z])
    c = act[:, z:2 * z] * c_prev + act[:, :z] * g
    tc = np.tanh(c)
    return act[:, 3 * z:] * tc, c, (c_prev, act, tc)


def lstm_cell_backward(cache: tuple, dh: np.ndarray,
                       dc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Given dh and dc on an lstm_cell_forward step's outputs, return the
    gradients (d_gates, dc_prev) on its inputs."""
    c_prev, act, tc = cache
    z = act.shape[-1] // 4
    i, f, g, o = act[:, :z], act[:, z:2 * z], act[:, 2 * z:3 * z], act[:, 3 * z:]
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
