"""Reference decoders, scorers and graph ops that the tests compare
curioseq's row paths against.

The graph engine is here, not in the program: `backward` walks any graph
of `kernel.Tensor` nodes in reverse topological order (`_toposort`),
summing a shared node's gradients before it runs its closure, `gradients`
is `kernel.gradients` over that walk, and `grad_check` compares a
function's `backward` gradients with central finite differences. The
program's losses are trees of nodes that hand their Parameters gradients
directly, which `kernel.gradients` walks as such; the reference graphs
below share nodes, so they are differentiated here.

The graph ops (`constant`, `affine`, `sub`, `scale`, `grad_scale`,
`concat`, `take_row`, `leaky_relu`, `dotp` and `cross_entropy`) are nodes
over `kernel.Tensor` with a backward closure each; `grad_check` checks
each one, and the references below are built from them.

Like the program, every op here takes rows, one per sequence; a scene is
one row of `policy.project_batch`, and `first_row` drops the row axis of a
one-row node.

`composite_policy_step` is the attention-LSTM step as a graph of
single-purpose ops (`vslice`, `lstm_cell`, `gates_cell`,
`additive_attention`, `attend`, defined here over the kernel's plain-array
helpers, whose returned gradients their backward closures hand on through
`accum(node, g)`; `lstm_cell` computes its gates as `policy.policy_step`
computes the language LSTM's) that computes what the plain-array
`policy.policy_step` computes, bit for bit. It reads a `term_batch` scene:
the arrays of a `policy.project_batch` scene made again as graph nodes, the
regions by `project_rows` and the visual LSTM's hoisted gate terms by
`visual_gate_terms`, whose backward closures take W_v, W_e and the visual
LSTM's part of the gradient that `policy.RowUnroll.loss` hands them itself.
`unhoisted_policy_step` is the same step with the visual LSTM's whole
input [s_lang, W_v mean(v), W_e word] multiplied by its W_x at every step,
as it was before those terms were hoisted, over an `unhoisted_batch` scene
that `policy.project_batch` has no part in. These two graphs are the
gradient references of the one node `policy.RowUnroll.loss` records, the
policy's only backward. `row_steps` is the references' own loop over
either of them, apart from the `policy.unroll` they check.
`forced_unroll` is the teacher-forced unroll of one scene as one row, which
`sequence_log_prob`, `forced_trace` and `rl_surrogate` (the per-scene
log-prob graph of the policy-gradient loss) read. `one_row_sample` is the
sampler that stepped one scene at a time, and `per_hypothesis_beam` is the
beam search that stepped each live hypothesis on its own, as one row of
the plain-array `policy.policy_step`, and sorted all width x vocab
candidates. `stepwise_argmax` is greedy decoding as its own argmax loop,
apart from the search that `policy.rollout_greedy` runs at width 1.
`padded_sample_rows` and `padded_score_rows` are the two
row unrolls that a train step ran before `policy.unroll_rows` joined them:
a graph-less sampler and a recorded teacher-forced scorer with a `logprob`
node, each stepping every row, finished or not, until its longest row
ended. `policy.unroll_rows`, `policy.rollout_sample`,
`policy.rollout_greedy` and `policy.beam_search` must agree with them.
`sp_targets` gives the frozen next-state targets that finite-difference the
curiosity state predictor. `graph_curiosity_pass` is the curiosity pass as
a graph of those ops (`embed_state`, `predict_next_state` and
`predict_action` are its pieces), with `grad_scale(phi, beta)` and
`grad_scale(phi, alpha)` weighting the two predictors' gradients into the
shared embedding; `graph_curiosity_loss` sums the terms whose weight is
> 0. The node of `curiosity.curiosity_pass` must equal it bit for bit.

`RolloutTrace` is the per-episode record that the samplers here return;
`stack` and `unstack` turn traces into the rows of a `policy.Episodes` and
back. `per_episode_assembly` is the loop that built each sampled episode's
Q, advantage and log-prob weights one at a time, which the (B, T) assembly
of `trainer.train_step` must equal exactly.

`bleu`, `cider_single`, `cider` and `scored_reward` are the scorers that
counted every candidate and reference n-gram again at each call, before
`metrics.reference_stats` counted a scene's references once; the
statistics-based scorers must equal them exactly.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from curioseq import curiosity as C
from curioseq import kernel as K
from curioseq import policy as P
from curioseq import rewards as R
from curioseq.metrics import MAX_NGRAM, IdfTable, References, TokenSeq
from curioseq.vocab import BOS_ID, EOS_ID


# ---------------------------------------------------------------------------
# graph engine


def _toposort(root: K.Tensor) -> list[K.Tensor]:
    order: list[K.Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[K.Tensor, bool]] = [(root, False)]
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


def backward(loss: K.Tensor, seed: float = 1.0) -> None:
    """Accumulate d(loss)/d(param) into every reachable Parameter's grad.

    Backward closures hand each gradient to ``accum(node, g)``: a Parameter
    adds g to its grad at once, and any other node sums its gradients until
    the walk reaches it.
    """
    grads: dict[int, np.ndarray] = {}

    def accum(node: K.Tensor, g: np.ndarray) -> None:
        if isinstance(node, K.Parameter):
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


def gradients(loss: K.Tensor, params: Sequence[K.Parameter]) -> dict[str, np.ndarray]:
    """Zero the given params, backprop the loss, return copies of the grads."""
    K.zero_grads(params)
    backward(loss)
    return {p.name: p.grad.copy() for p in params}


def grad_check(fn: Callable[[], K.Tensor], params: Sequence[K.Parameter],
               h: float = 1e-5, max_coords: int = 200, seed: int = 0,
               floor: float = 1e-2) -> float:
    """Compare analytic gradients of a deterministic scalar fn against central
    finite differences. Returns the max relative error over checked coords.

    The error for one coordinate is |analytic - numeric| / max(|analytic|,
    |numeric|, floor); with floor 1e-2 a 1e-4 threshold corresponds to an
    absolute floor of 1e-6. Tensors with more than max_coords entries are
    subsampled with a seeded RNG.
    """
    K.zero_grads(params)
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
            with K.no_grad():
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
    K.zero_grads(params)
    return worst


# ---------------------------------------------------------------------------
# graph ops


def constant(x):
    return K.Tensor(x)


def affine(x, W, b=None):
    """x W^T (+ b) for each row of an (n, in) matrix x."""
    if W.data.ndim != 2 or x.data.ndim != 2:
        raise K.ShapeError(f"affine expects a matrix and rows, got {W.shape} and {x.shape}")
    if W.data.shape[1] != x.data.shape[-1]:
        raise K.ShapeError(f"affine inner dimensions differ: {W.shape} vs {x.shape}")
    out = x.data @ W.data.T
    if b is not None:
        if b.data.shape != out.shape[-1:]:
            raise K.ShapeError(f"affine bias shape {b.shape} does not match output {out.shape}")
        out = out + b.data

    def bw(g, accum):
        accum(W, g.T @ x.data)
        accum(x, g @ W.data)
        if b is not None:
            accum(b, g.sum(axis=0))

    parents = (x, W) if b is None else (x, W, b)
    return K.Tensor(out, parents, bw, "affine")


def sub(a, b):
    if a.data.shape != b.data.shape:
        raise K.ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")

    def bw(g, accum):
        accum(a, g)
        accum(b, -g)

    return K.Tensor(a.data - b.data, (a, b), bw, "sub")


def scale(a, c: float):
    c = float(c)

    def bw(g, accum):
        accum(a, g * c)

    return K.Tensor(a.data * c, (a,), bw, "scale")


def grad_scale(x, c: float):
    """The identity in the forward pass; multiplies the gradient by c in the
    backward pass. Weights one consumer's gradient into a shared node."""
    c = float(c)

    def bw(g, accum):
        accum(x, g * c)

    return K.Tensor(x.data, (x,), bw, "grad_scale")


def concat(parts: Sequence):
    """Join matrices of equal row count along their columns."""
    n = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != n:
            raise K.ShapeError("concat expects matrices with equal row counts")
    sizes = [p.data.shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)

    def bw(g, accum):
        off = 0
        for p, k in zip(parts, sizes):
            accum(p, g[:, off:off + k])
            off += k

    return K.Tensor(out, tuple(parts), bw, "concat")


def take_row(W, index: np.ndarray):
    """Gather along axis 0 of an array of any rank: the n slices W[index[i]]
    stacked for a vector of n indices. The backward pass scatters into
    zeros, adding up the gradients of a repeated index. It is the embedding
    lookup, and it pairs the curiosity pass's state rows."""
    if W.data.ndim < 1:
        raise K.ShapeError("take_row expects an array with at least one axis")
    K.check_index(index, W.data.shape[0], "take_row")
    out = W.data[index]         # advanced indexing copies

    def bw(g, accum):
        full = np.zeros_like(W.data)
        if (index[1:] > index[:-1]).all():
            full[index] += g    # no index repeats: the same sums as np.add.at, faster
        else:
            np.add.at(full, index, g)
        accum(W, full)

    return K.Tensor(out, (W,), bw, "take_row")


def leaky_relu(x, slope: float = C.LEAKY_SLOPE):
    factor = np.where(x.data > 0, 1.0, slope)
    y = x.data * factor

    def bw(g, accum):
        accum(x, g * factor)

    return K.Tensor(y, (x,), bw, "leaky_relu")


def dotp(a, b):
    if a.data.shape != b.data.shape or a.data.ndim != 1:
        raise K.ShapeError(f"dotp expects equal vectors, got {a.shape} and {b.shape}")
    out = np.dot(a.data, b.data)

    def bw(g, accum):
        accum(a, g * b.data)
        accum(b, g * a.data)

    return K.Tensor(out, (a, b), bw, "dot")


def _picked(logits, index: np.ndarray) -> tuple:
    """Index tuple (arange(n), index) of the chosen entry per row, for (n, D)
    logits and n ints."""
    K.check_index(index, logits.data.shape[-1], "log-softmax")
    if logits.data.ndim != 2 or index.shape != logits.data.shape[:1]:
        raise K.ShapeError(f"indices {index.shape} do not match logits {logits.shape}")
    return np.arange(len(index)), index


def cross_entropy(logits, target: np.ndarray):
    """-log(softmax(logits)[target] + eps), one value per row of (n, D)
    logits for n targets. The backward pass is softmax(logits) -
    onehot(target)."""
    at = _picked(logits, target)
    p = K.softmax_values(logits.data)
    out = -np.log(p[at] + K.CE_EPSILON)

    def bw(g, accum):
        delta = p.copy()
        delta[at] -= 1.0
        accum(logits, g[:, None] * delta)

    return K.Tensor(out, (logits,), bw, "cross_entropy")


def add_n(nodes):
    """The sum of equal-shaped nodes."""
    if not nodes:
        raise ValueError("add_n of empty sequence")
    out = nodes[0].data.copy()
    for n in nodes[1:]:
        if n.data.shape != out.shape:
            raise K.ShapeError("add_n operands must share a shape")
        out += n.data

    def bw(g, accum):
        for n in nodes:
            accum(n, g)

    return K.Tensor(out, tuple(nodes), bw, "add_n")


def vslice(x, start, stop):
    """Columns start:stop of every row."""
    if x.data.ndim != 2:
        raise K.ShapeError(f"vslice expects rows, got {x.shape}")
    out = x.data[:, start:stop].copy()

    def bw(g, accum):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        accum(x, full)

    return K.Tensor(out, (x,), bw, "vslice")


def first_row(x):
    """Row 0 of a one-row node, without the row axis: a (1, k) node as a
    (k,) vector and a (1,) node as a scalar, so a one-row output feeds
    `dotp`, or is the scalar loss that `grad_check` reads."""
    return K.Tensor(x.data[0], (x,), lambda g, accum: accum(x, g[None]), "first_row")


def attend(weights, features):
    """Weighted sum of constant (n, m, E) region features (attend_values) as
    a node, for (n, m) weights."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or weights.data.shape != features.shape[:-1]:
        raise K.ShapeError(
            f"attend expects weights {features.shape[:-1]} for features {features.shape}"
        )

    def bw(g, accum):
        accum(weights, K.attend_grad(features, g))

    return K.Tensor(K.attend_values(weights.data, features), (weights,), bw, "attend")


def additive_attention(R, h_proj, w_a, mask=None):
    """attention_forward as one node over (n, m, Z) regions R, (n, Z) h_proj
    and a boolean (n, m) mask of the real regions, all True when none is
    given; padded regions get weight 0 and no gradient."""
    if R.data.ndim != 3 or R.data.shape[1] < 1:
        raise K.ShapeError(f"additive_attention expects non-empty (n, m, Z) regions, got {R.shape}")
    z = R.data.shape[-1]
    if h_proj.data.shape != (R.data.shape[0], z) or w_a.data.shape != (z,):
        raise K.ShapeError(f"additive_attention vectors {h_proj.shape}, {w_a.shape} "
                           f"do not match rows of {R.shape}")
    if mask is None:
        mask = np.ones(R.data.shape[:-1], dtype=bool)
    if mask.shape != R.data.shape[:-1]:
        raise K.ShapeError(f"additive_attention mask {mask.shape} does not match {R.shape}")
    a, t = K.attention_forward(R.data, h_proj.data, w_a.data, mask)

    def bw(g, accum):
        d_w_a, d_pre = K.attention_backward(w_a.data, a, t, g)
        accum(w_a, d_w_a)
        accum(R, d_pre)
        accum(h_proj, d_pre.sum(axis=1))

    return K.Tensor(a, (R, h_proj, w_a), bw, "attention")


def logprob(logits, index):
    """log softmax(logits)[index] per row of (n, D) logits, floored at
    LOGPROB_FLOOR so exp(result) <= 1. The backward pass is onehot(index) -
    softmax(logits)."""
    at = _picked(logits, index)
    p = K.softmax_values(logits.data)
    out = np.log(np.maximum(p[at], K.LOGPROB_FLOOR))

    def bw(g, accum):
        delta = -p
        delta[at] += 1.0
        accum(logits, g[:, None] * delta)

    return K.Tensor(out, (logits,), bw, "logprob")


def lstm_cell(x, h_prev, c_prev, params):
    """One LSTM step as a single node holding [h, c], returned as two
    views: the gates (x W_x^T + b) + h_prev W_h^T, computed here, through
    lstm_cell_forward and lstm_cell_backward; x, h_prev and c_prev have one
    row per sequence."""
    W_x, W_h, b = params.W_x, params.W_h, params.b
    z = params.hidden_size
    if x.data.ndim != 2 or W_x.data.shape[1] != x.data.shape[-1]:
        raise K.ShapeError(f"lstm_cell input {x.shape} does not match W_x {W_x.shape}")
    state_shape = (x.data.shape[0], z)
    if h_prev.data.shape != state_shape or c_prev.data.shape != state_shape:
        raise K.ShapeError(f"lstm_cell state shapes {h_prev.shape}, {c_prev.shape} != {state_shape}")
    gates = (x.data @ W_x.data.T + b.data) + h_prev.data @ W_h.data.T
    h, c, cache = K.lstm_cell_forward(gates, c_prev.data)

    def bw(grad, accum):
        d_gates, dc_prev = K.lstm_cell_backward(cache, grad[:, :z], grad[:, z:])
        accum(W_x, d_gates.T @ x.data)
        accum(W_h, d_gates.T @ h_prev.data)
        accum(b, d_gates.sum(axis=0))
        accum(x, d_gates @ W_x.data)
        accum(h_prev, d_gates @ W_h.data)
        accum(c_prev, dc_prev)

    state = K.Tensor(np.concatenate([h, c], axis=-1),
                     (x, h_prev, c_prev, *params.parameters()), bw, "lstm")
    return vslice(state, 0, z), vslice(state, z, 2 * z)


def gates_cell(gates, c_prev):
    """lstm_cell_forward as a single node holding [h, c] over (n, 4Z)
    pre-activation gates, returned as two views."""
    z = c_prev.data.shape[-1]
    if gates.data.shape != (c_prev.data.shape[0], 4 * z):
        raise K.ShapeError(f"gates_cell gates {gates.shape} do not match cells {c_prev.shape}")
    h, c, cache = K.lstm_cell_forward(gates.data, c_prev.data)

    def bw(grad, accum):
        d_gates, dc_prev = K.lstm_cell_backward(cache, grad[:, :z], grad[:, z:])
        accum(gates, d_gates)
        accum(c_prev, dc_prev)

    state = K.Tensor(np.concatenate([h, c], axis=-1), (gates, c_prev), bw, "gates_cell")
    return vslice(state, 0, z), vslice(state, z, 2 * z)


def project_rows(features, W):
    """features @ W.T: every region of a constant (n, m, E) array through
    W (Z, E) in one node; W's gradient is one matmul over the regions
    flattened into rows."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or W.data.ndim != 2 or W.data.shape[1] != features.shape[-1]:
        raise K.ShapeError(f"project_rows expects (n, m, E) rows for W {W.shape}, "
                           f"got {features.shape}")
    flat = features.reshape(-1, features.shape[-1])
    out = (flat @ W.data.T).reshape(features.shape[:-1] + (W.data.shape[0],))

    def bw(g, accum):
        accum(W, g.reshape(flat.shape[0], -1).T @ flat)

    return K.Tensor(out, (W,), bw, "project_rows")


def visual_gate_terms(params, means):
    """The visual LSTM's gate terms that are fixed within an unroll as
    nodes, from its W_x columns [s_lang | mean | word] and (n, E) region
    means: the (n, 4Z) mean-feature term plus the bias, the (D, 4Z) word
    table and the (4Z, 2Z) weights [W_h | W_x's s_lang columns] of [s_vis,
    s_lang]."""
    vis, z = params.vis, params.hidden_size
    W_x = vis.W_x.data
    width = W_x.shape[1]
    mean_proj = means @ params.W_v.data.T

    def in_columns(block, start):
        full = np.zeros((block.shape[0], width))
        full[:, start:start + block.shape[1]] = block
        return full

    def mean_bw(g, accum):
        accum(params.W_v, (g @ W_x[:, z:2 * z]).T @ means)
        accum(vis.W_x, in_columns(g.T @ mean_proj, z))
        accum(vis.b, g.sum(axis=0))

    def word_bw(g, accum):
        accum(params.W_e, g @ W_x[:, 2 * z:])
        accum(vis.W_x, in_columns(g.T @ params.W_e.data, 2 * z))

    def state_bw(g, accum):
        accum(vis.W_h, g[:, :z])
        accum(vis.W_x, in_columns(g[:, z:], 0))

    return (K.Tensor(mean_proj @ W_x[:, z:2 * z].T + vis.b.data, (params.W_v, vis.W_x, vis.b),
                     mean_bw, "mean_gates"),
            K.Tensor(params.W_e.data @ W_x[:, 2 * z:].T, (params.W_e, vis.W_x), word_bw,
                     "word_gates"),
            K.Tensor(np.concatenate([vis.W_h.data, W_x[:, :z]], axis=1), (vis.W_h, vis.W_x),
                     state_bw, "state_weights"))


@dataclass
class TermScene:
    """A policy.project_batch scene whose step-invariant arrays are graph
    nodes: what composite_policy_step reads."""

    features: np.ndarray          # (n, m, E), zero-padded
    mask: np.ndarray | None
    terms: tuple                  # the region_proj, mean_gates, word_gates and W_state nodes


def term_batch(params, features):
    """policy.project_batch's scene of features, its four arrays made again
    as the nodes of project_rows and visual_gate_terms."""
    scene = P.project_batch(params, features)
    return TermScene(scene.features, scene.mask,
                     (project_rows(scene.features, params.W_v),
                      *visual_gate_terms(params, scene.means)))


def _attend_and_speak(params, scene, region_proj, s_vis, s_lang0, c_lang0):
    """The step after the visual LSTM over the region_proj node of scene's
    regions: (logits, s_lang, c_lang, attended features, attention
    weights)."""
    h_proj = affine(s_vis, params.W_h)
    attn = additive_attention(region_proj, h_proj, params.W_a, scene.mask)
    v_hat = attend(attn, scene.features)
    x_lang = concat([v_hat, s_vis])
    s_lang, c_lang = lstm_cell(x_lang, s_lang0, c_lang0, params.lang)
    return affine(s_lang, params.W_p), s_lang, c_lang, v_hat, attn


def composite_policy_step(params, prev_word, state, scene):
    """policy_step as a composite graph over the nodes of a term_batch
    scene's terms: four vslices of the state and one of its [s_vis, s_lang]
    columns, the visual gates as an affine of those by W_state plus
    mean_gates and a take_row of word_gates, a gates_cell and an lstm_cell
    node (each with two vslice views), two more affines, two concats,
    additive_attention and attend. Returns (logits, [s_vis, s_lang, c_vis,
    c_lang] state, attended features, attention weights), all as nodes."""
    z = params.hidden_size
    if state is None:       # the zero states [s_vis, s_lang, c_vis, c_lang]
        state = constant(np.zeros((scene.features.shape[0], 4 * z)))
    region_proj, mean_gates, word_gates, W_state = scene.terms
    s_vis0, s_lang0, c_vis0, c_lang0 = (vslice(state, i * z, (i + 1) * z) for i in range(4))
    gates = K.add(K.add(affine(vslice(state, 0, 2 * z), W_state), mean_gates),
                  take_row(word_gates, prev_word))
    s_vis, c_vis = gates_cell(gates, c_vis0)
    logits, s_lang, c_lang, v_hat, attn = _attend_and_speak(params, scene, region_proj, s_vis,
                                                            s_lang0, c_lang0)
    return logits, concat([s_vis, s_lang, c_vis, c_lang]), v_hat, attn


@dataclass
class UnhoistedScene:
    """The scene rows that unhoisted_policy_step reads, none of them built
    by policy.project_batch."""

    features: np.ndarray          # (n, m, E), zero-padded
    region_proj: K.Tensor         # (n, m, Z), a project_rows node
    mean_proj: K.Tensor           # (n, Z), W_v mean(v) as an affine node
    mask: np.ndarray | None


def unhoisted_batch(params, features):
    """project_batch as it was before the visual gate terms were hoisted:
    the padded regions through W_v and each row's W_v mean(v)."""
    m = max(f.shape[0] for f in features)
    padded = np.zeros((len(features), m, features[0].shape[1]))
    mask = np.zeros((len(features), m), dtype=bool)
    for r, f in enumerate(features):
        padded[r, :f.shape[0]] = f
        mask[r, :f.shape[0]] = True
    means = np.array([np.asarray(f, dtype=np.float64).mean(axis=0) for f in features])
    return UnhoistedScene(padded, project_rows(padded, params.W_v),
                          affine(constant(means), params.W_v), None if mask.all() else mask)


def unhoisted_policy_step(params, prev_word, state, scene):
    """composite_policy_step as it was before the visual gate terms were
    hoisted, over an unhoisted_batch scene: the visual LSTM's input [s_lang,
    W_v mean(v), W_e word] is concatenated and multiplied by its W_x at
    every step (an lstm_cell node)."""
    z = params.hidden_size
    if state is None:       # the zero states [s_vis, s_lang, c_vis, c_lang]
        state = constant(np.zeros((scene.features.shape[0], 4 * z)))
    s_vis0, s_lang0, c_vis0, c_lang0 = (vslice(state, i * z, (i + 1) * z) for i in range(4))
    x_vis = concat([s_lang0, scene.mean_proj, take_row(params.W_e, prev_word)])
    s_vis, c_vis = lstm_cell(x_vis, s_vis0, c_vis0, params.vis)
    logits, s_lang, c_lang, v_hat, attn = _attend_and_speak(params, scene, scene.region_proj,
                                                            s_vis, s_lang0, c_lang0)
    return logits, concat([s_vis, s_lang, c_vis, c_lang]), v_hat, attn


def row_steps(params, scene, choose, t_max, step=composite_policy_step):
    """(token, logits, state) nodes per step of a plain loop over step (by
    default composite_policy_step, over a term_batch scene) from <bos> that
    feeds every row of scene
    the tokens choose(t, logits); a caller stops early by leaving the loop.
    It stands apart from policy.unroll, so no reference runs the loop it
    checks."""
    state, token = None, np.full(scene.features.shape[0], BOS_ID)
    for t in range(t_max):
        logits, state, _, _ = step(params, token, state, scene)
        token = choose(t, logits)
        yield token, logits, state


def forced_unroll(params, features, tokens):
    """(token, logits, state) per step of a teacher-forced unroll of one
    scene as one row, so a token is a (1,) array, the logits (1, D) and the
    state (1, 4Z); it does not stop at <eos>."""
    if not tokens:
        raise ValueError("cannot unroll an empty sequence")
    return list(row_steps(params, term_batch(params, [features]),
                          lambda t, logits: np.array([tokens[t]]), len(tokens)))


@dataclass
class RolloutTrace:
    """Per-step record of one episode, without graph nodes: what the
    samplers here return, and what the trainer kept per episode before its
    episodes became the (B, T) arrays of policy.Episodes."""

    actions: list[int]
    log_probs: list[float]
    states: list[np.ndarray]      # [s_vis, s_lang] values (2Z,)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def ended_with_eos(self) -> bool:
        return bool(self.actions) and self.actions[-1] == EOS_ID


def stack(traces):
    """The non-empty traces as the rows of one policy.Episodes as long as
    the longest of them, 0 past each one's end."""
    steps = max(len(t) for t in traces)
    actions = np.zeros((len(traces), steps), dtype=np.intp)
    log_probs = np.zeros((len(traces), steps))
    states = np.zeros((len(traces), steps, traces[0].states[0].shape[0]))
    for r, trace in enumerate(traces):
        actions[r, :len(trace)] = trace.actions
        log_probs[r, :len(trace)] = trace.log_probs
        states[r, :len(trace)] = trace.states
    return P.Episodes(actions, log_probs, states,
                      np.array([len(t) for t in traces], dtype=np.intp))


def unstack(episodes):
    """Each row of a policy.Episodes as the trace of its own steps."""
    return [RolloutTrace(actions=episodes.actions[r, :k].tolist(),
                         log_probs=episodes.log_probs[r, :k].tolist(),
                         states=list(episodes.states[r, :k]))
            for r, k in enumerate(episodes.lengths)]


def _trace(steps, hidden):
    """The RolloutTrace of (token, logits, state) one-row steps."""
    return RolloutTrace(
        actions=[int(token[0]) for token, _, _ in steps],
        log_probs=[float(np.log(max(K.softmax_values(logits.data)[0, token[0]], K.LOGPROB_FLOOR)))
                   for token, logits, _ in steps],
        states=[state.data[0, :2 * hidden].copy() for _, _, state in steps])


def forced_trace(params, features, tokens):
    """The trace of a teacher-forced one-scene unroll over tokens."""
    with K.no_grad():
        return _trace(forced_unroll(params, features, tokens), params.hidden_size)


def sequence_log_prob(params, features, tokens):
    """Sum of per-step log conditionals of a forced sequence."""
    with K.no_grad():
        return sum(math.log(max(float(K.softmax_values(logits.data)[0, tok[0]]), K.LOGPROB_FLOOR))
                   for tok, logits, _ in forced_unroll(params, features, tokens))


def rl_surrogate(params, features, actions, advantage):
    """-sum_t A_t log pi(y_t | s_t) of one scene's actions as a graph of
    per-step logprob nodes: the policy-gradient loss that the sampled rows
    of policy.RowUnroll.loss weight with -A_t."""
    return add_n([dotp(logprob(logits, token), constant([-float(a)]))
                  for (token, logits, _), a in zip(forced_unroll(params, features, actions),
                                                   advantage)])


def sp_targets(episodes, params):
    """Detached target embeddings phi(s_{t+1}), one row per transition of a
    policy.Episodes, row by row."""
    rows, steps = np.nonzero(np.arange(episodes.actions.shape[1]) + 1
                             < episodes.lengths[:, None])
    return C.embed_state(episodes.states[rows, steps + 1], params)


def embed_state(state, params):
    """curiosity.embed_state as a graph over a node or an array of rows."""
    node = state if isinstance(state, K.Tensor) else constant(state)
    return leaky_relu(affine(node, params.phi_W, params.phi_b))


def predict_next_state(phi_t, action, params):
    """Next-state embedding from the current embedding and the action taken,
    per row of (N, Zp) embeddings and an int vector of N actions."""
    x = concat([phi_t, take_row(params.sp_emb, action)])
    h = leaky_relu(affine(x, params.sp_W1, params.sp_b1))
    return affine(h, params.sp_W2, params.sp_b2)


def predict_action(phi_t, phi_next, params):
    """Logits over the vocabulary for the action linking two states, per row
    of two (N, Zp) embeddings."""
    x = concat([phi_t, phi_next])
    h = leaky_relu(affine(x, params.ap_W1, params.ap_b1))
    return affine(h, params.ap_W2, params.ap_b2)


@dataclass
class GraphCuriosityPass:
    errors: np.ndarray
    sp_loss: object     # node
    ap_loss: object     # node; constant 0 unless alpha > 0


def graph_curiosity_pass(episodes, params, alpha=0.0, beta=1.0, targets=None):
    """curiosity.curiosity_pass as a graph: the state predictor reads
    grad_scale(phi, beta) and the action predictor grad_scale(phi, alpha),
    so one backward over the sum of both loss nodes gives the embedding
    alpha * d(ap) + beta * d(sp) while each predictor gets its own
    unweighted gradient."""
    b, t_len = episodes.actions.shape
    lengths = episodes.lengths
    errors = np.zeros((b, t_len))
    rows, steps = np.nonzero(np.arange(t_len) + 1 < lengths[:, None])
    if not rows.size:
        return GraphCuriosityPass(errors, constant(0.0), constant(0.0))
    embedded = (np.arange(t_len) < lengths[:, None]) & (lengths > 1)[:, None]
    flat = np.cumsum(embedded).reshape(embedded.shape) - 1
    src = flat[rows, steps]
    dst = src + 1
    actions = episodes.actions[rows, steps]
    weights = 1.0 / (b * (lengths[rows] - 1))
    phi = embed_state(episodes.states[embedded], params)
    if targets is None:
        targets = phi.data[dst]
    pred = predict_next_state(take_row(grad_scale(phi, beta), src), actions, params)
    diff = sub(pred, constant(targets))
    errors[rows, steps + 1] = 0.5 * np.einsum("ij,ij->i", diff.data, diff.data)
    ap_loss = constant(0.0)
    if alpha > 0:
        to_ap = grad_scale(phi, alpha)
        logits = predict_action(take_row(to_ap, src), take_row(to_ap, dst), params)
        ap_loss = dotp(cross_entropy(logits, actions), constant(weights))
    return GraphCuriosityPass(errors, scale(K.sumsq(diff, weights), 0.5), ap_loss)


def graph_curiosity_loss(terms, alpha, beta):
    """The loss train_step added to the policy's before curiosity.curiosity_pass
    had its own node: each term whose weight is > 0."""
    loss = constant(0.0)
    if beta > 0:
        loss = K.add(loss, terms.sp_loss)
    if alpha > 0:
        loss = K.add(loss, terms.ap_loss)
    return loss


def one_row_sample(params, features, t_max, rng):
    """Sample one episode from <bos> until <eos> or t_max: one one-row
    composite step per step and one inverse-CDF draw from rng per step."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")

    def choose(t, logits):
        cdf = np.cumsum(K.softmax_values(logits.data)[0])
        return np.array([min(int(np.searchsorted(cdf, rng.random(), side="right")),
                             cdf.shape[0] - 1)])

    steps = []
    with K.no_grad():
        for step in row_steps(params, term_batch(params, [features]), choose, t_max):
            steps.append(step)
            if step[0][0] == EOS_ID:
                break
    return _trace(steps, params.hidden_size)


def zero_state(params, n=1):
    """The (n, 4Z) zero state that policy.policy_step reads at <bos>."""
    return np.zeros((n, 4 * params.hidden_size))


def stepwise_argmax(params, features, t_max):
    """Greedy decoding as one one-row policy_step per step, each taking the
    argmax of the softmax (ties to the lowest id), until <eos> or t_max."""
    state, prev, out = zero_state(params), BOS_ID, []
    scene = P.project_batch(params, [features])
    for _ in range(t_max):
        logits, record = P.policy_step(params, np.array([prev]), state, scene)
        state = record.state
        prev = int(np.argmax(K.softmax_values(logits)[0]))
        out.append(prev)
        if prev == EOS_ID:
            break
    return out


def per_hypothesis_beam(params, features, t_max, width):
    """Beam search with one one-row policy_step per live hypothesis and a
    full sort of every candidate by (-log-probability, token path)."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    with K.no_grad():
        scene = P.project_batch(params, [features])
        live = [(0.0, (), zero_state(params))]
        done = []
        for _ in range(t_max):
            if not live:
                break
            candidates = []
            for lp, tokens, state in live:
                prev = tokens[-1] if tokens else BOS_ID
                logits, record = P.policy_step(params, np.array([prev]), state, scene)
                logd = np.log(np.maximum(K.softmax_values(logits)[0], K.LOGPROB_FLOOR))
                for w in range(params.vocab_size):
                    candidates.append((lp + float(logd[w]), tokens + (w,), record.state))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            live = []
            for lp, tokens, state in candidates[:width]:
                if tokens[-1] == EOS_ID:
                    done.append((lp, tokens))
                else:
                    live.append((lp, tokens, state))
        done.extend((lp, tokens) for lp, tokens, _ in live)
        best = min(done, key=lambda c: (-c[0], c[1]))
        return list(best[1])


def padded_sample_rows(params, features, t_max, rngs):
    """Sample one episode per scene as one graph-less row unroll in which a
    finished row is fed <eos>, draws nothing and records nothing, until
    every row has finished."""
    n = len(features)
    live = np.ones(n, dtype=bool)
    lengths = np.zeros(n, dtype=np.intp)
    dist = np.empty(0)
    steps = []

    def choose(t, logits):
        nonlocal dist
        dist = K.softmax_values(logits.data)
        rows = np.flatnonzero(live)
        u = np.array([rngs[r].random() for r in rows])
        cdf = np.cumsum(dist[rows], axis=-1)
        token = np.full(n, EOS_ID)
        token[rows] = np.minimum((cdf <= u[:, None]).sum(axis=-1), dist.shape[-1] - 1)
        return token

    with K.no_grad():
        for token, _, state in row_steps(params, term_batch(params, features),
                                         choose, t_max):
            picked = dist[np.arange(n), token]
            steps.append((token, np.log(np.maximum(picked, K.LOGPROB_FLOOR)),
                          state.data[:, :2 * params.hidden_size]))
            lengths += live
            live &= token != EOS_ID
            if not live.any():
                break
    actions, log_probs, states = (np.stack(part, axis=1) for part in zip(*steps))
    return [RolloutTrace(actions=actions[r, :k].tolist(), log_probs=log_probs[r, :k].tolist(),
                         states=list(states[r, :k]))
            for r, k in enumerate(lengths)]


@dataclass
class PaddedScores:
    loss: K.Tensor
    cross_entropy: np.ndarray     # (n, T), 0 on padded steps
    log_prob: np.ndarray          # (n, T), 0 on padded steps and without lp weights


def _padded(rows, width, dtype=np.float64):
    out = np.zeros((len(rows), width), dtype=dtype)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


def padded_score_rows(params, features, tokens, ce_weights, lp_weights=None, unhoisted=False):
    """Teacher-force every row for as many steps as the longest one: the
    loss is sum_{r,t} ce_weights[r][t] CE_rt + lp_weights[r][t] logp_rt, and
    steps past the end of a row feed <eos> with weight 0. Each step is a
    composite_policy_step, or with unhoisted an unhoisted_policy_step."""
    width = max(len(row) for row in tokens)
    real = _padded([[True] * len(row) for row in tokens], width, bool)
    forced = np.where(real, _padded(tokens, width, np.intp), EOS_ID)
    ce_w = _padded(ce_weights, width)
    lp_w = None if lp_weights is None else _padded(lp_weights, width)
    ce, lp = np.zeros(real.shape), np.zeros(real.shape)
    terms = []
    scene = (unhoisted_batch if unhoisted else term_batch)(params, features)
    steps = row_steps(params, scene, lambda t, logits: forced[:, t], width,
                      unhoisted_policy_step if unhoisted else composite_policy_step)
    for t, (_, logits, _) in enumerate(steps):
        node = cross_entropy(logits, forced[:, t])
        ce[:, t] = node.data
        terms.append(dotp(node, constant(ce_w[:, t])))
        if lp_w is not None:
            node = logprob(logits, forced[:, t])
            lp[:, t] = node.data
            terms.append(dotp(node, constant(lp_w[:, t])))
    return PaddedScores(add_n(terms), np.where(real, ce, 0.0), np.where(real, lp, 0.0))


def ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


# ---------------------------------------------------------------------------
# BLEU


def _closest_ref_length(cand_len: int, refs: Sequence[TokenSeq]) -> int:
    # closest reference length, ties resolved toward the shorter reference
    return min((abs(len(r) - cand_len), len(r)) for r in refs)[1]


def bleu(samples: Sequence[tuple[TokenSeq, Sequence[TokenSeq]]],
         max_n: int = 4, mode: str = "corpus") -> float:
    """Geometric mean of clipped n-gram precisions with brevity penalty.

    samples: (candidate, references) pairs, aggregated corpus-style.
    mode "corpus" uses raw precisions; "sentence" adds 1 to numerator and
    denominator for n >= 2 so single-sentence scores stay informative.
    """
    if mode not in ("corpus", "sentence"):
        raise ValueError(f"unknown BLEU mode {mode!r}")
    if not samples:
        raise ValueError("bleu needs at least one sample")
    matched = [0] * max_n
    total = [0] * max_n
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, refs in samples:
        if not refs:
            raise ValueError("bleu sample without references")
        cand_len_sum += len(cand)
        ref_len_sum += _closest_ref_length(len(cand), refs)
        for n in range(1, max_n + 1):
            cg = ngram_counts(cand, n)
            if not cg:
                continue
            best = Counter()
            for ref in refs:
                rg = ngram_counts(ref, n)
                for g in cg:
                    if rg[g] > best[g]:
                        best[g] = rg[g]
            matched[n - 1] += sum(min(c, best[g]) for g, c in cg.items())
            total[n - 1] += sum(cg.values())
    if cand_len_sum == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        m, t = matched[n - 1], total[n - 1]
        if mode == "sentence" and n >= 2:
            m, t = m + 1, t + 1
        if t == 0 or m == 0:
            return 0.0
        log_sum += math.log(m / t)
    precision_term = math.exp(log_sum / max_n)
    bp = 1.0 if cand_len_sum >= ref_len_sum else math.exp(1.0 - ref_len_sum / cand_len_sum)
    return bp * precision_term


def _tfidf_cosine(cand: TokenSeq, ref: TokenSeq, idf: IdfTable, n: int) -> float:
    cg = ngram_counts(cand, n)
    rg = ngram_counts(ref, n)
    num = 0.0
    for g, c in cg.items():
        if g in rg:
            w = idf.get(g)
            num += (c * w) * (rg[g] * w)
    cnorm = math.sqrt(sum((c * idf.get(g)) ** 2 for g, c in cg.items()))
    rnorm = math.sqrt(sum((c * idf.get(g)) ** 2 for g, c in rg.items()))
    if cnorm == 0.0 or rnorm == 0.0:
        return 0.0
    return num / (cnorm * rnorm)


def fresh_key_reference_stats(refs: Sequence[TokenSeq], idf: IdfTable,
                              max_n: int = MAX_NGRAM) -> References:
    """metrics.reference_stats with a tuple of its own for each reference's
    n-grams, as counting makes them, instead of the table's shared tuples."""
    max_counts, vectors, norms = [], [], []
    for n in range(1, max_n + 1):
        counts = [ngram_counts(ref, n) for ref in refs]
        best: dict = {}
        for rg in counts:
            for g, c in rg.items():
                if c > best.get(g, 0):
                    best[g] = c
        vecs = [{g: c * idf.values.get(g, 0.0) for g, c in rg.items()} for rg in counts]
        max_counts.append(best)
        vectors.append(vecs)
        norms.append([math.sqrt(sum(w ** 2 for w in vec.values())) for vec in vecs])
    return References(idf, [len(ref) for ref in refs], max_counts, vectors, norms)


def cider_single(cand: TokenSeq, refs: Sequence[TokenSeq], idf: IdfTable,
                 max_n: int = MAX_NGRAM) -> float:
    per_n = []
    for n in range(1, max_n + 1):
        sims = [_tfidf_cosine(cand, ref, idf, n) for ref in refs]
        per_n.append(sum(sims) / len(sims))
    return sum(per_n) / max_n


def cider(samples: Sequence[tuple[TokenSeq, Sequence[TokenSeq]]],
          idf: IdfTable, max_n: int = MAX_NGRAM) -> float:
    """Mean over candidates of the per-n-averaged TF-IDF cosine consensus."""
    if not samples:
        raise ValueError("cider needs at least one sample")
    return sum(cider_single(c, r, idf, max_n) for c, r in samples) / len(samples)


def scored_reward(candidate: Sequence[str], references: Sequence[Sequence[str]],
                  idf: IdfTable, bleu_weight: float, cider_weight: float) -> float:
    """Terminal reward of an episode: the weighted sum of the smoothed
    sentence BLEU-4 and the TF-IDF consensus score of the finished sequence.
    A candidate stripped to nothing scores 0."""
    if not candidate:
        return 0.0
    return float(bleu_weight * bleu([(candidate, references)], max_n=4, mode="sentence")
                 + cider_weight * cider_single(candidate, references, idf))


# ---------------------------------------------------------------------------
# the per-episode advantage assembly


def terminal_reward_vector(reward: float, length: int) -> np.ndarray:
    if length < 1:
        raise ValueError("episode length must be >= 1")
    out = np.zeros(length)
    out[-1] = reward
    return out


def terminal_closed_form_q(reward: float, length: int, gamma: float, lam: float) -> np.ndarray:
    """Q of one episode rewarded only at its last step, in closed form:
    (2 - lam) (gamma lam)^H_t r_T, H_t the steps after t."""
    return (2.0 - lam) * (gamma * lam) ** np.arange(length - 1, -1, -1) * reward


def per_episode_assembly(traces, errors, references, vocab, cfg, shape):
    """The log-prob weights (an array of the given (2B, T) shape) and the
    report sums of one train step's B sampled traces, built one episode at a
    time, as train_step built them before its episodes stayed (B, T)
    arrays: episode i's Q (q_closed_form at lambda 1, otherwise
    terminal_closed_form_q) plus its intrinsic reward from errors[i],
    the per-step curiosity errors of its own steps. Returns (lp_weights,
    {StepStats field: value}) for the fields it fills."""
    b = len(traces)
    lp_weights = np.zeros(shape)
    stats = dict(rl_loss=0.0, intrinsic_sum=0.0, extrinsic_sum=0.0, episodes=b,
                 sampled_steps=0, eos_episodes=0)
    rl = 0.0
    for i, (scene_refs, trace, err) in enumerate(zip(references, traces, errors, strict=True)):
        intrinsic = cfg.intrinsic_scale * err
        r_e = R.scored_reward(vocab.decode_text(trace.actions), scene_refs,
                              cfg.bleu_weight, cfg.cider_weight)
        if cfg.td_lambda == 1.0:
            q = R.q_closed_form(r_e, len(trace), cfg.discount)
        else:
            q = terminal_closed_form_q(r_e, len(trace), cfg.discount, cfg.td_lambda)
        advantage = q + intrinsic
        lp_weights[b + i, :len(trace)] = -advantage / b
        rl += float(-advantage @ np.asarray(trace.log_probs))
        stats["intrinsic_sum"] += float(intrinsic.sum())
        stats["sampled_steps"] += len(trace)
        stats["eos_episodes"] += trace.ended_with_eos
        stats["extrinsic_sum"] += r_e
    stats["rl_loss"] = rl / b
    return lp_weights, stats
