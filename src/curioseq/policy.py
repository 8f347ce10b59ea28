"""Two-layer attention LSTM policy over region features, with stochastic
rollout, greedy decoding and beam search.

Step structure: a visual LSTM reads [previous language state, projected mean
features, previous word embedding]; its state attends over projected region
features; the attended feature vector and the visual state drive a language
LSTM whose state is projected to the next-word distribution. policy_step
runs all of it as one recorded node over one state array per sequence,
[s_vis, s_lang, c_vis, c_lang], plus a node for the output projection.

Every sequence is a row: a scene is one row of project_batch, a word an int
vector with one entry per row and a state an (n, 4Z) array, so one scene
decodes as one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import (
    LOGPROB_FLOOR,
    LstmParams,
    Parameter,
    ShapeError,
    Tensor,
    add_n,
    affine,
    attend_grad,
    attend_values,
    attention_backward,
    attention_forward,
    check_index,
    constant,
    cross_entropy,
    dotp,
    init_lstm,
    lstm_backward,
    lstm_forward,
    no_grad,
    project_rows,
    recording,
    softmax_values,
    take_row,
    xavier_uniform,
)
from .vocab import BOS_ID, EOS_ID

@dataclass
class PolicyParams:
    """All learnable weights of the policy network."""

    W_e: Parameter        # (D, Z) word embedding rows
    W_v: Parameter        # (Z, E) feature projection
    W_h: Parameter        # (Z, Z) visual-state projection for attention
    W_a: Parameter        # (Z,)   attention scorer
    W_p: Parameter        # (D, Z) output projection
    vis: LstmParams       # input 3Z
    lang: LstmParams      # input E + Z

    @property
    def vocab_size(self) -> int:
        return self.W_e.data.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W_e.data.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.W_v.data.shape[1]

    def parameters(self) -> list[Parameter]:
        return ([self.W_e, self.W_v, self.W_h, self.W_a, self.W_p]
                + self.vis.parameters() + self.lang.parameters())


def init_policy(rng: np.random.Generator, vocab_size: int, hidden: int,
                feature_dim: int, prefix: str = "policy") -> PolicyParams:
    return PolicyParams(
        W_e=xavier_uniform(rng, (vocab_size, hidden), f"{prefix}.W_e"),
        W_v=xavier_uniform(rng, (hidden, feature_dim), f"{prefix}.W_v"),
        W_h=xavier_uniform(rng, (hidden, hidden), f"{prefix}.W_h"),
        W_a=xavier_uniform(rng, (hidden,), f"{prefix}.W_a"),
        W_p=xavier_uniform(rng, (vocab_size, hidden), f"{prefix}.W_p"),
        vis=init_lstm(rng, f"{prefix}.vis", 3 * hidden, hidden),
        lang=init_lstm(rng, f"{prefix}.lang", feature_dim + hidden, hidden),
    )


def initial_state(params: PolicyParams, n: int) -> Tensor:
    """Zero states [s_vis, s_lang, c_vis, c_lang], one (4Z,) row for each of
    n sequences. The first 2Z columns, [s_vis, s_lang], are the state the
    curiosity module reads."""
    return constant(np.zeros((n, 4 * params.hidden_size)))


@dataclass
class ProjectedScene:
    """Per-scene tensors reused across steps of one unrolled graph, one
    zero-padded scene per row."""

    features: np.ndarray          # (n, m, E), constant
    region_proj: Tensor           # (n, m, Z), region i is W_v v_i
    mean_proj: Tensor             # (n, Z), W_v mean(v)
    mask: np.ndarray | None = None    # (n, m): True on real regions; None when none are padded

    def take(self, rows: np.ndarray) -> "ProjectedScene":
        """The scenes of the given rows, in that order; a row may repeat."""
        return ProjectedScene(features=self.features[rows],
                              region_proj=take_row(self.region_proj, rows),
                              mean_proj=take_row(self.mean_proj, rows),
                              mask=None if self.mask is None else self.mask[rows])


def project_batch(params: PolicyParams, features: Sequence[np.ndarray]) -> ProjectedScene:
    """One row per (m_r, E) scene: regions zero-padded to the largest m with
    a region mask, and each row's own region mean."""
    m = max(f.shape[0] for f in features)
    padded = np.zeros((len(features), m, features[0].shape[1]))
    mask = np.zeros((len(features), m), dtype=bool)
    for r, f in enumerate(features):
        padded[r, :f.shape[0]] = f
        mask[r, :f.shape[0]] = True
    means = np.array([np.asarray(f, dtype=np.float64).mean(axis=0) for f in features])
    return ProjectedScene(features=padded, region_proj=project_rows(padded, params.W_v),
                          mean_proj=affine(constant(means), params.W_v),
                          mask=None if mask.all() else mask)


def policy_step(params: PolicyParams, prev_word: np.ndarray, state: Tensor | None,
                scene: ProjectedScene):
    """One decoding step for a row per sequence: an int vector of n previous
    words, (n, 4Z) states (None for the zero states) and an n-row
    project_batch scene.

    Returns (next-word logits, new state, attended features, attention
    weights). The state is one node whose backward pass runs the whole step
    in reverse, and the logits a second node over its s_lang columns; the
    attended features and attention weights are plain arrays, as no
    gradient flows back through them.
    """
    n = scene.mean_proj.shape[0]
    if state is None:
        state = initial_state(params, n)
    z = params.hidden_size
    if state.shape != (n, 4 * z) or np.shape(prev_word) != (n,):
        raise ShapeError(f"policy_step expects words ({n},) and states ({n}, {4 * z}), "
                         f"got {np.shape(prev_word)} and {state.shape}")
    check_index(prev_word, params.vocab_size, "policy_step")
    prev = state.data
    x_vis = np.concatenate([prev[:, z:2 * z], scene.mean_proj.data, params.W_e.data[prev_word]],
                           axis=-1)
    s_vis, c_vis, vis = lstm_forward(params.vis, x_vis, prev[:, :z], prev[:, 2 * z:3 * z])
    attn, t = attention_forward(scene.region_proj.data, s_vis @ params.W_h.data.T,
                                params.W_a.data, scene.mask)
    v_hat = attend_values(attn, scene.features)
    x_lang = np.concatenate([v_hat, s_vis], axis=-1)
    s_lang, c_lang, lang = lstm_forward(params.lang, x_lang, prev[:, z:2 * z], prev[:, 3 * z:])

    def step_bw(g, accum):
        e = v_hat.shape[-1]
        dx_lang, ds_lang, dc_lang = lstm_backward(accum, params.lang, lang,
                                                  g[:, z:2 * z], g[:, 3 * z:])
        d_pre = attention_backward(accum, params.W_a, attn, t,
                                   attend_grad(scene.features, dx_lang[:, :e]))
        accum(scene.region_proj, d_pre)
        d_hproj = d_pre.sum(axis=-2)
        accum(params.W_h, d_hproj, s_vis)
        dx_vis, ds_vis, dc_vis = lstm_backward(
            accum, params.vis, vis, g[:, :z] + dx_lang[:, e:] + d_hproj @ params.W_h.data,
            g[:, 2 * z:3 * z])
        accum(scene.mean_proj, dx_vis[:, z:2 * z])
        onehot = np.zeros((n, params.vocab_size))     # the embedding lookup's (g, x) pair
        onehot[np.arange(n), prev_word] = 1.0
        accum(params.W_e, onehot, dx_vis[:, 2 * z:])
        accum(state, np.concatenate([ds_vis, ds_lang + dx_vis[:, :z], dc_vis, dc_lang], axis=-1))

    new_state = Tensor(np.concatenate([s_vis, s_lang, c_vis, c_lang], axis=-1),
                       (state, scene.region_proj, scene.mean_proj, params.W_e, params.W_h,
                        params.W_a, *params.vis.parameters(), *params.lang.parameters()),
                       step_bw, "policy_step")

    def logits_bw(g, accum):
        accum(params.W_p, g, s_lang)
        d_state = np.zeros(new_state.shape)
        d_state[:, z:2 * z] = g @ params.W_p.data
        accum(new_state, d_state)

    logits = Tensor(s_lang @ params.W_p.data.T, (new_state, params.W_p), logits_bw, "logits")
    return logits, new_state, v_hat, attn


@dataclass
class Episodes:
    """The sampled episodes of B rows as (B, T) arrays over the T steps the
    unroll ran, without graph nodes; steps past a row's length hold 0."""

    actions: np.ndarray       # (B, T) ints
    log_probs: np.ndarray     # (B, T) log pi(y_t | s_t), floored at LOGPROB_FLOOR
    states: np.ndarray        # (B, T, 2Z) [s_vis, s_lang] values
    lengths: np.ndarray       # (B,) the steps each row took

    def __len__(self) -> int:
        """The number of sampled steps over all rows."""
        return int(self.lengths.sum())

    @property
    def ended_with_eos(self) -> np.ndarray:
        """(B,), whether each row's last step took <eos>."""
        return self.actions[np.arange(self.lengths.size), self.lengths - 1] == EOS_ID


def unroll(params: PolicyParams, scene: ProjectedScene,
           step: Callable[[int, Tensor, Tensor], tuple[np.ndarray, np.ndarray]],
           t_max: int) -> None:
    """The one loop over policy_step. From <bos>, every row of the
    project_batch scene steps at once; after step t, step(t, logits, state)
    returns (rows, token): the positions of the rows that go on, in the
    order they go on (a row may repeat), and the word each of them feeds
    next. Unless rows is every row in order, the state (one take_row) and
    the scene rows are gathered before the next step. The loop ends when
    rows is empty or after t_max steps."""
    state: Tensor | None = None
    token = np.full(scene.mean_proj.shape[0], BOS_ID)
    for t in range(t_max):
        logits, state, _, _ = policy_step(params, token, state, scene)
        rows, token = step(t, logits, state)
        if rows.size == 0:
            return
        if rows.size != state.shape[0] or (rows != np.arange(rows.size)).any():
            state, scene = take_row(state, rows), scene.take(rows)


@dataclass
class RowUnroll:
    """One recorded unroll over the rows of a minibatch, teacher-forced rows
    first. Step t ran on the rows rows[t] that had not finished, in
    ascending order, and its cross-entropy node holds one value per such row
    for the token the row took: its reference token or the token it
    sampled."""

    rows: list[np.ndarray]          # per step, the ids of the rows that stepped
    cross_entropy: list[Tensor]     # per step, -log(p + CE_EPSILON) of each row's token
    ce_values: np.ndarray           # (rows, steps) cross-entropy values, 0 where a row did not step
    episodes: Episodes              # the sampled rows' episodes, row n_forced + i as row i
    n_forced: int                   # rows below n_forced are teacher-forced, the others sampled

    def loss(self, ce_weights: np.ndarray, lp_weights: np.ndarray | None = None) -> Tensor:
        """sum over steps t and rows r in rows[t] of ce_weights[r, t] CE_rt
        on the teacher-forced rows and lp_weights[r, t] logp_rt on the
        sampled rows, for (rows, steps) weight arrays; the weights of steps a
        row did not take are never read. -CE_rt stands in for logp_rt: its
        gradient is the same, and its value differs by at most
        log(1 + CE_EPSILON / p). While recording, an unroll made under no_grad
        is rejected, as its loss would have a silent zero gradient."""
        if lp_weights is not None and not self.episodes.lengths.size:
            raise ValueError("log-prob weights need sampled rows")
        if recording() and not all(node.parents for node in self.cross_entropy):
            raise ValueError("the unroll ran under no_grad and has no path to the parameters")
        terms = []
        for t, (rows, node) in enumerate(zip(self.rows, self.cross_entropy)):
            k = np.searchsorted(rows, self.n_forced)
            w = np.zeros(len(rows))
            w[:k] = ce_weights[rows[:k], t]
            if lp_weights is not None:
                w[k:] = -lp_weights[rows[k:], t]
            terms.append(dotp(node, constant(w)))
        return add_n(terms)


def unroll_rows(params: PolicyParams, features: Sequence[np.ndarray],
                forced: Sequence[Sequence[int]], t_max: int,
                rngs: Sequence[np.random.Generator] = ()) -> RowUnroll:
    """Unroll a minibatch as one graph over (rows, .) arrays: a
    teacher-forced row per reference (row r reads features[r] and is fed
    forced[r]), then a sampled row per generator (row len(forced) + i reads
    features[i] and draws its inverse-CDF u from rngs[i] alone, once per
    step it takes, from its own softmax row).

    A forced row ends after its last token, and a sampled row at <eos> or
    after t_max steps, so at most max(t_max, longest reference) steps run.
    After every step the rows that ended drop out: unroll gathers the state
    and scene rows of the others, so no step runs on a finished row and
    finished rows and padded regions get exactly zero gradient. The caller
    weights the recorded nodes with RowUnroll.loss, after it has scored the
    sampled episodes, and the whole minibatch has one backward pass."""
    n, n_forced = len(features), len(forced)
    if n_forced not in (0, n) or len(rngs) not in (0, n) or not n_forced + len(rngs):
        raise ValueError(f"{n} scenes need a reference each, a generator each, or both")
    if not all(forced):
        raise ValueError("cannot unroll an empty reference")
    if rngs and t_max < 1:
        raise ValueError("t_max must be >= 1")
    ends = np.array([len(ref) for ref in forced] + [t_max] * len(rngs))
    steps = int(ends.max())
    tokens = np.full((n_forced, steps), EOS_ID)
    for r, ref in enumerate(forced):
        tokens[r, :len(ref)] = ref
    scene = project_batch(params, (list(features) if forced else [])
                          + (list(features) if rngs else []))
    ids = np.arange(len(ends))          # the rows of the current step
    # the sampled rows' episodes, (len(rngs), steps, ...) with 0 past their ends
    actions = np.zeros((len(rngs), steps), dtype=np.intp)
    log_probs = np.zeros((len(rngs), steps))
    states = np.zeros((len(rngs), steps, 2 * params.hidden_size))
    lengths = np.zeros(len(rngs), dtype=np.intp)

    stepped: list[np.ndarray] = []
    nodes: list[Tensor] = []

    def step(t: int, logits: Tensor, state: Tensor) -> tuple[np.ndarray, np.ndarray]:
        nonlocal ids
        p = softmax_values(logits.data)
        k = np.searchsorted(ids, n_forced)
        token = np.empty(len(ids), dtype=np.intp)
        token[:k] = tokens[ids[:k], t]
        if k < len(ids):
            u = np.array([rngs[r - n_forced].random() for r in ids[k:]])
            cdf = np.cumsum(p[k:], axis=-1)
            # searchsorted(cdf, u, side="right") per row: the count of cdf <= u
            token[k:] = np.minimum((cdf <= u[:, None]).sum(axis=-1), p.shape[-1] - 1)
            s = ids[k:] - n_forced
            actions[s, t] = token[k:]
            log_probs[s, t] = np.log(np.maximum(p[np.arange(k, len(ids)), token[k:]], LOGPROB_FLOOR))
            states[s, t] = state.data[k:, :2 * params.hidden_size]
            lengths[s] += 1
        stepped.append(ids)
        nodes.append(cross_entropy(logits, token, p))
        keep = np.flatnonzero((t + 1 < ends[ids]) & ((ids < n_forced) | (token != EOS_ID)))
        ids = ids[keep]
        return keep, token[keep]

    unroll(params, scene, step, steps)
    ran = len(nodes)
    ce_values = np.zeros((len(ends), ran))
    for t, (rows, node) in enumerate(zip(stepped, nodes)):
        ce_values[rows, t] = node.data
    return RowUnroll(stepped, nodes, ce_values,
                     Episodes(actions[:, :ran], log_probs[:, :ran], states[:, :ran], lengths),
                     n_forced)


def rollout_sample(params: PolicyParams, features: np.ndarray, t_max: int,
                   rng: np.random.Generator) -> Episodes:
    """Sample an episode from <bos>; stops at <eos> or t_max. The one-row
    view of unroll_rows, without a graph: inverse-CDF sampling, so identical
    seeds give identical episodes, and len() is the number of steps."""
    with no_grad():
        return unroll_rows(params, [features], [], t_max, [rng]).episodes


def forced_step_losses(params: PolicyParams, features: np.ndarray,
                       tokens: Sequence[int]) -> list[Tensor]:
    """Per-step (1,) cross-entropy nodes of a teacher-forced pass (imitation):
    the one-row view of unroll_rows."""
    return unroll_rows(params, [features], [tokens], len(tokens)).cross_entropy


def rollout_greedy(params: PolicyParams, features: np.ndarray, t_max: int) -> list[int]:
    """Stepwise argmax decoding of one scene as one row; ties break toward
    the lowest index."""
    out: list[int] = []

    def step(t: int, logits: Tensor, state: Tensor) -> tuple[np.ndarray, np.ndarray]:
        token = np.argmax(softmax_values(logits.data), axis=-1)
        out.append(int(token[0]))
        return np.flatnonzero(token != EOS_ID), token[token != EOS_ID]

    with no_grad():
        unroll(params, project_batch(params, [features]), step, t_max)
    return out


def beam_search(params: PolicyParams, features: np.ndarray, t_max: int,
                width: int) -> list[int]:
    """Keep the width highest cumulative-log-probability partials per step;
    finished sequences are held aside and compete on total log-probability.
    Ties resolve toward the lexicographically smaller token sequence.

    The live partials are the rows of one unroll: each step's rows are the
    parents of the partials that go on. Every candidate scoring at least the
    width-th largest score is sorted by (-score, token path), which picks the
    same width as a sort of all candidates. As no log-probability term is
    positive, a live score can only fall, so the search stops once the best
    finished score is strictly above every live score; an exact tie goes on
    for the token-path tie-break."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    vocab = params.vocab_size
    live_lp = np.zeros(1)
    live: list[tuple[int, ...]] = [()]
    done: list[tuple[float, tuple[int, ...]]] = []

    def step(t: int, logits: Tensor, state: Tensor) -> tuple[np.ndarray, np.ndarray]:
        nonlocal live_lp, live
        logd = np.log(np.maximum(softmax_values(logits.data), LOGPROB_FLOOR))
        scores = (live_lp[:, None] + logd).ravel()
        picked = np.arange(scores.size)
        if scores.size > width:
            picked = np.flatnonzero(scores >= -np.partition(-scores, width - 1)[width - 1])
        chosen = sorted((-float(scores[i]), live[i // vocab] + (int(i % vocab),), i // vocab)
                        for i in picked)[:width]
        keep = [(-neg, tokens, parent) for neg, tokens, parent in chosen if tokens[-1] != EOS_ID]
        done.extend((-neg, tokens) for neg, tokens, _ in chosen if tokens[-1] == EOS_ID)
        live_lp = np.array([lp for lp, _, _ in keep])
        live = [tokens for _, tokens, _ in keep]
        if done and live and max(lp for lp, _ in done) > live_lp.max():
            keep = []
        return (np.array([parent for _, _, parent in keep], dtype=np.intp),
                np.array([tokens[-1] for _, tokens, _ in keep], dtype=np.intp))

    with no_grad():
        unroll(params, project_batch(params, [features]), step, t_max)
    done.extend(zip(live_lp.tolist(), live))
    best = min(done, key=lambda c: (-c[0], c[1]))
    return list(best[1])
