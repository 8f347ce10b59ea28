"""Two-layer attention LSTM policy over region features, with stochastic
rollout, greedy decoding and beam search.

Step structure: a visual LSTM reads [previous language state, projected mean
features, previous word embedding]; its state attends over projected region
features; the attended feature vector and the visual state drive a language
LSTM whose state is projected to the next-word distribution. policy_step
runs all of it over plain arrays, one state array per sequence, [s_vis,
s_lang, c_vis, c_lang], computes both LSTMs' gates for lstm_cell_forward
and records no graph node: the one gradient path is RowUnroll.loss, one
node over the policy's Parameters whose backward pass runs an unroll's
steps in reverse through the kernel's backward helpers, which return their
gradients, and hands each Parameter its gradient once.

Two thirds of the visual LSTM's input is fixed within an unroll, per scene
row and per word, so project_batch multiplies those parts by the LSTM's
weights once per unroll, as plain arrays: a step's visual gates are one
matmul over its state's [s_vis, s_lang] columns plus a row of the
mean-feature term and a row of the word table.

Every sequence is a row: a scene is one row of project_batch, a word an int
vector with one entry per row and a state an (n, 4Z) array, so one scene
decodes as one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import (
    CE_EPSILON,
    LOGPROB_FLOOR,
    LstmParams,
    Parameter,
    ShapeError,
    Tensor,
    attend_grad,
    attend_values,
    attention_backward,
    attention_forward,
    check_index,
    init_lstm,
    lstm_cell_backward,
    lstm_cell_forward,
    softmax_values,
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
    vis: LstmParams       # input 3Z: [s_lang, W_v mean(v), W_e word]
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


@dataclass
class ProjectedScene:
    """What every step of one unroll reads and no step changes, one
    zero-padded scene per row, as plain arrays: the projected regions and
    the visual LSTM's step-invariant gate terms."""

    features: np.ndarray          # (n, m, E), constant
    region_proj: np.ndarray       # (n, m, Z), region i is W_v v_i
    mean_gates: np.ndarray        # (n, 4Z), the visual gates' term of W_v mean(v), plus its bias
    word_gates: np.ndarray        # (D, 4Z), the visual gates' term of each word's embedding
    W_state: np.ndarray           # (4Z, 2Z), the visual gate weights of [s_vis, s_lang]
    means: np.ndarray             # (n, E), each row's region mean, which RowUnroll's backward reads
    mask: np.ndarray | None = None    # (n, m): True on real regions; None when none are padded

    def take(self, rows: np.ndarray) -> "ProjectedScene":
        """The scenes of the given rows, in that order; a row may repeat."""
        return ProjectedScene(self.features[rows], self.region_proj[rows], self.mean_gates[rows],
                              self.word_gates, self.W_state, self.means[rows],
                              None if self.mask is None else self.mask[rows])


def project_batch(params: PolicyParams, features: Sequence[np.ndarray]) -> ProjectedScene:
    """One row per (m_r, E) scene: regions zero-padded to the largest m with
    a region mask, projected through W_v, and the visual LSTM's gate terms
    that are fixed within an unroll, from its W_x columns [s_lang | mean |
    word]: the (n, 4Z) term of each row's own W_v mean(v) plus the bias,
    the (D, 4Z) word table and the (4Z, 2Z) weights [W_h | W_x's s_lang
    columns] of [s_vis, s_lang]."""
    m = max(f.shape[0] for f in features)
    padded = np.zeros((len(features), m, features[0].shape[1]))
    mask = np.zeros((len(features), m), dtype=bool)
    for r, f in enumerate(features):
        padded[r, :f.shape[0]] = f
        mask[r, :f.shape[0]] = True
    means = np.array([np.asarray(f, dtype=np.float64).mean(axis=0) for f in features])
    vis, z, W_v = params.vis, params.hidden_size, params.W_v.data
    W_x = vis.W_x.data
    region_proj = (padded.reshape(-1, padded.shape[-1]) @ W_v.T).reshape((*padded.shape[:-1], z))
    return ProjectedScene(padded, region_proj, (means @ W_v.T) @ W_x[:, z:2 * z].T + vis.b.data,
                          params.W_e.data @ W_x[:, 2 * z:].T,
                          np.concatenate([vis.W_h.data, W_x[:, :z]], axis=1), means,
                          None if mask.all() else mask)


@dataclass
class StepRecord:
    """The plain arrays of one policy_step: the state it made, its attention
    weights and what RowUnroll.loss's reverse pass reads."""

    words: np.ndarray         # (n,) the previous words
    read: np.ndarray          # (n, 4Z) the state the step read
    state: np.ndarray         # (n, 4Z) the state it made
    features: np.ndarray      # (n, m, E) its rows' regions
    vis: tuple                # lstm_cell_forward's cache of the visual LSTM
    attn: np.ndarray          # (n, m) attention weights
    tanh: np.ndarray          # (n, m, Z) attention_forward's tanh
    x_lang: np.ndarray        # (n, E + Z) the language LSTM's input
    lang: tuple               # lstm_cell_forward's cache of the language LSTM


def policy_step(params: PolicyParams, prev_word: np.ndarray, state: np.ndarray | None,
                scene: ProjectedScene) -> tuple[np.ndarray, StepRecord]:
    """One decoding step for a row per sequence: an int vector of n previous
    words, (n, 4Z) states (None for the zero states) and an n-row
    project_batch scene. Returns (next-word logits, record), all plain
    arrays; a step records no graph node, and its gradient is
    _step_backward's, which RowUnroll.loss runs."""
    n, z = scene.features.shape[0], params.hidden_size
    if state is None:
        state = np.zeros((n, 4 * z))
    if np.shape(state) != (n, 4 * z) or np.shape(prev_word) != (n,):
        raise ShapeError(f"policy_step expects words ({n},) and states ({n}, {4 * z}), "
                         f"got {np.shape(prev_word)} and {np.shape(state)}")
    check_index(prev_word, params.vocab_size, "policy_step")
    gates = ((state[:, :2 * z] @ scene.W_state.T + scene.mean_gates)
             + scene.word_gates[prev_word])
    s_vis, c_vis, vis = lstm_cell_forward(gates, state[:, 2 * z:3 * z])
    attn, t = attention_forward(scene.region_proj, s_vis @ params.W_h.data.T,
                                params.W_a.data, scene.mask)
    x_lang = np.concatenate([attend_values(attn, scene.features), s_vis], axis=-1)
    lang = params.lang
    gates = (x_lang @ lang.W_x.data.T + lang.b.data) + state[:, z:2 * z] @ lang.W_h.data.T
    s_lang, c_lang, cell = lstm_cell_forward(gates, state[:, 3 * z:])
    new_state = np.concatenate([s_vis, s_lang, c_vis, c_lang], axis=-1)
    return (s_lang @ params.W_p.data.T,
            StepRecord(prev_word, state, new_state, scene.features, vis, attn, t, x_lang, cell))


def _step_backward(params: PolicyParams, step: StepRecord, W_state: np.ndarray,
                   g: np.ndarray) -> tuple[np.ndarray, ...]:
    """One step in reverse, given g (n, 4Z) on the state it made: returns
    the gradients on the state it read, on its visual and language gates,
    on W_h's projection of s_vis, on its pre-tanh attention sums (those of
    the regions, whose sum over the regions is the projection's) and on
    W_a."""
    z = params.hidden_size
    e = step.features.shape[-1]
    lang = params.lang
    d_lang, dc_lang = lstm_cell_backward(step.lang, g[:, z:2 * z], g[:, 3 * z:])
    dx_lang = d_lang @ lang.W_x.data
    d_w_a, d_pre = attention_backward(params.W_a.data, step.attn, step.tanh,
                                      attend_grad(step.features, dx_lang[:, :e]))
    d_hproj = d_pre.sum(axis=-2)
    d_gates, dc_vis = lstm_cell_backward(
        step.vis, g[:, :z] + dx_lang[:, e:] + d_hproj @ params.W_h.data, g[:, 2 * z:3 * z])
    d_read = d_gates @ W_state
    ds_lang = d_lang @ lang.W_h.data
    return (np.concatenate([d_read[:, :z], ds_lang + d_read[:, z:], dc_vis, dc_lang], axis=-1),
            d_gates, d_lang, d_hproj, d_pre, d_w_a)


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
           step: Callable[[int, np.ndarray, StepRecord], tuple[np.ndarray, np.ndarray]],
           t_max: int) -> None:
    """The one loop over policy_step. From <bos>, every row of the
    project_batch scene steps at once; after step t, step(t, logits, record)
    returns (rows, token): the positions of the rows that go on, in the
    order they go on (a row may repeat), and the word each of them feeds
    next. Unless rows is every row in order, the state and the scene rows
    are gathered before the next step. The loop ends when rows is empty or
    after t_max steps, with no gather after the last step."""
    state = None
    token = np.full(scene.features.shape[0], BOS_ID)
    for t in range(t_max):
        logits, record = policy_step(params, token, state, scene)
        rows, token = step(t, logits, record)
        if rows.size == 0 or t + 1 == t_max:
            return
        state = record.state
        if rows.size != state.shape[0] or (rows != np.arange(rows.size)).any():
            state, scene = state[rows], scene.take(rows)


@dataclass
class RowUnroll:
    """One unroll over the rows of a minibatch, teacher-forced rows first,
    kept as its steps' records instead of graph nodes. Step t ran on the
    rows rows[t] that had not finished, in ascending order, and each of them
    took one token: its reference token or the token it sampled."""

    rows: list[np.ndarray]          # per step, the ids of the rows that stepped
    ce_values: np.ndarray           # (rows, steps) -log(p + CE_EPSILON) of each row's token, 0 where a row did not step
    episodes: Episodes              # the sampled rows' episodes, row n_forced + i as row i
    n_forced: int                   # rows below n_forced are teacher-forced, the others sampled
    params: PolicyParams
    scene: ProjectedScene           # the project_batch scene of every row
    steps: list[StepRecord]         # per step, policy_step's record
    probs: list[np.ndarray]         # per step, the softmax of each row's logits
    tokens: list[np.ndarray]        # per step, the token each row took

    def loss(self, ce_weights: np.ndarray, lp_weights: np.ndarray | None = None) -> Tensor:
        """sum over steps t and rows r in rows[t] of ce_weights[r, t] CE_rt
        on the teacher-forced rows and lp_weights[r, t] logp_rt on the
        sampled rows, for (rows, steps) weight arrays; the weights of steps a
        row did not take are never read. -CE_rt stands in for logp_rt: its
        gradient is the same, and its value differs by at most
        log(1 + CE_EPSILON / p). The loss is one node over the policy's
        Parameters whose backward pass runs the unroll's steps in reverse.
        The unroll keeps only arrays, so neither the loss nor its gradient
        depends on the graph mode the unroll ran in."""
        if lp_weights is not None and not self.episodes.lengths.size:
            raise ValueError("log-prob weights need sampled rows")
        coefs = []
        value = 0.0
        for t, rows in enumerate(self.rows):
            k = np.searchsorted(rows, self.n_forced)
            w = np.zeros(len(rows))
            w[:k] = ce_weights[rows[:k], t]
            if lp_weights is not None:
                w[k:] = -lp_weights[rows[k:], t]
            coefs.append(w)
            value += np.dot(self.ce_values[rows, t], w)
        return Tensor(value, self.params.parameters(),
                      lambda g, accum: self._backward([g * c for c in coefs], accum), "unroll")

    def _backward(self, coefs: list[np.ndarray], accum) -> None:
        """The reverse pass for the loss weights coefs[t] of step t's rows:
        every step's logit gradient (softmax minus onehot, times its weight)
        at once, then the steps in reverse, each handing the gradient on the
        state it read to the step before. The running sums of the scene
        terms' gradients stay aligned with the current step's rows and
        spread out where rows ended, so they are summed per row (and per
        word) and multiplied through W_v, W_e and the visual LSTM's
        weights once. The per-step rows of each weight's gradient are
        stacked in reverse step order for one matmul, and W_a's and the
        language bias's per-step sums are added in that order, so accum
        gets each Parameter's gradient once."""
        params, scene, steps, z = self.params, self.scene, self.steps, self.params.hidden_size
        d_logits = np.concatenate(self.probs)
        d_logits[np.arange(d_logits.shape[0]), np.concatenate(self.tokens)] -= 1.0
        d_logits *= np.concatenate(coefs)[:, None]
        accum(params.W_p, d_logits.T @ np.concatenate([s.state[:, z:2 * z] for s in steps]))
        ds_lang = d_logits @ params.W_p.data
        n = self.rows[-1].size
        carry = np.zeros((n, 4 * z))    # the gradient on the state that step t made
        regions = np.zeros((n,) + scene.region_proj.shape[1:])
        mean = np.zeros((n, 4 * z))
        end = total = ds_lang.shape[0]
        # each step's visual and language gate and W_h gradient rows, in reverse step order
        gates, langs, hprojs = np.empty((total, 4 * z)), np.empty((total, 4 * z)), np.empty((total, z))
        d_b = d_w_a = 0.0
        for t in reversed(range(len(steps))):
            rows = self.rows[t]
            if rows.size != carry.shape[0]:         # rows that ended after step t come back
                keep = np.searchsorted(rows, self.rows[t + 1])
                carry, regions, mean = (_spread(a, keep, rows.size) for a in (carry, regions, mean))
            carry[:, z:2 * z] += ds_lang[end - rows.size:end]
            at = slice(total - end, total - end + rows.size)
            end -= rows.size
            carry, gates[at], langs[at], hprojs[at], d_pre, d_a = _step_backward(
                params, steps[t], scene.W_state, carry)
            regions += d_pre
            mean += gates[at]
            d_b = d_b + langs[at].sum(axis=0)
            d_w_a = d_w_a + d_a
        backwards = steps[::-1]                 # the order of gates, langs and hprojs
        lang, vis, W_x = params.lang, params.vis, params.vis.W_x.data
        accum(lang.W_x, langs.T @ np.concatenate([s.x_lang for s in backwards]))
        accum(lang.W_h, langs.T @ np.concatenate([s.read[:, z:2 * z] for s in backwards]))
        accum(lang.b, d_b)
        accum(params.W_h, hprojs.T @ np.concatenate([s.state[:, :z] for s in backwards]))
        accum(params.W_a, d_w_a)
        accum(params.W_v, np.concatenate([regions.reshape(-1, z), mean @ W_x[:, z:2 * z]]).T
              @ np.concatenate([scene.features.reshape(-1, params.feature_dim), scene.means]))
        accum(vis.b, mean.sum(axis=0))
        words = np.concatenate([s.words for s in backwards])
        onehot = np.zeros((words.size, params.vocab_size))
        onehot[np.arange(words.size), words] = 1.0
        word = onehot.T @ gates
        accum(params.W_e, word @ W_x[:, 2 * z:])
        state = gates.T @ np.concatenate([s.read[:, :2 * z] for s in backwards])
        accum(vis.W_h, state[:, :z])
        accum(vis.W_x, np.concatenate([state[:, z:], mean.T @ (scene.means @ params.W_v.data.T),
                                       word.T @ params.W_e.data], axis=1))


def _spread(a: np.ndarray, keep: np.ndarray, n: int) -> np.ndarray:
    """a's rows at positions keep of n zero rows."""
    out = np.zeros((n,) + a.shape[1:])
    out[keep] = a
    return out


def unroll_rows(params: PolicyParams, features: Sequence[np.ndarray],
                forced: Sequence[Sequence[int]], t_max: int,
                rngs: Sequence[np.random.Generator] = ()) -> RowUnroll:
    """Unroll a minibatch over (rows, .) arrays: a teacher-forced row per
    reference (row r reads features[r] and is fed forced[r]), then a
    sampled row per generator (row len(forced) + i reads features[i] and
    draws its inverse-CDF u from rngs[i] alone, once per step it takes,
    from its own softmax row).

    A forced row ends after its last token, and a sampled row at <eos> or
    after t_max steps, so at most max(t_max, longest reference) steps run.
    After every step the rows that ended drop out: unroll gathers the state
    and scene rows of the others, so no step runs on a finished row and
    finished rows and padded regions get exactly zero gradient. Each step's
    record is kept for the one node of RowUnroll.loss, which the caller
    weights after it has scored the sampled episodes, so the whole minibatch
    has one backward pass."""
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
    states = np.zeros((len(rngs), steps, 2 * params.hidden_size))   # the sampled rows'
    stepped: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    taken: list[np.ndarray] = []
    records: list[StepRecord] = []

    def step(t: int, logits: np.ndarray, record: StepRecord) -> tuple[np.ndarray, np.ndarray]:
        nonlocal ids
        p = softmax_values(logits)
        k = np.searchsorted(ids, n_forced)
        token = np.empty(len(ids), dtype=np.intp)
        token[:k] = tokens[ids[:k], t]
        if k < len(ids):
            u = np.array([rngs[r - n_forced].random() for r in ids[k:]])
            cdf = np.cumsum(p[k:], axis=-1)
            # searchsorted(cdf, u, side="right") per row: the count of cdf <= u
            token[k:] = np.minimum((cdf <= u[:, None]).sum(axis=-1), p.shape[-1] - 1)
            states[ids[k:] - n_forced, t] = record.state[k:, :2 * params.hidden_size]
        records.append(record)
        stepped.append(ids)
        probs.append(p)
        taken.append(token)
        keep = np.flatnonzero((t + 1 < ends[ids]) & ((ids < n_forced) | (token != EOS_ID)))
        ids = ids[keep]
        return keep, token[keep]

    unroll(params, scene, step, steps)
    # the per-step values of all steps at once, as (rows, steps) arrays with
    # 0 where a row did not step; the sampled rows' as row i of their episodes
    ran = len(stepped)
    rows, took = np.concatenate(stepped), np.concatenate(taken)
    at = np.repeat(np.arange(ran), [r.size for r in stepped])
    picked = np.concatenate(probs)[np.arange(rows.size), took]
    ce_values = np.zeros((len(ends), ran))
    ce_values[rows, at] = -np.log(picked + CE_EPSILON)
    s = rows >= n_forced
    actions = np.zeros((len(rngs), ran), dtype=np.intp)
    log_probs = np.zeros((len(rngs), ran))
    actions[rows[s] - n_forced, at[s]] = took[s]
    log_probs[rows[s] - n_forced, at[s]] = np.log(np.maximum(picked[s], LOGPROB_FLOOR))
    lengths = np.bincount(rows[s] - n_forced, minlength=len(rngs))
    return RowUnroll(stepped, ce_values, Episodes(actions, log_probs, states[:, :ran], lengths),
                     n_forced, params, scene, records, probs, taken)


def rollout_sample(params: PolicyParams, features: np.ndarray, t_max: int,
                   rng: np.random.Generator) -> Episodes:
    """Sample an episode from <bos>; stops at <eos> or t_max. The one-row
    view of unroll_rows, without a graph: inverse-CDF sampling, so identical
    seeds give identical episodes, and len() is the number of steps."""
    return unroll_rows(params, [features], [], t_max, [rng]).episodes


def forced_step_losses(params: PolicyParams, features: np.ndarray,
                       tokens: Sequence[int]) -> np.ndarray:
    """The per-step cross-entropies of a teacher-forced pass (imitation), one
    value per step: the one-row view of unroll_rows, without a graph."""
    return unroll_rows(params, [features], [tokens], len(tokens)).ce_values[0]


def rollout_greedy(params: PolicyParams, features: np.ndarray, t_max: int) -> list[int]:
    """Stepwise argmax decoding of one scene as one row; ties break toward
    the lowest index."""
    out: list[int] = []

    def step(t: int, logits: np.ndarray, record: StepRecord) -> tuple[np.ndarray, np.ndarray]:
        token = np.argmax(softmax_values(logits), axis=-1)
        out.append(int(token[0]))
        return np.flatnonzero(token != EOS_ID), token[token != EOS_ID]

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

    def step(t: int, logits: np.ndarray, record: StepRecord) -> tuple[np.ndarray, np.ndarray]:
        nonlocal live_lp, live
        logd = np.log(np.maximum(softmax_values(logits), LOGPROB_FLOOR))
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

    unroll(params, project_batch(params, [features]), step, t_max)
    done.extend(zip(live_lp.tolist(), live))
    best = min(done, key=lambda c: (-c[0], c[1]))
    return list(best[1])
