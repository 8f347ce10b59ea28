"""Two-layer attention LSTM policy over region features, with the one
unroll loop that training and decoding share and one search at any width.

Step structure: a visual LSTM reads [previous language state, projected mean
features, previous word embedding]; its state attends over projected region
features; the attended feature vector and the visual state drive a language
LSTM whose state is projected to the next-word distribution. policy_step
runs all of it over plain arrays and records no graph node.

Every sequence is a row: a scene is one row of project_batch, a word an int
vector and a state an (n, 4Z) array [s_vis, s_lang, c_vis, c_lang], zero at
<bos>. Two thirds of the visual LSTM's input is fixed within an unroll, so
project_batch multiplies those parts by its weights once per unroll. unroll
hands each step's softmax to its caller and gathers the state rows that go on,
and their scene rows unless the scene is one row, which every row reads.

A training unroll keeps one StepRecord per step, which holds each value once:
the words, the state made, the attention weights, the attended features and
each LSTM cell's activations, and one (rows, steps) token matrix whose
sampled rows are the episodes'. RowUnroll.loss, the one gradient path, is a
node whose backward runs the steps in reverse over those records, recomputes
bit for bit what they leave out (the state read, the attention's tanh and
each cell's tanh(c)) and hands each of the 11 Parameters its gradient once.
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
                feature_dim: int) -> PolicyParams:
    return PolicyParams(
        W_e=xavier_uniform(rng, (vocab_size, hidden), "policy.W_e"),
        W_v=xavier_uniform(rng, (hidden, feature_dim), "policy.W_v"),
        W_h=xavier_uniform(rng, (hidden, hidden), "policy.W_h"),
        W_a=xavier_uniform(rng, (hidden,), "policy.W_a"),
        W_p=xavier_uniform(rng, (vocab_size, hidden), "policy.W_p"),
        vis=init_lstm(rng, "policy.vis", 3 * hidden, hidden),
        lang=init_lstm(rng, "policy.lang", feature_dim + hidden, hidden),
    )


@dataclass
class ProjectedScene:
    """What every step of one unroll reads and no step changes, one
    zero-padded scene per row, as plain arrays: the projected regions, the
    mask of the real ones and the visual LSTM's step-invariant gate terms."""

    features: np.ndarray          # (n, m, E), constant
    region_proj: np.ndarray       # (n, m, Z), region i is W_v v_i
    mean_gates: np.ndarray        # (n, 4Z), the visual gates' term of W_v mean(v), plus its bias
    word_gates: np.ndarray        # (D, 4Z), the visual gates' term of each word's embedding
    W_state: np.ndarray           # (4Z, 2Z), the visual gate weights of [s_vis, s_lang]
    means: np.ndarray             # (n, E), each row's region mean, which RowUnroll's backward reads
    mask: np.ndarray              # (n, m): True on real regions

    def take(self, rows: np.ndarray) -> "ProjectedScene":
        """The scenes of the given rows, in that order; a row may repeat."""
        return ProjectedScene(self.features[rows], self.region_proj[rows], self.mean_gates[rows],
                              self.word_gates, self.W_state, self.means[rows], self.mask[rows])


def project_batch(params: PolicyParams, features: Sequence[np.ndarray]) -> ProjectedScene:
    """One row per (m_r, E) scene: regions zero-padded to the largest m with
    an (n, m) mask that is True on the real regions (all True when no scene
    is padded), projected through W_v, and the visual LSTM's gate terms
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
                          np.concatenate([vis.W_h.data, W_x[:, :z]], axis=1), means, mask)


@dataclass
class StepRecord:
    """The plain arrays of one policy_step: the state it made, its attention
    weights and what RowUnroll.loss's reverse pass reads. It holds each
    value once: no regions (the scene has them), and of the language LSTM's
    input [attended, s_vis] only the attended features, s_vis being
    state[:, :Z]. Nor does it hold the state read (the step before's), the
    attention's (n, m, Z) tanh or a cell's tanh(c): the reverse pass remakes them."""

    words: np.ndarray         # (n,) the previous words
    state: np.ndarray         # (n, 4Z) the state it made
    vis: np.ndarray           # (n, 4Z) the visual LSTM's activations
    attn: np.ndarray          # (n, m) attention weights
    attended: np.ndarray      # (n, E) the attended features
    lang: np.ndarray          # (n, 4Z) the language LSTM's activations


def policy_step(params: PolicyParams, prev_word: np.ndarray, state: np.ndarray,
                scene: ProjectedScene) -> tuple[np.ndarray, StepRecord]:
    """One decoding step for a row per sequence: an int vector of n previous
    words, the (n, 4Z) states they read (zeros at <bos>) and a project_batch
    scene of n rows, or of one row that every row reads. Returns
    (next-word logits, record), all plain arrays; a step records no graph
    node, and its gradient is _step_backward's, which RowUnroll.loss runs."""
    z = params.hidden_size
    n = len(prev_word) if np.ndim(prev_word) == 1 else -1
    if n < 0 or scene.features.shape[0] not in (1, n) or np.shape(state) != (n, 4 * z):
        raise ShapeError(f"policy_step expects words (n,) and states (n, {4 * z}) for a scene "
                         f"of n or 1 rows, got {np.shape(prev_word)} and {np.shape(state)} "
                         f"for {scene.features.shape[0]} rows")
    check_index(prev_word, params.vocab_size, "policy_step")
    gates = ((state[:, :2 * z] @ scene.W_state.T + scene.mean_gates)
             + scene.word_gates[prev_word])
    s_vis, c_vis, vis = lstm_cell_forward(gates, state[:, 2 * z:3 * z])
    attn, _ = attention_forward(scene.region_proj, s_vis @ params.W_h.data.T,
                                params.W_a.data, scene.mask)
    attended = attend_values(attn, scene.features)
    lang = params.lang
    gates = ((np.concatenate([attended, s_vis], axis=-1) @ lang.W_x.data.T + lang.b.data)
             + state[:, z:2 * z] @ lang.W_h.data.T)
    s_lang, c_lang, cell = lstm_cell_forward(gates, state[:, 3 * z:])
    new_state = np.concatenate([s_vis, s_lang, c_vis, c_lang], axis=-1)
    return (s_lang @ params.W_p.data.T,
            StepRecord(prev_word, new_state, vis[1], attn, attended, cell[1]))


def _step_backward(params: PolicyParams, step: StepRecord, read: np.ndarray,
                   features: np.ndarray, projected: np.ndarray, W_state: np.ndarray,
                   g: np.ndarray) -> tuple[np.ndarray, ...]:
    """One step in reverse, given the (n, 4Z) state it read, its rows'
    (n, m, E) regions and (n, m, Z) projected regions and g (n, 4Z) on the
    state it made: returns the gradients on the state it read, on its
    visual and language gates, on W_h's projection of s_vis, on its
    pre-tanh attention sums (those of the regions, whose sum over the
    regions is the projection's) and on W_a. The attention's tanh and each
    cell's tanh(c) are recomputed from the regions and the state made."""
    z = params.hidden_size
    e = features.shape[-1]
    lang, state = params.lang, step.state
    d_lang, dc_lang = lstm_cell_backward((read[:, 3 * z:], step.lang, np.tanh(state[:, 3 * z:])),
                                         g[:, z:2 * z], g[:, 3 * z:])
    dx_lang = d_lang @ lang.W_x.data
    t = np.tanh(projected + (state[:, :z] @ params.W_h.data.T)[:, None, :])
    d_w_a, d_pre = attention_backward(params.W_a.data, step.attn, t,
                                      attend_grad(features, dx_lang[:, :e]))
    d_hproj = d_pre.sum(axis=-2)
    d_gates, dc_vis = lstm_cell_backward(
        (read[:, 2 * z:3 * z], step.vis, np.tanh(state[:, 2 * z:3 * z])),
        g[:, :z] + dx_lang[:, e:] + d_hproj @ params.W_h.data, g[:, 2 * z:3 * z])
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
    """The one loop over policy_step. From <bos> and the zero state, every
    row of the project_batch scene steps at once; after step t, step(t,
    softmax of the logits, record) returns (rows, token): the positions of
    the rows that go on, in the order they go on (a row may repeat), and
    the word each of them feeds next. Unless rows is every row in order,
    the state rows are gathered before the next step, and so are the scene
    rows, except of a one-row scene, which every row reads as it is. The
    loop ends when rows is empty or after t_max steps, with no gather after
    the last step."""
    token = np.full(scene.features.shape[0], BOS_ID)
    state = np.zeros((token.size, 4 * params.hidden_size))
    for t in range(t_max):
        logits, record = policy_step(params, token, state, scene)
        rows, token = step(t, softmax_values(logits), record)
        if rows.size == 0 or t + 1 == t_max:
            return
        state = record.state
        if rows.tolist() != list(range(state.shape[0])):
            state = state[rows]
            if scene.features.shape[0] > 1:
                scene = scene.take(rows)


@dataclass
class RowUnroll:
    """One unroll over the rows of a minibatch, teacher-forced rows first,
    kept as its steps' records instead of graph nodes. Step t ran on the
    rows rows[t] that had not finished, in ascending order, and each of them
    took one token: its reference token or the token it sampled."""

    rows: list[np.ndarray]          # per step, the ids of the rows that stepped
    ce_values: np.ndarray           # (rows, steps) -log(p + CE_EPSILON) of each row's token, 0 where a row did not step
    episodes: Episodes              # views of the sampled rows, which follow the forced ones
    params: PolicyParams
    scene: ProjectedScene           # the project_batch scene of every row
    steps: list[StepRecord]         # per step, policy_step's record
    probs: list[np.ndarray]         # per step, the softmax of each row's logits
    tokens: np.ndarray              # the token of each row of rows[0], then of rows[1], ...

    def loss(self, weights: np.ndarray) -> Tensor:
        """sum over steps t and rows r in rows[t] of weights[r, t] CE_rt, for
        a (rows, steps) weight array, whatever chose each row's token; the
        weights of steps a row did not take are never read. On a sampled
        row, weight A_t is the policy-gradient term -A_t logp_rt: -CE_rt
        stands in for logp_rt, with the same gradient and a value that
        differs by at most log(1 + CE_EPSILON / p). The loss is one node
        over the policy's Parameters whose backward pass runs the unroll's
        steps in reverse. The unroll keeps only arrays, so neither the loss
        nor its gradient depends on the graph mode the unroll ran in."""
        coefs, value = [], 0.0
        for t, rows in enumerate(self.rows):
            coefs.append(weights[rows, t])
            value += np.dot(self.ce_values[rows, t], coefs[-1])
        return Tensor(value, self.params.parameters(),
                      lambda g, accum: self._backward([g * c for c in coefs], accum), "unroll")

    def _backward(self, coefs: list[np.ndarray], accum) -> None:
        """The reverse pass for the loss weights coefs[t] of step t's rows:
        every step's logit gradient (softmax minus onehot, times its weight)
        at once, then the steps in reverse, each handing the gradient on the
        state it read to the step before. The running sums of the scene
        terms' gradients hold a row per unroll row, indexed by each step's
        row ids, so they are summed per row (and per word) and multiplied
        through W_v, W_e and the visual LSTM's weights once. The per-step
        rows of each weight's gradient are stacked in reverse step order for
        one matmul, and W_a's and the language bias's per-step sums are added
        in that order, so accum gets each Parameter's gradient once."""
        params, scene, steps, z = self.params, self.scene, self.steps, self.params.hidden_size
        d_logits = np.concatenate(self.probs)
        d_logits[np.arange(d_logits.shape[0]), self.tokens] -= 1.0
        d_logits *= np.concatenate(coefs)[:, None]
        accum(params.W_p, d_logits.T @ np.concatenate([s.state[:, z:2 * z] for s in steps]))
        ds_lang = d_logits @ params.W_p.data
        del d_logits
        n = self.rows[0].size
        carry = np.zeros((n, 4 * z))    # per row, the gradient on the state that step t made
        regions = np.zeros((n,) + scene.region_proj.shape[1:])
        mean = np.zeros((n, 4 * z))
        end = total = ds_lang.shape[0]
        # each step's gate, language gate, W_h gradient and read [s_vis, s_lang] rows, in reverse step order
        gates, langs, hprojs, reads = (np.empty((total, k * z)) for k in (4, 4, 1, 2))
        d_b = d_w_a = 0.0
        for t in reversed(range(len(steps))):
            rows = self.rows[t]
            # the state step t read: zeros, or step t - 1's rows that went on
            read = (np.zeros((rows.size, 4 * z)) if t == 0
                    else steps[t - 1].state[np.searchsorted(self.rows[t - 1], rows)])
            g = carry[rows]
            g[:, z:2 * z] += ds_lang[end - rows.size:end]
            at = slice(total - end, total - end + rows.size)
            end -= rows.size
            reads[at] = read[:, :2 * z]
            carry[rows], gates[at], langs[at], hprojs[at], d_pre, d_a = _step_backward(
                params, steps[t], read, scene.features[rows], scene.region_proj[rows],
                scene.W_state, g)
            regions[rows] += d_pre
            mean[rows] += gates[at]
            d_b = d_b + langs[at].sum(axis=0)
            d_w_a = d_w_a + d_a
        del ds_lang
        # each stack is freed after the last matmul that reads it
        backwards = steps[::-1]                 # the order of gates, langs and hprojs
        lang, vis, W_x = params.lang, params.vis, params.vis.W_x.data
        x = _lang_inputs(backwards, z)          # [attended | s_vis]
        accum(lang.W_x, langs.T @ x)
        accum(params.W_h, hprojs.T @ x[:, -z:])
        del x, hprojs
        accum(lang.W_h, langs.T @ reads[:, z:])
        del langs
        accum(lang.b, d_b)
        accum(params.W_a, d_w_a)
        accum(params.W_v, np.concatenate([regions.reshape(-1, z), mean @ W_x[:, z:2 * z]]).T
              @ np.concatenate([scene.features.reshape(-1, params.feature_dim), scene.means]))
        accum(vis.b, mean.sum(axis=0))
        state = gates.T @ reads
        del reads
        words = np.concatenate([s.words for s in backwards])
        onehot = np.zeros((words.size, params.vocab_size))
        onehot[np.arange(words.size), words] = 1.0
        word = onehot.T @ gates
        del onehot, gates
        accum(params.W_e, word @ W_x[:, 2 * z:])
        accum(vis.W_h, state[:, :z])
        accum(vis.W_x, np.concatenate([state[:, z:], mean.T @ (scene.means @ params.W_v.data.T),
                                       word.T @ params.W_e.data], axis=1))


def _lang_inputs(steps: list[StepRecord], z: int) -> np.ndarray:
    """The language LSTM's inputs [attended | s_vis] of the steps' rows,
    stacked in the order of steps."""
    e = steps[0].attended.shape[-1]
    x = np.empty((sum(s.attended.shape[0] for s in steps), e + z))
    np.concatenate([s.attended for s in steps], out=x[:, :e])
    np.concatenate([s.state[:, :z] for s in steps], out=x[:, e:])
    return x


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
    One (rows, steps) matrix holds every row's tokens: the references from
    the start, each sampled token once drawn. After every step the rows
    that ended drop out: unroll gathers the state and scene rows of the
    others, so no step runs on a finished row and finished rows and padded
    regions get exactly zero gradient. Each step's record is kept for the
    one node of RowUnroll.loss, which the caller weights after it has
    scored the sampled episodes, so the whole minibatch has one backward
    pass."""
    n, n_forced = len(features), len(forced)
    if n_forced not in (0, n) or len(rngs) not in (0, n) or not n_forced + len(rngs):
        raise ValueError(f"{n} scenes need a reference each, a generator each, or both")
    if not all(forced):
        raise ValueError("cannot unroll an empty reference")
    if rngs and t_max < 1:
        raise ValueError("t_max must be >= 1")
    ends = np.array([len(ref) for ref in forced] + [t_max] * len(rngs))
    steps = int(ends.max())
    actions = np.zeros((len(ends), steps), dtype=np.intp)   # every row's tokens
    for r, ref in enumerate(forced):
        actions[r, :len(ref)] = ref
    scene = project_batch(params, (list(features) if forced else [])
                          + (list(features) if rngs else []))
    ids = np.arange(len(ends))          # the rows of the current step
    states = np.zeros((len(rngs), steps, 2 * params.hidden_size))   # the sampled rows'
    stepped: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    records: list[StepRecord] = []

    def step(t: int, p: np.ndarray, record: StepRecord) -> tuple[np.ndarray, np.ndarray]:
        nonlocal ids
        k = np.searchsorted(ids, n_forced)
        if k < len(ids):
            u = np.array([rngs[r - n_forced].random() for r in ids[k:]])
            cdf = np.cumsum(p[k:], axis=-1)
            # searchsorted(cdf, u, side="right") per row: the count of cdf <= u
            actions[ids[k:], t] = np.minimum((cdf <= u[:, None]).sum(axis=-1), p.shape[-1] - 1)
            states[ids[k:] - n_forced, t] = record.state[k:, :2 * params.hidden_size]
        token = actions[ids, t]
        records.append(record)
        stepped.append(ids)
        probs.append(p)
        keep = np.flatnonzero((t + 1 < ends[ids]) & ((ids < n_forced) | (token != EOS_ID)))
        ids = ids[keep]
        return keep, token[keep]

    unroll(params, scene, step, steps)
    # the values of all steps at once, as (rows, steps) arrays with 0 where a
    # row did not step; a forced row's log_probs cost a log per step, not a mask
    ran = len(stepped)
    rows = np.concatenate(stepped)
    at = np.repeat(np.arange(ran), [r.size for r in stepped])
    took = actions[rows, at]
    picked = np.concatenate(probs)[np.arange(rows.size), took]
    ce_values = np.zeros((len(ends), ran))
    log_probs = np.zeros((len(ends), ran))
    ce_values[rows, at] = -np.log(picked + CE_EPSILON)
    log_probs[rows, at] = np.log(np.maximum(picked, LOGPROB_FLOOR))
    episodes = Episodes(actions[n_forced:, :ran], log_probs[n_forced:], states[:, :ran],
                        np.bincount(rows, minlength=len(ends))[n_forced:])
    return RowUnroll(stepped, ce_values, episodes, params, scene, records, probs, took)


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
    """Greedy decoding, the search at width 1: until <eos> or t_max, the word
    of the highest log(max(p, LOGPROB_FLOOR)), the lower id where two
    probabilities round to one log (argmax(p) would take the larger p)."""
    return _search(params, features, t_max, 1)


def beam_search(params: PolicyParams, features: np.ndarray, t_max: int,
                width: int) -> list[int]:
    """Keep the width highest cumulative-log-probability partials per step;
    finished sequences are held aside and compete on total log-probability.
    Ties resolve toward the lexicographically smaller token sequence."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    return _search(params, features, t_max, width)


def _search(params: PolicyParams, features: np.ndarray, t_max: int, width: int) -> list[int]:
    """The one decoding search, which rollout_greedy and beam_search call, not
    each other: probes replace their names in this module. The live partials
    are the rows of one unroll: each step's rows are the parents of the
    partials that go on. Every candidate scoring at least the width-th
    largest score is sorted by (-score, token path), which picks the same
    width as a sort of all candidates; done keeps the first finished one in
    that order. No log-probability term is positive, so the search stops
    once done's score is strictly above every live score; an exact tie goes
    on for the token-path tie-break."""
    vocab = params.vocab_size
    live_neg, live, done = np.zeros(1), [()], (np.inf, ())  # -scores, token paths

    def step(t: int, p: np.ndarray, record: StepRecord) -> tuple[np.ndarray, np.ndarray]:
        nonlocal live_neg, live, done
        logd = np.log(np.maximum(p, LOGPROB_FLOOR))
        neg = (live_neg[:, None] - logd).ravel()
        k = min(width, neg.size) - 1
        part = neg.copy()
        part.partition(k)
        picked = (neg <= part[k]).nonzero()[0].tolist()
        chosen = sorted((s, live[i // vocab] + (i % vocab,), i // vocab)
                        for i, s in zip(picked, neg[picked].tolist()))[:width]
        keep = []
        for s, tokens, parent in chosen:
            if tokens[-1] == EOS_ID:
                done = min(done, (s, tokens))
            else:
                keep.append((s, tokens, parent))
        live_neg, live = np.array([c[0] for c in keep]), [c[1] for c in keep]
        if keep and done[0] < keep[0][0]:
            keep = []
        return (np.array([c[2] for c in keep], dtype=np.intp),
                np.array([c[1][-1] for c in keep], dtype=np.intp))

    unroll(params, project_batch(params, [features]), step, t_max)
    return list(min([done, *zip(live_neg.tolist(), live)])[1])


def decode(params: PolicyParams, features: np.ndarray, t_max: int, width: int) -> list[int]:
    """One scene's paragraph: beam_search above width 1, else rollout_greedy,
    each looked up in this module at the call, where probes replace them."""
    if width > 1:
        return beam_search(params, features, t_max, width)
    return rollout_greedy(params, features, t_max)
