"""Two-layer attention LSTM policy over region features, with stochastic
rollout, greedy decoding and beam search.

Step structure: a visual LSTM reads [previous language state, projected mean
features, previous word embedding]; its state attends over projected region
features; the attended feature vector and the visual state drive a language
LSTM whose state is projected to the next-word distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .kernel import (
    LOGPROB_FLOOR,
    LstmParams,
    Parameter,
    Tensor,
    add_n,
    additive_attention,
    affine,
    attend,
    concat,
    constant,
    cross_entropy,
    dotp,
    init_lstm,
    logprob,
    lstm_cell,
    no_grad,
    project_rows,
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


@dataclass
class PolicyState:
    """Hidden and cell states of both LSTMs; concat is [s_vis, s_lang]."""

    s_vis: Tensor
    c_vis: Tensor
    s_lang: Tensor
    c_lang: Tensor
    concat: Tensor


def initial_state(params: PolicyParams, rows: tuple[int, ...] = ()) -> PolicyState:
    """Zero states: vectors, or one row each for rows == (n,)."""
    z = params.hidden_size
    zero = constant(np.zeros(rows + (z,)))
    return PolicyState(zero, zero, zero, zero, constant(np.zeros(rows + (2 * z,))))


@dataclass
class ProjectedScene:
    """Per-scene tensors reused across steps of one unrolled graph; with a
    leading row axis, one zero-padded scene per row."""

    features: np.ndarray          # (m, E) or (n, m, E), constant
    region_proj: Tensor           # (m, Z) or (n, m, Z), region i is W_v v_i
    mean_proj: Tensor             # W_v mean(v), (Z,) or (n, Z)
    mask: np.ndarray | None = None    # (n, m): True on real regions; None when none are padded


def project_scene(params: PolicyParams, features: np.ndarray) -> ProjectedScene:
    features = np.asarray(features, dtype=np.float64)
    region_proj = project_rows(features, params.W_v)
    mean_proj = affine(constant(features.mean(axis=0)), params.W_v)
    return ProjectedScene(features=features, region_proj=region_proj, mean_proj=mean_proj)


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


def policy_step(params: PolicyParams, prev_word, state: PolicyState | None,
                scene: ProjectedScene | np.ndarray):
    """One decoding step, for one sequence (an int prev_word) or for a row
    per sequence (an int array and a project_batch scene).

    Returns (next-word logits, new state, attended features, attention
    weights).
    """
    if not isinstance(scene, ProjectedScene):
        scene = project_scene(params, scene)
    if state is None:
        state = initial_state(params, scene.mean_proj.shape[:-1])

    emb = take_row(params.W_e, prev_word)
    x_vis = concat([state.s_lang, scene.mean_proj, emb])
    s_vis, c_vis = lstm_cell(x_vis, state.s_vis, state.c_vis, params.vis)

    h_proj = affine(s_vis, params.W_h)
    attn = additive_attention(scene.region_proj, h_proj, params.W_a, scene.mask)
    v_hat = attend(attn, scene.features)

    x_lang = concat([v_hat, s_vis])
    s_lang, c_lang = lstm_cell(x_lang, state.s_lang, state.c_lang, params.lang)
    logits = affine(s_lang, params.W_p)
    new_state = PolicyState(s_vis, c_vis, s_lang, c_lang, concat([s_vis, s_lang]))
    return logits, new_state, v_hat, attn


@dataclass
class RolloutTrace:
    """Per-step record of one sampled or forced episode."""

    actions: list[int] = field(default_factory=list)
    log_probs: list[float] = field(default_factory=list)
    logprob_nodes: list[Tensor] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)      # concat values (2Z,)
    attention: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def ended_with_eos(self) -> bool:
        return bool(self.actions) and self.actions[-1] == EOS_ID

    def record(self, action: int, logits: Tensor, state: PolicyState, attn: Tensor) -> None:
        node = logprob(logits, action)
        self.actions.append(action)
        self.log_probs.append(float(node.data))
        self.logprob_nodes.append(node)
        self.states.append(state.concat.data.copy())
        self.attention.append(attn.data.copy())


def unroll(params: PolicyParams, scene: ProjectedScene | np.ndarray,
           choose: Callable[[int, Tensor], int], t_max: int) -> Iterator[tuple]:
    """The one loop over policy_step. From <bos>, step t feeds back the token
    choose(t, logits) and yields (token, logits, state, attention); a caller
    stops early by leaving the loop. On a project_batch scene every row
    steps at once and choose returns one token per row."""
    if not isinstance(scene, ProjectedScene):
        scene = project_scene(params, scene)
    rows = scene.mean_proj.shape[:-1]
    state: PolicyState | None = None
    token = np.full(rows, BOS_ID) if rows else BOS_ID
    for t in range(t_max):
        logits, state, _, attn = policy_step(params, token, state, scene)
        token = choose(t, logits)
        yield token, logits, state, attn


def _forced(params: PolicyParams, features: np.ndarray,
            tokens: Sequence[int]) -> Iterator[tuple]:
    """Teacher-forced steps over tokens; they do not stop at <eos>."""
    if not tokens:
        raise ValueError("cannot unroll an empty sequence")
    return unroll(params, features, lambda t, logits: int(tokens[t]), len(tokens))


def sample_rows(params: PolicyParams, features: Sequence[np.ndarray], t_max: int,
                rngs: Sequence[np.random.Generator]) -> list[RolloutTrace]:
    """Sample one episode per scene as one row unroll under no_grad: row r
    reads features[r] and draws its inverse-CDF u from rngs[r] alone, so its
    episode does not depend on the other rows. A row ends at <eos> or t_max;
    a finished row is fed <eos>, draws nothing and records nothing, and the
    loop stops once every row has finished. Each step's log-prob is read
    from the sampler's own softmax row, so the traces carry no graph."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if len(rngs) != len(features):
        raise ValueError(f"{len(features)} scenes need as many generators, got {len(rngs)}")
    n = len(features)
    live = np.ones(n, dtype=bool)
    lengths = np.zeros(n, dtype=np.intp)
    dist = np.empty(0)
    steps: list[tuple] = []

    def choose(t: int, logits: Tensor) -> np.ndarray:
        nonlocal dist
        dist = softmax_values(logits.data)
        rows = np.flatnonzero(live)
        u = np.array([rngs[r].random() for r in rows])
        cdf = np.cumsum(dist[rows], axis=-1)
        token = np.full(n, EOS_ID)
        # searchsorted(cdf, u, side="right") per row: the count of cdf <= u
        token[rows] = np.minimum((cdf <= u[:, None]).sum(axis=-1), dist.shape[-1] - 1)
        return token

    with no_grad():
        for token, _, state, attn in unroll(params, project_batch(params, features),
                                            choose, t_max):
            picked = dist[np.arange(n), token]
            steps.append((token, np.log(np.maximum(picked, LOGPROB_FLOOR)),
                          state.concat.data, attn.data))
            lengths += live
            live &= token != EOS_ID
            if not live.any():
                break
    actions, log_probs, states, attention = (np.stack(part, axis=1) for part in zip(*steps))
    return [RolloutTrace(actions=actions[r, :k].tolist(), log_probs=log_probs[r, :k].tolist(),
                         states=list(states[r, :k]),
                         attention=list(attention[r, :k, :f.shape[0]]))
            for r, (k, f) in enumerate(zip(lengths, features))]


def rollout_sample(params: PolicyParams, features: np.ndarray, t_max: int,
                   rng: np.random.Generator) -> RolloutTrace:
    """Sample an episode from <bos>; stops at <eos> or t_max. The one-row
    view of sample_rows: inverse-CDF sampling, so identical seeds give
    identical traces, and no log-prob nodes."""
    return sample_rows(params, [features], t_max, [rng])[0]


def unroll_forced(params: PolicyParams, features: np.ndarray,
                  tokens: Sequence[int]) -> RolloutTrace:
    """Teacher-forced unroll over a fixed token sequence, recording the
    same per-step quantities as a sampled rollout."""
    trace = RolloutTrace()
    for step in _forced(params, features, tokens):
        trace.record(*step)
    return trace


def forced_step_losses(params: PolicyParams, features: np.ndarray,
                       tokens: Sequence[int]) -> list[Tensor]:
    """Per-step cross-entropy nodes of a teacher-forced pass (imitation)."""
    return [cross_entropy(logits, tok)
            for tok, logits, _, _ in _forced(params, features, tokens)]


@dataclass
class RowScores:
    """The weighted loss of a batched teacher-forced pass, with the per-step
    values behind it (0 on padded steps)."""

    loss: Tensor
    cross_entropy: np.ndarray     # (n, T) -log(p + CE_EPSILON)
    log_prob: np.ndarray          # (n, T) log max(p, LOGPROB_FLOOR); 0 without lp weights


def _padded(rows: Sequence[Sequence[float]], width: int, dtype=np.float64) -> np.ndarray:
    out = np.zeros((len(rows), width), dtype=dtype)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


def score_rows(params: PolicyParams, features: Sequence[np.ndarray],
               tokens: Sequence[Sequence[int]], ce_weights: Sequence[Sequence[float]],
               lp_weights: Sequence[Sequence[float]] | None = None) -> RowScores:
    """Teacher-force every row at once: one unroll over (n, .) arrays for
    the longest row, row r reading scene features[r] and tokens[r].

    The loss is sum_{r,t} ce_weights[r][t] CE_rt + lp_weights[r][t] logp_rt,
    each weight list as long as its row's tokens. Steps past the end of a
    row feed <eos> with weight 0 and regions past a scene's m are masked, so
    padding gets exactly zero gradient.
    """
    if not tokens or not all(tokens):
        raise ValueError("cannot score an empty row")
    width = max(len(row) for row in tokens)
    real = _padded([[True] * len(row) for row in tokens], width, bool)
    forced = np.where(real, _padded(tokens, width, np.intp), EOS_ID)
    ce_w = _padded(ce_weights, width)
    lp_w = None if lp_weights is None else _padded(lp_weights, width)
    ce, lp = np.zeros(real.shape), np.zeros(real.shape)
    terms = []
    steps = unroll(params, project_batch(params, features), lambda t, logits: forced[:, t], width)
    for t, (_, logits, _, _) in enumerate(steps):
        node = cross_entropy(logits, forced[:, t])
        ce[:, t] = node.data
        terms.append(dotp(node, constant(ce_w[:, t])))
        if lp_w is not None:
            node = logprob(logits, forced[:, t])
            lp[:, t] = node.data
            terms.append(dotp(node, constant(lp_w[:, t])))
    return RowScores(add_n(terms), np.where(real, ce, 0.0), np.where(real, lp, 0.0))


def rollout_greedy(params: PolicyParams, features: np.ndarray, t_max: int) -> list[int]:
    """Stepwise argmax decoding; ties break toward the lowest index."""
    out: list[int] = []
    with no_grad():
        for token, *_ in unroll(params, features,
                                lambda t, logits: int(np.argmax(softmax_values(logits.data))),
                                t_max):
            out.append(token)
            if token == EOS_ID:
                break
    return out


def beam_search(params: PolicyParams, features: np.ndarray, t_max: int,
                width: int) -> list[int]:
    """Keep the width highest cumulative-log-probability partials per step;
    finished sequences are held aside and compete on total log-probability.
    Ties resolve toward the lexicographically smaller token sequence.

    The live partials step as the rows of one policy_step, each row's state
    gathered from its parent's. Every candidate scoring at least the
    width-th largest score is sorted by (-score, token path), which picks
    the same width as a sort of all candidates."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    vocab = params.vocab_size
    with no_grad():
        scenes: dict[int, ProjectedScene] = {}    # the scene once per live row
        live_lp = np.zeros(1)
        live: list[tuple[int, ...]] = [()]
        state: PolicyState | None = None
        done: list[tuple[float, tuple[int, ...]]] = []
        for _ in range(t_max):
            if not live:
                break
            if len(live) not in scenes:
                scenes[len(live)] = project_batch(params, [features] * len(live))
            prev = np.array([tokens[-1] if tokens else BOS_ID for tokens in live])
            logits, state, _, _ = policy_step(params, prev, state, scenes[len(live)])
            logd = np.log(np.maximum(softmax_values(logits.data), LOGPROB_FLOOR))
            scores = (live_lp[:, None] + logd).ravel()
            picked = np.arange(scores.size)
            if scores.size > width:
                picked = np.flatnonzero(scores >= -np.partition(-scores, width - 1)[width - 1])
            chosen = sorted((-float(scores[i]), live[i // vocab] + (int(i % vocab),), i // vocab)
                            for i in picked)[:width]
            keep = [(-neg, tokens, parent) for neg, tokens, parent in chosen
                    if tokens[-1] != EOS_ID]
            done.extend((-neg, tokens) for neg, tokens, _ in chosen if tokens[-1] == EOS_ID)
            live_lp = np.array([lp for lp, _, _ in keep])
            live = [tokens for _, tokens, _ in keep]
            parents = [parent for _, _, parent in keep]
            state = PolicyState(*(constant(getattr(state, f.name).data[parents])
                                  for f in fields(PolicyState)))
        done.extend(zip(live_lp.tolist(), live))
        best = min(done, key=lambda c: (-c[0], c[1]))
        return list(best[1])


def sequence_log_prob(params: PolicyParams, features: np.ndarray,
                      tokens: Sequence[int]) -> float:
    """Sum of per-step log conditionals of a forced sequence."""
    with no_grad():
        return sum(math.log(max(float(softmax_values(logits.data)[tok]), LOGPROB_FLOOR))
                   for tok, logits, _, _ in _forced(params, features, tokens))
