"""Two-layer attention LSTM policy over region features, with stochastic
rollout, greedy decoding and beam search.

Step structure: a visual LSTM reads [previous language state, projected mean
features, previous word embedding]; its state attends over projected region
features; the attended feature vector and the visual state drive a language
LSTM whose state is projected to the next-word distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .kernel import (
    LstmParams,
    Parameter,
    Tensor,
    additive_attention,
    affine,
    attend,
    concat,
    constant,
    cross_entropy,
    init_lstm,
    logprob,
    lstm_cell,
    no_grad,
    project_rows,
    softmax,
    take_row,
    xavier_uniform,
)
from .vocab import BOS_ID, EOS_ID

LOG_FLOOR = 1e-12


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


def initial_state(params: PolicyParams) -> PolicyState:
    z = params.hidden_size
    zero = constant(np.zeros(z))
    return PolicyState(zero, zero, zero, zero, constant(np.zeros(2 * z)))


@dataclass
class ProjectedScene:
    """Per-scene tensors reused across steps of one unrolled graph."""

    features: np.ndarray          # (m, E) constant
    region_proj: Tensor           # (m, Z), row i is W_v v_i
    mean_proj: Tensor             # W_v mean(v)


def project_scene(params: PolicyParams, features: np.ndarray) -> ProjectedScene:
    features = np.asarray(features, dtype=np.float64)
    region_proj = project_rows(features, params.W_v)
    mean_proj = affine(constant(features.mean(axis=0)), params.W_v)
    return ProjectedScene(features=features, region_proj=region_proj, mean_proj=mean_proj)


def policy_step(params: PolicyParams, prev_word: int, state: PolicyState | None,
                scene: ProjectedScene | np.ndarray):
    """One decoding step.

    Returns (dist over vocab, new state, attended features, attention weights).
    """
    if not isinstance(scene, ProjectedScene):
        scene = project_scene(params, scene)
    if state is None:
        state = initial_state(params)
    if not 0 <= prev_word < params.vocab_size:
        raise IndexError(f"word index {prev_word} out of range")

    emb = take_row(params.W_e, prev_word)
    x_vis = concat([state.s_lang, scene.mean_proj, emb])
    s_vis, c_vis = lstm_cell(x_vis, state.s_vis, state.c_vis, params.vis)

    h_proj = affine(s_vis, params.W_h)
    attn = additive_attention(scene.region_proj, h_proj, params.W_a)
    v_hat = attend(attn, scene.features)

    x_lang = concat([v_hat, s_vis])
    s_lang, c_lang = lstm_cell(x_lang, state.s_lang, state.c_lang, params.lang)
    dist = softmax(affine(s_lang, params.W_p))
    new_state = PolicyState(s_vis, c_vis, s_lang, c_lang, concat([s_vis, s_lang]))
    return dist, new_state, v_hat, attn


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

    def record(self, action: int, dist: Tensor, state: PolicyState, attn: Tensor) -> None:
        node = logprob(dist, action)
        self.actions.append(action)
        self.log_probs.append(float(node.data))
        self.logprob_nodes.append(node)
        self.states.append(state.concat.data.copy())
        self.attention.append(attn.data.copy())


def unroll(params: PolicyParams, features: np.ndarray,
           choose: Callable[[int, Tensor], int], t_max: int) -> Iterator[tuple]:
    """The one loop over policy_step. From <bos>, step t feeds back the token
    choose(t, dist) and yields (token, dist, state, attention); a caller
    stops early by leaving the loop."""
    scene = project_scene(params, features)
    state: PolicyState | None = None
    token = BOS_ID
    for t in range(t_max):
        dist, state, _, attn = policy_step(params, token, state, scene)
        token = choose(t, dist)
        yield token, dist, state, attn


def _forced(params: PolicyParams, features: np.ndarray,
            tokens: Sequence[int]) -> Iterator[tuple]:
    """Teacher-forced steps over tokens; they do not stop at <eos>."""
    if not tokens:
        raise ValueError("cannot unroll an empty sequence")
    return unroll(params, features, lambda t, dist: int(tokens[t]), len(tokens))


def _sample_index(dist: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(dist)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, dist.shape[0] - 1)


def rollout_sample(params: PolicyParams, features: np.ndarray, t_max: int,
                   rng: np.random.Generator) -> RolloutTrace:
    """Sample an episode from <bos>; stops at <eos> or t_max. Inverse-CDF
    sampling so identical seeds give identical traces."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    trace = RolloutTrace()
    for step in unroll(params, features, lambda t, dist: _sample_index(dist.data, rng), t_max):
        trace.record(*step)
        if step[0] == EOS_ID:
            break
    return trace


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
    return [cross_entropy(dist, tok) for tok, dist, _, _ in _forced(params, features, tokens)]


def rollout_greedy(params: PolicyParams, features: np.ndarray, t_max: int) -> list[int]:
    """Stepwise argmax decoding; ties break toward the lowest index."""
    out: list[int] = []
    with no_grad():
        for token, *_ in unroll(params, features,
                                lambda t, dist: int(np.argmax(dist.data)), t_max):
            out.append(token)
            if token == EOS_ID:
                break
    return out


def beam_search(params: PolicyParams, features: np.ndarray, t_max: int,
                width: int) -> list[int]:
    """Keep the width highest cumulative-log-probability partials per step;
    finished sequences are held aside and compete on total log-probability.
    Ties resolve toward the lexicographically smaller token sequence."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    with no_grad():
        scene = project_scene(params, features)
        live: list[tuple[float, tuple[int, ...], PolicyState | None]] = [(0.0, (), None)]
        done: list[tuple[float, tuple[int, ...]]] = []
        for _ in range(t_max):
            if not live:
                break
            candidates = []
            for lp, tokens, state in live:
                prev = tokens[-1] if tokens else BOS_ID
                dist, new_state, _, _ = policy_step(params, prev, state, scene)
                logd = np.log(np.maximum(dist.data, LOG_FLOOR))
                for w in range(params.vocab_size):
                    candidates.append((lp + float(logd[w]), tokens + (w,), new_state))
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


def sequence_log_prob(params: PolicyParams, features: np.ndarray,
                      tokens: Sequence[int]) -> float:
    """Sum of per-step log conditionals of a forced sequence."""
    with no_grad():
        return sum(math.log(max(float(dist.data[tok]), LOG_FLOOR))
                   for tok, dist, _, _ in _forced(params, features, tokens))
