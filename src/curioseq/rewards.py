"""Reward assembly: terminal linguistic rewards, temporal-difference returns,
advantage shaping and the policy-gradient surrogate loss."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import metrics as met
from .policy import RolloutTrace


def terminal_reward_vector(reward: float, length: int) -> np.ndarray:
    if length < 1:
        raise ValueError("episode length must be >= 1")
    out = np.zeros(length)
    out[-1] = reward
    return out


def scored_reward(candidate: Sequence[str], references: met.References,
                  bleu_weight: float, cider_weight: float, length: int) -> float:
    """Terminal reward of an episode of `length` steps: the weighted sum of
    the smoothed sentence BLEU-4 and the TF-IDF consensus score of the
    finished sequence against its scene's reference statistics. The
    candidate's n-grams are counted once for both. A candidate stripped to
    nothing scores 0."""
    if length < 1:
        raise ValueError("candidate must be non-empty")
    if not candidate:
        return 0.0
    counts = met.candidate_counts(candidate)
    sums = met.BleuSums()
    sums.add(counts, len(candidate), references)
    return float(bleu_weight * sums.score(met.MAX_NGRAM, "sentence")
                 + cider_weight * met.consensus(counts, references))


def td_lambda_q(rewards: Sequence[float], gamma: float, lam: float) -> np.ndarray:
    """Per-step return estimates Q(s_t) mixing truncated j-step returns:

        Q_t = (1 - lam) * sum_{j=0}^{T-t} lam^j G_{t:t+j} + lam^{T-t} G_t

    with G_{t:t+j} the gamma-discounted sum of rewards t..t+j and G_t the
    full-horizon discounted return from t (indices here are 1-based; the
    implementation is 0-based).

    Evaluated in O(T) by the backward recursions G_t = r_t + gamma G_{t+1}
    and M_t = r_t sum_{j<=H_t} lam^j + gamma lam M_{t+1}, where M_t is the
    lam-weighted sum of truncated returns and H_t = T - t the horizon.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    r = np.asarray(rewards, dtype=np.float64)
    t_len = r.shape[0]
    q = np.zeros(t_len)
    full = mixed = weight_sum = 0.0
    for t in range(t_len - 1, -1, -1):
        weight_sum = 1.0 + lam * weight_sum
        full = r[t] + gamma * full
        mixed = r[t] * weight_sum + gamma * lam * mixed
        q[t] = (1.0 - lam) * mixed + (lam ** (t_len - 1 - t)) * full
    return q


def q_closed_form(r_terminal: float, length: int, gamma: float) -> np.ndarray:
    """The lambda=1 special case with a terminal-only reward:
    Q_t = gamma^(T-t) * r_T."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    exponents = np.arange(length - 1, -1, -1, dtype=np.float64)
    return (gamma ** exponents) * r_terminal


def advantages(q_values: np.ndarray, intrinsic: np.ndarray) -> np.ndarray:
    """Shaped per-step weights: the discounted extrinsic return plus the
    intrinsic bonus (additive shaping, no baseline subtraction)."""
    q_values = np.asarray(q_values, dtype=np.float64)
    intrinsic = np.asarray(intrinsic, dtype=np.float64)
    if q_values.shape != intrinsic.shape:
        raise ValueError(f"length mismatch: {q_values.shape} vs {intrinsic.shape}")
    return q_values + intrinsic


def rl_loss(trace: RolloutTrace, advantage: np.ndarray) -> float:
    """The value of the surrogate loss -sum_t A_t log pi(y_t | s_t) of a
    sampled episode, from the log-probabilities its trace recorded. Its
    gradient comes from the sampled row of policy.RowUnroll.loss."""
    advantage = np.asarray(advantage, dtype=np.float64)
    if advantage.shape != (len(trace),):
        raise ValueError(f"advantage length {advantage.shape} != trace length {len(trace)}")
    return float(-advantage @ np.asarray(trace.log_probs))
