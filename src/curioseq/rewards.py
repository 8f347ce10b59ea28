"""Rewards of the sampled episodes: the terminal linguistic reward
(scored_reward, against a scene's reference statistics, which train counts
once per run), their discounted returns Q as (B, T) arrays over a
batch of episodes (terminal_q), and the value of the policy-gradient
surrogate loss (rl_loss), whose gradient comes from the weights of the
sampled rows in policy.RowUnroll.loss."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import metrics as met
from .policy import Episodes


def scored_reward(candidate: Sequence[str], references: met.References,
                  bleu_weight: float, cider_weight: float) -> float:
    """Terminal reward of an episode: the weighted sum of the smoothed
    sentence BLEU-4 and the TF-IDF consensus score of the finished sequence
    against its scene's reference statistics. The candidate's n-grams are
    counted once for both. A candidate stripped to nothing scores 0."""
    counts = met.candidate_counts(candidate)
    sums = met.BleuSums()
    sums.add(counts, len(candidate), references)
    return float(bleu_weight * sums.score(met.MAX_NGRAM, "sentence")
                 + cider_weight * met.consensus(counts, references))


def td_lambda_q(rewards: Sequence[float] | np.ndarray, gamma: float,
                lam: float) -> np.ndarray:
    """Per-step return estimates Q(s_t) over the last axis, mixing truncated
    j-step returns:

        Q_t = (1 - lam) * sum_{j=0}^{T-t} lam^j G_{t:t+j} + lam^{T-t} G_t

    with G_{t:t+j} the gamma-discounted sum of rewards t..t+j and G_t the
    full-horizon discounted return from t (indices here are 1-based; the
    implementation is 0-based).

    Evaluated in O(T) by the backward recursions G_t = r_t + gamma G_{t+1}
    and M_t = r_t sum_{j<=H_t} lam^j + gamma lam M_{t+1}, where M_t is the
    lam-weighted sum of truncated returns and H_t = T - t the horizon. Kept
    as the general recursion that terminal_q's closed form is checked against.
    """
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError("gamma and lambda must be in [0, 1]")
    r = np.asarray(rewards, dtype=np.float64)
    t_len = r.shape[-1]
    q = np.zeros(r.shape)
    full = mixed = weight_sum = 0.0
    for t in range(t_len - 1, -1, -1):
        weight_sum = 1.0 + lam * weight_sum
        full = r[..., t] + gamma * full
        mixed = r[..., t] * weight_sum + gamma * lam * mixed
        q[..., t] = (1.0 - lam) * mixed + (lam ** (t_len - 1 - t)) * full
    return q


def q_closed_form(r_terminal: float, length: int, gamma: float) -> np.ndarray:
    """The lambda=1 special case with a terminal-only reward,
    Q_t = gamma^(T-t) * r_T: the reference terminal_q is checked against."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    exponents = np.arange(length - 1, -1, -1, dtype=np.float64)
    return (gamma ** exponents) * r_terminal


def terminal_q(terminal: np.ndarray, lengths: np.ndarray, steps: int, gamma: float,
               lam: float) -> np.ndarray:
    """(B, steps) Q of B episodes rewarded only at their last step, 0 past
    their ends: td_lambda_q's closed form Q_t = (2 - lam)(gamma lam)^H_t r_T,
    H_t the steps after t. A Monte-Carlo return discounted at gamma lam, its
    last step gets (2 - lam) r_T (1.5 r_T at lam 0.5); no value is estimated
    and nothing is bootstrapped. At lam 1 it gives q_closed_form's floats."""
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError("gamma and lambda must be in [0, 1]")
    left = lengths[:, None] - 1 - np.arange(steps)
    q = (2.0 - lam) * (gamma * lam) ** np.maximum(left, 0) * terminal[:, None]
    return np.where(left >= 0, q, 0.0)


def rl_loss(episodes: Episodes, advantage: np.ndarray) -> float:
    """The value of the surrogate loss -sum_t A_t log pi(y_t | s_t) of the
    episodes, over each one's own steps, for (B, T) advantages. Its gradient
    is that of policy.RowUnroll.loss with weight A_t on the sampled rows."""
    if advantage.shape != episodes.log_probs.shape:
        raise ValueError(f"advantage shape {advantage.shape} != episodes "
                         f"{episodes.log_probs.shape}")
    total = 0.0
    for a, log_probs, k in zip(advantage, episodes.log_probs, episodes.lengths):
        total += float(-a[:k] @ log_probs[:k])
    return total
