"""Self-supervised curiosity: a shared state-embedding layer, a next-state
predictor whose error is the intrinsic reward, and an action predictor that
shapes the embedding toward controllable dynamics.

Gradients are stopped at the policy states: losses here train only the
embedding and predictor weights, never the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    Parameter,
    Tensor,
    affine,
    concat,
    constant,
    cross_entropy,
    dotp,
    grad_scale,
    leaky_relu,
    no_grad,
    scale,
    sub,
    sumsq,
    take_row,
    xavier_uniform,
    zeros_param,
)
from .policy import Episodes


@dataclass
class CuriosityParams:
    """Embedding, state-predictor and action-predictor weights."""

    phi_W: Parameter      # (Zp, 2Z)
    phi_b: Parameter      # (Zp,)
    sp_emb: Parameter     # (D, Zp) action embedding rows
    sp_W1: Parameter      # (Zp, 2Zp)
    sp_b1: Parameter
    sp_W2: Parameter      # (Zp, Zp)
    sp_b2: Parameter
    ap_W1: Parameter      # (Zp, 2Zp)
    ap_b1: Parameter
    ap_W2: Parameter      # (D, Zp)
    ap_b2: Parameter

    @property
    def embed_size(self) -> int:
        return self.phi_W.data.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.ap_W2.data.shape[0]

    def embedding_parameters(self) -> list[Parameter]:
        return [self.phi_W, self.phi_b]

    def state_predictor_parameters(self) -> list[Parameter]:
        return [self.sp_emb, self.sp_W1, self.sp_b1, self.sp_W2, self.sp_b2]

    def action_predictor_parameters(self) -> list[Parameter]:
        return [self.ap_W1, self.ap_b1, self.ap_W2, self.ap_b2]

    def parameters(self) -> list[Parameter]:
        return (self.embedding_parameters()
                + self.state_predictor_parameters()
                + self.action_predictor_parameters())


def init_curiosity(rng: np.random.Generator, vocab_size: int, state_size: int,
                   embed_size: int, prefix: str = "curiosity",
                   init_scale: float = 1.0) -> CuriosityParams:
    """state_size is the concatenated policy state length (2Z).

    init_scale shrinks the embedding and state-predictor weights so the
    initial prediction error, and with it the intrinsic reward, starts small
    relative to the terminal metric rewards.
    """

    def scaled(shape, name):
        p = xavier_uniform(rng, shape, name)
        p.data *= init_scale
        return p

    zp = embed_size
    return CuriosityParams(
        phi_W=scaled((zp, state_size), f"{prefix}.phi_W"),
        phi_b=zeros_param((zp,), f"{prefix}.phi_b"),
        sp_emb=scaled((vocab_size, zp), f"{prefix}.sp_emb"),
        sp_W1=scaled((zp, 2 * zp), f"{prefix}.sp_W1"),
        sp_b1=zeros_param((zp,), f"{prefix}.sp_b1"),
        sp_W2=scaled((zp, zp), f"{prefix}.sp_W2"),
        sp_b2=zeros_param((zp,), f"{prefix}.sp_b2"),
        ap_W1=xavier_uniform(rng, (zp, 2 * zp), f"{prefix}.ap_W1"),
        ap_b1=zeros_param((zp,), f"{prefix}.ap_b1"),
        ap_W2=xavier_uniform(rng, (vocab_size, zp), f"{prefix}.ap_W2"),
        ap_b2=zeros_param((vocab_size,), f"{prefix}.ap_b2"),
    )


def embed_state(state: Tensor | np.ndarray, params: CuriosityParams) -> Tensor:
    """Affine + leaky-ReLU embedding of every row of an (N, 2Z) matrix of
    concatenated policy states."""
    node = state if isinstance(state, Tensor) else constant(state)
    return leaky_relu(affine(node, params.phi_W, params.phi_b))


def predict_next_state(phi_t: Tensor, action: np.ndarray, params: CuriosityParams) -> Tensor:
    """Next-state embedding from the current embedding and the action taken,
    per row of (N, Zp) embeddings and an int vector of N actions."""
    x = concat([phi_t, take_row(params.sp_emb, action)])
    h = leaky_relu(affine(x, params.sp_W1, params.sp_b1))
    return affine(h, params.sp_W2, params.sp_b2)


def predict_action(phi_t: Tensor, phi_next: Tensor, params: CuriosityParams) -> Tensor:
    """Logits over the vocabulary for the action linking two states, per row
    of two (N, Zp) embeddings."""
    x = concat([phi_t, phi_next])
    h = leaky_relu(affine(x, params.ap_W1, params.ap_b1))
    return affine(h, params.ap_W2, params.ap_b2)


@dataclass
class CuriosityPass:
    """The curiosity terms of a set of episodes, built on one shared
    embedding of all their states."""

    errors: np.ndarray        # (B, T) 1/2 |pred - target|^2; 0 at the first step and past the end
    sp_loss: Tensor           # mean over episodes of the mean state-prediction error
    ap_loss: Tensor           # the same for the action cross-entropy; 0 unless alpha > 0


def curiosity_pass(episodes: Episodes, params: CuriosityParams,
                   alpha: float = 0.0, beta: float = 1.0,
                   targets: np.ndarray | None = None) -> CuriosityPass:
    """Embed the states of all episodes as one (S, 2Z) matrix and build both
    heads over all N transitions as (N, .) matrices.

    The state predictor reads grad_scale(phi, beta) and the action predictor
    grad_scale(phi, alpha), so one backward over the sum of both losses gives
    the embedding alpha * d(ap) + beta * d(sp) while each predictor gets its
    own unweighted gradient. Each loss averages an episode's transitions,
    then the episodes; an episode shorter than two steps has no transitions,
    adds 0 and is not embedded. Targets are the detached next-state
    embeddings unless given as an (N, Zp) array in transition order, row by
    row (pass frozen ones to finite-difference the prediction path).
    """
    b, t_len = episodes.actions.shape
    lengths = episodes.lengths
    errors = np.zeros((b, t_len))
    # transition (r, t) goes from step t to step t + 1 of row r
    rows, steps = np.nonzero(np.arange(t_len) + 1 < lengths[:, None])
    if not rows.size:
        return CuriosityPass(errors, constant(0.0), constant(0.0))
    embedded = (np.arange(t_len) < lengths[:, None]) & (lengths > 1)[:, None]
    flat = np.cumsum(embedded).reshape(embedded.shape) - 1     # each step's row in the matrix
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
    return CuriosityPass(errors, scale(sumsq(diff, weights), 0.5), ap_loss)


def sp_loss(episodes: Episodes, params: CuriosityParams,
            targets: np.ndarray | None = None) -> Tensor:
    """Mean over episodes of the mean over their transitions of half the
    squared next-state prediction error. No gradient flows through the
    target path; episodes shorter than two steps give 0."""
    return curiosity_pass(episodes, params, targets=targets).sp_loss


def ap_loss(episodes: Episodes, params: CuriosityParams) -> Tensor:
    """Mean cross-entropy of the true actions under the action predictor."""
    return curiosity_pass(episodes, params, alpha=1.0).ap_loss


def intrinsic_rewards(episodes: Episodes, params: CuriosityParams,
                      rho: float) -> np.ndarray:
    """(B, T) per-step curiosity bonus: rho/2 times the squared
    state-prediction error, with no reward at the first step or past the
    end. A pure scalar signal, no gradients flow."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    with no_grad():
        return rho * curiosity_pass(episodes, params).errors
