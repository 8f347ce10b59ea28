"""Self-supervised curiosity: a shared state-embedding layer, a next-state
predictor whose error is the intrinsic reward, and an action predictor that
shapes the embedding toward controllable dynamics.

Gradients are stopped at the policy states: losses here train only the
embedding and predictor weights, never the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import (
    Parameter,
    Tensor,
    add_n,
    affine,
    concat,
    constant,
    cross_entropy,
    grad_scale,
    leaky_relu,
    no_grad,
    scale,
    softmax,
    sub,
    sumsq,
    take_row,
    xavier_uniform,
    zeros_param,
)
from .policy import RolloutTrace


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
    """Affine + leaky-ReLU embedding of a concatenated policy state."""
    node = state if isinstance(state, Tensor) else constant(state)
    return leaky_relu(affine(node, params.phi_W, params.phi_b))


def predict_next_state(phi_t: Tensor, action: int, params: CuriosityParams) -> Tensor:
    """Next-state embedding from the current embedding and the action taken."""
    x = concat([phi_t, take_row(params.sp_emb, action)])
    h = leaky_relu(affine(x, params.sp_W1, params.sp_b1))
    return affine(h, params.sp_W2, params.sp_b2)


def predict_action(phi_t: Tensor, phi_next: Tensor, params: CuriosityParams) -> Tensor:
    """Distribution over the vocabulary for the action linking two states."""
    x = concat([phi_t, phi_next])
    h = leaky_relu(affine(x, params.ap_W1, params.ap_b1))
    return softmax(affine(h, params.ap_W2, params.ap_b2))


@dataclass
class CuriosityPass:
    """Per-transition curiosity terms of one trace, built on one shared
    embedding per state."""

    errors: np.ndarray        # per step 1/2 |pred - target|^2, 0 at the first
    sp_terms: list[Tensor]    # the same values as graph nodes
    ap_terms: list[Tensor]    # action cross-entropies; empty unless alpha > 0


def curiosity_pass(trace: RolloutTrace, params: CuriosityParams, alpha: float = 0.0,
                   beta: float = 1.0,
                   targets: Sequence[np.ndarray] | None = None) -> CuriosityPass:
    """Embed each state of the trace once and build both heads on those nodes.

    The state predictor reads grad_scale(phi, beta) and the action predictor
    grad_scale(phi, alpha), so one backward over the sum of both losses gives
    the embedding alpha * d(ap) + beta * d(sp) while each predictor gets its
    own unweighted gradient. Targets are the detached next-state embeddings
    unless given (pass frozen ones to finite-difference the prediction path).
    A trace shorter than two steps embeds nothing and has no terms.
    """
    errors = np.zeros(len(trace))
    if len(trace) < 2:
        return CuriosityPass(errors, [], [])
    phi = [embed_state(s, params) for s in trace.states]
    if targets is None:
        targets = [p.data for p in phi[1:]]
    sp_terms = []
    for k, p in enumerate(phi[:-1]):
        pred = predict_next_state(grad_scale(p, beta), trace.actions[k], params)
        sp_terms.append(scale(sumsq(sub(pred, constant(targets[k]))), 0.5))
    errors[1:] = [float(t.data) for t in sp_terms]
    ap_terms = []
    if alpha > 0:
        to_ap = [grad_scale(p, alpha) for p in phi]
        ap_terms = [cross_entropy(predict_action(to_ap[k], to_ap[k + 1], params),
                                  trace.actions[k]) for k in range(len(phi) - 1)]
    return CuriosityPass(errors, sp_terms, ap_terms)


def mean_loss(terms: Sequence[Tensor]) -> Tensor:
    """Mean of per-transition terms; 0 for a trace without transitions."""
    return scale(add_n(terms), 1.0 / len(terms)) if terms else constant(0.0)


def sp_targets(trace: RolloutTrace, params: CuriosityParams) -> list[np.ndarray]:
    """Detached target embeddings phi(s_2..s_T), one per transition."""
    with no_grad():
        return [embed_state(trace.states[k], params).data
                for k in range(1, len(trace))]


def sp_loss(trace: RolloutTrace, params: CuriosityParams,
            targets: Sequence[np.ndarray] | None = None) -> Tensor:
    """Mean over transitions of half the squared next-state prediction error.
    No gradient flows through the target path; traces shorter than two steps
    give 0."""
    return mean_loss(curiosity_pass(trace, params, targets=targets).sp_terms)


def ap_loss(trace: RolloutTrace, params: CuriosityParams) -> Tensor:
    """Mean cross-entropy of the true actions under the action predictor."""
    return mean_loss(curiosity_pass(trace, params, alpha=1.0).ap_terms)


def intrinsic_rewards(trace: RolloutTrace, params: CuriosityParams,
                      rho: float) -> np.ndarray:
    """Per-step curiosity bonus: rho/2 times the squared state-prediction
    error, with no reward at the first step. A pure scalar signal, no
    gradients flow."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    with no_grad():
        return rho * curiosity_pass(trace, params).errors
