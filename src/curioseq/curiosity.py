"""Self-supervised curiosity, the forward/inverse design of Pathak et al.
(2017): a shared state-embedding layer, a next-state predictor whose error
is the intrinsic reward, and an action predictor that shapes the embedding
toward controllable dynamics.

``curiosity_pass`` runs both predictors over plain arrays and returns one
node over the curiosity Parameters whose backward is the pass's own reverse
pass. Gradients are stopped at the policy states: losses here train only
the embedding and predictor weights, never the policy.

The node keeps the embeddings phi, each predictor's hidden activations,
the (B, T) mask of the embedded steps, the transitions' index and weight
vectors and any caller-given targets. Its reverse pass remakes the rest
with the forward's own expressions on the same inputs, so bit for bit: it
regathers the predictor inputs and the embedded states, takes each leaky
slope from the activation (which is > 0 exactly where its pre-activation
is) and recomputes the state prediction and the action softmax from the
hidden rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    CE_EPSILON,
    Parameter,
    ShapeError,
    Tensor,
    softmax_values,
    xavier_uniform,
    zeros_param,
)
from .policy import Episodes

LEAKY_SLOPE = 0.01


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
                   embed_size: int, init_scale: float = 1.0) -> CuriosityParams:
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
        phi_W=scaled((zp, state_size), "curiosity.phi_W"),
        phi_b=zeros_param((zp,), "curiosity.phi_b"),
        sp_emb=scaled((vocab_size, zp), "curiosity.sp_emb"),
        sp_W1=scaled((zp, 2 * zp), "curiosity.sp_W1"),
        sp_b1=zeros_param((zp,), "curiosity.sp_b1"),
        sp_W2=scaled((zp, zp), "curiosity.sp_W2"),
        sp_b2=zeros_param((zp,), "curiosity.sp_b2"),
        ap_W1=xavier_uniform(rng, (zp, 2 * zp), "curiosity.ap_W1"),
        ap_b1=zeros_param((zp,), "curiosity.ap_b1"),
        ap_W2=xavier_uniform(rng, (vocab_size, zp), "curiosity.ap_W2"),
        ap_b2=zeros_param((vocab_size,), "curiosity.ap_b2"),
    )


def _slope(x: np.ndarray) -> np.ndarray:
    """The leaky ReLU's derivative at x, and at any y with y > 0 exactly
    where x > 0: leaky_relu(x) is one such y."""
    return np.where(x > 0, 1.0, LEAKY_SLOPE)


def _leaky_relu(x: np.ndarray) -> np.ndarray:
    return x * _slope(x)


def embed_state(states: np.ndarray, params: CuriosityParams) -> np.ndarray:
    """Affine + leaky-ReLU embedding of every row of an (N, 2Z) matrix of
    concatenated policy states."""
    if np.ndim(states) != 2:
        raise ShapeError(f"embed_state expects (N, 2Z) rows, got {np.shape(states)}")
    return _leaky_relu(states @ params.phi_W.data.T + params.phi_b.data)


def _head_backward(x: np.ndarray, h: np.ndarray, g: np.ndarray, W1: Parameter,
                   b1: Parameter, W2: Parameter, b2: Parameter, accum) -> np.ndarray:
    """The reverse of a predictor, leaky_relu(x W1^T + b1) W2^T + b2 per row
    of x: given its input rows x, its hidden activations h and g on its
    output, hand its four Parameters their gradients and return the
    gradient on x."""
    accum(W2, g.T @ h)
    accum(b2, g.sum(axis=0))
    d_pre = (g @ W2.data) * _slope(h)
    accum(W1, d_pre.T @ x)
    accum(b1, d_pre.sum(axis=0))
    return d_pre @ W1.data


@dataclass
class CuriosityPass:
    """The curiosity terms of a set of episodes, built on one shared
    embedding of all their states."""

    errors: np.ndarray        # (B, T) 1/2 |pred - target|^2; 0 at the first step and past the end
    sp_loss: float            # mean over episodes of the mean state-prediction error
    ap_loss: float            # the same for the action cross-entropy; 0 unless alpha > 0
    loss: Tensor              # the sum of the terms whose weight is > 0, as one node


def curiosity_pass(episodes: Episodes, params: CuriosityParams,
                   alpha: float = 0.0, beta: float = 1.0,
                   targets: np.ndarray | None = None) -> CuriosityPass:
    """Embed the states of all episodes as one (S, 2Z) matrix and run both
    predictors over all N transitions as (N, .) matrices.

    Each loss averages an episode's transitions, then the episodes; an
    episode shorter than two steps has no transitions, adds 0 and is not
    embedded. The loss node sums sp_loss if beta > 0 and ap_loss if
    alpha > 0. Its backward pass gives each predictor the unweighted
    gradient of its own loss and the embedding beta times the state
    predictor's gradient plus alpha times the action predictor's. Targets
    are the detached next-state embeddings unless given as an (N, Zp) array
    in transition order, row by row (pass frozen ones to finite-difference
    the prediction path).
    """
    b, t_len = episodes.actions.shape
    lengths = episodes.lengths
    errors = np.zeros((b, t_len))
    # transition (r, t) goes from step t to step t + 1 of row r
    rows, steps = np.nonzero(np.arange(t_len) + 1 < lengths[:, None])
    if not rows.size:
        return CuriosityPass(errors, 0.0, 0.0, Tensor(0.0))
    # the steps whose states the pass embeds: every step of each episode with a transition
    embedded = (np.arange(t_len) < lengths[:, None]) & (lengths > 1)[:, None]
    flat = np.cumsum(embedded).reshape(embedded.shape) - 1     # each step's row in the matrix
    src = flat[rows, steps]     # increasing, so no index repeats in src or in dst
    dst = src + 1
    actions = episodes.actions[rows, steps]
    weights = 1.0 / (b * (lengths[rows] - 1))
    phi = embed_state(episodes.states[embedded], params)
    sp = (params.sp_W1, params.sp_b1, params.sp_W2, params.sp_b2)
    ap = (params.ap_W1, params.ap_b1, params.ap_W2, params.ap_b2)

    # the predictors' inputs and outputs, which the reverse pass remakes
    def sp_input() -> np.ndarray:
        return np.concatenate([phi[src], params.sp_emb.data[actions]], axis=1)

    def ap_input() -> np.ndarray:
        return np.concatenate([phi[src], phi[dst]], axis=1)

    def sp_diff() -> np.ndarray:
        return (h_sp @ params.sp_W2.data.T + params.sp_b2.data
                - (phi[dst] if targets is None else targets))

    def ap_probs() -> np.ndarray:
        return softmax_values(h_ap @ params.ap_W2.data.T + params.ap_b2.data)

    h_sp = _leaky_relu(sp_input() @ params.sp_W1.data.T + params.sp_b1.data)
    diff = sp_diff()
    sq = np.einsum("ij,ij->i", diff, diff)
    errors[rows, steps + 1] = 0.5 * sq
    sp_value = np.dot(weights, sq) * 0.5
    ap_value = 0.0
    h_ap = None
    if alpha > 0:
        h_ap = _leaky_relu(ap_input() @ params.ap_W1.data.T + params.ap_b1.data)
        picked = ap_probs()[np.arange(len(actions)), actions]
        ap_value = np.dot(-np.log(picked + CE_EPSILON), weights)
    zp = params.embed_size

    def bw(g, accum):
        d_phi = np.zeros(phi.shape)
        if beta > 0:
            d_x = _head_backward(sp_input(), h_sp, 2.0 * weights[:, None] * (g * 0.5) * sp_diff(),
                                 *sp, accum)
            d_emb = np.zeros(params.sp_emb.data.shape)
            np.add.at(d_emb, actions, d_x[:, zp:])
            accum(params.sp_emb, d_emb)
            d_phi[src] += d_x[:, :zp] * beta
        if alpha > 0:
            d_logits = ap_probs()
            d_logits[np.arange(len(actions)), actions] -= 1.0
            d_x = _head_backward(ap_input(), h_ap, (g * weights)[:, None] * d_logits, *ap, accum)
            to_ap = np.zeros(phi.shape)
            to_ap[src] += d_x[:, :zp]
            to_ap[dst] += d_x[:, zp:]
            d_phi += to_ap * alpha
        d_pre = d_phi * _slope(phi)
        accum(params.phi_W, d_pre.T @ episodes.states[embedded])
        accum(params.phi_b, d_pre.sum(axis=0))

    value = (sp_value if beta > 0 else 0.0) + (ap_value if alpha > 0 else 0.0)
    return CuriosityPass(errors, float(sp_value), float(ap_value),
                         Tensor(value, params.parameters(), bw, "curiosity"))


def sp_loss(episodes: Episodes, params: CuriosityParams,
            targets: np.ndarray | None = None) -> Tensor:
    """Mean over episodes of the mean over their transitions of half the
    squared next-state prediction error, as the pass's node at alpha 0 and
    beta 1. No gradient flows through the target path; episodes shorter
    than two steps give 0."""
    return curiosity_pass(episodes, params, 0.0, 1.0, targets).loss


def ap_loss(episodes: Episodes, params: CuriosityParams) -> Tensor:
    """Mean cross-entropy of the true actions under the action predictor, as
    the pass's node at alpha 1 and beta 0."""
    return curiosity_pass(episodes, params, 1.0, 0.0).loss


def intrinsic_rewards(episodes: Episodes, params: CuriosityParams,
                      rho: float) -> np.ndarray:
    """(B, T) per-step curiosity bonus: rho/2 times the squared
    state-prediction error, with no reward at the first step or past the
    end. A pure scalar signal, no gradients flow."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return rho * curiosity_pass(episodes, params).errors
