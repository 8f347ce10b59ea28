"""Reference decoders and scorers for the row paths of curioseq.policy.

`composite_policy_step` is the attention-LSTM step as the graph of
single-purpose kernel ops that `policy.policy_step` fuses into one node.
`one_row_sample` is the sampler that stepped one scene at a time through the
vector form of policy_step, and `per_hypothesis_beam` is the beam search that
stepped each live hypothesis on its own and sorted all width x vocab
candidates. `padded_sample_rows` and `padded_score_rows` are the two row
unrolls that a train step ran before `policy.unroll_rows` joined them: a
graph-less sampler and a recorded teacher-forced scorer, each stepping every
row, finished or not, until its longest row ended. `policy.unroll_rows`,
`policy.rollout_sample` and `policy.beam_search` must agree with them; the
tests import them from here.
"""

from dataclasses import dataclass

import numpy as np

from curioseq import kernel as K
from curioseq import policy as P
from curioseq.vocab import BOS_ID, EOS_ID


def composite_policy_step(params, prev_word, state, scene):
    """policy_step as a composite graph: a take_row for the embedding, four
    vslices of the state, three concats, two lstm_cell nodes (each with two
    vslice views), two affines, additive_attention and attend. Returns
    (logits, [s_vis, s_lang, c_vis, c_lang] state, attended features,
    attention weights), all as nodes."""
    if not isinstance(scene, P.ProjectedScene):
        scene = P.project_scene(params, scene)
    if state is None:
        state = P.initial_state(params, scene.mean_proj.shape[:-1])
    z = params.hidden_size
    s_vis0, s_lang0, c_vis0, c_lang0 = (K.vslice(state, i * z, (i + 1) * z) for i in range(4))
    emb = K.take_row(params.W_e, prev_word)
    x_vis = K.concat([s_lang0, scene.mean_proj, emb])
    s_vis, c_vis = K.lstm_cell(x_vis, s_vis0, c_vis0, params.vis)
    h_proj = K.affine(s_vis, params.W_h)
    attn = K.additive_attention(scene.region_proj, h_proj, params.W_a, scene.mask)
    v_hat = K.attend(attn, scene.features)
    x_lang = K.concat([v_hat, s_vis])
    s_lang, c_lang = K.lstm_cell(x_lang, s_lang0, c_lang0, params.lang)
    logits = K.affine(s_lang, params.W_p)
    return logits, K.concat([s_vis, s_lang, c_vis, c_lang]), v_hat, attn


def one_row_sample(params, features, t_max, rng):
    """Sample one episode from <bos> until <eos> or t_max: one vector
    policy_step per step and one inverse-CDF draw from rng per step."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")

    def choose(t, logits):
        cdf = np.cumsum(K.softmax_values(logits.data))
        return min(int(np.searchsorted(cdf, rng.random(), side="right")), cdf.shape[0] - 1)

    trace = P.RolloutTrace()
    with K.no_grad():
        for step in P.unroll(params, features, choose, t_max):
            trace.record(*step)
            if step[0] == EOS_ID:
                break
    return trace


def per_hypothesis_beam(params, features, t_max, width):
    """Beam search with one vector policy_step per live hypothesis and a full
    sort of every candidate by (-log-probability, token path)."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    with K.no_grad():
        scene = P.project_scene(params, features)
        live = [(0.0, (), None)]
        done = []
        for _ in range(t_max):
            if not live:
                break
            candidates = []
            for lp, tokens, state in live:
                prev = tokens[-1] if tokens else BOS_ID
                logits, new_state, _, _ = P.policy_step(params, prev, state, scene)
                logd = np.log(np.maximum(K.softmax_values(logits.data), K.LOGPROB_FLOOR))
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


def padded_sample_rows(params, features, t_max, rngs):
    """Sample one episode per scene as one graph-less row unroll in which a
    finished row is fed <eos>, draws nothing and records nothing, until
    every row has finished."""
    n = len(features)
    live = np.ones(n, dtype=bool)
    lengths = np.zeros(n, dtype=np.intp)
    dist = np.empty(0)
    steps = []

    def choose(t, logits):
        nonlocal dist
        dist = K.softmax_values(logits.data)
        rows = np.flatnonzero(live)
        u = np.array([rngs[r].random() for r in rows])
        cdf = np.cumsum(dist[rows], axis=-1)
        token = np.full(n, EOS_ID)
        token[rows] = np.minimum((cdf <= u[:, None]).sum(axis=-1), dist.shape[-1] - 1)
        return token

    with K.no_grad():
        for token, _, state, attn in P.unroll(params, P.project_batch(params, features),
                                              choose, t_max):
            picked = dist[np.arange(n), token]
            steps.append((token, np.log(np.maximum(picked, K.LOGPROB_FLOOR)),
                          state.data[:, :2 * params.hidden_size], attn))
            lengths += live
            live &= token != EOS_ID
            if not live.any():
                break
    actions, log_probs, states, attention = (np.stack(part, axis=1) for part in zip(*steps))
    return [P.RolloutTrace(actions=actions[r, :k].tolist(), log_probs=log_probs[r, :k].tolist(),
                           states=list(states[r, :k]),
                           attention=list(attention[r, :k, :f.shape[0]]))
            for r, (k, f) in enumerate(zip(lengths, features))]


@dataclass
class PaddedScores:
    loss: K.Tensor
    cross_entropy: np.ndarray     # (n, T), 0 on padded steps
    log_prob: np.ndarray          # (n, T), 0 on padded steps and without lp weights


def _padded(rows, width, dtype=np.float64):
    out = np.zeros((len(rows), width), dtype=dtype)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


def padded_score_rows(params, features, tokens, ce_weights, lp_weights=None):
    """Teacher-force every row for as many steps as the longest one: the
    loss is sum_{r,t} ce_weights[r][t] CE_rt + lp_weights[r][t] logp_rt, and
    steps past the end of a row feed <eos> with weight 0."""
    width = max(len(row) for row in tokens)
    real = _padded([[True] * len(row) for row in tokens], width, bool)
    forced = np.where(real, _padded(tokens, width, np.intp), EOS_ID)
    ce_w = _padded(ce_weights, width)
    lp_w = None if lp_weights is None else _padded(lp_weights, width)
    ce, lp = np.zeros(real.shape), np.zeros(real.shape)
    terms = []
    steps = P.unroll(params, P.project_batch(params, features),
                     lambda t, logits: forced[:, t], width)
    for t, (_, logits, _, _) in enumerate(steps):
        node = K.cross_entropy(logits, forced[:, t])
        ce[:, t] = node.data
        terms.append(K.dotp(node, K.constant(ce_w[:, t])))
        if lp_w is not None:
            node = K.logprob(logits, forced[:, t])
            lp[:, t] = node.data
            terms.append(K.dotp(node, K.constant(lp_w[:, t])))
    return PaddedScores(K.add_n(terms), np.where(real, ce, 0.0), np.where(real, lp, 0.0))
