"""Reference decoders for the row paths of curioseq.policy.

`one_row_sample` is the sampler that stepped one scene at a time through the
vector form of policy_step, and `per_hypothesis_beam` is the beam search that
stepped each live hypothesis on its own and sorted all width x vocab
candidates. `policy.sample_rows` and `policy.beam_search` must agree with
them; the tests import them from here.
"""

import numpy as np

from curioseq import kernel as K
from curioseq import policy as P
from curioseq.vocab import BOS_ID, EOS_ID


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
