"""Acceptance suite. Each criterion is tagged; the terminal summary prints
one PASS/FAIL line per criterion (see conftest.py)."""

import math
import time

import numpy as np
import pytest

from curioseq import curiosity as C
from curioseq import metrics as M
from curioseq import policy as P
from curioseq import rewards as R
from curioseq import synth
from curioseq import trainer as T
import oracles as O
from oracles import sequence_log_prob, sp_targets

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


@pytest.mark.criterion("criterion-1-gradient-integrity")
def test_criterion_1_gradient_integrity():
    started = time.time()
    rng = np.random.default_rng(0)
    policy = P.init_policy(rng, vocab_size=11, hidden=8, feature_dim=6)
    feats = rng.standard_normal((3, 6))

    # (a) full teacher-forced unroll, T = 5, Z = 8, D = 11, m = 3
    tokens = [4, 7, 5, 9, 2]

    def unroll_loss():
        return P.unroll_rows(policy, [feats], [tokens], len(tokens)).loss(np.ones((1, 5)))

    err_unroll = O.grad_check(unroll_loss, policy.parameters(), max_coords=200)
    assert err_unroll <= 1e-4, f"policy unroll gradient error {err_unroll}"

    # (b), (c): curiosity losses on a sampled trace
    trace = P.rollout_sample(policy, feats, t_max=5, rng=np.random.default_rng(1))
    cur = C.init_curiosity(np.random.default_rng(2), vocab_size=11,
                           state_size=16, embed_size=8)
    targets = sp_targets(trace, cur)
    err_sp = O.grad_check(lambda: C.sp_loss(trace, cur, targets),
                          cur.parameters(), max_coords=200)
    assert err_sp <= 1e-4, f"state-prediction gradient error {err_sp}"
    err_ap = O.grad_check(lambda: C.ap_loss(trace, cur),
                          cur.parameters(), max_coords=200)
    assert err_ap <= 1e-4, f"action-prediction gradient error {err_ap}"

    # (d) policy-gradient surrogate with frozen advantages: RowUnroll.loss on
    # the row that samples the same trace, weight -A_t on its log-probability
    # being weight A_t on its cross-entropy
    advantage = np.linspace(0.5, 1.5, len(trace))
    lp_weights = -advantage[None, :]

    def rl_fn():
        run = P.unroll_rows(policy, [feats], [], 5, [np.random.default_rng(1)])
        return run.loss(np.zeros(lp_weights.shape) - lp_weights)

    err_rl = O.grad_check(rl_fn, policy.parameters(), max_coords=200)
    assert err_rl <= 1e-4, f"policy-gradient surrogate error {err_rl}"

    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient integrity took {elapsed:.1f}s"
    print(f"criterion 1: max errors unroll={err_unroll:.2e} sp={err_sp:.2e} "
          f"ap={err_ap:.2e} rl={err_rl:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: closed-form return equivalence


@pytest.mark.criterion("criterion-2-return-equivalence")
def test_criterion_2_closed_form_equivalence():
    for t_len in range(1, 21):
        for gamma in (0.0, 0.25, 0.5, 0.9, 1.0):
            reward = np.zeros(t_len)
            reward[-1] = 1.7
            mixed = R.td_lambda_q(reward, gamma, 1.0)
            closed = R.q_closed_form(1.7, t_len, gamma)
            np.testing.assert_allclose(mixed, closed, rtol=0, atol=1e-12)


@pytest.mark.criterion("criterion-2-return-equivalence")
def test_criterion_2_worked_value_exact():
    assert R.td_lambda_q([0.0, 0.0, 2.0], 0.9, 1.0).tolist() == [1.62, 1.8, 2.0]
    assert R.q_closed_form(2.0, 3, 0.9).tolist() == [1.62, 1.8, 2.0]


# ---------------------------------------------------------------------------
# criterion 3: metric oracles


@pytest.mark.criterion("criterion-3-metric-oracles")
def test_criterion_3_bleu_oracles():
    cand = tuple("the quick brown fox jumps over it".split())
    assert M.bleu([(cand, [cand])]) == pytest.approx(1.0)

    disjoint = [(tuple("alpha beta gamma delta".split()),
                 [tuple("one two three four".split())])]
    assert M.bleu(disjoint, mode="corpus") == 0.0

    short = ("the", "cat", "sat")
    long_ref = ("the", "cat", "sat", "down")
    got = M.bleu([(short, [long_ref])], max_n=3, mode="corpus")
    assert got == pytest.approx(0.7165313105737893, abs=1e-4)


@pytest.mark.criterion("criterion-3-metric-oracles")
def test_criterion_3_cider_oracles():
    doc1 = [tuple("a red box sits here".split())]
    doc2 = [tuple("the tall tree stands there".split())]

    single = M.build_idf([doc1])
    assert M.cider([(doc1[0], doc1)], single) == 0.0

    idf = M.build_idf([doc1, doc2])
    # golden values frozen from the brute-force TF-IDF/cosine oracle
    assert M.cider([(doc1[0], doc1)], idf) == pytest.approx(1.0, abs=1e-10)
    partial = tuple("a red tree sits here".split())
    assert M.cider([(partial, doc1)], idf) == pytest.approx(
        0.37677669529663693, abs=1e-10)

    doc3 = [tuple("a red box sits here".split()), tuple("a red box is here".split())]
    idf2 = M.build_idf([doc3, doc2])
    assert M.cider([(doc3[0], doc3)], idf2) == pytest.approx(
        0.7041666666666667, abs=1e-10)


# ---------------------------------------------------------------------------
# criterion 4: schedules


@pytest.mark.criterion("criterion-4-schedules")
def test_criterion_4_schedule_exactness():
    for k in range(51):
        eta = T.eta_schedule(1.0, 0.9, k)
        assert abs(eta - 1.0 * 0.9 ** k) <= 1e-15
        mu = T.lr_schedule(6e-4, 0.8, 3, k)
        assert abs(mu - 6e-4 * 0.8 ** (k // 3)) <= 1e-15


# ---------------------------------------------------------------------------
# criterion 5: decoding


@pytest.mark.criterion("criterion-5-decoding")
def test_criterion_5_beam_one_equals_greedy_on_100_scenes():
    mismatches = []
    for policy_seed in range(10):
        rng = np.random.default_rng(1000 + policy_seed)
        policy = P.init_policy(rng, vocab_size=7, hidden=6, feature_dim=4)
        for scene_seed in range(10):
            feats = np.random.default_rng(2000 + scene_seed).standard_normal((3, 4))
            greedy = P.rollout_greedy(policy, feats, t_max=6)
            beam = P.beam_search(policy, feats, t_max=6, width=1)
            if greedy != beam:
                mismatches.append((policy_seed, scene_seed, greedy, beam))
    assert not mismatches, mismatches[:3]


@pytest.mark.criterion("criterion-5-decoding")
def test_criterion_5_full_width_beam_is_exhaustive_argmax():
    def enumerate_best(policy, feats, t_max, eos=2):
        results = []

        def rec(prefix):
            if prefix and (prefix[-1] == eos or len(prefix) == t_max):
                results.append(
                    (sequence_log_prob(policy, feats, list(prefix)), prefix))
                return
            for w in range(policy.vocab_size):
                rec(prefix + (w,))

        rec(())
        return min(results, key=lambda c: (-c[0], c[1]))[1]

    for seed in (1, 3, 7, 12, 21):
        rng = np.random.default_rng(seed)
        policy = P.init_policy(rng, vocab_size=3, hidden=4, feature_dim=3)
        for p in policy.parameters():
            p.data *= 4.0
        feats = rng.standard_normal((2, 3))
        best = enumerate_best(policy, feats, t_max=3)
        got = P.beam_search(policy, feats, t_max=3, width=27)  # width >= D^T
        assert tuple(got) == best, f"seed {seed}: beam {got} vs enumerated {best}"


# ---------------------------------------------------------------------------
# criterion 6: determinism


@pytest.mark.criterion("criterion-6-determinism")
def test_criterion_6_identical_seeds_bit_identical_runs(tmp_path):
    spec = synth.GrammarSpec(
        nouns=("box", "tree", "dog", "cat", "car"),
        objects_per_scene=2, regions=4, feature_dim=16, seed=5)
    train, val, vocab = synth.synth_split(spec, 24, 8)

    def run(out):
        cfg = T.TrainConfig(epochs=3, batch_size=8, hidden_size=16, t_max=16,
                            seed=13, optimizer="adam", learning_rate=2e-3,
                            out_dir=str(out))
        result = T.train(train, val, vocab, cfg)
        return [r.to_json() for r in result.reports]

    reports_a = run(tmp_path / "a")
    reports_b = run(tmp_path / "b")
    assert reports_a == reports_b
    for name in ("last.ckpt", "best.ckpt"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b, f"{name} differs between identical runs"


# ---------------------------------------------------------------------------
# criteria 7 and 8 share the desk-scale corpus (filled in below)
