import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from curioseq import metrics as M
from curioseq import rewards as R

# ---------------------------------------------------------------------------
# independent brute-force oracles, kept free of the implementation's helpers


def oracle_ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def oracle_idf(docs):
    table = {}
    for refs in docs:
        seen = set()
        for ref in refs:
            for n in range(1, 5):
                seen.update(oracle_ngrams(ref, n))
        for g in seen:
            table[g] = table.get(g, 0) + 1
    return {g: math.log(len(docs) / df) for g, df in table.items()}


def oracle_cider(candidate, references, idf):
    per_n = []
    for n in range(1, 5):
        cg = Counter(oracle_ngrams(candidate, n))
        sims = []
        for ref in references:
            rg = Counter(oracle_ngrams(ref, n))
            num = sum((c * idf.get(g, 0.0)) * (rg.get(g, 0) * idf.get(g, 0.0))
                      for g, c in cg.items())
            cnorm = math.sqrt(sum((c * idf.get(g, 0.0)) ** 2 for g, c in cg.items()))
            rnorm = math.sqrt(sum((c * idf.get(g, 0.0)) ** 2 for g, c in rg.items()))
            sims.append(0.0 if cnorm == 0 or rnorm == 0 else num / (cnorm * rnorm))
        per_n.append(sum(sims) / len(sims))
    return sum(per_n) / 4


DOC1 = [tuple("a red box sits here".split())]
DOC2 = [tuple("the tall tree stands there".split())]


class TestBleu:
    def test_identical_pair_scores_one(self):
        cand = tuple("the quick brown fox jumps over the lazy dog".split())
        assert M.bleu([(cand, [cand])]) == pytest.approx(1.0)

    def test_disjoint_four_gram_scores_zero(self):
        cand = tuple("alpha beta gamma delta".split())
        ref = tuple("one two three four five".split())
        assert M.bleu([(cand, [ref])], mode="corpus") == 0.0

    def test_hand_derived_brevity_penalty_case(self):
        # candidate 3 tokens, reference 4; all trigram precisions are 1 so
        # BLEU-3 is exactly the brevity penalty exp(1 - 4/3)
        cand = ("the", "cat", "sat")
        ref = ("the", "cat", "sat", "down")
        got = M.bleu([(cand, [ref])], max_n=3, mode="corpus")
        assert got == pytest.approx(0.7165313105737893, abs=1e-4)

    def test_empty_candidate_scores_zero(self):
        assert M.bleu([((), [("a",)])]) == 0.0

    def test_smoothing_keeps_partial_overlap_positive(self):
        cand = tuple("a red box".split())
        ref = tuple("a red tree stands".split())
        assert M.bleu([(cand, [ref])], mode="corpus") == 0.0
        assert M.bleu([(cand, [ref])], mode="sentence") > 0.0

    def test_closest_reference_length_ties_go_short(self):
        # candidate length 3; references of length 2 and 4 tie -> r = 2 -> no BP
        cand = ("a", "b", "c")
        refs = [("a", "b"), ("a", "b", "c", "d")]
        got = M.bleu([(cand, refs)], max_n=1, mode="corpus")
        assert got == pytest.approx(1.0)

    def test_range_and_reference_equality(self):
        samples = [
            (tuple("a b c d".split()), [tuple("a b c d".split())]),
            (tuple("e f g h".split()), [tuple("e f g h".split())]),
        ]
        for n in (1, 2, 3, 4):
            assert M.bleu(samples, max_n=n) == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [0, 5])
    def test_an_order_outside_one_to_max_ngram_is_rejected(self, order):
        with pytest.raises(ValueError, match="BLEU order must be in 1..4"):
            M.bleu([(("a",), [("a",)])], max_n=order)

    @given(st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_permutation_invariance(self, order):
        base = [
            (("a", "b"), [("a", "b", "c")]),
            (("x", "y", "z"), [("x", "z")]),
            (("p",), [("p", "q")]),
            (("m", "n", "o"), [("m", "n", "o")]),
        ]
        shuffled = [base[i] for i in order]
        assert M.bleu(shuffled, mode="sentence") == pytest.approx(
            M.bleu(base, mode="sentence"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            M.bleu([(("a",), [("a",)])], mode="magic")


class TestIdf:
    def test_ngram_in_every_document_has_zero_idf(self):
        idf = M.build_idf([DOC1, DOC1])
        assert idf.get(("a",)) == 0.0

    def test_ngram_in_one_of_two_documents(self):
        idf = M.build_idf([DOC1, DOC2])
        assert idf.get(("box",)) == pytest.approx(math.log(2))

    def test_reorder_invariance(self):
        a = M.build_idf([DOC1, DOC2])
        b = M.build_idf([DOC2, DOC1])
        assert a.values == b.values

    def test_matches_oracle(self):
        docs = [DOC1, DOC2, [tuple("a tall box sits".split())]]
        got = M.build_idf(docs)
        expected = oracle_idf(docs)
        assert got.values == pytest.approx(expected)


class TestCider:
    def test_single_document_corpus_scores_zero(self):
        idf = M.build_idf([DOC1])
        assert M.cider([(DOC1[0], DOC1)], idf) == 0.0

    def test_disjoint_candidate_scores_zero(self):
        idf = M.build_idf([DOC1, DOC2])
        assert M.cider([(("zebra", "jumps"), DOC1)], idf) == 0.0

    def test_golden_identical_candidate(self):
        idf = M.build_idf([DOC1, DOC2])
        got = M.cider([(DOC1[0], DOC1)], idf)
        assert got == pytest.approx(1.0, abs=1e-10)
        assert got == pytest.approx(oracle_cider(DOC1[0], DOC1, oracle_idf([DOC1, DOC2])),
                                    abs=1e-10)

    def test_golden_partial_candidate(self):
        # frozen from the brute-force TF-IDF/cosine oracle on this corpus
        idf = M.build_idf([DOC1, DOC2])
        cand = tuple("a red tree sits here".split())
        got = M.cider([(cand, DOC1)], idf)
        assert got == pytest.approx(0.37677669529663693, abs=1e-10)
        assert got == pytest.approx(oracle_cider(cand, DOC1, oracle_idf([DOC1, DOC2])),
                                    abs=1e-10)

    def test_golden_two_reference_document(self):
        doc3 = [tuple("a red box sits here".split()), tuple("a red box is here".split())]
        doc4 = DOC2
        idf = M.build_idf([doc3, doc4])
        got = M.cider([(doc3[0], doc3)], idf)
        assert got == pytest.approx(0.7041666666666667, abs=1e-10)
        assert got == pytest.approx(oracle_cider(doc3[0], doc3, oracle_idf([doc3, doc4])),
                                    abs=1e-10)

    def test_idf_scale_invariance(self):
        idf = M.build_idf([DOC1, DOC2])
        scaled = M.IdfTable(values={g: 3.7 * v for g, v in idf.values.items()})
        cand = tuple("a red tree sits here".split())
        assert M.cider([(cand, DOC1)], scaled) == pytest.approx(
            M.cider([(cand, DOC1)], idf), abs=1e-12)

    def test_permutation_invariance(self):
        idf = M.build_idf([DOC1, DOC2])
        samples = [(DOC1[0], DOC1), (DOC2[0], DOC2)]
        assert M.cider(samples, idf) == pytest.approx(M.cider(samples[::-1], idf))

    def test_nonnegative(self):
        idf = M.build_idf([DOC1, DOC2])
        assert M.cider([(("box", "box", "box"), DOC1)], idf) >= 0.0


# token lists over a small alphabet, so grams repeat and references share
# grams with the candidate; "z" never reaches an idf table below
TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d", ".", "z"]), max_size=16)
REFS = st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "."]), max_size=16),
                min_size=1, max_size=3)


class TestReferenceStatistics:
    """The scorers that read per-scene reference statistics against the
    scorers that counted every n-gram again at each call (oracles), with
    exact equality: the sums run in the same order, so no bit may differ."""

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=9), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_ngram_counts_iterate_in_the_oracle_order(self, tokens, n):
        assert list(M.ngram_counts(tokens, n).items()) == list(
            oracles.ngram_counts(tokens, n).items())

    @given(TOKENS, REFS, st.lists(REFS, max_size=3), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_scored_reward_equals_the_oracle(self, cand, refs, other_docs, a, b):
        idf = M.build_idf([refs] + other_docs)
        stats = M.reference_stats(refs, idf)
        assert R.scored_reward(cand, stats, a, b) == oracles.scored_reward(cand, refs, idf, a, b)

    @given(st.lists(st.tuples(TOKENS, REFS), min_size=1, max_size=4), st.lists(REFS, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_bleu_and_cider_equal_the_oracle(self, samples, other_docs):
        idf = M.build_idf([refs for _, refs in samples[:2]] + other_docs)
        for n in (1, 2, 3, 4):
            for mode in ("corpus", "sentence"):
                assert M.bleu(samples, max_n=n, mode=mode) == oracles.bleu(samples, n, mode)
        assert M.cider(samples, idf) == oracles.cider(samples, idf)
        for cand, refs in samples:
            assert M.cider_single(cand, refs, idf) == oracles.cider_single(cand, refs, idf)

    def test_edge_cases_equal_the_oracle(self):
        idf = M.build_idf([DOC1, DOC2])
        refs = [("a", "red", "box", "a", "red", "box"), ("a", "red")]
        cases = [(), ("a",), ("a", "red"), ("z", "z", "z"), ("a", "red", "box", "a", "red"),
                 ("box", "box", "box", "box")]
        for cand in cases:
            for ref_set in (refs[:1], refs, [()] + refs):
                stats = M.reference_stats(ref_set, idf)
                assert R.scored_reward(cand, stats, 1.0, 2.0) == oracles.scored_reward(
                    cand, ref_set, idf, 1.0, 2.0)
                sample = [(cand, ref_set)]
                assert M.bleu(sample, mode="sentence") == oracles.bleu(sample, 4, "sentence")
                assert M.cider(sample, idf) == oracles.cider(sample, idf)

    def test_statistics_hold_the_clip_lengths_and_norms(self):
        idf = M.build_idf([DOC1, DOC2])
        refs = [("a", "red", "a"), ("a", "box")]
        stats = M.reference_stats(refs, idf)
        assert stats.lengths == [3, 2]
        assert stats.max_counts[0] == {("a",): 2, ("red",): 1, ("box",): 1}
        assert stats.max_counts[2] == {("a", "red", "a"): 1}
        assert stats.vectors[0][1] == {("a",): idf.get(("a",)), ("box",): idf.get(("box",))}
        assert stats.norms[1][1] == math.sqrt(idf.get(("a", "box")) ** 2)
        assert stats.vectors[3] == [{}, {}] and stats.norms[3] == [0.0, 0.0]

    @given(REFS, st.lists(REFS, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_keys_are_the_tables_own_tuples(self, refs, other_docs):
        # against a table of the references' own corpus, which has every
        # n-gram of them, and one of other documents, which may lack some
        for docs in ([refs] + other_docs, [[["a", "b"]]] + other_docs):
            idf = M.build_idf(docs)
            own = {g: g for g in idf.values}
            stats = M.reference_stats(refs, idf)
            fresh = oracles.fresh_key_reference_stats(refs, idf)
            assert stats == fresh
            for got, want in zip(stats.max_counts + [v for vs in stats.vectors for v in vs],
                                 fresh.max_counts + [v for vs in fresh.vectors for v in vs],
                                 strict=True):
                assert list(got.items()) == list(want.items())
                assert all(g is own[g] for g in got if g in own)

    def test_a_sample_without_references_is_rejected(self):
        idf = M.build_idf([DOC1, DOC2])
        with pytest.raises(ValueError, match="without references"):
            M.bleu([(("a",), [])])
        with pytest.raises(ValueError, match="without references"):
            M.cider_single(("a",), [], idf)
        with pytest.raises(ValueError, match="without references"):
            M.cider([(("a",), [])], idf)
        with pytest.raises(ValueError, match="without references"):
            M.reference_stats([], idf)
        with pytest.raises(ValueError, match="at least one sample"):
            M.bleu([])


class TestDiversityGraph:
    def test_single_sentence_example(self):
        graph = M.diversity_graph([["a", "b", "a"]])
        assert graph.nodes == {"a": 2, "b": 1}
        assert graph.edges == {("a", "b"): 2}

    def test_empty_input_gives_empty_graph(self):
        graph = M.diversity_graph([])
        assert graph.node_count == 0 and graph.edge_count == 0
        assert graph.distinct_1 == 0.0 and graph.distinct_2 == 0.0

    def test_control_tokens_excluded(self):
        graph = M.diversity_graph([["<bos>", "a", "<eos>"]])
        assert set(graph.nodes) == {"a"}

    def test_period_splits_sentences(self):
        graph = M.diversity_graph([["a", "b", ".", "c", "d"]])
        assert ("b", "c") not in graph.edges
        assert graph.edges == {("a", "b"): 1, ("c", "d"): 1}

    def test_counts_match_brute_force_scan(self):
        paragraphs = [
            ["the", "red", "box", ".", "the", "tall", "tree", "."],
            ["a", "dog", "sits", ".", "the", "red", "dog", "."],
        ]
        graph = M.diversity_graph(paragraphs)
        # brute-force scan
        tokens = [t for para in paragraphs for t in para]
        words = [t for t in tokens if t != "."]
        assert graph.node_count == len(set(words))
        assert graph.total_tokens == len(words)
        pairs = []
        for para in paragraphs:
            sent = []
            for t in para:
                if t == ".":
                    pairs.extend(zip(sent, sent[1:]))
                    sent = []
                else:
                    sent.append(t)
            pairs.extend(zip(sent, sent[1:]))
        assert graph.total_pairs == len(pairs)
        assert graph.unique_pairs == len(set(pairs))
        assert graph.distinct_2 == pytest.approx(len(set(pairs)) / len(pairs))

    def test_degree_histogram_and_export(self):
        graph = M.diversity_graph([["a", "b", ".", "b", "c"]])
        doc = graph.to_dict()
        assert {n["token"] for n in doc["nodes"]} == {"a", "b", "c"}
        assert doc["stats"]["edge_count"] == 2
        assert doc["stats"]["degree_histogram"] == {"1": 2, "2": 1}
