"""Evaluation metrics: corpus and smoothed BLEU-n, TF-IDF consensus scoring,
and diversity-graph statistics over generated paragraphs.

reference_stats counts a scene's references once, for BLEU's clip and the
consensus score both, keyed by the IdfTable's own n-gram tuples, so a run's
statistics hold one tuple per distinct n-gram."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .vocab import RESERVED

Ngram = tuple[str, ...]
TokenSeq = Sequence[str]

MAX_NGRAM = 4
SENTENCE_BOUNDARY = "."


def ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    """The n-grams of tokens, counted in the order they first occur."""
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def candidate_counts(tokens: TokenSeq) -> list[Counter]:
    """A candidate's n-gram counts for n = 1..MAX_NGRAM: what BLEU and the
    consensus score both read from it."""
    return [ngram_counts(tokens, n) for n in range(1, MAX_NGRAM + 1)]


# ---------------------------------------------------------------------------
# TF-IDF table and per-scene reference statistics


@dataclass
class IdfTable:
    """log(N / df) per n-gram over a reference corpus of N documents. keys
    maps each n-gram of the table to the table's own tuple of it, which
    reference_stats keys its dicts by, so that every count of an n-gram
    shares one tuple."""

    values: dict[Ngram, float]
    keys: dict[Ngram, Ngram] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keys = {g: g for g in self.values}

    def get(self, gram: Ngram) -> float:
        return self.values.get(gram, 0.0)


def build_idf(reference_docs: Sequence[Sequence[TokenSeq]]) -> IdfTable:
    """One document = the reference set of one sample; df counts documents."""
    if not reference_docs:
        raise ValueError("cannot build idf from an empty corpus")
    df: Counter = Counter()
    for refs in reference_docs:
        seen: set[Ngram] = set()
        for ref in refs:
            for n in range(1, MAX_NGRAM + 1):
                seen.update(ngram_counts(ref, n))
        df.update(seen)
    n_docs = len(reference_docs)
    return IdfTable({g: math.log(n_docs / c) for g, c in df.items()})


@dataclass
class References:
    """One scene's references, counted once against an IdfTable, for n =
    1..MAX_NGRAM. Index [n - 1] of max_counts, vectors and norms holds the
    n-grams:

    - max_counts: BLEU's clip, each gram's largest count in any reference.
    - vectors: per reference, count * idf of each of its grams, in the order
      the reference first has them.
    - norms: per reference, the Euclidean norm of its vector.
    """

    idf: IdfTable
    lengths: list[int]
    max_counts: list[dict[Ngram, int]]
    vectors: list[list[dict[Ngram, float]]]
    norms: list[list[float]]


def reference_stats(refs: Sequence[TokenSeq], idf: IdfTable) -> References:
    """Count refs once: the statistics that BLEU and the consensus score of
    any candidate against them read. An n-gram that idf has is keyed by
    idf's own tuple."""
    if not refs:
        raise ValueError("cannot score a sample without references")
    get, own = idf.values.get, idf.keys.get
    max_counts, vectors, norms = [], [], []
    for n in range(1, MAX_NGRAM + 1):
        counts = [{own(g, g): c for g, c in ngram_counts(ref, n).items()} for ref in refs]
        best: dict[Ngram, int] = {}
        for rg in counts:
            for g, c in rg.items():
                if c > best.get(g, 0):
                    best[g] = c
        vecs = [{g: c * get(g, 0.0) for g, c in rg.items()} for rg in counts]
        max_counts.append(best)
        vectors.append(vecs)
        norms.append([math.sqrt(sum(w ** 2 for w in vec.values())) for vec in vecs])
    return References(idf, [len(ref) for ref in refs], max_counts, vectors, norms)


# ---------------------------------------------------------------------------
# BLEU


class BleuSums:
    """Clipped n-gram matches and totals per n, and the candidate and closest
    reference lengths, summed over the samples added; score(n) is BLEU-n of
    those sums for any n up to MAX_NGRAM."""

    def __init__(self):
        self.matched = [0] * MAX_NGRAM
        self.total = [0] * MAX_NGRAM
        self.cand_len = 0
        self.ref_len = 0
        self.samples = 0

    def add(self, counts: Sequence[Counter], cand_len: int, refs: References) -> None:
        self.samples += 1
        self.cand_len += cand_len
        # closest reference length, ties resolved toward the shorter reference
        self.ref_len += min((abs(r - cand_len), r) for r in refs.lengths)[1]
        for k, (cg, best) in enumerate(zip(counts, refs.max_counts)):
            self.matched[k] += sum(min(c, best.get(g, 0)) for g, c in cg.items())
            self.total[k] += sum(cg.values())

    def score(self, max_n: int, mode: str = "corpus") -> float:
        """Geometric mean of the clipped n-gram precisions for n = 1..max_n,
        with brevity penalty. Mode "corpus" uses raw precisions; "sentence"
        adds 1 to numerator and denominator for n >= 2 so single-sentence
        scores stay informative."""
        if mode not in ("corpus", "sentence"):
            raise ValueError(f"unknown BLEU mode {mode!r}")
        if not self.samples:
            raise ValueError("bleu needs at least one sample")
        if self.cand_len == 0:
            return 0.0
        log_sum = 0.0
        for n in range(1, max_n + 1):
            m, t = self.matched[n - 1], self.total[n - 1]
            if mode == "sentence" and n >= 2:
                m, t = m + 1, t + 1
            if t == 0 or m == 0:
                return 0.0
            log_sum += math.log(m / t)
        precision_term = math.exp(log_sum / max_n)
        bp = (1.0 if self.cand_len >= self.ref_len
              else math.exp(1.0 - self.ref_len / self.cand_len))
        return bp * precision_term


# BLEU reads no idf: bleu builds its statistics against this empty table
NO_IDF = IdfTable({})


def bleu(samples: Sequence[tuple[TokenSeq, Sequence[TokenSeq]]],
         max_n: int = MAX_NGRAM, mode: str = "corpus") -> float:
    """BLEU-max_n, for max_n in 1..MAX_NGRAM: BleuSums.score over
    (candidate, references) token pairs, aggregated corpus-style."""
    if not 1 <= max_n <= MAX_NGRAM:
        raise ValueError(f"BLEU order must be in 1..{MAX_NGRAM}, got {max_n}")
    sums = BleuSums()
    for cand, refs in samples:
        sums.add(candidate_counts(cand), len(cand), reference_stats(refs, NO_IDF))
    return sums.score(max_n, mode)


# ---------------------------------------------------------------------------
# TF-IDF consensus (CIDEr)


def consensus(counts: Sequence[Counter], refs: References) -> float:
    """The TF-IDF cosine of a candidate's n-gram counts with each reference,
    averaged over the references and then over n: the per-candidate
    consensus score. A zero-norm side scores 0."""
    get = refs.idf.values.get
    per_n = []
    for cg, vecs, norms in zip(counts, refs.vectors, refs.norms):
        weights = {g: c * get(g, 0.0) for g, c in cg.items()}
        cnorm = math.sqrt(sum(w ** 2 for w in weights.values()))
        sims = []
        for rw, rnorm in zip(vecs, norms):
            num = 0.0
            for g, w in weights.items():
                if g in rw:
                    num += w * rw[g]
            sims.append(0.0 if cnorm == 0.0 or rnorm == 0.0 else num / (cnorm * rnorm))
        per_n.append(sum(sims) / len(sims))
    return sum(per_n) / len(per_n)


def cider_single(cand: TokenSeq, refs: Sequence[TokenSeq], idf: IdfTable) -> float:
    return consensus(candidate_counts(cand), reference_stats(refs, idf))


def cider(samples: Sequence[tuple[TokenSeq, Sequence[TokenSeq]]], idf: IdfTable) -> float:
    """Mean over candidates of the per-n-averaged TF-IDF cosine consensus."""
    if not samples:
        raise ValueError("cider needs at least one sample")
    return sum(cider_single(c, r, idf) for c, r in samples) / len(samples)


# ---------------------------------------------------------------------------
# diversity graph (token adjacency within sentences)


@dataclass
class DiversityGraph:
    """Unique tokens as nodes and within-sentence adjacencies as undirected
    edges. distinct_2 is over ordered adjacent pairs inside sentences;
    distinct_1 over all non-control tokens."""

    nodes: dict[str, int] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    total_tokens: int = 0
    total_pairs: int = 0
    unique_pairs: int = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def distinct_1(self) -> float:
        return len(self.nodes) / self.total_tokens if self.total_tokens else 0.0

    @property
    def distinct_2(self) -> float:
        return self.unique_pairs / self.total_pairs if self.total_pairs else 0.0

    def degree_histogram(self) -> dict[int, int]:
        degrees: Counter = Counter()
        for a, b in self.edges:
            degrees[a] += 1
            if b != a:
                degrees[b] += 1
        hist: Counter = Counter(degrees[node] for node in self.nodes)
        return dict(sorted(hist.items()))

    def to_dict(self) -> dict:
        return {
            "nodes": [{"token": t, "count": c} for t, c in sorted(self.nodes.items())],
            "edges": [
                {"a": a, "b": b, "count": c}
                for (a, b), c in sorted(self.edges.items())
            ],
            "stats": {
                "node_count": self.node_count,
                "edge_count": self.edge_count,
                "total_tokens": self.total_tokens,
                "distinct_1": self.distinct_1,
                "distinct_2": self.distinct_2,
                "degree_histogram": {str(k): v for k, v in self.degree_histogram().items()},
            },
        }


def split_sentences(tokens: TokenSeq) -> list[list[str]]:
    sentences: list[list[str]] = []
    current: list[str] = []
    for tok in tokens:
        if tok == SENTENCE_BOUNDARY:
            if current:
                sentences.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        sentences.append(current)
    return sentences


def diversity_graph(paragraphs: Iterable[TokenSeq]) -> DiversityGraph:
    """Control tokens are dropped; the sentence boundary token acts as a
    delimiter only and is not itself a node."""
    graph = DiversityGraph()
    ordered_pairs: set[tuple[str, str]] = set()
    for para in paragraphs:
        tokens = [t for t in para if t not in RESERVED]
        for sentence in split_sentences(tokens):
            for tok in sentence:
                graph.nodes[tok] = graph.nodes.get(tok, 0) + 1
                graph.total_tokens += 1
            for a, b in zip(sentence, sentence[1:]):
                graph.total_pairs += 1
                ordered_pairs.add((a, b))
                key = (a, b) if a <= b else (b, a)
                graph.edges[key] = graph.edges.get(key, 0) + 1
    graph.unique_pairs = len(ordered_pairs)
    return graph
