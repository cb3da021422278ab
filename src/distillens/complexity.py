"""Corpus-level data complexity metrics.

Three quantities describe how hard a parallel corpus is to learn from:

* Fuzzy reordering score (FRS): how monotonically each target sentence
  is aligned to its source, averaged over the corpus. 1.0 means every
  aligned target token follows its predecessor's source word directly.
* Lexical diversity: the entropy, in nats, of aligned target words
  given a source word, averaged over the source vocabulary.
* Faithfulness: the KL divergence, in nats, from a reference corpus's
  alignment-derived conditionals to this corpus's, averaged over the
  reference source vocabulary.

All three operate on per-sentence link sets plus the token sequences
they refer to; nothing here needs a trained model.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .corpus_io import Alignment, ParallelCorpus, _add_in_order, _Frozen, check_alignments

__all__ = [
    "ConditionalTable",
    "ComplexityReport",
    "sentence_frs",
    "corpus_frs",
    "conditional_distribution",
    "lexical_diversity",
    "faithfulness",
    "compute_report",
]

DEFAULT_SMOOTHING = 0.01


def check_smoothing(alpha: float) -> None:
    """Reject a smoothing constant that is not finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"smoothing constant must be finite and > 0, got {alpha}")


class ConditionalTable(_Frozen):
    """Link counts of target words given source words.

    ``counts[x][y]`` is the number of alignment links joining source
    word x to target word y. The induced distribution p(y|x) is the
    count normalization of each row.
    """

    __slots__ = ("counts",)
    counts: dict[str, dict[str, int]]

    def __init__(self, counts: dict[str, dict[str, int]]) -> None:
        object.__setattr__(self, "counts", counts)

    def vocabulary(self) -> list[str]:
        """Source words with at least one counted link, in insertion order."""
        return [x for x, row in self.counts.items() if any(c > 0 for c in row.values())]

    def distribution(self, source_word: str) -> dict[str, float]:
        """Normalized p(.|source_word); empty when the word has no counts."""
        row = self.counts.get(source_word, {})
        total = sum(row.values())
        if total == 0:
            return {}
        return {y: count / total for y, count in row.items() if count > 0}


class ComplexityReport(NamedTuple):
    frs: float
    lexical_diversity: float
    faithfulness: float
    sentence_count: int

    def to_dict(self) -> dict:
        return self._asdict()


def sentence_frs(alignment: Alignment, target_length: int) -> float:
    """Fuzzy reordering score of one aligned sentence pair.

    The alignment is reduced to one source index per aligned target
    position (leftmost link); unaligned target positions are skipped.
    Scanning the reduced indices in target order, a new chunk starts
    whenever an index is not the predecessor's successor. With C chunks
    over M aligned positions the score is 1 - (C-1)/(M-1); sentences
    with at most one aligned position score 1.0.
    """
    if target_length < 1:
        raise ValueError(f"target_length must be >= 1, got {target_length}")
    alignment.validate(target_length=target_length)
    reduced = list(alignment.leftmost_by_target().values())
    if len(reduced) <= 1:
        return 1.0
    chunks = 1
    for previous, current in zip(reduced, reduced[1:]):
        if current != previous + 1:
            chunks += 1
    return 1.0 - (chunks - 1) / (len(reduced) - 1)


def corpus_frs(corpus: ParallelCorpus, alignments: Sequence[Alignment]) -> float:
    """Unweighted mean of sentence_frs over all pairs."""
    check_alignments(corpus, alignments)
    if len(corpus) == 0:
        raise ValueError("cannot average over an empty corpus")
    total = 0.0
    for pair, alignment in zip(corpus, alignments):
        total += sentence_frs(alignment, len(pair.target))
    return total / len(corpus)


def conditional_distribution(
    corpus: ParallelCorpus, alignments: Sequence[Alignment]
) -> ConditionalTable:
    """Count target words per source word over all alignment links.

    Each link (i, j) contributes one count to (source token i, target
    token j); unaligned tokens contribute nothing.
    """
    check_alignments(corpus, alignments)
    counts: dict[str, dict[str, int]] = {}
    for pair, alignment in zip(corpus, alignments):
        for i, j in sorted(alignment.links):
            row = counts.setdefault(pair.source[i], {})
            y = pair.target[j]
            row[y] = row.get(y, 0) + 1
    return ConditionalTable(counts)


def _entropy(distribution: dict[str, float]) -> float:
    # 0 * ln 0 terms are absent by construction: distribution() drops zeros.
    return -_add_in_order(p * math.log(p) for p in distribution.values())


def lexical_diversity(table: ConditionalTable) -> float:
    """Mean conditional entropy H(y|x) over the source vocabulary, in nats."""
    vocabulary = table.vocabulary()
    if not vocabulary:
        raise ValueError("conditional table has an empty source vocabulary")
    entropies = (_entropy(table.distribution(x)) for x in vocabulary)
    return _add_in_order(entropies) / len(vocabulary)


def faithfulness(
    real_table: ConditionalTable,
    distilled_table: ConditionalTable,
    alpha: float = DEFAULT_SMOOTHING,
) -> float:
    """Mean KL(p_real(.|x) || smoothed p_distilled(.|x)) over the real vocabulary.

    The distilled conditional is additively smoothed with pseudo-mass
    ``alpha`` per target word over the union support of both
    conditionals, so the divergence stays finite when the distilled
    corpus misses a target word. A source word absent from the distilled
    table falls back to the uniform distribution over that support.
    An alpha so large that a smoothed value is 0, or so small that the
    divergence is not finite, is a ValueError.
    """
    check_smoothing(alpha)
    vocabulary = real_table.vocabulary()
    if not vocabulary:
        raise ValueError("real table has an empty source vocabulary")
    total = 0.0
    for x in vocabulary:
        p_real = real_table.distribution(x)
        p_distilled = distilled_table.distribution(x)
        support_size = len(p_real.keys() | p_distilled.keys())
        if not p_distilled:
            smoothed = {y: 1.0 / support_size for y in p_real}
        else:
            denominator = 1.0 + alpha * support_size
            smoothed = {y: (p_distilled.get(y, 0.0) + alpha) / denominator for y in p_real}
        if 0.0 in smoothed.values():  # alpha * support_size overflowed
            raise ValueError(f"smoothing constant {alpha} is too large: a smoothed value is 0")
        total += _add_in_order(p * math.log(p / smoothed[y]) for y, p in p_real.items())
    if not math.isfinite(total):  # p / alpha overflowed
        raise ValueError(f"smoothing constant {alpha} is too small: faithfulness is {total}")
    return total / len(vocabulary)


def compute_report(
    corpus: ParallelCorpus,
    alignments: Sequence[Alignment],
    reference_table: ConditionalTable | None = None,
    alpha: float = DEFAULT_SMOOTHING,
) -> ComplexityReport:
    """All three metrics for one corpus.

    Faithfulness is measured against ``reference_table`` when given,
    otherwise against the corpus's own conditionals, which makes it
    the smoothing residual (near zero by definition).
    """
    table = conditional_distribution(corpus, alignments)
    return ComplexityReport(
        frs=corpus_frs(corpus, alignments),
        lexical_diversity=lexical_diversity(table),
        faithfulness=faithfulness(reference_table or table, table, alpha),
        sentence_count=len(corpus),
    )
