"""Pick one distilled reference per source from a k-best list.

Every hypothesis is scored as a convex combination of two components:
similarity to the original reference (smoothed sentence-level BLEU) and
a complexity score relating the hypothesis to the source sentence. The
complexity score comes in three flavours: the hypothesis's fuzzy
reordering score, its word-alignment log probability, or the teacher
model's sentence log probability stored in the k-best list.

BLEU lives in [0, 1] while the other components are log probabilities
or reordering scores on their own scales, so both components are
min-max normalized within each k-best list before mixing; a component
that is constant across the list maps to 0.5 for every entry.
"""

from __future__ import annotations

from collections import Counter
from math import exp, log
from typing import NamedTuple, Sequence

from .aligner import NULL_TOKEN, TranslationTable, viterbi_align
from .aligner import word_alignment_score  # unused; perfbench's tracer patches it here
from .complexity import sentence_frs
from .corpus_io import Alignment, KBestEntry, KBestList, SentencePair, _add_in_order, _Frozen

__all__ = [
    "SelectionConfig",
    "ScoredHypothesis",
    "smoothed_sentence_bleu",
    "min_max_normalize",
    "score_hypotheses",
    "select_reference",
]

COMPLEXITY_KINDS = ("frs", "walign", "nmt")

MAX_NGRAM = 4


class SelectionConfig(_Frozen):
    """Weights and knobs for hypothesis scoring.

    ``sim_weight`` is the coefficient on the similarity component; the
    complexity component gets ``1 - sim_weight``.
    """

    __slots__ = ("sim_weight", "complexity_kind")
    sim_weight: float
    complexity_kind: str

    def __init__(self, sim_weight: float, complexity_kind: str) -> None:
        if not 0.0 <= sim_weight <= 1.0:
            raise ValueError(f"sim_weight must be in [0, 1], got {sim_weight}")
        if complexity_kind not in COMPLEXITY_KINDS:
            raise ValueError(
                f"complexity_kind must be one of {COMPLEXITY_KINDS}, "
                f"got {complexity_kind!r}"
            )
        object.__setattr__(self, "sim_weight", sim_weight)
        object.__setattr__(self, "complexity_kind", complexity_kind)


class ScoredHypothesis(NamedTuple):
    entry: KBestEntry
    sim: float
    sim_norm: float
    cxty_raw: float
    cxty_norm: float
    total: float


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def _reference_counts(reference: Sequence[str], max_ngram: int) -> list[Counter]:
    """The reference's n-gram counts for n = 1..max_ngram."""
    if not reference:
        raise ValueError("reference must be non-empty")
    if max_ngram < 1:
        raise ValueError(f"max_ngram must be >= 1, got {max_ngram}")
    return [_ngram_counts(reference, n) for n in range(1, max_ngram + 1)]


def _bleu(hypothesis: Sequence[str], ref_len: int, ref_counts: list[Counter]) -> float:
    """smoothed_sentence_bleu against a reference given by its length and counts."""
    if not hypothesis:
        return 0.0
    max_ngram = len(ref_counts)
    log_precision_sum = 0.0
    for n, ref_grams in enumerate(ref_counts, start=1):
        matches = 0
        for gram, count in _ngram_counts(hypothesis, n).items():
            ref_count = ref_grams.get(gram)
            if ref_count is not None:
                matches += count if count < ref_count else ref_count
        total = max(len(hypothesis) - n + 1, 0)
        if n == 1:
            if matches == 0:
                return 0.0
            log_precision_sum += log(matches / total)
        else:
            log_precision_sum += log((matches + 1) / (total + 1))
    geometric_mean = exp(log_precision_sum / max_ngram)
    brevity = min(1.0, exp(1.0 - ref_len / len(hypothesis)))
    return brevity * geometric_mean


def smoothed_sentence_bleu(
    hypothesis: Sequence[str], reference: Sequence[str], max_ngram: int = MAX_NGRAM
) -> float:
    """Sentence BLEU with add-one smoothing on n-gram orders above one.

    Clipped n-gram precisions p_1..p_N are combined by geometric mean
    and multiplied by the brevity penalty min(1, e^(1 - |ref|/|hyp|)).
    Orders n >= 2 add one to both the match count and the candidate
    count; unigram precision is left raw, so a hypothesis sharing no
    unigram with the reference scores exactly zero, as does an empty
    hypothesis.
    """
    return _bleu(hypothesis, len(reference), _reference_counts(reference, max_ngram))


def min_max_normalize(values: Sequence[float]) -> list[float]:
    """Rescale to [0, 1] within the list; a constant list maps to all 0.5."""
    low = min(values)
    high = max(values)
    if high == low:
        return [0.5] * len(values)
    span = high - low
    return [(value - low) / span for value in values]


def _complexity_raws(
    entries: Sequence[KBestEntry],
    source: Sequence[str],
    config: SelectionConfig,
    table: TranslationTable | None,
) -> list[float]:
    """Raw complexity of each entry against the list's one source.

    ``walign`` and ``frs`` score each hypothesis's Viterbi alignment. A
    target token's Viterbi link depends only on its word and the source,
    and the source is the same for the whole list, so Viterbi runs once,
    over the list's distinct target words. ``frs`` reads each
    hypothesis's alignment off that. ``walign`` looks up each distinct
    word's ln p(y | its winner, or NULL) once and sums those terms over
    the hypothesis in token order: the same addends in the same order as
    :func:`word_alignment_score` on the hypothesis's own Viterbi
    alignment, so the same float.
    """
    kind = config.complexity_kind
    if kind == "nmt":
        return [entry.nmt_logprob for entry in entries]
    if table is None:
        raise ValueError(f"complexity kind {kind!r} needs a translation table")
    source = tuple(source)
    words = tuple(dict.fromkeys(y for entry in entries for y in entry.hypothesis))
    winner = {words[j]: i for i, j in viterbi_align(SentencePair(source, words), table).links}
    if kind == "frs":
        targets = [entry.hypothesis for entry in entries]
        return [
            sentence_frs(
                Alignment(frozenset((winner[y], j) for j, y in enumerate(target) if y in winner)),
                len(target),
            )
            for target in targets
        ]
    logp = {
        y: log(table.prob(source[winner[y]] if y in winner else NULL_TOKEN, y)) for y in words
    }
    return [_add_in_order(map(logp.__getitem__, entry.hypothesis), 0.0) for entry in entries]


def score_hypotheses(
    kbest: KBestList,
    reference: Sequence[str],
    source: Sequence[str],
    config: SelectionConfig,
    table: TranslationTable | None = None,
) -> list[ScoredHypothesis]:
    """Score every entry of one k-best list, preserving list order."""
    if not kbest.entries:
        raise ValueError(f"k-best list for sentence {kbest.sentence_id} is empty")
    ref_counts = _reference_counts(reference, MAX_NGRAM)
    sims = [_bleu(entry.hypothesis, len(reference), ref_counts) for entry in kbest.entries]
    raws = _complexity_raws(kbest.entries, source, config, table)
    sim_norms = min_max_normalize(sims)
    cxty_norms = min_max_normalize(raws)
    scored = []
    for entry, sim, sim_norm, raw, cxty_norm in zip(
        kbest.entries, sims, sim_norms, raws, cxty_norms
    ):
        total = config.sim_weight * sim_norm + (1.0 - config.sim_weight) * cxty_norm
        scored.append(ScoredHypothesis(entry, sim, sim_norm, raw, cxty_norm, total))
    return scored


def _best_rank(scored: Sequence[ScoredHypothesis]) -> int:
    """Index of the first hypothesis with the highest total."""
    return max(range(len(scored)), key=lambda rank: scored[rank].total)


def select_reference(
    kbest: KBestList,
    reference: Sequence[str],
    source: Sequence[str],
    config: SelectionConfig,
    table: TranslationTable | None = None,
) -> KBestEntry:
    """The entry with the highest total; ties keep the best original rank."""
    scored = score_hypotheses(kbest, reference, source, config, table)
    return scored[_best_rank(scored)].entry
