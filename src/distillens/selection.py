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

from dataclasses import dataclass
from math import exp, log
from typing import Sequence

from .aligner import TranslationTable, viterbi_align, word_alignment_score
from .complexity import sentence_frs
from .corpus_io import KBestEntry, KBestList, SentencePair

__all__ = [
    "COMPLEXITY_KINDS",
    "SelectionConfig",
    "ScoredHypothesis",
    "smoothed_sentence_bleu",
    "min_max_normalize",
    "score_hypotheses",
    "select_reference",
]

COMPLEXITY_KINDS = ("frs", "walign", "nmt")


@dataclass(frozen=True)
class SelectionConfig:
    """Weights and knobs for hypothesis scoring.

    ``sim_weight`` is the coefficient on the similarity component; the
    complexity component gets ``1 - sim_weight``.
    """

    sim_weight: float
    complexity_kind: str

    def __post_init__(self):
        if not 0.0 <= self.sim_weight <= 1.0:
            raise ValueError(f"sim_weight must be in [0, 1], got {self.sim_weight}")
        if self.complexity_kind not in COMPLEXITY_KINDS:
            raise ValueError(
                f"complexity_kind must be one of {COMPLEXITY_KINDS}, "
                f"got {self.complexity_kind!r}"
            )


@dataclass(frozen=True)
class ScoredHypothesis:
    entry: KBestEntry
    sim: float
    sim_norm: float
    cxty_raw: float
    cxty_norm: float
    total: float


def _ngram_counts(tokens: Sequence[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for start in range(len(tokens) - n + 1):
        gram = tuple(tokens[start : start + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def smoothed_sentence_bleu(
    hypothesis: Sequence[str], reference: Sequence[str], max_ngram: int = 4
) -> float:
    """Sentence BLEU with add-one smoothing on n-gram orders above one.

    Clipped n-gram precisions p_1..p_N are combined by geometric mean
    and multiplied by the brevity penalty min(1, e^(1 - |ref|/|hyp|)).
    Orders n >= 2 add one to both the match count and the candidate
    count; unigram precision is left raw, so a hypothesis sharing no
    unigram with the reference scores exactly zero, as does an empty
    hypothesis.
    """
    if not reference:
        raise ValueError("reference must be non-empty")
    if not hypothesis:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, max_ngram + 1):
        hyp_counts = _ngram_counts(hypothesis, n)
        ref_counts = _ngram_counts(reference, n)
        matches = sum(
            min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
        )
        total = max(len(hypothesis) - n + 1, 0)
        if n == 1:
            if matches == 0:
                return 0.0
            log_precision_sum += log(matches / total)
        else:
            log_precision_sum += log((matches + 1) / (total + 1))
    geometric_mean = exp(log_precision_sum / max_ngram)
    brevity = min(1.0, exp(1.0 - len(reference) / len(hypothesis)))
    return brevity * geometric_mean


def min_max_normalize(values: Sequence[float]) -> list[float]:
    """Rescale to [0, 1] within the list; a constant list maps to all 0.5."""
    low = min(values)
    high = max(values)
    if high == low:
        return [0.5] * len(values)
    span = high - low
    return [(value - low) / span for value in values]


def _complexity_raw(
    hypothesis: tuple[str, ...],
    source: Sequence[str],
    entry: KBestEntry,
    config: SelectionConfig,
    table: TranslationTable | None,
) -> float:
    if config.complexity_kind == "nmt":
        return entry.nmt_logprob
    if table is None:
        raise ValueError(
            f"complexity kind {config.complexity_kind!r} needs a translation table"
        )
    pair = SentencePair(tuple(source), hypothesis)
    alignment = viterbi_align(pair, table)
    if config.complexity_kind == "frs":
        return sentence_frs(alignment, len(hypothesis))
    return word_alignment_score(pair, alignment, table)


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
    sims = [
        smoothed_sentence_bleu(entry.hypothesis, reference) for entry in kbest.entries
    ]
    raws = [
        _complexity_raw(entry.hypothesis, source, entry, config, table)
        for entry in kbest.entries
    ]
    sim_norms = min_max_normalize(sims)
    cxty_norms = min_max_normalize(raws)
    scored = []
    for entry, sim, sim_norm, raw, cxty_norm in zip(
        kbest.entries, sims, sim_norms, raws, cxty_norms
    ):
        total = config.sim_weight * sim_norm + (1.0 - config.sim_weight) * cxty_norm
        scored.append(ScoredHypothesis(entry, sim, sim_norm, raw, cxty_norm, total))
    return scored


def select_reference(
    kbest: KBestList,
    reference: Sequence[str],
    source: Sequence[str],
    config: SelectionConfig,
    table: TranslationTable | None = None,
) -> KBestEntry:
    """The entry with the highest total; ties keep the best original rank."""
    scored = score_hypotheses(kbest, reference, source, config, table)
    return max(scored, key=lambda hypothesis: hypothesis.total).entry
