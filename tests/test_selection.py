"""Smoothed BLEU, hypothesis scoring and distilled-reference selection."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillens import (
    Alignment,
    KBestEntry,
    KBestList,
    NULL_TOKEN,
    SelectionConfig,
    SentencePair,
    TranslationTable,
    min_max_normalize,
    score_hypotheses,
    select_reference,
    smoothed_sentence_bleu,
    viterbi_align,
    word_alignment_score,
)
from distillens.aligner import PROB_FLOOR


class TestSmoothedSentenceBleu:
    def test_identity(self):
        assert smoothed_sentence_bleu(list("abcd"), list("abcd")) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_disjoint(self):
        assert smoothed_sentence_bleu(["a", "b"], ["x", "y"]) == 0.0

    def test_hand_case(self):
        score = smoothed_sentence_bleu(
            ["a", "b", "c", "d"], ["a", "b", "c", "e"]
        )
        expected = (0.75 * 0.75 * (2 / 3) * 0.5) ** 0.25
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(0.658, abs=1e-3)

    def test_empty_hypothesis(self):
        assert smoothed_sentence_bleu([], ["a"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            smoothed_sentence_bleu(["a"], [])

    @pytest.mark.parametrize("max_ngram", [0, -1])
    @pytest.mark.parametrize("hypothesis", [["a"], []])
    def test_max_ngram_below_one_rejected(self, hypothesis, max_ngram):
        with pytest.raises(ValueError, match=f"max_ngram must be >= 1, got {max_ngram}"):
            smoothed_sentence_bleu(hypothesis, ["a"], max_ngram)

    def test_brevity_penalty_short_hypothesis(self):
        score = smoothed_sentence_bleu(["a"], ["a", "a", "a", "a"], max_ngram=1)
        assert score == pytest.approx(math.exp(1 - 4 / 1), abs=1e-12)

    def test_no_penalty_for_long_hypothesis(self):
        score = smoothed_sentence_bleu(["a", "a", "a", "a"], ["a"], max_ngram=1)
        # p1 = 1/4 (clipped to the single reference occurrence), BP = 1
        assert score == pytest.approx(0.25, abs=1e-12)

    def test_clipping(self):
        score = smoothed_sentence_bleu(["a", "a"], ["a", "b"], max_ngram=1)
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_repetition_not_rewarded(self):
        honest = smoothed_sentence_bleu(["a", "b"], ["a", "b"])
        stuttering = smoothed_sentence_bleu(["a", "a", "b"], ["a", "b"])
        assert stuttering < honest


class TestMinMaxNormalize:
    def test_basic(self):
        assert min_max_normalize([3.0, 1.0, 2.0]) == [1.0, 0.0, 0.5]

    def test_constant_maps_to_half(self):
        assert min_max_normalize([2.5, 2.5, 2.5]) == [0.5, 0.5, 0.5]

    def test_range(self):
        rng = random.Random(5)
        values = [rng.uniform(-10, 10) for _ in range(50)]
        normalized = min_max_normalize(values)
        assert min(normalized) == 0.0
        assert max(normalized) == 1.0


def _nmt_list(*hyp_logprob):
    return KBestList(
        0, tuple(KBestEntry(tuple(h.split()), lp) for h, lp in hyp_logprob)
    )


class TestScoreHypotheses:
    def test_lambda_one_orders_by_sim(self):
        kbest = _nmt_list(("a b", -3.0), ("a x", -1.0), ("x y", -0.5))
        config = SelectionConfig(1.0, "nmt")
        scored = score_hypotheses(kbest, ["a", "b"], ["s"], config)
        totals = [h.total for h in scored]
        sims = [h.sim for h in scored]
        assert sorted(range(3), key=totals.__getitem__) == sorted(
            range(3), key=sims.__getitem__
        )

    def test_lambda_zero_orders_by_complexity(self):
        kbest = _nmt_list(("a b", -3.0), ("a x", -1.0), ("x y", -0.5))
        config = SelectionConfig(0.0, "nmt")
        scored = score_hypotheses(kbest, ["a", "b"], ["s"], config)
        totals = [h.total for h in scored]
        raws = [h.cxty_raw for h in scored]
        assert sorted(range(3), key=totals.__getitem__) == sorted(
            range(3), key=raws.__getitem__
        )

    def test_total_formula(self):
        kbest = _nmt_list(("a b", -2.0), ("a x", -1.0))
        config = SelectionConfig(0.3, "nmt")
        for h in score_hypotheses(kbest, ["a", "b"], ["s"], config):
            assert h.total == pytest.approx(
                0.3 * h.sim_norm + 0.7 * h.cxty_norm, abs=1e-12
            )

    def test_constant_component_normalizes_to_half(self):
        kbest = _nmt_list(("a b", -1.5), ("x y", -1.5))
        config = SelectionConfig(0.5, "nmt")
        scored = score_hypotheses(kbest, ["a", "b"], ["s"], config)
        assert [h.cxty_norm for h in scored] == [0.5, 0.5]

    def test_empty_list_rejected(self):
        kbest = KBestList(0, ())
        with pytest.raises(ValueError):
            score_hypotheses(kbest, ["a"], ["s"], SelectionConfig(0.5, "nmt"))

    def test_table_required_for_frs_and_word_align(self):
        kbest = _nmt_list(("a b", -1.0))
        for kind in ("frs", "walign"):
            with pytest.raises(ValueError):
                score_hypotheses(
                    kbest, ["a", "b"], ["s"], SelectionConfig(0.5, kind)
                )

    def test_frs_complexity_uses_viterbi_alignment(self):
        """With a bijective table, a monotone hypothesis gets FRS 1 and
        a reversed one gets FRS 0."""
        table = TranslationTable(
            {
                "s1": {"t1": 1.0},
                "s2": {"t2": 1.0},
                "s3": {"t3": 1.0},
                NULL_TOKEN: {"t1": 0.0, "t2": 0.0, "t3": 0.0},
            }
        )
        kbest = _nmt_list(("t1 t2 t3", -1.0), ("t3 t2 t1", -1.0))
        config = SelectionConfig(0.0, "frs")
        scored = score_hypotheses(
            kbest, ["t1", "t2", "t3"], ["s1", "s2", "s3"], config, table
        )
        assert scored[0].cxty_raw == 1.0
        assert scored[1].cxty_raw == 0.0

    def test_word_align_complexity_value(self):
        table = TranslationTable({"s": {"t": 0.25}})
        kbest = _nmt_list(("t", -1.0), ("t t", -1.0))
        config = SelectionConfig(0.0, "walign")
        scored = score_hypotheses(kbest, ["t"], ["s"], config, table)
        assert scored[0].cxty_raw == pytest.approx(math.log(0.25), abs=1e-12)
        assert scored[1].cxty_raw == pytest.approx(2 * math.log(0.25), abs=1e-12)

    def test_word_align_complexity_of_empty_hypothesis_is_float_zero(self):
        """read_kbest refuses an empty hypothesis, but the library scores one."""
        table = TranslationTable({"s": {"t": 0.25}})
        kbest = KBestList(0, (KBestEntry((), -1.0), KBestEntry(("t",), -1.0)))
        scored = score_hypotheses(kbest, ["t"], ["s"], SelectionConfig(0.0, "walign"), table)
        assert repr(scored[0].cxty_raw) == "0.0"


class TestSelectReference:
    def test_lambda_one_is_bleu_argmax(self):
        rng = random.Random(13)
        vocab = ["u", "v", "w", "x", "y", "z"]
        for _ in range(20):
            reference = [rng.choice(vocab) for _ in range(rng.randint(2, 6))]
            entries = []
            for _ in range(rng.randint(1, 8)):
                hyp = tuple(
                    rng.choice(vocab) for _ in range(rng.randint(1, 6))
                )
                entries.append(KBestEntry(hyp, -rng.random() * 5))
            kbest = KBestList(0, tuple(entries))
            config = SelectionConfig(1.0, "nmt")
            chosen = select_reference(kbest, reference, ["s"], config)
            bleus = [
                smoothed_sentence_bleu(e.hypothesis, reference) for e in entries
            ]
            best = max(range(len(entries)), key=lambda k: (bleus[k], -k))
            assert chosen == entries[best]

    def test_symmetric_tie_selects_rank_zero(self):
        """sim_norm (1, 0) against cxty_norm (0, 1) at lambda 0.5 makes
        both totals 0.5; the tie goes to the original rank-0 entry."""
        kbest = _nmt_list(("a a", -5.0), ("b b", -1.0))
        config = SelectionConfig(0.5, "nmt")
        scored = score_hypotheses(kbest, ["a", "a"], ["s"], config)
        assert scored[0].total == scored[1].total
        chosen = select_reference(kbest, ["a", "a"], ["s"], config)
        assert chosen == kbest.entries[0]

    def test_single_entry(self):
        kbest = _nmt_list(("q", -2.0))
        for lam in (0.0, 0.5, 1.0):
            config = SelectionConfig(lam, "nmt")
            assert select_reference(kbest, ["a"], ["s"], config) == kbest.entries[0]

    def test_shift_invariance_of_complexity(self):
        """Adding a constant to every raw complexity value cannot change
        the winner because min-max normalization removes it."""
        rng = random.Random(29)
        vocab = ["a", "b", "c", "d"]
        for _ in range(20):
            reference = [rng.choice(vocab) for _ in range(3)]
            entries = tuple(
                KBestEntry(
                    tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4))),
                    -rng.random() * 4,
                )
                for _ in range(5)
            )
            shifted = tuple(
                KBestEntry(e.hypothesis, e.nmt_logprob - 7.5) for e in entries
            )
            config = SelectionConfig(0.4, "nmt")
            first = select_reference(KBestList(0, entries), reference, ["s"], config)
            second = select_reference(
                KBestList(0, shifted), reference, ["s"], config
            )
            assert second.hypothesis == first.hypothesis


class TestSelectionConfig:
    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            SelectionConfig(-0.1, "nmt")
        with pytest.raises(ValueError):
            SelectionConfig(1.1, "nmt")

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            SelectionConfig(0.5, "bleu")


# A frozen copy of the per-hypothesis scoring path that score_hypotheses
# replaced: Viterbi-align each hypothesis, score that alignment with
# word_alignment_score or sentence_frs, and count both sides' n-grams
# in dicts for every BLEU call.


def _frozen_viterbi(source, target, table):
    probs = table.probs
    null_row = probs.get(NULL_TOKEN, {})
    rows = [probs.get(x, {}) for x in source]
    links = set()
    for j, y in enumerate(target):
        best_index = None
        best_prob = max(null_row.get(y, 0.0), PROB_FLOOR)
        for i, row in enumerate(rows):
            p = row.get(y, 0.0)
            if p > best_prob:
                best_prob = p
                best_index = i
        if best_index is not None:
            links.add((best_index, j))
    return Alignment(frozenset(links))


def _frozen_word_alignment_score(pair, alignment, table):
    alignment.validate(len(pair.source), len(pair.target))
    chosen = alignment.leftmost_by_target()
    total = 0.0
    for j, y in enumerate(pair.target):
        i = chosen.get(j)
        x = NULL_TOKEN if i is None else pair.source[i]
        total += math.log(table.prob(x, y))
    return total


def _frozen_sentence_frs(alignment, target_length):
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


def _frozen_ngram_counts(tokens, n):
    counts = {}
    for start in range(len(tokens) - n + 1):
        gram = tuple(tokens[start : start + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _frozen_bleu(hypothesis, reference, max_ngram=4):
    if not reference:
        raise ValueError("reference must be non-empty")
    if not hypothesis:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, max_ngram + 1):
        hyp_counts = _frozen_ngram_counts(hypothesis, n)
        ref_counts = _frozen_ngram_counts(reference, n)
        matches = sum(
            min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
        )
        total = max(len(hypothesis) - n + 1, 0)
        if n == 1:
            if matches == 0:
                return 0.0
            log_precision_sum += math.log(matches / total)
        else:
            log_precision_sum += math.log((matches + 1) / (total + 1))
    geometric_mean = math.exp(log_precision_sum / max_ngram)
    brevity = min(1.0, math.exp(1.0 - len(reference) / len(hypothesis)))
    return brevity * geometric_mean


def _frozen_scores(kbest, reference, source, config, table):
    """(sim, cxty_raw, total) per entry, the old way."""
    sims = [_frozen_bleu(entry.hypothesis, reference) for entry in kbest.entries]
    raws = []
    for entry in kbest.entries:
        if config.complexity_kind == "nmt":
            raws.append(entry.nmt_logprob)
            continue
        pair = SentencePair(tuple(source), entry.hypothesis)
        alignment = _frozen_viterbi(pair.source, pair.target, table)
        if config.complexity_kind == "frs":
            raws.append(_frozen_sentence_frs(alignment, len(entry.hypothesis)))
        else:
            raws.append(_frozen_word_alignment_score(pair, alignment, table))
    w = config.sim_weight
    return [
        (sim, raw, w * sim_norm + (1.0 - w) * cxty_norm)
        for sim, raw, sim_norm, cxty_norm in zip(
            sims, raws, min_max_normalize(sims), min_max_normalize(raws)
        )
    ]


# Few distinct probabilities make NULL/real and real/real ties common;
# "t9" is in no row, and NULL's row may lack any target word or be absent.
_SOURCE_WORDS = ["s0", "s1", "s2", "s3"]
_TARGET_WORDS = ["t0", "t1", "t2", "t3", "t9"]
_PROBS = st.sampled_from([0.0, PROB_FLOOR / 2, PROB_FLOOR, 0.125, 0.25, 0.5, 1.0])


@st.composite
def _selection_cases(draw):
    rows = {}
    for x in [NULL_TOKEN] + _SOURCE_WORDS:
        if draw(st.booleans()) or x == "s0":
            rows[x] = draw(st.dictionaries(st.sampled_from(_TARGET_WORDS[:4]), _PROBS))
    tokens = st.sampled_from(_TARGET_WORDS)
    sources = st.lists(st.sampled_from(_SOURCE_WORDS + ["s8"]), max_size=5)
    entries = draw(
        st.lists(
            st.builds(
                KBestEntry,
                st.lists(tokens, max_size=7).map(tuple),
                st.sampled_from([-3.0, -1.5, -0.25]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return (
        TranslationTable(rows),
        KBestList(0, tuple(entries)),
        draw(st.lists(tokens, min_size=1, max_size=7)),
        [draw(sources), draw(sources)],
        SelectionConfig(
            draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
            draw(st.sampled_from(["frs", "walign", "nmt"])),
        ),
        draw(st.integers(1, 4)),
    )


class TestAgainstPerHypothesisScoring:
    @settings(max_examples=400)
    @given(_selection_cases())
    def test_same_floats_as_frozen_path(self, case):
        """sim, cxty_raw and total equal the old per-hypothesis path exactly,
        for two sources scored one after the other against one table."""
        table, kbest, reference, sources, config, max_ngram = case
        for entry in kbest.entries:
            assert smoothed_sentence_bleu(
                entry.hypothesis, reference, max_ngram
            ) == _frozen_bleu(entry.hypothesis, reference, max_ngram)
        for source in sources:
            if config.complexity_kind == "frs" and not all(
                entry.hypothesis for entry in kbest.entries
            ):
                with pytest.raises(ValueError):
                    _frozen_scores(kbest, reference, source, config, table)
                with pytest.raises(ValueError):
                    score_hypotheses(kbest, reference, source, config, table)
                continue
            expected = _frozen_scores(kbest, reference, source, config, table)
            scored = score_hypotheses(kbest, reference, source, config, table)
            assert [(h.sim, h.cxty_raw, h.total) for h in scored] == expected


@st.composite
def _walign_cases(draw):
    """A table, a source and a k-best list. With ``unique``, every target
    word sits in exactly one row, so each word has one possible link."""
    unique = draw(st.booleans())
    rows = {}
    for x in [NULL_TOKEN] + _SOURCE_WORDS:
        if draw(st.booleans()) or x == "s0":
            rows[x] = {}
    for y in _TARGET_WORDS[:4]:
        for x in rows:
            if draw(st.booleans()):
                rows[x][y] = draw(_PROBS)
                if unique:
                    break
    tokens = st.sampled_from(_TARGET_WORDS)
    entries = draw(
        st.lists(
            st.builds(KBestEntry, st.lists(tokens, max_size=7).map(tuple), st.just(-1.0)),
            min_size=1,
            max_size=6,
        )
    )
    source = draw(st.lists(st.sampled_from(_SOURCE_WORDS + ["s8"]), max_size=5))
    return TranslationTable(rows), KBestList(0, tuple(entries)), tuple(source)


class TestFusedWordAlignmentScore:
    @settings(max_examples=200)
    @given(_walign_cases())
    def test_equals_word_alignment_score_of_viterbi_alignment(self, case):
        """walign's raw score is word_alignment_score of each hypothesis's
        own Viterbi alignment, float for float: ties, NULL winners and
        words in no row included."""
        table, kbest, source = case
        scored = score_hypotheses(kbest, ["t0"], source, SelectionConfig(0.5, "walign"), table)
        for entry, hypothesis in zip(kbest.entries, scored):
            pair = SentencePair(source, entry.hypothesis)
            expected = word_alignment_score(pair, viterbi_align(pair, table), table)
            assert hypothesis.cxty_raw == expected
