"""Smoothed BLEU, hypothesis scoring and distilled-reference selection."""

import math
import random

import pytest

from distillens import (
    KBestEntry,
    KBestList,
    NULL_TOKEN,
    SelectionConfig,
    TranslationTable,
    min_max_normalize,
    score_hypotheses,
    select_reference,
    smoothed_sentence_bleu,
)


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
