"""FRS, lexical diversity and faithfulness metrics."""

import math
import random

import pytest

from distillens import (
    Alignment,
    ComplexityReport,
    ConditionalTable,
    ParallelCorpus,
    SentencePair,
    ValidationError,
    compute_report,
    conditional_distribution,
    corpus_frs,
    faithfulness,
    lexical_diversity,
    sentence_frs,
)


def _alignment(*links):
    return Alignment(frozenset(links))


def _map_alignment(reduction):
    """Build links (a(j), j) from a target-indexed source-position map."""
    return _alignment(*((i, j) for j, i in enumerate(reduction)))


class TestSentenceFrs:
    def test_monotone(self):
        assert sentence_frs(_map_alignment([0, 1, 2]), 3) == 1.0

    def test_full_reversal(self):
        assert sentence_frs(_map_alignment([2, 1, 0]), 3) == 0.0

    def test_hand_case_one_third(self):
        assert sentence_frs(_map_alignment([0, 1, 3, 2]), 4) == pytest.approx(
            1 / 3, abs=1e-9
        )

    def test_single_link_is_one(self):
        assert sentence_frs(_alignment((4, 0)), 1) == 1.0

    def test_no_links_is_one(self):
        assert sentence_frs(_alignment(), 5) == 1.0

    def test_unaligned_targets_skipped(self):
        """Gaps in target coverage do not break chunks by themselves:
        only the reduced source sequence matters."""
        # targets 0 and 2 aligned to consecutive source indices
        assert sentence_frs(_alignment((0, 0), (1, 2)), 3) == 1.0
        # and to non-consecutive ones
        assert sentence_frs(_alignment((0, 0), (4, 2)), 3) == 0.0

    def test_leftmost_link_reduction(self):
        """A multiply-linked target uses its smallest source index."""
        # target 0 links to sources {1, 0}; leftmost 0, then 1 continues
        assert sentence_frs(_alignment((0, 0), (1, 0), (1, 1)), 2) == 1.0

    def test_repeated_source_index_breaks_chunk(self):
        # a(j) = [2, 2]: second j repeats rather than increments
        assert sentence_frs(_alignment((2, 0), (2, 1)), 2) == 0.0

    def test_target_length_validated(self):
        with pytest.raises(ValueError):
            sentence_frs(_alignment(), 0)
        with pytest.raises(ValidationError):
            sentence_frs(_alignment((0, 5)), 3)


class TestCorpusFrs:
    def test_mean(self):
        corpus = ParallelCorpus(
            (
                SentencePair(("a", "b", "c"), ("x", "y", "z")),
                SentencePair(("a", "b", "c"), ("x", "y", "z")),
            )
        )
        alignments = [_map_alignment([0, 1, 2]), _map_alignment([2, 1, 0])]
        assert corpus_frs(corpus, alignments) == pytest.approx(0.5)

    def test_three_sentence_mean(self):
        corpus = ParallelCorpus(
            (
                SentencePair(("a", "b", "c"), ("x", "y", "z")),
                SentencePair(("a", "b", "c", "d"), ("x", "y", "z", "w")),
                SentencePair(("a", "b", "c"), ("x", "y", "z")),
            )
        )
        alignments = [
            _map_alignment([0, 1, 2]),
            _map_alignment([0, 1, 3, 2]),
            _map_alignment([2, 1, 0]),
        ]
        assert corpus_frs(corpus, alignments) == pytest.approx(
            (1.0 + 1 / 3 + 0.0) / 3, abs=1e-9
        )
        assert corpus_frs(corpus, alignments) == pytest.approx(0.4444, abs=1e-4)

    def test_length_mismatch(self):
        pair = SentencePair(("a",), ("x",))
        corpus = ParallelCorpus((pair,))
        with pytest.raises(ValidationError):
            corpus_frs(corpus, [])
        # a link outside its pair names the pair's 1-based number
        two = ParallelCorpus((pair, pair))
        with pytest.raises(ValidationError, match="^line 2: "):
            corpus_frs(two, [_alignment((0, 0)), _alignment((0, 1))])

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            corpus_frs(ParallelCorpus(()), [])


class TestConditionalDistribution:
    def test_counts(self):
        corpus = ParallelCorpus(
            (
                SentencePair(("a",), ("x",)),
                SentencePair(("a",), ("x",)),
                SentencePair(("a",), ("y",)),
            )
        )
        alignments = [_alignment((0, 0))] * 3
        table = conditional_distribution(corpus, alignments)
        assert table.distribution("a") == pytest.approx({"x": 2 / 3, "y": 1 / 3})

    def test_length_mismatch(self):
        pair = SentencePair(("a",), ("x",))
        corpus = ParallelCorpus((pair,))
        with pytest.raises(ValidationError):
            conditional_distribution(corpus, [])
        two = ParallelCorpus((pair, pair))
        with pytest.raises(ValidationError, match="^line 2: "):
            conditional_distribution(two, [_alignment((0, 0)), _alignment((1, 0))])

    def test_empty_alignments_empty_vocabulary(self):
        corpus = ParallelCorpus((SentencePair(("a",), ("x",)),))
        table = conditional_distribution(corpus, [_alignment()])
        assert table.vocabulary() == []

    def test_bijective_point_masses(self):
        corpus = ParallelCorpus(
            (
                SentencePair(("a", "b"), ("x", "y")),
                SentencePair(("b",), ("y",)),
            )
        )
        alignments = [_alignment((0, 0), (1, 1)), _alignment((0, 0))]
        table = conditional_distribution(corpus, alignments)
        for x in table.vocabulary():
            assert max(table.distribution(x).values()) == 1.0

    def test_distributions_normalized(self):
        rng = random.Random(11)
        counts = {
            f"s{k}": {f"t{v}": rng.randint(1, 9) for v in range(rng.randint(1, 5))}
            for k in range(6)
        }
        table = ConditionalTable(counts)
        for x in table.vocabulary():
            assert sum(table.distribution(x).values()) == pytest.approx(
                1.0, abs=1e-9
            )


class TestLexicalDiversity:
    def test_point_masses_zero(self):
        table = ConditionalTable({"a": {"x": 3}, "b": {"y": 1}})
        assert lexical_diversity(table) == 0.0

    def test_uniform_binary_ln2(self):
        table = ConditionalTable({"a": {"x": 1, "y": 1}})
        assert lexical_diversity(table) == pytest.approx(math.log(2), abs=1e-9)

    def test_mean_of_entropies(self):
        table = ConditionalTable(
            {"a": {"x": 5}, "b": {"p": 1, "q": 1, "r": 1, "s": 1}}
        )
        assert lexical_diversity(table) == pytest.approx(
            (0.0 + math.log(4)) / 2, abs=1e-9
        )
        assert lexical_diversity(table) == pytest.approx(0.6931, abs=1e-4)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            lexical_diversity(ConditionalTable({}))


class TestFaithfulness:
    def test_self_divergence_vanishes_with_alpha(self):
        table = ConditionalTable({"a": {"x": 1, "y": 3}, "b": {"z": 2}})
        assert faithfulness(table, table, alpha=1e-6) < 1e-4

    def test_alpha_limit_hand_kl(self):
        real = ConditionalTable({"x": {"y1": 1, "y2": 1}})
        distilled = ConditionalTable({"x": {"y1": 9, "y2": 1}})
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert faithfulness(real, distilled, alpha=1e-9) == pytest.approx(
            expected, abs=1e-6
        )
        assert faithfulness(real, distilled, alpha=1e-9) == pytest.approx(
            0.5108, abs=1e-4
        )

    def test_disjoint_point_masses_smoothed(self):
        real = ConditionalTable({"x": {"y1": 1}})
        distilled = ConditionalTable({"x": {"y2": 1}})
        assert faithfulness(real, distilled, alpha=0.01) == pytest.approx(
            math.log(102), abs=1e-9
        )

    def test_source_missing_from_distilled_uses_uniform(self):
        real = ConditionalTable({"w": {"y1": 3, "y2": 1}})
        distilled = ConditionalTable({"other": {"z": 1}})
        expected = 0.75 * math.log(0.75 / 0.5) + 0.25 * math.log(0.25 / 0.5)
        assert faithfulness(real, distilled, alpha=0.01) == pytest.approx(
            expected, abs=1e-9
        )

    def test_vocabulary_comes_from_real_table(self):
        """Extra distilled-only sources do not enter the average."""
        real = ConditionalTable({"a": {"x": 1}})
        distilled = ConditionalTable({"a": {"x": 1}, "b": {"q": 1}})
        small = faithfulness(real, distilled, alpha=1e-6)
        assert small < 1e-4

    def test_empty_real_table_rejected(self):
        with pytest.raises(ValueError, match="real table has an empty source vocabulary"):
            faithfulness(ConditionalTable({}), ConditionalTable({"a": {"x": 1}}))

    def test_alpha_validated(self):
        table = ConditionalTable({"a": {"x": 1}})
        with pytest.raises(ValueError):
            faithfulness(table, table, alpha=0.0)
        with pytest.raises(ValueError):
            faithfulness(table, table, alpha=-0.5)

    @pytest.mark.parametrize(
        "alpha, fault",
        [(1e308, "too large: a smoothed value is 0"),
         (1e-320, "too small: faithfulness is inf")],
    )
    def test_alpha_that_overflows_rejected(self, alpha, fault):
        """Finite positive alphas whose smoothing overflows: 1e308 * 2
        smooths every probability to 0, and p / 1e-320 is inf."""
        real = ConditionalTable({"x": {"y1": 1, "y2": 1}})
        distilled = ConditionalTable({"x": {"y1": 1}})
        with pytest.raises(ValueError) as info:
            faithfulness(real, distilled, alpha)
        assert str(info.value) == f"smoothing constant {alpha} is {fault}"


class TestComputeReport:
    def _corpus(self):
        corpus = ParallelCorpus(
            (
                SentencePair(("a", "b"), ("x", "y")),
                SentencePair(("b", "a"), ("y", "x")),
            )
        )
        alignments = [_alignment((0, 0), (1, 1)), _alignment((0, 0), (1, 1))]
        return corpus, alignments

    def test_fields(self):
        corpus, alignments = self._corpus()
        report = compute_report(corpus, alignments)
        assert isinstance(report, ComplexityReport)
        assert report.sentence_count == 2
        assert report.frs == 1.0
        assert report.lexical_diversity == 0.0
        assert report.faithfulness < 1e-1  # self-comparison smoothing residual

    def test_to_dict_keys(self):
        corpus, alignments = self._corpus()
        payload = compute_report(corpus, alignments).to_dict()
        assert set(payload) == {
            "frs",
            "lexical_diversity",
            "faithfulness",
            "sentence_count",
        }

    def test_to_dict_values(self):
        corpus, alignments = self._corpus()
        report = compute_report(corpus, alignments)
        assert report.to_dict() == {
            "frs": report.frs,
            "lexical_diversity": report.lexical_diversity,
            "faithfulness": report.faithfulness,
            "sentence_count": 2,
        }

    def test_reference_table_changes_faithfulness(self):
        corpus, alignments = self._corpus()
        reference = ConditionalTable({"a": {"q": 1}, "b": {"r": 1}})
        skewed = compute_report(corpus, alignments, reference_table=reference)
        own = compute_report(corpus, alignments)
        assert skewed.faithfulness > own.faithfulness
