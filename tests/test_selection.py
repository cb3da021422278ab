"""Smoothed BLEU, hypothesis scoring and distilled-reference selection."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distillens import (
    KBestEntry,
    KBestList,
    NULL_TOKEN,
    SelectionConfig,
    SentencePair,
    TranslationTable,
    min_max_normalize,
    score_hypotheses,
    select_reference,
    sentence_frs,
    smoothed_sentence_bleu,
    viterbi_align,
    word_alignment_score,
)
from distillens import selection
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
        with pytest.raises(ValueError, match="^reference must be non-empty$"):
            smoothed_sentence_bleu(["a"], [])

    @pytest.mark.parametrize("max_ngram", [0, -1])
    @pytest.mark.parametrize("hypothesis", [["a"], []])
    def test_max_ngram_below_one_rejected(self, hypothesis, max_ngram):
        with pytest.raises(ValueError, match=f"^max_ngram must be >= 1, got {max_ngram}$"):
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


def _counter_bleu(hypothesis, reference, max_ngram):
    """smoothed_sentence_bleu as it was computed on tuple n-grams: one
    Counter per order for each side, and a clipped loop over the
    hypothesis's n-grams."""

    def ngram_counts(tokens, n):
        return Counter(zip(*[tokens[i:] for i in range(n)]))

    if not hypothesis:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, max_ngram + 1):
        ref_grams = ngram_counts(reference, n)
        matches = 0
        for gram, count in ngram_counts(hypothesis, n).items():
            ref_count = ref_grams.get(gram)
            if ref_count is not None:
                matches += count if count < ref_count else ref_count
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


@st.composite
def _bleu_cases(draw):
    """A hypothesis, reference and max_ngram over an alphabet of 1-6 words,
    so repeated n-grams and words the reference lacks are common."""
    words = st.sampled_from("abcdef"[: draw(st.integers(1, 6))])
    hypothesis = draw(st.lists(words, max_size=12))
    reference = draw(st.lists(words, min_size=1, max_size=12))
    return hypothesis, reference, draw(st.integers(1, 6))


class TestAgainstTupleNgrams:
    """BLEU on integer-coded n-grams gives the same float as on tuples."""

    @settings(max_examples=1000)
    @given(_bleu_cases())
    # the hypothesis repeats a and (a, a) more often than the reference: clipped at 3 and 2
    @example((["a", "a", "a", "a", "b"], ["a", "a", "a", "b"], 2))
    # less often than the reference: clipped at its own 3 and 2
    @example((["a", "a", "a", "b"], ["a", "a", "a", "a", "b"], 2))
    # only the hypothesis repeats a, b and (a, b): each clipped at 1
    @example((["a", "b", "a", "b"], ["a", "b", "c"], 2))
    # x, y and (x, y), repeated, hold only words the reference lacks: no match
    @example((["x", "y", "x", "y", "a"], ["a", "a", "b"], 2))
    def test_same_float(self, case):
        hypothesis, reference, max_ngram = case
        assert smoothed_sentence_bleu(hypothesis, reference, max_ngram) == _counter_bleu(
            hypothesis, reference, max_ngram
        )

    def test_ngrams_sharing_a_code_through_absent_words(self):
        # x, y, z and w are not in the reference, so they share one code:
        # the unigrams x, y, z, w and the bigrams (x, y), (z, w) each
        # share a code, and none of them may match a or (a, a)
        hypothesis, reference = ["x", "y", "a", "z", "w"], ["a", "a", "b"]
        score = smoothed_sentence_bleu(hypothesis, reference, 2)
        assert score == _counter_bleu(hypothesis, reference, 2)
        # p1 = 1/5, p2 = (0 + 1) / (4 + 1), no brevity penalty
        assert score == pytest.approx(0.2, abs=1e-12)


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
        with pytest.raises(ValueError, match="^k-best list for sentence 0 is empty$"):
            score_hypotheses(kbest, ["a"], ["s"], SelectionConfig(0.5, "nmt"))

    def test_table_required_for_frs_and_word_align(self):
        kbest = _nmt_list(("a b", -1.0))
        for kind in ("frs", "walign"):
            with pytest.raises(
                ValueError, match=f"^complexity kind '{kind}' needs a translation table$"
            ):
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


    @pytest.mark.parametrize("kind", ["frs", "walign"])
    def test_viterbi_runs_once_per_list_over_its_distinct_words(self, monkeypatch, kind):
        """A target token's link depends only on its word and the source, so
        each list costs one Viterbi call, whose target is the list's distinct
        words in the order they first appear."""
        calls = []

        def recording(pair, table):
            calls.append(pair)
            return viterbi_align(pair, table)

        monkeypatch.setattr(selection, "viterbi_align", recording)
        table = TranslationTable({"s1": {"t1": 0.5, "t2": 0.5}, "s2": {"t2": 1.0}})
        lists = [
            (_nmt_list(("t2 t1 t2", -1.0), ("t1 t3 t1 t2", -2.0), ("t3", -3.0)), ["s1", "s2"]),
            (_nmt_list(("t1 t1", -1.0), ("t1", -2.0)), ["s2"]),
        ]
        for kbest, source in lists:
            score_hypotheses(kbest, ["t1", "t2"], source, SelectionConfig(0.5, kind), table)
        assert calls == [
            SentencePair(("s1", "s2"), ("t2", "t1", "t3")),
            SentencePair(("s2",), ("t1",)),
        ]


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
        with pytest.raises(ValueError, match=r"^sim_weight must be in \[0, 1\], got -0\.1$"):
            SelectionConfig(-0.1, "nmt")
        with pytest.raises(ValueError, match=r"^sim_weight must be in \[0, 1\], got 1\.1$"):
            SelectionConfig(1.1, "nmt")

    def test_kind_checked(self):
        with pytest.raises(
            ValueError,
            match=r"^complexity_kind must be one of \('frs', 'walign', 'nmt'\), got 'bleu'$",
        ):
            SelectionConfig(0.5, "bleu")


def _per_hypothesis_scores(kbest, reference, source, config, table):
    """(sim, cxty_raw, total) per entry, each hypothesis scored on its own:
    tuple-n-gram BLEU, and its own Viterbi alignment scored by
    sentence_frs or word_alignment_score."""
    sims = [_counter_bleu(entry.hypothesis, reference, 4) for entry in kbest.entries]
    raws = []
    for entry in kbest.entries:
        if config.complexity_kind == "nmt":
            raws.append(entry.nmt_logprob)
            continue
        pair = SentencePair(tuple(source), entry.hypothesis)
        alignment = viterbi_align(pair, table)
        if config.complexity_kind == "frs":
            raws.append(sentence_frs(alignment, len(entry.hypothesis)))
        else:
            raws.append(word_alignment_score(pair, alignment, table))
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
    """A table, a k-best list, a reference, two sources and a config. In
    one shape of table each target word sits in at most one row, so each
    word has one possible link."""
    rows = {}
    for x in [NULL_TOKEN] + _SOURCE_WORDS:
        if draw(st.booleans()) or x == "s0":
            rows[x] = {}
    if draw(st.booleans()):
        for y in _TARGET_WORDS[:4]:
            for x in rows:
                if draw(st.booleans()):
                    rows[x][y] = draw(_PROBS)
                    break
    else:
        for x in rows:
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
    )


class TestAgainstPerHypothesisScoring:
    @settings(max_examples=500)
    @given(_selection_cases())
    def test_same_floats_as_per_hypothesis_path(self, case):
        """sim, cxty_raw and total equal each hypothesis scored on its own,
        float for float, for two sources scored one after the other against
        one table: ties, NULL winners and words in no row included."""
        table, kbest, reference, sources, config = case
        for source in sources:
            if config.complexity_kind == "frs" and not all(
                entry.hypothesis for entry in kbest.entries
            ):
                with pytest.raises(ValueError, match="^target_length must be >= 1, got 0$"):
                    _per_hypothesis_scores(kbest, reference, source, config, table)
                with pytest.raises(ValueError, match="^target_length must be >= 1, got 0$"):
                    score_hypotheses(kbest, reference, source, config, table)
                continue
            expected = _per_hypothesis_scores(kbest, reference, source, config, table)
            scored = score_hypotheses(kbest, reference, source, config, table)
            assert [(h.sim, h.cxty_raw, h.total) for h in scored] == expected
