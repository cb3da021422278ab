"""Attention confidence, token accuracy and expected calibration error."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillens import (
    AttentionRecord,
    TokenPredictionRecord,
    ValidationError,
    attention_confidence,
    average_confidence,
    confidence_by_iteration,
    expected_calibration_error,
    fill_correctness,
    token_accuracy,
)
from distillens import calibration
from distillens.calibration import MAX_BINS, _edit_distance


def _record(weights, sentence_id=0, iteration=1, head=0):
    return AttentionRecord(
        sentence_id, iteration, head, tuple(tuple(row) for row in weights)
    )


@st.composite
def _token_pairs(draw):
    """A hypothesis and a reference over one alphabet of 1-3 symbols."""
    alphabet = "abc"[: draw(st.integers(1, 3))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=6)
    return draw(tokens), draw(tokens)


@st.composite
def _long_token_pairs(draw):
    """A hypothesis and a reference of 0-40 tokens over 1-4 symbols."""
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=40)
    return draw(tokens), draw(tokens)


@st.composite
def _wide_token_pairs(draw):
    """A hypothesis and a reference of 0-200 tokens over 1-3 symbols, the
    reference an edited copy of the hypothesis or unrelated to it, so the
    packed keys span many int digits and ties are common."""
    alphabet = "abc"[: draw(st.integers(1, 3))]

    def tokens(size):
        return draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))

    hyp = tokens(draw(st.integers(0, 200)))
    if draw(st.booleans()):
        return hyp, tokens(draw(st.integers(0, 200)))
    ref = list(hyp)
    for _ in range(draw(st.integers(0, 20))):
        position = draw(st.integers(0, len(ref)))
        if draw(st.booleans()) and position < len(ref):
            del ref[position]
        else:
            ref.insert(position, draw(st.sampled_from(alphabet)))
    return hyp, ref


def _full_table_token_accuracy(hypothesis, reference):
    """token_accuracy as it was before the band: every cell of the table."""
    hyp = list(hypothesis)
    ref = list(reference)
    n_hyp = len(hyp)
    n_ref = len(ref)
    if n_hyp == 0:
        return []
    below = [(n_ref - j, 0, 0) for j in range(n_ref + 1)]
    for i in range(n_hyp - 1, -1, -1):
        token = hyp[i]
        bit = 1 << (n_hyp - 1 - i)
        row = [(0, 0, 0)] * n_ref + [(n_hyp - i, 0, 0)]
        for j in range(n_ref - 1, -1, -1):
            if token == ref[j]:
                cost, neg_matches, neg_mask = below[j + 1]
                match = (cost, neg_matches - 1, neg_mask - bit)
                cost, neg_matches, neg_mask = min(below[j], row[j + 1])
                row[j] = min(match, (cost + 1, neg_matches, neg_mask))
            else:
                cost, neg_matches, neg_mask = min(below[j + 1], below[j], row[j + 1])
                row[j] = (cost + 1, neg_matches, neg_mask)
        below = row
    mask = -below[0][2]
    return [bool(mask >> (n_hyp - 1 - p) & 1) for p in range(n_hyp)]


def _levenshtein(a, b):
    """Textbook unit-cost edit distance, one row at a time."""
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (x != y))
            )
        previous = current
    return previous[-1]


def _pred(probability, correct, sentence_id=0, position=0):
    return TokenPredictionRecord(sentence_id, position, "w", probability, correct)


class TestAttentionConfidence:
    def test_one_hot_rows(self):
        record = _record([[1.0, 0.0], [0.0, 1.0]])
        assert attention_confidence(record) == 1.0

    def test_uniform_rows(self):
        record = _record([[0.25] * 4] * 3)
        assert attention_confidence(record) == 0.25

    def test_hand_mean_of_maxima(self):
        record = _record([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        assert attention_confidence(record) == pytest.approx(0.55, abs=1e-9)

    def test_bounds(self):
        rng = random.Random(17)
        for _ in range(50):
            n_src = rng.randint(1, 6)
            rows = []
            for _ in range(rng.randint(1, 5)):
                raw = [rng.random() + 1e-9 for _ in range(n_src)]
                total = sum(raw)
                rows.append([w / total for w in raw])
            value = attention_confidence(_record(rows))
            assert 1 / n_src <= value <= 1.0 + 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="attention matrix has no rows"):
            attention_confidence([])


class TestConfidenceByIteration:
    def test_single_record(self):
        record = _record([[1.0, 0.0]], iteration=3)
        assert confidence_by_iteration([record]) == {3: 1.0}

    def test_mean_within_iteration(self):
        records = [
            _record([[1.0, 0.0]], iteration=1),
            _record([[0.5, 0.5]], iteration=1, head=1),
        ]
        assert confidence_by_iteration(records) == {1: 0.75}

    def test_independent_iterations_ascending(self):
        records = [
            _record([[0.5, 0.5]], iteration=2),
            _record([[1.0, 0.0]], iteration=1),
        ]
        curve = confidence_by_iteration(records)
        assert curve == {1: 1.0, 2: 0.5}
        assert list(curve) == [1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_by_iteration([])


class TestTokenAccuracy:
    def test_identical(self):
        assert token_accuracy(["a", "b"], ["a", "b"]) == [True, True]

    def test_substitution(self):
        assert token_accuracy(list("axc"), list("abc")) == [True, False, True]

    def test_leading_insertion(self):
        assert token_accuracy(["a", "b"], ["b"]) == [False, True]

    def test_earlier_match_preferred(self):
        assert token_accuracy(["a", "b", "a"], ["a"]) == [True, False, False]

    def test_match_beats_substitution(self):
        assert token_accuracy(["b", "a"], ["a", "b"]) == [True, False]

    def test_empty_inputs(self):
        assert token_accuracy([], ["a"]) == []
        assert token_accuracy(["a"], []) == [False]

    def test_deterministic(self):
        rng = random.Random(23)
        for _ in range(30):
            hyp = [rng.choice("ab") for _ in range(rng.randint(0, 8))]
            ref = [rng.choice("ab") for _ in range(rng.randint(0, 8))]
            assert token_accuracy(hyp, ref) == token_accuracy(list(hyp), list(ref))

    @settings(max_examples=300)
    @given(_token_pairs())
    def test_matches_brute_force(self, pair):
        """Exhaustively compare with a direct enumeration of all edit
        alignments under the documented tie-break order."""

        def brute(hyp, ref):
            best = None
            for k in range(0, min(len(hyp), len(ref)) + 1):
                for hs in itertools.combinations(range(len(hyp)), k):
                    for rs in itertools.combinations(range(len(ref)), k):
                        subs = sum(
                            1 for a, b in zip(hs, rs) if hyp[a] != ref[b]
                        )
                        cost = subs + (len(hyp) - k) + (len(ref) - k)
                        mpos = tuple(
                            a for a, b in zip(hs, rs) if hyp[a] == ref[b]
                        )
                        key = (cost, -(k - subs), mpos)
                        if best is None or key < best:
                            best = key
            labels = [False] * len(hyp)
            for position in best[2]:
                labels[position] = True
            return labels

        hyp, ref = pair
        assert token_accuracy(hyp, ref) == brute(hyp, ref)

    @settings(max_examples=300)
    @given(_long_token_pairs())
    def test_band_matches_full_table(self, pair):
        """The banded pass gives the labels of the full-table pass."""
        hyp, ref = pair
        assert token_accuracy(hyp, ref) == _full_table_token_accuracy(hyp, ref)

    @settings(max_examples=30)
    @given(_wide_token_pairs())
    def test_packed_keys_match_full_table(self, pair):
        """Keys of over 200 bits give the labels of the tuple pass."""
        hyp, ref = pair
        assert token_accuracy(hyp, ref) == _full_table_token_accuracy(hyp, ref)

    @pytest.mark.parametrize(
        "hyp, ref",
        [
            (list("ab" * 60), list("ab" * 60) + ["c"] * 50),  # skew 50, slack 0
            (["a"] * 150 + ["b"], ["b"] + ["a"] * 20),  # skew -130, slack 0
            (list("abc" * 40), [  # skew -30, slack 2
                "x" if k in (5, 25, 45, 65, 85) else token for k, token in enumerate("bca" * 30)
            ]),
            (list("abcab" * 40), []),
            ([], list("abcab" * 40)),
            (["a"] * 180, ["b"] * 200),  # every token mismatches
            (list("ab" * 100), list("ab" * 100)),  # every token matches
        ],
        ids=["skew-50", "skew-minus-130", "skew-minus-30-slack-2", "empty-ref", "empty-hyp",
             "all-mismatch", "all-match"],
    )
    def test_packed_keys_edge_cases(self, hyp, ref):
        assert token_accuracy(hyp, ref) == _full_table_token_accuracy(hyp, ref)

    @settings(max_examples=300)
    @given(_long_token_pairs())
    def test_edit_distance_matches_levenshtein(self, pair):
        hyp, ref = pair
        assert _edit_distance(hyp, ref) == _levenshtein(hyp, ref)

    def test_long_identical(self):
        tokens = [f"w{k % 7}" for k in range(150)]
        assert _edit_distance(tokens, tokens) == 0
        assert token_accuracy(tokens, list(tokens)) == [True] * 150

    def test_long_unrelated(self):
        hyp = [f"h{k}" for k in range(90)]
        ref = [f"r{k}" for k in range(130)]
        assert _edit_distance(hyp, ref) == 130
        assert token_accuracy(hyp, ref) == [False] * 90

    def test_one_side_empty(self):
        tokens = list("abcab")
        assert _edit_distance(tokens, []) == 5
        assert _edit_distance([], tokens) == 5
        assert _edit_distance([], []) == 0
        assert token_accuracy(tokens, []) == [False] * 5
        assert token_accuracy([], tokens) == []


class TestExpectedCalibrationError:
    def test_perfectly_calibrated(self):
        records = [_pred(1.0, True, position=k) for k in range(10)]
        assert expected_calibration_error(records).ece == 0.0

    def test_half_correct_at_full_confidence(self):
        records = [_pred(1.0, k % 2 == 0, position=k) for k in range(100)]
        assert expected_calibration_error(records).ece == 0.5

    def test_two_token_hand_case(self):
        records = [_pred(0.9, True, position=0), _pred(0.7, False, position=1)]
        report = expected_calibration_error(records)
        assert abs(report.ece - 0.4) < 1e-15

    def test_bins_partition_tokens(self):
        rng = random.Random(41)
        records = [
            _pred(rng.random(), rng.random() < 0.5, position=k)
            for k in range(500)
        ]
        report = expected_calibration_error(records, n_bins=7)
        assert sum(b.count for b in report.bins) == 500
        assert len(report.bins) == 7

    def test_ece_recomputable_from_bins(self):
        rng = random.Random(43)
        records = [
            _pred(rng.random(), rng.random() < 0.7, position=k)
            for k in range(300)
        ]
        report = expected_calibration_error(records)
        total = sum(b.count for b in report.bins)
        recomputed = sum(
            (b.count / total) * abs(b.mean_accuracy - b.mean_confidence)
            for b in report.bins
            if b.count
        )
        assert recomputed == report.ece

    def test_full_confidence_lands_in_last_bin(self):
        report = expected_calibration_error([_pred(1.0, True)], n_bins=10)
        assert report.bins[9].count == 1

    def test_missing_correct_flag_names_record(self):
        records = [
            _pred(0.5, True, position=0),
            _pred(0.5, None, sentence_id=4, position=7),
        ]
        with pytest.raises(ValidationError) as excinfo:
            expected_calibration_error(records)
        message = str(excinfo.value)
        assert "4" in message and "7" in message

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            expected_calibration_error([_pred(0.5, True)], n_bins=0)
        with pytest.raises(ValueError):
            expected_calibration_error([])

    def test_bins_above_limit_rejected(self):
        with pytest.raises(ValueError, match=f"1..{MAX_BINS}"):
            expected_calibration_error([_pred(0.5, True)], n_bins=MAX_BINS + 1)

    def test_overall_means(self):
        records = [
            _pred(0.25, True, position=0),
            _pred(0.75, False, position=1),
        ]
        report = expected_calibration_error(records)
        assert report.accuracy == 0.5
        assert report.confidence == 0.5

    def test_report_dict_shape(self):
        payload = expected_calibration_error([_pred(0.5, True)]).to_dict()
        assert set(payload) == {"accuracy", "confidence", "ece", "n_bins", "bins"}
        assert payload["n_bins"] == len(payload["bins"]) == 10

    def test_report_dict_values(self):
        records = [_pred(0.25, True, position=0), _pred(0.75, False, position=1)]
        payload = expected_calibration_error(records, 2).to_dict()
        assert payload == {
            "accuracy": 0.5,
            "confidence": 0.5,
            "ece": 0.75,
            "n_bins": 2,
            "bins": [
                {"count": 1, "mean_confidence": 0.25, "mean_accuracy": 1.0},
                {"count": 1, "mean_confidence": 0.75, "mean_accuracy": 0.0},
            ],
        }
        assert isinstance(payload["bins"], list)


class TestAverageConfidence:
    def test_pairs(self):
        assert average_confidence([_pred(0.5, None), _pred(0.5, None)]) == 0.5

    def test_single(self):
        assert average_confidence([_pred(1.0, None)]) == 1.0

    def test_mean(self):
        records = [_pred(p, None) for p in (0.2, 0.4, 0.9)]
        assert average_confidence(records) == pytest.approx(0.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_confidence([])


class _CountingDict(dict):
    """A dict that counts its membership tests."""

    tests = 0

    def __contains__(self, key):
        self.tests += 1
        return super().__contains__(key)


class TestFillCorrectness:
    def test_each_sentence_checked_and_labelled_once(self, monkeypatch):
        labelled = []

        def counting_token_accuracy(hypothesis, reference):
            labelled.append(tuple(hypothesis))
            return token_accuracy(hypothesis, reference)

        monkeypatch.setattr(calibration, "token_accuracy", counting_token_accuracy)
        hypotheses = _CountingDict({0: ["a", "x"], 1: ["b", "c"]})
        references = _CountingDict({0: ["a", "b"], 1: ["b", "c"]})
        records = [
            TokenPredictionRecord(sid, position, hypotheses[sid][position], 0.5, None)
            for position in range(2)
            for sid in (0, 1)
        ]
        records.append(TokenPredictionRecord(0, 0, "a", 0.25, False))
        filled = fill_correctness(records, hypotheses, references)
        assert labelled == [("a", "x"), ("b", "c")]
        assert hypotheses.tests == references.tests == 2
        flags = [True, True, False, True, False]
        assert filled == [r._replace(correct=flag) for r, flag in zip(records, flags)]

    def test_fills_from_token_accuracy(self):
        records = [
            TokenPredictionRecord(0, 0, "a", 0.9, None),
            TokenPredictionRecord(0, 1, "x", 0.8, None),
            TokenPredictionRecord(0, 2, "c", 0.7, None),
        ]
        filled = fill_correctness(
            records, {0: ["a", "x", "c"]}, {0: ["a", "b", "c"]}
        )
        assert [r.correct for r in filled] == [True, False, True]

    def test_existing_flags_kept(self):
        records = [TokenPredictionRecord(0, 0, "zzz", 0.9, False)]
        filled = fill_correctness(records, {0: ["a"]}, {0: ["a"]})
        assert filled[0].correct is False

    def test_unknown_sentence_rejected(self):
        records = [TokenPredictionRecord(5, 0, "a", 0.9, None)]
        with pytest.raises(ValidationError):
            fill_correctness(records, {0: ["a"]}, {0: ["a"]})

    def test_sentence_without_reference_rejected(self):
        records = [TokenPredictionRecord(1, 0, "a", 0.9, None)]
        with pytest.raises(ValidationError, match="no reference for sentence 1 "):
            fill_correctness(records, {0: ["a"], 1: ["a"]}, {0: ["a"]})

    def test_position_out_of_range_rejected(self):
        records = [TokenPredictionRecord(0, 3, "a", 0.9, None)]
        with pytest.raises(ValidationError):
            fill_correctness(records, {0: ["a"]}, {0: ["a"]})

    def test_token_mismatch_rejected(self):
        records = [TokenPredictionRecord(0, 0, "b", 0.9, None)]
        with pytest.raises(ValidationError):
            fill_correctness(records, {0: ["a"]}, {0: ["a"]})
