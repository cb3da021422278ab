"""I/O layer: parsing, validation and round-trips for every format."""

import ast
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import distillens
from distillens import (
    Alignment,
    AttentionRecord,
    DistillensError,
    FormatError,
    KBestEntry,
    KBestList,
    ParallelCorpus,
    SentencePair,
    TokenPredictionRecord,
    TranslationTable,
    ValidationError,
    check_alignments,
    format_pharaoh,
    parse_pharaoh,
    read_alignments,
    read_attention,
    read_kbest,
    read_parallel_corpus,
    read_table,
    read_token_lines,
    read_token_predictions,
    write_alignments,
    write_attention,
    write_kbest,
    write_parallel_corpus,
    write_table,
    write_token_lines,
    write_token_predictions,
)
from distillens.corpus_io import atomic_write


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)


class TestParallelCorpus:
    def test_basic_pair(self, tmp_path):
        src = _write(tmp_path / "s", "der hund\n")
        tgt = _write(tmp_path / "t", "the dog\n")
        corpus = read_parallel_corpus(src, tgt)
        assert len(corpus) == 1
        assert corpus[0].source == ("der", "hund")
        assert corpus[0].target == ("the", "dog")

    def test_line_count_mismatch_names_both_counts(self, tmp_path):
        src = _write(tmp_path / "s", "a\nb\nc\n")
        tgt = _write(tmp_path / "t", "x\ny\n")
        with pytest.raises(ValidationError) as excinfo:
            read_parallel_corpus(src, tgt)
        assert "3" in str(excinfo.value) and "2" in str(excinfo.value)

    def test_empty_line_reports_line_number(self, tmp_path):
        src = _write(tmp_path / "s", "a\n\nc\n")
        tgt = _write(tmp_path / "t", "x\ny\nz\n")
        with pytest.raises(FormatError) as excinfo:
            read_parallel_corpus(src, tgt)
        assert "line 2" in str(excinfo.value)

    def test_round_trip(self, tmp_path):
        corpus = ParallelCorpus(
            (
                SentencePair(("a", "b"), ("x",)),
                SentencePair(("c",), ("y", "z", "w")),
            )
        )
        src, tgt = str(tmp_path / "s"), str(tmp_path / "t")
        write_parallel_corpus(corpus, src, tgt)
        assert read_parallel_corpus(src, tgt) == corpus

    def test_missing_trailing_newline_tolerated(self, tmp_path):
        src = _write(tmp_path / "s", "a b")
        assert read_token_lines(src) == [("a", "b")]


class TestPharaoh:
    def test_parse_basic(self):
        alignment = parse_pharaoh("0-0 1-2")
        assert alignment.links == frozenset({(0, 0), (1, 2)})
        assert len(alignment) == 2

    def test_parse_empty(self):
        assert parse_pharaoh("").links == frozenset()

    def test_order_insensitive(self):
        assert parse_pharaoh("1-2 0-0") == parse_pharaoh("0-0 1-2")

    @pytest.mark.parametrize(
        "bad",
        ["0-0 1_2", "0-", "-1", "x-y", "0--1", "3", "\u00b2-1", "\u0663-0",
         pytest.param("1" * 5000 + "-0", id="5000-digits")],
    )
    def test_malformed_token(self, bad):
        with pytest.raises(FormatError, match="malformed alignment link"):
            parse_pharaoh(bad)

    def test_malformed_offset_reported(self):
        with pytest.raises(FormatError) as excinfo:
            parse_pharaoh("0-0 1_2")
        assert "token 2" in str(excinfo.value)

    def test_format_sorted(self):
        alignment = Alignment(frozenset({(2, 0), (0, 1), (0, 0)}))
        assert format_pharaoh(alignment) == "0-0 0-1 2-0"

    def test_file_round_trip(self, tmp_path):
        alignments = [
            Alignment(frozenset({(0, 0), (1, 1)})),
            Alignment(frozenset()),
            Alignment(frozenset({(2, 0)})),
        ]
        path = str(tmp_path / "a.aln")
        write_alignments(alignments, path)
        corpus = _corpus((3, 2), (1, 1), (3, 1))
        assert read_alignments(path, corpus) == alignments

    def test_empty_line_means_no_links(self, tmp_path):
        path = _write(tmp_path / "a.aln", "0-0\n\n1-1\n")
        alignments = read_alignments(path, _corpus((1, 1), (1, 1), (2, 2)))
        assert alignments[1].links == frozenset()

    def test_validate_bounds(self):
        alignment = Alignment(frozenset({(0, 0), (2, 1)}))
        alignment.validate(3, 2)
        alignment.validate()
        with pytest.raises(ValidationError):
            alignment.validate(2, 2)
        with pytest.raises(ValidationError):
            alignment.validate(3, 1)
        with pytest.raises(ValidationError, match="target index"):
            alignment.validate(target_length=1)


def _corpus(*lengths):
    """A corpus whose pairs have the given (source, target) lengths."""
    return ParallelCorpus(
        tuple(SentencePair(("s",) * i, ("t",) * j) for i, j in lengths)
    )


class TestCheckAlignments:
    def test_count_names_path(self):
        with pytest.raises(ValidationError, match="^a.aln: 1 alignments for a corpus of 2 "):
            check_alignments(_corpus((1, 1), (1, 1)), [Alignment(frozenset())], "a.aln")

    @pytest.mark.parametrize("link", [(1, 0), (0, 1)], ids=["source", "target"])
    def test_link_names_path_and_line(self, link):
        alignments = [Alignment(frozenset({(0, 0)})), Alignment(frozenset({link}))]
        with pytest.raises(ValidationError, match="^a.aln: line 2: alignment link"):
            check_alignments(_corpus((1, 1), (1, 1)), alignments, "a.aln")
        with pytest.raises(ValidationError, match="^line 2: alignment link"):
            check_alignments(_corpus((1, 1), (1, 1)), alignments)

    def test_read_checks_against_corpus(self, tmp_path):
        path = _write(tmp_path / "a.aln", "0-0\n0-1\n")
        with pytest.raises(ValidationError, match=": line 2: .*target index"):
            read_alignments(path, _corpus((1, 1), (1, 1)))


class TestKBest:
    def test_basic(self, tmp_path):
        path = _write(tmp_path / "k", "0 ||| the cat ||| -1.2\n")
        lists = read_kbest(path)
        assert list(lists) == [0]
        entry = lists[0].entries[0]
        assert entry.hypothesis == ("the", "cat")
        assert entry.nmt_logprob == -1.2

    def test_grouping(self, tmp_path):
        path = _write(
            tmp_path / "k",
            "0 ||| a ||| -1.0\n0 ||| b ||| -2.0\n1 ||| c ||| -0.5\n",
        )
        lists = read_kbest(path)
        assert [len(lists[i].entries) for i in (0, 1)] == [2, 1]
        assert lists[0].entries[1].hypothesis == ("b",)

    def test_unparsable_logprob(self, tmp_path):
        path = _write(tmp_path / "k", "0 ||| the cat ||| abc\n")
        with pytest.raises(FormatError) as excinfo:
            read_kbest(path)
        assert "line 1" in str(excinfo.value)

    def test_positive_logprob_rejected(self, tmp_path):
        path = _write(tmp_path / "k", "0 ||| the cat ||| 0.3\n")
        with pytest.raises(FormatError):
            read_kbest(path)

    def test_decreasing_ids_rejected(self, tmp_path):
        path = _write(tmp_path / "k", "1 ||| a ||| -1\n0 ||| b ||| -1\n")
        with pytest.raises(FormatError):
            read_kbest(path)

    def test_empty_hypothesis_rejected(self, tmp_path):
        path = _write(tmp_path / "k", "0 |||  ||| -1\n")
        with pytest.raises(FormatError):
            read_kbest(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = _write(tmp_path / "k", "0 ||| the cat\n")
        with pytest.raises(FormatError):
            read_kbest(path)

    @pytest.mark.parametrize(
        "sentence_id",
        ["1_0", "\u0660", " +0"],
        ids=["underscore", "arabic-indic-digit", "space-plus"],
    )
    def test_id_not_ascii_digits_rejected(self, tmp_path, sentence_id):
        path = _write(tmp_path / "k", f"{sentence_id} ||| a ||| -1.0\n")
        message = f"{path}: line 1: unparsable sentence id '{sentence_id}'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_kbest(path)

    def test_round_trip(self, tmp_path):
        lists = {
            0: KBestList(0, (KBestEntry(("a", "b"), -0.25), KBestEntry(("c",), -2.0))),
            3: KBestList(3, (KBestEntry(("d",), 0.0),)),
        }
        path = str(tmp_path / "k")
        write_kbest(lists, path)
        assert read_kbest(path) == lists

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.5, 5e-324])
    def test_bad_log_probability_refused_with_no_file(self, tmp_path, value):
        entries = (KBestEntry(("a",), -1.0), KBestEntry(("b",), value))
        with pytest.raises(ValueError, match="log probability must be finite and <= 0"):
            write_kbest({0: KBestList(0, entries)}, str(tmp_path / "k"))
        assert os.listdir(tmp_path) == []


class TestTokenPredictions:
    def test_accept_and_reject_probability(self, tmp_path):
        good = _write(
            tmp_path / "good",
            '{"sentence_id": 0, "position": 0, "token": "a", "probability": 0.8}\n',
        )
        records = read_token_predictions(good)
        assert records[0].probability == 0.8
        assert records[0].correct is None
        bad = _write(
            tmp_path / "bad",
            '{"sentence_id": 0, "position": 0, "token": "a", "probability": 1.3}\n',
        )
        with pytest.raises(FormatError):
            read_token_predictions(bad)

    def test_duplicate_position_rejected(self, tmp_path):
        lines = (
            '{"sentence_id": 0, "position": 1, "token": "a", "probability": 0.5}\n'
            '{"sentence_id": 0, "position": 1, "token": "b", "probability": 0.5}\n'
        )
        path = _write(tmp_path / "p", lines)
        with pytest.raises(FormatError):
            read_token_predictions(path)

    def test_round_trip_with_and_without_correct(self, tmp_path):
        records = [
            TokenPredictionRecord(0, 0, "a", 0.25, True),
            TokenPredictionRecord(0, 1, "b", 1.0, None),
            TokenPredictionRecord(2, 0, "c", 0.0, False),
        ]
        path = str(tmp_path / "p.jsonl")
        write_token_predictions(records, path)
        assert read_token_predictions(path) == records


class TestAttention:
    def test_renormalized_within_tolerance(self, tmp_path):
        path = _write(
            tmp_path / "a",
            '{"sentence_id": 0, "iteration": 1, "head": 0, '
            '"weights": [[0.5, 0.5001]]}\n',
        )
        record = read_attention(path)[0]
        assert sum(record.weights[0]) == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_the_weights_over_their_left_to_right_total(self, tmp_path):
        # ten 0.1s add up to 0.9999999999999999 left to right but to 1.0
        # with the compensated sum Python 3.12 gives builtin sum
        rows = [[0.1] * 10, [0.2, 0.30001, 0.5], [0, 1]]
        path = _write(
            tmp_path / "a",
            "".join(
                '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": [%s]}\n' % row
                for row in rows
            ),
        )
        expected = []
        for row in rows:
            total = 0.0
            for weight in row:
                total += weight
            expected.append((tuple(weight / total for weight in row),))
        assert [record.weights for record in read_attention(path)] == expected
        assert expected[0][0][0] == 0.10000000000000002

    def test_row_sum_off_rejected(self, tmp_path):
        path = _write(
            tmp_path / "a",
            '{"sentence_id": 0, "iteration": 1, "head": 0, '
            '"weights": [[0.5, 0.6]]}\n',
        )
        with pytest.raises(FormatError):
            read_attention(path)

    def test_iteration_must_be_positive(self, tmp_path):
        path = _write(
            tmp_path / "a",
            '{"sentence_id": 0, "iteration": 0, "head": 0, '
            '"weights": [[1.0]]}\n',
        )
        with pytest.raises(FormatError):
            read_attention(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = _write(
            tmp_path / "a",
            '{"sentence_id": 0, "iteration": 1, "head": 0, '
            '"weights": [[1.0], [0.5, 0.5]]}\n',
        )
        with pytest.raises(FormatError):
            read_attention(path)

    def test_negative_weight_rejected(self, tmp_path):
        path = _write(
            tmp_path / "a",
            '{"sentence_id": 0, "iteration": 1, "head": 0, '
            '"weights": [[1.2, -0.2]]}\n',
        )
        with pytest.raises(FormatError):
            read_attention(path)

    def test_round_trip(self, tmp_path):
        records = [
            AttentionRecord(0, 1, 0, ((0.25, 0.75), (1.0, 0.0))),
            AttentionRecord(1, 2, 3, ((0.5, 0.5),)),
        ]
        path = str(tmp_path / "a.jsonl")
        write_attention(records, path)
        assert read_attention(path) == records

    @pytest.mark.parametrize(
        "row, message",
        [
            ('["a", 1.0]', "attention weights must be numbers"),
            ("[1.0, true]", "attention weights must be numbers"),
            ("[null, 1.0]", "attention weights must be numbers"),
            ("[1.2, -0.2]", "attention weight -0.2 must be finite and >= 0"),
            ("[-1, 2]", "attention weight -1 must be finite and >= 0"),
            ("[NaN, 1.0]", "attention weight nan must be finite and >= 0"),
            ("[0.5, Infinity]", "attention weight inf must be finite and >= 0"),
            ("[0, -Infinity]", "attention weight -inf must be finite and >= 0"),
            ("[1e999, 0]", "attention weight inf must be finite and >= 0"),
            (f"[{'9' * 401}, 0]", "attention weight is too large"),
            ("[1e308, 1e308]", "attention row sums to inf, more than 0.0001 away from 1"),
            ("[0.5, 0.6]", "attention row sums to 1.1, more than 0.0001 away from 1"),
            ("[]", "attention rows must be non-empty lists"),
            ("1.0", "attention rows must be non-empty lists"),
            # a row with defects of two kinds gets the first check's message
            ("[-1, \"a\"]", "attention weights must be numbers"),
        ],
    )
    def test_bad_row_message(self, tmp_path, row, message):
        path = _write(
            tmp_path / "a",
            '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": [[1.0, 0.0]]}\n'
            f'{{"sentence_id": 0, "iteration": 1, "head": 0, "weights": [[1.0, 0.0], {row}]}}\n',
        )
        with pytest.raises(FormatError) as info:
            read_attention(path)
        assert str(info.value) == f"{path}: line 2: {message}"

    def test_negative_zero_accepted(self, tmp_path):
        path = _write(
            tmp_path / "a",
            '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": [[-0.0, 1.0]]}\n',
        )
        assert read_attention(path)[0].weights == ((0.0, 1.0),)


_PREDICTION_LINE = '{"sentence_id": 0, "position": 0, "token": "a", "probability": 0.5%s}'
_ATTENTION_LINE = '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": %s}'


class TestJsonLinesRecords:
    @pytest.mark.parametrize(
        "read, line, message",
        [
            (read_token_predictions, "[1]", "record must be a JSON object"),
            (read_attention, '"a"', "record must be a JSON object"),
            (read_token_predictions, _PREDICTION_LINE % ', "correct": 1',
             "field 'correct' must be a boolean when present"),
            (read_attention, _ATTENTION_LINE % "[]", "field 'weights' must be a non-empty matrix"),
            (read_attention, _ATTENTION_LINE % "1.0",
             "field 'weights' must be a non-empty matrix"),
        ],
    )
    def test_bad_record_message(self, tmp_path, read, line, message):
        path = _write(tmp_path / "r.jsonl", line + "\n")
        with pytest.raises(FormatError) as info:
            read(path)
        assert str(info.value) == f"{path}: line 1: {message}"

    @pytest.mark.parametrize(
        "read, line",
        [
            (read_token_predictions, _PREDICTION_LINE % ""),
            (read_attention, _ATTENTION_LINE % "[[1.0]]"),
        ],
    )
    def test_blank_lines_skipped(self, tmp_path, read, line):
        path = _write(tmp_path / "r.jsonl", f"\n{line}\n \t\n")
        assert read(path) == read(_write(tmp_path / "one.jsonl", line + "\n"))


class TestJsonLinesWriters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "write, record",
        [
            (write_attention, lambda value: AttentionRecord(0, 1, 0, ((1.0, value),))),
            (write_token_predictions, lambda value: TokenPredictionRecord(0, 0, "a", value)),
        ],
    )
    def test_non_finite_refused_with_no_file(self, tmp_path, write, record, value):
        with pytest.raises(ValueError):
            write([record(0.5), record(value)], str(tmp_path / "out.jsonl"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "write, bad, message",
        [
            (write_token_predictions, TokenPredictionRecord(0, 1, "a", 1.5),
             "probability 1.5 outside [0, 1]"),
            (write_token_predictions, TokenPredictionRecord(-1, 0, "a", 0.5),
             "field 'sentence_id' must be >= 0"),
            (write_token_predictions, TokenPredictionRecord(0, -1, "a", 0.5),
             "field 'position' must be >= 0"),
            (write_token_predictions, TokenPredictionRecord(0, 0, "b", 0.5),
             "duplicate position 0 in sentence 0"),
            (write_token_predictions, TokenPredictionRecord(0, 1, "a", True),
             "field 'probability' must be a number"),
            (write_token_predictions, TokenPredictionRecord(0, 1, 5, 0.5),
             "field 'token' must be a string"),
            (write_token_predictions, TokenPredictionRecord(0, 1, "a", 0.5, 1),
             "field 'correct' must be a boolean when present"),
            (write_attention, AttentionRecord(0, 0, 0, ((1.0,),)),
             "field 'iteration' must be >= 1"),
            (write_attention, AttentionRecord(0, 1, -1, ((1.0,),)),
             "field 'head' must be >= 0"),
            (write_attention, AttentionRecord(0, 1, 0, ()),
             "field 'weights' must be a non-empty matrix"),
            (write_attention, AttentionRecord(0, 1, 0, ((),)),
             "attention rows must be non-empty lists"),
            (write_attention, AttentionRecord(0, 1, 0, ((1.0,), (0.5, 0.5))),
             "attention rows must all have the same length"),
            (write_attention, AttentionRecord(0, 1, 0, ((1.5, -0.5),)),
             "attention weight -0.5 must be finite and >= 0"),
            (write_attention, AttentionRecord(0, 1, 0, ((0.5, 0.4),)),
             "attention row sums to 0.9, more than 0.0001 away from 1"),
        ],
    )
    def test_what_the_reader_rejects_is_refused_with_no_file(
        self, tmp_path, write, bad, message
    ):
        good = (
            TokenPredictionRecord(0, 0, "a", 0.5)
            if write is write_token_predictions
            else AttentionRecord(0, 1, 0, ((1.0,),))
        )
        with pytest.raises(ValueError) as info:
            write([good, bad], str(tmp_path / "out.jsonl"))
        assert str(info.value) == f"record 2: {message}"
        assert os.listdir(tmp_path) == []


def _lines(line):
    """Text of 1-4 lines drawn from ``line``, each ending in a newline."""
    return st.lists(line, min_size=1, max_size=4).map(
        lambda lines: "".join(text + "\n" for text in lines)
    )


_TOKENS = st.lists(st.sampled_from("abx"), min_size=1, max_size=3).map(" ".join)


@st.composite
def _pharaoh(draw):
    """1-4 short pairs and one Pharaoh line per pair; the reader also checks
    that every link it returns fits its pair."""
    lengths = draw(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4)
    )
    corpus = _corpus(*lengths)
    link = st.tuples(st.integers(0, 2), st.integers(0, 2)).map("{0[0]}-{0[1]}".format)
    lines = st.lists(link, max_size=3).map(" ".join)
    text = draw(st.lists(lines, min_size=len(lengths), max_size=len(lengths)))

    def read(path):
        alignments = read_alignments(path, corpus)
        assert len(alignments) == len(corpus)
        for pair, alignment in zip(corpus, alignments):
            for i, j in alignment.links:
                assert 0 <= i < len(pair.source) and 0 <= j < len(pair.target)
        return alignments

    return "".join(line + "\n" for line in text), read


_KBEST_LINE = st.tuples(
    st.integers(0, 2), _TOKENS, st.sampled_from(["-1.0", "0", "-0.5", "-2"])
)
_PREDICTION = st.fixed_dictionaries(
    {
        "sentence_id": st.integers(0, 1),
        "position": st.integers(0, 3),
        "token": st.sampled_from("ab"),
        "probability": st.sampled_from([0.0, 0.25, 1.0]),
    },
    optional={"correct": st.booleans()},
)
_ATTENTION = st.fixed_dictionaries(
    {
        "sentence_id": st.integers(0, 1),
        "iteration": st.integers(1, 2),
        "head": st.integers(0, 1),
        "weights": st.sampled_from([[[1.0]], [[0.5, 0.5]], [[0.25, 0.75], [1.0, 0.0]]]),
    }
)
_JSON_NOISE = ['"', "{", "}", "[", "]", ",", ":", "0", "-", "true", "null", "NaN", "-Infinity"]

# per reader: a strategy for (valid text, read(path)) and the fragments
# spliced into that text on top of _NOISE
_READERS = {
    "token_lines": (_lines(_TOKENS).map(lambda text: (text, read_token_lines)), [" ", "\t", "a"]),
    "alignments": (
        _pharaoh(),
        list("07- ") + ["\u00b2", "\u0663", "1" * 4400, "9" * 4500],
    ),
    "kbest": (
        st.lists(_KBEST_LINE, min_size=1, max_size=4).map(
            lambda lines: (
                "".join(f"{i} ||| {tokens} ||| {p}\n" for i, tokens, p in sorted(lines)),
                read_kbest,
            )
        ),
        ["0", "1", "-", " ||| ", " ", "+", "_", "\u0660"],
    ),
    "table": (
        _lines(
            st.tuples(_TOKENS, st.sampled_from(["0.5", "1", "0", "1e-12"])).map(
                lambda row: f"{row[0][0]}\t{row[0][-1]}\t{row[1]}"
            )
        ).map(lambda text: (text, read_table)),
        ["\t", "a", "0.5", "-", "e"],
    ),
    "predictions": (
        _lines(_PREDICTION.map(json.dumps)).map(lambda text: (text, read_token_predictions)),
        _JSON_NOISE,
    ),
    "attention": (
        _lines(_ATTENTION.map(json.dumps)).map(lambda text: (text, read_attention)),
        _JSON_NOISE,
    ),
}

# spliced into every reader's input: bytes that are not UTF-8 (a stray
# \xff, a truncated two-byte sequence), every line ending, non-finite and
# oversized numbers, and nesting deeper than a parser follows
_NOISE = [b"\xff", b"\xc3", b"\r", b"\r\n", b"\n", b"nan", b"inf", b"1e999",
          b"9" * 401, b"[" * 100_000]


def _floats(value):
    """Every float held in a parsed structure."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (list, tuple)):  # a record that is a named tuple too
        for item in value:
            yield from _floats(item)
    elif getattr(value, "__slots__", ()):  # a record that is a class
        for name in value.__slots__:
            yield from _floats(getattr(value, name))


def _open_calls(module: Path):
    """(enclosing function, callee) for each call in ``module`` to a name ending in ``open``."""
    calls = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("open"):
                calls.add((function, ast.unparse(child.func)))
            visit(child, inner)

    visit(ast.parse(module.read_text(encoding="utf-8")), None)
    return calls


class TestEveryReader:
    @pytest.mark.parametrize("reader", sorted(_READERS))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_read_fits_or_names_the_file(self, tmp_path, reader, data):
        """Valid text with noise spliced in is read with every number finite,
        or fails with an error that starts with the file's path."""
        valid, fragments = _READERS[reader]
        text, read = data.draw(valid)
        noise = data.draw(
            st.lists(st.sampled_from(_NOISE + [f.encode() for f in fragments]), max_size=3)
        )
        encoded = text.encode()
        at = data.draw(st.integers(0, len(encoded)))
        path = tmp_path / "fuzz"
        path.write_bytes(encoded[:at] + b"".join(noise) + encoded[at:])
        try:
            result = read(str(path))
        except DistillensError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        assert all(math.isfinite(value) for value in _floats(result))

    def test_only_read_lines_opens_files(self):
        calls = {
            (module.stem, function, callee)
            for module in Path(distillens.__file__).parent.glob("*.py")
            for function, callee in _open_calls(module)
        }
        assert calls == {
            ("corpus_io", "_read_lines", "open"),
            ("corpus_io", "atomic_write", "open"),
        }

    def test_only_read_lines_collects_records(self):
        """No function nested in another in corpus_io appends to a list it
        does not bind itself, so a line parser returns its record and
        _read_lines alone collects them."""
        tree = ast.parse(Path(distillens.corpus_io.__file__).read_text(encoding="utf-8"))
        functions = (ast.FunctionDef, ast.Lambda)
        nested = [
            inner
            for outer in ast.walk(tree)
            if isinstance(outer, functions)
            for inner in ast.walk(outer)
            if inner is not outer and isinstance(inner, functions)
        ]
        appends = []
        for function in nested:
            nodes = list(ast.walk(function))
            bound = {node.arg for node in nodes if isinstance(node, ast.arg)}
            bound |= {
                node.id
                for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            bound -= {name for node in nodes if isinstance(node, ast.Nonlocal) for name in node.names}
            for node in nodes:
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".append"):
                    target = node.func.value  # down to the name the list hangs from
                    while isinstance(target, (ast.Attribute, ast.Call, ast.Subscript)):
                        target = target.func if isinstance(target, ast.Call) else target.value
                    if not (isinstance(target, ast.Name) and target.id in bound):
                        appends.append(ast.unparse(node))
        assert appends == []


def _mostly(good, bad):
    """One of ``good`` about nine times in ten, else one of ``bad``."""
    return st.sampled_from(list(good) * (1 + 9 * len(bad) // len(good)) + list(bad))


# Writer inputs: mostly valid values, with values the reader rejects or
# would read back differently mixed in. Each format maps to (a strategy
# for x, the text x reads as when written naively, the writer, the
# reader, and what the reader returns for an x that reads back).
_WORD = _mostly(["a", "b", "|||"], ["", "a b", "a\rb", "a\nb", "a\tb", "\x85"])
_SENTENCE = st.tuples(_mostly([True], [False]), st.lists(_WORD, min_size=1, max_size=3)).map(
    lambda drawn: tuple(drawn[1]) if drawn[0] else ()
)
_BAD_FLOAT = [math.nan, math.inf, -math.inf]


def _renormalized(weights):
    return tuple(tuple(value / sum(row) for value in row) for row in weights)


def _prediction_fields(record):
    return {k: v for k, v in record._asdict().items() if not (k == "correct" and v is None)}


_WRITERS = {
    "token_lines": (
        st.lists(_SENTENCE, max_size=4),
        lambda x: "".join(" ".join(tokens) + "\n" for tokens in x),
        write_token_lines,
        read_token_lines,
        lambda x: [tuple(tokens) for tokens in x],
    ),
    "alignments": (
        st.lists(
            st.frozensets(st.tuples(_mostly(range(7), [-1]), st.integers(0, 6)), max_size=3).map(
                Alignment
            ),
            max_size=4,
        ),
        lambda x: "".join(format_pharaoh(alignment) + "\n" for alignment in x),
        write_alignments,
        None,  # read against a corpus of len(x) pairs, in the test
        lambda x: x,
    ),
    "kbest": (
        st.dictionaries(
            st.integers(0, 3),
            st.lists(
                st.builds(
                    KBestEntry,
                    _SENTENCE,
                    _mostly([-1.0, 0.0, -0.5, -2.5e-7], [0.5, 5e-324, *_BAD_FLOAT]),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=3,
        ).map(lambda lists: {i: KBestList(i, tuple(entries)) for i, entries in lists.items()}),
        lambda x: "".join(
            f"{i} ||| {' '.join(entry.hypothesis)} ||| {entry.nmt_logprob!r}\n"
            for i in sorted(x)
            for entry in x[i].entries
        ),
        write_kbest,
        read_kbest,
        lambda x: x,
    ),
    "table": (
        st.dictionaries(
            _WORD,
            st.dictionaries(
                _WORD, _mostly([0.5, 1.0, 0.0, 1e-12], [1.5, -0.5, *_BAD_FLOAT]),
                min_size=1, max_size=3,
            ),
            max_size=3,
        ).map(TranslationTable),
        lambda x: "".join(
            f"{s}\t{t}\t{x.probs[s][t]!r}\n" for s in sorted(x.probs) for t in sorted(x.probs[s])
        ),
        write_table,
        read_table,
        lambda x: x,
    ),
    "predictions": (
        st.lists(
            st.builds(
                TokenPredictionRecord,
                _mostly([0, 1], [-1]),
                st.integers(0, 9),
                _WORD,
                _mostly([0.0, 0.25, 1.0, 1], [1.5, *_BAD_FLOAT]),
                st.sampled_from([None, True, False]),
            ),
            max_size=4,
        ),
        lambda x: "".join(json.dumps(_prediction_fields(r), sort_keys=True) + "\n" for r in x),
        write_token_predictions,
        read_token_predictions,
        lambda x: x,
    ),
    "attention": (
        st.lists(
            st.builds(
                AttentionRecord,
                st.integers(0, 1),
                _mostly([1, 2], [0]),
                st.integers(0, 1),
                _mostly(
                    [((1.0,),), ((0.5, 0.5),), ((0.25, 0.75), (1.0, 0.0)), ((0.5, 0.50001),),
                     ((1, 0),)],
                    [((0.5, 0.4),), (), ((),), ((1.0,), (0.5, 0.5)), ((1.5, -0.5),),
                     ((math.nan, 1.0),)],
                ),
            ),
            max_size=4,
        ),
        lambda x: "".join(json.dumps(r._asdict(), sort_keys=True) + "\n" for r in x),
        write_attention,
        read_attention,
        lambda x: [r._replace(weights=_renormalized(r.weights)) for r in x],
    ),
}


def _one_list(*hypotheses):
    """K-best lists holding one list, each hypothesis at log probability -1."""
    return {0: KBestList(0, tuple(KBestEntry(h, -1.0) for h in hypotheses))}


class TestEveryWriter:
    @pytest.mark.parametrize("name", sorted(_WRITERS))
    @settings(max_examples=60)
    @given(data=st.data())
    def test_writes_exactly_what_reads_back(self, name, data):
        """A writer refuses x, with a ValueError and no file left, exactly
        when x written naively would be rejected or read back as something
        else; what it does write reads back as x."""
        strategy, naive, write, read, expected = _WRITERS[name]
        x = data.draw(strategy)
        if read is None:
            corpus = _corpus(*[(7, 7)] * len(x))
            read = lambda path: read_alignments(path, corpus)  # noqa: E731
        with tempfile.TemporaryDirectory() as directory:
            naive_path = _write(os.path.join(directory, "naive"), naive(x))
            try:
                reads_back = read(naive_path) == expected(x)
            except DistillensError:
                reads_back = False
            os.unlink(naive_path)
            path = os.path.join(directory, "out")
            try:
                write(x, path)
            except ValueError:
                assert not reads_back
                assert os.listdir(directory) == []
                return
            assert reads_back
            assert read(path) == expected(x)

    @pytest.mark.parametrize(
        "write, x, message",
        [
            (write_token_lines, [("a",), ()], "record 2: empty line"),
            (write_token_lines, [("a\rb",)],
             "record 1: token 'a\\rb' is empty or holds whitespace"),
            (write_token_lines, [("a b",)], "record 1: token 'a b' is empty or holds whitespace"),
            (write_token_lines, [("a", "")], "record 1: token '' is empty or holds whitespace"),
            (write_alignments, [Alignment(frozenset({(0, 0)})), Alignment(frozenset({(-1, 0)}))],
             "record 2: malformed alignment link '-1-0' at token 1"),
            (write_kbest, _one_list(()), "record 1: empty hypothesis"),
            (write_kbest, _one_list(("a",), ("a b",)),
             "record 2: token 'a b' is empty or holds whitespace"),
            (write_kbest, _one_list(("a\nb",)),
             "record 1: token 'a\\nb' is empty or holds whitespace"),
            (write_kbest, _one_list(("a", "|||")),
             "record 1: unparsable log probability '||| -1.0'"),
            (write_table, TranslationTable({"a\tb": {"x": 1.0}}),
             "word 'a\\tb' holds a tab or a line break"),
            (write_table, TranslationTable({"a": {"x": 0.5, "x\ny": 0.5}}),
             "word 'x\\ny' holds a tab or a line break"),
            (write_table, TranslationTable({"a": {"x\r": 1.0}}),
             "word 'x\\r' holds a tab or a line break"),
            (write_kbest, {0: KBestList(0, ()), 1: KBestList(1, _one_list(("a",))[0].entries)},
             "k-best list 0 has no entries"),
            (write_kbest, {0: KBestList(5, _one_list(("a",))[0].entries)},
             "k-best list 0 holds sentence id 5"),
            (write_table, TranslationTable({"a": {}, "b": {"x": 1.0}}),
             "source word 'a' has an empty row"),
        ],
    )
    def test_refusal_names_the_record(self, tmp_path, write, x, message):
        with pytest.raises(ValueError) as info:
            write(x, str(tmp_path / "out"))
        assert str(info.value) == message
        assert os.listdir(tmp_path) == []

    def test_only_write_lines_enters_atomic_write(self):
        tree = ast.parse(Path(distillens.corpus_io.__file__).read_text(encoding="utf-8"))
        callers = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "atomic_write"
        }
        assert callers == {"_write_lines"}


class TestAtomicWrite:
    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_success_replaces_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(str(target)) as fh:
            fh.write("new\n")
        assert target.read_text() == "new\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_what_open_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            with atomic_write(str(tmp_path / "atomic")) as fh:
                fh.write("x\n")
        finally:
            assert os.umask(previous) == umask
        assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode

    def test_file_at_the_temp_name_is_left_in_place(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        squatter = tmp_path / f".tmp.{bytes(6).hex()}~"
        squatter.write_text("not ours")
        target = tmp_path / "out.txt"
        with pytest.raises(FileExistsError):
            with atomic_write(str(target)) as fh:
                fh.write("new\n")
        assert squatter.read_text() == "not ours"
        assert os.listdir(tmp_path) == [squatter.name]

    def test_body_error_survives_a_failed_cleanup(self, tmp_path, monkeypatch):
        def refuse(path):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(os, "unlink", refuse)
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(str(tmp_path / "out.txt")) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        monkeypatch.undo()
        assert [name.startswith(".tmp.") for name in os.listdir(tmp_path)] == [True]
