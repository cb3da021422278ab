"""End-to-end subcommand behaviour through the public entry point.

Every in-process run goes through ``cli_judge.judged_run``, which holds
the CLI's contract. Each refusal test writes its run as words over the
placeholders of the ``files`` fixture, runs it through ``_refused``,
which adds the exact exit code, and checks the message itself.
``TestDrawnInputs`` runs the benchmark's invocations on drawn inputs
and checks their outputs with perfbench/check.py, as the benchmark does.
The bundled-data runs are pinned by acceptance criterion 11 and fuzzed
in tests/test_cli_contract.py; the tests here that run one take its argv
from ``bundled_runs``.
"""

import csv
import errno
import json
import marshal
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import distillens
from distillens import FormatError, bundled_data_dir, confidence_by_iteration, read_attention
from distillens.aligner import NULL_TOKEN, read_table
from distillens.calibration import MAX_BINS

import check
from bundled_runs import DATA, DIGESTS, argv, digest
from cli_judge import judged_run
from workloads import WORKLOADS, prepare_dirs


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _assert_cells_match(row, header, payload):
    """Each cell is str() of its JSON value, which for a float is repr()."""
    for column, cell in zip(header, row):
        value = payload[column]
        assert cell == (repr(value) if isinstance(value, float) else str(value))


@pytest.fixture
def corpus_files(tmp_path):
    # the one-word anchor pairs pin "a"/"x" and "b"/"y", so EM training
    # separates every source word from the NULL row
    src = _write(tmp_path / "c.src", "a b\na\nb\n")
    tgt = _write(tmp_path / "c.tgt", "x y\nx\ny\n")
    aln = _write(tmp_path / "c.aln", "0-0 1-1\n0-0\n0-0\n")
    return src, tgt, aln


_ATTN = '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": %s}\n'
_ATTN_HEAD_1 = _ATTN.replace('"head": 0', '"head": 1')
_PRED = '{"sentence_id": 0, "position": 0, "token": "a", "probability": %s}\n'


@pytest.fixture
def files(tmp_path, corpus_files):
    """The placeholder words of a run, each mapped to a path in tmp_path.

    S, T and A are `corpus_files`. K, TSV, P and J are a k-best list, a
    table, predictions and attention that runs over S and T accept, each
    at least two lines long; P flags the tokens of S's first line, so
    calibrate needs no --hyp/--ref. E.* are empty; N.aln is a blank line
    per pair of S and T; L.src / L.tgt is a one-pair corpus that EM leaves
    unlinked, since NULL wins its tie with "a". NULL.src is S with line 2
    the aligner's NULL word. OUT, OUT2 and BAD are paths that do not exist
    yet, and '' is the empty path.
    """
    src, tgt, aln = corpus_files
    pred = ('{"sentence_id": 0, "position": %d, "token": "%s", "probability": 0.5, '
            '"correct": true}\n')
    texts = {
        "K": "0 ||| x y ||| -1.0\n1 ||| x ||| -1.0\n2 ||| y ||| -1.0\n",
        "TSV": "a\tx\t1.0\nb\ty\t1.0\n",
        "P": pred % (0, "a") + pred % (1, "b"),
        "J": _ATTN % "[[1.0]]" + _ATTN_HEAD_1 % "[[1.0]]",
        "N.aln": "\n\n\n",
        "L.src": "a\n",
        "L.tgt": "x\n",
        "NULL.src": "a b\n<NULL>\nb\n",
        **{f"E.{ext}": "" for ext in ("src", "tgt", "aln", "jsonl")},
    }
    return {
        "S": src, "T": tgt, "A": aln, "''": "",
        "OUT": str(tmp_path / "out"), "OUT2": str(tmp_path / "out2"), "BAD": str(tmp_path / "bad"),
        **{word: _write(tmp_path / word, text) for word, text in texts.items()},
    }


def _argv(words, files):
    """The space-separated ``words``, each placeholder replaced by its path."""
    return [files.get(word, word) for word in words.split()]


def _refused(words, files, code):
    """Judge ``words`` over ``files``, with the directory of OUT as the
    root, assert that it exits ``code``, and return its stderr."""
    got, err = judged_run(_argv(words, files), Path(files["OUT"]).parent)
    assert got == code, err
    return err


class TestMainModule:
    """``python -m distillens`` runs ``cli.main`` in a fresh interpreter."""

    def _main(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(distillens.__file__).parent.parent)}
        return subprocess.run(
            [sys.executable, "-m", "distillens", *argv], env=env, capture_output=True, text=True
        )

    def test_attn_writes_what_run_writes(self, tmp_path):
        assert self._main(*argv("attn", tmp_path)).returncode == 0
        assert digest((tmp_path / "attn.csv").read_bytes()) == DIGESTS["attn.csv"]

    def test_no_subcommand_exits_2(self):
        result = self._main()
        assert result.returncode == 2
        assert "usage" in result.stderr


class TestExitCodes:
    def test_unknown_subcommand(self, files):
        assert "usage" in _refused("frobnicate", files, 2)

    def test_missing_required_flag(self, files):
        assert _refused("select", files, 2).endswith(
            "error: the following arguments are required: --src, --kbest, --ref, --cxty, --out\n"
        )

    def test_no_subcommand(self, files):
        assert _refused("", files, 2).endswith(
            "error: the following arguments are required: command\n"
        )

    def test_help_exits_zero(self, tmp_path, capsys):
        assert judged_run(["--help"], tmp_path)[0] == 0
        assert "align" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "words",
        ["align --src S --tgt T --out OUT --iters",
         "calibrate --preds P --out OUT --bins",
         "attn --attn J --out OUT --threads"],
        ids=["argv0", "argv1", "argv2"],
    )
    def test_count_flags_name_the_bad_value(self, files, words):
        flag = words.split()[-1]
        err = _refused(f"{words} x", files, 2)
        assert f"argument {flag}: expected an integer, got 'x'" in err
        assert "invalid" not in err
        assert f"argument {flag}: must be >= 1, got 0" in _refused(f"{words} 0", files, 2)

    def test_missing_input_file_is_io_error(self, files):
        assert _refused("attn --attn BAD --out OUT", files, 2) == (
            f"distillens: [Errno 2] No such file or directory: {files['BAD']!r}\n"
        )

    def test_domain_error_names_file(self, files):
        _write(files["BAD"], "a\nb\n")
        assert _refused("metrics --src BAD --tgt L.tgt --align A --out OUT", files, 1) == (
            f"distillens: {files['BAD']}: has 2 lines, but {files['L.tgt']} has 1\n"
        )

    def test_conditional_flag_requirements(self, files):
        for words, message in [
            ("select --kbest K --ref T --src S --cxty frs --out OUT",
             "--cxty frs requires --table"),
            ("metrics --src S --tgt T --align A --real-src S --out OUT",
             "--real-src, --real-tgt and --real-align must be given together"),
        ]:
            assert _refused(words, files, 2).endswith(f"error: {message}\n")


_TABLE_RUN = "select --kbest K --ref T --src S --cxty frs --table BAD --out OUT"

# each non-finite or out-of-range input: a run, the text of BAD (None when
# the run reads no BAD) and the message the run must print
_NON_FINITE = {
    "metrics-alpha": ("metrics --src S --tgt T --align A --alpha nan --out OUT", None,
                      "smoothing constant must be finite and > 0, got nan"),
    "kbest-logprob": ("select --kbest BAD --ref T --src S --cxty nmt --out OUT --scores OUT2",
                      "0 ||| x ||| nan\n",
                      "{BAD}: line 1: log probability must be finite and <= 0, got nan"),
    "attn-weight": ("attn --attn BAD --out OUT", _ATTN % "[[1.0, NaN]]",
                    "{BAD}: line 1: attention weight nan must be finite and >= 0"),
    "table-nan": (_TABLE_RUN, "a\tx\tnan\n",
                  "{BAD}: line 1: probability must be finite and >= 0, got nan"),
    "table-inf": (_TABLE_RUN, "a\tx\tinf\n",
                  "{BAD}: line 1: probability must be finite and >= 0, got inf"),
    "table-7": (_TABLE_RUN, "a\tx\t7\n", "{BAD}: line 1: probability must be <= 1, got 7"),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("case", sorted(_NON_FINITE))
    def test_rejected_with_no_output(self, files, case):
        words, text, message = _NON_FINITE[case]
        if text is not None:
            _write(files["BAD"], text)
        assert _refused(words, files, 1) == f"distillens: {message.format(BAD=files['BAD'])}\n"


class TestOversizedJson:
    """JSON numbers no float can hold, and nesting the parser cannot
    follow, are format errors, not tracebacks."""

    @pytest.mark.parametrize(
        "subcommand, line",
        [
            ("attn", _ATTN % f"[[{'9' * 401}]]"),
            ("calibrate", _PRED % ("9" * 401)),
            ("calibrate", _PRED % ("9" * 5001)),  # past int()'s digit limit
            ("attn", _ATTN % ("[" * 100_000 + "]" * 100_000)),
        ],
        ids=["weight-401-digits", "probability-401-digits",
             "probability-5001-digits", "nested-100k-deep"],
    )
    def test_rejected_with_no_output(self, files, subcommand, line):
        _write(files["BAD"], line)
        flag = "--attn" if subcommand == "attn" else "--preds"
        err = _refused(f"{subcommand} {flag} BAD --out OUT", files, 1)
        assert err.startswith(f"distillens: {files['BAD']}: line 1: ")


# a second Pharaoh line that does not fit pair 2 of `corpus_files` ("a" / "x"),
# and the error it must give
_BAD_LINE_2 = {
    "source-range": ("1-0", "source index out of range"),
    "target-range": ("0-1", "target index out of range"),
    "superscript-digit": ("\u00b2-1", "malformed alignment link"),
    "arabic-indic-digit": ("\u0663-0", "malformed alignment link"),
    "5000-digit-index": ("1" * 5000 + "-0", "malformed alignment link"),
}

# a run that reads BAD by each alignment flag
_ALIGNMENT_RUNS = {
    "metrics --align": "metrics --src S --tgt T --align BAD --out OUT",
    "metrics --real-align": "metrics --src S --tgt T --align A "
                            "--real-src S --real-tgt T --real-align BAD --out OUT",
    "preorder --align": "preorder --src S --tgt T --align BAD --out-src OUT --out-align OUT2",
    "report --distilled-align": "report --real-src S --real-tgt T --distilled-src S "
                                "--distilled-tgt T --real-align A --distilled-align BAD --out OUT",
}


class TestAlignmentJoin:
    """An alignment that does not fit its corpus is named by file and line,
    whichever flag it came in by."""

    @pytest.mark.parametrize(
        "flag, bad",
        [
            (flag, bad)
            for flag in ("metrics --align", "metrics --real-align",
                         "preorder --align", "report --distilled-align")
            for bad in ("source-range", "target-range")
        ]
        + [("preorder --align", bad) for bad in
           ("superscript-digit", "arabic-indic-digit", "5000-digit-index")],
    )
    def test_rejected_with_no_output(self, files, flag, bad):
        line, error = _BAD_LINE_2[bad]
        _write(files["BAD"], f"0-0 1-1\n{line}\n0-0\n")
        err = _refused(_ALIGNMENT_RUNS[flag], files, 1)
        assert err.startswith(f"distillens: {files['BAD']}: line 2: ") and error in err


class TestUndecodableInput:
    """A byte that is not UTF-8 is a format error naming the file and the
    line. The contract fuzzer puts one in every input of every bundled
    run; here a carriage return counts as the end of a line."""

    def test_carriage_return_ends_a_line(self, files):
        Path(files["BAD"]).write_bytes(b"a\rb\xff\n")
        assert _refused("align --src BAD --tgt T --out OUT --table OUT2", files, 1) == (
            f"distillens: {files['BAD']}: line 2: not valid UTF-8\n"
        )


# runs in which one input holds no records; E.* are empty files, and the
# first of them on the command line is the file the error must name
_EMPTY_RUNS = {
    "align": "align --src E.src --tgt E.tgt --out OUT",
    "metrics": "metrics --src E.src --tgt E.tgt --align E.aln --out OUT",
    "metrics-real": "metrics --src S --tgt T --align A "
    "--real-src E.src --real-tgt E.tgt --real-align E.aln --out OUT",
    "report-real": "report --real-src E.src --real-tgt E.tgt "
    "--distilled-src S --distilled-tgt T --out OUT",
    "report-distilled": "report --real-src S --real-tgt T "
    "--distilled-src E.src --distilled-tgt E.tgt --out OUT",
    "report-aligned": "report --real-src S --real-tgt T --real-align A "
    "--distilled-src E.src --distilled-tgt E.tgt --distilled-align E.aln --out OUT",
    "calibrate": "calibrate --preds E.jsonl --out OUT",
    "calibrate-fill": "calibrate --preds E.jsonl --hyp S --ref T --out OUT",
    "attn": "attn --attn E.jsonl --out OUT",
}


class TestEmptyInput:
    """An input that holds no records is a one-line error naming its file."""

    @pytest.mark.parametrize("case", sorted(_EMPTY_RUNS))
    def test_rejected_with_no_output(self, files, case):
        words = _EMPTY_RUNS[case]
        empty = files[next(word for word in words.split() if word.startswith("E."))]
        err = _refused(words, files, 1)
        assert err.startswith(f"distillens: {empty}: holds no ")
        assert err.count("\n") == 1


# runs in which one corpus's alignments hold no link (N.aln), or in which
# EM links nothing (L.src / L.tgt); the value is the file the error must name
_LINKLESS_RUNS = {
    "metrics": ("metrics --src S --tgt T --align N.aln --out OUT", "N.aln"),
    "metrics-real": ("metrics --src S --tgt T --align A "
                     "--real-src S --real-tgt T --real-align N.aln --out OUT", "N.aln"),
    "report-real": ("report --real-src S --real-tgt T --real-align N.aln "
                    "--distilled-src S --distilled-tgt T --distilled-align A --out OUT", "N.aln"),
    "report-distilled": ("report --real-src S --real-tgt T --real-align A "
                         "--distilled-src S --distilled-tgt T --distilled-align N.aln --out OUT",
                         "N.aln"),
    "report-real-em": ("report --real-src L.src --real-tgt L.tgt "
                       "--distilled-src S --distilled-tgt T --out OUT", "L.src"),
    "report-distilled-em": ("report --real-src S --real-tgt T "
                            "--distilled-src L.src --distilled-tgt L.tgt --out OUT", "L.src"),
}


class TestLinklessAlignments:
    """Alignments with no link leave every metric undefined; the error
    names the alignment file, or the source file EM trained on."""

    @pytest.mark.parametrize("case", sorted(_LINKLESS_RUNS))
    def test_rejected_with_no_output(self, files, case):
        words, named = _LINKLESS_RUNS[case]
        err = _refused(words, files, 1)
        assert err.splitlines()[-1] == f"distillens: {files[named]}: holds no alignment links"


class TestNullWord:
    """EM and the table lookups would merge a source word spelled <NULL>
    into the aligner's NULL row, so every source side the aligner reads
    refuses it before EM prints a line. TestDrawnInputs draws it as a
    target word, which no subcommand refuses."""

    @pytest.mark.parametrize("words", [
        "align --src NULL.src --tgt T --out OUT --table OUT2",
        "report --real-src NULL.src --real-tgt T --distilled-src S --distilled-tgt T --out OUT",
        "report --real-src S --real-tgt T --distilled-src NULL.src --distilled-tgt T --out OUT",
        "select --kbest K --ref T --src NULL.src --cxty frs --table TSV --out OUT",
        "select --kbest K --ref T --src NULL.src --cxty walign --table TSV --out OUT",
    ], ids=["align", "report-real", "report-distilled", "select-frs", "select-walign"])
    def test_refused_where_the_aligner_reads_it(self, files, words):
        assert _refused(words, files, 1) == (
            f"distillens: {files['NULL.src']}: line 2: "
            "the source word <NULL> is reserved for the aligner's NULL word\n"
        )


# every output flag, given the empty path; the other outputs of the run
# are real paths, and none of them may be written
_EMPTY_OUTPUT_RUNS = {
    "align --out": "align --src S --tgt T --out '' --table OUT2",
    "align --table": "align --src S --tgt T --out OUT --table ''",
    "metrics --out": "metrics --src S --tgt T --align A --out '' --csv OUT2",
    "metrics --csv": "metrics --src S --tgt T --align A --out OUT --csv ''",
    "select --out": "select --kbest K --ref T --src S --cxty nmt --out '' --scores OUT2",
    "select --scores": "select --kbest K --ref T --src S --cxty nmt --out OUT --scores ''",
    "preorder --out-src": "preorder --src S --tgt T --align A --out-src '' --out-align OUT2",
    "preorder --out-align": "preorder --src S --tgt T --align A --out-src OUT --out-align ''",
    "calibrate --out": "calibrate --preds P --out ''",
    "attn --out": "attn --attn J --out ''",
    "report --out": "report --real-src S --real-tgt T --distilled-src S --distilled-tgt T "
                    "--real-align A --distilled-align A --out '' --csv OUT2",
    "report --csv": "report --real-src S --real-tgt T --distilled-src S --distilled-tgt T "
                    "--real-align A --distilled-align A --out OUT --csv ''",
}

# every optional alignment input, given the empty path: it must fail to
# open, not read as an absent flag (TestSelect covers select --table)
_EMPTY_INPUT_RUNS = {
    "metrics --real-align": "metrics --src S --tgt T --align A --real-src S --real-tgt T "
                            "--real-align '' --out OUT",
    "report --real-align": "report --real-src S --real-tgt T --distilled-src S "
                           "--distilled-tgt T --real-align '' --distilled-align A --out OUT",
    "report --distilled-align": "report --real-src S --real-tgt T --distilled-src S "
                                "--distilled-tgt T --real-align A --distilled-align '' "
                                "--out OUT",
}


class TestEmptyPaths:
    """An empty path is a path, not an absent flag: as an output it is a
    usage error naming its flag, as an input it fails to open."""

    @pytest.mark.parametrize("case", sorted(_EMPTY_OUTPUT_RUNS))
    def test_empty_output_rejected(self, tmp_path, files, case):
        words = _EMPTY_OUTPUT_RUNS[case]
        flag = case.split()[1]
        assert _refused(words, files, 2).endswith(
            f"error: argument {flag}: output path must not be empty\n"
        )
        # the same run with a real path in place of the empty one succeeds
        files["''"] = str(tmp_path / "out3")
        assert judged_run(_argv(words, files), tmp_path)[0] == 0

    @pytest.mark.parametrize("case", sorted(_EMPTY_INPUT_RUNS))
    def test_empty_input_fails_to_open(self, files, case):
        assert _refused(_EMPTY_INPUT_RUNS[case], files, 2) == (
            "distillens: [Errno 2] No such file or directory: ''\n"
        )


# each subcommand that writes two files, given one file under two names
# (BAD); report trains alignments by EM, so a refusal must come before training
_SAME_OUTPUT_RUNS = {
    "align": "align --src S --tgt T --out OUT --table BAD",
    "metrics": "metrics --src S --tgt T --align A --out OUT --csv BAD",
    "select": "select --kbest K --ref T --src S --cxty nmt --out OUT --scores BAD",
    "preorder": "preorder --src S --tgt T --align A --out-src OUT --out-align BAD",
    "report": "report --real-src S --real-tgt T --distilled-src S --distilled-tgt T "
              "--out OUT --csv BAD",
}


class TestOutputPaths:
    """Output paths are checked before any input is read: two outputs that
    name one file, an output that is a directory, or an output in a
    directory that does not exist, are usage errors that write nothing."""

    @pytest.mark.parametrize("subcommand", sorted(_SAME_OUTPUT_RUNS))
    def test_two_outputs_naming_one_file_rejected(self, tmp_path, files, subcommand):
        files["BAD"] = os.path.join(tmp_path, ".", "out")
        words = _SAME_OUTPUT_RUNS[subcommand]
        first, second = words.split()[-4], words.split()[-2]
        err = _refused(words, files, 2)
        assert err.endswith(f"error: {first} and {second} name the same file\n")
        assert "iteration" not in err

    def test_output_may_rewrite_an_input(self, tmp_path, files):
        words = "preorder --src S --tgt T --align A --out-src S --out-align A"
        assert judged_run(_argv(words, files), tmp_path)[0] == 0
        with open(files["A"]) as fh:
            assert fh.read() == "0-0 1-1\n0-0\n0-0\n"

    @pytest.mark.parametrize("case", sorted(_EMPTY_OUTPUT_RUNS))
    def test_output_in_missing_directory_rejected(self, tmp_path, files, case):
        files["''"] = missing = str(tmp_path / "nodir" / "x")
        flag = case.split()[1]
        err = _refused(_EMPTY_OUTPUT_RUNS[case], files, 2)
        assert err.endswith(
            f"error: argument {flag}: cannot write {missing!r}: "
            f"{os.path.dirname(missing)!r} is not a directory\n"
        )
        assert "iteration" not in err and ".tmp." not in err

    @pytest.mark.parametrize("case", sorted(_EMPTY_OUTPUT_RUNS))
    def test_output_that_is_a_directory_rejected(self, tmp_path, files, case):
        files["''"] = directory = str(tmp_path / "adir")
        os.mkdir(directory)
        flag = case.split()[1]
        err = _refused(_EMPTY_OUTPUT_RUNS[case], files, 2)
        assert err.endswith(
            f"error: argument {flag}: cannot write {directory!r}: it is a directory\n"
        )
        assert "iteration" not in err and ".tmp." not in err

    @pytest.mark.parametrize("dangling", [False, True])
    def test_output_symlink_written_through(self, tmp_path, files, dangling):
        target = tmp_path / "target.csv"
        if not dangling:
            target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert judged_run(["attn", "--attn", files["J"], "--out", str(link)], tmp_path)[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "iteration,mean_confidence\n1,1.0\n"
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp.")]

    def test_output_symlink_and_its_target_name_one_file(self, tmp_path, files):
        files["BAD"] = str(tmp_path / "link")
        os.symlink(files["OUT"], files["BAD"])
        assert _refused("align --src S --tgt T --out BAD --table OUT", files, 2).endswith(
            "error: --out and --table name the same file\n"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("via_link", [False, True])
    def test_output_that_is_a_fifo_rejected(self, tmp_path, files, via_link):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        files["BAD"] = str(fifo)
        if via_link:
            files["BAD"] = str(tmp_path / "link")
            os.symlink(fifo, files["BAD"])
        assert _refused("attn --attn J --out BAD", files, 2).endswith(
            f"error: argument --out: cannot write {files['BAD']!r}: it is not a regular file\n"
        )
        assert fifo.is_fifo()

    def test_current_directory_as_output_rejected(self, tmp_path, files, monkeypatch):
        monkeypatch.chdir(tmp_path)
        err = _refused("align --src S --tgt T --iters 2 --out .", files, 2)
        assert err.endswith("error: argument --out: cannot write '.': it is a directory\n")
        assert "iteration" not in err

    @pytest.mark.parametrize("step", ["create", "rename"])
    def test_io_error_names_the_output(self, tmp_path, files, monkeypatch, step):
        """An OSError that names no file, raised as the first output's temp
        file is created or renamed into place, names that output as given."""
        def refuse(*args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        def refuse_create(file, mode="r", **kwargs):
            return refuse() if mode == "x" else open(file, mode, **kwargs)

        if step == "create":
            monkeypatch.setattr("distillens.corpus_io.open", refuse_create, raising=False)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        monkeypatch.chdir(tmp_path)
        words = "align --src S --tgt T --out a.aln --table t.tsv"
        code, err = judged_run(_argv(words, files), tmp_path)
        assert code == 2
        assert err.splitlines()[-1] == (
            f"distillens: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: 'a.aln'"
        )

    def test_file_size_limit_names_the_output(self, tmp_path):
        """A write the OS refuses names the output it was writing. The limit
        is set in the child process only, below the size of align's first
        output, so no output is renamed into place."""
        resource = pytest.importorskip("resource")

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))

        env = {**os.environ, "PYTHONPATH": str(Path(distillens.__file__).parent.parent)}
        result = subprocess.run(
            [sys.executable, "-m", "distillens", "align", "--src", f"{DATA}/real.src",
             "--tgt", f"{DATA}/real.tgt", "--out", "a.aln", "--table", "t.tsv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, preexec_fn=limit_file_size,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.splitlines()[-1] == (
            f"distillens: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: 'a.aln'"
        )
        assert list(tmp_path.iterdir()) == []


class TestAlign:
    def test_writes_alignments_and_table(self, tmp_path, corpus_files):
        src, tgt, _ = corpus_files
        out = tmp_path / "out.aln"
        table = tmp_path / "table.tsv"
        for iters in (8, 1):
            code, err = judged_run(
                ["align", "--src", src, "--tgt", tgt, "--iters", str(iters),
                 "--out", str(out), "--table", str(table)], tmp_path
            )
            assert code == 0
            assert out.read_text().splitlines() == ["0-0 1-1", "0-0", "0-0"]
            assert err.count("log-likelihood") == iters


class TestMetrics:
    def test_report_keys(self, tmp_path, corpus_files):
        src, tgt, aln = corpus_files
        out = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        code, _ = judged_run(
            ["metrics", "--src", src, "--tgt", tgt, "--align", aln,
             "--out", str(out), "--csv", str(csv_out)], tmp_path
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert {"frs", "lexical_diversity", "faithfulness"} <= set(payload)
        assert payload["frs"] == 1.0
        with open(csv_out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "corpus"
        assert len(rows) == 2

    def test_against_real_corpus(self, tmp_path, corpus_files):
        src, tgt, aln = corpus_files
        real_tgt = _write(tmp_path / "r.tgt", "p q\np\nq\n")
        out = tmp_path / "r.json"
        code, _ = judged_run(
            ["metrics", "--src", src, "--tgt", tgt, "--align", aln,
             "--real-src", src, "--real-tgt", real_tgt, "--real-align", aln,
             "--out", str(out)], tmp_path
        )
        assert code == 0
        # disjoint target vocabularies force a large divergence
        assert json.loads(out.read_text())["faithfulness"] > 1.0


class TestMetricsCsv:
    def test_metrics_cells_are_the_json_values(self, tmp_path):
        words = argv("metrics", tmp_path)
        assert judged_run(words, tmp_path)[0] == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        header, row = _csv_rows(tmp_path / "metrics.csv")
        assert row[0] == words[words.index("--src") + 1]
        assert all(isinstance(payload[column], float) for column in header[1:4])
        _assert_cells_match(row[1:], header[1:], payload)

    def test_report_cells_are_the_json_values(self, tmp_path):
        assert judged_run(argv("report", tmp_path), tmp_path)[0] == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        header, *rows = _csv_rows(tmp_path / "report.csv")
        assert [row[0] for row in rows] == ["real", "distilled"]
        for row in rows:
            _assert_cells_match(row[1:], header[1:], payload[row[0]])


# metrics and report of S / T / A against a real corpus that aligns each
# source word to itself, so the smoothed support of each word holds two
# target words, one that the distilled corpus never aligns to it
_ALPHA_RUNS = {
    "metrics": "metrics --src S --tgt T --align A --real-src S --real-tgt S --real-align A "
               "--out OUT --csv OUT2",
    "report": "report --real-src S --real-tgt S --real-align A --distilled-src S "
              "--distilled-tgt T --distilled-align A --out OUT --csv OUT2",
}


class TestExtremeAlpha:
    """An alpha that is finite and positive but overflows the smoothing
    exits 1 naming alpha, and writes nothing."""

    @pytest.mark.parametrize(
        "alpha, fault",
        [("1e308", "too large: a smoothed value is 0"),
         ("1e-320", "too small: faithfulness is inf")],
    )
    @pytest.mark.parametrize("command", ["metrics", "report"])
    def test_exits_1_and_writes_nothing(self, files, command, alpha, fault):
        assert _refused(f"{_ALPHA_RUNS[command]} --alpha {alpha}", files, 1) == (
            f"distillens: smoothing constant {float(alpha)} is {fault}\n"
        )


class TestEarlyArgumentChecks:
    @pytest.mark.parametrize("alpha", ["nan", "0"])
    def test_report_alpha_rejected_before_training(self, files, alpha):
        words = ("report --real-src S --real-tgt T --distilled-src S --distilled-tgt T "
                 f"--alpha {alpha} --out OUT --csv OUT2")
        assert _refused(words, files, 1) == (
            f"distillens: smoothing constant must be finite and > 0, got {float(alpha)}\n"
        )

    def test_select_lambda_rejected_before_reading(self, files):
        _write(files["BAD"], "a\tx\tnan\n")
        words = "select --kbest K --ref T --src S --lambda 2 --cxty walign --table BAD --out OUT"
        assert _refused(words, files, 1) == "distillens: sim_weight must be in [0, 1], got 2.0\n"


class TestSelect:
    def test_lambda_one_selects_reference_like_hypothesis(self, tmp_path):
        src = _write(tmp_path / "s", "s0\n")
        ref = _write(tmp_path / "r", "x y\n")
        kbest = _write(
            tmp_path / "k",
            "0 ||| x z ||| -0.1\n0 ||| x y ||| -3.0\n",
        )
        out = tmp_path / "sel.txt"
        scores = tmp_path / "scores.csv"
        code, _ = judged_run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--lambda", "1.0", "--cxty", "nmt",
             "--out", str(out), "--scores", str(scores)], tmp_path
        )
        assert code == 0
        assert out.read_text() == "x y\n"
        with open(scores, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["sentence_id", "rank", "sim"]
        assert len(rows) == 3
        selected = [row for row in rows[1:] if row[7] == "1"]
        assert len(selected) == 1 and selected[0][8] == "x y"

    def test_score_floats_read_back_exactly(self, tmp_path):
        assert judged_run(argv("select nmt", tmp_path), tmp_path)[0] == 0
        header, *rows = _csv_rows(tmp_path / "nmt.csv")
        assert header[2:7] == ["sim", "sim_norm", "cxty_raw", "cxty_norm", "total"]
        assert rows
        for row in rows:
            for cell in row[2:7]:
                assert repr(float(cell)) == cell

    def test_output_in_sentence_id_order(self, tmp_path):
        src = _write(tmp_path / "s", "s0\ns1\n")
        ref = _write(tmp_path / "r", "a\nb\n")
        kbest = _write(
            tmp_path / "k",
            "0 ||| a ||| -1.0\n1 ||| b ||| -1.0\n",
        )
        out = tmp_path / "sel.txt"
        code, _ = judged_run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--cxty", "nmt", "--out", str(out)], tmp_path
        )
        assert code == 0
        assert out.read_text() == "a\nb\n"

    # what select prints for a k-best list in BAD whose ids are not 0..K-1
    # with K at most the 3 lines of T and S
    _IDS = ("distillens: {BAD}: k-best sentence ids must be exactly 0..K-1 with K <= 3, "
            "the line count of {T} and {S}\n")

    def test_sentence_id_beyond_reference_file(self, files):
        _write(files["BAD"], "5 ||| a ||| -1.0\n")
        err = _refused("select --kbest BAD --ref T --src S --cxty nmt --out OUT", files, 1)
        assert err == self._IDS.format(**files)

    @pytest.mark.parametrize("ids", [[2], [0, 2], [0, 1, 2, 3]])
    def test_ids_must_be_a_prefix_of_the_lines(self, files, ids):
        _write(files["BAD"], "".join(f"{i} ||| a ||| -1.0\n" for i in ids))
        err = _refused("select --kbest BAD --ref T --src S --cxty nmt --out OUT", files, 1)
        assert err == self._IDS.format(**files)

    def test_ids_checked_before_the_table(self, files):
        _write(files["BAD"], "3 ||| a ||| -1.0\n")
        _write(files["TSV"], "a\tx\tnan\n")
        words = "select --kbest BAD --ref T --src S --cxty walign --table TSV --out OUT"
        assert _refused(words, files, 1) == self._IDS.format(**files)

    def test_table_keeps_only_the_rows_scoring_looks_up(self, tmp_path, monkeypatch):
        """walign on the bundled data stores the table lines whose source
        word is the NULL word or a --src word and whose target word is a
        hypothesis word: 208 of the 390 that align writes."""
        assert judged_run(argv("align", tmp_path), tmp_path)[0] == 0
        tables = []

        def captured(*args, **kwargs):
            tables.append(read_table(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr("distillens.cli.read_table", captured)
        assert judged_run(argv("select walign", tmp_path), tmp_path)[0] == 0
        with open(f"{DATA}/real.src", encoding="utf-8") as fh:
            sources = {NULL_TOKEN, *fh.read().split()}
        with open(f"{DATA}/demo.kbest", encoding="utf-8") as fh:
            hypotheses = {y for line in fh for y in line.split(" ||| ")[1].split()}
        lines = (tmp_path / "table.tsv").read_text(encoding="utf-8").splitlines()
        pairs = [tuple(line.split("\t")[:2]) for line in lines]
        [table] = tables
        assert {(x, y) for x, row in table.probs.items() for y in row} == {
            (x, y) for x, y in pairs if x in sources and y in hypotheses
        }
        assert sum(map(len, table.probs.values())) == 208 and len(pairs) == 390

    @pytest.mark.parametrize("kind", ["frs", "walign", "nmt"])
    def test_empty_table_path_fails_to_open(self, files, monkeypatch, kind):
        def no_scoring(*args):
            raise AssertionError("scored without a table")

        monkeypatch.setattr("distillens.cli.score_hypotheses", no_scoring)
        words = f"select --kbest K --ref T --src S --cxty {kind} --table '' --out OUT"
        assert _refused(words, files, 2) == "distillens: [Errno 2] No such file or directory: ''\n"


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child that os.fork starts in the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _fail(*args):
    raise OSError("refused for the test")


class TestSimilarityChild:
    """select with --table computes its similarities in one forked child
    while it reads the table, or in process when no child can do it;
    either way it writes the pinned bytes and leaves no child behind."""

    @staticmethod
    def _assert_pinned(name, out):
        """Run align, then the bundled run ``name``, into ``out``, and
        assert that ``name`` writes its pins."""
        for run in ("align", name):
            code, err = judged_run(argv(run, out), out)
            assert code == 0, err
        kind = name.split()[1]
        for output in (f"{kind}.out", f"{kind}.csv"):
            assert digest((out / output).read_bytes()) == DIGESTS[output], output

    @pytest.mark.parametrize("name", ["select frs", "select walign"])
    def test_child_writes_the_pins(self, tmp_path, monkeypatch, forks, name):
        """The parent scores with the child's similarities, computing none."""
        monkeypatch.setattr("distillens.selection._similarities",
                            lambda *args: pytest.fail("similarities computed in the parent"))
        self._assert_pinned(name, tmp_path)
        assert len(forks) == 1

    @pytest.mark.parametrize("name", ["select frs", "select walign"])
    @pytest.mark.parametrize("cause", ["no fork", "fork fails", "pipe fails", "thread running"])
    def test_in_process_writes_the_pins(self, tmp_path, monkeypatch, cause, name):
        """Where no child can be started, the parent computes the
        similarities; beside another thread, it does not even try."""
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if cause == "no fork":
            monkeypatch.delattr(os, "fork")
        elif cause == "thread running":
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
            thread.start()
        else:
            monkeypatch.setattr(os, cause.split()[0], _fail)
        try:
            self._assert_pinned(name, tmp_path)
        finally:
            stop.set()
        if cause == "thread running":
            thread.join(timeout=10)
            assert not thread.is_alive()

    @pytest.mark.parametrize("name", ["select frs", "select walign"])
    @pytest.mark.parametrize("failure", ["raises", "short blob"])
    def test_parent_scores_when_the_child_fails(self, tmp_path, monkeypatch, forks, failure, name):
        """A child that raises exits 1 and writes nothing; one whose blob
        is short exits 0. The parent computes the similarities itself."""
        dumps = marshal.dumps
        if failure == "raises":
            monkeypatch.setattr(marshal, "dumps", lambda value: 1 / 0)
        else:
            monkeypatch.setattr(marshal, "dumps", lambda value: dumps(value)[:-1])
        self._assert_pinned(name, tmp_path)
        assert len(forks) == 1

    @pytest.mark.parametrize("text, code, message", [
        ("a\tx\t0.5\nb\ty\t0.5\nb\tx\tnan\n", 1,
         "{BAD}: line 3: probability must be finite and >= 0, got nan"),
        (None, 2, "[Errno 2] No such file or directory: '{BAD}'"),
    ], ids=["bad line", "no file"])
    def test_refused_table_kills_the_child(self, files, forks, text, code, message):
        if text is not None:
            _write(files["BAD"], text)
        words = "select --kbest K --ref T --src S --cxty walign --table BAD --out OUT"
        assert _refused(words, files, code) == f"distillens: {message.format(**files)}\n"
        assert len(forks) == 1


class TestPreorder:
    def test_round_trip_and_fixed_point(self, tmp_path):
        src = _write(tmp_path / "s", "a b c\n")
        tgt = _write(tmp_path / "t", "x y z\n")
        aln = _write(tmp_path / "a", "0-2 1-1 2-0\n")
        out_src = tmp_path / "s2"
        out_aln = tmp_path / "a2"
        code, _ = judged_run(
            ["preorder", "--src", src, "--tgt", tgt, "--align", aln,
             "--out-src", str(out_src), "--out-align", str(out_aln)], tmp_path
        )
        assert code == 0
        assert out_src.read_text() == "c b a\n"
        assert out_aln.read_text() == "0-0 1-1 2-2\n"
        # applying the transform to its own output changes nothing
        out_src2 = tmp_path / "s3"
        out_aln2 = tmp_path / "a3"
        code, _ = judged_run(
            ["preorder", "--src", str(out_src), "--tgt", tgt,
             "--align", str(out_aln),
             "--out-src", str(out_src2), "--out-align", str(out_aln2)], tmp_path
        )
        assert code == 0
        assert out_src2.read_text() == out_src.read_text()
        assert out_aln2.read_text() == out_aln.read_text()


class TestCalibrate:
    def _preds(self, path):
        """Predictions for the tokens a x c of one sentence, with no correct
        flags."""
        lines = []
        for position, (token, prob) in enumerate(
            [("a", 0.9), ("x", 0.8), ("c", 0.3)]
        ):
            lines.append(
                json.dumps(
                    {
                        "sentence_id": 0,
                        "position": position,
                        "token": token,
                        "probability": prob,
                    },
                    sort_keys=True,
                )
            )
        return _write(path, "\n".join(lines) + "\n")

    def test_fill_from_hyp_and_ref(self, tmp_path):
        preds = self._preds(tmp_path / "p.jsonl")
        hyp = _write(tmp_path / "h", "a x c\n")
        ref = _write(tmp_path / "r", "a b c\n")
        out = tmp_path / "cal.json"
        code, err = judged_run(
            ["calibrate", "--preds", preds, "--hyp", hyp, "--ref", ref,
             "--out", str(out)], tmp_path
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["accuracy"] == pytest.approx(2 / 3)
        assert payload["n_bins"] == 10
        assert "accuracy" in err and "%" in err

    def test_bins_limit(self, tmp_path, files):
        words = "calibrate --preds P --hyp S --ref T --out OUT --bins"
        err = _refused(f"{words} {MAX_BINS + 1}", files, 2)
        assert f"--bins: must be <= {MAX_BINS}, got {MAX_BINS + 1}" in err
        for bins in (MAX_BINS, 1):
            assert judged_run(_argv(f"{words} {bins}", files), tmp_path)[0] == 0
            with open(files["OUT"]) as fh:
                assert json.load(fh)["n_bins"] == bins

    @pytest.mark.parametrize(
        "hyp_line, message",
        [
            (
                "a y c\n",
                "prediction token 'x' at sentence 0 position 1 does not match "
                "hypothesis token 'y'",
            ),
            (
                "a x\n",
                "prediction position 2 out of range for sentence 0 (2 hypothesis tokens)",
            ),
            (
                None,
                "record for sentence 0 position 0 has no correct flag; ingest one "
                "or fill it from hypothesis and reference tokens",
            ),
        ],
    )
    def test_cross_input_error_names_preds(self, tmp_path, files, hyp_line, message):
        self._preds(files["BAD"])
        words = "calibrate --preds BAD --out OUT"
        if hyp_line is not None:
            files["H"] = _write(tmp_path / "h", hyp_line)
            words += " --hyp H --ref L.tgt"
        assert _refused(words, files, 1) == f"distillens: {files['BAD']}: {message}\n"

    def test_hyp_and_ref_line_counts_must_agree(self, files):
        _write(files["BAD"], "a x c\nb\n")
        assert _refused("calibrate --preds P --hyp BAD --ref L.tgt --out OUT", files, 1) == (
            f"distillens: {files['BAD']}: has 2 lines, but {files['L.tgt']} has 1\n"
        )

    def test_hyp_requires_ref(self, files):
        assert _refused("calibrate --preds P --hyp S --out OUT", files, 2).endswith(
            "error: --hyp and --ref must be given together\n"
        )


@st.composite
def _attention_row(draw, width):
    """A row within the tolerance of summing to one: a one-hot row of JSON
    integers, or floats from integer weights, some zeros left as integers."""
    if draw(st.booleans()):
        hot = draw(st.integers(0, width - 1))
        return [int(column == hot) for column in range(width)]
    raw = draw(st.lists(st.integers(0, 1000), min_size=width, max_size=width).filter(any))
    scale = draw(st.floats(1 - 5e-5, 1 + 5e-5)) / sum(raw)
    keep_int_zeros = draw(st.booleans())
    return [0 if keep_int_zeros and w == 0 else w * scale for w in raw]


@st.composite
def _attention_record(draw):
    width = draw(st.integers(1, 5))
    return {
        "sentence_id": draw(st.integers(0, 3)),
        "iteration": draw(st.integers(1, 3)),
        "head": draw(st.integers(0, 1)),
        "weights": draw(st.lists(_attention_row(width), min_size=1, max_size=4)),
    }


def _attention_records(**size):
    """Lists of attention records in which no (sentence, iteration, head) repeats."""
    key = itemgetter("sentence_id", "iteration", "head")
    return st.lists(_attention_record(), unique_by=key, **size)


_ATTENTION_WITH_ROW = '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": [[1.0, 0.0], %s]}'
# one row per defect a row check names
_BAD_ATTENTION_ROWS = [
    '["a", 1.0]',  # not a number
    "[true, 0.0]",  # a bool
    f"[{'9' * 401}, 0]",  # an integer too large for a float
    "[1.5, -0.5]",  # negative
    "[NaN, 1.0]",  # not finite
    "[0.5, 0.6]",  # does not sum to one
    "[1.0]",  # ragged
]


class TestAttn:
    def test_curve_csv(self, tmp_path):
        lines = [
            {"sentence_id": 0, "iteration": 2, "head": 0, "weights": [[0.5, 0.5]]},
            {"sentence_id": 0, "iteration": 1, "head": 0, "weights": [[1.0, 0.0]]},
            {"sentence_id": 1, "iteration": 1, "head": 0, "weights": [[0.0, 1.0]]},
        ]
        path = _write(
            tmp_path / "a.jsonl",
            "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n",
        )
        out = tmp_path / "curve.csv"
        assert judged_run(["attn", "--attn", path, "--out", str(out)], tmp_path)[0] == 0
        assert out.read_text() == "iteration,mean_confidence\n1,1.0\n2,0.5\n"

    def test_repeated_key_refused_like_read_attention(self, files):
        # the bundled file with its first line in front of it again
        with open(bundled_data_dir() / "demo.attn.jsonl", encoding="utf-8") as fh:
            lines = fh.readlines()
        path = _write(files["BAD"], "".join([lines[0], *lines]))
        with pytest.raises(FormatError) as info:
            read_attention(path)
        assert str(info.value) == (
            f"{path}: line 2: duplicate head 0 at iteration 1 in sentence 0"
        )
        assert _refused("attn --attn BAD --out OUT", files, 1) == f"distillens: {info.value}\n"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(records=_attention_records(min_size=1, max_size=6))
    def test_curve_is_confidence_by_iteration_of_read_attention(self, tmp_path, records):
        path = _write(tmp_path / "a.jsonl", "".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "curve.csv"
        assert judged_run(["attn", "--attn", path, "--out", str(out)], tmp_path)[0] == 0
        header, *rows = _csv_rows(out)
        assert header == ["iteration", "mean_confidence"]
        # csv writes a float's repr, which reads back as the same float
        curve = [(int(iteration), float(value)) for iteration, value in rows]
        assert curve == list(confidence_by_iteration(read_attention(path)).items())

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(
        records=_attention_records(max_size=4),
        bad_row=st.sampled_from(_BAD_ATTENTION_ROWS),
        data=st.data(),
    )
    def test_bad_line_message_matches_read_attention(self, files, records, bad_row, data):
        lines = [json.dumps(r) + "\n" for r in records]
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, _ATTENTION_WITH_ROW % bad_row + "\n")
        path = _write(files["BAD"], "".join(lines))
        with pytest.raises(FormatError) as info:
            read_attention(path)
        assert str(info.value).startswith(f"{path}: line {at + 1}: ")
        assert _refused("attn --attn BAD --out OUT", files, 1) == f"distillens: {info.value}\n"

    @staticmethod
    def _traced_peak(tmp_path, rows, width):
        """tracemalloc's peak over one attn run on 480 matrices of rows x
        width weights, made from 4 random matrices. The judge's root is a
        directory of its own, so its snapshot holds no copy of the input."""
        rng = random.Random(3)
        matrices = []
        for _ in range(4):
            matrix = []
            for _ in range(rows):
                raw = [rng.random() for _ in range(width)]
                total = sum(raw)
                matrix.append([w / total for w in raw])
            matrices.append(json.dumps(matrix))
        path = _write(
            tmp_path / "a.jsonl",
            "".join(
                f'{{"sentence_id": {n // 8}, "iteration": {n % 4 + 1}, '
                f'"head": {n // 4 % 2}, "weights": {matrices[n % 4]}}}\n'
                for n in range(480)
            ),
        )
        out = tmp_path / "out"
        out.mkdir()
        tracemalloc.start()
        try:
            code, _ = judged_run(["attn", "--attn", path, "--out", str(out / "curve.csv")], out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_keeps_no_renormalized_matrix(self, tmp_path):
        """24 rows by 25 weights; a renormalized copy of every weight takes
        about 10 MB."""
        assert self._traced_peak(tmp_path, 24, 25) < 2_000_000

    def test_keeps_one_value_per_matrix(self, tmp_path):
        """96 rows by 5 weights; keeping every row's peak until the end
        takes about 1.7 MB, one confidence per matrix about 0.24 MB."""
        assert self._traced_peak(tmp_path, 96, 5) < 1_000_000


class TestReport:
    def test_side_by_side(self, tmp_path, corpus_files):
        src, tgt, aln = corpus_files
        dis_tgt = _write(tmp_path / "d.tgt", "x y\nx y\nx y\n")
        dis_src = _write(tmp_path / "d.src", "a b\na b\na b\n")
        dis_aln = _write(tmp_path / "d.aln", "0-0 1-1\n0-0 1-1\n0-0 1-1\n")
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code, _ = judged_run(
            ["report", "--real-src", src, "--real-tgt", tgt,
             "--distilled-src", dis_src, "--distilled-tgt", dis_tgt,
             "--real-align", aln, "--distilled-align", dis_aln,
             "--out", str(out), "--csv", str(csv_out)], tmp_path
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"real", "distilled"}
        assert {"frs", "lexical_diversity", "faithfulness"} <= set(payload["real"])
        with open(csv_out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ["corpus", "real", "distilled"]

    def test_self_alignment_when_no_align_given(self, tmp_path, corpus_files):
        src, tgt, _ = corpus_files
        out = tmp_path / "report.json"
        code, err = judged_run(
            ["report", "--real-src", src, "--real-tgt", tgt,
             "--distilled-src", src, "--distilled-tgt", tgt,
             "--iters", "4", "--out", str(out)], tmp_path
        )
        assert code == 0
        assert "log-likelihood" in err
        payload = json.loads(out.read_text())
        assert payload["real"]["sentence_count"] == 3


def _metrics_and_report(out, rename=str, shuffle=None):
    """Write the bundled real and distilled corpora to ``out``, every token
    through ``rename`` and, given a ``random.Random``, the sentences of each
    corpus shuffled by it (alignment lines move with their pairs). Then run
    ``metrics`` on each corpus against the other and ``report`` with EM,
    and return each output file's bytes and report's stderr by name."""
    data = bundled_data_dir()
    out.mkdir()
    for corpus in ("real", "distilled"):
        src, tgt, aln = (
            (data / f"{corpus}.{ext}").read_text().splitlines() for ext in ("src", "tgt", "aln")
        )
        order = list(range(len(src)))
        if shuffle is not None:
            shuffle.shuffle(order)
        for ext, lines in (("src", src), ("tgt", tgt)):
            text = "".join(" ".join(map(rename, lines[k].split())) + "\n" for k in order)
            (out / f"{corpus}.{ext}").write_text(text)
        (out / f"{corpus}.aln").write_text("".join(aln[k] + "\n" for k in order))
    for corpus, other in (("real", "distilled"), ("distilled", "real")):
        argv = (
            f"metrics --src {out}/{corpus}.src --tgt {out}/{corpus}.tgt --align {out}/{corpus}.aln "
            f"--real-src {out}/{other}.src --real-tgt {out}/{other}.tgt "
            f"--real-align {out}/{other}.aln --out {out}/{corpus}.json"
        )
        assert judged_run(argv.split(), out)[0] == 0
    argv = (
        f"report --real-src {out}/real.src --real-tgt {out}/real.tgt "
        f"--distilled-src {out}/distilled.src --distilled-tgt {out}/distilled.tgt "
        f"--iters 4 --out {out}/report.json"
    )
    code, err = judged_run(argv.split(), out)
    assert code == 0
    names = ("real.json", "distilled.json", "report.json")
    return {**{name: (out / name).read_bytes() for name in names}, "report stderr": err}


class TestMetamorphic:
    """Relations between runs on the bundled corpora and on transformed copies."""

    def test_renaming_every_token_changes_no_byte(self, tmp_path):
        # reversed, prefixed and suffixed: one-to-one, and never NULL_TOKEN
        renamed = _metrics_and_report(tmp_path / "renamed", lambda token: f"w{token[::-1]}_")
        assert renamed == _metrics_and_report(tmp_path / "plain")

    def test_sentence_order_moves_values_only_in_the_last_digits(self, tmp_path):
        shuffled = _metrics_and_report(tmp_path / "shuffled", shuffle=random.Random(5))
        plain = _metrics_and_report(tmp_path / "plain")

        def values(outputs):
            report = json.loads(outputs["report.json"])
            assert list(report) == ["distilled", "real"]
            return [json.loads(outputs["real.json"]), json.loads(outputs["distilled.json"]),
                    report["distilled"], report["real"]]

        # FRS sums over sentences, and lexical diversity and faithfulness over
        # source words in order of first appearance, so the floats may move:
        # here real's FRS reads 0.21312499999999998 against 0.21312500000000004
        for got, expected in zip(values(shuffled), values(plain)):
            assert got == pytest.approx(expected, rel=1e-12, abs=0)


@st.composite
def _tiny_inputs(draw):
    """A tiny parallel corpus, with <NULL> among its target words; k-best
    lists for its first K pairs; drawn hypothesis lines, line-parallel
    with its targets, with predictions at some of their positions; and
    key-unique attention records, at least one. Returns each file's lines
    by its path under the workload directories, and an EM round count."""
    src_words = st.sampled_from("abcd"[: draw(st.integers(2, 4))])
    tgt_words = st.sampled_from(("w", "x", "y", "<NULL>")[: draw(st.integers(2, 4))])
    size = draw(st.integers(1, 6))

    def lines(words):
        line = st.lists(words, min_size=1, max_size=6).map(" ".join)
        return draw(st.lists(line, min_size=size, max_size=size))

    src, tgt, hyp = lines(src_words), lines(tgt_words), lines(tgt_words)
    hypotheses = st.lists(st.lists(tgt_words, min_size=1, max_size=6), min_size=1, max_size=4)
    lists = draw(st.integers(1, size))
    kbest = [
        f"{sentence_id} ||| {' '.join(tokens)} ||| {draw(st.sampled_from([-3.0, -0.5]))}"
        for sentence_id in range(lists)
        for tokens in draw(hypotheses)
    ]
    predictions = []
    for sentence_id, line in enumerate(hyp):
        for position, token in enumerate(line.split()):
            if draw(st.booleans()):
                record = {"sentence_id": sentence_id, "position": position, "token": token,
                          "probability": draw(st.floats(0.0, 1.0))}
                correct = draw(st.sampled_from([None, True, False]))
                if correct is not None:
                    record["correct"] = correct
                predictions.append(json.dumps(record))
    attention = [json.dumps(record) for record in draw(_attention_records(min_size=1, max_size=4))]
    iterations = draw(st.integers(1, 3))
    return {
        "align-zipf/in/src.txt": src, "align-zipf/in/tgt.txt": tgt,
        # one source and reference line per k-best list, as in the benchmark
        "select-kbest/in/src.txt": src[:lists], "select-kbest/in/ref.txt": tgt[:lists],
        "select-kbest/in/kbest.txt": kbest,
        "calib-long/in/preds.jsonl": predictions, "calib-long/in/attn.jsonl": attention,
        "calib-long/in/hyp.txt": hyp, "calib-long/in/ref.txt": tgt,
    }, str(iterations)


class TestDrawnInputs:
    """Every subcommand on tiny drawn valid inputs passes the judge, and
    exits 0, or 1 naming one of the files it reads. The inputs go under
    the benchmark's file names, one directory per workload, and every
    invocation of perfbench/workloads.py runs on them, then the runs the
    benchmark does not make. After exit 0 each run's outputs keep the
    invariants perfbench/check.py holds for the benchmark run it is
    named after; report, which the benchmark never runs, keeps its own."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=60,
              deadline=None)
    @given(drawn=_tiny_inputs())
    def test_every_subcommand(self, tmp_path, drawn):
        files, iterations = drawn
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        dirs = {name: prepare_dirs(str(root / name)) for name in WORKLOADS}
        for path, lines in files.items():
            _write(root / path, "".join(line + "\n" for line in lines))

        def judge(name, argv, in_dir=None, out_dir=None):
            """Run argv and return its exit code; given the directories,
            check its outputs as the benchmark run called name."""
            argv = list(map(str, argv))
            code, err = judged_run(argv, root, [arg for arg in argv if os.path.isfile(arg)])
            # EM may link no word (metrics, report) or no prediction be drawn (calibrate)
            assert code == 0 or (code == 1 and name in ("metrics", "report", "calibrate")), err
            if code == 0 and in_dir is not None:
                assert check.check_invocation(name, in_dir, out_dir, err) == []
            return code

        zipf, kbest, calib = (root / name for name in ("align-zipf", "select-kbest", "calib-long"))
        for workload in WORKLOADS.values():
            in_dir, out_dir = dirs[workload.name]
            for invocation in workload.invocations:
                judge(invocation.name, invocation.argv(in_dir, out_dir), in_dir, out_dir)
                if invocation.name == "align":  # in place of the generated gold and table
                    (zipf / "in/gold.aln").write_bytes((zipf / "out/align.aln").read_bytes())
                    (kbest / "in/table.tsv").write_bytes((zipf / "out/table.tsv").read_bytes())

        # then the runs the benchmark does not make, writing to root
        src, tgt = zipf / "in/src.txt", zipf / "in/tgt.txt"
        judge("metrics", ["metrics", "--src", src, "--tgt", tgt, "--align", zipf / "out/align.aln",
                          "--out", root / "metrics.json"], zipf / "in", root)
        # on all n source and reference lines, so K < n is drawn too
        judge("select_walign", ["select", "--kbest", kbest / "in/kbest.txt", "--ref", tgt,
                                "--src", src, "--cxty", "frs", "--table", kbest / "in/table.tsv",
                                "--out", root / "select_walign.txt",
                                "--scores", root / "scores.csv"], kbest / "in", root)
        judge("calibrate", ["calibrate", "--preds", calib / "in/preds.jsonl",
                            "--out", root / "calibrate.json"], calib / "in", root)
        if judge("report", ["report", "--real-src", src, "--real-tgt", tgt, "--distilled-tgt", tgt,
                            "--distilled-src", zipf / "out/preorder.src",
                            "--iters", iterations, "--out", root / "report.json"]) == 0:
            assert sorted(json.loads((root / "report.json").read_text())) == ["distilled", "real"]
