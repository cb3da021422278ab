"""End-to-end subcommand behaviour through the public entry point."""

import csv
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import distillens
from distillens import FormatError, bundled_data_dir, confidence_by_iteration, read_attention
from distillens.calibration import MAX_BINS
from distillens.cli import run


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


class TestMainModule:
    """``python -m distillens`` runs ``cli.main`` in a fresh interpreter."""

    def _main(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(distillens.__file__).parent.parent)}
        return subprocess.run(
            [sys.executable, "-m", "distillens", *argv], env=env, capture_output=True, text=True
        )

    def test_attn_writes_what_run_writes(self, tmp_path):
        attn = str(bundled_data_dir() / "demo.attn.jsonl")
        result = self._main("attn", "--attn", attn, "--out", str(tmp_path / "main.csv"))
        assert result.returncode == 0
        assert run(["attn", "--attn", attn, "--out", str(tmp_path / "run.csv")]) == 0
        assert (tmp_path / "main.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()

    def test_no_subcommand_exits_2(self):
        result = self._main()
        assert result.returncode == 2
        assert "usage" in result.stderr


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["select"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "align" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["align", "--src", "s", "--tgt", "t", "--out", "o", "--iters"],
            ["calibrate", "--preds", "p", "--out", "o", "--bins"],
            ["attn", "--attn", "a", "--out", "o", "--threads"],
        ],
    )
    def test_count_flags_name_the_bad_value(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["x"]) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: expected an integer, got 'x'" in err
        assert "invalid" not in err
        assert run(argv + ["0"]) == 2
        assert f"argument {argv[-1]}: must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        out = str(tmp_path / "curve.csv")
        assert run(["attn", "--attn", str(tmp_path / "nope"), "--out", out]) == 2
        capsys.readouterr()

    def test_domain_error_names_file(self, tmp_path, capsys):
        src = _write(tmp_path / "s", "a\nb\n")
        tgt = _write(tmp_path / "t", "x\n")
        out = str(tmp_path / "o.json")
        aln = _write(tmp_path / "a.aln", "0-0\n")
        assert run(["metrics", "--src", src, "--tgt", tgt, "--align", aln, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "2" in err and "1" in err

    def test_conditional_flag_requirements(self, tmp_path, capsys, corpus_files):
        src, tgt, aln = corpus_files
        kbest = _write(tmp_path / "k", "0 ||| x y ||| -1.0\n")
        out = str(tmp_path / "sel.txt")
        code = run(
            ["select", "--kbest", kbest, "--ref", tgt, "--src", src,
             "--cxty", "frs", "--out", out]
        )
        assert code == 2
        code = run(
            ["metrics", "--src", src, "--tgt", tgt, "--align", aln,
             "--real-src", src, "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        capsys.readouterr()


# each non-finite or out-of-range input and the stderr text that must name it
_NON_FINITE = {
    "metrics-alpha": "smoothing constant",
    "kbest-logprob": "k: line 1: ",
    "attn-weight": "a.jsonl: line 1: ",
    "table-nan": "t.tsv: line 1: ",
    "table-inf": "t.tsv: line 1: ",
    "table-7": "t.tsv: line 1: probability must be <= 1, got 7",
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("case", sorted(_NON_FINITE))
    def test_rejected_with_no_output(self, tmp_path, capsys, corpus_files, case):
        src, tgt, aln = corpus_files
        out = str(tmp_path / "out")
        select = ["select", "--ref", tgt, "--src", src, "--out", out]
        if case == "metrics-alpha":
            argv = ["metrics", "--src", src, "--tgt", tgt, "--align", aln,
                    "--alpha", "nan", "--out", out]
        elif case == "kbest-logprob":
            kbest = _write(tmp_path / "k", "0 ||| x ||| nan\n")
            argv = select + ["--kbest", kbest, "--cxty", "nmt",
                             "--scores", str(tmp_path / "scores.csv")]
        elif case == "attn-weight":
            attn = _write(
                tmp_path / "a.jsonl",
                '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": [[1.0, NaN]]}\n',
            )
            argv = ["attn", "--attn", attn, "--out", out]
        else:
            table = _write(tmp_path / "t.tsv", f"a\tx\t{case.split('-')[1]}\n")
            kbest = _write(tmp_path / "k", "0 ||| x ||| -1.0\n")
            argv = select + ["--kbest", kbest, "--cxty", "frs", "--table", table]
        inputs = set(tmp_path.iterdir())
        assert run(argv) == 1
        assert _NON_FINITE[case] in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == inputs


_ATTN = '{"sentence_id": 0, "iteration": 1, "head": 0, "weights": %s}\n'
_PRED = '{"sentence_id": 0, "position": 0, "token": "a", "probability": %s}\n'


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
    def test_rejected_with_no_output(self, tmp_path, capsys, subcommand, line):
        path = _write(tmp_path / "in.jsonl", line)
        flag = "--attn" if subcommand == "attn" else "--preds"
        inputs = set(tmp_path.iterdir())
        assert run([subcommand, flag, path, "--out", str(tmp_path / "out")]) == 1
        assert "in.jsonl: line 1: " in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == inputs


# a second Pharaoh line that does not fit pair 2 of `corpus_files` ("a" / "x"),
# and the error it must give
_BAD_LINE_2 = {
    "source-range": ("1-0", "source index out of range"),
    "target-range": ("0-1", "target index out of range"),
    "superscript-digit": ("\u00b2-1", "malformed alignment link"),
    "arabic-indic-digit": ("\u0663-0", "malformed alignment link"),
    "5000-digit-index": ("1" * 5000 + "-0", "malformed alignment link"),
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
    def test_rejected_with_no_output(self, tmp_path, capsys, corpus_files, flag, bad):
        src, tgt, aln = corpus_files
        line, error = _BAD_LINE_2[bad]
        bad_aln = _write(tmp_path / "bad.aln", f"0-0 1-1\n{line}\n0-0\n")
        out = str(tmp_path / "out")
        argv = {
            "metrics --align": ["metrics", "--src", src, "--tgt", tgt, "--align", bad_aln,
                                "--out", out],
            "metrics --real-align": ["metrics", "--src", src, "--tgt", tgt, "--align", aln,
                                     "--real-src", src, "--real-tgt", tgt,
                                     "--real-align", bad_aln, "--out", out],
            "preorder --align": ["preorder", "--src", src, "--tgt", tgt, "--align", bad_aln,
                                 "--out-src", out, "--out-align", out + ".aln"],
            "report --distilled-align": ["report", "--real-src", src, "--real-tgt", tgt,
                                         "--distilled-src", src, "--distilled-tgt", tgt,
                                         "--real-align", aln, "--distilled-align", bad_aln,
                                         "--out", out],
        }[flag]
        inputs = set(tmp_path.iterdir())
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"{bad_aln}: line 2: " in err and error in err
        assert set(tmp_path.iterdir()) == inputs


# each subcommand's input flags, and the rest of a run that succeeds on
# `utf8_inputs`; OUT stands for an output path
_RUNS = {
    "align": (["--src", "--tgt"], ["--out", "OUT", "--table", "OUT.tsv"]),
    "metrics": (["--src", "--tgt", "--align"], ["--out", "OUT"]),
    "select": (
        ["--kbest", "--ref", "--src", "--table"],
        ["--cxty", "frs", "--out", "OUT", "--scores", "OUT.csv"],
    ),
    "preorder": (["--src", "--tgt", "--align"], ["--out-src", "OUT", "--out-align", "OUT.aln"]),
    "calibrate": (["--preds", "--hyp", "--ref"], ["--out", "OUT"]),
    "attn": (["--attn"], ["--out", "OUT"]),
}


@pytest.fixture
def utf8_inputs(tmp_path, corpus_files):
    """A valid file for every input flag, each at least two lines long."""
    src, tgt, aln = corpus_files
    pred = '{"sentence_id": 0, "position": %d, "token": "%s", "probability": 0.5}\n'
    return {
        "--src": src,
        "--tgt": tgt,
        "--align": aln,
        "--ref": tgt,
        "--hyp": src,
        "--kbest": _write(tmp_path / "k", "0 ||| x y ||| -1.0\n1 ||| x ||| -0.5\n"),
        "--table": _write(tmp_path / "t.tsv", "a\tx\t1.0\nb\ty\t1.0\n"),
        "--preds": _write(tmp_path / "p.jsonl", pred % (0, "a") + pred % (1, "b")),
        "--attn": _write(tmp_path / "a.jsonl", _ATTN % "[[1.0]]" * 2),
    }


def _argv(subcommand, files, out):
    flags, rest = _RUNS[subcommand]
    return (
        [subcommand]
        + [arg for flag in flags for arg in (flag, files[flag])]
        + [arg.replace("OUT", out) for arg in rest]
    )


class TestUndecodableInput:
    """A byte that is not UTF-8 is a format error naming the file and the
    line, whichever flag the file came in by."""

    @pytest.mark.parametrize(
        "subcommand, flag",
        [(subcommand, flag) for subcommand, (flags, _) in _RUNS.items() for flag in flags],
        ids=[f"{subcommand} {flag}" for subcommand, (flags, _) in _RUNS.items() for flag in flags],
    )
    def test_rejected_with_no_output(self, tmp_path, capsys, utf8_inputs, subcommand, flag):
        with open(utf8_inputs[flag], "rb") as fh:
            first, rest = fh.read().split(b"\n", 1)
        bad = tmp_path / "bad"
        bad.write_bytes(first + b"\n\xff" + rest)
        out = str(tmp_path / "out")
        inputs = set(tmp_path.iterdir())
        assert run(_argv(subcommand, {**utf8_inputs, flag: str(bad)}, out)) == 1
        assert capsys.readouterr().err == f"distillens: {bad}: line 2: not valid UTF-8\n"
        assert set(tmp_path.iterdir()) == inputs
        assert run(_argv(subcommand, utf8_inputs, out)) == 0
        capsys.readouterr()

    def test_carriage_return_ends_a_line(self, tmp_path, capsys, utf8_inputs):
        bad = tmp_path / "bad"
        bad.write_bytes(b"a\rb\xff\n")
        out = str(tmp_path / "out")
        inputs = set(tmp_path.iterdir())
        assert run(_argv("align", {**utf8_inputs, "--src": str(bad)}, out)) == 1
        assert capsys.readouterr().err == f"distillens: {bad}: line 2: not valid UTF-8\n"
        assert set(tmp_path.iterdir()) == inputs


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
    def test_rejected_with_no_output(self, tmp_path, capsys, corpus_files, case):
        src, tgt, aln = corpus_files
        files = {"S": src, "T": tgt, "A": aln, "OUT": str(tmp_path / "out")}
        for name in ("E.src", "E.tgt", "E.aln", "E.jsonl"):
            files[name] = _write(tmp_path / name, "")
        words = _EMPTY_RUNS[case].split()
        empty = files[next(word for word in words if word.startswith("E."))]
        inputs = set(tmp_path.iterdir())
        assert run([files.get(word, word) for word in words]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"distillens: {empty}: holds no ")
        assert err.count("\n") == 1
        assert set(tmp_path.iterdir()) == inputs


# runs in which one corpus's alignments hold no link: N.aln is a blank
# line per pair of `corpus_files`, and EM leaves the one-pair corpus
# L.src / L.tgt unlinked, since NULL wins its tie with "a"; the value is
# the file the error must name
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
    def test_rejected_with_no_output(self, tmp_path, capsys, corpus_files, case):
        src, tgt, aln = corpus_files
        files = {"S": src, "T": tgt, "A": aln, "OUT": str(tmp_path / "out"),
                 "N.aln": _write(tmp_path / "N.aln", "\n\n\n"),
                 "L.src": _write(tmp_path / "L.src", "a\n"),
                 "L.tgt": _write(tmp_path / "L.tgt", "x\n")}
        words, named = _LINKLESS_RUNS[case]
        inputs = set(tmp_path.iterdir())
        assert run([files.get(word, word) for word in words.split()]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"distillens: {files[named]}: holds no alignment links"
        assert set(tmp_path.iterdir()) == inputs


# every output flag, given the empty path; the other outputs of the run
# are real paths, and none of them may be written
_EMPTY_OUTPUT_RUNS = {
    "align --out": "align --src S --tgt T --out '' --table OUT2",
    "align --table": "align --src S --tgt T --out OUT --table ''",
    "metrics --out": "metrics --src S --tgt T --align A --out '' --csv OUT2",
    "metrics --csv": "metrics --src S --tgt T --align A --out OUT --csv ''",
    "select --out": "select --kbest K --ref R --src S --cxty nmt --out '' --scores OUT2",
    "select --scores": "select --kbest K --ref R --src S --cxty nmt --out OUT --scores ''",
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


@pytest.fixture
def files(tmp_path, corpus_files):
    """The words of the run tables above, mapped to paths."""
    src, tgt, aln = corpus_files
    preds = {"sentence_id": 0, "position": 0, "token": "x", "probability": 0.5,
             "correct": True}
    attn = {"sentence_id": 0, "iteration": 1, "head": 0, "weights": [[1.0]]}
    return {
        "S": src, "T": tgt, "A": aln, "''": "",
        "OUT": str(tmp_path / "out"), "OUT2": str(tmp_path / "out2"),
        "K": _write(tmp_path / "k", "0 ||| x y ||| -1.0\n1 ||| x ||| -1.0\n"
                    "2 ||| y ||| -1.0\n"),
        "R": _write(tmp_path / "r", "x y\nx\ny\n"),
        "P": _write(tmp_path / "p.jsonl", json.dumps(preds) + "\n"),
        "J": _write(tmp_path / "a.jsonl", json.dumps(attn) + "\n"),
    }


class TestEmptyPaths:
    """An empty path is a path, not an absent flag: as an output it is a
    usage error naming its flag, as an input it fails to open."""

    @pytest.mark.parametrize("case", sorted(_EMPTY_OUTPUT_RUNS))
    def test_empty_output_rejected(self, tmp_path, capsys, files, case):
        words = _EMPTY_OUTPUT_RUNS[case].split()
        inputs = set(tmp_path.iterdir())
        assert run([files.get(word, word) for word in words]) == 2
        flag = case.split()[1]
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: output path must not be empty\n")
        assert set(tmp_path.iterdir()) == inputs
        # the same run with a real path in place of the empty one succeeds
        files["''"] = str(tmp_path / "out3")
        assert run([files.get(word, word) for word in words]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("case", sorted(_EMPTY_INPUT_RUNS))
    def test_empty_input_fails_to_open(self, tmp_path, capsys, files, case):
        words = _EMPTY_INPUT_RUNS[case].split()
        inputs = set(tmp_path.iterdir())
        assert run([files.get(word, word) for word in words]) == 2
        assert capsys.readouterr().err == "distillens: [Errno 2] No such file or directory: ''\n"
        assert set(tmp_path.iterdir()) == inputs


# each subcommand that writes two files, given one file under two names;
# report trains alignments by EM, so a refusal must come before training
_SAME_OUTPUT_RUNS = {
    "align": "align --src S --tgt T --out OUT --table SAME",
    "metrics": "metrics --src S --tgt T --align A --out OUT --csv SAME",
    "select": "select --kbest K --ref R --src S --cxty nmt --out OUT --scores SAME",
    "preorder": "preorder --src S --tgt T --align A --out-src OUT --out-align SAME",
    "report": "report --real-src S --real-tgt T --distilled-src S --distilled-tgt T "
              "--out OUT --csv SAME",
}


class TestOutputPaths:
    """Output paths are checked before any input is read: two outputs that
    name one file, an output that is a directory, or an output in a
    directory that does not exist, are usage errors that write nothing."""

    @pytest.mark.parametrize("subcommand", sorted(_SAME_OUTPUT_RUNS))
    def test_two_outputs_naming_one_file_rejected(self, tmp_path, capsys, files, subcommand):
        files["SAME"] = os.path.join(tmp_path, ".", "out")
        words = _SAME_OUTPUT_RUNS[subcommand].split()
        inputs = set(tmp_path.iterdir())
        assert run([files.get(word, word) for word in words]) == 2
        first, second = words[-4], words[-2]
        err = capsys.readouterr().err
        assert err.endswith(f"error: {first} and {second} name the same file\n")
        assert "iteration" not in err
        assert set(tmp_path.iterdir()) == inputs

    def test_output_may_rewrite_an_input(self, files):
        argv = ["preorder", "--src", files["S"], "--tgt", files["T"], "--align", files["A"],
                "--out-src", files["S"], "--out-align", files["A"]]
        assert run(argv) == 0
        with open(files["A"]) as fh:
            assert fh.read() == "0-0 1-1\n0-0\n0-0\n"

    @pytest.mark.parametrize("case", sorted(_EMPTY_OUTPUT_RUNS))
    def test_output_in_missing_directory_rejected(self, tmp_path, capsys, files, case):
        files["''"] = missing = str(tmp_path / "nodir" / "x")
        words = _EMPTY_OUTPUT_RUNS[case].split()
        inputs = set(tmp_path.iterdir())
        assert run([files.get(word, word) for word in words]) == 2
        flag = case.split()[1]
        err = capsys.readouterr().err
        assert err.endswith(
            f"error: argument {flag}: cannot write {missing!r}: "
            f"{os.path.dirname(missing)!r} is not a directory\n"
        )
        assert "iteration" not in err and ".tmp." not in err
        assert set(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("case", sorted(_EMPTY_OUTPUT_RUNS))
    def test_output_that_is_a_directory_rejected(self, tmp_path, capsys, files, case):
        files["''"] = directory = str(tmp_path / "adir")
        os.mkdir(directory)
        words = _EMPTY_OUTPUT_RUNS[case].split()
        inputs = set(tmp_path.iterdir())
        assert run([files.get(word, word) for word in words]) == 2
        flag = case.split()[1]
        err = capsys.readouterr().err
        assert err.endswith(
            f"error: argument {flag}: cannot write {directory!r}: it is a directory\n"
        )
        assert "iteration" not in err and ".tmp." not in err
        assert set(tmp_path.iterdir()) == inputs
        assert os.listdir(directory) == []

    def test_current_directory_as_output_rejected(self, tmp_path, capsys, files, monkeypatch):
        monkeypatch.chdir(tmp_path)
        inputs = set(tmp_path.iterdir())
        argv = ["align", "--src", files["S"], "--tgt", files["T"], "--iters", "2", "--out", "."]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --out: cannot write '.': it is a directory\n")
        assert "iteration" not in err
        assert set(tmp_path.iterdir()) == inputs


class TestAlign:
    def test_writes_alignments_and_table(self, tmp_path, corpus_files, capsys):
        src, tgt, _ = corpus_files
        out = tmp_path / "out.aln"
        table = tmp_path / "table.tsv"
        code = run(
            ["align", "--src", src, "--tgt", tgt, "--iters", "8",
             "--out", str(out), "--table", str(table)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines == ["0-0 1-1", "0-0", "0-0"]
        rows = [line.split("\t") for line in table.read_text().splitlines()]
        assert all(len(row) == 3 for row in rows)
        assert "log-likelihood" in capsys.readouterr().err


class TestMetrics:
    def test_report_keys(self, tmp_path, corpus_files):
        src, tgt, aln = corpus_files
        out = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        code = run(
            ["metrics", "--src", src, "--tgt", tgt, "--align", aln,
             "--out", str(out), "--csv", str(csv_out)]
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
        code = run(
            ["metrics", "--src", src, "--tgt", tgt, "--align", aln,
             "--real-src", src, "--real-tgt", real_tgt, "--real-align", aln,
             "--out", str(out)]
        )
        assert code == 0
        # disjoint target vocabularies force a large divergence
        assert json.loads(out.read_text())["faithfulness"] > 1.0


class TestMetricsCsv:
    def test_metrics_cells_are_the_json_values(self, tmp_path):
        data = bundled_data_dir()
        out, csv_out = tmp_path / "m.json", tmp_path / "m.csv"
        code = run(
            ["metrics", "--src", str(data / "distilled.src"),
             "--tgt", str(data / "distilled.tgt"),
             "--align", str(data / "distilled.aln"),
             "--real-src", str(data / "real.src"), "--real-tgt", str(data / "real.tgt"),
             "--real-align", str(data / "real.aln"),
             "--out", str(out), "--csv", str(csv_out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        header, row = _csv_rows(csv_out)
        assert row[0] == str(data / "distilled.src")
        assert all(isinstance(payload[column], float) for column in header[1:4])
        _assert_cells_match(row[1:], header[1:], payload)

    def test_report_cells_are_the_json_values(self, tmp_path):
        data = bundled_data_dir()
        out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
        code = run(
            ["report", "--real-src", str(data / "real.src"),
             "--real-tgt", str(data / "real.tgt"), "--real-align", str(data / "real.aln"),
             "--distilled-src", str(data / "distilled.src"),
             "--distilled-tgt", str(data / "distilled.tgt"),
             "--distilled-align", str(data / "distilled.aln"),
             "--out", str(out), "--csv", str(csv_out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        header, *rows = _csv_rows(csv_out)
        assert [row[0] for row in rows] == ["real", "distilled"]
        for row in rows:
            _assert_cells_match(row[1:], header[1:], payload[row[0]])


class TestExtremeAlpha:
    """An alpha that is finite and positive but overflows the smoothing
    exits 1 naming alpha, and writes nothing."""

    @pytest.mark.parametrize(
        "alpha, fault",
        [("1e308", "too large: a smoothed value is 0"),
         ("1e-320", "too small: faithfulness is inf")],
    )
    @pytest.mark.parametrize("command", ["metrics", "report"])
    def test_exits_1_and_writes_nothing(self, tmp_path, capsys, command, alpha, fault):
        data = bundled_data_dir()
        real = ["--real-src", str(data / "real.src"), "--real-tgt", str(data / "real.tgt"),
                "--real-align", str(data / "real.aln")]
        distilled = [str(data / f"distilled.{ext}") for ext in ("src", "tgt", "aln")]
        if command == "metrics":
            flags = ["--src", "--tgt", "--align"]
        else:
            flags = ["--distilled-src", "--distilled-tgt", "--distilled-align"]
        argv = [command, *real, *(word for pair in zip(flags, distilled) for word in pair),
                "--alpha", alpha, "--out", str(tmp_path / "o.json"),
                "--csv", str(tmp_path / "o.csv")]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"distillens: smoothing constant {float(alpha)} is {fault}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestEarlyArgumentChecks:
    @pytest.mark.parametrize("alpha", ["nan", "0"])
    def test_report_alpha_rejected_before_training(self, tmp_path, capsys, corpus_files, alpha):
        src, tgt, _ = corpus_files
        out = tmp_path / "report.json"
        code = run(
            ["report", "--real-src", src, "--real-tgt", tgt,
             "--distilled-src", src, "--distilled-tgt", tgt,
             "--alpha", alpha, "--out", str(out), "--csv", str(tmp_path / "r.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"distillens: smoothing constant must be finite and > 0, got {float(alpha)}\n"
        )
        assert not out.exists() and not (tmp_path / "r.csv").exists()

    def test_select_lambda_rejected_before_reading(self, tmp_path, capsys):
        src = _write(tmp_path / "s", "a\n")
        ref = _write(tmp_path / "r", "x\n")
        kbest = _write(tmp_path / "k", "0 ||| x ||| -1.0\n")
        table = _write(tmp_path / "t.tsv", "a\tx\tnan\n")
        out = tmp_path / "sel.txt"
        code = run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--lambda", "2", "--cxty", "walign", "--table", table, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "distillens: sim_weight must be in [0, 1], got 2.0\n"
        assert not out.exists()


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
        code = run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--lambda", "1.0", "--cxty", "nmt",
             "--out", str(out), "--scores", str(scores)]
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
        data = bundled_data_dir()
        scores = tmp_path / "scores.csv"
        code = run(
            ["select", "--kbest", str(data / "demo.kbest"), "--ref", str(data / "demo.ref"),
             "--src", str(data / "demo.hyp"), "--lambda", "0.3", "--cxty", "nmt",
             "--out", str(tmp_path / "sel.txt"), "--scores", str(scores)]
        )
        assert code == 0
        header, *rows = _csv_rows(scores)
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
        code = run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--cxty", "nmt", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "a\nb\n"

    def test_sentence_id_beyond_reference_file(self, tmp_path, capsys):
        src = _write(tmp_path / "s", "s0\n")
        ref = _write(tmp_path / "r", "a\n")
        kbest = _write(tmp_path / "k", "5 ||| a ||| -1.0\n")
        code = run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--cxty", "nmt", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("ids", [[2], [0, 2], [0, 1, 2, 3]])
    def test_ids_must_be_a_prefix_of_the_lines(self, tmp_path, capsys, ids):
        src = _write(tmp_path / "s", "s0\ns1\ns2\n")
        ref = _write(tmp_path / "r", "a\nb\nc\n")
        kbest = _write(tmp_path / "k", "".join(f"{i} ||| a ||| -1.0\n" for i in ids))
        out = tmp_path / "sel.txt"
        code = run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--cxty", "nmt", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert "0..K-1" in capsys.readouterr().err

    def test_ids_checked_before_the_table(self, tmp_path, capsys):
        src = _write(tmp_path / "s", "s0\n")
        ref = _write(tmp_path / "r", "a\n")
        kbest = _write(tmp_path / "k", "3 ||| a ||| -1.0\n")
        table = _write(tmp_path / "t.tsv", "s0\ta\tnan\n")
        out = tmp_path / "sel.txt"
        code = run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--cxty", "walign", "--table", table, "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"distillens: {kbest}: k-best sentence ids ")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["frs", "walign", "nmt"])
    def test_empty_table_path_fails_to_open(self, tmp_path, capsys, monkeypatch, kind):
        def no_scoring(*args):
            raise AssertionError("scored without a table")

        monkeypatch.setattr("distillens.cli.score_hypotheses", no_scoring)
        src = _write(tmp_path / "s", "s0\n")
        ref = _write(tmp_path / "r", "a\n")
        kbest = _write(tmp_path / "k", "0 ||| a ||| -1.0\n")
        out = tmp_path / "sel.txt"
        code = run(
            ["select", "--kbest", kbest, "--ref", ref, "--src", src,
             "--cxty", kind, "--table", "", "--out", str(out)]
        )
        assert code == 2
        assert "No such file or directory: ''" in capsys.readouterr().err
        assert not out.exists()

    # sha256 of the table `align` trains on the bundled real corpus, and of
    # `select`'s --out and --scores for each --cxty on the bundled k-best
    # list. A speed-up must not move a byte; a change that means to moves
    # them here and says why.
    PINNED = {
        "table.tsv": "be1f305b07d60be34b90e8fae685dd6f92cddec12eb5ff6579950cf6bd523ef0",
        "frs.out": "55c63858e688a60e0f1624495bcd20a46ba810e95a2d196788cbb331ed8da0b8",
        "frs.csv": "2cff4b8f586b6fffd1d54653fe475199c90640bf3d15128388ca8a2f4f86722b",
        "walign.out": "733e9e3d490a40879a897c2e7dac3a874d0aafd5c4ae913135d480035ae8d619",
        "walign.csv": "29aae72bdb8fdbcf76e935ff6ade3291e0c70401ab6262b13361384e69392aa4",
        "nmt.out": "55c63858e688a60e0f1624495bcd20a46ba810e95a2d196788cbb331ed8da0b8",
        "nmt.csv": "8e1a8e476f19f4ba9cbafa68ee244d3bd9173879f354dfedf4d6f14111feeff3",
    }

    def test_bundled_data_bytes_pinned(self, tmp_path, capsys):
        data = bundled_data_dir()
        table = str(tmp_path / "table.tsv")
        code = run(
            ["align", "--src", str(data / "real.src"), "--tgt", str(data / "real.tgt"),
             "--out", str(tmp_path / "real.aln"), "--table", table]
        )
        assert code == 0
        for kind in ("frs", "walign", "nmt"):
            code = run(
                ["select", "--kbest", str(data / "demo.kbest"), "--ref", str(data / "demo.ref"),
                 "--src", str(data / "real.src"), "--cxty", kind, "--table", table,
                 "--out", str(tmp_path / f"{kind}.out"),
                 "--scores", str(tmp_path / f"{kind}.csv")]
            )
            assert code == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.PINNED
        }
        assert digests == self.PINNED


class TestPreorder:
    def test_round_trip_and_fixed_point(self, tmp_path):
        src = _write(tmp_path / "s", "a b c\n")
        tgt = _write(tmp_path / "t", "x y z\n")
        aln = _write(tmp_path / "a", "0-2 1-1 2-0\n")
        out_src = tmp_path / "s2"
        out_aln = tmp_path / "a2"
        code = run(
            ["preorder", "--src", src, "--tgt", tgt, "--align", aln,
             "--out-src", str(out_src), "--out-align", str(out_aln)]
        )
        assert code == 0
        assert out_src.read_text() == "c b a\n"
        assert out_aln.read_text() == "0-0 1-1 2-2\n"
        # applying the transform to its own output changes nothing
        out_src2 = tmp_path / "s3"
        out_aln2 = tmp_path / "a3"
        code = run(
            ["preorder", "--src", str(out_src), "--tgt", tgt,
             "--align", str(out_aln),
             "--out-src", str(out_src2), "--out-align", str(out_aln2)]
        )
        assert code == 0
        assert out_src2.read_text() == out_src.read_text()
        assert out_aln2.read_text() == out_aln.read_text()


class TestCalibrate:
    def _preds(self, tmp_path):
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
        return _write(tmp_path / "p.jsonl", "\n".join(lines) + "\n")

    def test_fill_from_hyp_and_ref(self, tmp_path, capsys):
        preds = self._preds(tmp_path)
        hyp = _write(tmp_path / "h", "a x c\n")
        ref = _write(tmp_path / "r", "a b c\n")
        out = tmp_path / "cal.json"
        code = run(
            ["calibrate", "--preds", preds, "--hyp", hyp, "--ref", ref,
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["accuracy"] == pytest.approx(2 / 3)
        assert payload["n_bins"] == 10
        err = capsys.readouterr().err
        assert "accuracy" in err and "%" in err

    def test_missing_flags_without_fill_files(self, tmp_path, capsys):
        preds = self._preds(tmp_path)
        code = run(["calibrate", "--preds", preds, "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "correct" in capsys.readouterr().err

    def test_bins_limit(self, tmp_path, capsys):
        preds = self._preds(tmp_path)
        hyp = _write(tmp_path / "h", "a x c\n")
        ref = _write(tmp_path / "r", "a b c\n")
        out = tmp_path / "cal.json"
        argv = ["calibrate", "--preds", preds, "--hyp", hyp, "--ref", ref,
                "--out", str(out), "--bins"]
        assert run(argv + [str(MAX_BINS + 1)]) == 2
        assert f"--bins: must be <= {MAX_BINS}, got {MAX_BINS + 1}" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv + [str(MAX_BINS)]) == 0
        assert json.loads(out.read_text())["n_bins"] == MAX_BINS
        capsys.readouterr()

    @pytest.mark.parametrize(
        "hyp_line, message",
        [
            (
                "a y c\n",
                "prediction token 'x' at sentence 0 position 1 does not match "
                "hypothesis token 'y'",
            ),
            (
                None,
                "record for sentence 0 position 0 has no correct flag; ingest one "
                "or fill it from hypothesis and reference tokens",
            ),
        ],
    )
    def test_cross_input_error_names_preds(self, tmp_path, capsys, hyp_line, message):
        preds = self._preds(tmp_path)
        out = tmp_path / "cal.json"
        argv = ["calibrate", "--preds", preds, "--out", str(out)]
        if hyp_line is not None:
            argv += ["--hyp", _write(tmp_path / "h", hyp_line),
                     "--ref", _write(tmp_path / "r", "a b c\n")]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"distillens: {preds}: {message}\n"
        assert not out.exists()

    def test_hyp_and_ref_line_counts_must_agree(self, tmp_path, capsys):
        preds = self._preds(tmp_path)
        hyp = _write(tmp_path / "h", "a x c\nb\n")
        ref = _write(tmp_path / "r", "a b c\n")
        out = tmp_path / "cal.json"
        argv = ["calibrate", "--preds", preds, "--hyp", hyp, "--ref", ref, "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"distillens: {hyp} has 2 lines but {ref} has 1\n"
        assert not out.exists()

    # sha256 of `calibrate` on the bundled predictions, whose correct flags
    # all come from token_accuracy, and of `attn` on the bundled attention
    # export. A speed-up must not move a byte; a change that means to
    # moves them here and says why.
    PINNED = {
        "calibrate.json": "fe350268d94afab620031656e1a0324e0ff4962f45f25d0e85604714f3a7dc83",
        "attn.csv": "4e6c94508de84fd8b84f7a49dae3a4249a35a9ab93dcf7e61bf40ddf47a9e36f",
    }

    def test_bundled_data_bytes_pinned(self, tmp_path, capsys):
        data = bundled_data_dir()
        code = run(
            ["calibrate", "--preds", str(data / "demo.preds.jsonl"),
             "--hyp", str(data / "demo.hyp"), "--ref", str(data / "demo.ref"),
             "--out", str(tmp_path / "calibrate.json")]
        )
        assert code == 0
        assert capsys.readouterr().err == "accuracy 82.22% confidence 65.80% ece 18.28%\n"
        code = run(
            ["attn", "--attn", str(data / "demo.attn.jsonl"), "--out", str(tmp_path / "attn.csv")]
        )
        assert code == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.PINNED
        }
        assert digests == self.PINNED

    def test_hyp_requires_ref(self, tmp_path, capsys):
        preds = self._preds(tmp_path)
        hyp = _write(tmp_path / "h", "a x c\n")
        code = run(
            ["calibrate", "--preds", preds, "--hyp", hyp,
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 2
        capsys.readouterr()


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


_ATTENTION_RECORD = _attention_record()
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
        assert run(["attn", "--attn", path, "--out", str(out)]) == 0
        assert out.read_text() == "iteration,mean_confidence\n1,1.0\n2,0.5\n"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(records=st.lists(_ATTENTION_RECORD, min_size=1, max_size=6))
    def test_curve_is_confidence_by_iteration_of_read_attention(self, tmp_path, records):
        path = _write(tmp_path / "a.jsonl", "".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "curve.csv"
        assert run(["attn", "--attn", path, "--out", str(out)]) == 0
        header, *rows = _csv_rows(out)
        assert header == ["iteration", "mean_confidence"]
        # csv writes a float's repr, which reads back as the same float
        curve = [(int(iteration), float(value)) for iteration, value in rows]
        assert curve == list(confidence_by_iteration(read_attention(path)).items())

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(
        records=st.lists(_ATTENTION_RECORD, max_size=4),
        bad_row=st.sampled_from(_BAD_ATTENTION_ROWS),
        data=st.data(),
    )
    def test_bad_line_message_matches_read_attention(
        self, tmp_path, capsys, records, bad_row, data
    ):
        lines = [json.dumps(r) + "\n" for r in records]
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, _ATTENTION_WITH_ROW % bad_row + "\n")
        path = _write(tmp_path / "a.jsonl", "".join(lines))
        with pytest.raises(FormatError) as info:
            read_attention(path)
        assert str(info.value).startswith(f"{path}: line {at + 1}: ")
        out = tmp_path / "curve.csv"
        assert run(["attn", "--attn", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"distillens: {info.value}\n"
        assert not out.exists()

    @staticmethod
    def _traced_peak(tmp_path, rows, width):
        """tracemalloc's peak over one attn run on 480 matrices of rows x
        width weights, made from 4 random matrices."""
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
        tracemalloc.start()
        try:
            code = run(["attn", "--attn", path, "--out", str(tmp_path / "curve.csv")])
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
        code = run(
            ["report", "--real-src", src, "--real-tgt", tgt,
             "--distilled-src", dis_src, "--distilled-tgt", dis_tgt,
             "--real-align", aln, "--distilled-align", dis_aln,
             "--out", str(out), "--csv", str(csv_out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"real", "distilled"}
        assert {"frs", "lexical_diversity", "faithfulness"} <= set(payload["real"])
        with open(csv_out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ["corpus", "real", "distilled"]

    def test_self_alignment_when_no_align_given(self, tmp_path, corpus_files, capsys):
        src, tgt, _ = corpus_files
        out = tmp_path / "report.json"
        code = run(
            ["report", "--real-src", src, "--real-tgt", tgt,
             "--distilled-src", src, "--distilled-tgt", tgt,
             "--iters", "4", "--out", str(out)]
        )
        assert code == 0
        assert "log-likelihood" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["real"]["sentence_count"] == 3


# bundled-data runs whose outputs could follow str hash order, in the
# order they run (select reads align's table); {D} is the data directory
# and {O} the output one
_HASH_SEED_RUNS = {
    "align": "align --src {D}/real.src --tgt {D}/real.tgt --iters 5 "
             "--out {O}/a.aln --table {O}/t.tsv",
    "metrics": "metrics --src {D}/distilled.src --tgt {D}/distilled.tgt --align {D}/distilled.aln "
               "--real-src {D}/real.src --real-tgt {D}/real.tgt --real-align {D}/real.aln "
               "--out {O}/m.json --csv {O}/m.csv",
    "select walign": "select --kbest {D}/demo.kbest --ref {D}/demo.ref --src {D}/real.src "
                     "--cxty walign --table {O}/t.tsv --out {O}/w.txt --scores {O}/w.csv",
    "select frs": "select --kbest {D}/demo.kbest --ref {D}/demo.ref --src {D}/real.src "
                  "--cxty frs --table {O}/t.tsv --out {O}/f.txt --scores {O}/f.csv",
    "preorder": "preorder --src {D}/real.src --tgt {D}/real.tgt --align {D}/real.aln "
                "--out-src {O}/p.src --out-align {O}/p.aln",
    "calibrate": "calibrate --preds {D}/demo.preds.jsonl --hyp {D}/demo.hyp --ref {D}/demo.ref "
                 "--out {O}/c.json",
    "attn": "attn --attn {D}/demo.attn.jsonl --out {O}/curve.csv",
    "report": "report --real-src {D}/real.src --real-tgt {D}/real.tgt "
              "--distilled-src {D}/distilled.src --distilled-tgt {D}/distilled.tgt "
              "--iters 5 --out {O}/r.json --csv {O}/r.csv",
}

# runs each argv of the JSON object in argv[1] through cli.run and prints
# each one's exit code and stderr
_HASH_SEED_CHILD = """
import contextlib, io, json, sys
from distillens.cli import run
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stderr(io.StringIO()) as err:
        results[name] = [run(argv), err.getvalue()]
print(json.dumps(results))
"""


class TestHashSeed:
    """Repeat runs in one process share one str hash order, so outputs that
    followed it would still match; runs under two hash seeds would not."""

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        data = str(bundled_data_dir())
        package_root = str(Path(distillens.__file__).parent.parent)
        seen = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            out.mkdir()
            runs = {
                name: [word.format(D=data, O=out) for word in template.split()]
                for name, template in _HASH_SEED_RUNS.items()
            }
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
            result = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_CHILD, json.dumps(runs)],
                env=env, capture_output=True, text=True, check=True,
            )
            results = json.loads(result.stdout)
            assert [code for code, _ in results.values()] == [0] * len(runs)
            assert all(results[name][1] for name in ("align", "calibrate", "report"))
            outputs = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            seen.append((outputs, results))
        assert len(seen[0][0]) == 14
        assert seen[0] == seen[1]
