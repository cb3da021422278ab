"""The judge of CLI runs: it fails every run that breaks the contract, it
reads each output by the format of its flag, and it is the one way the
tests run the CLI in process."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_judge
from distillens import cli
from cli_judge import judged_run

# a run over IN and OUT, the exit code and the stderr of a fake CLI, the
# file it appends to and what, and what the judge must say; each run breaks
# the contract once
_BROKEN = {
    "exit 0, NaN in JSON": ("metrics --src IN --out OUT", 0, "", "OUT", '{"frs": NaN}\n',
                            "exit 0, but --out .*: holds 'NaN'"),
    "exit 0, inf in a CSV number column": (
        "select --src IN --out OUT2 --scores OUT", 0, "", "OUT",
        "sentence_id,sim,hypothesis\n0,inf,a\n", "exit 0, but --scores .*: holds 'inf'"),
    "exit 0, inf as a table probability": ("align --src IN --out OUT2 --table OUT", 0, "", "OUT",
                                           "a\tx\tinf\n", "exit 0, but --table .*: holds 'inf'"),
    "exit 1, an output left behind": ("metrics --src IN --out OUT", 1, "distillens: {IN}: no\n",
                                      "OUT", "partial", r"exit 1 changed \['.*/out'\]"),
    "exit 1, an input changed": ("metrics --src IN --out OUT", 1, "distillens: {IN}: no\n",
                                 "IN", "x", r"exit 1 changed \['.*/in'\]"),
    "exit 1, no input named": ("metrics --src IN --out OUT", 1, "distillens: no\n", None, None,
                               "exit 1 names no input: 'distillens: no'"),
    "exit 3": ("metrics --src IN --out OUT", 3, "distillens: {IN}: no\n", None, None, "exit 3"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_fails_a_run_that_breaks_the_contract(tmp_path, monkeypatch, case):
    words, code, err, target, text, message = _BROKEN[case]
    paths = {"IN": str(tmp_path / "in"), "OUT": str(tmp_path / "out"),
             "OUT2": str(tmp_path / "out2")}
    Path(paths["IN"]).write_text("a\n")
    Path(paths["OUT2"]).write_text("0-0\n")

    def fake_run(argv):
        if target is not None:
            with open(paths[target], "a", encoding="utf-8") as fh:
                fh.write(text)
        sys.stderr.write(err.format(**paths))
        return code

    monkeypatch.setattr(cli_judge, "run", fake_run)
    with pytest.raises(AssertionError, match=message):
        judged_run([paths.get(word, word) for word in words.split()], tmp_path, [paths["IN"]])


def test_words_that_read_as_numbers_pass(tmp_path):
    """A corpus of the words nan and inf: the table, the selected lines and
    the hypothesis column hold them as words, and both runs pass."""
    texts = {"c.src": "nan inf\nnan\ninf\n", "c.tgt": "inf nan\ninf\nnan\n",
             "k.txt": "0 ||| inf nan ||| -1.0\n0 ||| nan ||| -2.0\n1 ||| inf ||| -1.0\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    for words in ["align --src c.src --tgt c.tgt --out c.aln --table t.tsv",
                  "select --kbest k.txt --ref c.tgt --src c.src --cxty nmt "
                  "--out sel.txt --scores scores.csv"]:
        argv = [str(tmp_path / word) if "." in word else word for word in words.split()]
        assert judged_run(argv, tmp_path)[0] == 0
    assert (tmp_path / "sel.txt").read_text() == "inf nan\ninf\n"
    assert {line.split("\t")[0] for line in (tmp_path / "t.tsv").read_text().splitlines()} == {
        "<NULL>", "nan", "inf"
    }
    assert "inf nan" in (tmp_path / "scores.csv").read_text()


def test_formats_name_every_output_flag():
    parser = cli._build_parser()
    [subcommands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(cli_judge.FORMATS) == {
        (name, action.option_strings[0])
        for name, command in subcommands.choices.items()
        for action in command.get_default("outputs")
    }


def test_one_parser_serves_every_run(tmp_path):
    """cli.run builds its parser once per process, and a run does not leave
    state in it: a refusal right after a good run of the same subcommand
    still names the two flags and changes nothing."""
    assert cli._build_parser() is cli._build_parser()
    (tmp_path / "c.src").write_text("a b\nb\n")
    (tmp_path / "c.tgt").write_text("x y\ny\n")
    src, tgt, out, table = (str(tmp_path / name) for name in ("c.src", "c.tgt", "c.aln", "t.tsv"))
    align = ["align", "--src", src, "--tgt", tgt, "--out", out, "--table"]
    assert judged_run([*align, table], tmp_path)[0] == 0
    code, err = judged_run([*align, out], tmp_path)
    assert code == 2
    assert err.endswith("error: --out and --table name the same file\n")


def test_parser_is_built_by_run_not_by_import():
    """Importing distillens.cli builds no parser, so a CLI process pays
    for the build only when it runs."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    probe = "import distillens.cli as c; print(c._build_parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe],
                            check=True, env=env, capture_output=True, text=True)
    assert result.stdout == "0\n"


# each subcommand's options, in the order its usage line and --help list them
_OPTIONS = {
    "align": "--threads --src --tgt --iters --out --table",
    "metrics": "--threads --src --tgt --align --alpha --real-src --real-tgt --real-align "
               "--out --csv",
    "select": "--threads --src --kbest --ref --lambda --cxty --table --out --scores",
    "preorder": "--threads --src --tgt --align --out-src --out-align",
    "calibrate": "--threads --preds --hyp --ref --bins --out",
    "attn": "--threads --attn --out",
    "report": "--threads --alpha --iters --real-src --real-tgt --distilled-src --distilled-tgt "
              "--real-align --distilled-align --out --csv",
}


def test_every_subcommand_keeps_its_options_in_order():
    parser = cli._build_parser()
    [subcommands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {
        name: " ".join(a.option_strings[0] for a in command._actions if a.option_strings[0] != "-h")
        for name, command in subcommands.choices.items()
    } == _OPTIONS


def _cli_run_uses(path):
    """The lines of ``path`` that import distillens.cli.run, or read run
    off a name bound to the module distillens.cli."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {"distillens.cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "distillens.cli" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "distillens":
            modules |= {a.asname or a.name for a in node.names if a.name == "cli"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "distillens.cli"
        and any(a.name in ("run", "*") for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "run"
        and ast.unparse(node.value) in modules
    ]


def test_only_the_judge_runs_the_cli():
    uses = {
        path.name: lines
        for path in Path(__file__).parent.glob("*.py")
        if (lines := _cli_run_uses(path))
    }
    assert sorted(uses) == ["cli_judge.py"]
