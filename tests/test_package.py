"""The package namespace: which names it exports and that each resolves,
and the bundled data it ships."""

import ast
import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import distillens

from bundled_runs import DIGESTS

PUBLIC_NAMES = {
    "__version__", "bundled_data_dir",
    "DistillensError", "FormatError", "ValidationError",
    "SentencePair", "ParallelCorpus", "Alignment", "KBestEntry", "KBestList",
    "TokenPredictionRecord", "AttentionRecord", "read_token_lines",
    "write_token_lines", "read_parallel_corpus", "write_parallel_corpus",
    "parse_pharaoh", "format_pharaoh", "read_alignments", "check_alignments",
    "write_alignments", "read_kbest", "write_kbest", "read_token_predictions",
    "write_token_predictions", "read_attention", "write_attention",
    "NULL_TOKEN", "TranslationTable", "train_ibm1", "corpus_log_likelihood",
    "viterbi_align", "word_alignment_score", "read_table", "write_table",
    "ConditionalTable", "ComplexityReport", "sentence_frs", "corpus_frs",
    "conditional_distribution", "lexical_diversity", "faithfulness",
    "compute_report",
    "SelectionConfig", "ScoredHypothesis", "smoothed_sentence_bleu",
    "min_max_normalize", "score_hypotheses", "select_reference",
    "Bin", "CalibrationReport", "attention_confidence", "confidence_by_iteration",
    "token_accuracy", "expected_calibration_error",
    "fill_correctness",
    "monotone_preorder",
}


def test_package_exports_each_public_name_once():
    assert len(distillens.__all__) == len(set(distillens.__all__))
    assert set(distillens.__all__) == PUBLIC_NAMES


def test_every_listed_name_resolves():
    modules = [distillens] + [
        importlib.import_module(f"distillens.{info.name}")
        for info in pkgutil.iter_modules(distillens.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_unlisted_constants_still_import():
    from distillens.aligner import PROB_FLOOR
    from distillens.complexity import DEFAULT_SMOOTHING
    from distillens.corpus_io import atomic_write
    from distillens.selection import COMPLEXITY_KINDS

    assert PROB_FLOOR > 0 and DEFAULT_SMOOTHING > 0
    assert callable(atomic_write) and "walign" in COMPLEXITY_KINDS


# imported names that no code in their module reads, each with its reason
UNUSED_IMPORTS = {
    # perfbench's tracer patches these there to time word-alignment scoring
    # and the attention reader and curve; they go when the tracer stops
    # patching module names
    ("selection", "word_alignment_score"),
    ("cli", "read_attention"),
    ("cli", "confidence_by_iteration"),
}


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_modules_import_no_name_they_never_read():
    package_dir = Path(distillens.__file__).parent
    unused = {
        (path.stem, name)
        for path in package_dir.glob("*.py")
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert unused == UNUSED_IMPORTS


# every use of builtin sum in src/ and scripts/, as (file, enclosing
# function, the expression that uses it): integer sums, write_table's
# finiteness check, and the helper that is sum up to Python 3.11. Every
# float sum goes through corpus_io._add_in_order, since from 3.12 sum
# compensates and the last digit would depend on the interpreter.
SUM_USES = {
    ("corpus_io.py", None, "_add_in_order = sum"),
    ("aligner.py", "write_table", "sum(values)"),
    ("calibration.py", "expected_calibration_error", "sum(correct_counts)"),
    ("complexity.py", "distribution", "sum(row.values())"),
}


def _sum_uses(path: Path) -> set[tuple[str, str | None, str]]:
    uses = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "sum":
                uses.add((path.name, function, ast.unparse(node)))
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return uses


def test_floats_are_never_added_with_builtin_sum():
    package_dir = Path(distillens.__file__).parent
    paths = [*package_dir.glob("*.py"), *(package_dir.parents[1] / "scripts").glob("*.py")]
    assert set().union(*map(_sum_uses, paths)) == SUM_USES


_LEFT_OUT = ["importlib.resources", "dataclasses", "inspect",
             "tempfile", "shutil", "random", "bz2", "lzma",
             "multiprocessing", "concurrent.futures", "pickle", "threading", "signal"]


@pytest.fixture(scope="module")
def cli_imports():
    """Which of _LEFT_OUT ``import distillens.cli`` loads, from one probe."""
    package_dir = Path(distillens.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package_dir.parent))
    probe = f"import sys, distillens.cli; print(*[m for m in {_LEFT_OUT!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        check=True, env=env, capture_output=True, text=True,
    )
    return result.stdout.split()


@pytest.mark.parametrize("module", _LEFT_OUT)
def test_importing_the_cli_leaves_out(cli_imports, module):
    """Only bundled_data_dir needs importlib.resources, and no subcommand
    calls it; the records are built without dataclasses, which would pull
    in inspect; atomic_write creates its temp file with open(), not
    tempfile, which would pull in shutil, random, bz2 and lzma. select
    computes its similarities in a child started with os.fork and sends
    them back with marshal, not through multiprocessing, concurrent.futures,
    pickle or threading, and only a refused table read imports signal, to
    kill that child: every subcommand's set-up pays for each import.
    -S keeps the host's site hooks from importing any of them first."""
    assert module not in cli_imports


# each record with two sets of field values that differ in every field
_RECORDS = [
    (distillens.SentencePair, (("a", "b"), ("x",)), (("c",), ("y", "z"))),
    (distillens.ParallelCorpus, ((distillens.SentencePair(("a",), ("x",)),),), ((),)),
    (distillens.Alignment, (frozenset({(0, 1)}),), (frozenset(),)),
    (distillens.KBestEntry, (("a",), -1.0), (("b",), -2.0)),
    (distillens.KBestList, (0, (distillens.KBestEntry(("a",), -1.0),)), (1, ())),
    (distillens.TokenPredictionRecord, (0, 1, "a", 0.5, True), (1, 2, "b", 0.25, None)),
    (distillens.AttentionRecord, (0, 1, 0, ((1.0,),)), (1, 2, 1, ((0.5, 0.5),))),
    (distillens.TranslationTable, ({"a": {"x": 1.0}},), ({},)),
    (distillens.ConditionalTable, ({"a": {"x": 2}},), ({"b": {}},)),
    (distillens.ComplexityReport, (0.5, 1.0, 0.25, 3), (1.0, 0.0, 0.0, 1)),
    (distillens.SelectionConfig, (0.5, "nmt"), (1.0, "frs")),
    (
        distillens.ScoredHypothesis,
        (distillens.KBestEntry(("a",), -1.0), 0.5, 0.5, -1.0, 0.5, 0.5),
        (distillens.KBestEntry(("b",), -2.0), 0.25, 1.0, -2.0, 0.0, 0.125),
    ),
    (distillens.Bin, (2, 0.5, 1.0), (3, 0.25, 0.0)),
    (
        distillens.CalibrationReport,
        (1.0, 0.5, 0.5, (distillens.Bin(2, 0.5, 1.0),)),
        (0.5, 0.25, 0.125, ()),
    ),
]


def _field_names(cls) -> tuple[str, ...]:
    """A named tuple's fields, or the slots of a record that is a class."""
    return getattr(cls, "_fields", None) or cls.__slots__


@pytest.mark.parametrize(
    "cls, values, other", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS]
)
def test_record_is_an_immutable_value(cls, values, other):
    names = _field_names(cls)
    assert len(names) == len(values)
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values
    assert record != cls(*other)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    if not hasattr(cls, "_fields"):  # a class record is not a tuple
        assert record != values
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    try:
        hash(values)
    except TypeError:  # a record holding a dict is not hashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*copy.deepcopy(values)))


@pytest.mark.parametrize("values", [(1.5, "nmt"), (-0.5, "nmt"), (0.5, "x")])
def test_selection_config_refuses_what_it_cannot_score(values):
    with pytest.raises(ValueError):
        distillens.SelectionConfig(*values)


def test_bundled_data_is_what_its_generator_writes(tmp_path):
    package_dir = Path(distillens.__file__).parent
    script = package_dir.parents[1] / "scripts" / "make_bundled_corpora.py"
    env = dict(os.environ, PYTHONPATH=str(package_dir.parent))
    subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        check=True, env=env, capture_output=True,
    )
    bundled = package_dir / "data"
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(bundled))
    for name in os.listdir(bundled):
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


def test_ci_checks_the_installed_attn_against_the_pin(tmp_path):
    """CI runs the installed package's attn on the bundled export, then
    tests/check_installed.py, which checks attn.csv and every other
    bundled run against DIGESTS. That script passes here, with src/
    standing in for the installed copy and a directory outside it for
    the checkout."""
    package_dir = Path(distillens.__file__).parent
    root = package_dir.parents[1]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    assert '\n          python "$GITHUB_WORKSPACE/tests/check_installed.py"\n' in workflow
    attn = package_dir / "data" / "demo.attn.jsonl"
    env = dict(os.environ, GITHUB_WORKSPACE=str(tmp_path / "checkout"),
               PYTHONPATH=str(package_dir.parent))
    subprocess.run(
        [sys.executable, "-m", "distillens", "attn", "--attn", str(attn), "--out", "attn.csv"],
        check=True, env=env, cwd=tmp_path, capture_output=True,
    )
    result = subprocess.run([sys.executable, str(root / "tests" / "check_installed.py")],
                            env=env, cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"True {len(DIGESTS)}\n"
