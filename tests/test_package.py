"""The package namespace: which names it exports and that each resolves,
and the bundled data it ships."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import distillens

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
    "token_accuracy", "expected_calibration_error", "average_confidence",
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


def test_importing_the_cli_leaves_out_importlib_resources():
    """Only bundled_data_dir needs importlib.resources, and no subcommand
    calls it; -S keeps the host's site hooks from importing it first."""
    package_dir = Path(distillens.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package_dir.parent))
    probe = "import sys, distillens.cli; print('importlib.resources' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        check=True, env=env, capture_output=True, text=True,
    )
    assert result.stdout == "False\n"


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
