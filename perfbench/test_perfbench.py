"""Self-tests of the benchmark: generator, output checker, tracer, metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, prepare_dirs  # noqa: E402

# the layers each workload must show in its traced replay
LAYERS_BY_WORKLOAD = {
    "align-zipf": {"cli", "corpus_io", "aligner", "complexity", "preorder"},
    "select-kbest": {"cli", "corpus_io", "aligner", "selection"},
    "calib-long": {"cli", "corpus_io", "calibration"},
}


def _read_tree(directory: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _generate(workload: str, seed: int, base: str) -> tuple[str, str]:
    in_dir, out_dir = prepare_dirs(base)
    WORKLOADS[workload].generate(seed, in_dir)
    return in_dir, out_dir


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload run once through cli.run: dirs and stderr."""
    from distillens import cli

    produced = {}
    for name, workload in WORKLOADS.items():
        in_dir, out_dir = _generate(name, 1, str(tmp_path_factory.mktemp(name)))
        stderr = {}
        for invocation in workload.invocations:
            buffer = io.StringIO()
            with contextlib.redirect_stderr(buffer):
                assert cli.run(invocation.argv(in_dir, out_dir)) == 0, invocation.name
            stderr[invocation.name] = buffer.getvalue()
        produced[name] = (in_dir, out_dir, stderr)
    return produced


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _read_tree(_generate(workload, 7, str(tmp_path / "a"))[0])
    again = _read_tree(_generate(workload, 7, str(tmp_path / "b"))[0])
    other = _read_tree(_generate(workload, 8, str(tmp_path / "c"))[0])
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fresh_outputs_pass_every_check(outputs, workload):
    in_dir, out_dir, stderr = outputs[workload]
    for invocation in WORKLOADS[workload].invocations:
        name = invocation.name
        assert check.check_invocation(name, in_dir, out_dir, stderr[name]) == []


def _copy_out(outputs, workload: str, tmp_path) -> tuple[str, str, dict]:
    in_dir, out_dir, stderr = outputs[workload]
    copy = str(tmp_path / "out")
    shutil.copytree(out_dir, copy)
    return in_dir, copy, stderr


def test_checker_rejects_a_flipped_byte(outputs, tmp_path):
    in_dir, out_dir, _ = _copy_out(outputs, "align-zipf", tmp_path)
    names = WORKLOADS["align-zipf"].outputs()
    before = check.digests(out_dir, names)
    path = os.path.join(out_dir, "table.tsv")
    with open(path, "r+b") as fh:
        fh.seek(10)
        byte = fh.read(1)
        fh.seek(10)
        fh.write(bytes([byte[0] ^ 1]))
    errors = check.compare_digests(before, check.digests(out_dir, names))
    assert len(errors) == 1 and errors[0].startswith("table.tsv")


@pytest.mark.parametrize(
    "workload, invocation, filename",
    [
        ("align-zipf", "align", "align.aln"),
        ("align-zipf", "preorder", "preorder.src"),
        ("select-kbest", "select_nmt", "select_nmt.txt"),
        ("select-kbest", "select_walign", "scores.csv"),
    ],
)
def test_checker_rejects_a_dropped_line(outputs, tmp_path, workload, invocation, filename):
    in_dir, out_dir, stderr = _copy_out(outputs, workload, tmp_path)
    path = os.path.join(out_dir, filename)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    assert check.check_invocation(invocation, in_dir, out_dir, stderr[invocation])


@pytest.mark.parametrize(
    "workload, invocation, filename, key",
    [("align-zipf", "metrics", "metrics.json", "faithfulness"),
     ("calib-long", "calibrate", "calibrate.json", "confidence")],
)
def test_checker_rejects_nan_in_json(outputs, tmp_path, workload, invocation, filename, key):
    in_dir, out_dir, stderr = _copy_out(outputs, workload, tmp_path)
    path = os.path.join(out_dir, filename)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload[key] = math.nan
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)  # writes the bare token NaN
    errors = check.check_invocation(invocation, in_dir, out_dir, stderr[invocation])
    assert errors and "NaN" in errors[0]


def test_checker_rejects_a_falling_log_likelihood(outputs):
    in_dir, out_dir, stderr = outputs["align-zipf"]
    lines = stderr["align"].splitlines()
    swapped = "\n".join([lines[1].replace("iteration 2", "iteration 1"),
                         lines[0].replace("iteration 1", "iteration 2"), *lines[2:]])
    assert check.check_invocation("align", in_dir, out_dir, swapped)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_replay_covers_its_layers(workload, tmp_path):
    base = str(tmp_path)
    _generate(workload, 1, base)
    record = tracing.run_traced(workload, base, seconds=0.0)
    assert record["missing"] == []
    assert all(code == 0 for code in record["exit_codes"])
    layers = {span[0].split(".")[0] for span in record["spans"][0]}
    assert LAYERS_BY_WORKLOAD[workload] <= layers
    assert record["accounting_gap_s"] < 1e-6
    metrics = record["per_iteration"][0]
    assert metrics["cli.self_s"] > 0
    for layer in LAYERS_BY_WORKLOAD[workload] - {"cli"}:
        assert metrics[f"{layer}.self_s"] > 0, layer
    # the in-process replays write the same bytes as each other
    names = WORKLOADS[workload].outputs()
    assert check.digests(os.path.join(base, "out-traced"), names) == check.digests(
        os.path.join(base, "out-inprocess"), names)


def test_a_removed_boundary_is_reported_not_fatal(tmp_path, monkeypatch):
    from distillens import selection

    # select-kbest never scores by FRS, so the program still runs without it
    monkeypatch.delattr(selection, "sentence_frs")
    base = str(tmp_path)
    _generate("select-kbest", 1, base)
    record = tracing.run_traced("select-kbest", base, seconds=0.0)
    assert record["missing"] == ["selection.sentence_frs"]
    assert all(code == 0 for code in record["exit_codes"])


def test_a_missing_traced_output_counts_as_a_failure(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "WORK", str(tmp_path))
    os.makedirs(tmp_path / "results")
    real_digests = check.digests

    def digests(out_dir: str, names: list[str]) -> dict[str, str]:
        if os.path.basename(out_dir) == "out-traced":
            raise FileNotFoundError(os.path.join(out_dir, names[0]))
        return real_digests(out_dir, names)

    monkeypatch.setattr(check, "digests", digests)
    workload_run = run.WorkloadRun("calib-long", 1, 0.0)
    workload_run.per_layer()
    assert len(workload_run.failures) == 1
    assert workload_run.failures[0].startswith("out-traced: ")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_benchmark(spec):
    assert set(spec["paths"]) == {os.path.basename(HERE)}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]


def _checkout(tmp_path, with_program: bool) -> str:
    """A copy of the checkout, so a run leaves the real records alone."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_mode(spec, tmp_path, trace, section):
    # the default seed, so the recorded digests are checked too
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calib-long",
         "--seconds", "0", "--trace", str(trace)],
        cwd=_checkout(tmp_path, with_program=True), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calib-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=_checkout(tmp_path, with_program=False), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
