"""Traced in-process replay of a workload's invocations.

The replay calls `distillens.cli.run(argv)` once per invocation, in the
benchmark's own process. Spans wrap the public names that one module
imports from another, at the layer boundary: a span records its name,
start, end and parent. Counters recorded at the same boundaries give the
work each layer did. Spans stay in memory and are written out as JSON
at the end.

Untraced and traced replays alternate until the time budget is spent, so
the difference of their wall times is the tracing overhead.

    PYTHONPATH=src python3 perfbench/tracing.py --workload calib-long \\
        --base DIR --seconds 20 --result OUT.json

DIR must hold the workload's generated inputs in DIR/in.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import statistics
import time
from typing import Callable

from workloads import WORKLOADS

perf_counter = time.perf_counter

MIN_PAIRS = 2  # traced/untraced replay pairs, however short the run

LAYERS = ("corpus_io", "aligner", "complexity", "preorder", "selection", "calibration")
READERS = ("read_parallel_corpus", "read_alignments", "read_kbest", "read_token_lines",
           "read_token_predictions", "read_attention")
WRITERS = ("write_alignments", "write_token_lines")


class Recorder:
    """Spans and counters of one traced replay."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.em_marks: list[tuple[float, list[float]]] = []  # (train start, callback times)
        self.missing: set[str] = set()  # boundary names or counters that no longer fit

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


# ---------------------------------------------------------------------------
# counters: each gets the call's args, kwargs and result, and adds to the
# recorder after the span has closed


def _file_sizes(args) -> int:
    return sum(os.path.getsize(a) for a in args if isinstance(a, str) and os.path.isfile(a))


def _count_read(rec, args, kwargs, result):
    rec.add("corpus_io.bytes_read", _file_sizes(args))


def _count_written(rec, args, kwargs, result):
    rec.add("corpus_io.bytes_written", _file_sizes(args))


def _count_table(rec, args, kwargs, result):
    rec.add("aligner.table_entries", sum(len(row) for row in result.probs.values()))


def _count_viterbi(rec, args, kwargs, result):
    pair = args[0]
    rec.add("aligner.viterbi_calls", 1)
    rec.add("aligner.viterbi_link_evals", len(pair.target) * (len(pair.source) + 1))


def _count_links(rec, args, kwargs, result):
    rec.add("complexity.links", sum(len(alignment) for alignment in args[1]))


def _count_cells(rec, args, kwargs, result):
    rec.add("calibration.token_accuracy_cells", len(args[0]) * len(args[1]))


def _count_attention(rec, args, kwargs, result):
    rec.add("calibration.attention_rows", sum(len(r.weights) for r in args[0]))


def _count_em(rec, args, kwargs, result):
    corpus, rounds = args
    per_round = sum(len(p.target) * (len(p.source) + 1) for p in corpus)
    rec.add("aligner.em_link_evals", per_round * rounds)
    _count_table(rec, args, kwargs, result)


def _counting(counter: str):
    def count(rec, args, kwargs, result):
        rec.add(counter, 1)
    return count


# (module, name bound in it, span name, counter). The span is named after
# the layer that defines the function, so a call from `cli` into
# `aligner` is an `aligner.*` span whose parent is the `cli.run` span.
BOUNDARIES: tuple[tuple[str, str, str, Callable | None], ...] = (
    *(("cli", name, f"corpus_io.{name}", _count_read) for name in READERS),
    *(("cli", name, f"corpus_io.{name}", _count_written) for name in WRITERS),
    ("cli", "read_table", "aligner.read_table", _count_table),
    ("cli", "train_ibm1", "aligner.train_ibm1", None),  # wrapped by _wrap_train
    ("cli", "viterbi_align", "aligner.viterbi_align", _count_viterbi),
    ("cli", "write_table", "aligner.write_table", None),
    ("cli", "compute_report", "complexity.compute_report", None),
    ("cli", "conditional_distribution", "complexity.conditional_distribution", _count_links),
    ("cli", "monotone_preorder", "preorder.monotone_preorder", _counting("preorder.sentences")),
    ("cli", "score_hypotheses", "selection.score_hypotheses", _counting("selection.lists")),
    ("cli", "fill_correctness", "calibration.fill_correctness", None),
    ("cli", "expected_calibration_error", "calibration.expected_calibration_error", None),
    ("cli", "confidence_by_iteration", "calibration.confidence_by_iteration", _count_attention),
    ("selection", "viterbi_align", "aligner.viterbi_align", _count_viterbi),
    ("selection", "word_alignment_score", "aligner.word_alignment_score", None),
    ("selection", "smoothed_sentence_bleu", "selection.smoothed_sentence_bleu",
     _counting("selection.bleu_calls")),
    ("selection", "sentence_frs", "complexity.sentence_frs", None),
    ("calibration", "token_accuracy", "calibration.token_accuracy", _count_cells),
    ("complexity", "conditional_distribution", "complexity.conditional_distribution",
     _count_links),
    ("complexity", "corpus_frs", "complexity.corpus_frs", None),
)


def _count(rec: Recorder, span: str, counter, args, kwargs, result) -> None:
    """Run a counter; one that no longer fits the call is reported, not raised."""
    try:
        counter(rec, args, kwargs, result)
    except (AttributeError, TypeError, IndexError, KeyError):
        rec.missing.add(f"counter of {span}")


def _wrap(rec: Recorder, span: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            _count(rec, span, counter, args, kwargs, result)
        return result

    return wrapper


def _wrap_train(rec: Recorder, span: str, fn, counter):
    """Like _wrap, and also timestamps every `on_iteration` callback (EM round)."""

    @functools.wraps(fn)
    def wrapper(corpus, iterations, *args, **kwargs):
        marks: list[float] = []
        downstream = kwargs.pop("on_iteration", args[0] if args else None)

        def on_iteration(round_number, log_likelihood):
            marks.append(perf_counter())
            if downstream is not None:
                downstream(round_number, log_likelihood)

        index = rec.open(span)
        try:
            table = fn(corpus, iterations, on_iteration=on_iteration)
        finally:
            rec.close(index)
        rec.em_marks.append((rec.spans[index][1], marks))
        rec.add("aligner.em_rounds", len(marks))
        _count(rec, span, _count_em, (corpus, len(marks)), {}, table)
        return table

    return wrapper


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Patch every boundary name for the duration of the block."""
    patched = []
    try:
        for module_name, attr, span, counter in BOUNDARIES:
            try:
                module = importlib.import_module(f"distillens.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                rec.missing.add(f"{module_name}.{attr}")
                continue
            wrap = _wrap_train if attr == "train_ibm1" else _wrap
            setattr(module, attr, wrap(rec, span, original, counter))
            patched.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# replay and reduction


def replay(workload: str, in_dir: str, out_dir: str,
           rec: Recorder | None) -> tuple[float, list[int]]:
    """Run every invocation through cli.run; returns wall time and exit codes."""
    from distillens import cli

    codes = []
    start = perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        for invocation in WORKLOADS[workload].invocations:
            argv = invocation.argv(in_dir, out_dir)
            if rec is None:
                codes.append(cli.run(argv))
            else:
                index = rec.open("cli.run")
                try:
                    codes.append(cli.run(argv))
                finally:
                    rec.close(index)
    return perf_counter() - start, codes


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


COUNTERS = (
    "corpus_io.bytes_read", "corpus_io.bytes_written", "aligner.em_rounds",
    "aligner.em_link_evals", "aligner.table_entries", "aligner.viterbi_calls",
    "aligner.viterbi_link_evals", "complexity.links", "preorder.sentences",
    "selection.bleu_calls", "selection.lists", "calibration.token_accuracy_cells",
    "calibration.attention_rows",
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced replay (busy, self and counts)."""
    own = self_times(rec.spans)
    busy: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for (name, start, end, _), own_time in zip(rec.spans, own):
        busy[name] = busy.get(name, 0.0) + (end - start)
        self_by_name[name] = self_by_name.get(name, 0.0) + own_time
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own_time

    metrics = {
        "corpus_io.read_s": sum(busy.get(f"corpus_io.{n}", 0.0) for n in READERS),
        "corpus_io.write_s": sum(busy.get(f"corpus_io.{n}", 0.0) for n in WRITERS),
        "aligner.write_table_s": busy.get("aligner.write_table", 0.0),
        "aligner.read_table_s": busy.get("aligner.read_table", 0.0),
        "aligner.viterbi_s": busy.get("aligner.viterbi_align", 0.0),
        "aligner.word_alignment_score_s": busy.get("aligner.word_alignment_score", 0.0),
        "complexity.compute_report_s": busy.get("complexity.compute_report", 0.0),
        "complexity.conditional_distribution_s":
            busy.get("complexity.conditional_distribution", 0.0),
        "complexity.corpus_frs_s": busy.get("complexity.corpus_frs", 0.0),
        "preorder.monotone_preorder_s": busy.get("preorder.monotone_preorder", 0.0),
        "selection.bleu_s": busy.get("selection.smoothed_sentence_bleu", 0.0),
        "selection.score_hypotheses_self_s": self_by_name.get("selection.score_hypotheses", 0.0),
        "calibration.token_accuracy_s": busy.get("calibration.token_accuracy", 0.0),
        "calibration.fill_correctness_self_s":
            self_by_name.get("calibration.fill_correctness", 0.0),
        "calibration.ece_s": busy.get("calibration.expected_calibration_error", 0.0),
        "calibration.confidence_by_iteration_s":
            busy.get("calibration.confidence_by_iteration", 0.0),
        "cli.self_s": self_by_name.get("cli.run", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)

    gaps = [b - a for _, marks in rec.em_marks for a, b in zip(marks, marks[1:])]
    round_s = statistics.median(gaps) if gaps else 0.0
    firsts = [marks[0] - start for start, marks in rec.em_marks if marks]
    metrics["aligner.em_round_s"] = round_s
    metrics["aligner.em_setup_s"] = statistics.median(firsts) - round_s if firsts else 0.0
    for name in COUNTERS:
        metrics[name] = float(rec.counters.get(name, 0))
    return metrics


def accounting_gap(spans: list[list]) -> float:
    """Largest |sum of self times - cli.run duration| over the invocations.

    Zero up to rounding when every span nests inside its parent, which
    is what makes the per-layer self times add up to the traced wall time.
    """
    own = self_times(spans)
    roots: list[int] = []  # a parent is always opened, so listed, before its children
    totals: dict[int, float] = {}
    for index, (_, _, _, parent) in enumerate(spans):
        roots.append(index if parent < 0 else roots[parent])
        totals[roots[index]] = totals.get(roots[index], 0.0) + own[index]
    return max(
        (abs(total - (spans[root][2] - spans[root][1])) for root, total in totals.items()),
        default=0.0,
    )


def run_traced(workload: str, base: str, seconds: float) -> dict:
    """Alternate untraced and traced replays for `seconds`; return the record."""
    in_dir = os.path.join(base, "in")
    plain_dir = os.path.join(base, "out-inprocess")
    traced_dir = os.path.join(base, "out-traced")
    os.makedirs(plain_dir, exist_ok=True)
    os.makedirs(traced_dir, exist_ok=True)
    plain_walls, traced_walls, per_iteration, spans = [], [], [], []
    missing: set[str] = set()
    _, codes = replay(workload, in_dir, plain_dir, None)  # warm-up, not timed
    gap = 0.0
    deadline = perf_counter() + seconds
    while len(traced_walls) < MIN_PAIRS or perf_counter() < deadline:
        rec = Recorder()
        # alternate which replay runs first, so drift hits both alike
        for traced in (False, True) if len(traced_walls) % 2 == 0 else (True, False):
            if traced:
                with instrumented(rec):
                    wall, more = replay(workload, in_dir, traced_dir, rec)
                traced_walls.append(wall)
            else:
                wall, more = replay(workload, in_dir, plain_dir, None)
                plain_walls.append(wall)
            codes += more
        per_iteration.append(layer_metrics(rec))
        gap = max(gap, accounting_gap(rec.spans))
        spans.append(rec.spans)
        missing |= rec.missing
    return {
        "untraced_walls_s": plain_walls,
        "traced_walls_s": traced_walls,
        "per_iteration": per_iteration,
        "missing": sorted(missing),
        "exit_codes": codes,
        "accounting_gap_s": gap,
        "spans": spans,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--base", required=True, help="directory holding in/")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True, help="JSON file to write")
    args = parser.parse_args()
    record = run_traced(args.workload, args.base, args.seconds)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
