"""Output checks for the benchmark's workloads.

Two kinds of check. At the default seed the sha256 of every primary
output must equal the digest recorded in digests.json. At any seed the
invariants below must hold. Each check returns a list of error strings;
an empty list means the outputs are correct. Nothing here imports
distillens: outputs are parsed from their on-disk formats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
TABLE_ROW_SUM_TOLERANCE = 1e-9
ECE_TOLERANCE = 1e-12
_LL_LINE = re.compile(r"^iteration (\d+) log-likelihood (\S+)$")


class CheckError(Exception):
    """An output that breaks an invariant."""


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(out_dir: str, names: list[str]) -> dict[str, str]:
    return {name: sha256(os.path.join(out_dir, name)) for name in names}


def load_recorded_digests(workload: str) -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def compare_digests(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return [
        f"{name}: sha256 {actual.get(name)} != recorded {digest}"
        for name, digest in sorted(expected.items())
        if actual.get(name) != digest
    ]


# ---------------------------------------------------------------------------
# parsing helpers


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _tokens(path: str) -> list[list[str]]:
    return [line.split() for line in _lines(path)]


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"{what}: non-finite number {text!r}")
    return value


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def _finite_json(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(
            text,
            parse_constant=_reject_constant,
            parse_float=lambda s: _finite(s, os.path.basename(path)),
        )
    except json.JSONDecodeError as exc:
        raise CheckError(f"{os.path.basename(path)}: invalid JSON: {exc.msg}") from None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_alignment(path: str, sources, targets) -> None:
    name = os.path.basename(path)
    lines = _lines(path)
    _expect(len(lines) == len(sources), f"{name}: {len(lines)} lines for {len(sources)} pairs")
    for lineno, (line, src, tgt) in enumerate(zip(lines, sources, targets), start=1):
        for link in line.split():
            left, sep, right = link.partition("-")
            _expect(sep == "-" and left.isdigit() and right.isdigit(),
                    f"{name}: line {lineno}: malformed link {link!r}")
            _expect(int(left) < len(src) and int(right) < len(tgt),
                    f"{name}: line {lineno}: link {link} out of range")


# ---------------------------------------------------------------------------
# per-invocation invariants


def _check_align(in_dir: str, out_dir: str, stderr: str) -> None:
    likelihoods = []
    for line in stderr.splitlines():
        match = _LL_LINE.match(line)
        if match:
            _expect(int(match.group(1)) == len(likelihoods) + 1, "align: EM rounds out of order")
            likelihoods.append(_finite(match.group(2), "align log-likelihood"))
    _expect(bool(likelihoods), "align: no EM log-likelihood on stderr")
    for before, after in zip(likelihoods, likelihoods[1:]):
        # stderr rounds to 6 decimals, so equal neighbours are allowed
        _expect(after >= before, f"align: log-likelihood fell from {before} to {after}")

    row_sums: dict[str, float] = {}
    with open(os.path.join(out_dir, "table.tsv"), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            _expect(len(parts) == 3, f"table.tsv: line {lineno}: expected 3 fields")
            p = _finite(parts[2], f"table.tsv line {lineno}")
            _expect(0.0 <= p <= 1.0, f"table.tsv: line {lineno}: probability {p} outside [0, 1]")
            row_sums[parts[0]] = row_sums.get(parts[0], 0.0) + p
    _expect(bool(row_sums), "table.tsv: empty")
    for x, total in row_sums.items():
        _expect(abs(total - 1.0) <= TABLE_ROW_SUM_TOLERANCE,
                f"table.tsv: row {x!r} sums to {total!r}")

    sources = _tokens(os.path.join(in_dir, "src.txt"))
    targets = _tokens(os.path.join(in_dir, "tgt.txt"))
    _check_alignment(os.path.join(out_dir, "align.aln"), sources, targets)


def _check_metrics(in_dir: str, out_dir: str, stderr: str) -> None:
    pairs = len(_lines(os.path.join(in_dir, "src.txt")))
    report = _finite_json(os.path.join(out_dir, "metrics.json"))
    _expect(0.0 <= report["frs"] <= 1.0, f"metrics.json: frs {report['frs']} outside [0, 1]")
    _expect(report["sentence_count"] == pairs,
            f"metrics.json: sentence_count {report['sentence_count']} != {pairs}")


def _check_preorder(in_dir: str, out_dir: str, stderr: str) -> None:
    sources = _tokens(os.path.join(in_dir, "src.txt"))
    targets = _tokens(os.path.join(in_dir, "tgt.txt"))
    reordered = _tokens(os.path.join(out_dir, "preorder.src"))
    _expect(len(reordered) == len(sources),
            f"preorder.src: {len(reordered)} lines for {len(sources)} pairs")
    for lineno, (new, old) in enumerate(zip(reordered, sources), start=1):
        _expect(sorted(new) == sorted(old), f"preorder.src: line {lineno} is not a permutation")
    _check_alignment(os.path.join(out_dir, "preorder.aln"), reordered, targets)


def _read_kbest(path: str) -> dict[int, list[str]]:
    hypotheses: dict[int, list[str]] = {}
    for line in _lines(path):
        sid, hyp, _ = line.split(" ||| ")
        hypotheses.setdefault(int(sid), []).append(hyp)
    return hypotheses


_SCORES_HEADER = ["sentence_id", "rank", "sim", "sim_norm", "cxty_raw", "cxty_norm",
                  "total", "selected", "hypothesis"]


def _read_scores(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _expect(bool(rows) and rows[0] == _SCORES_HEADER, "scores.csv: wrong header")
    return rows[1:]


def _check_selected(in_dir: str, out_dir: str, name: str) -> dict[int, list[str]]:
    sources = _lines(os.path.join(in_dir, "src.txt"))
    hypotheses = _read_kbest(os.path.join(in_dir, "kbest.txt"))
    selected = _lines(os.path.join(out_dir, name))
    _expect(len(selected) == len(sources),
            f"{name}: {len(selected)} lines for {len(sources)} sources")
    for sid, line in enumerate(selected):
        _expect(line in hypotheses[sid], f"{name}: line {sid + 1} is not one of its hypotheses")
    return hypotheses


def _check_select_walign(in_dir: str, out_dir: str, stderr: str) -> None:
    hypotheses = _check_selected(in_dir, out_dir, "select_walign.txt")
    rows = _read_scores(os.path.join(out_dir, "scores.csv"))
    expected = sum(map(len, hypotheses.values()))
    _expect(len(rows) == expected, f"scores.csv: {len(rows)} rows for {expected} hypotheses")
    selected = _lines(os.path.join(out_dir, "select_walign.txt"))
    picks: dict[int, int] = {}
    for row in rows:
        for field in row[2:7]:
            _finite(field, "scores.csv")
        sid = int(row[0])
        if row[7] == "1":
            picks[sid] = picks.get(sid, 0) + 1
            _expect(row[8] == selected[sid],
                    f"scores.csv: selected row of {sid} differs from the output")
    _expect(all(picks.get(sid) == 1 for sid in hypotheses),
            "scores.csv: not exactly one selected hypothesis per sentence")


def _check_select_nmt(in_dir: str, out_dir: str, stderr: str) -> None:
    _check_selected(in_dir, out_dir, "select_nmt.txt")


def _check_calibrate(in_dir: str, out_dir: str, stderr: str) -> None:
    records = len([line for line in _lines(os.path.join(in_dir, "preds.jsonl")) if line.strip()])
    report = _finite_json(os.path.join(out_dir, "calibrate.json"))
    bins = report["bins"]
    _expect(report["n_bins"] == len(bins), "calibrate.json: n_bins differs from the bin list")
    total = sum(b["count"] for b in bins)
    _expect(total == records, f"calibrate.json: bin counts sum to {total}, not {records}")
    ece = sum((b["count"] / total) * abs(b["mean_accuracy"] - b["mean_confidence"]) for b in bins)
    _expect(abs(ece - report["ece"]) <= ECE_TOLERANCE,
            f"calibrate.json: ece {report['ece']!r} but the bins give {ece!r}")
    for key in ("accuracy", "confidence", "ece"):
        _expect(0.0 <= report[key] <= 1.0, f"calibrate.json: {key} outside [0, 1]")


def _check_attn(in_dir: str, out_dir: str, stderr: str) -> None:
    iterations = set()
    for line in _lines(os.path.join(in_dir, "attn.jsonl")):
        iterations.add(int(re.search(r'"iteration": (\d+)', line).group(1)))
    rows = list(csv.reader(_lines(os.path.join(out_dir, "attn.csv"))))
    _expect(rows[:1] == [["iteration", "mean_confidence"]], "attn.csv: wrong header")
    _expect([int(row[0]) for row in rows[1:]] == sorted(iterations),
            "attn.csv: not one row per input iteration")
    for row in rows[1:]:
        value = _finite(row[1], "attn.csv")
        _expect(0.0 <= value <= 1.0, f"attn.csv: value {value} outside [0, 1]")


_CHECKS = {
    "align": _check_align,
    "metrics": _check_metrics,
    "preorder": _check_preorder,
    "select_walign": _check_select_walign,
    "select_nmt": _check_select_nmt,
    "calibrate": _check_calibrate,
    "attn": _check_attn,
}


def check_invocation(name: str, in_dir: str, out_dir: str, stderr: str) -> list[str]:
    """Invariant violations of one invocation's outputs; empty when all hold."""
    try:
        _CHECKS[name](in_dir, out_dir, stderr)
    except CheckError as exc:
        return [str(exc)]
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"{name}: unreadable output: {type(exc).__name__}: {exc}"]
    return []


def selection_diagnostics(scores_path: str) -> dict[str, float]:
    """Data diagnostics from a --scores CSV: not speed.

    `nonzero_pick_share` is the share of lists whose pick is not rank 0;
    `constant_column_share` the share of lists where the similarity or
    the complexity column was constant, so min-max scaling fell back
    to 0.5 for every entry.
    """
    lists: dict[str, list[list[str]]] = {}
    for row in _read_scores(scores_path):
        lists.setdefault(row[0], []).append(row)
    nonzero = constant = 0
    for rows in lists.values():
        nonzero += any(row[7] == "1" and row[1] != "0" for row in rows)
        constant += any(all(row[col] == "0.5" for row in rows) for col in (3, 5))
    return {
        "selection.nonzero_pick_share": nonzero / len(lists),
        "selection.constant_column_share": constant / len(lists),
    }
