"""Shared pytest configuration.

Collects the verdicts of the numbered acceptance tests and prints one
line per criterion at the end of the run, so the overall contract
status is readable without scanning the full test list.

The benchmark's modules in perfbench/ import each other by bare name,
so that directory goes on sys.path here: tests/test_cli.py runs the
benchmark's invocations and output checks on drawn inputs.

Property tests run under a derandomized `hypothesis` profile, so every
run draws the same examples and any failure reproduces.
"""

import re
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

CRITERIA = {
    1: "sentence FRS equals the exhaustive naive-chunking oracle",
    2: "lexical diversity and faithfulness match direct-summation oracles",
    3: "hand-derived metric constants (ln 2, KL limit, FRS 1/3)",
    4: "EM aligner converges on a bijective synthetic lexicon",
    5: "selection laws: lambda=1 equals BLEU argmax, monotone in lambda, ties",
    6: "smoothed sentence BLEU hand cases",
    7: "ECE: Bernoulli statistical law plus exact hand cases",
    8: "attention confidence hand cases",
    9: "monotone preorder: FRS 1.0 on one-to-one corpora, idempotent",
    10: "report reproduces the distilled-vs-real complexity directions",
    11: "every bundled-data run writes its pinned bytes, threaded, under hash seeds 1 and 2",
}

_NODE = re.compile(r"test_acceptance\.py::.*criterion_(\d+)")
_verdicts: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _NODE.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call":
        _verdicts[number] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup":
        if report.skipped:
            _verdicts[number] = "SKIP"
        elif report.failed:
            _verdicts[number] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number, description in sorted(CRITERIA.items()):
        verdict = _verdicts.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number:2d} [{verdict}] {description}"
        )
