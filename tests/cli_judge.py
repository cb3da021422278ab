"""The CLI's contract, judged in one place.

Every in-process run of ``distillens.cli.run`` in the tests goes through
``judged_run``. A run ends one of two ways. It exits 0, and each output
its argv names is well formed in the format of its flag. Or it exits 1
or 2, and leaves every path under the test's directory as it was. It
never prints a traceback.
"""

import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

from distillens.cli import run

# columns of an output CSV that hold text; every other column holds numbers
_TEXT_COLUMNS = {"corpus", "hypothesis"}
_LINK = re.compile(r"[0-9]+-[0-9]+")


def _number(cell):
    if not math.isfinite(float(cell)):
        raise ValueError(f"holds {cell!r}")


def _json(text):
    json.loads(text, parse_constant=_number)  # NaN, Infinity and -Infinity


def _csv(text):
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row {row} does not fit header {header}")
        for column, cell in zip(header, row):
            if column not in _TEXT_COLUMNS:
                _number(cell)


def _table(text):
    for line in text.splitlines():
        _source, _target, probability = line.split("\t")
        _number(probability)


def _pharaoh(text):
    for link in text.split():
        if not _LINK.fullmatch(link):
            raise ValueError(f"holds the link {link!r}")


def _tokens(text):
    """Token files hold words, and a word may read as a number: any text passes."""


# the format of each output, by subcommand and flag; a path's suffix says
# nothing, since the tests name outputs freely
FORMATS = {
    ("align", "--out"): _pharaoh,
    ("align", "--table"): _table,
    ("metrics", "--out"): _json,
    ("metrics", "--csv"): _csv,
    ("select", "--out"): _tokens,
    ("select", "--scores"): _csv,
    ("preorder", "--out-src"): _tokens,
    ("preorder", "--out-align"): _pharaoh,
    ("calibrate", "--out"): _json,
    ("attn", "--out"): _csv,
    ("report", "--out"): _json,
    ("report", "--csv"): _csv,
}


def _tree(root):
    """Every path under ``root``, each regular file with its bytes."""
    return {(path, path.read_bytes() if path.is_file() else None) for path in Path(root).rglob("*")}


def judged_run(argv, root, inputs=None):
    """Run ``argv`` through the CLI with stderr captured, assert that the
    run kept the contract, and return its exit code and stderr.

    On exit 0, every output that an output flag in ``argv`` names must
    read as its format. On any other exit, the code must be 1 or 2 and no
    path under ``root`` may have been added, removed or changed. Given
    ``inputs``, the last line of a refusal must start with ``distillens:``
    and one of them.
    """
    before = _tree(root)
    with contextlib.redirect_stderr(io.StringIO()) as captured:
        code = run(argv)
    err = captured.getvalue()
    assert "Traceback" not in err, err
    if code == 0:
        command = argv[0] if argv else None
        for flag, path in zip(argv, argv[1:]):
            if (command, flag) in FORMATS:
                try:
                    FORMATS[command, flag](Path(path).read_bytes().decode("utf-8"))
                except (OSError, ValueError) as exc:
                    raise AssertionError(f"exit 0, but {flag} {path}: {exc}") from exc
        return code, err
    assert code in (1, 2), f"exit {code}: {err}"
    changed = sorted({str(path) for path, _ in before ^ _tree(root)})
    assert not changed, f"exit {code} changed {changed}: {err}"
    if inputs is not None:
        last = err.splitlines()[-1] if err else ""
        assert any(last.startswith(f"distillens: {path}: ") for path in inputs), (
            f"exit {code} names no input: {last!r}"
        )
    return code, err
