"""The CLI's contract, fuzzed with malformed variants of the bundled files.

Every run goes through ``cli_judge.judged_run``, which holds the contract,
with the run's input files as the inputs a refusal must name. Each
variant changes one input file once: a line dropped, duplicated or
blanked, a byte that is not UTF-8, a number replaced by ``nan``, ``inf``,
``1e400`` or ``-1``, a stray tab, or in a JSON-lines file one member of a
record copied to the end of its object. Where in the file is drawn from a
``random.Random`` seeded with the case's name, so every run tries the same
variants. In a file whose lines carry a key, a duplicated line repeats its
key, and the run must exit 1 naming the file, the line and the repeat. A
repeated member must exit 1 naming the file, the line and the member.
"""

import json
import random
import re
import shutil

import pytest

from distillens import bundled_data_dir

from cli_judge import judged_run

# subcommand -> argv; a word naming a bundled file (or table.tsv, which
# the fixture trains) is an input, and OUT. marks an output
_RUNS = {
    "align": "align --src real.src --tgt real.tgt --iters 2 --out OUT.aln --table OUT.tsv",
    "metrics": "metrics --src distilled.src --tgt distilled.tgt --align distilled.aln "
    "--real-src real.src --real-tgt real.tgt --real-align real.aln --out OUT.json --csv OUT.csv",
    "select": "select --kbest demo.kbest --ref demo.ref --src real.src --cxty walign "
    "--table table.tsv --out OUT.out --scores OUT.csv",
    "preorder": "preorder --src real.src --tgt real.tgt --align real.aln "
    "--out-src OUT.src --out-align OUT.aln",
    "calibrate": "calibrate --preds demo.preds.jsonl --hyp demo.hyp --ref demo.ref --out OUT.json",
    "attn": "attn --attn demo.attn.jsonl --out OUT.csv",
    "report": "report --real-src real.src --real-tgt real.tgt --real-align real.aln "
    "--distilled-src distilled.src --distilled-tgt distilled.tgt --iters 2 "
    "--out OUT.json --csv OUT.csv",
}

# files in which a key may appear on one line only: (sentence, position)
# for predictions, (sentence, iteration, head) for attention
_KEYED = ("demo.preds.jsonl", "demo.attn.jsonl")

# a number standing alone, not the digits inside a token such as src04
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def _drop(text, rng):
    lines = text.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return "".join(lines)


def _duplicate(text, rng):
    lines = text.splitlines(keepends=True)
    at = rng.randrange(len(lines))
    lines.insert(at, lines[at])
    return "".join(lines)


def _blank(text, rng):
    lines = text.splitlines(keepends=True)
    lines.insert(rng.randrange(len(lines) + 1), "\n")
    return "".join(lines)


def _insert(piece):
    def mutate(text, rng):
        at = rng.randrange(len(text) + 1)
        return text[:at] + piece + text[at:]

    return mutate


def _number(replacement):
    def mutate(text, rng):
        numbers = list(_NUMBER.finditer(text))
        if not numbers:
            return None
        match = rng.choice(numbers)
        return text[: match.start()] + replacement + text[match.end() :]

    return mutate


def _repeat_member(text, rng):
    lines = text.splitlines(keepends=True)
    records = []
    for at, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and obj:
            records.append((at, obj))
    if not records:  # not a JSON-lines file
        return None
    at, obj = rng.choice(records)
    name = rng.choice(sorted(obj))
    line = lines[at]
    end = line.rindex("}")
    lines[at] = f"{line[:end]}, {json.dumps(name)}: {json.dumps(obj[name])}{line[end:]}"
    return "".join(lines)


_MUTATIONS = {
    "drop": _drop,
    "duplicate": _duplicate,
    "blank": _blank,
    "non-utf8": _insert("\udcff"),  # written back as the byte 0xff
    "nan": _number("nan"),
    "inf": _number("inf"),
    "1e400": _number("1e400"),
    "-1": _number("-1"),
    "tab": _insert("\t"),
    "repeat member": _repeat_member,
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The bundled files, and a table trained on the real corpus."""
    directory = tmp_path_factory.mktemp("inputs")
    for path in bundled_data_dir().iterdir():
        shutil.copy(path, directory)
    argv = ["align", "--src", str(directory / "real.src"), "--tgt", str(directory / "real.tgt"),
            "--out", str(directory / "real.trained.aln"), "--table", str(directory / "table.tsv")]
    assert judged_run(argv, directory)[0] == 0
    return directory


@pytest.mark.parametrize("subcommand", sorted(_RUNS))
def test_every_variant_exits_cleanly(tmp_path, inputs, subcommand):
    words = _RUNS[subcommand].split()
    files = [word for word in words if (inputs / word).is_file()]
    # the judge's root, tmp_path, holds every input of a run: copies of
    # the unchanged files in kept/, and the changed one
    (tmp_path / "kept").mkdir()
    for name in files:
        shutil.copy(inputs / name, tmp_path / "kept")
    faults = []
    cases = [(None, None)] + [(name, mutation) for name in files for mutation in _MUTATIONS]
    for name, mutation in cases:
        case = f"{subcommand} {name} {mutation}"
        paths = {word: str(tmp_path / "kept" / word) for word in files}
        if name is not None:
            text = (inputs / name).read_text(encoding="utf-8")
            mutated = _MUTATIONS[mutation](text, random.Random(case))
            if mutated is None:  # no number to replace, or no JSON object
                continue
            paths[name] = str(tmp_path / name)
            (tmp_path / name).write_bytes(mutated.encode("utf-8", "surrogateescape"))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = [
            paths.get(word, str(out / word[4:]) if word.startswith("OUT.") else word)
            for word in words
        ]
        try:
            code, err = judged_run(argv, tmp_path, list(paths.values()))
        except AssertionError as exc:
            faults.append(f"{case}: {exc}")
            continue
        last = err.splitlines()[-1] if err else ""
        if mutation == "duplicate" and name in _KEYED:
            if code != 1 or not re.match(rf"distillens: {re.escape(paths[name])}: line \d+: "
                                         r"duplicate ", last):
                faults.append(f"{case}: a repeated key exits {code} with {last!r}")
        if mutation == "repeat member":
            if code != 1 or not re.match(rf"distillens: {re.escape(paths[name])}: line \d+: "
                                         r"field '\w+' appears twice$", last):
                faults.append(f"{case}: a repeated member exits {code} with {last!r}")
        if name is None and code != 0:
            faults.append(f"{case}: the unchanged files exit {code}: {last!r}")
    assert faults == []
