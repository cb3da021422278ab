"""The CLI's contract, fuzzed with malformed variants of the bundled files.

Every entry of ``bundled_runs.RUNS`` is fuzzed. A word after an output
flag of ``cli_judge.FORMATS`` is an output, and every other ``{D}/`` or
``{O}/`` word is an input; ``{O}/table.tsv`` comes from one ``run_all``
for the module. Every run goes through ``cli_judge.judged_run``, which
holds the contract, with the run's input files as the inputs a refusal
must name. The runs of one entry share one output directory, which the
unchanged run fills first, so every refusal must leave its outputs as
they were.

Each variant changes one input file once: a line dropped, duplicated or
blanked, a byte that is not UTF-8, a number replaced by ``nan``, ``inf``,
``1e400`` or ``-1``, a stray tab, or in a JSON-lines file one member of a
record copied to the end of its object. Where in the file is drawn from a
``random.Random`` seeded with the case's name, so every run tries the same
variants. The byte that is not UTF-8 must exit 1 with the one line
``distillens: <file>: line N: not valid UTF-8``, N being its line. In a
file whose lines carry a key, a duplicated line repeats its key, and the
run must exit 1 naming the file, the line and the repeat. A repeated
member must exit 1 naming the file, the line and the member.

A variant that changes nothing is skipped, so one test per mutation
checks that it changes every input it must. One test per run checks that
the unchanged run wrote its pinned bytes, which every refusal keeps.
"""

import json
import random
import re
from pathlib import Path

import pytest

from bundled_runs import DATA, DIGESTS, RUNS, run_all
from cli_judge import FORMATS, judged_run

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


# the inputs that a number mutation, or a repeated member, must change;
# every other mutation must change every input. A mutation that changed
# fewer would leave the fuzzer blind there.
_REACH = {
    **dict.fromkeys(("nan", "inf", "1e400", "-1"), {
        "demo.attn.jsonl", "demo.kbest", "demo.preds.jsonl", "distilled.aln", "real.aln",
        "table.tsv",
    }),
    "repeat member": set(_KEYED),
}


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """The output directory of every bundled run, table.tsv among them, and
    the digests of what the runs wrote."""
    out = tmp_path_factory.mktemp("bundled") / "out"
    return out, run_all(out)


def _words(run, out):
    """The words of RUNS[run], its output words, and its input words with
    their paths, ``{O}`` being ``out``."""
    words = RUNS[run].split()
    outputs = {word for flag, word in zip(words, words[1:]) if (words[0], flag) in FORMATS}
    inputs = {word: word.format(D=DATA, O=out) for word in words
              if word not in outputs and word.startswith(("{D}/", "{O}/"))}
    return words, outputs, inputs


def _mutate(run, word, mutation, text):
    """The variant's text, or None where the mutation finds nothing to change."""
    return _MUTATIONS[mutation](text, random.Random(f"{run} {word} {mutation}"))


@pytest.mark.parametrize("run", RUNS)
def test_unchanged_run_writes_its_pins(bundled, run):
    out, digests = bundled
    names = [Path(word).name for word in _words(run, out)[1]] + [f"{run} stderr"]
    assert {name: digests.get(name) for name in names} == {
        name: DIGESTS.get(name) for name in names
    }


@pytest.mark.parametrize("mutation", _MUTATIONS)
def test_mutation_changes_its_inputs(bundled, mutation):
    changed, expected = set(), set()
    for run in RUNS:
        for word, path in _words(run, bundled[0])[2].items():
            name = Path(word).name
            text = Path(path).read_text(encoding="utf-8")
            if _mutate(run, word, mutation, text) not in (None, text):
                changed.add((run, name))
            if name in _REACH.get(mutation, {name}):
                expected.add((run, name))
    assert changed == expected


@pytest.mark.parametrize("run", RUNS)
def test_every_variant_exits_cleanly(tmp_path, bundled, run):
    words, _outputs, inputs = _words(run, bundled[0])
    # the judge's root, tmp_path, holds the changed input and the outputs
    out = tmp_path / "out"
    out.mkdir()
    faults = []
    cases = [(None, None)] + [(word, mutation) for word in inputs for mutation in _MUTATIONS]
    for word, mutation in cases:
        paths = dict(inputs)
        case = f"{run} {word} {mutation}"
        if word is not None:
            mutated = _mutate(run, word, mutation, Path(inputs[word]).read_text(encoding="utf-8"))
            if mutated is None:  # no number to replace, or no JSON object
                continue
            paths[word] = str(tmp_path / Path(word).name)
            data = mutated.encode("utf-8", "surrogateescape")
            Path(paths[word]).write_bytes(data)
        argv = [paths[word] if word in paths else word.format(O=out) for word in words]
        try:
            code, err = judged_run(argv, tmp_path, list(paths.values()))
        except AssertionError as exc:
            faults.append(f"{case}: {exc}")
            continue
        last = err.splitlines()[-1] if err else ""
        if mutation == "non-utf8":
            line = data[: data.index(b"\xff")].count(b"\n") + 1
            if (code, err) != (1, f"distillens: {paths[word]}: line {line}: not valid UTF-8\n"):
                faults.append(f"{case}: a byte on line {line} exits {code} with {err!r}")
        if mutation == "duplicate" and Path(word).name in _KEYED:
            if code != 1 or not re.match(rf"distillens: {re.escape(paths[word])}: line \d+: "
                                         r"duplicate ", last):
                faults.append(f"{case}: a repeated key exits {code} with {last!r}")
        if mutation == "repeat member":
            if code != 1 or not re.match(rf"distillens: {re.escape(paths[word])}: line \d+: "
                                         r"field '\w+' appears twice$", last):
                faults.append(f"{case}: a repeated member exits {code} with {last!r}")
        if word is None and code != 0:
            faults.append(f"{case}: the unchanged files exit {code}: {last!r}")
    assert faults == []
