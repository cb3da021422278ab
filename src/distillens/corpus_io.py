"""Readers and writers for the toolkit's on-disk formats.

Formats handled here:

* Parallel corpus: two plain-text files (source side and target side),
  one sentence per line, tokens separated by whitespace, UTF-8. Files
  are expected to be tokenized upstream; nothing here re-tokenizes.
* Word alignments: Pharaoh format, one line per sentence pair holding
  space-separated ``i-j`` links (0-based source-target index pairs).
  An empty line means the pair has no links.
* K-best lists: ``id ||| token sequence ||| logprob`` lines with
  0-based, non-decreasing sentence ids. Log probabilities are natural
  logs, as are all log quantities in this package.
* Token predictions and attention exports: one JSON object per line.

Every input file is UTF-8 text whose lines end at ``\n``, ``\r\n`` or
``\r``, and every reader is one call to :func:`_read_lines` with a line
parser: the parser turns one line into one record, or None for a line
that holds none (a blank JSON line), and keeps no records itself;
:func:`_read_lines` returns the records in file order. So a bad line,
including a byte that is not UTF-8, is a :class:`FormatError` naming
the file and line. A Pharaoh line parses without its corpus, but an
alignment file is read against its corpus: :func:`check_alignments`
checks the count and the link bounds once, with errors naming the file
and line. All parsed structures are immutable and safe to share across
threads. Every writer reads each line back with its reader's own line
checks (:func:`_write_lines`), so what it writes always reads back,
and the read-back keeps no copy of what it writes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from functools import reduce
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import FormatError, ValidationError

__all__ = [
    "SentencePair",
    "ParallelCorpus",
    "Alignment",
    "KBestEntry",
    "KBestList",
    "TokenPredictionRecord",
    "AttentionRecord",
    "read_token_lines",
    "write_token_lines",
    "read_parallel_corpus",
    "write_parallel_corpus",
    "parse_pharaoh",
    "format_pharaoh",
    "read_alignments",
    "check_alignments",
    "write_alignments",
    "read_kbest",
    "write_kbest",
    "read_token_predictions",
    "write_token_predictions",
    "read_attention",
    "write_attention",
]

ROW_SUM_TOLERANCE = 1e-4


if sys.version_info < (3, 12):
    # up to 3.11 builtin sum adds floats left to right, at C speed
    _add_in_order = sum
else:

    def _add_in_order(values: Iterable[float], start: float = 0) -> float:
        """The numbers of ``values`` added left to right to ``start``, as
        builtin ``sum`` did up to Python 3.11; from 3.12 it compensates, which
        can move the last digit, so a result would depend on the interpreter.
        """
        return reduce(add, values, start)


class _Frozen:
    """Base of the records that are classes: each subclass names its fields
    in ``__slots__`` and sets them once with ``object.__setattr__``.
    Records compare, hash and print field by field, and assigning to
    one raises AttributeError."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assigning slots
        return type(self), self._values()


class SentencePair(NamedTuple):
    """One tokenized source sentence paired with its tokenized target."""

    source: tuple[str, ...]
    target: tuple[str, ...]


class ParallelCorpus(_Frozen):
    """Ordered sentence pairs; pair i comes from line i of both files."""

    __slots__ = ("pairs",)
    pairs: tuple[SentencePair, ...]

    def __init__(self, pairs: tuple[SentencePair, ...]) -> None:
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)

    def __getitem__(self, index: int) -> SentencePair:
        return self.pairs[index]


class Alignment(_Frozen):
    """A set of 0-based (source index, target index) links."""

    __slots__ = ("links",)
    links: frozenset[tuple[int, int]]

    def __init__(self, links: frozenset[tuple[int, int]]) -> None:
        object.__setattr__(self, "links", links)

    def __len__(self) -> int:
        return len(self.links)

    def validate(
        self, source_length: int | None = None, target_length: int | None = None
    ) -> None:
        """Check link indices against the owning pair's lengths.

        Either length may be None when that side is not known.
        """
        for i, j in self.links:
            if i < 0 or (source_length is not None and i >= source_length):
                raise ValidationError(
                    f"alignment link {i}-{j}: source index out of range "
                    f"for sentence of length {source_length}"
                )
            if j < 0 or (target_length is not None and j >= target_length):
                raise ValidationError(
                    f"alignment link {i}-{j}: target index out of range "
                    f"for sentence of length {target_length}"
                )

    def leftmost_by_target(self) -> dict[int, int]:
        """Map each aligned target position to its smallest linked source index."""
        return _smallest_by_key((j, i) for i, j in self.links)

    def min_target_by_source(self) -> dict[int, int]:
        """Map each aligned source position to its smallest linked target index."""
        return _smallest_by_key(self.links)


def _smallest_by_key(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Map each key to its smallest value, keys in ascending order."""
    reduced: dict[int, int] = {}
    for key, value in sorted(pairs):
        reduced.setdefault(key, value)
    return reduced


class KBestEntry(NamedTuple):
    """One hypothesis from a k-best list with its teacher log probability."""

    hypothesis: tuple[str, ...]
    nmt_logprob: float


class KBestList(NamedTuple):
    """All hypotheses produced for one source sentence, in file order."""

    sentence_id: int
    entries: tuple[KBestEntry, ...]


class TokenPredictionRecord(NamedTuple):
    """An exported per-token model probability, optionally labelled correct."""

    sentence_id: int
    position: int
    token: str
    probability: float
    correct: bool | None = None


class AttentionRecord(NamedTuple):
    """One exported source-target attention matrix.

    ``weights`` has one row per target position and one column per source
    position; every row is a probability distribution over the source.
    """

    sentence_id: int
    iteration: int
    head: int
    weights: tuple[tuple[float, ...], ...]


# ---------------------------------------------------------------------------
# line reader


def _read_lines(path: str, parse_line: Callable[[str], object]) -> list:
    """What ``parse_line`` returns for each line of the UTF-8 text file
    ``path``, in order, leaving out None.

    ``parse_line`` raises :class:`FormatError` without a location; it is
    re-raised naming ``path`` and the line. A byte that is not UTF-8 is
    the error ``not valid UTF-8`` at the first line holding one.
    """
    records = []
    lineno = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    record = parse_line(raw)
                except FormatError as exc:
                    raise FormatError(str(exc), path=path, line=lineno) from None
                if record is not None:
                    records.append(record)
    except UnicodeDecodeError:
        # the decoder reads ahead in chunks, so lineno need not be the bad
        # line; find it by re-reading with each bad byte kept as a lone
        # surrogate, which strict UTF-8 cannot encode
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    break
        raise FormatError("not valid UTF-8", path=path, line=lineno) from None
    return records


# ---------------------------------------------------------------------------
# parallel corpus


def _parse_tokens(raw: str) -> tuple[str, ...]:
    tokens = raw.split()
    if not tokens:
        raise FormatError("empty line")
    return tuple(tokens)


def read_token_lines(path: str) -> list[tuple[str, ...]]:
    """One whitespace-tokenized sentence per line; blank lines are errors."""
    return _read_lines(path, _parse_tokens)


def read_parallel_corpus(src_path: str, tgt_path: str) -> ParallelCorpus:
    """Read a line-parallel pair of token files into a corpus."""
    source = read_token_lines(src_path)
    target = read_token_lines(tgt_path)
    if len(source) != len(target):
        raise ValidationError(
            f"has {len(source)} lines, but {tgt_path} has {len(target)}", path=src_path
        )
    pairs = tuple(SentencePair(s, t) for s, t in zip(source, target))
    return ParallelCorpus(pairs)


def write_parallel_corpus(corpus: ParallelCorpus, src_path: str, tgt_path: str) -> None:
    write_token_lines([pair.source for pair in corpus], src_path)
    write_token_lines([pair.target for pair in corpus], tgt_path)


def write_token_lines(sentences: Sequence[Sequence[str]], path: str) -> None:
    _write_lines(map(_join_tokens, sentences), path, _parse_tokens)


def _join_tokens(tokens: Sequence[str]) -> str:
    """Tokens joined by spaces; one that is empty or holds whitespace is a FormatError."""
    line = " ".join(tokens)
    if line.split() != list(tokens):
        token = next(token for token in tokens if token.split() != [token])
        raise FormatError(f"token {token!r} is empty or holds whitespace")
    return line


# ---------------------------------------------------------------------------
# Pharaoh alignments


def parse_pharaoh(line: str) -> Alignment:
    """Parse one Pharaoh line (``"0-0 1-2"``) into an Alignment.

    An empty or whitespace-only line parses to an empty link set. Token
    order is irrelevant; duplicate links collapse. Indices are ASCII
    digits only.
    """
    links = set()
    for offset, token in enumerate(line.split(), start=1):
        left, sep, right = token.partition("-")
        if sep and token.isascii() and left.isdigit() and right.isdigit():
            try:
                links.add((int(left), int(right)))
                continue
            except ValueError:  # more digits than int() accepts
                pass
        raise FormatError(f"malformed alignment link {token!r} at token {offset}")
    return Alignment(frozenset(links))


def format_pharaoh(alignment: Alignment) -> str:
    return " ".join(f"{i}-{j}" for i, j in sorted(alignment.links))


def read_alignments(path: str, corpus: ParallelCorpus) -> list[Alignment]:
    """Read one Alignment per line from a Pharaoh file and check it against ``corpus``."""
    alignments = _read_lines(path, parse_pharaoh)
    check_alignments(corpus, alignments, path)
    return alignments


def check_alignments(
    corpus: ParallelCorpus, alignments: Sequence[Alignment], path: str | None = None
) -> None:
    """Check there is one alignment per sentence pair, each link inside its pair.

    Errors name ``path`` when it is given, and a bad link's 1-based pair
    number as its line.
    """
    if len(alignments) != len(corpus):
        raise ValidationError(
            f"{len(alignments)} alignments for a corpus of {len(corpus)} sentence pairs",
            path=path,
        )
    for number, (pair, alignment) in enumerate(zip(corpus, alignments), start=1):
        try:
            alignment.validate(len(pair.source), len(pair.target))
        except ValidationError as exc:
            raise ValidationError(str(exc), path=path, line=number) from None


def write_alignments(alignments: Sequence[Alignment], path: str) -> None:
    _write_lines(map(format_pharaoh, alignments), path, parse_pharaoh)


# ---------------------------------------------------------------------------
# k-best lists


def _parse_kbest_line(raw: str) -> tuple[int, KBestEntry]:
    """The sentence id and entry of one ``id ||| tokens ||| logprob`` line."""
    parts = raw.rstrip("\n").split(" ||| ")
    if len(parts) != 3:
        raise FormatError("expected `id ||| tokens ||| logprob`")
    try:
        if not (parts[0].isascii() and parts[0].isdigit()):
            raise ValueError
        sentence_id = int(parts[0])
    except ValueError:  # also more digits than int() accepts
        raise FormatError(f"unparsable sentence id {parts[0]!r}") from None
    hypothesis = tuple(parts[1].split())
    if not hypothesis:
        raise FormatError("empty hypothesis")
    try:
        logprob = float(parts[2])
    except ValueError:
        raise FormatError(f"unparsable log probability {parts[2]!r}") from None
    if not (math.isfinite(logprob) and logprob <= 0.0):
        raise FormatError(f"log probability must be finite and <= 0, got {parts[2]}")
    return sentence_id, KBestEntry(hypothesis, logprob)


def read_kbest(path: str) -> dict[int, KBestList]:
    """Read a ``id ||| tokens ||| logprob`` file, grouped by sentence id.

    Ids are ASCII digits and must be non-decreasing so each sentence's
    hypotheses form one contiguous block; order within a block is
    preserved.
    """
    previous_id = 0

    def parse_line(raw: str) -> tuple[int, KBestEntry]:
        nonlocal previous_id
        sentence_id, entry = _parse_kbest_line(raw)
        if sentence_id < previous_id:
            raise FormatError(
                f"sentence ids must be non-decreasing ({sentence_id} after {previous_id})"
            )
        previous_id = sentence_id
        return sentence_id, entry

    grouped: dict[int, list[KBestEntry]] = {}
    for sentence_id, entry in _read_lines(path, parse_line):
        grouped.setdefault(sentence_id, []).append(entry)
    return {
        sentence_id: KBestList(sentence_id, tuple(entries))
        for sentence_id, entries in grouped.items()
    }


def write_kbest(lists: Mapping[int, KBestList], path: str) -> None:
    """Write ``id ||| tokens ||| logprob`` lines in id order.

    A list with no entries, or held under a key other than its sentence
    id, would not read back, so it is a ValueError and no file is left.
    """
    for key, kbest in lists.items():
        if kbest.sentence_id != key:
            raise ValueError(f"k-best list {key!r} holds sentence id {kbest.sentence_id!r}")
        if not kbest.entries:
            raise ValueError(f"k-best list {key!r} has no entries")
    lines = (
        f"{sentence_id} ||| {_join_tokens(entry.hypothesis)} ||| {entry.nmt_logprob!r}"
        for sentence_id in sorted(lists)
        for entry in lists[sentence_id].entries
    )
    _write_lines(lines, path, _parse_kbest_line)


# ---------------------------------------------------------------------------
# token predictions


def _members(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict. A name given twice is a
    FormatError; json alone would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [name for name, _ in pairs]
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise FormatError(f"field {repeated!r} appears twice")
    return obj


_JSON_DECODER = json.JSONDecoder(object_pairs_hook=_members)


def _load_json_line(raw: str) -> dict:
    try:
        record = _JSON_DECODER.decode(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}") from None
    except ValueError:
        # json.loads refuses integers past the interpreter's digit limit
        raise FormatError("invalid JSON: integer too long") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    if not isinstance(record, dict):
        raise FormatError("record must be a JSON object")
    return record


def _require_int(record: dict, key: str, minimum: int) -> int:
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"field {key!r} must be an integer")
    if value < minimum:
        raise FormatError(f"field {key!r} must be >= {minimum}")
    return value


def _json_line(obj: dict) -> str:
    """One sorted-key JSON object; NaN or ±inf is json's ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _token_prediction_parser() -> Callable[[str], TokenPredictionRecord | None]:
    """A line parser for one file: it refuses a (sentence, position) pair
    that an earlier line of that file held."""
    seen_positions: set[tuple[int, int]] = set()

    def parse_line(raw: str) -> TokenPredictionRecord | None:
        if not raw.strip():
            return None
        obj = _load_json_line(raw)
        sentence_id = _require_int(obj, "sentence_id", 0)
        position = _require_int(obj, "position", 0)
        token = obj.get("token")
        if not isinstance(token, str):
            raise FormatError("field 'token' must be a string")
        probability = obj.get("probability")
        if isinstance(probability, bool) or not isinstance(probability, (int, float)):
            raise FormatError("field 'probability' must be a number")
        try:
            probability = float(probability)
        except OverflowError:  # a JSON integer too large for a float
            raise FormatError("probability is too large") from None
        if not 0.0 <= probability <= 1.0:
            raise FormatError(f"probability {probability} outside [0, 1]")
        correct = obj.get("correct")
        if correct is not None and not isinstance(correct, bool):
            raise FormatError("field 'correct' must be a boolean when present")
        key = (sentence_id, position)
        if key in seen_positions:
            raise FormatError(f"duplicate position {position} in sentence {sentence_id}")
        seen_positions.add(key)
        return TokenPredictionRecord(sentence_id, position, token, probability, correct)

    return parse_line


def read_token_predictions(path: str) -> list[TokenPredictionRecord]:
    """Read per-token prediction records from a JSON-lines file."""
    return _read_lines(path, _token_prediction_parser())


def write_token_predictions(records: Sequence[TokenPredictionRecord], path: str) -> None:
    """Write one JSON object per record; ``correct`` is left out when None."""

    def fields(record: TokenPredictionRecord) -> dict:
        obj = record._asdict()
        if record.correct is None:
            del obj["correct"]
        return obj

    _write_lines(map(_json_line, map(fields, records)), path, _token_prediction_parser())


# ---------------------------------------------------------------------------
# attention exports


def _attention_parser(build: Callable[[int, int, int, list], object]) -> Callable[[str], object]:
    """A line parser for one attention file: ``build(sentence_id, iteration,
    head, rows)`` from each line it accepts, where rows holds each row's
    float weights with their total. It refuses a (sentence, iteration,
    head) key that an earlier line of that file held."""
    seen_keys: set[tuple[int, int, int]] = set()

    def parse_line(raw: str) -> object:
        if not raw.strip():
            return None
        obj = _load_json_line(raw)
        sentence_id = _require_int(obj, "sentence_id", 0)
        iteration = _require_int(obj, "iteration", 1)
        head = _require_int(obj, "head", 0)
        weights = obj.get("weights")
        if not isinstance(weights, list) or not weights:
            raise FormatError("field 'weights' must be a non-empty matrix")
        rows = []
        # a first row that is not a list fails the first check below
        width = len(weights[0]) if isinstance(weights[0], list) else 0
        for row in weights:
            if not isinstance(row, list) or not row:
                raise FormatError("attention rows must be non-empty lists")
            if len(row) != width:
                raise FormatError("attention rows must all have the same length")
            # whole-row checks at C speed; type() also rules out bool
            kinds = set(map(type, row))
            if not kinds <= {int, float}:
                raise FormatError("attention weights must be numbers")
            values = row  # JSON gives floats; only a row holding an int is converted
            if int in kinds:
                try:
                    values = list(map(float, row))
                except OverflowError:  # a JSON integer too large for a float
                    raise FormatError("attention weight is too large") from None
            total = _add_in_order(values)
            if not (min(values) >= 0.0 and math.isfinite(total)):
                for value, weight in zip(values, row):
                    if not (math.isfinite(value) and value >= 0.0):
                        raise FormatError(f"attention weight {weight} must be finite and >= 0")
            # a finite row whose sum overflows fails here as "sums to inf"
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise FormatError(
                    f"attention row sums to {total!r}, more than "
                    f"{ROW_SUM_TOLERANCE} away from 1"
                )
            rows.append((values, total))
        key = (sentence_id, iteration, head)
        if key in seen_keys:
            raise FormatError(
                f"duplicate head {head} at iteration {iteration} in sentence {sentence_id}"
            )
        seen_keys.add(key)
        return build(sentence_id, iteration, head, rows)

    return parse_line


def _attention_record(
    sentence_id: int, iteration: int, head: int, rows: list[tuple[list[float], float]]
) -> AttentionRecord:
    normalized = tuple(tuple(map(total.__rtruediv__, values)) for values, total in rows)
    return AttentionRecord(sentence_id, iteration, head, normalized)


def read_attention(path: str) -> list[AttentionRecord]:
    """Read attention matrices from a JSON-lines file.

    Each row is checked once, in this order: every weight is a JSON
    number; every weight fits a float; no weight is negative or
    non-finite (the first such weight is named as written); the row sums,
    added left to right, to within 1e-4 of one. A row with defects of
    more than one kind gets the message of the first check it fails.
    Rows that pass are renormalized exactly. A (sentence, iteration, head)
    key may appear once. Errors name the offending record's line number.
    """
    return _read_lines(path, _attention_parser(_attention_record))


def write_attention(records: Sequence[AttentionRecord], path: str) -> None:
    """Write one JSON object per record."""
    parse_line = _attention_parser(_attention_record)
    _write_lines(map(_json_line, map(AttentionRecord._asdict, records)), path, parse_line)


# ---------------------------------------------------------------------------
# line writer and atomic output


def _write_lines(lines: Iterable[str], path: str, parse_line: Callable[[str], object]) -> None:
    """Write each line after reading it back with its reader's ``parse_line``.
    A FormatError from building or parsing line N is a ValueError
    ``record N: <message>`` and no file is left."""
    number = 1
    with atomic_write(path) as fh:
        try:
            for line in lines:
                parse_line(line)
                fh.write(line + "\n")
                number += 1
        except FormatError as exc:
            raise ValueError(f"record {number}: {exc}") from None


@contextmanager
def atomic_write(path: str):
    """Write to a new temp file beside ``path`` and rename it into place on
    success. The temp file is created exclusively, with the mode that
    ``open(path, "w")`` gives; on any error after that it is removed, so
    the destination is either untouched or complete. A symlink is written
    through: the file it names is replaced, and the link stays. An OSError
    that names the temp file, or no file, is raised naming ``path`` as given.
    """
    real_path = os.path.realpath(path)
    tmp_path = os.path.join(os.path.dirname(real_path), f".tmp.{os.urandom(6).hex()}~")
    try:
        fh = open(tmp_path, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                yield fh
            os.replace(tmp_path, real_path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.strerror is None or exc.filename not in (None, tmp_path):
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc
