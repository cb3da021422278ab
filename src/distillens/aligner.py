"""Word alignment without external tools.

IBM Model 1 trained by expectation maximization, greedy per-token
alignment under the trained table, and a log-probability score for how
well an alignment explains a sentence pair. Model 1 has no distortion
component, so it is fully determined by the corpus and the iteration
count: initialization is uniform over each source word's co-occurring
target vocabulary and counts are accumulated in sentence order, making
repeated runs bit-identical.

Every source sentence is extended with a leading NULL word that can
absorb target tokens with no lexical counterpart.
"""

from __future__ import annotations

import math
from sys import intern
from typing import Callable, Iterable

from .corpus_io import Alignment, ParallelCorpus, SentencePair, _read_lines, atomic_write
from .corpus_io import _add_in_order, _Frozen
from .errors import FormatError

__all__ = [
    "NULL_TOKEN",
    "TranslationTable",
    "train_ibm1",
    "viterbi_align",
    "word_alignment_score",
    "corpus_log_likelihood",
    "read_table",
    "write_table",
]

NULL_TOKEN = "<NULL>"

# Stands in for p(y|x) whenever a pair is out of vocabulary or has
# underflowed to zero, keeping log scores finite.
PROB_FLOOR = 1e-12


class TranslationTable(_Frozen):
    """Word translation probabilities p(target word | source word).

    ``probs[x][y]`` holds p(y|x). Each source word's row sums to one;
    there is always a row for :data:`NULL_TOKEN`. A table read with
    ``keep=`` (see :func:`read_table`) holds only some rows, which need
    not sum to one; :meth:`prob` answers as the full table does for them.
    """

    __slots__ = ("probs",)
    probs: dict[str, dict[str, float]]

    def __init__(self, probs: dict[str, dict[str, float]]) -> None:
        object.__setattr__(self, "probs", probs)

    def prob(self, source_word: str, target_word: str) -> float:
        """Look up p(target_word | source_word), floored at PROB_FLOOR."""
        row = self.probs.get(source_word)
        if row is None:
            return PROB_FLOOR
        return max(row.get(target_word, 0.0), PROB_FLOOR)


def train_ibm1(
    corpus: ParallelCorpus,
    iterations: int,
    on_iteration: Callable[[int, float], None] | None = None,
) -> TranslationTable:
    """Run `iterations` rounds of IBM Model 1 EM over the corpus.

    Starts from a uniform distribution over each source word's
    co-occurring target words. ``on_iteration`` is called after each
    E step with the 1-based round number and the corpus log-likelihood
    of the table that round started from; the likelihood sequence is
    non-decreasing.

    EM runs over flat lists. Each source word gets an id in order of
    first appearance (NULL is 0), and each co-occurring (x, y) pair a
    slot id, so a round is list indexing in the same (pair, target
    position, source position) order as a walk over nested dicts, and
    every sum, and so every float, comes out the same.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")

    word_ids: dict[str, int] = {NULL_TOKEN: 0}
    # rows[xid] maps y to its slot; the dicts double as the final table
    # rows, so their insertion order is the table's column order.
    rows: list[dict] = [{}]
    slot_word: list[int] = []
    plan: list[tuple[list[int], list[list[int]]]] = []
    for pair in corpus:
        xids = [0]
        for x in pair.source:
            xid = word_ids.get(x)
            if xid is None:
                xid = word_ids[x] = len(rows)
                rows.append({})
            xids.append(xid)
        token_slots = []
        for y in pair.target:
            slots = []
            for xid in xids:
                row = rows[xid]
                slot = row.get(y)
                if slot is None:
                    slot = row[y] = len(slot_word)
                    slot_word.append(xid)
                slots.append(slot)
            token_slots.append(slots)
        plan.append((xids, token_slots))

    prob = [1.0 / len(rows[xid]) for xid in slot_word]
    for round_number in range(1, iterations + 1):
        count = [0.0] * len(prob)
        total = [0.0] * len(rows)
        log_likelihood = 0.0
        for xids, token_slots in plan:
            n = len(xids)
            for slots in token_slots:
                scores = [prob[s] for s in slots]
                z = _add_in_order(scores)
                log_likelihood += math.log(z / n)
                for s, xid, score in zip(slots, xids, scores):
                    delta = score / z
                    count[s] += delta
                    total[xid] += delta
        if on_iteration is not None:
            on_iteration(round_number, log_likelihood)
        # Dropping each list once it is spent lets the next one reuse its
        # memory: with three float lists alive at once, peak RSS on 300
        # pairs was 3 MB higher.
        del prob
        prob = [c / total[xid] for c, xid in zip(count, slot_word)]
        del count

    for row in rows:
        for y, slot in row.items():
            row[y] = prob[slot]
    # A word seen only in pairs with an empty target side has no
    # co-occurring target, gets no count and so gets no row.
    return TranslationTable(
        {x: rows[xid] for x, xid in word_ids.items() if total[xid] > 0.0}
    )


def corpus_log_likelihood(corpus: ParallelCorpus, table: TranslationTable) -> float:
    """Model 1 log-likelihood of the corpus target sides, in nats."""
    total = 0.0
    for pair in corpus:
        extended = (NULL_TOKEN,) + pair.source
        for y in pair.target:
            z = _add_in_order(table.prob(x, y) for x in extended)
            total += math.log(z / len(extended))
    return total


def viterbi_align(pair: SentencePair, table: TranslationTable) -> Alignment:
    """Link each target token to its most probable source word.

    NULL occupies position zero of the extended source sentence, so on
    exact ties the smallest index wins: NULL beats every real position,
    and earlier real positions beat later ones. Tokens won by NULL are
    left out of the returned link set.
    """
    # Comparing raw entries against a floored running best is the same
    # as comparing floored entries: an entry at or below PROB_FLOOR can
    # never beat it. A missing row reads as all zeros.
    probs = table.probs
    null_row = probs.get(NULL_TOKEN, {})
    rows = [probs.get(x, {}) for x in pair.source]
    links = set()
    for j, y in enumerate(pair.target):
        best_index = None
        best_prob = max(null_row.get(y, 0.0), PROB_FLOOR)
        for i, row in enumerate(rows):
            p = row.get(y, 0.0)
            if p > best_prob:
                best_prob = p
                best_index = i
        if best_index is not None:
            links.add((best_index, j))
    return Alignment(frozenset(links))


def word_alignment_score(
    pair: SentencePair, alignment: Alignment, table: TranslationTable
) -> float:
    """Sum of ln p(target token | its aligned source word), in nats.

    A target token linked to several source words is scored against the
    leftmost one; unaligned target tokens are scored against NULL.
    Unseen pairs contribute ln(PROB_FLOOR).
    """
    alignment.validate(len(pair.source), len(pair.target))
    chosen = alignment.leftmost_by_target()
    total = 0.0
    for j, y in enumerate(pair.target):
        i = chosen.get(j)
        x = NULL_TOKEN if i is None else pair.source[i]
        total += math.log(table.prob(x, y))
    return total


def write_table(table: TranslationTable, path: str) -> None:
    """Serialize a table as tab-separated ``x  y  p`` rows, sorted.

    A probability outside [0, 1], NaN included, a word holding a tab
    or a line break, or a source word with an empty row (it has no line)
    is a ValueError and no file is left, so what is written always reads
    back. Each row is checked at C speed rather than by read_table's
    line parser, which would double the write time.
    """
    with atomic_write(path) as fh:
        for x in sorted(table.probs):
            row = table.probs[x]
            if not row:
                raise ValueError(f"source word {x!r} has an empty row")
            values = row.values()
            # whole-row check at C speed; min and max skip a NaN that is
            # not first, the sum does not
            if not (
                math.isfinite(sum(values))
                and min(values) >= 0.0
                and max(values) <= 1.0
            ):
                y, p = next((y, p) for y, p in row.items() if not 0.0 <= p <= 1.0)
                raise ValueError(f"p({y!r} | {x!r}) must be in [0, 1], got {p!r}")
            chunk = "".join([f"{x}\t{y}\t{row[y]!r}\n" for y in sorted(row)])
            # each row adds at least two tabs and one newline, so one more
            # means a word holds it
            if chunk.count("\t") + chunk.count("\n") != 3 * len(row) or "\r" in chunk:
                word = next(w for w in (x, *row) if any(c in w for c in "\t\n\r"))
                raise ValueError(f"word {word!r} holds a tab or a line break")
            fh.write(chunk)


def read_table(
    path: str, *, keep: tuple[Iterable[str], Iterable[str]] | None = None
) -> TranslationTable:
    """Read a table written by :func:`write_table`.

    Each distinct target word is stored once (``sys.intern``) and shared by
    every row that holds it.

    ``keep=(source_words, target_words)`` stores only the rows whose
    source word is :data:`NULL_TOKEN` or in ``source_words`` and whose
    target word is in ``target_words``. Every line is still checked, so a
    bad line fails with the same message and line number either way, and
    the kept table answers :meth:`TranslationTable.prob` identically for
    those words; its rows need not sum to one.
    """
    probs: dict[str, dict[str, float]] = {}
    last_x: str | None = None
    row: dict[str, float] | None = {}
    kept_sources = kept_targets = None
    if keep is not None:
        kept_sources = {NULL_TOKEN, *keep[0]}
        kept_targets = set(keep[1])

    def parse_line(raw: str) -> None:
        nonlocal last_x, row
        # the line's "\n" stays on the last field until a message needs it gone
        try:
            x, y, raw_prob = raw.split("\t")
        except ValueError:
            if not raw.rstrip("\n"):
                return
            raise FormatError("expected `source<TAB>target<TAB>probability`") from None
        try:
            p = float(raw_prob)
        except ValueError:
            shown = raw_prob.rstrip("\n")
            raise FormatError(f"unparsable probability {shown!r}") from None
        if not 0.0 <= p <= 1.0:
            shown = raw_prob.rstrip("\n")
            if 1.0 < p < math.inf:
                raise FormatError(f"probability must be <= 1, got {shown}")
            raise FormatError(f"probability must be finite and >= 0, got {shown}")
        # write_table keeps each source word's rows together, so the row
        # is looked up once per run of lines; a word that comes back later
        # still finds its dict. A source word that is not kept has row None.
        if x != last_x:
            last_x = x
            row = probs.setdefault(x, {}) if kept_sources is None or x in kept_sources else None
        if row is not None and (kept_targets is None or y in kept_targets):
            row[intern(y)] = p

    # parse_line stores each line in probs through its cached row and
    # returns None, so _read_lines collects nothing for a table
    _read_lines(path, parse_line)
    return TranslationTable(probs)
