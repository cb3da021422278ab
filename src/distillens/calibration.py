"""Model-analysis quantities from exported model outputs.

Two families of measurements live here. From attention exports:
per-matrix attention confidence (mean over target rows of the largest
source weight) and its per-decoding-iteration aggregation. From token
prediction exports: average confidence, token-level accuracy against a
reference via edit-distance matching, and the expected calibration
error (ECE) with equal-width confidence bins.

All quantities are fractions in [0, 1]; callers that want percentages
format them at display time.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus_io import (
    AttentionRecord, TokenPredictionRecord, _add_in_order, _check_attention, _read_lines
)
from .errors import ValidationError

__all__ = [
    "Bin",
    "CalibrationReport",
    "attention_confidence",
    "confidence_by_iteration",
    "token_accuracy",
    "expected_calibration_error",
    "average_confidence",
    "fill_correctness",
]

DEFAULT_BINS = 10
# ECE keeps three lists of n_bins entries and reports every bin, so the
# count is bounded; 1000 is far above the 10-20 bins used in practice
# (Guo et al. 2017 use 15)
MAX_BINS = 1000


class Bin(NamedTuple):
    """One equal-width confidence bin of the reliability diagram."""

    count: int
    mean_confidence: float
    mean_accuracy: float


class CalibrationReport(NamedTuple):
    """Overall accuracy/confidence plus the binned calibration gap.

    The ece field is computed from the bins, so recomputing
    sum((count / total) * abs(mean_accuracy - mean_confidence)) over
    the bins reproduces it bit for bit. The confidence field adds the
    per-bin probability sums in bin order, while average_confidence adds
    the probabilities left to right, so the two can differ in the last
    digits: 0.6698582575406031 against 0.6698582575406005 on the 4310
    tokens of perfbench's calib-long input at seed 0.
    """

    accuracy: float
    confidence: float
    ece: float
    bins: tuple[Bin, ...]

    @property
    def total(self) -> int:
        return sum(b.count for b in self.bins)

    def to_dict(self) -> dict:
        bins = [b._asdict() for b in self.bins]
        return {**self._asdict(), "bins": bins, "n_bins": len(self.bins)}


def attention_confidence(
    attention: AttentionRecord | Sequence[Sequence[float]],
) -> float:
    """Mean over target rows of the row's maximum attention weight.

    Accepts either a parsed attention record or a bare weight matrix
    with one row per target position.
    """
    rows = attention.weights if isinstance(attention, AttentionRecord) else attention
    return _mean_peak([max(row) for row in rows])


def _mean_peak(peaks: Sequence[float]) -> float:
    """Attention confidence of a matrix from the largest weight of each row."""
    if not peaks:
        raise ValueError("attention matrix has no rows")
    return _add_in_order(peaks) / len(peaks)


def confidence_by_iteration(
    records: Sequence[AttentionRecord],
) -> dict[int, float]:
    """Mean attention confidence per decoding iteration.

    Every record at an iteration counts once, whatever its sentence or
    head, and the result maps iterations in ascending order.
    """
    if not records:
        raise ValueError("records must be non-empty")
    return _confidence_by_iteration(
        (record.iteration, attention_confidence(record)) for record in records
    )


def _confidence_by_iteration(
    confidences: Iterable[tuple[int, float]],
) -> dict[int, float]:
    """confidence_by_iteration from each matrix's iteration and confidence."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for iteration, confidence in confidences:
        sums[iteration] = sums.get(iteration, 0.0) + confidence
        counts[iteration] = counts.get(iteration, 0) + 1
    return {
        iteration: sums[iteration] / counts[iteration]
        for iteration in sorted(sums)
    }


def _parse_attention_confidence(raw: str) -> tuple[int, float] | None:
    checked = _check_attention(raw)
    if checked is None:
        return None
    _, iteration, _, rows = checked
    # dividing by a positive total keeps the order of the weights, so each
    # peak is bit for bit the largest weight of the renormalized row
    return iteration, _mean_peak([max(values) / total for values, total in rows])


def _read_attention_confidence(path: str) -> list[tuple[int, float]]:
    """The iteration and attention confidence of each matrix in an attention
    file, with the checks and errors of read_attention; each matrix is
    reduced to its confidence as its line is read."""
    return _read_lines(path, _parse_attention_confidence)


def _edit_distance(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """Unit-cost Levenshtein distance by bit-parallel columns.

    Myers (1999) in Hyyrö's (2001) formulation: bit r of the vertical
    delta vectors pv/mv says whether the distance table goes up/down by
    one from row r to row r + 1 of the current column, rows indexing ref
    and columns hyp. A Python int holds the whole column, so each hyp
    token costs a fixed number of big-int operations.
    """
    if not ref:
        return len(hyp)
    peq: dict[str, int] = {}
    for r, token in enumerate(ref):
        peq[token] = peq.get(token, 0) | 1 << r
    column = (1 << len(ref)) - 1
    last = 1 << (len(ref) - 1)
    pv, mv = column, 0
    distance = len(ref)
    for token in hyp:
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        # row 0 of the table grows by one per column, hence the carried-in 1
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & column
        mv = ph & xv
    return distance


def token_accuracy(
    hypothesis: Sequence[str], reference: Sequence[str]
) -> list[bool]:
    """Per-hypothesis-token correctness under a minimal edit alignment.

    A hypothesis token is correct when a minimum-cost edit alignment
    (unit-cost insert/delete/substitute) pairs it with an identical
    reference token. Ties between equal-cost alignments go first to the
    one with more matches, then to the one whose matched hypothesis
    positions are lexicographically earliest, so the output is unique.

    One backward pass over two rolling rows. The cell for hyp[i:] and
    ref[j:] holds the triple (cost, -matches, -mask), where mask has bit
    len(hyp) - 1 - p set for every matched hypothesis position p.
    Optimal alignments can differ in their number of matches (hyp "a b"
    against ref "b a" costs 2 by two substitutions and by delete, match,
    insert), so -matches picks the one with the most. Among those, of two
    equal-size position sets the lexicographically earlier one holds the
    smallest position where they differ, so it has the larger mask.
    Lexicographic order on these additive triples is preserved under
    addition, so the cell-wise minimum is the global optimum and the
    labels are the bits of the mask at the first cell.

    A cell whose tokens match takes the match. A path that deletes
    hyp[i] and later pairs ref[j] with hyp[k] or inserts it has no fewer
    edits, no more matches and no earlier match than one that matches
    hyp[i] with ref[j] and deletes hyp[i + 1:k + 1] instead, whose cells
    lie between two of the first path's, so in the band below.
    Inserting ref[j] first is the mirror case.

    Each triple is packed into one int whose integer order is the
    triple's order. With n = len(hyp), full = 2**n - 1 and
    S = n + n.bit_length() + 1, the fields from the top are

        cost << S | (n - matches) << n | (full - mask)

    The low field takes n bits and the middle one n.bit_length() + 1, so
    each field fits below the next. An edit adds 1 << S; a match at
    position i subtracts 1 << n and the position's bit. Neither ever
    borrows: a path matches each hypothesis position at most once, so
    it matches at most n times, and the bit of position i is still set
    in the low field of every cell for hyp[i + 1:]. So integer
    comparison and the arithmetic act field by field, as on the triples.

    The pass visits only a diagonal band (Ukkonen 1985). With d the edit
    distance, found first by _edit_distance, any path through cell
    (i, j) costs at least |i - j| to reach it and |(n - i) - (m - j)|
    to finish, so a cell where that sum exceeds d lies on no path of
    cost d. Every optimal alignment costs exactly d, so it stays inside
    the band; cells outside count as infinite cost, and the minimum over
    in-band paths is the same triple as the minimum over all paths. The
    labels and the tie rule are therefore unchanged. An outside cell
    holds cost n + m + 1, more than any path costs, so it never wins a
    minimum: the diagonal neighbour of an in-band cell is in the band,
    so a real cell is always among the candidates.
    """
    hyp = list(hypothesis)
    ref = list(reference)
    n_hyp = len(hyp)
    n_ref = len(ref)
    if n_hyp == 0:
        return []

    # cell (i, j) is in the band when its diagonal k = j - i has
    # |k| + |k - skew| <= d, i.e. low <= k <= high
    skew = n_ref - n_hyp
    slack = (_edit_distance(hyp, ref) - abs(skew)) // 2
    low = min(0, skew) - slack
    high = max(0, skew) + slack

    full = (1 << n_hyp) - 1
    shift = n_hyp + n_hyp.bit_length() + 1
    edit = 1 << shift
    # the key of (cost 0, no matches, empty mask)
    empty = n_hyp << n_hyp | full
    outside = (n_hyp + n_ref + 1) << shift | empty

    # below[j]: key of the best alignment of hyp[i + 1:] with ref[j:]
    below = [
        (n_ref - j) << shift | empty if low <= j - n_hyp <= high else outside
        for j in range(n_ref + 1)
    ]
    # the two rows swap after each step and are never rebuilt: the band
    # moves left by one cell per row, so the only out-of-band cells read
    # are the one just above the band, reset here, and the one just
    # below it, which no earlier row wrote
    row = [outside] * (n_ref + 1)
    for i in range(n_hyp - 1, -1, -1):
        token = hyp[i]
        match = (1 << n_hyp) + (1 << (n_hyp - 1 - i))
        top = min(n_ref - 1, i + high)
        row[top + 1] = outside
        if n_ref - i <= high:  # n_ref - i > skew >= low always holds
            row[n_ref] = (n_hyp - i) << shift | empty
        left = row[top + 1]
        diagonal = below[top + 1]
        for j in range(top, max(0, i + low) - 1, -1):
            up = below[j]
            if token == ref[j]:
                best = diagonal - match
            else:
                # substitution, deletion and insertion all cost one edit
                best = diagonal if diagonal < up else up
                if left < best:
                    best = left
                best += edit
            row[j] = left = best
            diagonal = up
        below, row = row, below

    mask = full - (below[0] & full)
    return [bit == "1" for bit in format(mask, f"0{n_hyp}b")]


def expected_calibration_error(
    records: Sequence[TokenPredictionRecord], n_bins: int = DEFAULT_BINS
) -> CalibrationReport:
    """Bin tokens by confidence and average the accuracy-confidence gap.

    Equal-width bins over [0, 1]; a token with confidence p lands in
    bin min(int(p * n_bins), n_bins - 1). ECE weights each bin's
    absolute gap by its share of the tokens. Empty bins report zero
    means and contribute nothing. n_bins runs from 1 to MAX_BINS.
    """
    if not 1 <= n_bins <= MAX_BINS:
        raise ValueError(f"n_bins must be in 1..{MAX_BINS}, got {n_bins}")
    if not records:
        raise ValueError("records must be non-empty")
    counts = [0] * n_bins
    confidence_sums = [0.0] * n_bins
    correct_counts = [0] * n_bins
    for record in records:
        if record.correct is None:
            raise ValidationError(
                "record for sentence "
                f"{record.sentence_id} position {record.position} has no "
                "correct flag; ingest one or fill it from hypothesis and "
                "reference tokens"
            )
        index = min(int(record.probability * n_bins), n_bins - 1)
        counts[index] += 1
        confidence_sums[index] += record.probability
        correct_counts[index] += record.correct
    total = len(records)
    bins = []
    ece = 0.0
    for count, conf_sum, correct in zip(counts, confidence_sums, correct_counts):
        if count:
            mean_confidence = conf_sum / count
            mean_accuracy = correct / count
            ece += (count / total) * abs(mean_accuracy - mean_confidence)
        else:
            mean_confidence = 0.0
            mean_accuracy = 0.0
        bins.append(Bin(count, mean_confidence, mean_accuracy))
    accuracy = sum(correct_counts) / total
    confidence = _add_in_order(confidence_sums) / total
    return CalibrationReport(accuracy, confidence, ece, tuple(bins))


def average_confidence(records: Sequence[TokenPredictionRecord]) -> float:
    """Unweighted mean probability over all tokens."""
    if not records:
        raise ValueError("records must be non-empty")
    return _add_in_order(record.probability for record in records) / len(records)


def fill_correctness(
    records: Sequence[TokenPredictionRecord],
    hypotheses: Mapping[int, Sequence[str]],
    references: Mapping[int, Sequence[str]],
) -> list[TokenPredictionRecord]:
    """Attach correct flags computed by token_accuracy per sentence.

    Records that already carry a flag keep it. For the rest, the
    record's sentence_id selects a hypothesis/reference pair, and the
    record's position and token must agree with that hypothesis.
    """
    labelled: dict[int, tuple[Sequence[str], list[bool]]] = {}
    filled = []
    for record in records:
        if record.correct is not None:
            filled.append(record)
            continue
        sid = record.sentence_id
        if sid not in labelled:
            if sid not in hypotheses:
                raise ValidationError(
                    f"no hypothesis for sentence {sid} referenced by a prediction"
                )
            if sid not in references:
                raise ValidationError(
                    f"no reference for sentence {sid} referenced by a prediction"
                )
            labelled[sid] = hypotheses[sid], token_accuracy(hypotheses[sid], references[sid])
        hyp, labels = labelled[sid]
        if record.position >= len(hyp):
            raise ValidationError(
                f"prediction position {record.position} out of range for "
                f"sentence {sid} ({len(hyp)} hypothesis tokens)"
            )
        if record.token != hyp[record.position]:
            raise ValidationError(
                f"prediction token {record.token!r} at sentence {sid} "
                f"position {record.position} does not match hypothesis "
                f"token {hyp[record.position]!r}"
            )
        # built directly: _replace gives the same record at twice the cost
        flag = labels[record.position]
        filled.append(
            TokenPredictionRecord(sid, record.position, record.token, record.probability, flag)
        )
    return filled
