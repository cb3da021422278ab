"""Command-line entry point.

Subcommands: align, metrics, select, preorder, calibrate, attn,
report. Structured results go to JSON, plot-feeding tables to CSV;
progress and human-readable summaries go to stderr so the output
files stay machine-parsable. All output files are written atomically
and are byte-identical across runs on the same inputs.

Exit codes: 0 on success, 1 for domain errors (malformed or
inconsistent data), 2 for usage and I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import marshal
import os
import sys
from typing import Iterable, Sequence

from .aligner import (
    NULL_TOKEN,
    TranslationTable,
    read_table,
    train_ibm1,
    viterbi_align,
    write_table,
)
from .calibration import (
    DEFAULT_BINS,
    MAX_BINS,
    _attention_curve,
    confidence_by_iteration,
    expected_calibration_error,
    fill_correctness,
)
from .complexity import (
    DEFAULT_SMOOTHING,
    ComplexityReport,
    check_smoothing,
    compute_report,
    conditional_distribution,
)
from .corpus_io import (
    Alignment,
    ParallelCorpus,
    atomic_write,
    read_alignments,
    read_attention,
    read_kbest,
    read_parallel_corpus,
    read_token_lines,
    read_token_predictions,
    write_alignments,
    write_token_lines,
)
from .errors import DistillensError, FormatError, ValidationError
from .preorder import monotone_preorder
from .selection import (
    COMPLEXITY_KINDS,
    ScoredHypothesis,
    SelectionConfig,
    _best_rank,
    _similarities,
    score_hypotheses,
)

__all__ = ["run", "main"]


def _write_json(payload: dict, path: str) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str) -> None:
    """Write a CSV; csv.writer gives floats their shortest round-trip form."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _nonempty(records, path: str, what: str):
    """Return records, or reject the file they came from for holding none."""
    if not records:
        raise FormatError(f"holds no {what}", path=path)
    return records


def _read_corpus(src_path: str, tgt_path: str, em: bool = False) -> ParallelCorpus:
    """The corpus, refused when empty; with ``em``, EM will train on it, so
    its source side must not hold the NULL word."""
    corpus = _nonempty(read_parallel_corpus(src_path, tgt_path), src_path, "sentences")
    if em:
        _refuse_null_word((pair.source for pair in corpus), src_path)
    return corpus


def _refuse_null_word(sentences: Iterable[tuple[str, ...]], path: str) -> None:
    """Refuse a source word spelled like the aligner's NULL word: EM and
    the table lookups would merge it into the NULL row."""
    for line, sentence in enumerate(sentences, start=1):
        if NULL_TOKEN in sentence:
            message = f"the source word {NULL_TOKEN} is reserved for the aligner's NULL word"
            raise FormatError(message, path=path, line=line)


def _train_and_align(
    corpus: ParallelCorpus, iterations: int, prefix: str
) -> tuple[TranslationTable, list[Alignment]]:
    """EM-train a table, reporting each round on stderr, then Viterbi-align."""

    def progress(round_number: int, log_likelihood: float) -> None:
        print(
            f"{prefix}iteration {round_number} log-likelihood {log_likelihood:.6f}",
            file=sys.stderr,
        )

    table = train_ibm1(corpus, iterations, on_iteration=progress)
    return table, [viterbi_align(pair, table) for pair in corpus]


def _linked(alignments: list[Alignment], path: str) -> list[Alignment]:
    """Return alignments, or reject the file they came from for holding no
    link: with none, every metric is undefined."""
    _nonempty(any(alignment.links for alignment in alignments), path, "alignment links")
    return alignments


def _alignments(
    corpus: ParallelCorpus, path: str | None, src_path: str, iterations: int, prefix: str
) -> list[Alignment]:
    """The corpus's alignments: read from path when given, else trained by
    EM on the corpus read from src_path."""
    if path is not None:
        return _linked(read_alignments(path, corpus), path)
    return _linked(_train_and_align(corpus, iterations, prefix)[1], src_path)


def _write_reports(
    payload: dict, reports: dict[str, ComplexityReport], args: argparse.Namespace
) -> None:
    """Write the JSON payload and, with --csv, one row per named report."""
    _write_json(payload, args.out)
    if args.csv is not None:
        header = ["corpus", *ComplexityReport._fields]
        rows = ([name, *report] for name, report in reports.items())
        _write_csv(header, rows, args.csv)


def _fork_similarities(lists: dict, references: list) -> tuple[int, int] | None:
    """Fork a child that computes every k-best list's similarities, the half
    of scoring that needs no table, and writes them to a pipe as one
    marshal blob, which keeps each float exact. Returns its pid and the
    pipe's read end, or None where no child can start: no os.fork, another
    thread running (the child could find one of its locks held), or a
    failing os.pipe or os.fork. The caller then computes them itself."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return None
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child never returns into the caller
        code = 1
        try:
            os.close(read_fd)
            sims = [_similarities(kbest.entries, references[i]) for i, kbest in lists.items()]
            blob = memoryview(marshal.dumps(sims))
            while blob:
                blob = blob[os.write(write_fd, blob):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _reap_similarities(child: tuple[int, int], kill: bool = False) -> list | None:
    """Read the blob of ``_fork_similarities``'s child and reap the child,
    killed first with ``kill``. Returns the similarities, or None when the
    child was killed, exited non-zero or left a short blob."""
    pid, read_fd = child
    chunks = []
    try:
        if kill:
            import signal  # imported here, so that only a refused run pays for it

            os.kill(pid, signal.SIGKILL)
        while chunk := os.read(read_fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        status = os.waitpid(pid, 0)[1]
    try:
        return marshal.loads(b"".join(chunks)) if status == 0 else None
    except (EOFError, ValueError, TypeError):
        return None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_align(args: argparse.Namespace) -> None:
    corpus = _read_corpus(args.src, args.tgt, em=True)
    table, alignments = _train_and_align(corpus, args.iters, "")
    write_alignments(alignments, args.out)
    if args.table is not None:
        write_table(table, args.table)


def _cmd_metrics(args: argparse.Namespace) -> None:
    real_flags = [args.real_src, args.real_tgt, args.real_align]
    if any(flag is not None for flag in real_flags) and None in real_flags:
        args.parser.error(
            "--real-src, --real-tgt and --real-align must be given together"
        )
    check_smoothing(args.alpha)
    corpus = _read_corpus(args.src, args.tgt)
    alignments = _linked(read_alignments(args.align, corpus), args.align)
    reference_table = None
    if args.real_src is not None:
        real_corpus = _read_corpus(args.real_src, args.real_tgt)
        real_alignments = _linked(read_alignments(args.real_align, real_corpus), args.real_align)
        reference_table = conditional_distribution(real_corpus, real_alignments)
    report = compute_report(
        corpus, alignments, reference_table=reference_table, alpha=args.alpha
    )
    _write_reports(report.to_dict(), {args.src: report}, args)


def _cmd_select(args: argparse.Namespace) -> None:
    if args.cxty != "nmt" and args.table is None:
        args.parser.error(f"--cxty {args.cxty} requires --table")
    config = SelectionConfig(args.lam, args.cxty)
    lists = read_kbest(args.kbest)
    references = read_token_lines(args.ref)
    sources = read_token_lines(args.src)
    if args.cxty != "nmt":
        _refuse_null_word(sources, args.src)
    # one output line per k-best list, so ids 0..K-1 (read_kbest keeps
    # them in ascending order) keep the output line-parallel with the
    # first K lines of --src and --ref
    line_count = min(len(references), len(sources))
    if list(lists) != list(range(len(lists))) or len(lists) > line_count:
        raise ValidationError(
            f"k-best sentence ids must be exactly 0..K-1 with K <= {line_count}, "
            f"the line count of {args.ref} and {args.src}",
            path=args.kbest,
        )
    table = None
    sims = None
    if args.table is not None:
        child = _fork_similarities(lists, references)
        try:
            # store only the rows scoring can look up
            hypothesis_words = {
                y for kbest in lists.values() for entry in kbest.entries for y in entry.hypothesis
            }
            source_words = {x for sentence in sources for x in sentence}
            table = read_table(args.table, keep=(source_words, hypothesis_words))
        except BaseException:
            if child is not None:
                _reap_similarities(child, kill=True)
            raise
        if child is not None:
            sims = _reap_similarities(child)
    scored_lists = [
        score_hypotheses(
            kbest, references[sentence_id], sources[sentence_id], config, table,
            sims=None if sims is None else sims[sentence_id],
        )
        for sentence_id, kbest in lists.items()
    ]
    best_ranks = list(map(_best_rank, scored_lists))
    write_token_lines(
        [scored[best].entry.hypothesis for scored, best in zip(scored_lists, best_ranks)],
        args.out,
    )
    if args.scores is not None:
        header = ["sentence_id", "rank", *ScoredHypothesis._fields[1:], "selected", "hypothesis"]
        rows = (
            [sentence_id, rank, *scores, int(rank == best), " ".join(entry.hypothesis)]
            for sentence_id, (scored, best) in enumerate(zip(scored_lists, best_ranks))
            for rank, (entry, *scores) in enumerate(scored)
        )
        _write_csv(header, rows, args.scores)


def _cmd_preorder(args: argparse.Namespace) -> None:
    corpus = read_parallel_corpus(args.src, args.tgt)
    alignments = read_alignments(args.align, corpus)
    new_sources = []
    new_alignments = []
    for pair, alignment in zip(corpus, alignments):
        new_source, new_alignment = monotone_preorder(pair.source, alignment)
        new_sources.append(new_source)
        new_alignments.append(new_alignment)
    write_token_lines(new_sources, args.out_src)
    write_alignments(new_alignments, args.out_align)


def _cmd_calibrate(args: argparse.Namespace) -> None:
    if (args.hyp is None) != (args.ref is None):
        args.parser.error("--hyp and --ref must be given together")
    records = _nonempty(read_token_predictions(args.preds), args.preds, "token predictions")
    if args.hyp is not None:
        pairs = read_parallel_corpus(args.hyp, args.ref)
        hypotheses = {i: pair.source for i, pair in enumerate(pairs)}
        references = {i: pair.target for i, pair in enumerate(pairs)}
    try:
        if args.hyp is not None:
            records = fill_correctness(records, hypotheses, references)
        report = expected_calibration_error(records, args.bins)
    except ValidationError as exc:  # a record that does not fit the inputs
        raise ValidationError(str(exc), path=args.preds) from None
    _write_json(report.to_dict(), args.out)
    print(
        f"accuracy {report.accuracy * 100:.2f}% "
        f"confidence {report.confidence * 100:.2f}% "
        f"ece {report.ece * 100:.2f}%",
        file=sys.stderr,
    )


def _cmd_attn(args: argparse.Namespace) -> None:
    curve = _nonempty(_attention_curve(args.attn), args.attn, "attention records")
    _write_csv(["iteration", "mean_confidence"], curve.items(), args.out)


def _cmd_report(args: argparse.Namespace) -> None:
    check_smoothing(args.alpha)
    real = _read_corpus(args.real_src, args.real_tgt, em=args.real_align is None)
    distilled = _read_corpus(
        args.distilled_src, args.distilled_tgt, em=args.distilled_align is None
    )
    real_alignments = _alignments(real, args.real_align, args.real_src, args.iters, "real: ")
    distilled_alignments = _alignments(
        distilled, args.distilled_align, args.distilled_src, args.iters, "distilled: "
    )
    # both corpora are measured against the real corpus's conditionals
    real_table = conditional_distribution(real, real_alignments)
    reports = {
        "real": compute_report(real, real_alignments, alpha=args.alpha),
        "distilled": compute_report(distilled, distilled_alignments, real_table, args.alpha),
    }
    payload = {name: report.to_dict() for name, report in reports.items()}
    _write_reports(payload, reports, args)


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _output_path(text: str) -> str:
    """An output file path; checked before any input is read, so a bad
    one leaves no other output behind. A symlink is checked, and written,
    as the file it names, which need not exist yet."""
    if not text:
        raise argparse.ArgumentTypeError("output path must not be empty")
    target = os.path.realpath(text)
    if os.path.isdir(target):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: it is a directory")
    if os.path.lexists(target) and not os.path.isfile(target):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: it is not a regular file")
    for directory in (os.path.dirname(text) or os.curdir, os.path.dirname(target)):
        if not os.path.isdir(directory):
            raise argparse.ArgumentTypeError(
                f"cannot write {text!r}: {directory!r} is not a directory"
            )
    return text


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse two output flags that name one file, before any input is read:
    the second write would replace the first."""
    flags: dict[str, str] = {}
    for action in args.outputs:
        path = getattr(args, action.dest)
        if path is not None:
            path = os.path.realpath(path)
            flag = action.option_strings[0]
            if path in flags:
                args.parser.error(f"{flags[path]} and {flag} name the same file")
            flags[path] = flag


def _bin_count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_BINS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_BINS}, got {value}")
    return value


# each flag that more than one subcommand takes, stated once
_SHARED_FLAGS = {
    "--threads": dict(
        type=_positive_int, default=None, help="accepted for compatibility; has no effect"
    ),
    "--src": dict(required=True, help="source token file"),
    "--tgt": dict(required=True, help="target token file"),
    "--align": dict(required=True, help="alignment file"),
    "--iters": dict(
        type=_positive_int,
        default=10,
        help="EM iterations when training alignments (default %(default)s)",
    ),
    "--alpha": dict(
        type=float,
        default=DEFAULT_SMOOTHING,
        help="additive smoothing for faithfulness (default %(default)s)",
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillens",
        description="Corpus-complexity, distillation-selection and "
        "calibration analysis for machine translation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, shared=()) -> argparse.ArgumentParser:
        command_parser = sub.add_parser(name, help=help)
        for flag in ("--threads", *shared):
            command_parser.add_argument(flag, **_SHARED_FLAGS[flag])
        command_parser.set_defaults(func=func, parser=command_parser, outputs=[])
        return command_parser

    def output(command_parser, flag, help, required=True) -> None:
        # the outputs default is filled while the parser is built, and only read after
        action = command_parser.add_argument(flag, required=required, type=_output_path, help=help)
        command_parser.get_default("outputs").append(action)

    p_align = command(
        "align",
        _cmd_align,
        "train a word-translation table and alignments by EM",
        ("--src", "--tgt", "--iters"),
    )
    output(p_align, "--out", "output alignment file")
    output(p_align, "--table", "also write the table as TSV", required=False)

    p_metrics = command(
        "metrics",
        _cmd_metrics,
        "complexity metrics for one aligned corpus",
        ("--src", "--tgt", "--align", "--alpha"),
    )
    p_metrics.add_argument(
        "--real-src", help="source file of the reference (real) corpus"
    )
    p_metrics.add_argument(
        "--real-tgt", help="target file of the reference (real) corpus"
    )
    p_metrics.add_argument(
        "--real-align", help="alignment file of the reference (real) corpus"
    )
    output(p_metrics, "--out", "output JSON report")
    output(p_metrics, "--csv", "also write a one-row CSV", required=False)

    p_select = command(
        "select",
        _cmd_select,
        "pick distilled references from k-best lists",
        ("--src",),
    )
    p_select.add_argument("--kbest", required=True, help="k-best list file")
    p_select.add_argument("--ref", required=True, help="reference token file")
    p_select.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=0.5,
        help="weight on similarity in [0, 1] (default %(default)s)",
    )
    p_select.add_argument(
        "--cxty",
        choices=sorted(COMPLEXITY_KINDS),
        required=True,
        help="complexity component: frs, walign or nmt",
    )
    p_select.add_argument(
        "--table", help="translation table TSV (required for frs and walign)"
    )
    output(p_select, "--out", "selected hypotheses, one per line")
    output(p_select, "--scores", "also write all per-hypothesis scores as CSV", required=False)

    p_preorder = command(
        "preorder",
        _cmd_preorder,
        "reorder source tokens monotonically with the target",
        ("--src", "--tgt", "--align"),
    )
    output(p_preorder, "--out-src", "reordered source token file")
    output(p_preorder, "--out-align", "re-indexed alignment file")

    p_calibrate = command(
        "calibrate",
        _cmd_calibrate,
        "expected calibration error from token predictions",
    )
    p_calibrate.add_argument(
        "--preds", required=True, help="token prediction JSONL file"
    )
    p_calibrate.add_argument(
        "--hyp", help="hypothesis token file to fill missing correct flags"
    )
    p_calibrate.add_argument(
        "--ref", help="reference token file to fill missing correct flags"
    )
    p_calibrate.add_argument(
        "--bins",
        type=_bin_count,
        default=DEFAULT_BINS,
        help=f"number of equal-width bins, at most {MAX_BINS} (default %(default)s)",
    )
    output(p_calibrate, "--out", "output JSON report")

    p_attn = command(
        "attn", _cmd_attn, "attention confidence per decoding iteration"
    )
    p_attn.add_argument("--attn", required=True, help="attention JSONL file")
    output(p_attn, "--out", "output CSV curve")

    p_report = command(
        "report",
        _cmd_report,
        "side-by-side metrics for a real and a distilled corpus",
        ("--alpha", "--iters"),
    )
    p_report.add_argument("--real-src", required=True, help="real source file")
    p_report.add_argument("--real-tgt", required=True, help="real target file")
    p_report.add_argument(
        "--distilled-src", required=True, help="distilled source file"
    )
    p_report.add_argument(
        "--distilled-tgt", required=True, help="distilled target file"
    )
    p_report.add_argument(
        "--real-align", help="real alignment file (default: train by EM)"
    )
    p_report.add_argument(
        "--distilled-align",
        help="distilled alignment file (default: train by EM)",
    )
    output(p_report, "--out", "output JSON comparison")
    output(p_report, "--csv", "also write a two-row CSV", required=False)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        _check_outputs(args)
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DistillensError, ValueError) as exc:
        print(f"distillens: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"distillens: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
