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
import json
import sys
from typing import Sequence

from .aligner import (
    TranslationTable,
    read_table,
    train_ibm1,
    viterbi_align,
    write_table,
)
from .calibration import (
    DEFAULT_BINS,
    MAX_BINS,
    confidence_by_iteration,
    expected_calibration_error,
    fill_correctness,
)
from .complexity import (
    DEFAULT_SMOOTHING,
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
from .selection import COMPLEXITY_KINDS, SelectionConfig, score_hypotheses

__all__ = ["run", "main"]


def _write_json(payload: dict, path: str) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(header: Sequence[str], rows: Sequence[Sequence], path: str) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    """Floats keep their shortest round-trip form; everything else is str()."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _nonempty(records, path: str, what: str):
    """Return records, or reject the file they came from for holding none."""
    if not records:
        raise FormatError(f"holds no {what}", path=path)
    return records


def _read_corpus(src_path: str, tgt_path: str) -> ParallelCorpus:
    return _nonempty(read_parallel_corpus(src_path, tgt_path), src_path, "sentences")


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


# ---------------------------------------------------------------------------
# subcommands


def _cmd_align(args: argparse.Namespace) -> None:
    corpus = _read_corpus(args.src, args.tgt)
    table, alignments = _train_and_align(corpus, args.iters, "")
    write_alignments(alignments, args.out)
    if args.table:
        write_table(table, args.table)


def _metrics_rows(reports: dict[str, dict]) -> list[list[str]]:
    rows = []
    for name, payload in reports.items():
        rows.append(
            [
                name,
                _cell(payload["frs"]),
                _cell(payload["lexical_diversity"]),
                _cell(payload["faithfulness"]),
                _cell(payload["sentence_count"]),
            ]
        )
    return rows


_METRICS_HEADER = ["corpus", "frs", "lexical_diversity", "faithfulness", "sentence_count"]


def _cmd_metrics(args: argparse.Namespace) -> None:
    real_flags = [args.real_src, args.real_tgt, args.real_align]
    if any(flag is not None for flag in real_flags) and None in real_flags:
        args.parser.error(
            "--real-src, --real-tgt and --real-align must be given together"
        )
    corpus = _read_corpus(args.src, args.tgt)
    alignments = read_alignments(args.align, corpus)
    reference_table = None
    if args.real_src is not None:
        real_corpus = _read_corpus(args.real_src, args.real_tgt)
        real_alignments = read_alignments(args.real_align, real_corpus)
        reference_table = conditional_distribution(real_corpus, real_alignments)
    report = compute_report(
        corpus, alignments, reference_table=reference_table, alpha=args.alpha
    )
    _write_json(report.to_dict(), args.out)
    if args.csv:
        _write_csv(
            _METRICS_HEADER, _metrics_rows({args.src: report.to_dict()}), args.csv
        )


def _cmd_select(args: argparse.Namespace) -> None:
    if args.cxty != "nmt" and args.table is None:
        args.parser.error(f"--cxty {args.cxty} requires --table")
    lists = read_kbest(args.kbest)
    references = read_token_lines(args.ref)
    sources = read_token_lines(args.src)
    table = read_table(args.table) if args.table else None
    config = SelectionConfig(args.lam, args.cxty)
    # one output line per k-best list, so ids 0..K-1 keep the output
    # line-parallel with the first K lines of --src and --ref
    line_count = min(len(references), len(sources))
    if sorted(lists) != list(range(len(lists))) or len(lists) > line_count:
        raise ValidationError(
            f"{args.kbest}: k-best sentence ids must be exactly 0..K-1 with "
            f"K <= {line_count}, the line count of {args.ref} and {args.src}"
        )
    selected_lines = []
    score_rows = []
    for sentence_id in sorted(lists):
        scored = score_hypotheses(
            lists[sentence_id],
            references[sentence_id],
            sources[sentence_id],
            config,
            table,
        )
        best_rank = max(range(len(scored)), key=lambda rank: scored[rank].total)
        selected_lines.append(" ".join(scored[best_rank].entry.hypothesis))
        if args.scores:
            for rank, hypothesis in enumerate(scored):
                score_rows.append(
                    [
                        sentence_id,
                        rank,
                        _cell(hypothesis.sim),
                        _cell(hypothesis.sim_norm),
                        _cell(hypothesis.cxty_raw),
                        _cell(hypothesis.cxty_norm),
                        _cell(hypothesis.total),
                        1 if rank == best_rank else 0,
                        " ".join(hypothesis.entry.hypothesis),
                    ]
                )
    with atomic_write(args.out) as fh:
        for line in selected_lines:
            fh.write(line + "\n")
    if args.scores:
        _write_csv(
            [
                "sentence_id",
                "rank",
                "sim",
                "sim_norm",
                "cxty_raw",
                "cxty_norm",
                "total",
                "selected",
                "hypothesis",
            ],
            score_rows,
            args.scores,
        )


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
        hypotheses = dict(enumerate(read_token_lines(args.hyp)))
        references = dict(enumerate(read_token_lines(args.ref)))
        if len(hypotheses) != len(references):
            raise ValidationError(
                f"{args.hyp} has {len(hypotheses)} lines but {args.ref} "
                f"has {len(references)}"
            )
        records = fill_correctness(records, hypotheses, references)
    report = expected_calibration_error(records, args.bins)
    _write_json(report.to_dict(), args.out)
    print(
        f"accuracy {report.accuracy * 100:.2f}% "
        f"confidence {report.confidence * 100:.2f}% "
        f"ece {report.ece * 100:.2f}%",
        file=sys.stderr,
    )


def _cmd_attn(args: argparse.Namespace) -> None:
    records = _nonempty(read_attention(args.attn), args.attn, "attention records")
    curve = confidence_by_iteration(records)
    rows = [[iteration, _cell(value)] for iteration, value in curve.items()]
    _write_csv(["iteration", "mean_confidence"], rows, args.out)


def _cmd_report(args: argparse.Namespace) -> None:
    real = _read_corpus(args.real_src, args.real_tgt)
    distilled = _read_corpus(args.distilled_src, args.distilled_tgt)
    if args.real_align:
        real_alignments = read_alignments(args.real_align, real)
    else:
        _, real_alignments = _train_and_align(real, args.iters, "real: ")
    if args.distilled_align:
        distilled_alignments = read_alignments(args.distilled_align, distilled)
    else:
        _, distilled_alignments = _train_and_align(
            distilled, args.iters, "distilled: "
        )
    real_table = conditional_distribution(real, real_alignments)
    real_report = compute_report(real, real_alignments, alpha=args.alpha)
    distilled_report = compute_report(
        distilled,
        distilled_alignments,
        reference_table=real_table,
        alpha=args.alpha,
    )
    payload = {
        "real": real_report.to_dict(),
        "distilled": distilled_report.to_dict(),
    }
    _write_json(payload, args.out)
    if args.csv:
        _write_csv(
            _METRICS_HEADER,
            _metrics_rows(
                {"real": payload["real"], "distilled": payload["distilled"]}
            ),
            args.csv,
        )


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


def _bin_count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_BINS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_BINS}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="accepted for compatibility; has no effect",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="reserved; no subcommand is stochastic",
    )

    parser = argparse.ArgumentParser(
        prog="distillens",
        description="Corpus-complexity, distillation-selection and "
        "calibration analysis for machine translation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser(
        "align",
        parents=[common],
        help="train a word-translation table and alignments by EM",
    )
    p_align.add_argument("--src", required=True, help="source token file")
    p_align.add_argument("--tgt", required=True, help="target token file")
    p_align.add_argument(
        "--iters", type=_positive_int, default=10, help="EM iterations (default 10)"
    )
    p_align.add_argument("--out", required=True, help="output alignment file")
    p_align.add_argument("--table", help="also write the table as TSV")
    p_align.set_defaults(func=_cmd_align, parser=p_align)

    p_metrics = sub.add_parser(
        "metrics",
        parents=[common],
        help="complexity metrics for one aligned corpus",
    )
    p_metrics.add_argument("--src", required=True, help="source token file")
    p_metrics.add_argument("--tgt", required=True, help="target token file")
    p_metrics.add_argument("--align", required=True, help="alignment file")
    p_metrics.add_argument(
        "--real-src", help="source file of the reference (real) corpus"
    )
    p_metrics.add_argument(
        "--real-tgt", help="target file of the reference (real) corpus"
    )
    p_metrics.add_argument(
        "--real-align", help="alignment file of the reference (real) corpus"
    )
    p_metrics.add_argument(
        "--alpha",
        type=float,
        default=DEFAULT_SMOOTHING,
        help="additive smoothing for faithfulness (default %(default)s)",
    )
    p_metrics.add_argument("--out", required=True, help="output JSON report")
    p_metrics.add_argument("--csv", help="also write a one-row CSV")
    p_metrics.set_defaults(func=_cmd_metrics, parser=p_metrics)

    p_select = sub.add_parser(
        "select",
        parents=[common],
        help="pick distilled references from k-best lists",
    )
    p_select.add_argument("--kbest", required=True, help="k-best list file")
    p_select.add_argument("--ref", required=True, help="reference token file")
    p_select.add_argument("--src", required=True, help="source token file")
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
    p_select.add_argument(
        "--out", required=True, help="selected hypotheses, one per line"
    )
    p_select.add_argument("--scores", help="also write all per-hypothesis scores as CSV")
    p_select.set_defaults(func=_cmd_select, parser=p_select)

    p_preorder = sub.add_parser(
        "preorder",
        parents=[common],
        help="reorder source tokens monotonically with the target",
    )
    p_preorder.add_argument("--src", required=True, help="source token file")
    p_preorder.add_argument("--tgt", required=True, help="target token file")
    p_preorder.add_argument("--align", required=True, help="alignment file")
    p_preorder.add_argument(
        "--out-src", required=True, help="reordered source token file"
    )
    p_preorder.add_argument(
        "--out-align", required=True, help="re-indexed alignment file"
    )
    p_preorder.set_defaults(func=_cmd_preorder, parser=p_preorder)

    p_calibrate = sub.add_parser(
        "calibrate",
        parents=[common],
        help="expected calibration error from token predictions",
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
    p_calibrate.add_argument("--out", required=True, help="output JSON report")
    p_calibrate.set_defaults(func=_cmd_calibrate, parser=p_calibrate)

    p_attn = sub.add_parser(
        "attn",
        parents=[common],
        help="attention confidence per decoding iteration",
    )
    p_attn.add_argument("--attn", required=True, help="attention JSONL file")
    p_attn.add_argument("--out", required=True, help="output CSV curve")
    p_attn.set_defaults(func=_cmd_attn, parser=p_attn)

    p_report = sub.add_parser(
        "report",
        parents=[common],
        help="side-by-side metrics for a real and a distilled corpus",
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
    p_report.add_argument(
        "--iters",
        type=_positive_int,
        default=10,
        help="EM iterations when self-aligning (default %(default)s)",
    )
    p_report.add_argument(
        "--alpha",
        type=float,
        default=DEFAULT_SMOOTHING,
        help="additive smoothing for faithfulness (default %(default)s)",
    )
    p_report.add_argument("--out", required=True, help="output JSON comparison")
    p_report.add_argument("--csv", help="also write a two-row CSV")
    p_report.set_defaults(func=_cmd_report, parser=p_report)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
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


if __name__ == "__main__":
    main()
