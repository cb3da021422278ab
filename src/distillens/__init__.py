"""distillens: complexity, selection and calibration analysis for MT data.

The package measures how hard a parallel corpus is for parallel-decoding
translation models (reordering degree, lexical diversity, faithfulness to
an original corpus), selects distilled references from teacher k-best
lists, reorders source text monotonically, and evaluates model confidence
and calibration from exported predictions and attention weights.
"""

from importlib import resources

from .aligner import (
    NULL_TOKEN,
    TranslationTable,
    corpus_log_likelihood,
    read_table,
    train_ibm1,
    viterbi_align,
    word_alignment_score,
    write_table,
)
from .calibration import (
    Bin,
    CalibrationReport,
    attention_confidence,
    average_confidence,
    confidence_by_iteration,
    expected_calibration_error,
    fill_correctness,
    token_accuracy,
)
from .complexity import (
    ComplexityReport,
    ConditionalTable,
    compute_report,
    conditional_distribution,
    corpus_frs,
    faithfulness,
    lexical_diversity,
    sentence_frs,
)
from .corpus_io import (
    Alignment,
    AttentionRecord,
    KBestEntry,
    KBestList,
    ParallelCorpus,
    SentencePair,
    TokenPredictionRecord,
    check_alignments,
    format_pharaoh,
    parse_pharaoh,
    read_alignments,
    read_attention,
    read_kbest,
    read_parallel_corpus,
    read_token_lines,
    read_token_predictions,
    write_alignments,
    write_attention,
    write_kbest,
    write_parallel_corpus,
    write_token_lines,
    write_token_predictions,
)
from .errors import DistillensError, FormatError, ValidationError
from .preorder import monotone_preorder
from .selection import (
    ScoredHypothesis,
    SelectionConfig,
    min_max_normalize,
    score_hypotheses,
    select_reference,
    smoothed_sentence_bleu,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "bundled_data_dir",
    # errors
    "DistillensError",
    "FormatError",
    "ValidationError",
    # corpus_io
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
    # aligner
    "NULL_TOKEN",
    "TranslationTable",
    "train_ibm1",
    "corpus_log_likelihood",
    "viterbi_align",
    "word_alignment_score",
    "read_table",
    "write_table",
    # complexity
    "ConditionalTable",
    "ComplexityReport",
    "sentence_frs",
    "corpus_frs",
    "conditional_distribution",
    "lexical_diversity",
    "faithfulness",
    "compute_report",
    # selection
    "SelectionConfig",
    "ScoredHypothesis",
    "smoothed_sentence_bleu",
    "min_max_normalize",
    "score_hypotheses",
    "select_reference",
    # calibration
    "Bin",
    "CalibrationReport",
    "attention_confidence",
    "confidence_by_iteration",
    "token_accuracy",
    "expected_calibration_error",
    "average_confidence",
    "fill_correctness",
    # preorder
    "monotone_preorder",
]


def bundled_data_dir():
    """Directory of the small synthetic corpora shipped with the package."""
    return resources.files("distillens") / "data"
