"""Acceptance suite: one test per numbered criterion.

Each test rebuilds its own oracle or fixture from scratch, or runs the
CLI on the bundled data as ``bundled_runs`` lists, and asserts the
documented tolerance or pinned bytes. Runtime-bounded criteria
measure their own wall-clock time. A per-criterion verdict table is
printed by conftest.py after the run.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import distillens
from distillens import (
    Alignment,
    ConditionalTable,
    KBestEntry,
    KBestList,
    ParallelCorpus,
    SentencePair,
    SelectionConfig,
    TokenPredictionRecord,
    attention_confidence,
    corpus_frs,
    expected_calibration_error,
    faithfulness,
    lexical_diversity,
    monotone_preorder,
    select_reference,
    sentence_frs,
    smoothed_sentence_bleu,
    train_ibm1,
    viterbi_align,
)

from bundled_runs import DIGESTS, argv
from cli_judge import judged_run


def _alignment_from_map(source_indices):
    """Alignment linking target position j to source_indices[j]."""
    return Alignment(frozenset((i, j) for j, i in enumerate(source_indices)))


def test_criterion_01_frs_matches_exhaustive_oracle():
    """sentence_frs equals naive chunk counting on every reduced map, M <= 6."""

    def oracle(source_indices):
        if len(source_indices) <= 1:
            return 1.0
        chunks = 1
        for left, right in zip(source_indices, source_indices[1:]):
            if right != left + 1:
                chunks += 1
        return 1.0 - (chunks - 1) / (len(source_indices) - 1)

    start = time.perf_counter()
    cases = 0
    for m in range(1, 7):
        for source_indices in itertools.product(range(6), repeat=m):
            alignment = _alignment_from_map(source_indices)
            assert sentence_frs(alignment, m) == oracle(source_indices)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == sum(6**m for m in range(1, 7))
    assert elapsed < 10.0


def _random_counts(rng, source_pool, target_pool):
    table = {}
    for x in rng.sample(source_pool, rng.randint(1, len(source_pool))):
        row = {}
        for y in rng.sample(target_pool, rng.randint(1, len(target_pool))):
            row[y] = rng.randint(1, 9)
        table[x] = row
    return table


def test_criterion_02_entropy_and_kl_match_direct_summation():
    """LD and faithfulness agree with direct-summation oracles to 1e-9."""

    def normalize(row):
        total = sum(row.values())
        return {y: c / total for y, c in row.items()}

    def ld_oracle(counts):
        entropies = []
        for row in counts.values():
            p = normalize(row)
            entropies.append(-math.fsum(q * math.log(q) for q in p.values()))
        return math.fsum(entropies) / len(entropies)

    def kl_oracle(real_counts, distilled_counts, alpha):
        divergences = []
        for x, row in real_counts.items():
            p_real = normalize(row)
            raw = distilled_counts.get(x)
            p_dist = normalize(raw) if raw else {}
            support = sorted(set(p_real) | set(p_dist))
            if not p_dist:
                smoothed = {y: 1.0 / len(support) for y in support}
            else:
                z = 1.0 + alpha * len(support)
                smoothed = {y: (p_dist.get(y, 0.0) + alpha) / z for y in support}
            divergences.append(
                math.fsum(p * math.log(p / smoothed[y]) for y, p in p_real.items())
            )
        return math.fsum(divergences) / len(divergences)

    rng = random.Random(4202)
    source_pool = ["s0", "s1", "s2", "s3", "s4", "s5"]
    target_pool = ["t0", "t1", "t2", "t3", "t4", "t5"]
    start = time.perf_counter()
    for _ in range(1000):
        real_counts = _random_counts(rng, source_pool, target_pool)
        distilled_counts = _random_counts(rng, source_pool, target_pool)
        alpha = rng.choice([0.01, 0.05, 0.25])
        real = ConditionalTable(real_counts)
        distilled = ConditionalTable(distilled_counts)
        assert abs(lexical_diversity(real) - ld_oracle(real_counts)) < 1e-9
        expected = kl_oracle(real_counts, distilled_counts, alpha)
        assert abs(faithfulness(real, distilled, alpha) - expected) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_03_hand_derived_constants():
    """ln 2 diversity, 0.5108 small-alpha divergence, 1/3 reordering score."""
    uniform_binary = ConditionalTable({"s": {"x": 1, "y": 1}})
    assert abs(lexical_diversity(uniform_binary) - math.log(2.0)) < 1e-9

    real = ConditionalTable({"s": {"x": 1, "y": 1}})
    distilled = ConditionalTable({"s": {"x": 9, "y": 1}})
    assert abs(faithfulness(real, distilled, alpha=1e-9) - 0.5108) < 1e-4

    alignment = _alignment_from_map([0, 1, 3, 2])
    assert abs(sentence_frs(alignment, 4) - 1.0 / 3.0) < 1e-9


def test_criterion_04_aligner_convergence_on_bijective_lexicon():
    """10 EM rounds learn a 20-word bijection; Viterbi recovers every link."""
    rng = random.Random(911)
    lexicon = {f"src{i:02d}": f"tgt{i:02d}" for i in range(20)}
    source_words = list(lexicon)
    pairs = []
    for _ in range(500):
        chosen = rng.sample(source_words, rng.randint(3, 6))
        pairs.append(
            SentencePair(tuple(chosen), tuple(lexicon[w] for w in chosen))
        )
    corpus = ParallelCorpus(tuple(pairs))

    start = time.perf_counter()
    history = []
    table = train_ibm1(corpus, 10, on_iteration=lambda _, ll: history.append(ll))
    for previous, current in zip(history, history[1:]):
        assert current >= previous
    for source_word, target_word in lexicon.items():
        assert table.prob(source_word, target_word) > 0.9
    for pair in corpus:
        expected = frozenset((k, k) for k in range(len(pair.source)))
        assert viterbi_align(pair, table).links == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def _random_kbest(rng, sentence_id, vocab):
    entries = []
    for _ in range(rng.randint(3, 6)):
        hypothesis = tuple(
            rng.choice(vocab) for _ in range(rng.randint(1, 7))
        )
        entries.append(KBestEntry(hypothesis, -rng.uniform(0.1, 9.0)))
    return KBestList(sentence_id, tuple(entries))


def test_criterion_05_selection_laws():
    """Pure-similarity argmax, monotone trade-off in lambda, rank-0 ties."""
    rng = random.Random(515)
    vocab = ["a", "b", "c", "d", "e", "f", "g"]
    grid = [0.0, 0.2, 0.5, 0.8, 1.0]
    for sentence_id in range(100):
        kbest = _random_kbest(rng, sentence_id, vocab)
        reference = tuple(rng.choice(vocab) for _ in range(rng.randint(3, 6)))
        source = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 5)))
        sims = [
            smoothed_sentence_bleu(entry.hypothesis, reference)
            for entry in kbest.entries
        ]
        best_rank = 0
        for rank, sim in enumerate(sims):
            if sim > sims[best_rank]:
                best_rank = rank
        config = SelectionConfig(sim_weight=1.0, complexity_kind="nmt")
        chosen = select_reference(kbest, reference, source, config)
        assert chosen is kbest.entries[best_rank]

        previous_sim = None
        for lam in grid:
            config = SelectionConfig(sim_weight=lam, complexity_kind="nmt")
            chosen = select_reference(kbest, reference, source, config)
            sim = smoothed_sentence_bleu(chosen.hypothesis, reference)
            if previous_sim is not None:
                assert sim >= previous_sim
            previous_sim = sim

    # symmetric tie: both totals are 0.5, so the first rank must win
    tie = KBestList(
        0,
        (
            KBestEntry(("a", "a"), -5.0),
            KBestEntry(("b", "b"), -1.0),
        ),
    )
    config = SelectionConfig(sim_weight=0.5, complexity_kind="nmt")
    chosen = select_reference(tie, ("a", "a"), ("s",), config)
    assert chosen is tie.entries[0]


def test_criterion_06_smoothed_bleu_cases():
    """Identity, disjoint, and the four-gram hand case."""
    assert smoothed_sentence_bleu(("a", "b", "c", "d"), ("a", "b", "c", "d")) == 1.0
    assert smoothed_sentence_bleu(("x", "y"), ("a", "b")) == 0.0
    value = smoothed_sentence_bleu(("a", "b", "c", "d"), ("a", "b", "c", "e"))
    assert abs(value - 0.658) < 1e-3


def test_criterion_07_calibration_cases():
    """Near-zero ECE for a calibrated sampler plus two exact hand cases."""
    rng = random.Random(777)
    start = time.perf_counter()
    records = []
    for position in range(100_000):
        confidence = rng.random()
        records.append(
            TokenPredictionRecord(
                sentence_id=0,
                position=position,
                token="w",
                probability=confidence,
                correct=rng.random() < confidence,
            )
        )
    report = expected_calibration_error(records, n_bins=10)
    assert sum(b.count for b in report.bins) == 100_000
    assert report.ece < 0.02

    pair = [
        TokenPredictionRecord(0, 0, "w", 0.9, correct=True),
        TokenPredictionRecord(0, 1, "w", 0.7, correct=False),
    ]
    # 0.5*|1-0.9| + 0.5*|0-0.7| = 0.4, realised one ulp low in binary
    assert abs(expected_calibration_error(pair, n_bins=10).ece - 0.4) < 1e-15

    certain = [
        TokenPredictionRecord(0, 0, "w", 1.0, correct=True),
        TokenPredictionRecord(0, 1, "w", 1.0, correct=False),
    ]
    assert expected_calibration_error(certain, n_bins=10).ece == 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0


def test_criterion_08_attention_confidence_cases():
    """One-hot rows, uniform rows, and the 2x3 hand case."""
    assert attention_confidence([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]) == 1.0
    assert attention_confidence([[0.25, 0.25, 0.25, 0.25]]) == 0.25
    value = attention_confidence([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    assert abs(value - 0.55) < 1e-9


def test_criterion_09_preorder_laws():
    """Perfect score on reordered one-to-one corpora; idempotence everywhere."""
    rng = random.Random(99)
    pairs = []
    alignments = []
    for _ in range(400):
        n = rng.randint(1, 8)
        source = tuple(f"w{i}" for i in range(n))
        target = tuple(f"v{i}" for i in range(n))
        permutation = list(range(n))
        rng.shuffle(permutation)
        alignment = Alignment(frozenset(zip(permutation, range(n))))
        new_source, new_alignment = monotone_preorder(source, alignment)
        pairs.append(SentencePair(new_source, target))
        alignments.append(new_alignment)
    assert corpus_frs(ParallelCorpus(tuple(pairs)), alignments) == 1.0

    letters = ["a", "b", "c", "d"]
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        source = tuple(rng.choice(letters) for _ in range(n))
        links = frozenset(
            (i, j)
            for i in range(n)
            for j in range(m)
            if rng.random() < 0.3
        )
        once_tokens, once_alignment = monotone_preorder(source, Alignment(links))
        twice_tokens, twice_alignment = monotone_preorder(once_tokens, once_alignment)
        assert twice_tokens == once_tokens
        assert twice_alignment == once_alignment


def test_criterion_10_directional_complexity_deltas(tmp_path):
    """Distilled corpus: more monotone, less diverse, less faithful."""
    start = time.perf_counter()
    assert judged_run(argv("report", tmp_path), tmp_path)[0] == 0
    elapsed = time.perf_counter() - start
    payload = json.loads((tmp_path / "report.json").read_text())
    real, distilled = payload["real"], payload["distilled"]
    assert distilled["frs"] > real["frs"]
    assert distilled["lexical_diversity"] < real["lexical_diversity"]
    assert real["faithfulness"] < distilled["faithfulness"]
    assert elapsed < 10.0
    # EM on the bundled corpora reproduces their alignments byte for byte,
    # so report without them writes the same bytes
    assert judged_run(argv("report em", tmp_path), tmp_path)[0] == 0
    for ext in ("json", "csv"):
        em = (tmp_path / f"report-em.{ext}").read_bytes()
        assert em == (tmp_path / f"report.{ext}").read_bytes()


# runs the bundled-data table into the directory argv[1], then again with
# --threads 8 into argv[2], and prints the digests of both
_CHILD = (
    "import json, sys; from bundled_runs import run_all; "
    "print(json.dumps([run_all(sys.argv[1]), run_all(sys.argv[2], '--threads', '8')]))"
)


def test_criterion_11_cli_determinism(tmp_path):
    """Every bundled-data run writes its pinned bytes twice in one process,
    the second time with --threads 8, under PYTHONHASHSEED 1 and 2: runs in
    one process share one str hash order, so only a second seed shows
    outputs that follow it."""
    paths = [str(Path(distillens.__file__).parents[1]), str(Path(__file__).parent)]
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(paths)}
        result = subprocess.run(
            [sys.executable, "-c", _CHILD, str(tmp_path / seed), str(tmp_path / f"{seed}-threads")],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [DIGESTS, DIGESTS], seed
