#!/usr/bin/env python3
"""Regenerate the synthetic corpora shipped in distillens/data.

The "real" corpus pairs every source sentence with a reordered target
whose words are sampled from per-word synonym sets; the "distilled"
corpus translates the same source sentences monotonically with one
fixed synonym per word. That gives the two corpora opposite complexity
profiles (distilled: higher reordering score, lower lexical diversity,
higher divergence from the real corpus) which the report subcommand
and the test suite rely on.

Also emits small demonstration inputs for the select, calibrate and
attn subcommands. Everything is seeded, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import random

from distillens import (
    Alignment,
    AttentionRecord,
    KBestEntry,
    KBestList,
    ParallelCorpus,
    SentencePair,
    TokenPredictionRecord,
    write_alignments,
    write_attention,
    write_kbest,
    write_parallel_corpus,
    write_token_lines,
    write_token_predictions,
)
from distillens.corpus_io import _add_in_order

N_TYPES = 12
N_SENTENCES = 240
SEED = 13

# src00..src11, each with two or three target synonyms; the first
# synonym is the "primary" one the distilled corpus always uses
SYNONYMS = {
    f"src{t:02d}": tuple(
        f"tgt{t:02d}{letter}" for letter in ("a", "b", "c")[: 2 + t % 2]
    )
    for t in range(N_TYPES)
}
SOURCE_WORDS = sorted(SYNONYMS)


def build_corpora(rng: random.Random):
    real_pairs = []
    real_links = []
    distilled_pairs = []
    distilled_links = []
    for _ in range(N_SENTENCES):
        length = rng.randint(3, 7)
        source = tuple(rng.sample(SOURCE_WORDS, length))
        order = rng.sample(range(length), length)
        real_target = tuple(
            rng.choice(SYNONYMS[source[q]]) for q in order
        )
        real_pairs.append(SentencePair(source, real_target))
        real_links.append(
            Alignment(frozenset((q, p) for p, q in enumerate(order)))
        )
        distilled_target = tuple(SYNONYMS[word][0] for word in source)
        distilled_pairs.append(SentencePair(source, distilled_target))
        distilled_links.append(
            Alignment(frozenset((i, i) for i in range(length)))
        )
    return (
        ParallelCorpus(tuple(real_pairs)),
        real_links,
        ParallelCorpus(tuple(distilled_pairs)),
        distilled_links,
    )


def build_kbest(real: ParallelCorpus, rng: random.Random) -> dict[int, KBestList]:
    lists = {}
    for sentence_id in range(8):
        source = real[sentence_id].source
        primary = [SYNONYMS[word][0] for word in source]
        entries = [KBestEntry(tuple(primary), -0.31)]
        # variant with one synonym substituted
        swapped = list(primary)
        position = sentence_id % len(swapped)
        swapped[position] = SYNONYMS[source[position]][1]
        entries.append(KBestEntry(tuple(swapped), -0.74))
        # variant with two adjacent tokens transposed
        rotated = list(primary)
        position = (sentence_id + 1) % (len(rotated) - 1)
        rotated[position], rotated[position + 1] = (
            rotated[position + 1],
            rotated[position],
        )
        entries.append(KBestEntry(tuple(rotated), -1.22))
        # short variant dropping the final token
        entries.append(KBestEntry(tuple(primary[:-1]), -1.9 - rng.random()))
        lists[sentence_id] = KBestList(sentence_id, tuple(entries))
    return lists


def build_predictions(real: ParallelCorpus, rng: random.Random):
    hyps = []
    refs = []
    records = []
    for sentence_id in range(8):
        source = real[sentence_id].source
        hyp = [SYNONYMS[word][0] for word in source]
        ref = list(hyp)
        # corrupt one reference token so some hypothesis tokens are wrong
        position = sentence_id % len(ref)
        ref[position] = SYNONYMS[source[position]][1]
        hyps.append(hyp)
        refs.append(ref)
        for position, token in enumerate(hyp):
            records.append(
                TokenPredictionRecord(
                    sentence_id, position, token, round(rng.uniform(0.35, 0.99), 6)
                )
            )
    return hyps, refs, records


def build_attention(rng: random.Random) -> list[AttentionRecord]:
    records = []
    n_target, n_source = 4, 5
    for sentence_id in range(2):
        for iteration in (1, 2, 3):
            for head in (0, 1):
                sharpening = iteration / 4.0
                rows = []
                for t in range(n_target):
                    peak = (t + sentence_id + head) % n_source
                    raw = [
                        (1.0 - sharpening) * rng.uniform(0.5, 1.5)
                        + (sharpening * 4.0 if s == peak else 0.0)
                        for s in range(n_source)
                    ]
                    total = _add_in_order(raw)
                    rows.append(tuple(w / total for w in raw))
                records.append(
                    AttentionRecord(sentence_id, iteration, head, tuple(rows))
                )
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
            "distillens",
            "data",
        ),
    )
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    rng = random.Random(SEED)

    real, real_links, distilled, distilled_links = build_corpora(rng)
    join = lambda name: os.path.join(args.out_dir, name)
    write_parallel_corpus(real, join("real.src"), join("real.tgt"))
    write_alignments(real_links, join("real.aln"))
    write_parallel_corpus(distilled, join("distilled.src"), join("distilled.tgt"))
    write_alignments(distilled_links, join("distilled.aln"))

    write_kbest(build_kbest(real, rng), join("demo.kbest"))
    hyps, refs, predictions = build_predictions(real, rng)
    write_token_lines(hyps, join("demo.hyp"))
    write_token_lines(refs, join("demo.ref"))
    write_token_predictions(predictions, join("demo.preds.jsonl"))
    write_attention(build_attention(rng), join("demo.attn.jsonl"))
    print(f"wrote bundled corpora to {args.out_dir}")


if __name__ == "__main__":
    main()
