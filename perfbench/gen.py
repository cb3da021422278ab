"""Seeded input generator for the distillens benchmark.

Writes every workload's input files in distillens' on-disk formats
without importing distillens, so a change to one of its writers cannot
change the benchmark's inputs. The same seed gives byte-identical files.

Sizes are fixed per workload; lengths are stratified (evenly spread over
their range, then shuffled) so the amount of work barely moves between
seeds while the tokens themselves differ.

    python3 perfbench/gen.py --workload align-zipf --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
from itertools import accumulate

VOCAB = 2000  # source types, Zipfian
ALIGN_PAIRS = 300
ALIGN_LENGTHS = (10, 30)
SELECT_SENTENCES = 200
SELECT_K = 8
TABLE_ROW_WIDTH = 60  # entries per source word in the synthetic table
CALIB_SENTENCES = 40
CALIB_LENGTHS = (20, 200)
CALIB_VOCAB = 400
ATTN_SENTENCES = 60
ATTN_ITERATIONS = 4
ATTN_HEADS = 2
ATTN_SIZES = (10, 40)
ATTN_UNITS = 10000  # attention weights are multiples of 1/ATTN_UNITS
FUNCTION_WORDS = 16


def _stratified(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """`count` integers spread evenly over [low, high], in random order."""
    span = high - low + 1
    values = [low + (k * span) // count for k in range(count)]
    rng.shuffle(values)
    return values


class _Lexicon:
    """Zipfian source vocabulary; each source type has 1-3 target synonyms."""

    def __init__(self, rng: random.Random, vocab: int):
        self.rng = rng
        self.cum_weights = list(accumulate(1.0 / rank for rank in range(1, vocab + 1)))
        self.ranks = range(vocab)
        self.synonyms = [1 + rng.randrange(3) for _ in self.ranks]

    def source(self, length: int) -> list[int]:
        return self.rng.choices(self.ranks, cum_weights=self.cum_weights, k=length)

    def translate(self, ranks: list[int]) -> list[tuple[str, int | None]]:
        """Target tokens with the source index each one translates.

        Some tokens are unaligned function words, and adjacent target
        tokens are swapped locally.
        """
        rng = self.rng
        items: list[tuple[str, int | None]] = []
        for i, rank in enumerate(ranks):
            items.append((f"t{rank}_{rng.randrange(self.synonyms[rank])}", i))
            if rng.random() < 0.08:
                items.append((f"f{rng.randrange(FUNCTION_WORDS)}", None))
        j = 0
        while j < len(items) - 1:
            if rng.random() < 0.15:
                items[j], items[j + 1] = items[j + 1], items[j]
                j += 2
            else:
                j += 1
        return items


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def align_zipf(seed: int, out: str) -> dict:
    """Parallel corpus plus its gold alignment: src.txt, tgt.txt, gold.aln."""
    rng = random.Random(seed)
    lexicon = _Lexicon(rng, VOCAB)
    sources, targets, golds = [], [], []
    for length in _stratified(rng, ALIGN_PAIRS, *ALIGN_LENGTHS):
        ranks = lexicon.source(length)
        items = lexicon.translate(ranks)
        sources.append(" ".join(f"s{rank}" for rank in ranks))
        targets.append(" ".join(token for token, _ in items))
        golds.append(
            " ".join(f"{i}-{j}" for j, (_, i) in enumerate(items) if i is not None)
        )
    _write_lines(os.path.join(out, "src.txt"), sources)
    _write_lines(os.path.join(out, "tgt.txt"), targets)
    _write_lines(os.path.join(out, "gold.aln"), golds)
    return {
        "pairs": len(sources),
        "src_tokens": sum(len(s.split()) for s in sources),
        "tgt_tokens": sum(len(t.split()) for t in targets),
        "gold_links": sum(len(g.split()) for g in golds),
    }


def _perturb(rng: random.Random, lexicon: _Lexicon, tokens: list[str], edits: int) -> list[str]:
    """Synonym swaps, adjacent transpositions and drops."""
    tokens = list(tokens)
    for _ in range(edits):
        op = rng.randrange(3)
        j = rng.randrange(len(tokens))
        if op == 0 and tokens[j].startswith("t"):
            rank = int(tokens[j][1:].split("_")[0])
            tokens[j] = f"t{rank}_{rng.randrange(lexicon.synonyms[rank])}"
        elif op == 1 and j + 1 < len(tokens):
            tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
        elif op == 2 and len(tokens) > 1:
            del tokens[j]
    return tokens


def select_kbest(seed: int, out: str) -> dict:
    """src.txt, ref.txt, kbest.txt and a synthetic translation table.tsv."""
    rng = random.Random(seed)
    lexicon = _Lexicon(rng, VOCAB)
    sources, references, kbest = [], [], []
    for sid, length in enumerate(_stratified(rng, SELECT_SENTENCES, *ALIGN_LENGTHS)):
        ranks = lexicon.source(length)
        reference = [token for token, _ in lexicon.translate(ranks)]
        sources.append(" ".join(f"s{rank}" for rank in ranks))
        references.append(" ".join(reference))
        for rank in range(SELECT_K):
            hypothesis = _perturb(rng, lexicon, reference, 1 + rank // 2 + rng.randrange(2))
            logprob = -(0.4 * len(hypothesis) + 0.8 * rank + rng.random())
            kbest.append(f"{sid} ||| {' '.join(hypothesis)} ||| {logprob:.4f}")
    _write_lines(os.path.join(out, "src.txt"), sources)
    _write_lines(os.path.join(out, "ref.txt"), references)
    _write_lines(os.path.join(out, "kbest.txt"), kbest)

    target_vocab = [f"f{m}" for m in range(FUNCTION_WORDS)]
    target_vocab += [f"t{r}_{k}" for r in lexicon.ranks for k in range(lexicon.synonyms[r])]
    table_rows = 0
    with open(os.path.join(out, "table.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        rows = {"<NULL>": {f"f{m}": 5.0 for m in range(FUNCTION_WORDS)}}
        for r in lexicon.ranks:
            rows[f"s{r}"] = {f"t{r}_{k}": 10.0 + rng.random() for k in range(lexicon.synonyms[r])}
        for row in rows.values():
            while len(row) < TABLE_ROW_WIDTH:
                row.setdefault(rng.choice(target_vocab), rng.random() * 0.1)
        for x in sorted(rows):
            row = rows[x]
            total = sum(row.values())
            for y in sorted(row):
                fh.write(f"{x}\t{y}\t{row[y] / total!r}\n")
            table_rows += len(row)
    return {
        "sentences": len(sources),
        "lists": len(sources),
        "hypotheses": len(kbest),
        "hyp_tokens": sum(len(line.split(" ||| ")[1].split()) for line in kbest),
        "table_rows": table_rows,
    }


def _attention_row(rng: random.Random, width: int, sharpness: float) -> list[int]:
    """One row of integer weights summing to ATTN_UNITS, peaked at one column."""
    peak = rng.randrange(width)
    raw = [rng.random() / (1.0 + sharpness * abs(c - peak)) ** 2 for c in range(width)]
    total = sum(raw)
    units = [int(ATTN_UNITS * w / total) for w in raw]
    units[peak] += ATTN_UNITS - sum(units)
    return units


def calib_long(seed: int, out: str) -> dict:
    """hyp.txt, ref.txt, preds.jsonl (no correct flags) and attn.jsonl."""
    rng = random.Random(seed)
    cum_weights = list(accumulate(1.0 / rank for rank in range(1, CALIB_VOCAB + 1)))
    vocab = [f"w{r}" for r in range(CALIB_VOCAB)]
    hyps, refs, preds = [], [], []
    cells = 0
    for sid, length in enumerate(_stratified(rng, CALIB_SENTENCES, *CALIB_LENGTHS)):
        hyp = rng.choices(vocab, cum_weights=cum_weights, k=length)
        ref = []
        for token in hyp:
            roll = rng.random()
            if roll < 0.15:
                ref.append(rng.choices(vocab, cum_weights=cum_weights)[0])
            elif roll < 0.20:
                continue
            else:
                ref.append(token)
            if rng.random() < 0.05:
                ref.append(rng.choices(vocab, cum_weights=cum_weights)[0])
        if not ref:
            ref = [hyp[0]]
        hyps.append(" ".join(hyp))
        refs.append(" ".join(ref))
        cells += len(hyp) * len(ref)
        for position, token in enumerate(hyp):
            record = {
                "position": position,
                "probability": round(rng.random() ** 0.5, 6),
                "sentence_id": sid,
                "token": token,
            }
            preds.append(json.dumps(record, sort_keys=True))
    _write_lines(os.path.join(out, "hyp.txt"), hyps)
    _write_lines(os.path.join(out, "ref.txt"), refs)
    _write_lines(os.path.join(out, "preds.jsonl"), preds)

    shapes = zip(
        _stratified(rng, ATTN_SENTENCES, *ATTN_SIZES),
        _stratified(rng, ATTN_SENTENCES, *ATTN_SIZES),
    )
    matrices = rows = weights_total = 0
    with open(os.path.join(out, "attn.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
        for sid, (height, width) in enumerate(shapes):
            for iteration in range(1, ATTN_ITERATIONS + 1):
                for head in range(ATTN_HEADS):
                    sharpness = 0.5 * iteration + head
                    matrix = ", ".join(
                        "[" + ", ".join(repr(u / ATTN_UNITS) for u in
                                        _attention_row(rng, width, sharpness)) + "]"
                        for _ in range(height)
                    )
                    fh.write(
                        f'{{"head": {head}, "iteration": {iteration}, '
                        f'"sentence_id": {sid}, "weights": [{matrix}]}}\n'
                    )
                    matrices += 1
                    rows += height
                    weights_total += height * width
    return {
        "sentences": len(hyps),
        "hyp_tokens": len(preds),
        "ref_tokens": sum(len(r.split()) for r in refs),
        "dp_cells": cells,
        "attention_matrices": matrices,
        "attention_rows": rows,
        "attention_weights": weights_total,
    }


GENERATORS = {
    "align-zipf": align_zipf,
    "select-kbest": select_kbest,
    "calib-long": calib_long,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    print(json.dumps(GENERATORS[args.workload](args.seed, args.out), sort_keys=True))


if __name__ == "__main__":
    main()
