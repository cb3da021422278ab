"""A fixed pure-Python program that measures how fast the host is right now.

The benchmark runs it as a subprocess next to every timed step. The
host this benchmark was built on changes speed by a third or more over
tens of seconds; a step's time divided by the reference's time around it
cancels that change. This program never imports distillens, so no change
to the program under test can change its cost.

It does the same kinds of work as the distillens subcommands: fresh
interpreter, dict counting over tokens, float sums, a list DP, and
string splitting, formatting and JSON, in about a quarter of a second.
Its output is a checksum, so the work cannot be skipped.

    python3 perfbench/reference.py
"""

import json
import random
import sys

ROUNDS = 2
SENTENCES = 70
DP_LENGTH = 224
VOCAB = 600


def main() -> int:
    rng = random.Random(20210527)
    words = [f"w{r}" for r in range(VOCAB)]
    pairs = []
    for _ in range(SENTENCES):
        src = rng.choices(words, k=rng.randint(10, 30))
        tgt = [w.upper() if rng.random() < 0.9 else rng.choice(words) for w in src]
        pairs.append((" ".join(src), " ".join(tgt)))

    # EM-like counting over every token pair
    table: dict[str, dict[str, float]] = {}
    for _ in range(ROUNDS):
        counts: dict[str, dict[str, float]] = {}
        for src_line, tgt_line in pairs:
            src, tgt = src_line.split(), tgt_line.split()
            for y in tgt:
                scores = [table.get(x, {}).get(y, 1.0) for x in src]
                z = sum(scores)
                for x, score in zip(src, scores):
                    row = counts.setdefault(x, {})
                    row[y] = row.get(y, 0.0) + score / z
        table = {x: {y: c / sum(row.values()) for y, c in row.items()} for x, row in counts.items()}

    # edit-distance DP over a long token list
    a = rng.choices(words, k=DP_LENGTH)
    b = [w if rng.random() < 0.8 else "" for w in a]
    prev = list(range(len(b) + 1))
    for i, ai in enumerate(a, 1):
        cur = [i]
        for j, bj in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ai != bj)))
        prev = cur
    checksum = prev[-1]

    # formatting and parsing
    text = json.dumps([{"x": x, "y": y, "p": f"{p!r}"} for x, row in sorted(table.items())
                       for y, p in sorted(row.items())])
    checksum += len(json.loads(text))
    print(checksum)
    return 0


if __name__ == "__main__":
    sys.exit(main())
