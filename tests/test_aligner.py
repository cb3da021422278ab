"""IBM Model 1 training, Viterbi alignment and log-prob scoring."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillens import (
    NULL_TOKEN,
    Alignment,
    ParallelCorpus,
    SentencePair,
    TranslationTable,
    corpus_log_likelihood,
    read_table,
    train_ibm1,
    viterbi_align,
    word_alignment_score,
    write_table,
)
from distillens.aligner import PROB_FLOOR
from distillens.corpus_io import _add_in_order


def _corpus(*pairs):
    return ParallelCorpus(
        tuple(SentencePair(tuple(s.split()), tuple(t.split())) for s, t in pairs)
    )


def _random_corpus(rng, n_pairs=30, vocab=8):
    pairs = []
    for _ in range(n_pairs):
        n_src = rng.randint(1, 5)
        n_tgt = rng.randint(1, 5)
        source = tuple(f"s{rng.randrange(vocab)}" for _ in range(n_src))
        target = tuple(f"t{rng.randrange(vocab)}" for _ in range(n_tgt))
        pairs.append(SentencePair(source, target))
    return ParallelCorpus(tuple(pairs))


def _dict_em(corpus, iterations):
    """IBM-1 EM over nested dicts, frozen from the implementation the
    slot-indexed one replaced: the oracle for bit-identical output.
    Returns the table rows and the per-round log-likelihoods. Its sums
    add left to right, as builtin sum did up to Python 3.11."""
    cooc = {NULL_TOKEN: {}}
    for pair in corpus:
        for x in (NULL_TOKEN,) + pair.source:
            row = cooc.setdefault(x, {})
            for y in pair.target:
                row[y] = None
    table = {x: {y: 1.0 / len(ys) for y in ys} for x, ys in cooc.items()}
    history = []
    for _ in range(iterations):
        counts = {x: {} for x in table}
        totals = {x: 0.0 for x in table}
        log_likelihood = 0.0
        for pair in corpus:
            extended = (NULL_TOKEN,) + pair.source
            for y in pair.target:
                scores = [table[x][y] for x in extended]
                z = _add_in_order(scores)
                log_likelihood += math.log(z / len(extended))
                for x, score in zip(extended, scores):
                    delta = score / z
                    row = counts[x]
                    row[y] = row.get(y, 0.0) + delta
                    totals[x] += delta
        history.append(log_likelihood)
        table = {
            x: {y: count / totals[x] for y, count in row.items()}
            for x, row in counts.items()
            if totals[x] > 0.0
        }
    return table, history


def _bits(probs):
    """Rows and columns in insertion order, each float as its exact hex."""
    return [(x, [(y, p.hex()) for y, p in row.items()]) for x, row in probs.items()]


@st.composite
def _small_corpora(draw):
    """Up to 6 pairs over vocabularies of 1-4 words a side, sentences
    of 0-5 tokens with repeats; the literal NULL token may appear as a
    source word."""
    sources = [NULL_TOKEN, "a", "b", "c"][: draw(st.integers(1, 4))]
    targets = ["x", "y", "z", "w"][: draw(st.integers(1, 4))]

    def sentences(words):
        return st.lists(st.sampled_from(words), max_size=5).map(tuple)

    pair = st.builds(SentencePair, sentences(sources), sentences(targets))
    return ParallelCorpus(tuple(draw(st.lists(pair, min_size=1, max_size=6))))


@st.composite
def _tables_and_pairs(draw):
    """A table with or without a NULL row, entries of 0.0, below, at and
    above PROB_FLOOR (equal values tie), and a pair whose source words
    may have no row ("d" never has one)."""
    values = st.sampled_from([0.0, 1e-13, PROB_FLOOR, 0.25, 0.5, 1.0])
    row_words = draw(st.lists(st.sampled_from([NULL_TOKEN, "a", "b", "c"]), unique=True))
    probs = {x: draw(st.dictionaries(st.sampled_from("xyz"), values)) for x in row_words}
    source = draw(st.lists(st.sampled_from("abcd"), max_size=5))
    target = draw(st.lists(st.sampled_from("xyzw"), max_size=5))
    return TranslationTable(probs), SentencePair(tuple(source), tuple(target))


class TestTrainIbm1:
    @settings(max_examples=200)
    @given(_small_corpora(), st.integers(1, 4))
    def test_bit_identical_to_dict_em(self, corpus, iterations):
        history = []
        table = train_ibm1(corpus, iterations, on_iteration=lambda i, ll: history.append(ll))
        expected, expected_history = _dict_em(corpus, iterations)
        assert _bits(table.probs) == _bits(expected)
        assert [ll.hex() for ll in history] == [ll.hex() for ll in expected_history]

    def test_single_pair_one_iteration(self):
        """With one pair ("a","x") the posterior splits the count between
        "a" and NULL, but per-source normalization over the co-occurring
        vocabulary (just "x") brings both rows back to certainty."""
        table = train_ibm1(_corpus(("a", "x")), 1)
        assert table.prob("a", "x") == pytest.approx(1.0)
        assert table.prob(NULL_TOKEN, "x") == pytest.approx(1.0)

    def test_disambiguating_pair_forces_convergence(self):
        corpus = ParallelCorpus(
            tuple(
                [
                    SentencePair(("a", "b"), ("x", "y")),
                    SentencePair(("a",), ("x",)),
                ]
                * 50
            )
        )
        table = train_ibm1(corpus, 10)
        assert table.prob("a", "x") > 0.9
        # copy count cancels out of the E and M steps
        single = train_ibm1(
            _corpus(("a b", "x y"), ("a", "x")), 10
        )
        assert table.prob("a", "x") == pytest.approx(
            single.prob("a", "x"), abs=1e-12
        )

    def test_iterations_zero_rejected(self):
        with pytest.raises(ValueError, match="^iterations must be >= 1, got 0$"):
            train_ibm1(_corpus(("a", "x")), 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="^cannot train on an empty corpus$"):
            train_ibm1(ParallelCorpus(()), 1)

    def test_rows_normalized(self):
        """Every source row sums to one after every M-step."""
        rng = random.Random(42)
        for _ in range(5):
            corpus = _random_corpus(rng)
            table = train_ibm1(corpus, 3)
            for x, row in table.probs.items():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_log_likelihood_non_decreasing(self):
        rng = random.Random(7)
        for _ in range(5):
            corpus = _random_corpus(rng)
            history = []
            train_ibm1(corpus, 8, on_iteration=lambda i, ll: history.append(ll))
            assert len(history) == 8
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier - 1e-9

    def test_reported_likelihood_matches_corpus_log_likelihood(self):
        """The value passed to the callback is the likelihood of the
        table from before that round's M-step."""
        corpus = _corpus(("a b", "x y"), ("b c", "y z"))
        history = []
        train_ibm1(corpus, 3, on_iteration=lambda i, ll: history.append(ll))
        uniform = train_ibm1(corpus, 1)
        # after one round the table is the M-step output of the uniform
        # init, so round 2's reported likelihood must equal its score
        assert history[1] == pytest.approx(
            corpus_log_likelihood(corpus, uniform), abs=1e-12
        )


class TestViterbi:
    @settings(max_examples=200)
    @given(_tables_and_pairs())
    def test_matches_brute_force(self, case):
        """Each target token goes to the first maximum of the floored
        lookups over NULL then the source words, left out if NULL."""
        table, pair = case
        links = set()
        for j, y in enumerate(pair.target):
            floored = [table.prob(x, y) for x in (NULL_TOKEN,) + pair.source]
            best = floored.index(max(floored))
            if best > 0:
                links.add((best - 1, j))
        assert viterbi_align(pair, table).links == frozenset(links)

    def test_forced_argmax(self):
        table = TranslationTable(
            {"a": {"x": 1.0}, "b": {"y": 1.0}, NULL_TOKEN: {"x": 0.0, "y": 0.0}}
        )
        pair = SentencePair(("a", "b"), ("x", "y"))
        assert viterbi_align(pair, table).links == frozenset({(0, 0), (1, 1)})

    def test_null_best_token_omitted(self):
        table = TranslationTable({"a": {"x": 0.1}, NULL_TOKEN: {"x": 0.5}})
        pair = SentencePair(("a",), ("x",))
        assert viterbi_align(pair, table).links == frozenset()

    def test_tie_links_smallest_source_index(self):
        table = TranslationTable({"a": {"x": 0.5}, "b": {"x": 0.1}})
        pair = SentencePair(("a", "b", "a"), ("x",))
        assert viterbi_align(pair, table).links == frozenset({(0, 0)})

    def test_null_wins_exact_tie(self):
        table = TranslationTable({"a": {"x": 0.5}, NULL_TOKEN: {"x": 0.5}})
        pair = SentencePair(("a",), ("x",))
        assert viterbi_align(pair, table).links == frozenset()

    def test_oov_falls_back_to_floor(self):
        """Unseen words hit the probability floor on every candidate, so
        the tie resolves to NULL and the token stays unaligned."""
        table = TranslationTable({"a": {"x": 1.0}})
        pair = SentencePair(("a",), ("unseen",))
        assert viterbi_align(pair, table).links == frozenset()

    def test_bijective_lexicon_recovered(self):
        """After enough EM rounds on bijective data, Viterbi reproduces
        the generating identity alignment on every token."""
        rng = random.Random(3)
        words = [(f"s{k}", f"t{k}") for k in range(8)]
        pairs = []
        for _ in range(80):
            chosen = rng.sample(words, rng.randint(2, 5))
            pairs.append(
                SentencePair(
                    tuple(s for s, _ in chosen), tuple(t for _, t in chosen)
                )
            )
        corpus = ParallelCorpus(tuple(pairs))
        table = train_ibm1(corpus, 10)
        for pair in corpus:
            expected = frozenset((i, i) for i in range(len(pair.source)))
            assert viterbi_align(pair, table).links == expected


class TestWordAlignmentScore:
    def test_hand_sum(self):
        table = TranslationTable({"der": {"the": 0.5}, "katze": {"cat": 0.25}})
        pair = SentencePair(("der", "katze"), ("the", "cat"))
        alignment = Alignment(frozenset({(0, 0), (1, 1)}))
        score = word_alignment_score(pair, alignment, table)
        assert score == pytest.approx(math.log(0.5) + math.log(0.25), abs=1e-12)
        assert score == pytest.approx(-2.0794, abs=1e-4)

    def test_certain_links_score_zero(self):
        table = TranslationTable({"a": {"x": 1.0}, "b": {"y": 1.0}})
        pair = SentencePair(("a", "b"), ("x", "y"))
        alignment = Alignment(frozenset({(0, 0), (1, 1)}))
        assert word_alignment_score(pair, alignment, table) == 0.0

    def test_unaligned_token_scored_against_null(self):
        table = TranslationTable({NULL_TOKEN: {"y": 0.1}})
        pair = SentencePair(("s",), ("y",))
        score = word_alignment_score(pair, Alignment(frozenset()), table)
        assert score == pytest.approx(math.log(0.1), abs=1e-12)
        assert score == pytest.approx(-2.3026, abs=1e-4)

    def test_multi_linked_target_uses_leftmost(self):
        table = TranslationTable({"a": {"y": 0.5}, "b": {"y": 0.125}})
        pair = SentencePair(("a", "b"), ("y",))
        alignment = Alignment(frozenset({(0, 0), (1, 0)}))
        score = word_alignment_score(pair, alignment, table)
        assert score == pytest.approx(math.log(0.5), abs=1e-12)

    def test_zero_probability_hits_floor(self):
        table = TranslationTable({"a": {"other": 1.0}})
        pair = SentencePair(("a",), ("y",))
        alignment = Alignment(frozenset({(0, 0)}))
        score = word_alignment_score(pair, alignment, table)
        assert score == pytest.approx(math.log(1e-12), abs=1e-9)


class TestTableSerialization:
    def test_round_trip(self, tmp_path):
        corpus = _corpus(("a b", "x y"), ("a", "x"))
        table = train_ibm1(corpus, 4)
        path = str(tmp_path / "table.tsv")
        write_table(table, path)
        loaded = read_table(path)
        for x, row in table.probs.items():
            for y, p in row.items():
                assert loaded.prob(x, y) == pytest.approx(p, abs=1e-15)

    @pytest.mark.parametrize(
        "text, rows",
        [
            # blank lines are skipped; a later row for (x, y) replaces the
            # value but keeps the first position; rows keep file order
            ("b\tx\t0.5\n\na\ty\t0.25\nb\tz\t0.125\nb\tx\t0.75\n",
             [("b", [("x", 0.75), ("z", 0.125)]), ("a", [("y", 0.25)])]),
            ("a\tx\t0.5\r\nb\ty\t0.25\r\na\tz\t0.125", [("a", [("x", 0.5), ("z", 0.125)]), ("b", [("y", 0.25)])]),
            ("a\tx\t 0.5 \n", [("a", [("x", 0.5)])]),
        ],
    )
    def test_good_rows_in_file_order(self, tmp_path, text, rows):
        path = tmp_path / "table.tsv"
        path.write_bytes(text.encode())
        assert [(x, list(row.items())) for x, row in read_table(str(path)).probs.items()] == rows

    def test_target_word_stored_once(self, tmp_path):
        # a word no literal in this module spells, so only read_table can
        # have interned it
        word = "-".join(["shared", "wörd"])
        path = tmp_path / "table.tsv"
        lines = [f"a\t{word}\t0.5", f"b\t{word}\t0.25", "", "b\tz\t0.75", "a\tz\t0.5", f"c\t{word}\t1.0"]
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
        probs = read_table(str(path)).probs
        keys = [next(k for k in probs[x] if k == word) for x in ("a", "b", "c")]
        assert keys[0] is keys[1] is keys[2] is sys.intern(word)
        assert [(x, list(row.items())) for x, row in probs.items()] == [
            ("a", [(word, 0.5), ("z", 0.5)]),
            ("b", [(word, 0.25), ("z", 0.75)]),
            ("c", [(word, 1.0)]),
        ]

    def test_negative_zero_accepted(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("a\tx\t-0.0\n")
        p = read_table(str(path)).probs["a"]["x"]
        assert p == 0.0 and math.copysign(1.0, p) == -1.0


# Table text for the row filter: a few words, so kept and dropped rows
# share source and target words; lines may come back to an earlier source.
_KEEP_SOURCES = [NULL_TOKEN, "a", "b", "c"]
_KEEP_TARGETS = ["x", "y", "z"]


@st.composite
def _table_and_keep(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_KEEP_SOURCES),
                st.sampled_from(_KEEP_TARGETS),
                st.sampled_from([0.0, 0.125, 0.5, 1.0]),
            ),
            max_size=12,
        )
    )
    keep = (
        draw(st.sets(st.sampled_from(_KEEP_SOURCES[1:] + ["d"]))),
        draw(st.sets(st.sampled_from(_KEEP_TARGETS + ["w"]))),
    )
    return "".join(f"{x}\t{y}\t{p!r}\n" for x, y, p in rows), keep


class TestReadTableKeep:
    @settings(max_examples=200)
    @given(_table_and_keep())
    def test_kept_pairs_read_as_in_full_table(self, tmp_path_factory, case):
        text, (sources, targets) = case
        path = tmp_path_factory.mktemp("keep") / "table.tsv"
        path.write_text(text)
        full = read_table(str(path))
        kept = read_table(str(path), keep=(sources, targets))
        for x in [NULL_TOKEN, *sources]:
            for y in targets:
                assert kept.prob(x, y) == full.prob(x, y)
        assert all(
            x in sources or x == NULL_TOKEN for x in kept.probs
        ) and all(y in targets for row in kept.probs.values() for y in row)
