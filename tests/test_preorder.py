"""Monotone source pre-ordering."""

import random

import pytest

from distillens import (
    Alignment,
    ValidationError,
    monotone_preorder,
    sentence_frs,
)


def _alignment(*links):
    return Alignment(frozenset(links))


def _random_instance(rng):
    """A random sentence with a random partial many-to-many alignment."""
    n_src = rng.randint(1, 8)
    n_tgt = rng.randint(1, 8)
    source = tuple(f"w{rng.randint(0, 4)}" for _ in range(n_src))
    links = set()
    for i in range(n_src):
        for _ in range(rng.randint(0, 2)):
            links.add((i, rng.randrange(n_tgt)))
    return source, Alignment(frozenset(links))


class TestMonotonePreorder:
    def test_monotone_input_unchanged(self):
        source = ("a", "b", "c")
        alignment = _alignment((0, 0), (1, 1), (2, 2))
        new_source, new_alignment = monotone_preorder(source, alignment)
        assert new_source == source
        assert new_alignment == alignment

    def test_reversal(self):
        source = ("a", "b", "c")
        alignment = _alignment((0, 2), (1, 1), (2, 0))
        new_source, new_alignment = monotone_preorder(source, alignment)
        assert new_source == ("c", "b", "a")
        assert new_alignment.links == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_unaligned_token_follows_left_neighbor(self):
        source = ("a", "u", "b")
        alignment = _alignment((0, 1), (2, 0))
        new_source, _ = monotone_preorder(source, alignment)
        assert new_source == ("b", "a", "u")

    def test_leading_unaligned_tokens_stay_first(self):
        source = ("u", "v", "a")
        alignment = _alignment((2, 0),)
        new_source, _ = monotone_preorder(source, alignment)
        assert new_source == ("u", "v", "a")

    def test_multi_linked_token_keyed_by_smallest_target(self):
        source = ("a", "b")
        # a links to targets {2}, b links to {0, 3}: b sorts first
        alignment = _alignment((0, 2), (1, 0), (1, 3))
        new_source, new_alignment = monotone_preorder(source, alignment)
        assert new_source == ("b", "a")
        assert new_alignment.links == frozenset({(1, 2), (0, 0), (0, 3)})

    def test_stable_for_equal_keys(self):
        source = ("a", "b", "c")
        alignment = _alignment((0, 1), (1, 1), (2, 0))
        new_source, _ = monotone_preorder(source, alignment)
        assert new_source == ("c", "a", "b")

    def test_empty_alignment_is_identity(self):
        source = ("a", "b", "c")
        new_source, new_alignment = monotone_preorder(source, _alignment())
        assert new_source == source
        assert new_alignment.links == frozenset()

    def test_out_of_range_link_rejected(self):
        with pytest.raises(
            ValidationError,
            match="^alignment link 3-0: source index out of range for sentence of length 1$",
        ):
            monotone_preorder(("a",), _alignment((3, 0)))

    def test_token_multiset_preserved(self):
        rng = random.Random(47)
        for _ in range(200):
            source, alignment = _random_instance(rng)
            new_source, _ = monotone_preorder(source, alignment)
            assert sorted(new_source) == sorted(source)

    def test_idempotent(self):
        rng = random.Random(53)
        for _ in range(300):
            source, alignment = _random_instance(rng)
            once = monotone_preorder(source, alignment)
            twice = monotone_preorder(*once)
            assert twice == once

    def test_one_to_one_alignment_becomes_monotone(self):
        """When every source token has exactly one link and targets are
        hit exactly once, the reordered alignment scores FRS 1."""
        rng = random.Random(59)
        for _ in range(200):
            length = rng.randint(1, 8)
            permutation = rng.sample(range(length), length)
            source = tuple(f"w{i}" for i in range(length))
            alignment = Alignment(
                frozenset((i, permutation[i]) for i in range(length))
            )
            _, new_alignment = monotone_preorder(source, alignment)
            assert sentence_frs(new_alignment, length) == 1.0

    def test_link_set_re_indexed_not_dropped(self):
        rng = random.Random(61)
        for _ in range(100):
            source, alignment = _random_instance(rng)
            new_source, new_alignment = monotone_preorder(source, alignment)
            assert len(new_alignment.links) == len(alignment.links)
            new_alignment.validate(len(new_source))
