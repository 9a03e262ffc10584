import itertools
import random

import pytest

from torusfill.blowup import (
    EmbeddingWitness,
    blowup_at,
    dominates,
    embeddability_witness,
    enumerate_blowups,
    is_embeddable,
    iter_blowup_paths,
    path_to,
)
from torusfill.errors import DomainError, ResourceLimitError
from torusfill.sl2z import is_standard_string, orientation_reversal


class TestMoves:
    def test_base_move(self):
        assert blowup_at((0, 0), 1) == (1, 1, 1)

    def test_middle_move(self):
        assert blowup_at((1, 1, 1), 2) == (1, 2, 1, 2)

    def test_left_move(self):
        assert blowup_at((1, 2, 1, 2), 1) == (2, 1, 3, 1, 2)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            blowup_at((0, 0), 2)
        with pytest.raises(DomainError):
            blowup_at((0, 0), 0)

    def test_entries_never_decrease(self):
        rng = random.Random(1)
        s = (0, 0)
        for _ in range(30):
            i = rng.randint(1, len(s) - 1)
            nxt = blowup_at(s, i)
            # the retained entries, in order, are >= the originals
            assert nxt[:i - 1] == s[:i - 1]
            assert nxt[i - 1] == s[i - 1] + 1 and nxt[i + 1] == s[i] + 1
            assert nxt[i + 2:] == s[i + 1:]
            s = nxt


class TestDominates:
    def test_pointwise(self):
        assert dominates((1, 1, 1), (3, 2, 2))

    def test_strict_failure(self):
        assert not dominates((1, 1, 1), (1, 1, 0))

    def test_base(self):
        assert dominates((0, 0), (4, 2))

    def test_length_mismatch(self):
        assert not dominates((0, 0), (1, 1, 1))


class TestEnumeration:
    def test_base_level(self):
        assert enumerate_blowups(2) == frozenset({(0, 0)})

    def test_level_three(self):
        assert enumerate_blowups(3) == frozenset({(1, 1, 1)})

    def test_level_four(self):
        assert enumerate_blowups(4) == frozenset({(2, 1, 2, 1), (1, 2, 1, 2)})

    def test_level_five(self):
        assert enumerate_blowups(5) == frozenset(
            {(3, 1, 2, 2, 1), (2, 2, 1, 3, 1), (2, 1, 3, 1, 2), (1, 3, 1, 2, 2), (1, 2, 2, 1, 3)}
        )

    def test_sum_invariant(self):
        for length in range(2, 9):
            for s in enumerate_blowups(length):
                assert len(s) == length and sum(s) == 3 * (length - 2)

    def test_limit(self):
        with pytest.raises(ResourceLimitError):
            enumerate_blowups(15)
        with pytest.raises(DomainError):
            enumerate_blowups(1)


class TestPaths:
    def test_path_counts_are_factorials(self):
        # at depth j there are j + 1 possible positions
        import math

        for length in range(2, 7):
            paths = list(iter_blowup_paths(length))
            assert len(paths) == math.factorial(length - 2)

    def test_paths_cover_enumeration(self):
        for length in range(2, 8):
            endpoints = {s for _, s in iter_blowup_paths(length)}
            assert endpoints == set(enumerate_blowups(length))

    def test_path_to_replays(self):
        for length in range(2, 8):
            for s in enumerate_blowups(length):
                path = path_to(s)
                check = (0, 0)
                for i in path:
                    check = blowup_at(check, i)
                assert check == s

    def test_path_to_rejects_non_blowups(self):
        with pytest.raises(DomainError):
            path_to((1, 1))
        with pytest.raises(DomainError):
            path_to((3, 0, 3))  # right sum, wrong shape

    def test_pruned_paths(self):
        # with a target, only dominated endpoints survive
        target = (3, 2, 2)
        got = [s for _, s in iter_blowup_paths(3, target)]
        assert got == [(1, 1, 1)]


class TestEmbeddability:
    def test_witness_for_five(self):
        w = embeddability_witness((5,))
        assert isinstance(w, EmbeddingWitness)
        assert w.sequence == (1, 1, 1)
        assert w.target == (3, 2, 2) and w.rotation == 0

    def test_three_is_not_embeddable(self):
        assert embeddability_witness((3,)) is None
        assert not is_embeddable((3,))

    def test_witness_dominates(self):
        for d in [(5,), (3, 3, 4, 3, 3), (4, 4), (2, 3, 3)]:
            w = embeddability_witness(d)
            if w is not None:
                assert dominates(w.sequence, w.target)

    def test_rotation_invariance(self):
        # embeddability only depends on the cyclic class of the string
        for d in [(5,), (3, 3, 4, 3, 3), (2, 3, 3), (6, 2)]:
            answers = set()
            for k in range(len(d)):
                rotated = d[k:] + d[:k]
                answers.add(is_embeddable(rotated))
            assert len(answers) == 1

    def test_length_two_reversals_always_embed(self):
        # (0, 0) itself counts as a blowup of (0, 0)
        w = embeddability_witness((3, 2, 2, 2, 3))  # reversal (6, 3) has length 2
        assert w is not None and w.sequence == (0, 0)

    def test_propagates_domain_error(self):
        with pytest.raises(DomainError):
            embeddability_witness((2, 2))

    def test_blowups_closed_under_rotation(self):
        # the fact that lets the witness search skip every rotation but 0
        for length in range(2, 10):
            level = enumerate_blowups(length)
            for s in level:
                assert all(s[k:] + s[:k] in level for k in range(length))

    def test_witness_matches_rotation_scan(self):
        def scan(d):
            c = orientation_reversal(d)
            candidates = sorted(enumerate_blowups(len(c)))
            for k in range(len(c)):
                rotated = c[k:] + c[:k]
                for s in candidates:
                    if dominates(s, rotated):
                        return EmbeddingWitness(s, rotated, k)
            return None

        found = 0
        for k in range(1, 5):
            for d in itertools.product(range(2, 7), repeat=k):
                if is_standard_string(d) and 2 <= len(orientation_reversal(d)) <= 10:
                    expected = scan(d)
                    found += expected is not None
                    assert embeddability_witness(d) == expected, d
        assert found > 100
