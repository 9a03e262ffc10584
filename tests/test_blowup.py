import functools
import itertools
import random
import time

import pytest

from torusfill.blowup import (
    DEFAULT_LIMIT,
    EmbeddingWitness,
    _as_seq,
    _embeds_entrywise,
    blowup_at,
    dominated_blowups,
    dominates,
    embeddability_witness,
    enumerate_blowups,
    is_embeddable,
    path_to,
)
from torusfill.errors import DomainError, ResourceLimitError
from torusfill.sl2z import is_standard_string, orientation_reversal

from test_acceptance import brute_force_blowups


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

    def test_matches_level_oracle(self):
        # criterion 07 checks lengths 2..10 against the same expander
        assert enumerate_blowups(11) == level_blowups(11)


@functools.lru_cache(maxsize=None)
def level_blowups(length):
    """The blowups of (0, 0) of the given length, from the plain
    level-by-level expander of the acceptance suite."""
    return frozenset(brute_force_blowups(length))


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

    def test_path_to_rejects_non_blowup_quickly(self):
        # backtracking over every ear order took seconds on this input
        start = time.perf_counter()
        with pytest.raises(DomainError):
            path_to((4, 2, 1, 4, 1, 4, 1, 7, 1, 3, 1, 4, 2, 1, 3, 3))
        assert time.perf_counter() - start < 0.1

    def test_path_to_matches_backtracking_on_blowups(self):
        count = 0
        for length in range(2, 11):
            for s in enumerate_blowups(length):
                assert path_to(s) == backtracking_path_to(s), s
                count += 1
        assert count == 2056

    def test_path_to_matches_backtracking_on_right_sums(self):
        # every sequence with entries 0..4 that passes the sum test
        count = 0
        for length in range(2, 9):
            for s in itertools.product(range(5), repeat=length):
                if sum(s) != 3 * (length - 2):
                    continue
                count += 1
                assert outcome(path_to, s) == outcome(backtracking_path_to, s), s
        assert count == 44070

    def test_pruned_paths(self):
        # with a target, only dominated endpoints survive
        target = (3, 2, 2)
        got = [s for _, s in iter_blowup_paths(3, target)]
        assert got == [(1, 1, 1)]
        assert list(dominated_blowups(target)) == [((1,), (1, 1, 1))]


def iter_blowup_paths(length, target=None, limit=DEFAULT_LIMIT):
    """The earlier chain enumerator: yield (path, sequence) for every
    chain of length - 2 blowups from (0, 0), positions tried in
    increasing order, pruning branches the target can no longer
    dominate."""
    if length < 2:
        raise DomainError("length must be >= 2, got %d" % length)
    if length > limit:
        raise ResourceLimitError(
            "path enumeration to length %d exceeds limit %d" % (length, limit)
        )
    goal = None if target is None else tuple(target)

    def walk(s, path):
        if len(s) == length:
            yield path, s
            return
        for i in range(1, len(s)):
            nxt = blowup_at(s, i)
            if goal is not None and not _embeds_entrywise(nxt, goal):
                continue
            yield from walk(nxt, path + (i,))

    yield from walk((0, 0), ())


def first_visits(c):
    """(path, endpoint) of the chain oracle, keeping the first chain to
    each endpoint that c dominates."""
    seen = set()
    out = []
    for path, s in iter_blowup_paths(len(c), c):
        if s not in seen and dominates(s, c):
            seen.add(s)
            out.append((path, s))
    return out


def grid_reversals(max_length):
    """Reversals of length 2..max_length of the standard strings with
    entries 2..6 and at most four entries."""
    for k in range(1, 5):
        for d in itertools.product(range(2, 7), repeat=k):
            if is_standard_string(d):
                c = orientation_reversal(d)
                if 2 <= len(c) <= max_length:
                    yield c


class TestWalk:
    def test_walk_matches_chain_oracle(self):
        checked = 0
        for c in grid_reversals(9):
            assert list(dominated_blowups(c)) == first_visits(c), c
            checked += 1
        assert checked > 500

    def test_unpruned_walk_yields_each_blowup_once(self):
        # no blowup of length l has an entry above l - 2
        for length in range(2, 10):
            got = [s for _, s in dominated_blowups((length - 2,) * length)]
            assert len(got) == len(set(got))
            assert set(got) == level_blowups(length)

    def test_cold_witness_is_quick(self):
        # the sorted scan of the length-14 level took seconds cold
        start = time.perf_counter()
        assert embeddability_witness((16,)) is None
        assert time.perf_counter() - start < 0.5


def backtracking_path_to(s):
    """The earlier path_to: depth-first search over every interior ear,
    backtracking when a branch dead-ends."""
    entries = _as_seq(s)
    if sum(entries) != 3 * (len(entries) - 2):
        raise DomainError("%s is not a blowup of (0, 0)" % (entries,))

    def unwind(t):
        if t == (0, 0):
            return ()
        for j in range(1, len(t) - 1):
            if t[j] == 1 and t[j - 1] >= 1 and t[j + 1] >= 1:
                prev = t[:j - 1] + (t[j - 1] - 1, t[j + 1] - 1) + t[j + 2:]
                tail = unwind(prev)
                if tail is not None:
                    return tail + (j,)
        return None

    path = unwind(entries)
    if path is None:
        raise DomainError("%s is not a blowup of (0, 0)" % (entries,))
    return path


def outcome(fn, s):
    """fn(s), or the message of the DomainError it raises."""
    try:
        return fn(s)
    except DomainError as exc:
        return "DomainError: %s" % exc


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
            level = level_blowups(length)
            for s in level:
                assert all(s[k:] + s[:k] in level for k in range(length))

    def test_witness_matches_rotation_scan(self):
        def scan(d):
            c = orientation_reversal(d)
            candidates = sorted(level_blowups(len(c)))
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
