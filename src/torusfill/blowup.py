"""Blowup calculus on sequences of nonnegative integers.

A blowup of s = (s_1, ..., s_l) at position i (1-based, i <= l - 1) is

    (s_1, ..., s_{i-1}, s_i + 1, 1, s_{i+1} + 1, s_{i+2}, ..., s_l),

the combinatorial shadow of blowing up a node of a curve configuration:
the two curves through the node each gain a point of multiplicity and
the exceptional sphere is inserted between them.  Starting from (0, 0),
k blowups always produce a sequence of length k + 2 and sum 3k.

A standard string d is *embeddable* when some blowup s of (0, 0) is
dominated entrywise by its orientation reversal.  The weight cycle the
reversal describes has no preferred starting vertex, but no rotation of
it needs to be tried: the blowups of (0, 0) are the quiddity sequences
of triangulated polygons (Conway and Coxeter, Triangulated polygons and
frieze patterns, Math. Gaz. 1973), a set closed under rotation, so a
rotation of the reversal dominates a blowup exactly when the reversal
itself dominates the rotated blowup.  By convention (0, 0) counts as a
blowup of itself, which is needed for reversals of length two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError
from .sl2z import orientation_reversal

__all__ = [
    "DEFAULT_LIMIT",
    "blowup_at",
    "dominates",
    "enumerate_blowups",
    "iter_blowup_paths",
    "path_to",
    "EmbeddingWitness",
    "embeddability_witness",
    "is_embeddable",
]

DEFAULT_LIMIT = 14


def _as_seq(s):
    entries = tuple(s)
    if len(entries) < 2:
        raise DomainError("sequence must have length >= 2, got %s" % (entries,))
    for x in entries:
        if not isinstance(x, int) or x < 0:
            raise DomainError("sequence entries must be nonnegative integers, got %r" % (x,))
    return entries


def blowup_at(s, i: int):
    """Blow up the sequence s at position i (1-based, 1 <= i <= len - 1)."""
    entries = _as_seq(s)
    if not 1 <= i <= len(entries) - 1:
        raise DomainError(
            "blowup position %d out of range 1..%d" % (i, len(entries) - 1)
        )
    return entries[:i - 1] + (entries[i - 1] + 1, 1, entries[i] + 1) + entries[i + 1:]


def dominates(s, c) -> bool:
    """True iff the sequences have equal length and s <= c entrywise."""
    s, c = tuple(s), tuple(c)
    return len(s) == len(c) and all(x <= y for x, y in zip(s, c))


_levels = [frozenset({(0, 0)})]


def enumerate_blowups(length: int, limit: int = DEFAULT_LIMIT):
    """All distinct sequences reachable from (0, 0) by exactly
    length - 2 blowups, as a frozenset.  Levels are cached."""
    if length < 2:
        raise DomainError("length must be >= 2, got %d" % length)
    if length > limit:
        raise ResourceLimitError(
            "enumeration of length-%d sequences exceeds limit %d" % (length, limit)
        )
    while len(_levels) < length - 1:
        previous = _levels[-1]
        level = set()
        for s in previous:
            for i in range(1, len(s)):
                level.add(blowup_at(s, i))
        _levels.append(frozenset(level))
    result = _levels[length - 2]
    for s in result:
        assert sum(s) == 3 * (length - 2) and len(s) == length
    return result


def _embeds_entrywise(s, c) -> bool:
    # greedy order-preserving injection with s[i] <= c[match(i)];
    # sound pruning because later blowups only grow existing entries
    # and insert new ones between them
    j = 0
    for x in s:
        while j < len(c) and c[j] < x:
            j += 1
        if j == len(c):
            return False
        j += 1
    return True


def iter_blowup_paths(length: int, target=None, limit: int = DEFAULT_LIMIT):
    """Yield (path, sequence) for every chain of length - 2 blowups from
    (0, 0), the path recorded as the tuple of 1-based positions used.

    With a target sequence, branches that can no longer be dominated by
    it are pruned.  Deterministic: positions are tried in increasing
    order at every depth.
    """
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


def path_to(s):
    """One chain of blowups from (0, 0) ending at s, as a tuple of
    1-based positions; raises if s is not a blowup of (0, 0).

    Only interior entries equal to 1 are unwound.  That reaches every
    blowup: a triangulation of four or more vertices has two
    non-adjacent ears, so one of them is interior, and removing an ear
    leaves a triangulation.
    """
    entries = _as_seq(s)
    moves = len(entries) - 2
    if sum(entries) != 3 * moves:
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
    check = (0, 0)
    for i in path:
        check = blowup_at(check, i)
    assert check == entries
    return path


@dataclass(frozen=True)
class EmbeddingWitness:
    """A blowup of (0, 0) dominated by a rotation of the reversal of the
    queried string.

    sequence: the witness blowup of (0, 0);
    target:   the rotated reversal it is dominated by;
    rotation: how many places the reversal was rotated left (always 0
              for the witnesses embeddability_witness finds).
    """

    sequence: tuple
    target: tuple
    rotation: int


def embeddability_witness(d, limit: int = DEFAULT_LIMIT):
    """First witness making the standard string d embeddable, or None.

    The candidate blowups of (0, 0) are tried in sorted order against
    the unrotated reversal, so the result is deterministic and its
    rotation is always 0 (see the module docstring for why no other
    rotation can succeed where rotation 0 fails).  Raises DomainError
    for non-standard d.
    """
    c = orientation_reversal(d)
    length = len(c)
    if length < 2:
        return None
    for s in sorted(enumerate_blowups(length, limit)):
        if dominates(s, c):
            return EmbeddingWitness(s, c, 0)
    return None


def is_embeddable(d, limit: int = DEFAULT_LIMIT) -> bool:
    """True iff some blowup of (0, 0) is dominated by a rotation of the
    orientation reversal of d."""
    return embeddability_witness(d, limit) is not None
