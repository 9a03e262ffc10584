"""Blowup calculus on sequences of nonnegative integers.

A blowup of s = (s_1, ..., s_l) at position i (1-based, i <= l - 1) is

    (s_1, ..., s_{i-1}, s_i + 1, 1, s_{i+1} + 1, s_{i+2}, ..., s_l),

the combinatorial shadow of blowing up a node of a curve configuration:
the two curves through the node each gain a point of multiplicity and
the exceptional sphere is inserted between them.  Starting from (0, 0),
k blowups always produce a sequence of length k + 2 and sum 3k.

A standard string d is *embeddable* when some blowup s of (0, 0) is
dominated entrywise by its orientation reversal.  The blowups of (0, 0)
are the quiddity sequences of triangulated polygons (Conway and Coxeter,
Triangulated polygons and frieze patterns, Math. Gaz. 1973), a set
closed under rotation, so a rotation of the reversal dominates a blowup
exactly when the reversal itself dominates the rotated blowup, and no
other rotation of the weight cycle is tried.  The dominated blowups come
from one pruned walk, dominated_blowups, that builds each sequence once.
By convention (0, 0) counts as a blowup of itself, which is needed for
reversals of length two.
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
    "dominated_blowups",
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


def _blowup(s, i):
    return s[:i - 1] + (s[i - 1] + 1, 1, s[i] + 1) + s[i + 1:]


def blowup_at(s, i: int):
    """Blow up the sequence s at position i (1-based, 1 <= i <= len - 1)."""
    entries = _as_seq(s)
    if not 1 <= i <= len(entries) - 1:
        raise DomainError(
            "blowup position %d out of range 1..%d" % (i, len(entries) - 1)
        )
    return _blowup(entries, i)


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
                level.add(_blowup(s, i))
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


def dominated_blowups(c):
    """Yield (path, s) once for each blowup s of (0, 0) dominated by c,
    path being the lexicographically first chain of 1-based positions
    to s.  The depth-first walk tries positions in increasing order,
    prunes sequences no further blowups bring under c, and expands no
    sequence twice: every prefix of a lexicographically first chain is
    the first chain to its own sequence, so skipping revisits loses no
    endpoint and keeps the order in which a walk over every chain first
    reaches them."""
    goal = tuple(c)
    built = set()

    def walk(s, path):
        if len(s) == len(goal):
            yield path, s
            return
        for i in range(1, len(s)):
            nxt = _blowup(s, i)
            if nxt in built:
                continue
            built.add(nxt)
            if _embeds_entrywise(nxt, goal):
                yield from walk(nxt, path + (i,))

    yield from walk((0, 0), ())


def path_to(s):
    """One chain of blowups from (0, 0) ending at s, as a tuple of
    1-based positions; raises if s is not a blowup of (0, 0).

    The chain is found by one greedy pass of ear removal: each step
    unwinds the first interior entry equal to 1 whose neighbours are
    >= 1, until (0, 0) is left.  Choosing the first such entry never
    loses a chain: in the quiddity sequence of a triangulation every
    entry 1 is an ear, removing an ear leaves a triangulation, and a
    triangulation of four or more vertices has two non-adjacent ears,
    so one of them is interior.  A sequence that is not a blowup is
    rejected after at most len(s) - 2 steps.
    """
    entries = _as_seq(s)
    if sum(entries) != 3 * (len(entries) - 2):
        raise DomainError("%s is not a blowup of (0, 0)" % (entries,))
    moves = []
    t = entries
    while t != (0, 0):
        j = next(
            (j for j in range(1, len(t) - 1) if t[j] == 1 and t[j - 1] >= 1 and t[j + 1] >= 1),
            None,
        )
        if j is None:
            raise DomainError("%s is not a blowup of (0, 0)" % (entries,))
        t = t[:j - 1] + (t[j - 1] - 1, t[j + 1] - 1) + t[j + 2:]
        moves.append(j)
    path = tuple(reversed(moves))
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

    The witness is the lexicographically smallest of
    dominated_blowups(reversal), so it is deterministic and its rotation
    is always 0 (the module docstring says why no other rotation can
    succeed where rotation 0 fails).  Raises DomainError for
    non-standard d and ResourceLimitError past limit.
    """
    c = orientation_reversal(d)
    length = len(c)
    if length < 2:
        return None
    if length > limit:
        raise ResourceLimitError(
            "enumeration of length-%d sequences exceeds limit %d" % (length, limit)
        )
    w = min((s for _, s in dominated_blowups(c)), default=None)
    if w is None:
        return None
    assert len(w) == length and sum(w) == 3 * (length - 2) and dominates(w, c)
    return EmbeddingWitness(w, c, 0)


def is_embeddable(d, limit: int = DEFAULT_LIMIT) -> bool:
    """True iff some blowup of (0, 0) is dominated by a rotation of the
    orientation reversal of d."""
    return embeddability_witness(d, limit) is not None
