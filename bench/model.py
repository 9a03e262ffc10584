"""Independent arithmetic the benchmark uses to build inputs and to check
outputs, written from the definitions rather than from the library, so a
defect in the library cannot hide itself from the checks.

Conventions follow the library's documentation: a string d composes to
[[d_m, 1], [-1, 0]] ... [[d_1, 1], [-1, 0]]; a blowup of s at position i
(1 <= i < len(s)) is (..., s_i + 1, 1, s_{i+1} + 1, ...); the
orientation reversal of a standard string swaps the block data (entry
n + 3 followed by m twos <-> entry m + 3 followed by n twos) and emits
the blocks in the opposite cyclic order.
"""

from __future__ import annotations

from functools import lru_cache


def product(d):
    """The monodromy matrix of d as ((a, b), (c, d)), by direct 2x2
    products."""
    a, b, c, e = 1, 0, 0, 1
    for x in d:
        # left-multiply by [[x, 1], [-1, 0]]
        a, b, c, e = x * a + c, x * b + e, -a, -b
    return ((a, b), (c, e))


def is_standard(d) -> bool:
    return all(x >= 2 for x in d) and any(x >= 3 for x in d)


def reversal(d):
    """Orientation reversal of a standard string by block swap."""
    d = tuple(d)
    start = next(i for i, x in enumerate(d) if x >= 3)
    rot = d[start:] + d[:start]
    blocks = []
    for x in rot:
        if x >= 3:
            blocks.append([x - 3, 0])
        else:
            blocks[-1][1] += 1
    out = []
    for n, m in reversed(blocks):
        out.append(m + 3)
        out.extend([2] * n)
    return tuple(out)


def is_rotation(x, y) -> bool:
    x, y = tuple(x), tuple(y)
    return len(x) == len(y) and any(x[k:] + x[:k] == y for k in range(len(x)))


def blowup(s, i):
    return s[:i - 1] + (s[i - 1] + 1, 1, s[i] + 1) + s[i + 1:]


def random_blowup(rng, length):
    s = (0, 0)
    while len(s) < length:
        s = blowup(s, rng.randint(1, len(s) - 1))
    return s


def _blow_down(s, j):
    return s[:j - 1] + (s[j - 1] - 1, s[j + 1] - 1) + s[j + 2:]


def _ears(s):
    return [j for j in range(1, len(s) - 1) if s[j] == 1 and s[j - 1] >= 1 and s[j + 1] >= 1]


def is_origin_blowup(s) -> bool:
    """True iff s is a blowup of (0, 0).  Greedy blow-down is complete:
    blowups of (0, 0) are triangle counts of polygon triangulations
    with the edge (last, first) fixed, and removing any interior ear of
    a triangulation leaves a triangulation."""
    s = tuple(s)
    if len(s) < 2 or any(x < 0 for x in s) or sum(s) != 3 * (len(s) - 2):
        return False
    while len(s) > 2:
        ears = _ears(s)
        if not ears:
            return False
        s = _blow_down(s, ears[0])
    return s == (0, 0)


@lru_cache(maxsize=None)
def _paths(s):
    if s == (0, 0):
        return 1
    return sum(_paths(_blow_down(s, j)) for j in _ears(s))


@lru_cache(maxsize=None)
def _level(length):
    if length == 2:
        return ((0, 0),)
    out = set()
    for s in _level(length - 1):
        for i in range(1, len(s)):
            out.add(blowup(s, i))
    return tuple(sorted(out))


def _dominated(s, c):
    return all(x <= y for x, y in zip(s, c))


def census_target(d):
    """The rotation of reversal(d) the census works on: the first one
    that dominates some blowup of (0, 0), or None."""
    c = reversal(d)
    for k in range(len(c)):
        rotated = c[k:] + c[:k]
        if any(_dominated(s, rotated) for s in _level(len(c))):
            return rotated
    return None


def chain_count(target):
    """Number of blowup chains from (0, 0) ending at a sequence dominated
    by target: the work the filling census does, one cap per chain."""
    return sum(_paths(s) for s in _level(len(target)) if _dominated(s, target))


def _canonical(c):
    return min(c[k:] + c[:k] for k in range(len(c)))


@lru_cache(maxsize=None)
def _dominates_triangulation(c):
    # c (canonical rotation) dominates the triangle counts of some
    # triangulation of the len(c)-gon.  Every triangulation with four or
    # more vertices has an ear j (count 1) whose neighbours have count
    # >= 2, and removing it leaves a triangulation of a smaller polygon.
    n = len(c)
    if n == 3:
        return min(c) >= 1
    for j in range(n):
        left, right = (j - 1) % n, (j + 1) % n
        if c[j] >= 1 and c[left] >= 2 and c[right] >= 2:
            smaller = list(c)
            smaller[left] -= 1
            smaller[right] -= 1
            del smaller[j]
            cap = len(smaller) - 2
            if _dominates_triangulation(_canonical(tuple(min(x, cap) for x in smaller))):
                return True
    return False


def embeddable(d) -> bool:
    """Whether the standard string d is embeddable: some rotation of its
    reversal dominates a blowup of (0, 0).  Blowups of (0, 0) of length
    l are exactly the triangle counts of triangulations of the l-gon, a
    set closed under rotation."""
    c = reversal(d)
    if len(c) < 3:
        return len(c) == 2
    cap = len(c) - 2
    return _dominates_triangulation(_canonical(tuple(min(x, cap) for x in c)))


def determinant(rows):
    """Exact determinant by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1
