"""Exact SL2(Z) arithmetic for torus-bundle monodromies.

A monodromy string d = (d_1, ..., d_m) composes to the matrix

    monodromy(d) = [[d_m, 1], [-1, 0]] * ... * [[d_1, 1], [-1, 0]]

with the d_m factor leftmost.  Strings are plain tuples of integers;
operations that treat them cyclically say so in their docstrings.

A *standard* string has every entry >= 2 and at least one entry >= 3.
Up to cyclic rotation, standard strings index the conjugacy classes of
hyperbolic matrices with trace > 2; a global sign covers trace < -2.
The involution ``orientation_reversal`` swaps the roles of the
">= 3 entries" and the "runs of 2s" and corresponds to reversing the
orientation of the bundle.

All arithmetic uses Python integers, so overflow cannot occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import DomainError

__all__ = [
    "Mat2",
    "IDENTITY",
    "S",
    "T",
    "TraceClass",
    "H1Invariants",
    "standard_factor",
    "monodromy",
    "classify_trace",
    "evaluate_word",
    "standard_factorization",
    "orientation_reversal",
    "cyclic_canonical",
    "cyclic_equal",
    "is_standard_string",
    "hyperbolic_standard_form",
    "torus_bundle_h1",
]

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Mat2:
    """A 2x2 integer matrix of determinant one, row-major entries."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int):
                raise DomainError("matrix entries must be integers, got %r" % (entry,))
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError(
                "matrix %s has determinant %d, expected 1"
                % (((self.a, self.b), (self.c, self.d)), self.a * self.d - self.b * self.c)
            )

    @property
    def trace(self) -> int:
        return self.a + self.d

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Mat2":
        # adjugate; determinant is one
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            return self.inverse() ** (-n)
        result, base = IDENTITY, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugated_by(self, u: "Mat2") -> "Mat2":
        return u * self * u.inverse()

    def __str__(self):
        return "[[%d, %d], [%d, %d]]" % (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(0, 1, -1, 0)
T = Mat2(1, 1, 0, 1)


def standard_factor(c: int) -> Mat2:
    """The elementary factor [[c, 1], [-1, 0]] of a monodromy product."""
    return Mat2(c, 1, -1, 0)


def _as_string(d):
    entries = tuple(d)
    if not entries:
        raise DomainError("monodromy string must be nonempty")
    for x in entries:
        if not isinstance(x, int):
            raise DomainError("monodromy string entries must be integers, got %r" % (x,))
    return entries


def monodromy(d) -> Mat2:
    """Compose the string d into its monodromy matrix.

    The factor of d_m is applied leftmost, so
    monodromy((1, 2)) == [[2,1],[-1,0]] * [[1,1],[-1,0]] == [[1,2],[-1,-1]].
    """
    result = IDENTITY
    for c in _as_string(d):
        result = standard_factor(c) * result
    return result


@dataclass(frozen=True)
class TraceClass:
    """Trichotomy of an SL2(Z) matrix by the size of its trace."""

    kind: str
    trace: int


def classify_trace(m: Mat2) -> TraceClass:
    """Elliptic, parabolic or hyperbolic according to |trace| <, =, > 2."""
    t = m.trace
    if abs(t) < 2:
        return TraceClass(ELLIPTIC, t)
    if abs(t) == 2:
        return TraceClass(PARABOLIC, t)
    return TraceClass(HYPERBOLIC, t)


def evaluate_word(word, sign: int = 1) -> Mat2:
    """Evaluate a word in the generators S = [[0,1],[-1,0]] and
    T = [[1,1],[0,1]], given as (generator, exponent) pairs.

    The optional global sign multiplies the result by -identity.
    """
    pairs = list(word)
    if not pairs:
        raise DomainError("word must be nonempty")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    result = IDENTITY
    for gen, exp in pairs:
        if gen == "S":
            result = result * (S ** exp)
        elif gen == "T":
            result = result * (T ** exp)
        else:
            raise DomainError("unknown generator %r (expected 'S' or 'T')" % (gen,))
    return result if sign == 1 else -result


def standard_factorization(d):
    """A word w in S and T with evaluate_word(w) == monodromy(d).

    Uses [[c,1],[-1,0]] == T^-c * S applied factor by factor, so the
    word reads T^-d_m S ... T^-d_1 S.  Equivalently, labelling the
    string in reverse order writes -monodromy(d) as
    -T^-d_1 S T^-d_2 S ... T^-d_m S.
    """
    word = []
    for c in reversed(_as_string(d)):
        word.append(("T", -c))
        word.append(("S", 1))
    return word


def is_standard_string(d) -> bool:
    """True iff every entry is >= 2 and some entry is >= 3."""
    return _is_standard(_as_string(d))


def _is_standard(entries) -> bool:
    # is_standard_string on a tuple that _as_string already validated
    return all(x >= 2 for x in entries) and any(x >= 3 for x in entries)


def _standard_blocks(d):
    """Split a standard string, rotated to lead with an entry >= 3, into
    blocks (n_i, m_i) meaning the entry n_i + 3 followed by m_i twos."""
    entries = _as_string(d)
    if not _is_standard(entries):
        raise DomainError(
            "string %s is not standard (needs all entries >= 2, some >= 3)" % (entries,)
        )
    start = next(i for i, x in enumerate(entries) if x >= 3)
    rot = entries[start:] + entries[:start]
    blocks = []
    i = 0
    while i < len(rot):
        n = rot[i] - 3
        i += 1
        m = 0
        while i < len(rot) and rot[i] == 2:
            m += 1
            i += 1
        blocks.append((n, m))
    return blocks


def orientation_reversal(d):
    """The involution on standard strings swapping block data: the entry
    n_i + 3 followed by m_i twos contributes the entry m_i + 3 followed
    by n_i twos, and the blocks are emitted in the opposite cyclic
    direction.

    The input is rotated so that its first entry is >= 3 before the
    blocks are read; applying the map twice returns a cyclic rotation
    of the original string.  The composed monodromies present the same
    bundle with opposite orientations, so in particular the reversal
    preserves the trace of the composition (reversing the block order
    is what makes that identity hold; swapping in place does not).
    """
    out = []
    for n, m in reversed(_standard_blocks(d)):
        out.append(m + 3)
        out.extend([2] * n)
    return tuple(out)


def cyclic_canonical(d):
    """Lexicographically minimal rotation of the string.

    Two strings are cyclically equal iff their canonical forms are
    identical.  Reflections are deliberately not identified.
    """
    entries = _as_string(d)
    doubled = entries + entries
    m = len(entries)
    return min(doubled[i:i + m] for i in range(m))


def cyclic_equal(d1, d2) -> bool:
    """True iff d2 is a cyclic rotation of d1."""
    e1, e2 = _as_string(d1), _as_string(d2)
    return len(e1) == len(e2) and cyclic_canonical(e1) == cyclic_canonical(e2)


# --- hyperbolic reduction ------------------------------------------------
#
# A hyperbolic matrix W with trace > 2 fixes two quadratic irrationals on
# the boundary of the hyperbolic plane.  Expanding a fixed point in the
# ceiling ("minus") continued fraction x = e_0 - 1/(e_1 - 1/...) is
# eventually periodic, and the period recovers the standard string: if
# x is purely periodic with period (d_1, ..., d_m) then x is fixed by
# P = M'(d_1)...M'(d_m), where M'(c) = [[c,-1],[1,0]] is the transpose
# of the standard factor.  Transposition gives P = S monodromy(d)^-1 S^-1,
# so a matrix equal to a negative power of P is conjugate, explicitly,
# to a positive power of monodromy(d).  The reduction below runs the
# expansion on both fixed points, keeps the direction that lands on a
# negative power, and verifies the conjugacy exactly before returning.


def _transpose_factor(c: int) -> Mat2:
    return Mat2(c, -1, 1, 0)


def _ceil_fixed_point(p: int, q: int, sq: int) -> int:
    """Ceiling of (p + sqrt(D))/q for irrational sqrt(D), sq = isqrt(D)."""
    if q > 0:
        return (p + sq) // q + 1
    return (-p - sq - 1) // (-q) + 1


def _reduce_along_root(w: Mat2, p: int, q: int):
    """Expand the fixed point (p + sqrt(D))/q of w in the ceiling
    continued fraction until the state repeats; try to express the
    conjugated matrix as a negative power of the period matrix.

    Returns (string, conjugator) with w == conjugator * monodromy(string)
    * conjugator^-1, or None when this root yields the opposite cycle
    direction.
    """
    disc = w.trace * w.trace - 4
    sq = isqrt(disc)
    assert sq * sq != disc, "discriminant of a hyperbolic trace is never a square"
    seen = {}
    quotients = []
    transforms = [IDENTITY]
    while (p, q) not in seen:
        seen[(p, q)] = len(quotients)
        e = _ceil_fixed_point(p, q, sq)
        quotients.append(e)
        transforms.append(transforms[-1] * _transpose_factor(e))
        p = e * q - p
        q2, rem = divmod(p * p - disc, q)
        assert rem == 0
        q = q2
    start = seen[(p, q)]
    period = tuple(quotients[start:])
    assert all(e >= 2 for e in period) and any(e >= 3 for e in period)
    period_matrix = IDENTITY
    for e in period:
        period_matrix = period_matrix * _transpose_factor(e)
    u = transforms[start]
    w_reduced = u.inverse() * w * u
    power = period_matrix
    repeats = 1
    while abs(power.trace) <= abs(w_reduced.trace):
        if w_reduced == power.inverse():
            string = period * repeats
            conjugator = u * S
            assert w * conjugator == conjugator * monodromy(string)
            return string, conjugator
        if w_reduced == power:
            return None  # other fixed point runs the cycle backwards
        power = power * period_matrix
        repeats += 1
    return None


def hyperbolic_standard_form(m: Mat2):
    """Reduce a hyperbolic matrix to (sign, d) with sign * monodromy(d)
    conjugate to m in SL2(Z), every d_i >= 2 and some d_i >= 3.

    The string is returned in cyclic canonical form; sign is +1 exactly
    when trace(m) > 2.  The period of the continued fraction is a
    complete invariant of the conjugacy class (both fixed points yield
    the same cyclic word), so the result is deterministic per class;
    the conjugacy is verified exactly before returning.
    """
    t = m.trace
    if abs(t) <= 2:
        raise DomainError("standard form requires |trace| > 2, got trace %d" % t)
    sign = 1 if t > 2 else -1
    w = m if sign == 1 else -m
    # trace > 2 with determinant one forces a nonzero lower-left entry
    assert w.c != 0
    candidates = []
    for root in ((w.d - w.a, -2 * w.c), (w.a - w.d, 2 * w.c)):
        got = _reduce_along_root(w, *root)
        if got is not None:
            candidates.append(cyclic_canonical(got[0]))
    if not candidates:
        raise AssertionError("continued-fraction reduction failed for %s" % (m,))
    return sign, min(candidates)


@dataclass(frozen=True)
class H1Invariants:
    """First homology of a torus bundle: a free rank-one part plus the
    cokernel of (monodromy - identity)."""

    free_rank: int
    torsion: tuple


def torus_bundle_h1(m: Mat2) -> H1Invariants:
    """First homology invariants of the torus bundle with monodromy m.

    The group is Z + coker(m - I); the free rank is one and the torsion
    is read off the Smith form of the 2x2 matrix m - I.  Requires
    det(m - I) != 0, which fails only for parabolic trace 2.
    """
    ma, mb, mc, md = m.a - 1, m.b, m.c, m.d - 1
    det = ma * md - mb * mc
    if det == 0:
        raise DomainError(
            "monodromy has trace 2: torsion of a trace-2 parabolic bundle "
            "is not defined by this construction"
        )
    g = gcd(gcd(ma, mb), gcd(mc, md))
    first, second = g, abs(det) // g
    assert first * second == abs(det) and second % first == 0
    torsion = tuple(x for x in (first, second) if x > 1)
    return H1Invariants(1, torsion)
