"""Exact integer linear algebra for intersection forms.

Matrices are sequences of equal-length rows of Python integers, read
through errors._ints, so a non-integer entry raises DomainError rather
than being truncated; results are returned as tuples of tuples.
Everything is exact: Smith normal form with its unimodular transforms,
saturated kernels, Gram determinants, parity and signature.  The
determinant of any square matrix, and the signature and negative
definiteness of a symmetric form, come from one fraction-free symmetric
(Bareiss) elimination pass over the integers.  The radical of a
degenerate form and a complement to it come from the same Smith
transform, so no matrix is ever inverted.  Matrix products, Gram
matrices, pairings and the re-check of every Smith transform, formed
as (u * mat) * v, multiply only nonzero entries, and the Smith
elimination skips the rows and entries that a step leaves unchanged;
the transforms are, bit for bit, those of the dense elimination.
Nothing here ever touches floating point, and unbounded integers rule
out overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import DomainError, _ints

__all__ = [
    "smith_normal_form",
    "cokernel_invariants",
    "integer_kernel",
    "determinant",
    "signature",
    "parity",
    "is_negative_definite",
    "Sublattice",
    "LatticeInvariants",
    "orthogonal_complement",
    "gram_matrix",
    "lattice_invariants",
    "gram_invariants",
    "radical_and_quotient",
    "cycle_graph_gram",
    "tree_graph_gram",
    "diagonal_gram",
]

EVEN = "even"
ODD = "odd"


def _copy(mat):
    rows = [list(_ints(row, "matrix entries")) for row in mat]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("matrix rows have unequal lengths")
    return rows


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _support(row):
    """The (index, entry) pairs of the nonzero entries of a row."""
    return [(j, x) for j, x in enumerate(row) if x]


def _row_times(support, mat_supports, width):
    """The row vector with the given support times the matrix whose row
    supports are given, as a list of the given width.  Only products of
    two nonzero entries are formed."""
    out = [0] * width
    for k, x in support:
        for j, y in mat_supports[k]:
            out[j] += x * y
    return out


def _mat_mul(x, y):
    cols = len(y[0]) if y else 0
    y_supports = [_support(row) for row in y]
    return [_row_times(_support(xrow), y_supports, cols) for xrow in x]


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def smith_normal_form(mat):
    """Smith normal form with transforms: returns (d, u, v) with
    u * mat * v == d, d diagonal with d_1 | d_2 | ..., and u, v
    unimodular.  Pivots are improved with Bezout row and column
    transforms, which keeps intermediate entries small.  The identity
    u * mat * v == d is re-verified by multiplication before returning.

    The work skips zeros without changing a bit of d, u or v.  The
    pivot is the first entry of least absolute value in row-major
    order, so the search stops at the first unit.  A unit pivot divides
    every entry, so no remainder is scanned for.  A column operation
    visits only the rows of the working matrix and of v whose entries
    it changes.  The re-check forms (u * mat) * v, multiplying only
    nonzero entries.
    """
    m = _copy(mat)
    a = [row[:] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = _identity(nr)
    v = _identity(nc)

    def find_pivot(t):
        pivot, least = None, 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = abs(row[j])
                if x and (not least or x < least):
                    if x == 1:
                        return i, j
                    pivot, least = (i, j), x
        return pivot

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def combine_rows(t, i, x, y, p, q):
        # (row_t, row_i) <- (x*row_t + y*row_i, -q*row_t + p*row_i),
        # determinant x*p + y*q == 1
        for rows in (a, u):
            rt, ri = rows[t], rows[i]
            rows[t] = [x * s + y * w for s, w in zip(rt, ri)]
            rows[i] = [-q * s + p * w for s, w in zip(rt, ri)]

    def combine_cols(t, j, x, y, p, q):
        for rows in (a, v):
            for row in rows:
                s, w = row[t], row[j]
                if s or w:
                    row[t] = x * s + y * w
                    row[j] = -q * s + p * w

    t = 0
    while t < min(nr, nc):
        pivot = find_pivot(t)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                if a[i][t] % a[t][t] == 0:
                    coef = -(a[i][t] // a[t][t])
                    a[i] = [s + coef * w for s, w in zip(a[i], a[t])]
                    u[i] = [s + coef * w for s, w in zip(u[i], u[t])]
                else:
                    g, x, y = _xgcd(a[t][t], a[i][t])
                    combine_rows(t, i, x, y, a[t][t] // g, a[i][t] // g)
            column_dirtied = False
            support = None  # rows of a and v with a nonzero entry in column t
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                if a[t][j] % a[t][t] == 0:
                    coef = -(a[t][j] // a[t][t])
                    if support is None:
                        support = [row for rows in (a, v) for row in rows if row[t]]
                    for row in support:
                        row[j] += coef * row[t]
                else:
                    g, x, y = _xgcd(a[t][t], a[t][j])
                    combine_cols(t, j, x, y, a[t][t] // g, a[t][j] // g)
                    column_dirtied = True
                    support = None
            if not column_dirtied and all(a[i][t] == 0 for i in range(t + 1, nr)):
                break
        if abs(a[t][t]) != 1:
            offender = next(
                (i for i in range(t + 1, nr) if any(x % a[t][t] for x in a[i][t + 1:])), None
            )
            if offender is not None:
                a[t] = [s + w for s, w in zip(a[t], a[offender])]
                u[t] = [s + w for s, w in zip(u[t], u[offender])]
                continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = tuple(tuple(row) for row in a)
    u = tuple(tuple(row) for row in u)
    v = tuple(tuple(row) for row in v)
    check = _mat_mul(_mat_mul(u, m), v)
    assert tuple(tuple(row) for row in check) == d, "smith form transform check failed"
    diag = [d[i][i] for i in range(min(nr, nc))]
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and (x == 0 or y % x == 0)
    return d, u, v


def smith_diagonal(mat):
    """The diagonal of the Smith normal form, as a tuple."""
    d, _, _ = smith_normal_form(mat)
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def cokernel_invariants(mat):
    """(free rank, torsion divisors) of the cokernel of the map Z^cols ->
    Z^rows given by the matrix."""
    rows = tuple(mat)
    return _cokernel_from_diagonal(len(rows), smith_diagonal(rows))


def _cokernel_from_diagonal(nrows, diag):
    """cokernel_invariants of a matrix with nrows rows and the given
    Smith diagonal."""
    rank = sum(1 for x in diag if x)
    torsion = tuple(x for x in diag if x > 1)
    return nrows - rank, torsion


def integer_kernel(mat):
    """A basis (tuple of row vectors) of the kernel of the integer matrix,
    acting on column vectors.  Kernels of integer maps are saturated, so
    the basis is primitive."""
    rows = _copy(mat)
    if not rows:
        return ()
    d, _, v = smith_normal_form(rows)
    return _smith_kernel(rows, d, v)[1]


def _smith_kernel(rows, d, v):
    """(rank, kernel basis) of the matrix rows whose Smith form is
    u * rows * v == d: the kernel is spanned by the columns of v past
    the rank, each checked to be annihilated by rows."""
    nc = len(v)
    rank = sum(1 for i in range(min(len(rows), nc)) if d[i][i])
    basis = []
    for j in range(rank, nc):
        vec = tuple(v[i][j] for i in range(nc))
        support = _support(vec)
        for row in rows:
            assert sum(row[i] * x for i, x in support) == 0
        basis.append(vec)
    return rank, tuple(basis)


def _square(mat, message):
    """A copy of the matrix as lists, or DomainError(message) when it is
    not square."""
    a = _copy(mat)
    if any(len(row) != len(a) for row in a):
        raise DomainError(message)
    return a


def determinant(mat):
    """Exact determinant, from the fraction-free elimination pass that
    also gives the signature of a symmetric form (see _eliminate)."""
    return _eliminate(_square(mat, "determinant of a non-square matrix"))[0]


def _symmetric(gram):
    """A copy of the matrix as lists, or DomainError when it is not a
    symmetric form."""
    a = _square(gram, "symmetric form expected, got a non-square matrix")
    for i in range(len(a)):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise DomainError("symmetric form expected, got a non-symmetric matrix")
    return a


def _sym_eliminate(gram):
    """(det, (pos, neg, zero)) of a symmetric integer matrix from one
    fraction-free symmetric elimination pass (see _eliminate)."""
    return _eliminate(_symmetric(gram))


def _eliminate(a):
    """(det, (pos, neg, zero)) from one fraction-free elimination pass
    over the square list-of-lists matrix a, which it overwrites.  The
    determinant is right for every square matrix; the inertia is that
    of a, read as a form, when a is symmetric.

    This is Bareiss elimination under congruence.  Once the pivots of a
    set L of indices are processed, each trailing entry a_ij is the
    minor of rows L + {i} and columns L + {j}, so dividing by the
    previous pivot (the minor of L) is exact.  A zero pivot a_kk is
    replaced by a symmetric swap with a nonzero trailing diagonal entry;
    failing that, adding row o to row k, for the first o > k with
    x = a_ok != 0, makes a_kk = x; failing that, index k pairs to zero
    with the whole trailing block, so it counts towards the radical and
    is skipped without becoming the previous pivot.

    The determinant needs no symmetry.  A symmetric swap is a
    similarity by a permutation, and adding row o to row k keeps the
    determinant.  Minors are linear in each row, so after the addition
    every later trailing entry is the Bareiss minor of the modified
    matrix, and the divisions stay exact.  A skipped index k has a zero
    column in the trailing block, which is the Schur complement of L
    times the previous pivot, so the determinant is 0.  Otherwise it is
    the last pivot, the minor of all indices.

    By Jacobi's rule the pivot's diagonal entry in the congruent
    diagonal form of a symmetric matrix has the sign of a_kk times the
    previous pivot.  The row addition needs no matching column addition:
    with it, the steps at k and k + 1 pivot the hyperbolic plane spanned
    by k and o.  Before it the trailing block is symmetric, every
    trailing diagonal entry is 0 and a_ik = 0 for k < i < o.  The step
    at k, with pivot x over the previous pivot p, leaves a_oo =
    (0 * x - x * (x + 0)) / p = -x^2 / p != 0 and a_ii = (0 * x - 0 *
    (a_ki + a_oi)) / p = 0 for k < i < o, so the step at k + 1 pivots o,
    swapped in if o > k + 1.  The signs of x * p and -x^3 / p differ, so
    the two pivots count one positive and one negative index, the
    inertia of the plane.  Once k and o are both processed, each minor
    contains rows k and o, so it equals the minor of the symmetric
    matrix before the addition, and so does the new previous pivot
    -x^2 / p.  The trailing block is then again the symmetric one
    described above, and no index is skipped at k + 1.
    """
    n = len(a)
    pos = neg = zero = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a[k:]:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((i for i in range(k + 1, n) if a[i][k]), None)
                if other is None:
                    zero += 1
                    continue
                # remaining diagonal vanishes, so this makes a_kk = a_ok != 0
                row_k, row_o = a[k], a[other]
                for j in range(k, n):
                    row_k[j] += row_o[j]
        pivot = a[k][k]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        tail = a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return (0 if zero else prev), (pos, neg, zero)


def signature(gram):
    """(positive, negative, zero) inertia of a symmetric integer matrix,
    from one fraction-free symmetric elimination pass."""
    return _sym_eliminate(gram)[1]


def parity(gram):
    """"even" when every self-pairing is even, else "odd".  For an
    integral symmetric form this is detected by the diagonal alone, so
    any other matrix raises DomainError, as in signature."""
    rows = _symmetric(gram)
    return EVEN if all(rows[i][i] % 2 == 0 for i in range(len(rows))) else ODD


def is_negative_definite(gram) -> bool:
    """Whether a symmetric integer matrix is negative definite: every
    pivot of the symmetric elimination pass is negative, which is
    Sylvester's criterion on the leading minors of a congruent matrix.
    Raises DomainError on a non-square or non-symmetric matrix."""
    return _negative_definite(_sym_eliminate(gram)[1])


def _negative_definite(sig) -> bool:
    """Negative definiteness read off a (pos, neg, zero) inertia: no
    positive and no zero part."""
    pos, _, zero = sig
    return pos == zero == 0


@dataclass(frozen=True)
class Sublattice:
    """A saturated sublattice of a fixed integral lattice, given by the
    ambient Gram matrix and a primitive basis (rows)."""

    ambient_gram: tuple
    basis: tuple


@dataclass(frozen=True)
class LatticeInvariants:
    """Basis-independent data of an integral bilinear form."""

    rank: int
    det: int
    parity: str
    signature: tuple
    elementary_divisors: tuple


def orthogonal_complement(ambient_gram, vectors) -> Sublattice:
    """The saturated sublattice of integer vectors pairing to zero with
    every given vector, under the (symmetric) ambient Gram matrix."""
    gram = tuple(map(tuple, _symmetric(ambient_gram)))
    n = len(gram)
    vecs = [_ints(v, "vector entries") for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise DomainError("vector length %d does not match ambient rank %d" % (len(v), n))
    gram_supports = [_support(row) for row in gram]
    pairing_rows = [tuple(_row_times(_support(v), gram_supports, n)) for v in vecs]
    if pairing_rows:
        kernel = integer_kernel(pairing_rows)
    else:
        kernel = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    normalized = []
    for vec in kernel:
        lead = next((x for x in vec if x), 1)
        normalized.append(vec if lead > 0 else tuple(-x for x in vec))
    basis = tuple(sorted(normalized))
    for b in basis:
        support = _support(b)
        for row in pairing_rows:
            assert sum(row[i] * x for i, x in support) == 0
    return Sublattice(gram, basis)


def gram_matrix(sub: Sublattice):
    """Gram matrix of the sublattice basis under the ambient pairing,
    multiplied over the nonzero entries of the basis and the ambient."""
    g = sub.ambient_gram
    g_supports = [_support(row) for row in g]
    supports = [_support(b) for b in sub.basis]
    paired = [_row_times(b, g_supports, len(g)) for b in supports]
    return tuple(
        tuple(sum(prow[j] * x for j, x in c) for c in supports) for prow in paired
    )


def gram_invariants(gram) -> LatticeInvariants:
    """Invariants of an explicit symmetric Gram matrix."""
    rows = _copy(gram)
    return _gram_invariants(rows, smith_diagonal(rows))


def _gram_invariants(rows, diag):
    """gram_invariants of integer rows whose Smith diagonal is known.

    The two eliminations check each other: |det| is the product of a
    full Smith diagonal, which is 0 when the diagonal has a zero, and
    det is 0 when the diagonal is short."""
    det, sig = _sym_eliminate(rows)
    full = len(diag) == len(rows)
    assert abs(det) == (prod(diag) if full else 0), "determinant and Smith diagonal disagree"
    divisors = tuple(x for x in diag if x > 1)
    return LatticeInvariants(len(rows), det, parity(rows), sig, divisors)


def lattice_invariants(sub: Sublattice) -> LatticeInvariants:
    """Invariants of a sublattice: Gram determinant (signed), parity,
    signature and elementary divisors, all basis-independent."""
    return gram_invariants(gram_matrix(sub))


def radical_and_quotient(sub: Sublattice):
    """Radical rank of the induced form and the invariants of the
    nondegenerate quotient form on (sublattice / radical).

    One Smith transform u * g * v == d of the Gram matrix g gives both
    halves: the columns of v past the rank are the radical basis that
    integer_kernel returns, and since v is unimodular its first rank
    columns span a complement, on which g restricts to the quotient
    form.  The quotient's elementary divisors are those of g: as a map
    to the dual lattice, g is the projection onto sublattice / radical,
    then the quotient form, then the inclusion of the quotient's dual
    as a direct summand, so both cokernels have the same torsion.
    """
    g = gram_matrix(sub)
    d, _, v = smith_normal_form(g)
    rank, radical = _smith_kernel(g, d, v)
    diag = tuple(d[i][i] for i in range(rank))
    if not radical:
        return 0, _gram_invariants(g, diag)
    complement = tuple(tuple(row[j] for row in v) for j in range(rank))
    inv = _gram_invariants(gram_matrix(Sublattice(g, complement)), diag)
    assert inv.signature[2] == 0
    return len(radical), inv


# --- plumbing-graph Gram matrices ----------------------------------------


def _graph_gram(weights, signed_edges):
    """The Gram matrix of a plumbing graph: the ints `weights` on the
    diagonal, and the sign of each (i, j, sign) in `signed_edges` added
    to entries (i, j) and (j, i)."""
    q = [[0] * len(weights) for _ in weights]
    for i, w in enumerate(weights):
        q[i][i] = w
    for i, j, sign in signed_edges:
        q[i][j] += sign
        q[j][i] += sign
    return tuple(map(tuple, q))


def diagonal_gram(entries):
    """Diagonal Gram matrix with the given entries."""
    return _graph_gram(_ints(entries, "diagonal entries"), ())


def cycle_graph_gram(weights, edge_signs=None):
    """Intersection matrix of a cycle of spheres with the given framing
    weights; edge i joins vertex i to vertex i + 1 (mod length), the
    last edge closing the cycle.  Edge signs default to all +1.  A
    length-two cycle is a double edge, so its off-diagonal entry is the
    sum of the two edge signs."""
    w = _ints(weights, "weights")
    n = len(w)
    if n < 2:
        raise DomainError("a cycle needs at least two vertices")
    signs = _ints(edge_signs, "edge signs") if edge_signs is not None else (1,) * n
    if len(signs) != n:
        raise DomainError("need one sign per edge, got %d for %d edges" % (len(signs), n))
    return _graph_gram(w, [(i, (i + 1) % n, sign) for i, sign in enumerate(signs)])


def tree_graph_gram(weights, edges):
    """Intersection matrix of a plumbing tree: diagonal weights and a
    +1 entry for every edge (i, j)."""
    w = _ints(weights, "weights")
    n = len(w)
    edges = tuple(_ints(edge, "edge endpoints") for edge in edges)
    for edge in edges:
        if len(edge) != 2 or not (0 <= edge[0] < n and 0 <= edge[1] < n) or edge[0] == edge[1]:
            raise DomainError("bad edge %s" % (edge,))
    return _graph_gram(w, [(i, j, 1) for i, j in edges])
