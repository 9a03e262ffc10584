"""Exact integer linear algebra for intersection forms.

Matrices are sequences of equal-length rows of Python integers; results
are returned as tuples of tuples.  Everything is exact: Smith normal
form with its unimodular transforms, saturated kernels, Gram
determinants, parity and signature.  Determinant, signature and
negative definiteness of a symmetric form come from one fraction-free
symmetric (Bareiss) elimination pass over the integers.  The radical of
a degenerate form and a complement to it come from the same Smith
transform, so no matrix is ever inverted.  Nothing here ever touches
floating point, and unbounded integers rule out overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

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
    rows = [list(map(int, row)) for row in mat]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("matrix rows have unequal lengths")
    return rows


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(x, y):
    if not x or not y:
        return []
    inner = len(y)
    cols = len(y[0])
    return [
        [sum(xrow[k] * y[k][j] for k in range(inner)) for j in range(cols)]
        for xrow in x
    ]


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
    """
    a = _copy(mat)
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = _identity(nr)
    v = _identity(nc)

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
                row[t] = x * s + y * w
                row[j] = -q * s + p * w

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
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
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                if a[t][j] % a[t][t] == 0:
                    coef = -(a[t][j] // a[t][t])
                    for rows in (a, v):
                        for row in rows:
                            row[j] += coef * row[t]
                else:
                    g, x, y = _xgcd(a[t][t], a[t][j])
                    combine_cols(t, j, x, y, a[t][t] // g, a[t][j] // g)
                    column_dirtied = True
            if not column_dirtied and all(a[i][t] == 0 for i in range(t + 1, nr)):
                break
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
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
    check = _mat_mul(_mat_mul([list(r) for r in u], _copy(mat)), [list(r) for r in v])
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
    return _cokernel_from_diagonal(len(rows), smith_diagonal(rows) if rows else ())


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
        for row in rows:
            assert sum(x * y for x, y in zip(row, vec)) == 0
        basis.append(vec)
    return rank, tuple(basis)


def determinant(mat):
    """Exact determinant by Bareiss fraction-free elimination."""
    a = _copy(mat)
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise DomainError("determinant of a non-square matrix")
    sign = 1
    prev = 1
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
    return sign * a[-1][-1]


def _sym_eliminate(gram):
    """(det, (pos, neg, zero)) of a symmetric integer matrix from one
    fraction-free symmetric elimination pass.

    This is Bareiss elimination under congruence.  Once the pivots of a
    set L of indices are processed, each trailing entry a_ij is the
    minor of rows L + {i} and columns L + {j}, so dividing by the
    previous pivot (the minor of L) is exact.  A zero pivot a_kk is
    replaced by a symmetric swap with a nonzero trailing diagonal entry;
    failing that, adding row and column i to row and column k makes
    a_kk = 2 a_ik; failing that, index k pairs to zero with the whole
    trailing block, so it counts towards the radical and is skipped
    without becoming the previous pivot.  All three moves are integer
    congruences of the trailing block, which keep the minors integral.

    By Jacobi's rule the pivot's diagonal entry in the congruent
    diagonal form has the sign of a_kk times the previous pivot.  Swaps
    and row-and-column additions leave the determinant unchanged, so it
    is the last pivot, or 0 when some index was skipped.
    """
    a = _copy(gram)
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("symmetric form expected, got a non-square matrix")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise DomainError("symmetric form expected, got a non-symmetric matrix")
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
                # remaining diagonal vanishes, so this makes a_kk = 2 a_ik != 0
                row_k, row_o = a[k], a[other]
                for j in range(k, n):
                    row_k[j] += row_o[j]
                for row in a[k:]:
                    row[k] += row[other]
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
    integral symmetric form this is detected by the diagonal alone."""
    rows = tuple(tuple(r) for r in gram)
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
    gram = tuple(tuple(map(int, row)) for row in ambient_gram)
    n = len(gram)
    for row in gram:
        if len(row) != n:
            raise DomainError("ambient Gram matrix must be square")
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise DomainError("ambient Gram matrix must be symmetric")
    vecs = [tuple(map(int, v)) for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise DomainError("vector length %d does not match ambient rank %d" % (len(v), n))
    pairing_rows = [
        tuple(sum(v[i] * gram[i][j] for i in range(n)) for j in range(n)) for v in vecs
    ]
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
        for row in pairing_rows:
            assert sum(x * y for x, y in zip(b, row)) == 0
    return Sublattice(gram, basis)


def gram_matrix(sub: Sublattice):
    """Gram matrix of the sublattice basis under the ambient pairing."""
    g = sub.ambient_gram
    n = len(g)
    paired = [
        [sum(b[i] * g[i][j] for i in range(n)) for j in range(n)] for b in sub.basis
    ]
    return tuple(
        tuple(sum(prow[j] * c[j] for j in range(n)) for c in sub.basis)
        for prow in paired
    )


def gram_invariants(gram) -> LatticeInvariants:
    """Invariants of an explicit symmetric Gram matrix."""
    rows = tuple(tuple(map(int, r)) for r in gram)
    return _gram_invariants(rows, smith_diagonal(rows) if rows else ())


def _gram_invariants(rows, diag):
    """gram_invariants of integer rows whose Smith diagonal is known."""
    det, sig = _sym_eliminate(rows)
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


def diagonal_gram(entries):
    """Diagonal Gram matrix with the given entries."""
    entries = tuple(map(int, entries))
    return tuple(
        tuple(entries[i] if i == j else 0 for j in range(len(entries)))
        for i in range(len(entries))
    )


def cycle_graph_gram(weights, edge_signs=None):
    """Intersection matrix of a cycle of spheres with the given framing
    weights; edge i joins vertex i to vertex i + 1 (mod length), the
    last edge closing the cycle.  Edge signs default to all +1.  A
    length-two cycle is a double edge, so its off-diagonal entry is the
    sum of the two edge signs."""
    w = tuple(map(int, weights))
    n = len(w)
    if n < 2:
        raise DomainError("a cycle needs at least two vertices")
    signs = tuple(edge_signs) if edge_signs is not None else (1,) * n
    if len(signs) != n:
        raise DomainError("need one sign per edge, got %d for %d edges" % (len(signs), n))
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = w[i]
    for i, sign in enumerate(signs):
        j = (i + 1) % n
        q[i][j] += sign
        q[j][i] += sign
    return tuple(tuple(row) for row in q)


def tree_graph_gram(weights, edges):
    """Intersection matrix of a plumbing tree: diagonal weights and a
    +1 entry for every edge (i, j)."""
    w = tuple(map(int, weights))
    n = len(w)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = w[i]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise DomainError("bad edge (%d, %d)" % (i, j))
        q[i][j] += 1
        q[j][i] += 1
    return tuple(tuple(row) for row in q)
