import itertools
import random
import re
from fractions import Fraction
from unittest.mock import Mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusfill.errors import DomainError
from torusfill.lattice import (
    LatticeInvariants,
    _copy,
    _identity,
    _mat_mul,
    _sym_eliminate,
    _xgcd,
    Sublattice,
    cokernel_invariants,
    cycle_graph_gram,
    determinant,
    diagonal_gram,
    gram_invariants,
    gram_matrix,
    integer_kernel,
    is_negative_definite,
    lattice_invariants,
    orthogonal_complement,
    parity,
    radical_and_quotient,
    signature,
    smith_diagonal,
    smith_normal_form,
    tree_graph_gram,
)
from torusfill import lattice
from torusfill.fillings import distfill_family, family_configuration_divisors
from torusfill.sl2z import monodromy, torus_bundle_h1


def mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0])))
        for i in range(len(x))
    )


def random_unimodular(rng, n, steps=10):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


class TestSmithNormalForm:
    def test_identity(self):
        d, u, v = smith_normal_form([[1, 0], [0, 1]])
        assert d == ((1, 0), (0, 1))

    def test_gcd_two(self):
        d, _, _ = smith_normal_form([[-2, -4], [0, -2]])
        assert (d[0][0], d[1][1]) == (2, 2)

    def test_gcd_one(self):
        d, _, _ = smith_normal_form([[2, 1], [1, -1]])
        assert (d[0][0], d[1][1]) == (1, 3)

    def test_transform_contract_random(self):
        rng = random.Random(40)
        for _ in range(300):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            m = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
            d, u, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
            diag = [d[i][i] for i in range(min(nr, nc))]
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and (a == 0 or b % a == 0)

    def test_rows_without_columns(self):
        # a map from the zero lattice: d keeps one empty row per row of
        # the input, u is the identity on the rows and v is 0 x 0; the
        # kernel is empty, the cokernel is free of rank the row count,
        # and the complement in a rank-0 ambient is the zero lattice
        assert smith_normal_form([[]]) == (((),), ((1,),), ())
        assert integer_kernel([[], []]) == ()
        assert cokernel_invariants([[], []]) == (2, ())
        assert orthogonal_complement((), [()]) == Sublattice((), ())

    def test_recheck_catches_a_wrong_transform(self, monkeypatch):
        # u and v start as diag(2, 1, ...), so both come out wrong while
        # the elimination on the working matrix, and so d, is unchanged;
        # u * m * v then scales m's first row and column, so any m with a
        # nonzero corner fails the re-check
        identity = lattice._identity

        def doubled(n):
            out = identity(n)
            if out:
                out[0][0] = 2
            return out

        monkeypatch.setattr(lattice, "_identity", doubled)
        rng = random.Random(41)
        for m in [[[1]], [[2, 1], [1, -1]], [[-2, -4], [0, -2]]] + [
            [[rng.randint(1, 20)] + [rng.randint(-20, 20) for _ in range(nc - 1)]
             for _ in range(nr)]
            for nr, nc in [(1, 3), (3, 1), (4, 4), (5, 3), (3, 5)]
        ]:
            with pytest.raises(AssertionError, match="smith form transform check failed"):
                smith_normal_form(m)


@pytest.mark.parametrize(
    "fn",
    [smith_normal_form, smith_diagonal, integer_kernel, determinant, signature, gram_invariants],
    ids=lambda fn: fn.__name__,
)
def test_matrix_generators_are_read_once(fn):
    m = [[2, 4, 0], [4, -6, 2], [0, 2, 8]]
    assert fn(iter(m)) == fn(row for row in m) == fn(m)


class TestCokernel:
    def test_zero_map(self):
        assert cokernel_invariants([[0]]) == (1, ())

    def test_finite(self):
        assert cokernel_invariants([[-2, -4], [0, -2]]) == (0, (2, 2))

    def test_cycle_graph_matches_bundle_homology(self):
        # the cycle plumbing with weights (-3, -2, -2) and one negative
        # edge bounds the bundle of the string (3, 2, 2) with a sign
        q = cycle_graph_gram((-3, -2, -2), (1, 1, -1))
        free, torsion = cokernel_invariants(q)
        assert free == 0
        assert torsion == torus_bundle_h1(-monodromy((3, 2, 2))).torsion == (7,)
        # and matches the reversal's bundle too
        assert torsion == torus_bundle_h1(-monodromy((5,))).torsion

    def test_double_edge_graph_matches_bundle_homology(self):
        # double-edge graph (+1, -1): bounds the single-vertex hyperbolic
        # family member with weight 3
        q = ((1, 2), (2, -1))
        free, torsion = cokernel_invariants(q)
        assert (free, torsion) == (0, (5,))
        assert torsion == torus_bundle_h1(-monodromy((3,))).torsion


class TestKernel:
    def test_kernel_is_annihilating(self):
        rng = random.Random(4)
        for _ in range(100):
            nr, nc = rng.randint(1, 5), rng.randint(1, 6)
            m = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
            for vec in integer_kernel(m):
                assert all(sum(r[i] * vec[i] for i in range(nc)) == 0 for r in m)

    def test_kernel_is_saturated(self):
        # multiples of a kernel vector divided by their content stay in
        # the kernel basis span: check via smith form of the basis
        basis = integer_kernel([[2, 4, 6]])
        d, _, _ = smith_normal_form(basis)
        diag = [d[i][i] for i in range(min(len(basis), 3))]
        assert all(x == 1 for x in diag)


class TestInvariants:
    def test_span_difference_in_negative_plane(self):
        sub = Sublattice(diagonal_gram((-1, -1)), ((1, -1),))
        inv = lattice_invariants(sub)
        assert (inv.rank, inv.det, inv.parity) == (1, -2, "even")

    def test_full_odd_lattice_signature(self):
        for r in (1, 4, 9):
            inv = gram_invariants(diagonal_gram((1,) + (-1,) * r))
            assert inv.signature == (1, r, 0)
            assert inv.parity == "odd"

    def test_chern_square_bookkeeping(self):
        # 3 * signature + 2 * euler = 9 - r on an r-fold blowup model
        for r in range(10):
            sig = signature(diagonal_gram((1,) + (-1,) * r))
            sigma = sig[0] - sig[1]
            euler = 3 + r
            assert 3 * sigma + 2 * euler == 9 - r

    def test_det_is_basis_independent(self):
        rng = random.Random(77)
        gram = diagonal_gram((1, -1, -1, -1, -1))
        sub = orthogonal_complement(gram, [(1, -1, -1, -1, 0)])
        base = lattice_invariants(sub)
        rows = [list(b) for b in sub.basis]
        for _ in range(25):
            u = random_unimodular(rng, len(rows))
            changed = mat_mul(u, rows)
            inv = lattice_invariants(Sublattice(gram, tuple(map(tuple, changed))))
            assert inv.det == base.det
            assert inv.parity == base.parity
            assert inv.signature == base.signature

    def test_orthogonal_complement_simple(self):
        sub = orthogonal_complement(diagonal_gram((1, -1)), [(1, 0)])
        assert sub.basis == ((0, 1),)
        assert lattice_invariants(sub).det == -1

    def test_complement_rank(self):
        gram = diagonal_gram((1, -1, -1, -1))
        sub = orthogonal_complement(gram, [(1, -1, 0, 0), (0, 0, 1, -1)])
        assert len(sub.basis) == 2

    def test_requires_symmetry(self):
        with pytest.raises(DomainError):
            orthogonal_complement(((0, 1), (2, 0)), [(1, 0)])


class TestDefiniteness:
    def test_negative_definite(self):
        assert is_negative_definite(diagonal_gram((-1, -2)))
        assert is_negative_definite(((-2, 1), (1, -2)))

    def test_not_negative_definite(self):
        assert not is_negative_definite(((1, 0), (0, -1)))
        assert not is_negative_definite(((0, 2), (2, 4)))

    def test_semidefinite_is_not_definite(self):
        assert not is_negative_definite(((-2, 2), (2, -2)))

    def test_requires_symmetry(self):
        with pytest.raises(DomainError):
            is_negative_definite(((-2, 1), (0, -2)))
        with pytest.raises(DomainError):
            is_negative_definite(((-2, 1),))


class TestRadical:
    def test_isotropic_line(self):
        sub = Sublattice(diagonal_gram((1, -1)), ((1, 1),))
        rank, quotient = radical_and_quotient(sub)
        assert rank == 1 and quotient.rank == 0

    def test_affine_tree_radicals(self):
        # the three tree plumbings with all weights -2 bounding the
        # elliptic bundles: chains with one extra leg
        shapes = [
            (9, [(i, i + 1) for i in range(7)] + [(5, 8)]),
            (8, [(i, i + 1) for i in range(6)] + [(3, 7)]),
            (7, [(i, i + 1) for i in range(4)] + [(2, 5), (5, 6)]),
        ]
        for size, edges in shapes:
            q = tree_graph_gram([-2] * size, edges)
            full = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
            rank, quotient = radical_and_quotient(Sublattice(q, full))
            assert rank == 1
            assert quotient.rank == size - 1
            assert quotient.signature == (0, size - 1, 0)

    def test_nondegenerate(self):
        sub = Sublattice(diagonal_gram((1, -1)), ((1, 0), (0, 1)))
        rank, quotient = radical_and_quotient(sub)
        assert rank == 0 and quotient.det == -1


class TestGraphGrams:
    def test_cycle_boundaries_match_bundle_homology(self):
        # all-negative chain closed with a negative edge, weights from a
        # string read backwards: boundary carries the negated composition
        for d in [(3,), (2, 3), (3, 2, 2), (2, 3, 4)]:
            if len(d) >= 3:
                weights = tuple(-x for x in reversed(d))
                q = cycle_graph_gram(weights, (1,) * (len(d) - 1) + (-1,))
                free, torsion = cokernel_invariants(q)
                assert free == 0
                assert torsion == torus_bundle_h1(-monodromy(d)).torsion

    def test_doubled_cycle_matches_double_cover_bundle(self):
        for d in [(3,), (2, 3)]:
            dd = d + d
            if len(dd) >= 3:
                weights = tuple(-x for x in reversed(dd))
                q = cycle_graph_gram(weights)
                free, torsion = cokernel_invariants(q)
                assert free == 0
                assert torsion == torus_bundle_h1(monodromy(dd)).torsion

    def test_unimodular_inverse(self):
        # the Gauss-Jordan oracle below, which the two-SNF radical oracle uses
        rng = random.Random(3)
        for _ in range(30):
            u = random_unimodular(rng, 4)
            v = unimodular_inverse(u)
            assert mat_mul(u, v) == tuple(
                tuple(int(i == j) for j in range(4)) for i in range(4)
            )


@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3)
)
@settings(max_examples=60, deadline=None)
def test_smith_contract_hypothesis(rows):
    d, u, v = smith_normal_form(rows)
    assert mat_mul(mat_mul(u, rows), v) == d


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_signature_of_diagonal(entries):
    sig = signature(diagonal_gram(entries))
    assert sig == (
        sum(1 for x in entries if x > 0),
        sum(1 for x in entries if x < 0),
        sum(1 for x in entries if x == 0),
    )


# --- oracles for the symmetric elimination kernel ---------------------------


def fraction_signature(gram):
    """Rational congruence diagonalisation (the earlier signature)."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if other is None:
                    zero += 1
                    continue
                for j in range(n):
                    a[k][j] += a[other][j]
                for i in range(n):
                    a[i][k] += a[i][other]
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(n):
                    a[i][j] -= f * a[k][j]
                for j in range(n):
                    a[j][i] -= f * a[j][k]
    return (pos, neg, zero)


def bareiss_determinant(mat):
    """Row-swap Bareiss fraction-free elimination (the earlier
    determinant)."""
    a = [list(row) for row in mat]
    n = len(a)
    if n == 0:
        return 1
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


def sylvester_negative_definite(gram):
    """Leading-minor Sylvester test (the earlier is_negative_definite)."""
    rows = [tuple(r) for r in gram]
    for k in range(1, len(rows) + 1):
        if bareiss_determinant([row[:k] for row in rows[:k]]) * (-1) ** k <= 0:
            return False
    return True


@st.composite
def symmetric_matrices(draw, max_size=8):
    n = draw(st.integers(0, max_size))
    kind = draw(st.sampled_from(("dense", "hollow", "low_rank")))
    if kind == "low_rank":
        # B^T D B with B having fewer rows than columns has rank < n
        k = draw(st.integers(0, max(n - 1, 0)))
        b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=k, max_size=k))
        d = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        return tuple(
            tuple(sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n))
            for i in range(n)
        )
    upper = draw(st.lists(st.integers(-5, 5), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    g = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(it)
    if kind == "hollow":
        for i in range(n):
            g[i][i] = 0
    return tuple(map(tuple, g))


@st.composite
def non_forms(draw):
    """Matrices that are not symmetric forms: ragged, non-square, or
    square with one off-diagonal pair unequal."""
    if draw(st.booleans()):
        return draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
                             min_size=1, max_size=4).filter(
            lambda m: any(len(r) != len(m) for r in m)))
    n = draw(st.integers(2, 4))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    i, j = draw(st.permutations(range(n)))[:2]
    m[i][j] += draw(st.integers(1, 5))
    return m


class TestSymmetricElimination:
    def test_empty(self):
        assert _sym_eliminate(()) == (1, (0, 0, 0))
        assert signature(()) == (0, 0, 0)
        assert is_negative_definite(())
        assert determinant(()) == 1
        assert gram_invariants(()) == LatticeInvariants(0, 1, "even", (0, 0, 0), ())
        assert cokernel_invariants(()) == (0, ())

    def test_hollow_needs_row_and_column_add(self):
        # every diagonal entry vanishes, so only the add move finds a pivot
        g = ((0, 1, 2), (1, 0, 3), (2, 3, 0))
        assert _sym_eliminate(g) == (bareiss_determinant(g), fraction_signature(g))

    def test_row_add_pivots_a_hyperbolic_plane(self):
        # every hollow 4x4 matrix with entries -1..1 and 5x5 with 0..1:
        # the add move meets o = k + 1, o > k + 1 (a swap brings o next),
        # repeated adds and radical indices
        for n, values in ((4, (-1, 0, 1)), (5, (0, 1))):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for entries in itertools.product(values, repeat=len(pairs)):
                g = [[0] * n for _ in range(n)]
                for (i, j), x in zip(pairs, entries):
                    g[i][j] = g[j][i] = x
                assert _sym_eliminate(g) == (bareiss_determinant(g), fraction_signature(g)), g

    def test_radical_index_is_skipped(self):
        g = ((0, 0, 0), (0, -2, 1), (0, 1, -2))
        assert _sym_eliminate(g) == (0, (0, 2, 1))

    def test_requires_symmetry(self):
        with pytest.raises(DomainError):
            signature(((0, 1), (2, 0)))
        with pytest.raises(DomainError):
            signature(((0, 1, 2), (1, 0, 3)))

    @given(non_forms())
    @example([[2], [2]])
    @example([[2, 1, 0]])
    @example([[0, 1], [2, 0]])
    @settings(max_examples=200, deadline=None)
    def test_parity_refuses_as_signature_does(self, m):
        with pytest.raises(DomainError) as by_signature:
            signature(m)
        with pytest.raises(DomainError) as by_parity:
            parity(m)
        assert str(by_parity.value) == str(by_signature.value)

    @given(symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracles(self, g):
        det, sig = _sym_eliminate(g)
        assert sig == fraction_signature(g)
        assert det == bareiss_determinant(g)
        assert signature(g) == sig
        assert is_negative_definite(g) == sylvester_negative_definite(g)
        assert gram_invariants(g).det == det

    @given(symmetric_matrices(), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_inertia_invariant_under_congruence(self, g, seed):
        n = len(g)
        if n == 0:
            return
        u = random_unimodular(random.Random(seed), n)
        moved = mat_mul(mat_mul(u, g), tuple(zip(*u)))
        assert _sym_eliminate(moved) == _sym_eliminate(g)

    @given(symmetric_matrices())
    @settings(max_examples=100, deadline=None)
    def test_determinant_matches_sympy(self, g):
        sympy = pytest.importorskip("sympy")
        assert _sym_eliminate(g)[0] == sympy.Matrix(len(g), len(g), [x for r in g for x in r]).det()


@st.composite
def square_matrices(draw, max_size=7):
    """Square matrices of size <= max_size, mostly non-symmetric: dense,
    with a zero diagonal, or singular (a row repeated or a zero column)."""
    n = draw(st.integers(0, max_size))
    kind = draw(st.sampled_from(("dense", "hollow", "repeated_row", "zero_column")))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    g = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "hollow":
        for i in range(n):
            g[i][i] = 0
    elif n > 1 and kind == "repeated_row":
        i, j = draw(st.permutations(range(n)))[:2]
        g[i] = list(g[j])
    elif n and kind == "zero_column":
        j = draw(st.integers(0, n - 1))
        for row in g:
            row[j] = 0
    return tuple(map(tuple, g))


class TestDeterminant:
    def test_every_small_3x3(self):
        # all 3^9 matrices with entries -1..1
        for entries in itertools.product((-1, 0, 1), repeat=9):
            m = (entries[:3], entries[3:6], entries[6:])
            assert determinant(m) == bareiss_determinant(m), m

    @given(square_matrices())
    @example(((0, 1), (1, 0)))
    @example(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    @example(((0, 0, 1), (0, 0, 0), (1, 0, 0)))
    @settings(max_examples=400, deadline=None)
    def test_matches_row_swap_bareiss(self, m):
        assert determinant(m) == bareiss_determinant(m)

    @given(square_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        assert determinant(m) == sympy.Matrix(len(m), len(m), [x for r in m for x in r]).det()

    def test_non_square_refused(self):
        for m in ([[1, 2]], [[]], [[1, 2], [3, 4], [5, 6]]):
            with pytest.raises(DomainError, match="determinant of a non-square matrix"):
                determinant(m)

    def test_invariants_check_det_against_smith(self, monkeypatch):
        g = ((-2, 1), (1, -2))
        assert gram_invariants(g).det == 3
        eliminate = lattice._eliminate

        def off_by_one(a):
            det, sig = eliminate(a)
            return det + 1, sig

        monkeypatch.setattr(lattice, "_eliminate", off_by_one)
        with pytest.raises(AssertionError, match="determinant and Smith diagonal disagree"):
            gram_invariants(g)
        with pytest.raises(AssertionError, match="determinant and Smith diagonal disagree"):
            gram_invariants(((1, 1), (1, 1)))


# --- oracle for radical_and_quotient ----------------------------------------


def unimodular_inverse(mat):
    """Exact inverse of a unimodular integer matrix by Gauss-Jordan over
    the rationals (the earlier library routine)."""
    rows = [list(map(int, row)) for row in mat]
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            raise DomainError("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [x * inv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    out = []
    for row in aug:
        vals = row[n:]
        if any(x.denominator != 1 for x in vals):
            raise DomainError("matrix is not unimodular")
        out.append(tuple(int(x) for x in vals))
    return tuple(out)


def two_snf_radical_and_quotient(sub):
    """The earlier radical_and_quotient: a second Smith form on the
    radical basis, whose inverted transform supplies the complement."""
    g = gram_matrix(sub)
    rank = len(g)
    radical = integer_kernel(g)
    r = len(radical)
    if r == 0:
        return 0, gram_invariants(g)
    d, _, v = smith_normal_form(radical)
    for i in range(r):
        assert d[i][i] == 1, "radical of an integral form is saturated"
    vinv = unimodular_inverse(v)
    complement = [vinv[i] for i in range(r, rank)]
    quotient = tuple(
        tuple(
            sum(complement[x][i] * g[i][j] * complement[y][j]
                for i in range(rank) for j in range(rank))
            for y in range(len(complement))
        )
        for x in range(len(complement))
    )
    inv = gram_invariants(quotient)
    assert inv.signature[2] == 0
    return r, inv


@st.composite
def degenerate_sublattices(draw, max_size=6):
    """Sublattices of a form B^T D B, often degenerate, spanned by
    random vectors that may be dependent or absent."""
    n = draw(st.integers(0, max_size))
    k = draw(st.integers(0, n))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=k, max_size=k))
    d = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    gram = tuple(
        tuple(sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n))
        for i in range(n)
    )
    basis = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=0, max_size=max_size))
    return Sublattice(gram, tuple(basis))


AFFINE_E8 = Sublattice(
    tree_graph_gram([-2] * 9, [(i, i + 1) for i in range(7)] + [(5, 8)]),
    tuple(tuple(int(i == j) for j in range(9)) for i in range(9)),
)


class TestRadicalOracle:
    @given(degenerate_sublattices())
    @example(AFFINE_E8)
    @settings(max_examples=300, deadline=None)
    def test_matches_two_snf_oracle(self, sub):
        assert radical_and_quotient(sub) == two_snf_radical_and_quotient(sub)

    def test_one_smith_form(self, monkeypatch):
        spy = Mock(wraps=lattice.smith_normal_form)
        monkeypatch.setattr(lattice, "smith_normal_form", spy)
        q = tree_graph_gram([-2] * 8, [(i, i + 1) for i in range(6)] + [(3, 7)])
        full = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
        rank, quotient = radical_and_quotient(Sublattice(q, full))
        assert (rank, quotient.rank) == (1, 7)
        assert spy.call_count == 1


# --- dense oracles for the zero-skipping kernel ------------------------------


def dense_mat_mul(x, y):
    """The earlier _mat_mul: every product, zero or not; one empty row
    per row of x when y has no columns."""
    if not x:
        return []
    inner = len(y)
    cols = len(y[0]) if y else 0
    return [
        [sum(xrow[k] * y[k][j] for k in range(inner)) for j in range(cols)]
        for xrow in x
    ]


def dense_smith_normal_form(mat):
    """The earlier smith_normal_form: a full pivot search, an offender
    scan after every pivot, column operations over every row and a
    dense re-check."""
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
    check = dense_mat_mul(dense_mat_mul([list(r) for r in u], _copy(mat)), [list(r) for r in v])
    assert tuple(tuple(row) for row in check) == d, "smith form transform check failed"
    return d, u, v


def dense_gram_matrix(sub):
    """The earlier gram_matrix: dense products with the ambient Gram."""
    g = sub.ambient_gram
    n = len(g)
    paired = [
        [sum(b[i] * g[i][j] for i in range(n)) for j in range(n)] for b in sub.basis
    ]
    return tuple(
        tuple(sum(prow[j] * c[j] for j in range(n)) for c in sub.basis)
        for prow in paired
    )


def dense_orthogonal_complement(ambient_gram, vectors):
    """The earlier orthogonal_complement: dense pairing rows, the kernel
    from the dense Smith transform and dense annihilation checks."""
    gram = tuple(tuple(map(int, row)) for row in ambient_gram)
    n = len(gram)
    vecs = [tuple(map(int, v)) for v in vectors]
    pairing_rows = [
        tuple(sum(v[i] * gram[i][j] for i in range(n)) for j in range(n)) for v in vecs
    ]
    if pairing_rows:
        d, _, v = dense_smith_normal_form(pairing_rows)
        rank = sum(1 for i in range(min(len(pairing_rows), n)) if d[i][i])
        kernel = [tuple(v[i][j] for i in range(n)) for j in range(rank, n)]
    else:
        kernel = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    normalized = []
    for vec in kernel:
        lead = next((x for x in vec if x), 1)
        normalized.append(vec if lead > 0 else tuple(-x for x in vec))
    basis = tuple(sorted(normalized))
    for b in basis:
        for row in pairing_rows:
            assert sum(x * y for x, y in zip(b, row)) == 0
    return Sublattice(gram, basis)


@st.composite
def smith_inputs(draw, max_size=10):
    """Integer matrices up to max_size x max_size: dense, mostly zero, or
    the intersection form of a plumbing graph (a tree plus a few extra,
    possibly doubled, edges)."""
    kind = draw(st.sampled_from(("dense", "sparse", "plumbing")))
    if kind == "plumbing":
        n = draw(st.integers(1, max_size))
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            q[i][i] = draw(st.integers(-6, 1))
        tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
        for i, j in tree + extra:
            if i != j:
                sign = draw(st.sampled_from((1, -1)))
                q[i][j] += sign
                q[j][i] += sign
        return q
    nr = draw(st.integers(1, max_size))
    nc = draw(st.integers(1, max_size))
    if kind == "dense":
        entry = st.integers(-20, 20)
    else:
        entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
    return draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))


@st.composite
def low_rank_matrices(draw, max_size=8):
    """A * B with inner dimension r, so of rank at most r; often
    non-square and rank-deficient."""
    nr = draw(st.integers(1, max_size))
    nc = draw(st.integers(1, max_size))
    r = draw(st.integers(0, min(nr, nc)))
    a = draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                      min_size=nr, max_size=nr))
    b = draw(st.lists(st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
                      min_size=r, max_size=r))
    return [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)] for i in range(nr)]


def distfill_oracle_path(n):
    """Complement bases, Gram matrices and invariants of both family
    configurations through the dense oracles."""
    out = []
    for div in family_configuration_divisors(n):
        sub = dense_orthogonal_complement(div.ambient.gram(), [c.coords for c in div.components])
        g = dense_gram_matrix(sub)
        d, _, _ = dense_smith_normal_form(g)
        det, sig = _sym_eliminate(g)
        divisors = tuple(d[i][i] for i in range(len(g)) if d[i][i] > 1)
        out.append((sub.basis, g, LatticeInvariants(len(g), det, parity(g), sig, divisors)))
    return out


class TestZeroSkippingKernel:
    @given(smith_inputs())
    @example([[0, 0], [0, 0]])
    @example([[4, 6], [6, 9]])
    @example([[]])
    @example([[], []])
    @settings(max_examples=400, deadline=None)
    def test_smith_form_matches_dense_oracle(self, m):
        assert smith_normal_form(m) == dense_smith_normal_form(m)

    @given(smith_inputs(), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_mat_mul_matches_dense_oracle(self, m, seed):
        rng = random.Random(seed)
        left = random_unimodular(rng, len(m))
        right = random_unimodular(rng, len(m[0]))
        assert _mat_mul(left, m) == dense_mat_mul(left, m)
        assert _mat_mul(m, right) == dense_mat_mul(m, right)
        assert _mat_mul(m, tuple(zip(*m))) == dense_mat_mul(m, tuple(zip(*m)))

    @given(degenerate_sublattices())
    @example(AFFINE_E8)
    @settings(max_examples=300, deadline=None)
    def test_gram_matrix_matches_dense_oracle(self, sub):
        assert gram_matrix(sub) == dense_gram_matrix(sub)

    @given(degenerate_sublattices().filter(lambda sub: len(sub.ambient_gram) > 0))
    @settings(max_examples=300, deadline=None)
    def test_orthogonal_complement_matches_dense_oracle(self, sub):
        assert (orthogonal_complement(sub.ambient_gram, sub.basis)
                == dense_orthogonal_complement(sub.ambient_gram, sub.basis))

    @pytest.mark.parametrize("n", range(61))
    def test_distfill_matches_dense_oracle(self, n):
        res = distfill_family(n, limit=60)
        (basis1, g1, inv1), (basis2, g2, inv2) = distfill_oracle_path(n)
        for div, basis, g in zip(family_configuration_divisors(n), (basis1, basis2), (g1, g2)):
            sub = orthogonal_complement(div.ambient.gram(), [c.coords for c in div.components])
            assert sub.basis == basis
            assert gram_matrix(sub) == g
        assert (res.invariants1, res.invariants2) == (inv1, inv2)
        assert (res.det1, res.det2) == (inv1.det, inv2.det)


@given(st.one_of(low_rank_matrices(), smith_inputs(max_size=8)))
@settings(max_examples=200, deadline=None)
def test_smith_form_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

    expected = sympy_smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
    assert smith_normal_form(m)[0] == tuple(map(tuple, expected.tolist()))


# --- the earlier plumbing builders, kept as oracles ---------------------------


def diagonal_gram_oracle(entries):
    entries = tuple(map(int, entries))
    return tuple(
        tuple(entries[i] if i == j else 0 for j in range(len(entries)))
        for i in range(len(entries))
    )


def cycle_graph_gram_oracle(weights, edge_signs=None):
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


def tree_graph_gram_oracle(weights, edges):
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


def _gram_outcome(build, *args):
    """The result with the exact type of every entry, or the message."""
    try:
        q = build(*args)
    except DomainError as exc:
        return "DomainError: %s" % exc
    return q, [[type(x) for x in row] for row in q]


def _first_non_integer(reads):
    """The refusal of the first str or Fraction entry among the named
    sequences, in reading order, or None when every entry is an int or
    a bool."""
    for what, values in reads:
        for x in values:
            if isinstance(x, (str, Fraction)):
                return "DomainError: %s must be integers, got %r" % (what, x)
    return None


class TestPlumbingBuildersMatchOracles:
    def test_random_inputs(self):
        rng = random.Random(0)
        messages, refused = set(), set()
        for _ in range(3000):
            n = rng.randint(0, 6)
            weights = [rng.choice((rng.randint(-6, 6), str(rng.randint(-3, 3)), True))
                       for _ in range(n)]
            signs = rng.choice((None, [rng.choice((1, -1, 2, Fraction(1, 2)))
                                       for _ in range(rng.choice((n, n, n + 1, max(n - 1, 0))))]))
            edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 5))]
            # the drawn sequences that may hold a str or a Fraction, named and
            # in reading order; a cycle reads its signs only once it has two
            # vertices
            signs_read = [("edge signs", signs)] if signs is not None and n >= 2 else []
            for build, oracle, args, reads in (
                (diagonal_gram, diagonal_gram_oracle, (weights,), [("diagonal entries", weights)]),
                (cycle_graph_gram, cycle_graph_gram_oracle, (weights, signs),
                 [("weights", weights)] + signs_read),
                (tree_graph_gram, tree_graph_gram_oracle, (weights, edges), [("weights", weights)]),
            ):
                got = _gram_outcome(build, *args)
                refusal = _first_non_integer(reads)
                if refusal is not None:
                    assert got == refusal, (build.__name__, args)
                    refused.add(refusal.split(" must")[0])
                    continue
                assert got == _gram_outcome(oracle, *args), (build.__name__, args)
                if isinstance(got, str):
                    messages.add(got.split(",")[0].split("(")[0])
        # all three refusals occur
        assert messages == {
            "DomainError: a cycle needs at least two vertices",
            "DomainError: need one sign per edge",
            "DomainError: bad edge ",
        }
        # and a str weight or a Fraction sign is refused wherever it is read
        assert refused == {
            "DomainError: diagonal entries",
            "DomainError: weights",
            "DomainError: edge signs",
        }

    def test_generators_are_read_once(self):
        assert diagonal_gram(x for x in (1, -2)) == diagonal_gram_oracle((1, -2))
        assert cycle_graph_gram((w for w in (-2, -3)), (s for s in (1, -1))) == (
            cycle_graph_gram_oracle((-2, -3), (1, -1)))
        assert tree_graph_gram((w for w in (-2, -2, -2)), (e for e in [(0, 1), (1, 2)])) == (
            tree_graph_gram_oracle((-2, -2, -2), [(0, 1), (1, 2)]))

    def test_tree_names_its_first_bad_edge(self):
        with pytest.raises(DomainError, match=r"^bad edge \(2, 2\)$"):
            tree_graph_gram((-2, -2, -2), [(0, 1), (2, 2), (0, 5)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), ()])
    def test_tree_refuses_an_edge_without_two_endpoints(self, edge):
        with pytest.raises(DomainError, match=r"^bad edge %s$" % re.escape(str(edge))):
            tree_graph_gram((2, 2), [edge])
