import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusfill.errors import DomainError
from torusfill.lattice import (
    LatticeInvariants,
    _sym_eliminate,
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
    smith_normal_form,
    tree_graph_gram,
    unimodular_inverse,
)
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


def sylvester_negative_definite(gram):
    """Leading-minor Sylvester test (the earlier is_negative_definite)."""
    rows = [tuple(r) for r in gram]
    for k in range(1, len(rows) + 1):
        if determinant([row[:k] for row in rows[:k]]) * (-1) ** k <= 0:
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


class TestSymmetricElimination:
    def test_empty(self):
        assert _sym_eliminate(()) == (1, (0, 0, 0))
        assert signature(()) == (0, 0, 0)
        assert is_negative_definite(())

    def test_hollow_needs_row_and_column_add(self):
        # every diagonal entry vanishes, so only the add move finds a pivot
        g = ((0, 1, 2), (1, 0, 3), (2, 3, 0))
        assert _sym_eliminate(g) == (determinant(g), fraction_signature(g))

    def test_radical_index_is_skipped(self):
        g = ((0, 0, 0), (0, -2, 1), (0, 1, -2))
        assert _sym_eliminate(g) == (0, (0, 2, 1))

    def test_requires_symmetry(self):
        with pytest.raises(DomainError):
            signature(((0, 1), (2, 0)))
        with pytest.raises(DomainError):
            signature(((0, 1, 2), (1, 0, 3)))

    @given(symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracles(self, g):
        det, sig = _sym_eliminate(g)
        assert sig == fraction_signature(g)
        assert det == determinant(g)
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
