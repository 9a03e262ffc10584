import functools
import itertools
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusfill import sl2z
from torusfill.errors import DomainError
from torusfill.sl2z import (
    IDENTITY,
    S,
    T,
    H1Invariants,
    Mat2,
    TraceClass,
    _ceil_fixed_point,
    _reduce_along_root,
    _transpose_factor,
    classify_trace,
    cyclic_canonical,
    cyclic_equal,
    evaluate_word,
    hyperbolic_standard_form,
    is_standard_string,
    monodromy,
    orientation_reversal,
    standard_factorization,
    torus_bundle_h1,
)


def bounded_conjugator(x, y, bound=10):
    """Brute-force search for u with u x u^-1 == y, |entries| <= bound."""
    rng = range(-bound, bound + 1)
    for p in rng:
        for q in rng:
            for r in rng:
                for s in rng:
                    if p * s - q * r != 1:
                        continue
                    u = Mat2(p, q, r, s)
                    if u * x == y * u:
                        return u
    return None


def random_string(rng, max_len=6, lo=2, hi=8):
    m = rng.randint(1, max_len)
    d = [rng.randint(lo, hi) for _ in range(m)]
    if all(x == 2 for x in d):
        d[rng.randrange(m)] = rng.randint(3, hi)
    return tuple(d)


class TestMat2:
    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            Mat2(1, 0, 0, 2)
        with pytest.raises(DomainError):
            Mat2(1, 1, 1, 1)

    def test_algebra(self):
        assert S * S == -IDENTITY
        assert (T ** -3) * (T ** 3) == IDENTITY
        assert S.inverse() == -S
        u = Mat2(2, 1, 1, 1)
        assert u * u.inverse() == IDENTITY


class TestMonodromy:
    def test_single_factor(self):
        assert monodromy((1,)) == Mat2(1, 1, -1, 0)

    def test_parabolic_pair(self):
        assert monodromy((0, -2)) == Mat2(-1, -2, 0, -1)

    def test_order_of_factors(self):
        assert monodromy((1, 2)) == Mat2(1, 2, -1, -1)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            monodromy(())

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
    def test_trace_is_rotation_invariant(self, entries):
        d = tuple(entries)
        rotated = d[1:] + d[:1]
        assert monodromy(d).trace == monodromy(rotated).trace


class TestTraceClass:
    def test_elliptic(self):
        assert classify_trace(Mat2(0, -1, 1, 0)) == TraceClass("elliptic", 0)

    def test_parabolic(self):
        tc = classify_trace(monodromy((0, -4)))
        assert (tc.kind, tc.trace) == ("parabolic", -2)

    def test_hyperbolic(self):
        tc = classify_trace(monodromy((3,)))
        assert (tc.kind, tc.trace) == ("hyperbolic", 3)


class TestWords:
    def test_t_inverse_s(self):
        assert evaluate_word([("T", -1), ("S", 1)]) == monodromy((1,))

    def test_negative_s(self):
        assert evaluate_word([("S", 1)], sign=-1) == -monodromy((0,))

    def test_double_turn_is_conjugate_to_elliptic_monodromy(self):
        # -(T^-1 S)^2 has trace 1 and is conjugate to -A(-1)
        w = evaluate_word([("T", -1), ("S", 1), ("T", -1), ("S", 1)], sign=-1)
        target = -monodromy((-1,))
        assert w.trace == target.trace == 1
        u = bounded_conjugator(w, target)
        assert u is not None and u * w == target * u

    def test_factorization_matches_composition(self):
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(1, 8)
            d = tuple(rng.randint(-5, 5) for _ in range(m))
            word = standard_factorization(d)
            assert evaluate_word(word) == monodromy(d)
            assert evaluate_word(word, sign=-1) == -monodromy(d)

    def test_bad_generator(self):
        with pytest.raises(DomainError):
            evaluate_word([("X", 1)])
        with pytest.raises(DomainError):
            evaluate_word([])


class TestOrientationReversal:
    def test_fixed_point(self):
        assert orientation_reversal((3,)) == (3,)

    def test_single_block(self):
        assert orientation_reversal((5,)) == (3, 2, 2)

    def test_multi_block(self):
        assert orientation_reversal((3, 3, 3, 2, 3, 3)) == (3, 3, 4, 3, 3)

    def test_rotates_to_leading_three(self):
        assert orientation_reversal((2, 3)) == (4,)
        assert orientation_reversal((4,)) == (3, 2)

    def test_rejects_all_twos(self):
        with pytest.raises(DomainError):
            orientation_reversal((2, 2, 2))

    def test_rejects_small_entries(self):
        with pytest.raises(DomainError):
            orientation_reversal((3, 1))

    def test_involution_on_samples(self):
        rng = random.Random(5)
        for _ in range(200):
            d = random_string(rng)
            rr = orientation_reversal(orientation_reversal(d))
            assert cyclic_equal(rr, d)

    def test_length_formula(self):
        # length of the reversal is (number of blocks) + (sum of n_i)
        d = (6, 2, 3, 5, 2, 2)
        # blocks: (3, 1), (0, 0), (2, 2) -> lengths 1+3, 1+0, 1+2
        assert len(orientation_reversal(d)) == 3 + (3 + 0 + 2)

    def test_matches_block_list_oracle(self):
        grid = itertools.chain(
            (d for k in range(1, 7) for d in itertools.product(range(2, 8), repeat=k)),
            itertools.product(range(2, 5), repeat=7),
            [(), (3, 1), (0, 3), (-3,), (1,), (2,), (3, "x"), (3.0,), (None, 4), [4, 2]],
        )
        count = 0
        for d in grid:
            assert reversal_outcome(orientation_reversal, d) == reversal_outcome(
                block_list_reversal, d
            ), d
            count += 1
        assert count == 58183


def block_list_reversal(d):
    """The earlier orientation_reversal: rotate the string to lead with
    an entry >= 3, split it into blocks (n_i, m_i) meaning the entry
    n_i + 3 followed by m_i twos, and emit m_i + 3 followed by n_i twos
    for the blocks in reverse order."""
    entries = tuple(d)
    if not entries:
        raise DomainError("monodromy string must be nonempty")
    for x in entries:
        if not isinstance(x, int):
            raise DomainError("monodromy string entries must be integers, got %r" % (x,))
    if not (all(x >= 2 for x in entries) and any(x >= 3 for x in entries)):
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
    out = []
    for n, m in reversed(blocks):
        out.append(m + 3)
        out.extend([2] * n)
    return tuple(out)


def reversal_outcome(fn, d):
    """fn(d), or the message of the DomainError it raises."""
    try:
        return fn(d)
    except DomainError as exc:
        return "DomainError: %s" % exc


class TestCyclicCanonical:
    def test_identity(self):
        assert cyclic_canonical((2, 3)) == (2, 3)

    def test_rotation(self):
        assert cyclic_canonical((3, 2)) == (2, 3)

    def test_longer(self):
        assert cyclic_canonical((3, 3, 4, 3, 3)) == (3, 3, 3, 3, 4)

    def test_reflection_not_identified(self):
        assert cyclic_canonical((2, 3, 4)) != cyclic_canonical((4, 3, 2))
        assert not cyclic_equal((2, 3, 4), (2, 4, 3))


class TestHyperbolicStandardForm:
    def test_round_trip_single(self):
        assert hyperbolic_standard_form(monodromy((3,))) == (1, (3,))

    def test_round_trip_negative(self):
        assert hyperbolic_standard_form(-monodromy((3, 2, 2))) == (-1, (2, 2, 3))

    def test_conjugated_input(self):
        u = Mat2(2, 1, 1, 1)
        m = u * monodromy((2, 3)) * u.inverse()
        assert hyperbolic_standard_form(m) == (1, (2, 3))

    def test_postcondition_via_bounded_oracle(self):
        m = Mat2(1, 1, 1, 2) * monodromy((4,)) * Mat2(1, 1, 1, 2).inverse()
        sign, d = hyperbolic_standard_form(m)
        assert sign == 1
        u = bounded_conjugator(monodromy(d), m)
        assert u is not None

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(DomainError):
            hyperbolic_standard_form(S)
        with pytest.raises(DomainError):
            hyperbolic_standard_form(monodromy((0, -4)))

    def test_random_round_trips(self):
        rng = random.Random(23)
        for _ in range(150):
            d = random_string(rng)
            sign = rng.choice((1, -1))
            target = monodromy(d) if sign == 1 else -monodromy(d)
            u = IDENTITY
            for _ in range(rng.randint(0, 10)):
                u = u * rng.choice((S, T, T.inverse()))
            got_sign, got = hyperbolic_standard_form(u * target * u.inverse())
            assert got_sign == sign
            assert got == cyclic_canonical(d)


def two_root_reduce_along_root(w, p, q):
    """The expansion of one fixed point, with the early return on a
    positive power of the period matrix (the earlier library routine)."""
    disc = w.trace * w.trace - 4
    sq = isqrt(disc)
    assert sq * sq != disc
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
            return None
        power = power * period_matrix
        repeats += 1
    return None


def two_root_standard_form(m):
    """hyperbolic_standard_form expanding both fixed points and keeping
    the least canonical word found (the earlier library routine)."""
    sign = 1 if m.trace > 2 else -1
    w = m if sign == 1 else -m
    candidates = []
    for root in ((w.d - w.a, -2 * w.c), (w.a - w.d, 2 * w.c)):
        got = two_root_reduce_along_root(w, *root)
        if got is not None:
            candidates.append(cyclic_canonical(got[0]))
    return sign, min(candidates)


@functools.lru_cache(maxsize=None)
def standard_form_inputs():
    """Every standard string with entries 2..5 and length <= 6 at both
    signs, then 2400 seeded random SL2(Z) conjugates of such strings."""
    mats = []
    for length in range(1, 7):
        for d in itertools.product(range(2, 6), repeat=length):
            if max(d) >= 3:
                mats += [monodromy(d), -monodromy(d)]
    rng = random.Random(41)
    for _ in range(2400):
        target = monodromy(random_string(rng, hi=5))
        u = IDENTITY
        for _ in range(rng.randint(1, 12)):
            u = u * rng.choice((S, T, T.inverse()))
        m = u * target * u.inverse()
        mats.append(m if rng.random() < 0.5 else -m)
    return tuple(mats)


class TestRepellingRootOnly:
    def test_matches_two_root_oracle(self):
        for m in standard_form_inputs():
            assert hyperbolic_standard_form(m) == two_root_standard_form(m), m

    def test_attracting_root_yields_nothing(self):
        for m in standard_form_inputs():
            w = m if m.trace > 2 else -m
            assert _reduce_along_root(w, w.a - w.d, 2 * w.c) is None, m
            assert two_root_reduce_along_root(w, w.a - w.d, 2 * w.c) is None, m

    def test_failed_reduction_is_an_assertion(self, monkeypatch):
        monkeypatch.setattr(sl2z, "_reduce_along_root", lambda w, p, q: None)
        with pytest.raises(AssertionError, match="continued-fraction reduction failed"):
            hyperbolic_standard_form(monodromy((3,)))


class TestH1:
    def test_quarter_turn(self):
        assert torus_bundle_h1(Mat2(0, -1, 1, 0)) == H1Invariants(1, (2,))

    def test_parabolic_family(self):
        assert torus_bundle_h1(monodromy((0, -4))) == H1Invariants(1, (2, 2))

    def test_hyperbolic(self):
        assert torus_bundle_h1(-monodromy((3,))) == H1Invariants(1, (5,))

    def test_trace_two_rejected(self):
        with pytest.raises(DomainError):
            torus_bundle_h1(T)

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            d = random_string(rng)
            m = -monodromy(d)
            u = IDENTITY
            for _ in range(rng.randint(0, 8)):
                u = u * rng.choice((S, T, T.inverse()))
            assert torus_bundle_h1(m) == torus_bundle_h1(u * m * u.inverse())

    def test_torsion_is_divisibility_chain(self):
        rng = random.Random(9)
        for _ in range(200):
            d = random_string(rng)
            inv = torus_bundle_h1(monodromy(d))
            if len(inv.torsion) == 2:
                assert inv.torsion[1] % inv.torsion[0] == 0


class TestDisplayedIdentities:
    @pytest.mark.parametrize("eps", [-1, 0, 1])
    def test_triangle_identity(self, eps):
        assert monodromy((1 - eps, 0, -1)) == -monodromy((-eps,))

    @pytest.mark.parametrize("eps", [-1, 0, 1])
    def test_conjugation_identity(self, eps):
        u = Mat2(1, -1, 0, 1)
        assert monodromy((1, 2 - eps)) == u * monodromy((-eps,)) * u.inverse()

    def test_standardness_predicate(self):
        assert is_standard_string((3, 2, 2))
        assert not is_standard_string((2, 2))
        assert not is_standard_string((3, 1))
