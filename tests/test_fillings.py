import itertools

import pytest

from torusfill.blowup import dominates, enumerate_blowups
from torusfill.divisor import (
    Ambient,
    CP2,
    blowup_node_total,
    cycle_cap_from_path,
    divisor_to_dict,
    dual_graph,
    is_anticanonical,
)
from torusfill.errors import DomainError
from torusfill.fillings import (
    CensusResult,
    FillingInvariants,
    INCONCLUSIVE,
    VIRTUALLY_OVERTWISTED,
    distfill_family,
    double_cover_obstruction,
    euler_consistency,
    euler_diagnostic,
    family_configuration_divisors,
    hyperbolic_filling_census,
    parabolic_solutions,
    parabolic_solutions_raw,
    tight_structure_census,
)
from torusfill.fillings import _canonical_configuration, _raw_cp2, _raw_s2xs2
from torusfill.lattice import cokernel_invariants
from torusfill.sl2z import (
    cyclic_canonical,
    is_standard_string,
    monodromy,
    orientation_reversal,
    torus_bundle_h1,
)

from test_blowup import iter_blowup_paths


class TestCensus:
    def test_five(self):
        res = hyperbolic_filling_census((5,))
        inv = res.invariants
        assert inv.n_blowups == 6
        assert (inv.b1, inv.b2, inv.b3) == (0, 3, 0)
        assert inv.c1_trivial
        assert inv.class_count_bound == 1
        assert [str(c) for c in res.configurations[0].components] == [
            "h", "h-e1-e2-e3", "e1-e4", "h-e1-e5",
        ]
        assert euler_consistency(res.capped, inv)

    def test_five_capped_divisor(self):
        res = hyperbolic_filling_census((5,))
        total = res.capped.total_class()
        assert total.dot(total) == 3
        assert len(res.capped) == 5

    def test_distinguished_pair_is_found(self):
        res = hyperbolic_filling_census((3, 3, 4, 3, 3))
        inv = res.invariants
        assert inv.class_count_bound >= 2
        assert inv.n_blowups == 10 and inv.b2 == 4
        # the two seven-sphere configurations with non-isometric
        # complements both occur among the representatives
        goldens = family_configuration_divisors(0)
        keys = {_canonical_configuration(cap) for cap in res.configurations}
        for golden in goldens:
            assert _canonical_configuration(golden) in keys

    def test_all_configurations_share_invariants(self):
        res = hyperbolic_filling_census((3, 3, 4, 3, 3))
        ambients = {cap.ambient for cap in res.configurations}
        assert len(ambients) == 1
        for cap in res.configurations:
            assert is_anticanonical(cap)

    def test_not_embeddable(self):
        with pytest.raises(DomainError):
            hyperbolic_filling_census((3,))

    def test_invalid_string(self):
        with pytest.raises(DomainError):
            hyperbolic_filling_census((2, 2))


def _chain_census(d, limit=14):
    """Reference census: scan every rotation of the reversal for a
    dominated blowup, then build one cap per chain of node blowups."""
    c = orientation_reversal(d)
    ell = len(c)
    rotation = None
    for k in range(ell):
        rotated = c[k:] + c[:k]
        if any(dominates(s, rotated) for s in sorted(enumerate_blowups(ell, limit))):
            rotation = k
            target = rotated
            break
    if rotation is None:
        raise DomainError("string %s is not embeddable" % (tuple(d),))
    configurations = {}
    for path, endpoint in iter_blowup_paths(ell, target, limit):
        if not dominates(endpoint, target):
            continue
        cap = cycle_cap_from_path(target, path)
        configurations.setdefault(_canonical_configuration(cap), cap)
    reps = tuple(configurations[key] for key in sorted(configurations))
    first = reps[0]
    capped = blowup_node_total(first, 1, 2)
    total = capped.total_class()
    n_blowups = 9 - total.dot(total)
    invariants = FillingInvariants(
        n_blowups, 0, n_blowups + 1 - len(first), 0, True, len(reps)
    )
    return CensusResult(tuple(d), c, rotation, target, invariants, reps, capped)


def _oracle_targets():
    """Reversal targets of length 2..8: every cycle up to rotation with
    entries 2..5 and sum at most 3 * length - 2, the constant cycles of
    3s, 4s and 5s, and the reversal of (3, 3, 4, 3, 3)."""
    for length in range(2, 9):
        for c in itertools.product(range(2, 6), repeat=length):
            if (is_standard_string(c) and cyclic_canonical(c) == c
                    and sum(c) <= 3 * length - 2):
                yield c
        for k in (3, 4, 5):
            yield (k,) * length
    yield (3, 3, 3, 2, 3, 3)


class TestCensusOracle:
    def test_endpoint_census_matches_chain_census(self):
        embeddable = 0
        for c in _oracle_targets():
            d = orientation_reversal(c)
            try:
                expected = _chain_census(d)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    hyperbolic_filling_census(d)
                assert str(got.value) == str(exc)
                continue
            embeddable += 1
            assert hyperbolic_filling_census(d) == expected, c
        assert embeddable > 300

    def test_several_chains_share_an_endpoint(self):
        # the oracle comparison above is only meaningful if the chain
        # census really visits endpoints more than once
        c = orientation_reversal((3, 3, 4, 3, 3))
        endpoints = [s for _, s in iter_blowup_paths(len(c), c)]
        assert len(endpoints) > len(set(endpoints)) > 1


class TestEuler:
    def test_census_output_is_consistent(self):
        res = hyperbolic_filling_census((5,))
        diag = euler_diagnostic(res.capped, res.invariants)
        assert diag["chi_closed"] == 9
        assert diag["chi_cap"] == 5
        assert diag["chi_filling"] == 4
        assert diag["chi_ok"] and diag["rank_ok"]

    def test_corrupted_b2_fails(self):
        res = hyperbolic_filling_census((5,))
        bad = FillingInvariants(6, 0, res.invariants.b2 + 1, 0, True, 1)
        assert not euler_consistency(res.capped, bad)

    def test_parabolic_rank_identity(self):
        # the parabolic cap (two spheres, two nodes) with the closed
        # model of the plane branch: the rank-consistent second Betti
        # number passes, the classification bookkeeping value does not
        from torusfill.divisor import parabolic_cap

        for n in range(5):
            cap = parabolic_cap(n)
            sol = parabolic_solutions(n)[0]
            good = FillingInvariants(sol.n_blowups, 0, sol.b2_rank_consistent, 0, True, 1)
            bad = FillingInvariants(sol.n_blowups, 0, sol.b2_filling, 0, True, 1)
            assert euler_consistency(cap, good)
            assert not euler_consistency(cap, bad)


class TestParabolic:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_unique_survivors(self, n):
        cp2, s2 = parabolic_solutions(n)
        assert cp2.model == CP2 and s2.model == "S2xS2"
        assert (cp2.a, cp2.b) == (2, 0)
        assert cp2.n_blowups == 5 - n
        assert str(cp2.fiber_class) == "h-e1"
        assert s2.a == 2 and s2.b == 1 and s2.n_blowups == 4 - n
        assert str(s2.fiber_class) == "f"
        assert cp2.b2_filling == s2.b2_filling == 4 - n

    def test_n4_classes(self):
        cp2, s2 = parabolic_solutions(4)
        assert str(cp2.conic_class) == "2h"
        assert str(s2.conic_class) == "2s+f"

    def test_n0_classes(self):
        cp2, s2 = parabolic_solutions(0)
        assert str(cp2.conic_class) == "2h-e2-e3-e4-e5"
        assert str(s2.conic_class) == "2s+f-e1-e2-e3-e4"

    def test_raw_solutions_are_filtered(self):
        raw = parabolic_solutions_raw(2)
        assert len(raw[CP2]) > 1
        assert len(raw["S2xS2"]) > 1

    def test_class_equations(self):
        for n in range(5):
            for sol in parabolic_solutions(n):
                f, c = sol.fiber_class, sol.conic_class
                assert f.dot(f) == 0
                assert c.dot(c) == n
                assert f.dot(c) == 2
                total = f + c
                assert total == f.ambient.anticanonical()

    def test_too_large_rejected(self):
        with pytest.raises(DomainError):
            parabolic_solutions(5)
        with pytest.raises(DomainError):
            parabolic_solutions_raw(6)


def _brute_raw_cp2(n):
    # every multiset of the search box, as the plane search once scanned it
    out = []
    for b1 in range(7):
        a = b1 + 2
        for count in range(12):
            for rest in itertools.combinations_with_replacement(range(6, -1, -1), count):
                ssum = b1 + sum(rest)
                ssq = b1 * b1 + sum(x * x for x in rest)
                if 3 * a - ssum == n + 2 and a * a - ssq == n:
                    out.append((a, b1, rest))
    return out


def _brute_raw_s2xs2(n):
    # every multiset of the search box, as the product search once scanned it
    out = []
    a = 2
    for b in range(7):
        for count in range(12):
            for cs in itertools.combinations_with_replacement(range(6, -1, -1), count):
                csum = sum(cs)
                csq = sum(x * x for x in cs)
                if 2 * a * b - csq == n and 2 * a + 2 * b - csum == n + 2:
                    out.append((b, cs))
    return out


@pytest.mark.parametrize("n", range(-8, 5))
def test_pruned_raw_search_matches_brute_force(n):
    assert _raw_cp2(n) == _brute_raw_cp2(n)
    assert _raw_s2xs2(n) == _brute_raw_s2xs2(n)


class TestDistFill:
    def test_golden_values(self):
        res = distfill_family(0)
        assert (res.det1, res.det2) == (-20, -180)
        assert res.parity1 == res.parity2 == "even"
        assert res.matches_formula

    def test_family_formula(self):
        for n in (1, 2, 3):
            res = distfill_family(n)
            assert res.matches_formula
            assert (res.det1, res.det2) == (res.formula_det1, res.formula_det2)
        assert distfill_family(1).det1 == 29
        assert distfill_family(1).det2 == 261
        assert distfill_family(2).det1 == -38
        assert distfill_family(2).det2 == -342

    def test_ratio_is_nine(self):
        for n in range(6):
            res = distfill_family(n)
            assert res.det2 == 9 * res.det1

    def test_configuration_divisors(self):
        d1, d2 = family_configuration_divisors(0)
        assert dual_graph(d1)[0] == dual_graph(d2)[0] == (1, -2, -3, -3, -2, -3, -2)
        assert is_anticanonical(d1) and is_anticanonical(d2)
        # boundary homology matches the bundle of the string with this
        # reversal
        torsion = torus_bundle_h1(-monodromy((3, 3, 4, 3, 3))).torsion
        for div in (d1, d2):
            free, tor = cokernel_invariants(div.intersection_matrix())
            assert (free, tor) == (0, torsion)

    def test_negative_parameter_rejected(self):
        with pytest.raises(DomainError):
            distfill_family(-1)


class TestContact:
    def test_single(self):
        census = tight_structure_census((3,))
        assert census.vot_count == 2 and census.ut_count == 1
        assert census.rotation_tuples() == [(-1,), (1,)]

    def test_pair(self):
        census = tight_structure_census((4, 3))
        assert census.vot_count == 6
        assert census.rotation_values == ((-2, 0, 2), (-1, 1))

    def test_long(self):
        assert tight_structure_census((3, 3, 4, 3, 3)).vot_count == 48

    def test_requires_standard(self):
        with pytest.raises(DomainError):
            tight_structure_census((2, 2))

    def test_obstruction_examples(self):
        assert double_cover_obstruction((3, 2), (1, 0)) == VIRTUALLY_OVERTWISTED
        assert double_cover_obstruction((3,), (-1,)) == VIRTUALLY_OVERTWISTED

    def test_obstruction_validates_tuple(self):
        with pytest.raises(DomainError):
            double_cover_obstruction((3,), (2,))  # wrong parity
        with pytest.raises(DomainError):
            double_cover_obstruction((3,), (1, 1))  # wrong length
        with pytest.raises(DomainError):
            double_cover_obstruction((2, 2), (0, 0))  # not standard

    def test_all_tuples_obstructed(self):
        for d in [(3,), (4, 3), (3, 2, 2), (5, 2)]:
            census = tight_structure_census(d)
            for r in census.iter_rotation_tuples():
                assert double_cover_obstruction(d, r) == VIRTUALLY_OVERTWISTED

    def test_inconclusive_pattern_needs_all_twos(self):
        # the homogeneous pattern on the doubled string can only be hit
        # when every weight is two, which the standard form excludes;
        # verify the comparison logic directly on a crafted tuple
        d = (3, 2)
        census = tight_structure_census(d)
        patterns = {tuple(x - 2 for x in d + d), tuple(2 - x for x in d + d)}
        for r in census.iter_rotation_tuples():
            induced = r + tuple(-x for x in r)
            assert induced not in patterns
