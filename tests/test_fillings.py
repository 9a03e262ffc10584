import itertools
import random
from operator import mul

import pytest

from torusfill.blowup import DEFAULT_LIMIT, dominated_blowups, dominates, is_embeddable
from torusfill import fillings
from torusfill.divisor import (
    Ambient,
    CP2,
    S2XS2,
    Divisor,
    HClass,
    _pair,
    blowup_generic,
    blowup_node_total,
    cycle_cap_from_path,
    divisor_to_dict,
    dual_graph,
    hyperbolic_cycle_cap,
    is_anticanonical,
    parabolic_cap,
)
from torusfill.errors import DomainError
from torusfill.fillings import (
    CensusResult,
    FillingInvariants,
    INCONCLUSIVE,
    ParabolicSolution,
    VIRTUALLY_OVERTWISTED,
    census_complement_invariants,
    complement_invariants,
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
from torusfill.fillings import (
    _canonical_configuration,
    _filter_parabolic,
    _raw_cp2,
    _raw_s2xs2,
    _span_invariants,
)
from torusfill.lattice import (
    EVEN,
    LatticeInvariants,
    cokernel_invariants,
    gram_invariants,
    lattice_invariants,
    orthogonal_complement,
    radical_and_quotient,
    smith_normal_form,
)
from torusfill.sl2z import (
    cyclic_canonical,
    is_standard_string,
    monodromy,
    orientation_reversal,
    torus_bundle_h1,
)

from test_blowup import iter_blowup_paths, level_blowups


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


def _canonical_configuration_oracle(div):
    """The earlier canonical form: an explicit first-appearance
    relabelling of the exceptional classes for each ordering."""
    n = div.ambient.blowups
    coords = [c.coords for c in div.components]
    variants = []
    for ordering in (coords, [coords[0]] + coords[1:][::-1]):
        perm = {}
        nxt = 1
        for vec in ordering:
            for pos in range(1, n + 1):
                if vec[pos] and pos not in perm:
                    perm[pos] = nxt
                    nxt += 1
        for pos in range(1, n + 1):
            if pos not in perm:
                perm[pos] = nxt
                nxt += 1
        relabeled = []
        for vec in ordering:
            out = [vec[0]] + [0] * n
            for pos in range(1, n + 1):
                out[perm[pos]] = vec[pos]
            relabeled.append(tuple(out))
        variants.append(tuple(relabeled))
    return min(variants)


def _chain_census(d, limit=14):
    """Reference census: scan every rotation of the reversal for a
    dominated blowup, then build one cap per chain of node blowups."""
    c = orientation_reversal(d)
    ell = len(c)
    rotation = None
    for k in range(ell):
        rotated = c[k:] + c[:k]
        if any(dominates(s, rotated) for s in sorted(level_blowups(ell))):
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
        configurations.setdefault(_canonical_configuration_oracle(cap), cap)
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

    def test_column_sort_matches_relabelling(self):
        # every cap the census keys, on the whole target grid; a cap uses
        # every exceptional class, so each is also keyed without its last
        # component, which leaves the classes only that component used
        caps = 0
        for c in _oracle_targets():
            for path, _ in dominated_blowups(c):
                cap = cycle_cap_from_path(c, path)
                cut = Divisor(cap.ambient, cap.components[:-1], cap.labels[:-1], cap.marked)
                for div in (cap, cut):
                    assert _canonical_configuration(div) == _canonical_configuration_oracle(div), c
                caps += 1
        assert caps > 900

    def test_several_chains_share_an_endpoint(self):
        # the oracle comparison above is only meaningful if the chain
        # census really visits endpoints more than once
        c = orientation_reversal((3, 3, 4, 3, 3))
        endpoints = [s for _, s in iter_blowup_paths(len(c), c)]
        assert len(endpoints) > len(set(endpoints)) > 1


def _key_dedup_census(d):
    """The earlier census dedup: one cap per dominated endpoint, one
    configuration per _canonical_configuration key of those caps, the
    first cap of each key kept, sorted by key."""
    c = orientation_reversal(d)
    configurations = {}
    for path, _ in dominated_blowups(c):
        cap = cycle_cap_from_path(c, path)
        configurations.setdefault(_canonical_configuration(cap), cap)
    reps = tuple(configurations[key] for key in sorted(configurations))
    first = reps[0]
    capped = blowup_node_total(first, 1, 2)
    total = capped.total_class()
    n_blowups = 9 - total.dot(total)
    invariants = FillingInvariants(
        n_blowups, 0, n_blowups + 1 - len(first), 0, True, len(reps)
    )
    return CensusResult(tuple(d), c, 0, c, invariants, reps, capped)


def _small_embeddable_strings():
    """Every embeddable standard string with entries 2..6 and length at
    most 5 whose reversal is within the default length limit."""
    for length in range(1, 6):
        for d in itertools.product(range(2, 7), repeat=length):
            if (is_standard_string(d) and len(orientation_reversal(d)) <= DEFAULT_LIMIT
                    and is_embeddable(d)):
                yield d


def _constant_cycle_strings(ks):
    """The strings whose reversal is (k,) * (k + 3)."""
    return [orientation_reversal((k,) * (k + 3)) for k in ks]


def _endpoint_counts(c):
    """(E, P): the dominated endpoints of c, and how many of them are
    palindromes."""
    endpoints = [s for _, s in dominated_blowups(c)]
    return len(endpoints), sum(s == s[::-1] for s in endpoints)


class TestEndpointRule:
    def test_census_matches_key_dedup(self):
        strings = palindromes = 0
        for d in _small_embeddable_strings():
            census = hyperbolic_filling_census(d)
            assert census == _key_dedup_census(d), d
            strings += 1
            palindromes += census.reversal == census.reversal[::-1]
        assert (strings, palindromes) == (1266, 38)
        for d in _constant_cycle_strings(range(3, 7)):
            assert hyperbolic_filling_census(d) == _key_dedup_census(d), d

    def test_class_count_is_an_endpoint_count(self):
        for d in _small_embeddable_strings():
            census = hyperbolic_filling_census(d)
            c = census.reversal
            e, p = _endpoint_counts(c)
            expected = (e + p) // 2 if c == c[::-1] else e
            assert census.invariants.class_count_bound == expected, d

    def test_constant_cycle_counts(self):
        got = []
        for d in _constant_cycle_strings(range(4, 8)):
            census = hyperbolic_filling_census(d)
            got.append(_endpoint_counts(census.reversal)
                       + (census.invariants.class_count_bound,))
        assert got == [(35, 1, 18), (124, 0, 62), (420, 4, 212), (1420, 0, 710)]


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


def _filter_parabolic_oracle(n, raw):
    # the filter as it once stood: three separate minimality filters and
    # each model's classes built by hand from the ambient basis
    def survivor(entries):
        survivors = [
            entry for entry in entries
            if not any(x == 0 for x in entry[-1])
            and not any(x == 2 for x in entry[-1])
            and sum(1 for x in entry[-1] if x == 1) == 4 - n
        ]
        assert len(survivors) == 1, survivors
        return survivors[0]

    a, b1, rest = survivor(raw[CP2])
    assert (a, b1) == (2, 0) and all(x == 1 for x in rest) and len(rest) == 4 - n
    amb = Ambient(CP2, 5 - n)
    fiber = amb.h() - amb.e(1)
    conic = amb.h() + amb.h()
    for i in range(2, 6 - n):
        conic = conic - amb.e(i)
    cp2 = ParabolicSolution(CP2, a, b1, (b1,) + rest, 5 - n, fiber, conic, 4 - n, 5 - n)

    b, cs = survivor(raw[S2XS2])
    assert b == 1 and all(x == 1 for x in cs) and len(cs) == 4 - n
    amb2 = Ambient(S2XS2, 4 - n)
    fiber2 = amb2.f()
    conic2 = amb2.s() + amb2.s() + amb2.f()
    for i in range(1, 5 - n):
        conic2 = conic2 - amb2.e(i)
    s2 = ParabolicSolution(S2XS2, 2, b, cs, 4 - n, fiber2, conic2, 4 - n, 5 - n)
    return [cp2, s2]


@pytest.mark.parametrize("n", range(-7, 5))
class TestParabolicFilterOracle:
    def test_matches_hand_built_filter(self, n):
        raw = parabolic_solutions_raw(n)
        assert _filter_parabolic(n, raw) == _filter_parabolic_oracle(n, raw)

    def test_plane_survivor_is_the_parabolic_cap(self, n):
        plane = parabolic_solutions(n)[0]
        assert plane.model == CP2
        assert (plane.fiber_class, plane.conic_class) == parabolic_cap(n).components


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


def _family_configurations_oracle(n):
    """The earlier family builder: every class by HClass arithmetic,
    the n extra blowups subtracted from the third sphere one by one."""
    amb = Ambient(CP2, 9 + n)
    h, e = amb.h(), amb.e
    first = [
        h,
        h - e(1) - e(2) - e(4),
        e(4) - e(5) - e(6),
        e(2) - e(3) - e(4),
        e(3) - e(7),
        e(1) - e(2) - e(3),
        h - e(1) - e(8) - e(9),
    ]
    second = [
        h,
        h - e(1) - e(2) - e(5),
        e(2) - e(3) - e(4),
        e(4) - e(6) - e(7),
        e(3) - e(4),
        e(1) - e(2) - e(3),
        h - e(1) - e(8) - e(9),
    ]
    for k in range(10, 10 + n):
        first[2] = first[2] - e(k)
        second[2] = second[2] - e(k)
    return amb, first, second


FALLBACK_INPUTS = [
    # the total is not the anticanonical class
    (Ambient(CP2, 9), [c.coords for c in family_configuration_divisors(0)[0].components[:-1]]),
    # anticanonical, but the span is degenerate: K^2 = 0 in CP2#9
    (Ambient(CP2, 9), [Ambient(CP2, 9).anticanonical().coords]),
    # a blown-up product of spheres, with total 2s + 2f - e1
    (Ambient(S2XS2, 1), [(1, 0, 0), (1, 1, 0), (0, 1, -1)]),
]


def _span_invariants_oracle(amb, rows):
    """The earlier _span_invariants: one Smith form of the whole
    k x (N + 1) class matrix, every exceptional column kept, and the
    span Gram in the ambient pairing."""
    columns = list(zip(*rows))
    if amb.model == CP2 and tuple(map(sum, columns)) == amb.anticanonical().coords:
        d, u, _ = smith_normal_form(rows)
        basis = []
        for i, coefs in enumerate(u[:amb.rank]):
            if not d[i][i]:
                break
            quotients = [divmod(sum(map(mul, coefs, col)), d[i][i]) for col in columns]
            assert not any(rem for _, rem in quotients), "saturation must divide exactly"
            basis.append(tuple(q for q, _ in quotients))
        span = gram_invariants([[_pair(CP2, x, y) for y in basis] for x in basis])
        if span.det:
            pos, neg, _ = span.signature
            signature = (1 - pos, amb.blowups - neg, 0)
            return LatticeInvariants(
                rank=amb.rank - span.rank,
                det=abs(span.det) * (-1) ** signature[1],
                parity=EVEN,
                signature=signature,
                elementary_divisors=span.elementary_divisors,
            )
    return None


def _assert_span_matches_oracle(div):
    amb, rows = div.ambient, [c.coords for c in div.components]
    got = _span_invariants(amb, rows)
    assert got == _span_invariants_oracle(amb, rows)
    return got


def _complement_route(amb, rows):
    return lattice_invariants(orthogonal_complement(amb.gram(), rows))


@pytest.fixture
def complement_calls(monkeypatch):
    """Every orthogonal_complement call the fillings module makes."""
    calls = []

    def spy(gram, vectors):
        calls.append(len(gram))
        return orthogonal_complement(gram, vectors)

    monkeypatch.setattr(fillings, "orthogonal_complement", spy)
    return calls


def _census_configurations():
    for c in _oracle_targets():
        try:
            census = hyperbolic_filling_census(orientation_reversal(c))
        except DomainError:
            continue
        yield from census.configurations


class TestComplementInvariants:
    @pytest.mark.parametrize("n", range(61))
    def test_family_rows_match_class_arithmetic(self, n):
        amb, *confs = _family_configurations_oracle(n)
        divisors = family_configuration_divisors(n)
        assert [div.ambient for div in divisors] == [amb, amb]
        labels = tuple("C%d" % i for i in range(7))
        for div, classes in zip(divisors, confs):
            oracle = Divisor(amb, tuple(classes), labels, 0)
            assert _canonical_configuration(div) == _canonical_configuration(oracle)
            assert complement_invariants(div) == complement_invariants(oracle)
            assert _assert_span_matches_oracle(div) is not None

    @pytest.mark.parametrize("n", (100, 200))
    def test_family_matches_complement_route(self, n, complement_calls):
        for div in family_configuration_divisors(n):
            radical, inv = complement_invariants(div)
            assert not complement_calls
            assert radical == 0
            assert inv == _complement_route(div.ambient, [c.coords for c in div.components])
            assert inv.rank == n + 3
            assert _assert_span_matches_oracle(div) == inv

    def test_distfill_never_builds_a_complement(self, complement_calls):
        for n in range(61):
            distfill_family(n, limit=60)
        assert complement_calls == []

    def test_census_configurations_match_complement_route(self, complement_calls):
        # every hyperbolic cycle cap is anticanonical with a nondegenerate
        # span, so none of them leaves the configuration side
        count = 0
        for cap in _census_configurations():
            radical, inv = complement_invariants(cap)
            assert not complement_calls
            assert _assert_span_matches_oracle(cap) == inv
            sub = orthogonal_complement(cap.ambient.gram(), [c.coords for c in cap.components])
            assert inv == lattice_invariants(sub)
            assert radical_and_quotient(sub) == (radical, inv) == (0, inv)
            count += 1
        assert count > 800

    @pytest.mark.parametrize("amb, rows", FALLBACK_INPUTS + [
        # h - e1 spans its own complement in CP2#1: a radical of rank 1
        (Ambient(CP2, 1), [(1, -1)]),
    ])
    def test_fallback_builds_the_complement_once(self, amb, rows, complement_calls):
        div = Divisor(amb, tuple(HClass(amb, r) for r in rows),
                      tuple("C%d" % i for i in range(len(rows))))
        got = complement_invariants(div)
        assert complement_calls == [amb.rank]
        assert _assert_span_matches_oracle(div) is None
        # the earlier route: invariants of the complement, and when they
        # show a radical, the quotient of a second complement
        inv = _complement_route(amb, rows)
        if inv.signature[2]:
            assert got == radical_and_quotient(orthogonal_complement(amb.gram(), rows))
        else:
            assert got == (0, inv)

    @pytest.mark.parametrize("amb, rows", [
        # k = 3 rows, t = 1 distinct exceptional column: h, h and
        # h - e1 - ... - eN span a rank-2 lattice, so d has 1 + t = 2
        # columns and the basis loop stops there, below amb.rank
        (Ambient(CP2, 2), [(1, 0, 0), (1, 0, 0), (1, -1, -1)]),
        (Ambient(CP2, 5), [(1,) + (0,) * 5, (1,) + (0,) * 5, (1,) + (-1,) * 5]),
        # two distinct columns, each twice, and a zero row: k = 4 > 1 + t
        (Ambient(CP2, 4), [(1, 0, 0, 0, 0), (1, 0, 0, -1, -1), (1, -1, -1, 0, 0),
                           (0, 0, 0, 0, 0)]),
        # a column repeated three times beside distinct ones
        (Ambient(CP2, 5), [(1, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0),
                           (1, 0, -1, -1, -1, -1)]),
    ])
    def test_span_merges_repeated_columns(self, amb, rows):
        div = Divisor(amb, tuple(HClass(amb, r) for r in rows),
                      tuple("C%d" % i for i in range(len(rows))))
        inv = _assert_span_matches_oracle(div)
        assert inv is not None
        assert complement_invariants(div) == (0, inv)
        assert inv == _complement_route(amb, rows)

    def test_span_refuses_a_zero_exceptional_column(self, complement_calls):
        # every exceptional column of an anticanonical configuration sums
        # to -1, so the zero column e4 fails hypothesis (2), which is
        # checked on the unmerged columns (e1 and e2 are equal)
        amb = Ambient(CP2, 4)
        rows = [(1, 0, 0, 0, 0), (1, -1, -1, 0, 0), (1, 0, 0, -1, 0)]
        assert not any(list(zip(*rows))[4])
        div = Divisor(amb, tuple(HClass(amb, r) for r in rows), ("A", "B", "C"))
        assert _assert_span_matches_oracle(div) is None
        assert complement_invariants(div) == radical_and_quotient(
            orthogonal_complement(amb.gram(), rows))
        assert complement_calls == [amb.rank]

    def test_span_matches_oracle_on_blown_up_caps(self):
        # generic blowups add equal exceptional columns, node blowups new
        # components; every step stays anticanonical
        rng = random.Random(23)
        for d in ((3, 3, 4, 3, 3), (5,), (2, 2, 2, 6), (4, 4, 4)):
            cap = hyperbolic_cycle_cap(d)
            for _ in range(12):
                i = rng.randrange(len(cap))
                if rng.random() < 0.6:
                    cap = blowup_generic(cap, i, rng.randint(1, 4))
                else:
                    j = (i + 1) % len(cap)
                    if cap.components[i].dot(cap.components[j]) >= 1:
                        cap = blowup_node_total(cap, i, j)
                assert is_anticanonical(cap)
                _assert_span_matches_oracle(cap)

    def test_family_smith_forms_have_merged_columns(self, monkeypatch):
        shapes = []

        def spy(mat):
            shapes.append((len(mat), len(mat[0])))
            return smith_normal_form(mat)

        monkeypatch.setattr(fillings, "smith_normal_form", spy)
        distfill_family(200, limit=200)
        # 1 + t columns, not the 1 + 209 of the ambient
        assert shapes == [(7, 8), (7, 9)]

    def test_degenerate_complement_reports_radical(self):
        amb = Ambient(CP2, 9)
        div = Divisor(amb, (amb.anticanonical(),), ("K",))
        sub = orthogonal_complement(amb.gram(), [amb.anticanonical().coords])
        radical, inv = complement_invariants(div)
        assert (radical, inv) == radical_and_quotient(sub)
        assert radical == 1 and inv.rank == 8 and abs(inv.det) == 1

    @pytest.mark.parametrize("n", range(9))
    def test_census_finds_the_distfill_pair(self, n):
        d = (3, 3, 4, 3) + (2,) * n + (3,)
        census = hyperbolic_filling_census(d)
        res = distfill_family(n)
        found = census_complement_invariants(census)
        assert found == {(0, res.invariants1), (0, res.invariants2)}
        assert res.invariants1 != res.invariants2
        keys = set(map(_canonical_configuration, census.configurations))
        assert set(map(_canonical_configuration, family_configuration_divisors(n))) <= keys

    @pytest.mark.parametrize("n", range(9))
    def test_family_is_two_census_caps(self, n):
        census = hyperbolic_filling_census((3, 3, 4, 3) + (2,) * n + (3,))
        assert census.reversal == (3, 3 + n, 3, 2, 3, 3)
        first, second = family_configuration_divisors(n)
        assert first != second
        assert first in census.configurations and second in census.configurations


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
