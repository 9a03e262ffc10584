"""Filling invariants of the contact torus bundles carried by the caps.

Three computations live here.

* The hyperbolic census: build the cycle cap of an embeddable string
  once for each distinct blowup of (0, 0) its reversal dominates (one
  pruned walk finds them all), deduplicate the resulting homology
  configurations up to relabelling of exceptional classes (and
  reflection of the cycle), and extract the Betti-number bookkeeping
  shared by all fillings.

* The parabolic systems: exhaustive integer search for the classes of
  the two spheres of the parabolic cap inside a blown-up plane or
  product of spheres, pruned by the sum and sum-of-squares bounds, with
  the minimality filters that cut the raw solution set to the unique
  surviving class assignment per model.

* The distinguished-filling family: two cycle configurations with the
  same dual graph whose orthogonal complements have different Gram
  determinants, computed from scratch for every family parameter and
  compared against the closed formulas (-1)^(N+1) (9N+20) and
  (-1)^(N+1) 9 (9N+20).

Contact-structure counting is integer bookkeeping: rotation-number
tuples with one entry from {-(d_j - 2), ..., d_j - 2} in steps of two
per index, and the double-cover test comparing the induced tuple on the
doubled string with the two homogeneous patterns +-(d_j - 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .blowup import dominated_blowups
from .divisor import (
    CP2,
    S2XS2,
    Ambient,
    Divisor,
    HClass,
    blowup_node_total,
    cycle_cap_from_path,
    is_anticanonical,
)
from .errors import DomainError, ResourceLimitError
from .lattice import (
    LatticeInvariants,
    lattice_invariants,
    orthogonal_complement,
)
from .sl2z import is_standard_string, orientation_reversal

__all__ = [
    "FillingInvariants",
    "CensusResult",
    "hyperbolic_filling_census",
    "euler_consistency",
    "euler_diagnostic",
    "ParabolicSolution",
    "parabolic_solutions",
    "parabolic_solutions_raw",
    "DistFillResult",
    "distfill_family",
    "ContactCensus",
    "tight_structure_census",
    "VIRTUALLY_OVERTWISTED",
    "INCONCLUSIVE",
    "double_cover_obstruction",
]


@dataclass(frozen=True)
class FillingInvariants:
    """Shared numerical invariants of the fillings of one bundle."""

    n_blowups: int
    b1: int
    b2: int
    b3: int
    c1_trivial: bool
    class_count_bound: int


@dataclass(frozen=True)
class CensusResult:
    string: tuple
    reversal: tuple
    rotation: int
    target: tuple
    invariants: FillingInvariants
    configurations: tuple
    capped: Divisor


def _canonical_configuration(div: Divisor):
    """Configurations are compared up to relabelling of the exceptional
    classes and reflection of the cycle fixing the marked component."""
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


def hyperbolic_filling_census(d, limit: int = 14) -> CensusResult:
    """Betti bookkeeping and configuration count for the fillings of the
    hyperbolic bundle of an embeddable standard string d.

    The target weight cycle is the reversal c itself (rotation 0); the
    blowup module docstring says why no other rotation is needed.

    Distinct dominated endpoints can carry different homology
    configurations, so the census builds one cap per endpoint of the
    pruned walk dominated_blowups, from that endpoint's
    lexicographically first chain, and deduplicates the configurations.
    All chains to one endpoint give the same canonical configuration
    (node blowups at different nodes commute up to relabelling of the
    exceptional classes), and the walk yields endpoints in the order a
    walk over every chain first reaches them, so each configuration
    keeps the representative a chain-by-chain census would store.

    One extra node blowup away from the +1 sphere then produces the
    anticanonical configuration whose square fixes the total blowup
    count N = 9 - [total]^2, and the second Betti number of any filling
    is N + 1 - (number of cap components before the extra blowup).
    """
    if not is_standard_string(d):
        raise DomainError("census needs a standard string, got %s" % (tuple(d),))
    c = orientation_reversal(d)
    ell = len(c)
    if ell < 2:
        raise DomainError(
            "string %s is not embeddable: its reversal has length one" % (tuple(d),)
        )
    if ell > limit:
        raise ResourceLimitError("reversal length %d exceeds limit %d" % (ell, limit))

    configurations = {}
    for path, _ in dominated_blowups(c):
        cap = cycle_cap_from_path(c, path)
        configurations.setdefault(_canonical_configuration(cap), cap)
    if not configurations:
        raise DomainError("string %s is not embeddable" % (tuple(d),))
    reps = tuple(configurations[key] for key in sorted(configurations))

    ambients = {cap.ambient for cap in reps}
    assert len(ambients) == 1, "all configurations share the ambient blowup count"
    first = reps[0]
    capped = blowup_node_total(first, 1, 2)
    total = capped.total_class()
    assert is_anticanonical(capped)
    n_blowups = 9 - total.dot(total)
    assert n_blowups == capped.ambient.blowups
    b2 = n_blowups + 1 - len(first)
    invariants = FillingInvariants(
        n_blowups=n_blowups,
        b1=0,
        b2=b2,
        b3=0,
        c1_trivial=True,
        class_count_bound=len(reps),
    )
    result = CensusResult(
        string=tuple(d),
        reversal=c,
        rotation=0,
        target=c,
        invariants=invariants,
        configurations=reps,
        capped=capped,
    )
    assert euler_consistency(capped, invariants)
    return result


def euler_diagnostic(cap: Divisor, fill: FillingInvariants) -> dict:
    """Both sides of the Euler-characteristic and rank identities for a
    closed model X = (blown-up plane) split along the bundle into the
    cap neighborhood and a filling.

    With chi(bundle) = 0 and b1 = b2 = 1 for the bundle, b1 = 1 for the
    cap: chi(X) = chi(cap) + chi(filling) and
    b2(X) + 1 = b2(cap) + b2(filling).
    """
    if cap.ambient.model != CP2:
        raise DomainError("consistency bookkeeping assumes a blown-up plane")
    k = len(cap)
    q = cap.intersection_matrix()
    nodes = sum(q[i][j] for i in range(k) for j in range(i + 1, k))
    chi_cap = 2 * k - nodes
    chi_closed = 3 + fill.n_blowups
    chi_filling = 1 + fill.b2 - fill.b1 - fill.b3
    rank_left = fill.n_blowups + 1 + 1
    rank_right = k + fill.b2
    return {
        "chi_closed": chi_closed,
        "chi_cap": chi_cap,
        "chi_filling": chi_filling,
        "chi_ok": chi_closed == chi_cap + chi_filling,
        "rank_left": rank_left,
        "rank_right": rank_right,
        "rank_ok": rank_left == rank_right,
    }


def euler_consistency(cap: Divisor, fill: FillingInvariants) -> bool:
    """True iff the Euler-characteristic and rank identities hold for
    the cap and filling data."""
    diag = euler_diagnostic(cap, fill)
    return diag["chi_ok"] and diag["rank_ok"]


# --- parabolic classification ---------------------------------------------

_SEARCH_COEFF_MAX = 6  # per-coefficient bound
_SEARCH_INDEX_MAX = 12  # number of exceptional classes tried

# The bounds are sufficient for n <= 4: the system forces
# sum_{i>1} (2 b_i - b_i^2) = 4 - n for the plane model (and the same
# with c_i over all i for the product model), so each coefficient lies
# in {0, 1, 2} in any solution with a, b_1 in the searched range, and
# a - b_1 = 2 caps a once b_1 is capped.  The wider box is kept so the
# raw, unfiltered solution set is visibly exhaustive; _multisets walks
# it without visiting the branches whose sum or sum of squares is out
# of reach, so it returns what a scan of every multiset would.


@dataclass(frozen=True)
class ParabolicSolution:
    """One surviving class assignment for the parabolic cap spheres."""

    model: str
    a: int
    b: int
    coefficients: tuple
    n_blowups: int
    fiber_class: HClass
    conic_class: HClass
    b2_filling: int
    b2_rank_consistent: int


def _multisets(count, total, squares, top=_SEARCH_COEFF_MAX):
    """Non-increasing tuples of `count` entries in 0..top with the given
    sum and sum of squares, in the order of
    combinations_with_replacement(range(top, -1, -1), count).

    A branch is cut as soon as its remaining sum or sum of squares is
    negative or exceeds what `count` entries of at most `top` can reach.
    """
    if total < 0 or squares < 0 or total > count * top or squares > count * top * top:
        return
    if count == 0:
        yield ()
        return
    for x in range(top, -1, -1):
        for rest in _multisets(count - 1, total - x, squares - x * x, x):
            yield (x,) + rest


def _raw_cp2(n):
    """All (a, b_1, multiset of b_i for i > 1) solving the plane system
    n = a^2 - sum b_i^2,  3a - sum b_i = n + 2,  a - b_1 = 2,
    within the documented search box."""
    out = []
    for b1 in range(_SEARCH_COEFF_MAX + 1):
        a = b1 + 2
        for count in range(_SEARCH_INDEX_MAX):
            for rest in _multisets(count, 3 * a - n - 2 - b1, a * a - n - b1 * b1):
                out.append((a, b1, rest))
    return out


def _raw_s2xs2(n):
    """All (b, multiset of c_i) solving the product system with a = 2:
    n = 2ab - sum c_i^2,  2a + 2b - sum c_i = n + 2."""
    out = []
    a = 2
    for b in range(_SEARCH_COEFF_MAX + 1):
        for count in range(_SEARCH_INDEX_MAX):
            for cs in _multisets(count, 2 * a + 2 * b - n - 2, 2 * a * b - n):
                out.append((b, cs))
    return out


def _reject_disjoint_exceptional(coeffs) -> bool:
    # a vanishing coefficient means an exceptional sphere disjoint from
    # both cap spheres, contradicting minimality of the filling
    return any(x == 0 for x in coeffs)


def _reject_split_exceptional(coeffs) -> bool:
    # a coefficient 2 splits off an exceptional sphere disjoint from the
    # configuration, again against minimality: h - e_1 - e_j for b_j = 2
    # (j > 1) on the plane, f - e_i for c_i = 2 on the product
    return any(x == 2 for x in coeffs)


def _reject_unit_count(coeffs, n) -> bool:
    # blowing down extra +-1 coefficients would embed the forbidden
    # n > 4 configuration, so exactly 4 - n unit coefficients survive
    return sum(1 for x in coeffs if x == 1) != 4 - n


def parabolic_solutions_raw(n: int) -> dict:
    """Raw exhaustive solutions of the two parabolic systems, before the
    minimality filters, keyed by model."""
    if n > 4:
        raise DomainError(
            "no parabolic solutions for n > 4: the cap configuration does "
            "not embed in any closed model (n = %d)" % n
        )
    return {CP2: _raw_cp2(n), S2XS2: _raw_s2xs2(n)}


def parabolic_solutions(n: int) -> list:
    """The unique filtered solution per model for the parabolic bundle
    parameter n <= 4.

    The plane survivor is a = 2, b_1 = 0 with 4 - n unit coefficients:
    fiber class h - e_1 and conic class 2h - e_2 - ... - e_{5-n}.  The
    product survivor is b = 1 with all c_i = 1: fiber class f and conic
    class 2s + f - e_1 - ... - e_{4-n}.  The reported b2 of the filling
    is 4 - n; the rank identity of euler_diagnostic favours 5 - n, and
    both values are carried so the divergence stays visible.
    """
    return _filter_parabolic(n, parabolic_solutions_raw(n))


def _filter_parabolic(n: int, raw: dict) -> list:
    """parabolic_solutions from the raw solutions of parameter n."""
    survivors_cp2 = []
    for a, b1, rest in raw[CP2]:
        if _reject_disjoint_exceptional(rest):
            continue
        if _reject_split_exceptional(rest):
            continue
        if _reject_unit_count(rest, n):
            continue
        survivors_cp2.append((a, b1, rest))
    assert len(survivors_cp2) == 1, survivors_cp2
    a, b1, rest = survivors_cp2[0]
    assert (a, b1) == (2, 0) and all(x == 1 for x in rest) and len(rest) == 4 - n
    amb = Ambient(CP2, 5 - n)
    fiber = amb.h() - amb.e(1)
    conic = amb.h() + amb.h()
    for i in range(2, 6 - n):
        conic = conic - amb.e(i)
    cp2 = ParabolicSolution(
        model=CP2,
        a=a,
        b=b1,
        coefficients=(b1,) + rest,
        n_blowups=5 - n,
        fiber_class=fiber,
        conic_class=conic,
        b2_filling=4 - n,
        b2_rank_consistent=5 - n,
    )
    assert fiber.dot(fiber) == 0 and conic.dot(conic) == n and fiber.dot(conic) == 2

    survivors_s2 = []
    for b, cs in raw[S2XS2]:
        if _reject_disjoint_exceptional(cs):
            continue
        if _reject_split_exceptional(cs):
            continue
        if _reject_unit_count(cs, n):
            continue
        survivors_s2.append((b, cs))
    assert len(survivors_s2) == 1, survivors_s2
    b, cs = survivors_s2[0]
    assert b == 1 and all(x == 1 for x in cs) and len(cs) == 4 - n
    amb2 = Ambient(S2XS2, 4 - n)
    fiber2 = amb2.f()
    conic2 = amb2.s() + amb2.s() + amb2.f()
    for i in range(1, 5 - n):
        conic2 = conic2 - amb2.e(i)
    s2 = ParabolicSolution(
        model=S2XS2,
        a=2,
        b=b,
        coefficients=cs,
        n_blowups=4 - n,
        fiber_class=fiber2,
        conic_class=conic2,
        b2_filling=4 - n,
        b2_rank_consistent=5 - n,
    )
    assert fiber2.dot(fiber2) == 0 and conic2.dot(conic2) == n and fiber2.dot(conic2) == 2
    return [cp2, s2]


# --- distinguished filling family ------------------------------------------


def _family_configurations(n: int):
    """The two seven-sphere cycle configurations in a 9 + n fold blowup
    of the plane sharing one dual graph; the extra n blowups sit on the
    third sphere of each cycle.

    The span of the first configuration has index three in its
    saturation, which is what divides its complement determinant by
    nine relative to the second; the extra blowups must land on a
    sphere whose coefficient in the index-three relation vanishes, and
    among the -3 spheres only the third one both preserves the relation
    and yields the determinant profile 81n + 180 of the shared graph.
    """
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


@dataclass(frozen=True)
class DistFillResult:
    """Orthogonal-complement data of the two family configurations."""

    n: int
    det1: int
    det2: int
    parity1: str
    parity2: str
    formula_det1: int
    formula_det2: int
    matches_formula: bool
    invariants1: LatticeInvariants
    invariants2: LatticeInvariants


def distfill_family(n: int, limit: int = 50) -> DistFillResult:
    """Gram determinants and parities of the sublattices orthogonal to
    the two distinguished configurations with family parameter n >= 0.

    The complements are computed directly from the class lists (never
    from a guessed basis) and compared against the closed formulas
    (-1)^(n+1) (9n + 20) and (-1)^(n+1) 9 (9n + 20); a mismatch is
    reported in matches_formula rather than asserted away.
    """
    if n < 0:
        raise DomainError("family parameter must be nonnegative")
    if n > limit:
        raise ResourceLimitError("family parameter %d exceeds limit %d" % (n, limit))
    amb, first, second = _family_configurations(n)
    gram = amb.gram()
    sub1 = orthogonal_complement(gram, [c.coords for c in first])
    sub2 = orthogonal_complement(gram, [c.coords for c in second])
    inv1 = lattice_invariants(sub1)
    inv2 = lattice_invariants(sub2)
    assert inv1.rank == n + 3 and inv2.rank == n + 3
    f1 = (-1) ** (n + 1) * (9 * n + 20)
    f2 = (-1) ** (n + 1) * 9 * (9 * n + 20)
    return DistFillResult(
        n=n,
        det1=inv1.det,
        det2=inv2.det,
        parity1=inv1.parity,
        parity2=inv2.parity,
        formula_det1=f1,
        formula_det2=f2,
        matches_formula=inv1.det == f1 and inv2.det == f2,
        invariants1=inv1,
        invariants2=inv2,
    )


def family_configuration_divisors(n: int):
    """The two family configurations as divisors (for reports and
    cross-checks)."""
    amb, first, second = _family_configurations(n)
    labels = tuple("C%d" % i for i in range(7))
    return (
        Divisor(amb, tuple(first), labels, marked=0),
        Divisor(amb, tuple(second), labels, marked=0),
    )


# --- contact structure counting --------------------------------------------

VIRTUALLY_OVERTWISTED = "virtually overtwisted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ContactCensus:
    """Tight contact structures on the bundle of a standard string d:
    one universally tight one, and one virtually overtwisted one per
    rotation tuple."""

    string: tuple
    vot_count: int
    ut_count: int
    rotation_values: tuple

    def rotation_tuples(self):
        """Materialize all rotation tuples (may be large: the count is
        the product of the per-index set sizes)."""
        return list(self.iter_rotation_tuples())

    def iter_rotation_tuples(self):
        return itertools.product(*self.rotation_values)


def tight_structure_census(d) -> ContactCensus:
    """Count tight structures on the bundle of the standard string d:
    the rotation tuples have j-th entry in
    {-(d_j - 2), -(d_j - 2) + 2, ..., d_j - 2}, giving d_j - 1 choices,
    so their number is the product of the (d_j - 1)."""
    entries = tuple(d)
    if not is_standard_string(entries):
        raise DomainError("contact census needs a standard string, got %s" % (entries,))
    values = tuple(tuple(range(-(x - 2), x - 1, 2)) for x in entries)
    for x, vals in zip(entries, values):
        assert len(vals) == x - 1
    return ContactCensus(
        string=entries,
        vot_count=prod(len(v) for v in values),
        ut_count=1,
        rotation_values=values,
    )


def double_cover_obstruction(d, r) -> str:
    """Compare the pull-back of a rotation tuple to the double cover
    against the two homogeneous patterns.

    The tuple (r_1, ..., r_m) induces (r_1, ..., r_m, -r_1, ..., -r_m)
    on the doubled string; the universally tight structures there pair
    to epsilon * (d_j - 2) with one epsilon for all j.  A mismatch with
    both patterns certifies the structure virtually overtwisted, which
    happens for every valid tuple once some d_j >= 3.
    """
    entries = tuple(d)
    if not is_standard_string(entries):
        raise DomainError("obstruction needs a standard string, got %s" % (entries,))
    tup = tuple(r)
    if len(tup) != len(entries):
        raise DomainError("rotation tuple length %d does not match string length %d"
                          % (len(tup), len(entries)))
    for rj, dj in zip(tup, entries):
        if abs(rj) > dj - 2 or (rj - dj) % 2:
            raise DomainError("entry %d is not a rotation number for weight %d" % (rj, dj))
    induced = tup + tuple(-x for x in tup)
    doubled = entries + entries
    plus = tuple(x - 2 for x in doubled)
    minus = tuple(2 - x for x in doubled)
    if induced != plus and induced != minus:
        return VIRTUALLY_OVERTWISTED
    return INCONCLUSIVE
