"""Filling invariants of the contact torus bundles carried by the caps.

Three computations live here.

* The hyperbolic census: build the cycle cap of an embeddable string
  once for each distinct blowup of (0, 0) its reversal c dominates (one
  pruned walk finds them all), up to the mirror s -> s reversed when c
  is a palindrome: distinct endpoints give distinct homology
  configurations up to relabelling of exceptional classes and
  reflection of the cycle, except that mirror pair.  It then extracts
  the Betti-number bookkeeping shared by all fillings.

* The parabolic systems: exhaustive integer search for the classes of
  the two spheres of the parabolic cap inside a blown-up plane or
  product of spheres, pruned by the sum and sum-of-squares bounds, with
  the minimality condition that cuts the raw solution set to one
  survivor per model.  Each survivor is asserted to be that model's
  parabolic cap; the plane's is parabolic_cap(n).

* The distinguished-filling family: two census configurations of the
  bundle whose reversal is (3, 3 + n, 3, 2, 3, 3), built by the
  census's own cap builder, with the same dual graph and orthogonal
  complements of different Gram determinants, computed afresh
  for every family parameter and compared against the closed formulas
  (-1)^(N+1) (9N+20) and (-1)^(N+1) 9 (9N+20).  The complement
  invariants of these and of the census configurations all go through
  complement_invariants, which reads them off the configuration side:
  the ambient lattice is unimodular, so a nondegenerate saturated span
  and its complement share their discriminant group (_span_invariants
  gives the argument).  The span comes from one Smith form of the class
  matrix with its equal exceptional columns merged, k x (1 + t) for t
  distinct columns, in a pairing that weights each merged column by
  its multiplicity.  Where a hypothesis fails, its fallback is one
  radical_and_quotient of the built complement.

Contact-structure counting is integer bookkeeping: rotation-number
tuples with one entry from {-(d_j - 2), ..., d_j - 2} in steps of two
per index.  On a standard string every such tuple is virtually
overtwisted: its pull-back to the doubled string never matches either
homogeneous pattern +-(d_j - 2) of the universally tight structures
(double_cover_obstruction gives the argument).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod
from operator import mul

from .blowup import DEFAULT_LIMIT, dominated_blowups
from .divisor import (
    CP2,
    S2XS2,
    Ambient,
    Divisor,
    HClass,
    _cap,
    _pad,
    blowup_node_total,
    cycle_cap_from_path,
    is_anticanonical,
    parabolic_cap,
)
from .errors import DomainError, _within
from .lattice import (
    EVEN,
    LatticeInvariants,
    gram_invariants,
    orthogonal_complement,
    radical_and_quotient,
    smith_normal_form,
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
    "complement_invariants",
    "census_complement_invariants",
    "ContactCensus",
    "tight_structure_census",
    "VIRTUALLY_OVERTWISTED",
    "INCONCLUSIVE",
    "double_cover_obstruction",
]


@dataclass(frozen=True)
class FillingInvariants:
    """Shared numerical invariants of the fillings of one bundle.

    `b1 = 0` and `c1_trivial` are the paper's theorem (i), and `b3 = 0`
    holds for every 4-dimensional Stein domain (a 2-complex up to
    homotopy): all three are stated, not computed.  `n_blowups`, `b2`
    and `class_count_bound` come from the census.
    """

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
    """The sort key that fixes the order of the census configurations
    in the report.

    Each ordering of the components, as given and reflected fixing the
    marked one, renumbers the exceptional classes in the order the
    components, each read from e_1 up, first use them, unused ones
    last.  That is a stable sort of the exceptional columns by the row
    of their first nonzero entry, unused columns past the last row:
    ties keep index order both ways.  The key is the smaller of the two
    variants, so equal keys mean equal rows up to a permutation of the
    exceptional columns, possibly after reflecting one of the two
    configurations.  The census does not decide equality with it."""
    coords = [c.coords for c in div.components]
    variants = []
    for rows in (coords, [coords[0]] + coords[1:][::-1]):
        h, *exceptional = zip(*rows)
        exceptional.sort(key=lambda col: next((r for r, x in enumerate(col) if x), len(rows)))
        variants.append(tuple(zip(h, *exceptional)))
    return min(variants)


def _standard(d, what) -> tuple:
    """tuple(d), refused with DomainError("<what> needs a standard
    string, got ...") unless it is a standard string."""
    entries = tuple(d)
    if not is_standard_string(entries):
        raise DomainError("%s needs a standard string, got %s" % (what, entries))
    return entries


def hyperbolic_filling_census(d, limit: int = DEFAULT_LIMIT) -> CensusResult:
    """Betti bookkeeping and configuration count for the fillings of the
    hyperbolic bundle of an embeddable standard string d.

    The target weight cycle is the reversal c itself (rotation 0); the
    blowup module docstring says why no other rotation is needed.

    A configuration is the cap's class matrix up to relabelling of the
    exceptional classes and reflection of the cycle fixing the marked
    component.  The census builds one cap per endpoint s of the pruned
    walk dominated_blowups(c), from that endpoint's lexicographically
    first chain, except that when c is a palindrome it skips s once
    s reversed has been kept.  It returns the kept caps sorted by
    _canonical_configuration.  This keeps one cap per configuration, by
    the rule: the caps of endpoints s and s' of c are the same
    configuration exactly when s' = s, or c is a palindrome and s' is s
    reversed.  So with E dominated endpoints, P of them palindromes,
    class_count_bound is E, or (E + P) / 2 when c is a palindrome.

    If.  All chains to one endpoint give the same configuration: s is
    the quiddity sequence of one triangulation (Conway and Coxeter,
    Triangulated polygons and frieze patterns, Math. Gaz. 1973), which
    fixes the components each node class meets, and node blowups at
    different nodes commute up to relabelling.  The reflection fixing
    the marked line reverses the components 1..l.  It maps the triangle
    of lines to itself, a node blowup at position m of a sequence of
    length n to one at position n - m of the reversed sequence, and
    the generic classes of component i to those of component l + 1 - i.
    So it maps the cap of (c, s) to a cap of (c reversed, s reversed),
    up to relabelling; for a palindrome c that is the cap of (c, s
    reversed).

    Only if, first step.  The pairing diag(1, -1, ..., -1) is unchanged
    by permuting the exceptional columns, so two caps with the same
    configuration have, after reflecting one of them if need be, equal
    rows up to such a permutation, and equal self-pairings row by row.
    A cap of c has self-pairings (+1, 1 - c_1, -c_2, ..., -c_(l-1),
    1 - c_l), and reflection reverses the last l of them.  So a
    reflection is involved only when that sequence equals its reverse,
    that is when c is a palindrome.

    Only if, second step.  In the cap of (c, s), the number of
    exceptional columns whose only nonzero entry lies in row i is
    c_i - s_i.  A generic class of component i has one -1, in row i.
    The node class e_k has +1 in the row of its sphere E_k and -1 in
    the two rows it was blown up from, and later blowups only add
    columns, so e_k keeps three nonzero entries.  Permuting columns
    keeps these counts, and reflection reverses them.  So the
    configuration fixes s, or, for a palindrome c, s up to reversal.

    The walk yields endpoints in the order a walk over every chain first
    reaches them, and the census keeps the first of a mirror pair, so
    each configuration is represented by the first of its endpoints a
    chain-by-chain census reaches.  Equal sort keys mean one
    configuration, so the kept caps have distinct keys and their order
    is total.

    One extra node blowup away from the +1 sphere then produces the
    anticanonical configuration whose square fixes the total blowup
    count N = 9 - [total]^2, and the second Betti number of any filling
    is N + 1 - (number of cap components before the extra blowup).
    The reported b1 = b3 = 0 and c1_trivial are stated, not computed:
    b1 = 0 and c1 = 0 are the paper's theorem (i), and b3 = 0 holds for
    every Stein filling of a 3-manifold.
    """
    d = _standard(d, "census")
    c = orientation_reversal(d)
    ell = len(c)
    if ell < 2:
        raise DomainError(
            "string %s is not embeddable: its reversal has length one" % (d,)
        )
    _within(limit, ell, "reversal length %d")

    caps = {}
    for path, s in dominated_blowups(c):
        if c != c[::-1] or s[::-1] not in caps:
            caps[s] = cycle_cap_from_path(c, path)
    if not caps:
        raise DomainError("string %s is not embeddable" % (d,))
    reps = tuple(sorted(caps.values(), key=_canonical_configuration))

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
        string=d,
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
_SEARCH_N_MIN = 5 - _SEARCH_INDEX_MAX  # the plane survivor uses 5 - n classes

# The bounds are sufficient for _SEARCH_N_MIN <= n <= 4: the system forces
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


def parabolic_solutions_raw(n: int) -> dict:
    """Raw exhaustive solutions of the two parabolic systems, before the
    minimality condition, keyed by model.  Below _SEARCH_N_MIN the plane
    survivor has more exceptional classes than the box tries, so such n
    are refused rather than searched."""
    if n > 4:
        raise DomainError(
            "no parabolic solutions for n > 4: the cap configuration does "
            "not embed in any closed model (n = %d)" % n
        )
    if n < _SEARCH_N_MIN:
        raise DomainError(
            "parabolic search supports %d <= n <= 4: the plane solution needs "
            "%d exceptional classes, the search tries %d (n = %d)"
            % (_SEARCH_N_MIN, 5 - n, _SEARCH_INDEX_MAX, n)
        )
    return {CP2: _raw_cp2(n), S2XS2: _raw_s2xs2(n)}


def parabolic_solutions(n: int) -> list:
    """The unique filtered solution per model for the parabolic bundle
    parameter n in _SEARCH_N_MIN..4 (that is, -7..4).

    Each model's sole survivor is asserted to be that model's parabolic
    cap.  The plane survivor is a = 2, b_1 = 0 with 4 - n unit
    coefficients; its fiber class h - e_1 and conic class
    2h - e_2 - ... - e_{5-n} are the components of parabolic_cap(n).
    The product survivor is b = 1 with all c_i = 1: fiber class f and
    conic class 2s + f - e_1 - ... - e_{4-n}.  The reported b2 of the
    filling is 4 - n; the rank identity of euler_diagnostic favours
    5 - n, and both values are carried so the divergence stays visible.
    """
    return _filter_parabolic(n, parabolic_solutions_raw(n))


def _sole_survivor(entries, n: int):
    """The one raw entry of parameter n whose coefficients, its last
    item, meet the minimality condition: no coefficient 0, no
    coefficient 2, and exactly 4 - n coefficients equal to 1.

    A vanishing coefficient means an exceptional sphere disjoint from
    both cap spheres, contradicting minimality of the filling.  A
    coefficient 2 splits off an exceptional sphere disjoint from the
    configuration, again against minimality: h - e_1 - e_j for b_j = 2
    (j > 1) on the plane, f - e_i for c_i = 2 on the product.  Blowing
    down extra +-1 coefficients would embed the forbidden n > 4
    configuration, so exactly 4 - n unit coefficients survive."""
    survivors = [
        entry for entry in entries
        if 0 not in entry[-1] and 2 not in entry[-1] and entry[-1].count(1) == 4 - n
    ]
    assert len(survivors) == 1, survivors
    return survivors[0]


def _filter_parabolic(n: int, raw: dict) -> list:
    """parabolic_solutions from the raw solutions of parameter n: each
    model's sole survivor, with the (fiber, conic) classes of that
    model's parabolic cap."""
    a, b1, rest = _sole_survivor(raw[CP2], n)
    b, cs = _sole_survivor(raw[S2XS2], n)
    units = (1,) * (4 - n)
    assert ((a, b1, rest), (b, cs)) == ((2, 0, units), (1, units))
    # f and 2s + f - e_1 - ... - e_{4-n}, whose sum is anticanonical
    product = _cap(*_pad(S2XS2, ((0, 1), (2, 1)), [((1,), 4 - n)]), ("F", "C"),
                   (0, n), {(0, 1): 2})
    models = (
        (CP2, a, b1, (b1,) + rest, parabolic_cap(n).components),
        (S2XS2, 2, b, cs, product.components),
    )
    solutions = []
    for model, a, b, coefficients, (fiber, conic) in models:
        solutions.append(ParabolicSolution(
            model=model,
            a=a,
            b=b,
            coefficients=coefficients,
            n_blowups=fiber.ambient.blowups,
            fiber_class=fiber,
            conic_class=conic,
            b2_filling=4 - n,
            b2_rank_consistent=5 - n,
        ))
    return solutions


# --- distinguished filling family ------------------------------------------


def family_configuration_divisors(n: int):
    """The two seven-sphere cycle configurations of the distinguished
    family, in a 9 + n fold blowup of the plane, sharing one dual graph:
    the census caps of the bundle of d_n = (3, 3, 4, 3) + (2,) * n + (3,),
    built by cycle_cap_from_path from c = (3, 3 + n, 3, 2, 3, 3), the
    orientation reversal of d_n.

    The chains (1, 1, 1, 3) and (1, 1, 2, 2) are the walk's
    lexicographically first chains to the endpoints (3, 1, 3, 1, 3, 1)
    and (2, 3, 1, 2, 3, 1), so both caps are members of
    hyperbolic_filling_census(d_n).configurations.  Such a chain depends
    on the endpoint only, not on n, because the walk's pruning never
    cuts a prefix of a chain to a dominated endpoint.

    The span of the first configuration has index three in its
    saturation, which is what divides its complement determinant by
    nine relative to the second; the n extra generic blowups, on the
    third sphere, must land on a sphere whose coefficient in the
    index-three relation vanishes, and among the -3 spheres only the
    third one both preserves the relation and yields the determinant
    profile 81n + 180 of the shared graph.
    """
    c = (3, 3 + n, 3, 2, 3, 3)
    return tuple(cycle_cap_from_path(c, chain) for chain in ((1, 1, 1, 3), (1, 1, 2, 2)))


def _span_invariants(amb: Ambient, rows):
    """lattice_invariants of the orthogonal complement T of the classes
    with coordinate tuples `rows` in `amb`, read off their saturated
    span S without building T; None when a hypothesis below fails.

    Merged columns.  Each set of m equal exceptional columns of the
    k x (N + 1) matrix M of the rows becomes one column of weight -m of
    the k x (1 + t) matrix M', t the number of distinct exceptional
    columns, and S is read off M' in the pairing
    x0 y0 - sum_j m_j x_j y_j.  This is exact.  Equal columns of M stay
    equal on its whole rational row space, so dropping the duplicate
    coordinates maps that space one-to-one onto the row space of M', and
    a vector of it is integral exactly when its image is (the dropped
    coordinates are copies of kept ones).  So the map takes S onto the
    saturated span S' of M', and it keeps the pairing: each kept
    coordinate stands for its m_j copies.  On the distinguished family,
    where N = 9 + n, t is 7 or 8 at every n.

    S' comes from one Smith form u * M' * v == d (its transforms
    re-checked as on every call).  Then u * M' == d * v^-1, so for
    i < r = rank M' row i of u * M' is d_i times row i of the unimodular
    v^-1, and the rows past r vanish.  Divided exactly by d_i, the first
    r rows are part of a basis of Z^(1 + t) spanning the rational row
    space of M': a basis of S', never a guessed one.  r <= min(k, 1 + t),
    where d ends.  Its r x r Gram (k x k when the classes are
    independent, as on every cap) goes through gram_invariants once.

    Three hypotheses are checked on every call, (2) on the unmerged
    columns:
    (1) amb blows up the plane, so the ambient lattice L is
    diag(1, -1, ..., -1): unimodular of signature (1, N);
    (2) the rows sum to the anticanonical class K = 3h - e_1 - ... - e_N;
    (3) det S != 0.

    Invariants from S.  By (3), L_Q = S_Q + T_Q, so T has rank N + 1 - r,
    is nondegenerate, has signature (1, N) minus that of S, and the sign
    of det T is (-1) to its negative index.  S is primitive, and so is T.
    Because L is unimodular, every functional on a primitive sublattice
    is the pairing with some x in L; so x -> (x . -)|S maps L onto S^*,
    and x lies in the preimage of S exactly when x - (its S part) lies
    in L cap T_Q = T, that is when x is in S + T.  Hence
    S^*/S = L/(S + T) = T^*/T (Nikulin, Integral symmetric bilinear
    forms, Math. USSR Izv. 14, 1980, 1.6).  |det| of a nondegenerate
    Gram is the order of that discriminant group, and its elementary
    divisors > 1 are the group's invariant factors, so both agree.

    Parity.  K is characteristic: x . x = x_0^2 - sum x_i^2 is congruent
    to x_0 + sum x_i, hence to 3 x_0 - sum x_i = x . K, mod 2.  By (2) K
    is a sum of rows, so K lies in S and pairs to zero with T: every
    x in T has even square, and T is even.

    Why (3) holds for every hyperbolic cycle cap.  The Gram of its k
    components is the intersection form Q of the cycle plumbing X whose
    boundary is the torus bundle Y.  With H_1(X) = Z, H_2(X, Y) = Z^k and
    H_1(X, Y) = 0, the exact sequence H_2(X) -Q-> H_2(X, Y) -> H_1(Y) ->
    H_1(X) -> 0 gives b1(Y) = 1 + nullity(Q).  A hyperbolic monodromy A
    has A - I invertible over Q, so b1(Y) = 1 and Q is nondegenerate:
    the k classes are independent (r = k) and det S = det Q / [S : span]^2
    is not zero.
    """
    columns = list(zip(*rows))
    if amb.model == CP2 and tuple(map(sum, columns)) == amb.anticanonical().coords:
        counts = Counter(columns[1:])
        merged = [columns[0], *counts]
        weights = (1, *(-m for m in counts.values()))
        d, u, _ = smith_normal_form(list(zip(*merged)))
        basis = []
        for i, coefs in enumerate(u[:len(merged)]):
            if not d[i][i]:
                break
            quotients = [divmod(sum(map(mul, coefs, col)), d[i][i]) for col in merged]
            assert not any(rem for _, rem in quotients), "saturation must divide exactly"
            basis.append(tuple(q for q, _ in quotients))
        span = gram_invariants([[sum(map(mul, weights, map(mul, x, y))) for y in basis]
                                for x in basis])
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


def complement_invariants(configuration: Divisor):
    """(radical rank, LatticeInvariants) of the orthogonal complement of
    a configuration's classes: the invariants are those of the
    nondegenerate quotient by the radical, as radical_and_quotient
    gives them.

    This is the one route from a class list to its complement
    invariants; the census and both distfill configurations take it.
    For an anticanonical configuration in a blown-up plane with a
    nondegenerate span, such as every hyperbolic cycle cap and both
    family configurations, the complement is nondegenerate and
    _span_invariants reads its invariants off the configuration side,
    never from a guessed basis.  Otherwise the complement is built once
    and goes through one radical_and_quotient."""
    amb = configuration.ambient
    rows = [c.coords for c in configuration.components]
    inv = _span_invariants(amb, rows)
    if inv is not None:
        return 0, inv
    return radical_and_quotient(orthogonal_complement(amb.gram(), rows))


def census_complement_invariants(census: CensusResult) -> frozenset:
    """The distinct complement_invariants of the census configurations."""
    return frozenset(map(complement_invariants, census.configurations))


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

    Both configurations of family_configuration_divisors, two census
    caps of the bundle of (3, 3, 4, 3) + (2,) * n + (3,), each certified
    by cycle_cap_from_path, go through complement_invariants, and no
    complement basis is built:
    _span_invariants takes the saturated span S of each class list from
    the Smith form of the 7 x (1 + t) class matrix whose t <= 8
    distinct exceptional columns stand for the 9 + n of the ambient,
    each weighted by its multiplicity (never from a guessed basis), and
    reads the complement's rank, signature, signed determinant and
    elementary divisors off the 7 x 7 Gram of S in that weighted
    pairing, its parity off the anticanonical total class: the ambient
    is unimodular, so S and its complement share their discriminant
    group.
    Were a hypothesis to fail, the fallback would be one
    radical_and_quotient of the built complement.  The radical rank is
    asserted to be 0 and the rank n + 3, and the determinants are
    compared against the closed formulas (-1)^(n+1) (9n + 20) and
    (-1)^(n+1) 9 (9n + 20); a mismatch is reported in matches_formula
    rather than asserted away.
    """
    if n < 0:
        raise DomainError("family parameter must be nonnegative")
    _within(limit, n, "family parameter %d")
    (radical1, inv1), (radical2, inv2) = map(complement_invariants,
                                             family_configuration_divisors(n))
    assert radical1 == radical2 == 0 and inv1.rank == inv2.rank == n + 3
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
    entries = _standard(d, "contact census")
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
    """Certify the structure of a valid rotation tuple r on the bundle
    of the standard string d virtually overtwisted.

    The tuple (r_1, ..., r_m) induces (r_1, ..., r_m, -r_1, ..., -r_m)
    on the doubled string; the universally tight structures there pair
    to epsilon * (d_j - 2) with one epsilon for all j.  The induced
    tuple matches such a pattern only if r_j = epsilon * (d_j - 2) =
    -r_j at every j, which forces every d_j = 2, and a standard string
    has some d_j >= 3.  So every valid tuple is virtually overtwisted,
    and INCONCLUSIVE is never returned; it stays a schema value.
    """
    entries = _standard(d, "obstruction")
    tup = tuple(r)
    if len(tup) != len(entries):
        raise DomainError("rotation tuple length %d does not match string length %d"
                          % (len(tup), len(entries)))
    for rj, dj in zip(tup, entries):
        if abs(rj) > dj - 2 or (rj - dj) % 2:
            raise DomainError("entry %d is not a rotation number for weight %d" % (rj, dj))
    return VIRTUALLY_OVERTWISTED
