"""Homology-class models of spherical divisors in rational surfaces.

An ambient is a blowup of the projective plane (basis h, e_1, ..., e_N,
pairing diag(1, -1, ..., -1)) or of the product of two spheres (basis
s, f, e_1, ..., e_N, hyperbolic pairing on s, f).  A divisor is a
cyclically ordered tuple of classes; its dual graph has the
self-pairings as vertex weights and the mutual pairings as edge
multiplicities.  All transforms return new values; the full coordinates
are the primary data and graphs are always derived from them, by one
routine: Divisor.intersection_matrix sums M G M^T over the column
supports of the class matrix M, and dual_graph reads its weights and
edges off that matrix.  HClass.dot pairs two classes in closed form.

Cap constructions start from two configurations of complex curves in
the plane: three lines in general position (a triangle of h classes)
and a line plus a conic (classes h and 2h).  Blowing up generic points
and nodes produces the cycle-shaped configurations whose boundaries are
the torus bundles of interest.  Every builder ends in one certificate,
_cap: the divisor is marked at component 0, its dual graph is asserted
to be exactly the advertised one, vertex weights and the whole edge
map, and its total class to be anticanonical.  realize_cap dispatches
to the builders by cap kind; the cap verb of the CLI builds through it.

Blowups write each class once, in the grown ambient, through one
private writer, _pad: every component is padded with one coordinate
per new exceptional class, -1 where it passes through the blown-up
point (its proper transform) and 0 elsewhere.  blowup_generic and
blowup_node_total pad a divisor's rows; the elliptic, parabolic and
single hyperbolic caps pad their base degrees, (1, 1, 1) for the
lines and (1, 2) for the line and conic, in one call; fillings pads
the product-model parabolic pair the same way and certifies it with
_cap.  The cycle caps, those of the census (its hot path) and the two
of the distinguished family alike, skip the growing: the path of node
blowups fixes the ambient in advance, N0 = len(path) + sum(c_i - s_i)
exceptional classes for weights c and path endpoint s, with e_1, ...,
e_len(path) taken by the node blowups in chain order and the rest by
the generic blowups in component order, so _cycle_cap writes every
component once as a row of fixed width 1 + N0.  cycle_cap_from_path
checks a caller's path on the integer sequence and ends in _cycle_cap;
the census calls _cycle_cap itself, with the endpoint its walk already
holds, so no chain is replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from operator import mul

from .blowup import (
    DEFAULT_LIMIT,
    EmbeddingWitness,
    _blowup,
    dominates,
    embeddability_witness,
    path_to,
)
from .errors import DomainError, _ints
from .sl2z import Mat2, monodromy, orientation_reversal

__all__ = [
    "CP2",
    "S2XS2",
    "Ambient",
    "HClass",
    "Divisor",
    "pairing",
    "adjunction_genus",
    "blowup_generic",
    "blowup_node_total",
    "dual_graph",
    "cycle_monodromy",
    "is_anticanonical",
    "elliptic_cap",
    "parabolic_cap",
    "hyperbolic_single_cap",
    "hyperbolic_cycle_cap",
    "cycle_cap_from_path",
    "realize_cap",
    "divisor_to_dict",
    "divisor_to_indented_json",
    "divisor_from_dict",
    "divisor_to_json",
    "divisor_from_json",
]

CP2 = "CP2"
S2XS2 = "S2xS2"

# the entries of the ambient Gram matrix off the exceptional diagonal,
# each +1: (h, h) on the plane, (s, f) and (f, s) on the product; every
# exceptional class pairs to -1 with itself
_BASE_GRAM = {CP2: ((0, 0),), S2XS2: ((0, 1), (1, 0))}


@dataclass(frozen=True)
class Ambient:
    """A blowup of CP2 or of S2 x S2, carrying its intersection form."""

    model: str
    blowups: int

    def __post_init__(self):
        if self.model not in (CP2, S2XS2):
            raise DomainError("unknown ambient model %r" % (self.model,))
        (blowups,) = _ints((self.blowups,), "blowup count")
        object.__setattr__(self, "blowups", blowups)
        if blowups < 0:
            raise DomainError("blowup count must be nonnegative")

    @property
    def rank(self) -> int:
        return (1 if self.model == CP2 else 2) + self.blowups

    @property
    def labels(self):
        base = ("h",) if self.model == CP2 else ("s", "f")
        return base + tuple("e%d" % (i + 1) for i in range(self.blowups))

    def gram(self):
        n = self.rank
        g = [[0] * n for _ in range(n)]
        for a, b in _BASE_GRAM[self.model]:
            g[a][b] = 1
        for i in range(n - self.blowups, n):
            g[i][i] = -1
        return tuple(tuple(row) for row in g)

    def zero(self) -> "HClass":
        return HClass(self, (0,) * self.rank)

    def basis_class(self, label: str) -> "HClass":
        try:
            idx = self.labels.index(label)
        except ValueError:
            raise DomainError("no basis class %r in %s" % (label, self.labels)) from None
        return HClass(self, tuple(int(i == idx) for i in range(self.rank)))

    def h(self) -> "HClass":
        return self.basis_class("h")

    def s(self) -> "HClass":
        return self.basis_class("s")

    def f(self) -> "HClass":
        return self.basis_class("f")

    def e(self, i: int) -> "HClass":
        return self.basis_class("e%d" % i)

    def anticanonical(self) -> "HClass":
        """3h - sum(e_i), respectively 2s + 2f - sum(e_i): the class dual
        to the first Chern class of the ambient."""
        if self.model == CP2:
            coords = (3,) + (-1,) * self.blowups
        else:
            coords = (2, 2) + (-1,) * self.blowups
        return HClass(self, coords)


@dataclass(frozen=True)
class HClass:
    """An integer second-homology class in a fixed ambient basis."""

    ambient: Ambient
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.ambient.rank:
            raise DomainError(
                "coordinate length %d does not match ambient rank %d"
                % (len(self.coords), self.ambient.rank)
            )

    def __add__(self, other: "HClass") -> "HClass":
        _same_ambient(self, other)
        return HClass(self.ambient, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "HClass") -> "HClass":
        _same_ambient(self, other)
        return HClass(self.ambient, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "HClass":
        return HClass(self.ambient, tuple(-x for x in self.coords))

    def __mul__(self, scale: int) -> "HClass":
        if not isinstance(scale, int):
            raise DomainError("classes scale by integers only")
        return HClass(self.ambient, tuple(scale * x for x in self.coords))

    __rmul__ = __mul__

    def dot(self, other: "HClass") -> int:
        _same_ambient(self, other)
        return _pair(self.ambient.model, self.coords, other.coords)

    def __str__(self):
        terms = []
        for c, label in zip(self.coords, self.ambient.labels):
            if c == 0:
                continue
            if c == 1:
                terms.append("+" + label)
            elif c == -1:
                terms.append("-" + label)
            else:
                terms.append("%+d%s" % (c, label))
        return "".join(terms).lstrip("+") or "0"


def _pair(model: str, x, y) -> int:
    # closed form of the Gram pairing (_BASE_GRAM and -1 on the
    # exceptional diagonal) on coordinate tuples: x0*y0 - sum xi*yi on
    # CP2 and x0*y1 + x1*y0 - sum xi*yi on S2xS2, the sums over
    # exceptional classes; both start from the full Euclidean sum.  It
    # restates the form on purpose, as one pass per pair, for
    # HClass.dot; the tests hold the matrix of dot pairings equal to
    # Divisor.intersection_matrix, which reads _BASE_GRAM
    euclid = sum(map(mul, x, y))
    if model == CP2:
        return 2 * x[0] * y[0] - euclid
    return (x[0] + x[1]) * (y[0] + y[1]) - euclid


def _same_ambient(x: HClass, y: HClass):
    if x.ambient != y.ambient:
        raise DomainError("classes live in different ambients: %s vs %s" % (x.ambient, y.ambient))


def pairing(x: HClass, y: HClass) -> int:
    """Intersection pairing of two classes of a common ambient."""
    return x.dot(y)


def adjunction_genus(c: HClass) -> int:
    """Genus of a smooth representative: (c.c - antican.c + 2) / 2."""
    k = c.ambient.anticanonical()
    num = c.dot(c) - k.dot(c) + 2
    if num % 2:
        raise DomainError("adjunction genus of %s is not an integer" % (c,))
    return num // 2


@dataclass(frozen=True)
class Divisor:
    """A cyclically ordered configuration of sphere classes; component 0
    is the distinguished one when marked is 0 (the usual +1 sphere).
    Labels are strings and marked is None or a component index, so
    every Divisor is one that divisor_from_dict reads back."""

    ambient: Ambient
    components: tuple
    labels: tuple
    marked: int | None = None

    def __post_init__(self):
        # stored as tuples, so a divisor hashes and equals its dict round
        # trip; tuple() of a tuple is that same tuple
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.components) != len(self.labels):
            raise DomainError("component and label counts differ")
        for c in self.components:
            if c.ambient != self.ambient:
                raise DomainError("component ambient mismatch")
        for label in self.labels:
            if not isinstance(label, str):
                raise DomainError("component label must be a string, got %r" % (label,))
        if self.marked is not None:
            (marked,) = _ints((self.marked,), "marked component")
            if not 0 <= marked < len(self.labels):
                raise DomainError("marked component %d out of range 0..%d"
                                  % (marked, len(self.labels) - 1))
            object.__setattr__(self, "marked", marked)

    def __len__(self):
        return len(self.components)

    def intersection_matrix(self):
        """The pairing matrix M G M^T of the class matrix M (one row per
        component) and the ambient Gram G, summed over the nonzero
        entries of G: a signed outer product of the supports of the
        columns each entry joins.  Those are the +1 entries of
        _BASE_GRAM ((h, h) on the plane, (s, f) and (f, s) on the
        product) and -1 at each exceptional (e, e), for both models
        alike.  A column of a cycle cap has at most three nonzero rows,
        so the work follows the nonzero entries of M, not k^2 pairs of
        rows.  Every component shares self.ambient (checked on
        construction), so the rows pair directly."""
        rows = [c.coords for c in self.components]
        q = [[0] * len(rows) for _ in rows]
        # support[j]: the (row, entry) pairs of the nonzero entries of column j
        columns = range(self.ambient.rank)
        support = [[] for _ in columns]
        for i, row in enumerate(rows):
            for j in compress(columns, row):
                support[j].append((i, row[j]))
        for a, b in _BASE_GRAM[self.ambient.model]:
            for i, x in support[a]:
                qi = q[i]
                for j, y in support[b]:
                    qi[j] += x * y
        for col in support[self.ambient.rank - self.ambient.blowups:]:
            for i, x in col:
                qi = q[i]
                for j, y in col:
                    qi[j] -= x * y
        return tuple(map(tuple, q))

    def total_class(self) -> HClass:
        columns = zip((0,) * self.ambient.rank, *(c.coords for c in self.components))
        return HClass(self.ambient, tuple(map(sum, columns)))


def dual_graph(div: Divisor):
    """(weights, edges): self-pairings in component order and the map
    {(i, j): pairing} over pairs with nonzero pairing, i < j, both read
    off div.intersection_matrix()."""
    q = div.intersection_matrix()
    weights = tuple(qi[i] for i, qi in enumerate(q))
    edges = {(i, j): qi[j] for i, qi in enumerate(q) for j in range(i + 1, len(q)) if qi[j]}
    return weights, edges


def is_anticanonical(div: Divisor) -> bool:
    """True iff the component classes sum to the anticanonical class."""
    return div.total_class() == div.ambient.anticanonical()


def _pad(model: str, rows, points):
    """The ambient of `model` grown by `points`, and `rows` (coordinate
    tuples in the ungrown ambient) padded into it, as a tuple of
    classes.  Each (components, count) entry of `points` appends
    `count` exceptional classes, in order, each with -1 in the rows
    listed in `components` and 0 in the others."""
    for components, count in points:
        rows = [row + (-1 if k in components else 0,) * count for k, row in enumerate(rows)]
    amb = Ambient(model, len(rows[0]) - Ambient(model, 0).rank)
    return amb, tuple(HClass(amb, row) for row in rows)


def blowup_generic(div: Divisor, index: int, times: int = 1) -> Divisor:
    """Blow up `times` generic points of one component and take proper
    transforms: the component loses the new exceptional classes, all
    other classes are unchanged."""
    index, times = _ints((index, times), "generic blowup arguments")
    if times < 1:
        raise DomainError("generic blowup needs times >= 1, got %d" % times)
    if not 0 <= index < len(div):
        raise DomainError("component index %d out of range" % index)
    return Divisor(*_pad(div.ambient.model, [c.coords for c in div.components],
                         [((index,), times)]), div.labels, div.marked)


def blowup_node_total(div: Divisor, i: int, j: int) -> Divisor:
    """Blow up a node between cyclically adjacent components i and j and
    take the total transform: both classes lose the new exceptional
    class e, and e is inserted between them as a new component."""
    i, j = _ints((i, j), "component indices")
    n = len(div)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError("component index out of range")
    if j != (i + 1) % n:
        raise DomainError("components %d and %d are not cyclically consecutive" % (i, j))
    if i == j:
        raise DomainError("a node blowup needs two distinct components, got one")
    if div.components[i].dot(div.components[j]) < 1:
        raise DomainError("components %d and %d have no node to blow up" % (i, j))
    amb, comps = _pad(div.ambient.model, [c.coords for c in div.components], [((i, j), 1)])
    e = HClass(amb, (0,) * (amb.rank - 1) + (1,))
    labels = list(div.labels)
    insert_at = i + 1 if j == i + 1 else n
    comps = comps[:insert_at] + (e,) + comps[insert_at:]
    labels.insert(insert_at, "E%d" % amb.blowups)
    marked = div.marked
    if marked is not None and insert_at <= marked:
        marked += 1
    result = Divisor(amb, comps, tuple(labels), marked)
    assert result.components[i if insert_at > i else i + 1].dot(e) == 1
    return result


def _cap(amb: Ambient, classes, labels, weights, edges) -> Divisor:
    """The certificate every cap builder ends in: the divisor of
    `classes` in `amb`, marked at component 0, asserted to have exactly
    the dual graph (weights, edges), edge map included, and the
    anticanonical total class."""
    div = Divisor(amb, classes, labels, 0)
    got = dual_graph(div)
    assert got == (weights, edges), "cap produced %s, wanted %s" % (got, (weights, edges))
    assert is_anticanonical(div)
    return div


def cycle_monodromy(weights, edge_sign_product: int) -> Mat2:
    """Boundary monodromy of a cycle plumbing with the given vertex
    weights, up to the sign of the product of its edge signs.

    The cycle is traversed from the first vertex against list order,
    the convention under which a triangle with weights (e-1, 1, 0)
    composes to the string (1-e, 0, -1) on the nose.  Boundary data
    depends only on the edge-sign product, not the individual signs.
    """
    w = _ints(weights, "weights")
    if len(w) < 2:
        raise DomainError("cycle needs at least two weights")
    if edge_sign_product not in (1, -1):
        raise DomainError("edge sign product must be +1 or -1")
    string = (-w[0],) + tuple(-x for x in reversed(w[1:]))
    mat = monodromy(string)
    return mat if edge_sign_product == 1 else -mat


# --- cap constructions ----------------------------------------------------


def elliptic_cap(epsilon: int, side: str) -> Divisor:
    """Cap for an elliptic bundle.

    side "left": proper transform of three generic lines, one generic
    point blown up on the second and 2 - epsilon on the third; dual
    graph is the triangle (+1, 0, epsilon - 1).  side "right": line and
    conic with 2 generic points on the line and 6 - epsilon on the
    conic; dual graph is the double edge (-1, epsilon - 2).
    """
    (epsilon,) = _ints((epsilon,), "epsilon")
    if epsilon not in (-1, 0, 1):
        raise DomainError("epsilon must be one of -1, 0, 1, got %r" % (epsilon,))
    if side == "left":
        return _cap(*_pad(CP2, ((1,), (1,), (1,)), [((1,), 1), ((2,), 2 - epsilon)]),
                    ("L1", "L2", "L3"), (1, 0, epsilon - 1),
                    {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    if side == "right":
        return _cap(*_pad(CP2, ((1,), (2,)), [((0,), 2), ((1,), 6 - epsilon)]),
                    ("L", "C"), (-1, epsilon - 2), {(0, 1): 2})
    raise DomainError("side must be 'left' or 'right', got %r" % (side,))


def parabolic_cap(n: int) -> Divisor:
    """Cap for the parabolic bundle family: line and conic with one
    generic point on the line and 4 - n on the conic; dual graph is the
    double edge (0, n).  Defined for n <= 4 only."""
    (n,) = _ints((n,), "parabolic parameter")
    if n > 4:
        raise DomainError(
            "no cap for n > 4: the configuration does not embed in any "
            "closed model (n = %d)" % n
        )
    return _cap(*_pad(CP2, ((1,), (2,)), [((0,), 1), ((1,), 4 - n)]), ("L", "C"),
                (0, n), {(0, 1): 2})


def hyperbolic_single_cap(c1: int) -> Divisor:
    """Cap for the hyperbolic family with a length-one weight string:
    line and conic with c1 + 2 generic points on the conic; dual graph
    is the double edge (+1, 2 - c1).  Requires c1 >= 3."""
    (c1,) = _ints((c1,), "single-vertex weight")
    if c1 < 3:
        raise DomainError("single-vertex weight must be >= 3, got %d" % c1)
    return _cap(*_pad(CP2, ((1,), (2,)), [((1,), c1 + 2)]), ("L", "C"),
                (1, 2 - c1), {(0, 1): 2})


def cycle_cap_from_path(weights, path) -> Divisor:
    """Build the cycle cap for a weight string c = (c_1, ..., c_l) from
    an explicit chain of node blowups.

    Starting from the triangle of lines with the first line marked, the
    moves of `path` (positions in the associated integer sequence) are
    node blowups away from the marked line; each remaining component i
    is then blown up generically c_i - s_i times, where s is the
    endpoint of the path.  The result is a cycle with weights
    (+1, 1 - c_1, -c_2, ..., -c_{l-1}, 1 - c_l).

    The move rule: each move m satisfies 1 <= m < len(s) for the
    sequence s reached so far, so it names a node of two components
    after the marked line; any other move is refused with "component
    index out of range".  The path is checked on the integer sequence
    first, so the ambient is known before any class is built: the
    blown-up plane with N0 = len(path) + sum(c_i - s_i) exceptional
    classes.  The k-th node blowup, at position m, takes e_k: it
    subtracts e_k from components m and m + 1 and inserts the class e_k
    (labelled E<k>) between them.  The generic blowups then take
    e_{len(path)+1}, ..., e_N0 in component order.  Each component is
    written once, as a row of 1 + N0 coordinates.
    """
    c = _ints(weights, "weights")
    if len(c) < 2:
        raise DomainError("cycle cap needs a weight string of length >= 2")
    path = _ints(path, "path moves")
    s = (0, 0)
    for move in path:
        # a move blows up the node of components move and move + 1 of
        # the len(s) + 1 (the marked line, then one per entry of s)
        if not 1 <= move < len(s):
            raise DomainError("component index out of range")
        s = _blowup(s, move)
    if not dominates(s, c):
        raise DomainError("sequence %s is not dominated by weights %s" % (s, c))
    return _cycle_cap(c, path, s)


def _cycle_cap(c, path, s) -> Divisor:
    """The cycle cap of cycle_cap_from_path for weights c, a valid chain
    `path` and its endpoint s, none of them checked here: the census
    passes the endpoints of its walk, cycle_cap_from_path a path it has
    replayed.  _cap certifies the weights (+1, 1 - c_1, -c_2, ...,
    1 - c_l), which fix every c_i - s_i, and the whole edge map."""
    n_blowups = len(path) + sum(c) - sum(s)
    rows = [[1] + [0] * n_blowups for _ in range(3)]
    labels = ["L1", "L2", "L3"]
    for k, move in enumerate(path, 1):
        rows[move][k] -= 1
        rows[move + 1][k] -= 1
        unit = [0] * (n_blowups + 1)
        unit[k] = 1
        rows.insert(move + 1, unit)
        labels.insert(move + 1, "E%d" % k)
    first = len(path) + 1
    for row, ci, si in zip(rows[1:], c, s):
        row[first:first + ci - si] = [-1] * (ci - si)
        first += ci - si
    amb = Ambient(CP2, n_blowups)
    ell = len(c)
    return _cap(amb, tuple(HClass(amb, tuple(row)) for row in rows), tuple(labels),
                (1, 1 - c[0]) + tuple(-x for x in c[1:-1]) + (1 - c[-1],),
                dict.fromkeys([(k, k + 1) for k in range(ell)] + [(0, ell)], 1))


def hyperbolic_cycle_cap(d, witness: EmbeddingWitness | None = None,
                         limit: int = DEFAULT_LIMIT) -> Divisor:
    """Cap for an embeddable standard string d: realize the cycle with
    weights (+1, 1 - c_1, ..., 1 - c_l) for c the orientation reversal
    of d, replaying the witness blowup sequence node by node.

    A witness may be passed explicitly (for example a specific sequence
    found elsewhere); otherwise the deterministic first witness is used.
    Its target must be a rotation of the reversal; its sequence is
    checked by path_to, which refuses a non-blowup, and by
    cycle_cap_from_path, which refuses one of the wrong length or not
    dominated by the target.
    """
    if witness is None:
        witness = embeddability_witness(d, limit)
        if witness is None:
            raise DomainError("string %s is not embeddable" % (tuple(d),))
    else:
        c = orientation_reversal(d)
        if not any(c[k:] + c[:k] == witness.target for k in range(len(c))):
            raise DomainError("witness target is not a rotation of the reversal")
    return cycle_cap_from_path(witness.target, path_to(witness.sequence))


# the parameter each cap kind of realize_cap reads
_CAP_PARAMETER = {"elliptic-left": "epsilon", "elliptic-right": "epsilon", "parabolic": "n",
                  "hyperbolic-single": "c1", "hyperbolic-cycle": "d"}


def realize_cap(kind: str, **params) -> Divisor:
    """Dispatch a cap construction by kind: 'elliptic-left',
    'elliptic-right' (epsilon=...), 'parabolic' (n=...),
    'hyperbolic-single' (c1=...), or 'hyperbolic-cycle' (d=...,
    optionally witness=... and limit=..., the witness search budget of
    hyperbolic_cycle_cap, DEFAULT_LIMIT by default).  An unknown kind,
    or a kind without its parameter, raises DomainError naming it before
    any builder runs; other parameters are ignored."""
    if not isinstance(kind, str) or kind not in _CAP_PARAMETER:
        raise DomainError("unknown cap kind %r" % (kind,))
    name = _CAP_PARAMETER[kind]
    if name not in params:
        raise DomainError("cap kind %r needs the parameter %r" % (kind, name))
    value = params[name]
    if kind == "hyperbolic-cycle":
        return hyperbolic_cycle_cap(value, params.get("witness"),
                                    params.get("limit", DEFAULT_LIMIT))
    if kind == "parabolic":
        return parabolic_cap(value)
    if kind == "hyperbolic-single":
        return hyperbolic_single_cap(value)
    return elliptic_cap(value, kind.removeprefix("elliptic-"))


# --- serialization --------------------------------------------------------


def divisor_to_dict(div: Divisor) -> dict:
    """The divisor document.  divisor_to_indented_json writes the same
    document as text and must change with it.  Coordinates that are not
    integers raise DomainError, as divisor_from_dict refuses them; int
    and bool entries are written as they are."""
    components = []
    for label, c in zip(div.labels, div.components):
        _ints(c.coords, "coordinates")
        components.append({"label": label, "coords": list(c.coords)})
    return {
        "ambient": {"model": div.ambient.model, "blowups": div.ambient.blowups},
        "components": components,
        "marked": div.marked,
    }


def divisor_to_indented_json(div: Divisor, newline: str = "\n") -> str:
    """json.dumps(divisor_to_dict(div), indent=2, sort_keys=True), byte
    for byte, with every line break written as newline, so a report
    writer sets the document at its depth by passing that depth's
    newline-plus-indent.  It is written field by field with no dict
    built, in divisor_to_dict's keys in sorted order (ambient,
    components, marked; blowups before model; coords before label).
    Blowups and marked are ints or None (Ambient and Divisor convert
    them); coordinates that are not all ints are checked as
    divisor_to_dict checks them and go to json.dumps."""
    nl = [newline + "  " * k for k in range(5)]
    escape = json.encoder.encode_basestring_ascii
    comps = []
    for label, c in zip(div.labels, div.components):
        coords = c.coords
        if {*map(type, coords)} == {int}:
            coords = "[" + nl[4] + ("," + nl[4]).join(map(int.__repr__, coords)) + nl[3] + "]"
        else:
            _ints(coords, "coordinates")
            coords = json.dumps(list(coords), indent=2, sort_keys=True).replace("\n", nl[3])
        comps.append("{" + nl[3] + '"coords": ' + coords + "," + nl[3]
                     + '"label": ' + escape(label) + nl[2] + "}")
    marked = "null" if div.marked is None else int.__repr__(div.marked)
    return ("{" + nl[1] + '"ambient": {' + nl[2] + '"blowups": '
            + int.__repr__(div.ambient.blowups) + "," + nl[2] + '"model": '
            + escape(div.ambient.model) + nl[1] + "}," + nl[1] + '"components": '
            + ("[" + nl[2] + ("," + nl[2]).join(comps) + nl[1] + "]" if comps else "[]")
            + "," + nl[1] + '"marked": ' + marked + nl[0] + "}")


def _field(data, key, types, where):
    # data[key] of a divisor document, refused with DomainError when data
    # is not an object, the key is missing or the value is not of types
    if not isinstance(data, dict):
        raise DomainError("%s must be an object, got %r" % (where, data))
    if key not in data:
        raise DomainError("%s has no %r field" % (where, key))
    value = data[key]
    if not isinstance(value, types):
        raise DomainError("%s field %r has the wrong type: %r" % (where, key, value))
    return value


def divisor_from_dict(data: dict) -> Divisor:
    """The Divisor of a divisor_to_dict document.  A missing or ill-typed
    field raises DomainError naming it, as do non-integer entries."""
    ambient = _field(data, "ambient", dict, "divisor")
    # Ambient checks the model and the blowup count itself
    amb = Ambient(_field(ambient, "model", object, "ambient"),
                  _field(ambient, "blowups", object, "ambient"))
    entries = _field(data, "components", (list, tuple), "divisor")
    comps = tuple(HClass(amb, _ints(_field(c, "coords", (list, tuple), "component"),
                                    "coordinates"))
                  for c in entries)
    labels = tuple(_field(c, "label", str, "component") for c in entries)
    # Divisor checks marked itself
    return Divisor(amb, comps, labels, data.get("marked"))


def divisor_to_json(div: Divisor) -> str:
    return json.dumps(divisor_to_dict(div), sort_keys=True)


def divisor_from_json(text: str) -> Divisor:
    return divisor_from_dict(json.loads(text))
