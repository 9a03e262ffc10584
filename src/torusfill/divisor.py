"""Homology-class models of spherical divisors in rational surfaces.

An ambient is a blowup of the projective plane (basis h, e_1, ..., e_N,
pairing diag(1, -1, ..., -1)) or of the product of two spheres (basis
s, f, e_1, ..., e_N, hyperbolic pairing on s, f).  A divisor is a
cyclically ordered tuple of classes; its dual graph has the
self-pairings as vertex weights and the mutual pairings as edge
multiplicities.  All transforms return new values; the full coordinates
are the primary data and graphs are always derived from them.

Cap constructions start from two configurations of complex curves in
the plane: three lines in general position (a triangle of h classes)
and a line plus a conic (classes h and 2h).  Blowing up generic points
and nodes produces the cycle-shaped configurations whose boundaries are
the torus bundles of interest.  Every builder ends in one certificate,
_cap: the divisor is marked at component 0, its dual graph is asserted
to be exactly the advertised one, vertex weights and the whole edge
map, and its total class to be anticanonical.

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
the generic blowups in component order, so cycle_cap_from_path writes
every component once as a row of fixed width 1 + N0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    "divisor_from_dict",
    "divisor_to_json",
    "divisor_from_json",
]

CP2 = "CP2"
S2XS2 = "S2xS2"


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
        if self.model == CP2:
            g[0][0] = 1
            first_e = 1
        else:
            g[0][1] = g[1][0] = 1
            first_e = 2
        for i in range(first_e, n):
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
    # closed form of the Gram pairing on coordinate tuples: x0*y0 - sum
    # xi*yi on CP2 and x0*y1 + x1*y0 - sum xi*yi on S2xS2, the sums over
    # exceptional classes; both start from the full Euclidean sum
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
        # every component shares self.ambient (checked on construction),
        # so the coordinates pair directly, each unordered pair once
        model = self.ambient.model
        rows = [c.coords for c in self.components]
        q = [[0] * len(rows) for _ in rows]
        for i, x in enumerate(rows):
            for j in range(i, len(rows)):
                q[i][j] = q[j][i] = _pair(model, x, rows[j])
        return tuple(map(tuple, q))

    def total_class(self) -> HClass:
        columns = zip((0,) * self.ambient.rank, *(c.coords for c in self.components))
        return HClass(self.ambient, tuple(map(sum, columns)))


def dual_graph(div: Divisor):
    """(weights, edges): self-pairings in component order and the map
    {(i, j): pairing} over pairs with nonzero pairing, i < j."""
    q = div.intersection_matrix()
    n = len(q)
    weights = tuple(q[i][i] for i in range(n))
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if q[i][j]:
                edges[(i, j)] = q[i][j]
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


def realize_cap(kind: str, **params) -> Divisor:
    """Dispatch a cap construction by kind: 'elliptic-left',
    'elliptic-right' (epsilon=...), 'parabolic' (n=...),
    'hyperbolic-single' (c1=...), or 'hyperbolic-cycle' (d=...,
    optionally witness=...)."""
    if kind == "elliptic-left":
        return elliptic_cap(params["epsilon"], "left")
    if kind == "elliptic-right":
        return elliptic_cap(params["epsilon"], "right")
    if kind == "parabolic":
        return parabolic_cap(params["n"])
    if kind == "hyperbolic-single":
        return hyperbolic_single_cap(params["c1"])
    if kind == "hyperbolic-cycle":
        return hyperbolic_cycle_cap(params["d"], params.get("witness"))
    raise DomainError("unknown cap kind %r" % (kind,))


# --- serialization --------------------------------------------------------


def divisor_to_dict(div: Divisor) -> dict:
    return {
        "ambient": {"model": div.ambient.model, "blowups": div.ambient.blowups},
        "components": [
            {"label": label, "coords": list(c.coords)}
            for label, c in zip(div.labels, div.components)
        ],
        "marked": div.marked,
    }


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
