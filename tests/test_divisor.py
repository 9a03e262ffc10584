import json
import random
import re
from unittest.mock import Mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fillings import _oracle_targets
from torusfill import divisor
from torusfill.blowup import EmbeddingWitness, blowup_at, dominated_blowups, dominates
from torusfill.divisor import (
    CP2,
    S2XS2,
    Ambient,
    Divisor,
    HClass,
    adjunction_genus,
    blowup_generic,
    blowup_node_total,
    cycle_cap_from_path,
    cycle_monodromy,
    divisor_from_dict,
    divisor_from_json,
    divisor_to_dict,
    divisor_to_indented_json,
    divisor_to_json,
    dual_graph,
    elliptic_cap,
    hyperbolic_cycle_cap,
    hyperbolic_single_cap,
    is_anticanonical,
    pairing,
    parabolic_cap,
    realize_cap,
)
from torusfill.errors import DomainError, ResourceLimitError
from torusfill.fillings import (
    _canonical_configuration,
    family_configuration_divisors,
    parabolic_solutions,
)
from torusfill.sl2z import hyperbolic_standard_form, monodromy, orientation_reversal


def coords(div):
    return [str(c) for c in div.components]


class TestPairing:
    def test_hyperplane(self):
        a = Ambient(CP2, 0)
        assert pairing(a.h(), a.h()) == 1

    def test_mixed(self):
        a = Ambient(CP2, 2)
        x = a.h() - a.e(1)
        y = a.h() + a.h() - a.e(2)
        assert pairing(x, y) == 2

    def test_product_model(self):
        b = Ambient(S2XS2, 0)
        assert pairing(b.f(), b.s() + b.s() + b.f()) == 2

    def test_ambient_mismatch(self):
        with pytest.raises(DomainError):
            pairing(Ambient(CP2, 1).h(), Ambient(CP2, 2).h())


@st.composite
def class_pairs(draw):
    amb = Ambient(draw(st.sampled_from((CP2, S2XS2))), draw(st.integers(0, 10)))
    coords = st.lists(st.integers(-40, 40), min_size=amb.rank, max_size=amb.rank).map(tuple)
    return HClass(amb, draw(coords)), HClass(amb, draw(coords))


@given(class_pairs())
@settings(max_examples=300, deadline=None)
def test_dot_matches_gram_sum(pair):
    x, y = pair
    g = x.ambient.gram()
    n = x.ambient.rank
    assert x.dot(y) == sum(x.coords[i] * g[i][j] * y.coords[j] for i in range(n) for j in range(n))


class TestAdjunction:
    def test_line(self):
        assert adjunction_genus(Ambient(CP2, 0).h()) == 0

    def test_blown_conic(self):
        a = Ambient(CP2, 5)
        c = a.h() + a.h()
        for i in (2, 3, 4, 5):
            c = c - a.e(i)
        assert adjunction_genus(c) == 0

    def test_cubic(self):
        a = Ambient(CP2, 9)
        assert adjunction_genus(a.anticanonical()) == 1

    def test_product_conic(self):
        b = Ambient(S2XS2, 0)
        assert adjunction_genus(b.s() + b.s() + b.f()) == 0


class TestBlowups:
    def test_generic_on_triangle(self):
        a = Ambient(CP2, 0)
        h = a.h()
        tri = Divisor(a, (h, h, h), ("L1", "L2", "L3"), marked=0)
        out = blowup_generic(tri, 1, 1)
        assert coords(out) == ["h", "h-e1", "h"]
        assert out.ambient == Ambient(CP2, 1)

    def test_generic_on_conic(self):
        a = Ambient(CP2, 0)
        lc = Divisor(a, (a.h(), a.h() + a.h()), ("L", "C"), marked=0)
        out = blowup_generic(lc, 1, 6)
        weights, _ = dual_graph(out)
        assert weights == (1, -2)

    def test_zero_times_rejected(self):
        a = Ambient(CP2, 0)
        tri = Divisor(a, (a.h(),) * 3, ("a", "b", "c"))
        with pytest.raises(DomainError):
            blowup_generic(tri, 0, 0)

    def test_node_chain(self):
        # total transforms along a chain of node blowups, checked class
        # by class
        a = Ambient(CP2, 0)
        h = a.h()
        div = Divisor(a, (h, h, h), ("L", "X1", "X2"), marked=0)
        div = blowup_node_total(div, 1, 2)
        assert coords(div) == ["h", "h-e1", "e1", "h-e1"]
        weights, _ = dual_graph(div)
        assert weights == (1, 0, -1, 0)

        div = blowup_node_total(div, 1, 2)
        assert coords(div) == ["h", "h-e1-e2", "e2", "e1-e2", "h-e1"]
        assert dual_graph(div)[0] == (1, -1, -1, -2, 0)

        div = blowup_node_total(div, 2, 3)
        assert coords(div) == ["h", "h-e1-e2", "e2-e3", "e3", "e1-e2-e3", "h-e1"]
        assert dual_graph(div)[0] == (1, -1, -2, -1, -3, 0)

    def test_node_requires_adjacency(self):
        a = Ambient(CP2, 1)
        h, e1 = a.h(), a.e(1)
        div = Divisor(a, (h, h - e1, e1, h - e1), ("L", "X1", "E", "X2"), marked=0)
        with pytest.raises(DomainError):
            blowup_node_total(div, 0, 2)

    def test_node_requires_positive_pairing(self):
        a = Ambient(CP2, 2)
        div = Divisor(a, (a.e(1), a.e(2)), ("A", "B"))
        with pytest.raises(DomainError):
            blowup_node_total(div, 0, 1)

    def test_node_refused_on_one_component(self, monkeypatch):
        # a nodal cubic is its own cyclic neighbour and pairs 9 with itself
        a = Ambient(CP2, 0)
        div = Divisor(a, (HClass(a, (3,)),), ("C",))
        pad = Mock(wraps=divisor._pad)
        monkeypatch.setattr(divisor, "_pad", pad)
        with pytest.raises(DomainError, match="needs two distinct components"):
            blowup_node_total(div, 0, 0)
        assert pad.call_count == 0

    def test_blowups_preserve_untouched_pairings(self):
        cap = hyperbolic_cycle_cap((5,))
        before = cap.intersection_matrix()
        out = blowup_node_total(cap, 2, 3)
        after = out.intersection_matrix()
        assert after[0][1] == before[0][1]
        assert after[1][0] == before[1][0]
        assert after[0][0] == before[0][0]


class TestDualGraph:
    def test_triangle(self):
        a = Ambient(CP2, 0)
        tri = Divisor(a, (a.h(),) * 3, ("a", "b", "c"))
        weights, edges = dual_graph(tri)
        assert weights == (1, 1, 1)
        assert edges == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_line_conic(self):
        a = Ambient(CP2, 0)
        lc = Divisor(a, (a.h(), a.h() + a.h()), ("L", "C"))
        weights, edges = dual_graph(lc)
        assert weights == (1, 4) and edges == {(0, 1): 2}

    def test_parabolic_cap_graph(self):
        weights, edges = dual_graph(parabolic_cap(4))
        assert weights == (0, 4) and edges == {(0, 1): 2}


class TestCaps:
    @pytest.mark.parametrize("eps", [-1, 0, 1])
    def test_elliptic_left(self, eps):
        cap = elliptic_cap(eps, "left")
        assert dual_graph(cap)[0] == (1, 0, eps - 1)
        assert cap.ambient == Ambient(CP2, 3 - eps)
        assert is_anticanonical(cap)

    def test_elliptic_left_classes(self):
        cap = elliptic_cap(1, "left")
        assert coords(cap) == ["h", "h-e1", "h-e2"]

    @pytest.mark.parametrize("eps", [-1, 0, 1])
    def test_elliptic_right(self, eps):
        cap = elliptic_cap(eps, "right")
        assert dual_graph(cap)[0] == (-1, eps - 2)
        assert cap.ambient == Ambient(CP2, 8 - eps)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_parabolic(self, n):
        cap = parabolic_cap(n)
        assert dual_graph(cap)[0] == (0, n)
        assert cap.ambient == Ambient(CP2, 5 - n)
        assert is_anticanonical(cap)

    def test_parabolic_classes(self):
        cap = parabolic_cap(4)
        assert coords(cap) == ["h-e1", "2h"]

    def test_parabolic_rejects_large(self):
        with pytest.raises(DomainError):
            parabolic_cap(5)

    @pytest.mark.parametrize("c1", [3, 4, 5, 6, 7, 8])
    def test_single(self, c1):
        cap = hyperbolic_single_cap(c1)
        assert dual_graph(cap)[0] == (1, 2 - c1)
        assert cap.ambient == Ambient(CP2, c1 + 2)

    def test_single_rejects_small(self):
        with pytest.raises(DomainError):
            hyperbolic_single_cap(2)

    def test_cycle_cap_for_five(self):
        cap = hyperbolic_cycle_cap((5,))
        assert coords(cap) == ["h", "h-e1-e2-e3", "e1-e4", "h-e1-e5"]
        assert dual_graph(cap)[0] == (1, -2, -2, -1)
        assert cap.ambient == Ambient(CP2, 5)

    def test_cycle_cap_rejects_non_embeddable(self):
        with pytest.raises(DomainError):
            hyperbolic_cycle_cap((3,))

    def test_cycle_cap_rejects_bad_witness(self):
        bad = EmbeddingWitness((2, 2, 2), (3, 2, 2), 0)
        with pytest.raises(DomainError):
            hyperbolic_cycle_cap((5,), witness=bad)

    def test_cycle_cap_target_weights(self):
        for d in [(5,), (3, 3, 4, 3, 3), (4, 4)]:
            cap = hyperbolic_cycle_cap(d)
            c = orientation_reversal(d)
            weights, edges = dual_graph(cap)
            k = None
            for rot in range(len(c)):
                rotated = c[rot:] + c[:rot]
                target = (1,) + tuple(
                    1 - rotated[i] if i in (0, len(c) - 1) else -rotated[i]
                    for i in range(len(c))
                )
                if weights == target:
                    k = rot
                    break
            assert k is not None
            assert all(v == 1 for v in edges.values())

    def test_realize_cap_dispatcher(self):
        assert realize_cap("parabolic", n=4) == parabolic_cap(4)
        assert realize_cap("elliptic-left", epsilon=0) == elliptic_cap(0, "left")
        for kind in ("unknown", ["parabolic"]):
            with pytest.raises(DomainError, match="^unknown cap kind "):
                realize_cap(kind, n=4)

    @pytest.mark.parametrize("kind, name", [
        ("elliptic-left", "epsilon"),
        ("elliptic-right", "epsilon"),
        ("parabolic", "n"),
        ("hyperbolic-single", "c1"),
        ("hyperbolic-cycle", "d"),
    ])
    def test_realize_cap_names_a_missing_parameter(self, kind, name, monkeypatch):
        # refused before any builder runs, whatever else is passed
        for builder in ("elliptic_cap", "parabolic_cap", "hyperbolic_single_cap",
                        "hyperbolic_cycle_cap"):
            monkeypatch.setattr(divisor, builder, Mock(side_effect=AssertionError(builder)))
        message = "^%s$" % re.escape("cap kind %r needs the parameter %r" % (kind, name))
        for params in ({}, {"limit": 3, "witness": None, "m": 1}):
            with pytest.raises(DomainError, match=message):
                realize_cap(kind, **params)

    @pytest.mark.parametrize("d", [(5,), (3, 3, 4, 3, 3), (4, 4), (2, 3, 3), (3,), (6, 2, 2)])
    def test_realize_cap_forwards_the_limit(self, d):
        # a limit on each side of the reversal length, and the default
        length = len(orientation_reversal(d))
        for limit in (length - 1, length, length + 1, None):
            kwargs = {} if limit is None else {"limit": limit}
            outcomes = []
            for build in (lambda: realize_cap("hyperbolic-cycle", d=d, **kwargs),
                          lambda: hyperbolic_cycle_cap(d, **kwargs)):
                try:
                    outcomes.append(build())
                except (DomainError, ResourceLimitError) as exc:
                    outcomes.append("%s: %s" % (type(exc).__name__, exc))
            assert outcomes[0] == outcomes[1], (d, limit)


class TestCycleMonodromy:
    @pytest.mark.parametrize("eps", [-1, 0, 1])
    def test_triangle_weights_compose_exactly(self, eps):
        got = cycle_monodromy((eps - 1, 1, 0), 1)
        assert got == monodromy((1 - eps, 0, -1)) == -monodromy((-eps,))

    def test_negative_chain_reads_off_rotated_string(self):
        # weights listed from the last string entry, one negative edge
        for d in [(3, 2, 2), (2, 3, 4)]:
            weights = tuple(-x for x in reversed(d))
            got = cycle_monodromy(weights, -1)
            assert got.trace == (-monodromy(d)).trace
            assert hyperbolic_standard_form(got) == hyperbolic_standard_form(-monodromy(d))

    def test_doubled_string_all_plus(self):
        for d in [(2, 3), (3, 2)]:
            dd = d + d
            weights = tuple(-x for x in dd)
            got = cycle_monodromy(weights, 1)
            assert got == monodromy(dd)

    def test_parabolic_and_double_edge_weights(self):
        assert cycle_monodromy((0, 4), 1) == monodromy((0, -4))
        assert cycle_monodromy((-1, -2), 1) == monodromy((1, 2))

    def test_realized_cap_boundary_trace(self):
        for d in [(5,), (3, 3, 4, 3, 3), (2, 3, 3)]:
            cap = hyperbolic_cycle_cap(d)
            weights, _ = dual_graph(cap)
            got = cycle_monodromy(weights, 1)
            assert got.trace == (-monodromy(orientation_reversal(d))).trace


class TestAnticanonical:
    def test_parabolic_sum(self):
        assert is_anticanonical(parabolic_cap(4))

    def test_elliptic_right_sum(self):
        assert is_anticanonical(elliptic_cap(0, "right"))

    def test_transforms_preserve_it(self):
        rng = random.Random(13)
        cap = hyperbolic_cycle_cap((3, 3, 4, 3, 3))
        for _ in range(40):
            if rng.random() < 0.5:
                i = rng.randrange(len(cap))
                cap = blowup_generic(cap, i, rng.randint(1, 2))
            else:
                i = rng.randrange(len(cap))
                j = (i + 1) % len(cap)
                if cap.components[i].dot(cap.components[j]) >= 1:
                    cap = blowup_node_total(cap, i, j)
            assert is_anticanonical(cap)


class TestSerialization:
    def test_round_trip(self):
        cap = hyperbolic_cycle_cap((5,))
        text = divisor_to_json(cap)
        back = divisor_from_json(text)
        assert back == cap
        assert divisor_to_json(back) == text

    def test_round_trip_product_model(self):
        b = Ambient(S2XS2, 1)
        div = Divisor(b, (b.f(), b.s() + b.s() + b.f() - b.e(1)), ("F", "C"), marked=None)
        assert divisor_from_json(divisor_to_json(div)) == div

    @pytest.mark.parametrize("marked", [0.5, "0", 7, -1])
    def test_marked_must_index_a_component(self, marked):
        data = divisor_to_dict(elliptic_cap(0, "right"))
        with pytest.raises(DomainError, match="^marked component "):
            divisor_from_dict({**data, "marked": marked})

    @pytest.mark.parametrize("label", [1, ["L"]], ids=["int", "list"])
    def test_constructor_refuses_a_label_that_is_not_a_string(self, label):
        h = Ambient(CP2, 0).h()
        with pytest.raises(DomainError, match="^component label must be a string, got "):
            Divisor(Ambient(CP2, 0), (h, h), ("A", label))

    @pytest.mark.parametrize("marked, message", [
        (5, "marked component 5 out of range 0..1"),
        (-1, "marked component -1 out of range 0..1"),
        (0.5, "marked component must be integers, got 0.5"),
    ])
    def test_constructor_refuses_what_the_reader_refuses(self, marked, message):
        h = Ambient(CP2, 0).h()
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            Divisor(Ambient(CP2, 0), (h, h), ("A", "B"), marked)

    def test_marked_is_stored_as_an_exact_int(self):
        class One:
            def __index__(self):
                return 1

        h = Ambient(CP2, 0).h()
        div = Divisor(Ambient(CP2, 0), (h, h), ("A", "B"), One())
        assert type(div.marked) is int and div.marked == 1
        assert divisor_from_json(divisor_to_json(div)) == div

    @pytest.mark.parametrize("text, message", [
        ("{}", "divisor has no 'ambient' field"),
        ("[]", "divisor must be an object, got []"),
        ('{"ambient": [], "components": []}', "divisor field 'ambient' has the wrong type"),
        ('{"ambient": {"model": "CP2"}, "components": []}', "ambient has no 'blowups' field"),
        ('{"ambient": {"model": "CP2", "blowups": 0}}', "divisor has no 'components' field"),
        ('{"ambient": {"model": "CP2", "blowups": 0}, "components": 7}',
         "divisor field 'components' has the wrong type"),
        ('{"ambient": {"model": "CP2", "blowups": 0}, "components": [[1]]}',
         "component must be an object"),
        ('{"ambient": {"model": "CP2", "blowups": 0}, "components": [{"coords": [1]}]}',
         "component has no 'label' field"),
        ('{"ambient": {"model": "CP2", "blowups": 0}, "components": [{"label": 1, "coords": [1]}]}',
         "component field 'label' has the wrong type"),
        ('{"ambient": {"model": "CP2", "blowups": 0}, "components": [{"label": "L", "coords": 5}]}',
         "component field 'coords' has the wrong type"),
    ], ids=["empty-object", "array", "ambient-array", "no-blowups", "no-components",
            "components-int", "component-array", "no-label", "label-int", "coords-int"])
    def test_malformed_document_is_refused(self, text, message):
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            divisor_from_json(text)

    def test_list_built_divisor_is_stored_as_tuples(self):
        a = Ambient(CP2, 1)
        comps, labels = [a.h(), a.h() - a.e(1)], ["L", "C"]
        listed = Divisor(a, comps, labels, marked=0)
        twin = Divisor(a, tuple(comps), tuple(labels), marked=0)
        assert listed == twin and hash(listed) == hash(twin)
        assert divisor_from_dict(divisor_to_dict(listed)) == listed
        comps.pop()  # the divisor keeps its own copy
        assert len(listed) == 2


# --- the copy-then-subtract blowups, kept as oracles ------------------------


def _extend_oracle(div, extra):
    amb = Ambient(div.ambient.model, div.ambient.blowups + extra)
    comps = tuple(HClass(amb, c.coords + (0,) * extra) for c in div.components)
    return Divisor(amb, comps, div.labels, div.marked)


def blowup_generic_oracle(div, index, times=1):
    """The earlier blowup_generic: copy every class into the grown
    ambient, then subtract the new exceptional classes one at a time."""
    if times < 1:
        raise DomainError("generic blowup needs times >= 1, got %d" % times)
    if not 0 <= index < len(div):
        raise DomainError("component index %d out of range" % index)
    old_rank = div.ambient.blowups
    out = _extend_oracle(div, times)
    cls = out.components[index]
    for k in range(times):
        cls = cls - out.ambient.e(old_rank + 1 + k)
    comps = list(out.components)
    comps[index] = cls
    return Divisor(out.ambient, tuple(comps), out.labels, out.marked)


def blowup_node_total_oracle(div, i, j):
    """The earlier blowup_node_total: copy every class into the grown
    ambient, then subtract the new exceptional class from both sides."""
    n = len(div)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError("component index out of range")
    if j != (i + 1) % n:
        raise DomainError("components %d and %d are not cyclically consecutive" % (i, j))
    if div.components[i].dot(div.components[j]) < 1:
        raise DomainError("components %d and %d have no node to blow up" % (i, j))
    out = _extend_oracle(div, 1)
    e = out.ambient.e(out.ambient.blowups)
    comps = list(out.components)
    labels = list(out.labels)
    comps[i] = comps[i] - e
    comps[j] = comps[j] - e
    insert_at = i + 1 if j == i + 1 else n
    comps.insert(insert_at, e)
    labels.insert(insert_at, "E%d" % out.ambient.blowups)
    marked = out.marked
    if marked is not None and insert_at <= marked:
        marked += 1
    return Divisor(out.ambient, tuple(comps), tuple(labels), marked)


def intersection_matrix_oracle(div):
    """The earlier intersection_matrix: every ordered pair through
    HClass.dot, with its ambient check."""
    comps = div.components
    return tuple(tuple(x.dot(y) for y in comps) for x in comps)


def total_class_oracle(div):
    total = div.ambient.zero()
    for c in div.components:
        total = total + c
    return total


def _outcome(op, *args):
    try:
        return op(*args)
    except DomainError as exc:
        return "DomainError: %s" % exc


def _oracle_starts():
    b = Ambient(S2XS2, 0)
    square = Divisor(b, (b.s(), b.f(), b.s(), b.f()), ("S1", "F1", "S2", "F2"), marked=0)
    # a cycle with one pair of neighbours that do not meet
    a = Ambient(CP2, 2)
    gap = Divisor(a, (a.e(1), a.e(2), a.h() - a.e(1) - a.e(2)), ("A", "B", "C"))
    return (
        [elliptic_cap(eps, side) for eps in (-1, 0, 1) for side in ("left", "right")]
        + [parabolic_cap(n) for n in range(5)]
        + [hyperbolic_single_cap(c1) for c1 in (3, 4, 7)]
        + [hyperbolic_cycle_cap(d) for d in [(5,), (3, 3, 4, 3, 3), (4, 4), (2, 3, 3)]]
        + [square, gap]
    )


class TestPaddedBlowupsMatchOracles:
    def test_random_operation_sequences(self):
        refusals = set()
        built = 0
        for seed in range(8):
            rng = random.Random(seed)
            for start in _oracle_starts():
                div = start
                for _ in range(12):
                    n = len(div)
                    if rng.random() < 0.4:
                        args = (div, rng.randint(-1, n), rng.randint(0, 3))
                        ops = (blowup_generic, blowup_generic_oracle)
                    else:
                        i = rng.randint(-1, n)
                        j = (i + 1) % n if rng.random() < 0.75 else rng.randint(-1, n)
                        args = (div, i, j)
                        ops = (blowup_node_total, blowup_node_total_oracle)
                    got, want = (_outcome(op, *args) for op in ops)
                    assert got == want, (seed, start.labels, args[1:])
                    if isinstance(got, Divisor):
                        div = got
                        built += 1
                        assert div.total_class() == total_class_oracle(div)
                        assert div.intersection_matrix() == intersection_matrix_oracle(div)
                        assert is_anticanonical(div) == is_anticanonical(start)
                    else:
                        refusals.add(re.sub(r"-?\d+", "#", got))
        # every refusal of both operations occurs, and most steps build
        assert len(refusals) == 5, refusals
        assert built > 500

    def test_intersection_matrix_on_every_cap_kind(self):
        empty = Divisor(Ambient(CP2, 0), (), ())
        assert empty.intersection_matrix() == intersection_matrix_oracle(empty) == ()
        for start in _oracle_starts():
            assert start.intersection_matrix() == intersection_matrix_oracle(start)


# --- the replayed cycle cap, kept as an oracle ------------------------------


def cycle_cap_from_path_oracle(weights, path):
    """The earlier cycle_cap_from_path: replay the path as node blowups
    of the triangle, growing the ambient one class per move, then blow
    up each component generically, one Divisor per step."""
    c = tuple(int(x) for x in weights)
    if len(c) < 2:
        raise DomainError("cycle cap needs a weight string of length >= 2")
    s = (0, 0)
    amb = Ambient(CP2, 0)
    h = amb.h()
    div = Divisor(amb, (h, h, h), ("L1", "L2", "L3"), marked=0)
    for move in path:
        div = blowup_node_total(div, move, move + 1)
        s = blowup_at(s, move)
    if len(s) != len(c) or not dominates(s, c):
        raise DomainError("sequence %s is not dominated by weights %s" % (s, c))
    for idx, (ci, si) in enumerate(zip(c, s)):
        if ci - si > 0:
            div = blowup_generic(div, idx + 1, ci - si)
    return div


class TestCycleCapMatchesOracle:
    def test_every_dominated_endpoint(self):
        caps = 0
        for c in _oracle_targets():
            for path, _ in dominated_blowups(c):
                want = cycle_cap_from_path_oracle(c, path)
                assert cycle_cap_from_path(c, path) == want, (c, path)
                caps += 1
        assert caps > 900

    @pytest.mark.parametrize(
        "weights, path",
        [
            ((3, 3, 3), (0,)),  # move 0: the move rule, not the oracle's message
            ((3, 3, 3), (1, 0)),
            ((3, 3, 3), (-1,)),  # negative move
            ((3, 3, 3), (2,)),  # move >= len(s)
            ((3, 3, 3, 3), (1, 3)),
            ((3, 3, 3, 3), (1, 4, 0)),  # the first bad move decides
            ((2, 0, 2), (1,)),  # endpoint (1, 1, 1) not dominated
            ((3, 3, 3), (1, 1)),  # too long: a length-4 endpoint
            ((3, 3, 3), ()),  # too short
            ((5,), ()),  # one-entry weight string
            ((5,), (1,)),
        ],
    )
    def test_refusals_match(self, weights, path):
        with pytest.raises(DomainError) as want:
            cycle_cap_from_path_oracle(weights, path)
        with pytest.raises(DomainError) as got:
            cycle_cap_from_path(weights, path)
        message = str(want.value)
        # move 0 breaks the move rule 1 <= move < len(s) and is refused like
        # every bad move; the oracle's blowup_at names its own range
        if re.fullmatch(r"blowup position 0 out of range 1\.\.\d+", message):
            message = "component index out of range"
        assert str(got.value) == message


# --- the constructions divisor._pad replaced, kept as oracles --------------


def _grow_oracle(div, extra, lose):
    """The earlier divisor._grow: the ambient with `extra` more
    exceptional classes, and the components padded into it, less one
    for each time a component's index is listed in `lose`."""
    amb = Ambient(div.ambient.model, div.ambient.blowups + extra)
    return amb, [
        HClass(amb, c.coords + (-lose.count(k),) * extra) for k, c in enumerate(div.components)
    ]


def blowup_generic_grow_oracle(div, index, times=1):
    if times < 1:
        raise DomainError("generic blowup needs times >= 1, got %d" % times)
    if not 0 <= index < len(div):
        raise DomainError("component index %d out of range" % index)
    amb, comps = _grow_oracle(div, times, (index,))
    return Divisor(amb, tuple(comps), div.labels, div.marked)


def blowup_node_total_grow_oracle(div, i, j):
    n = len(div)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError("component index out of range")
    if j != (i + 1) % n:
        raise DomainError("components %d and %d are not cyclically consecutive" % (i, j))
    if i == j:
        raise DomainError("a node blowup needs two distinct components, got one")
    if div.components[i].dot(div.components[j]) < 1:
        raise DomainError("components %d and %d have no node to blow up" % (i, j))
    amb, comps = _grow_oracle(div, 1, (i, j))
    e = HClass(amb, (0,) * (amb.rank - 1) + (1,))
    labels = list(div.labels)
    insert_at = i + 1 if j == i + 1 else n
    comps.insert(insert_at, e)
    labels.insert(insert_at, "E%d" % amb.blowups)
    marked = div.marked
    if marked is not None and insert_at <= marked:
        marked += 1
    return Divisor(amb, tuple(comps), tuple(labels), marked)


def _triangle():
    amb = Ambient(CP2, 0)
    h = amb.h()
    return Divisor(amb, (h, h, h), ("L1", "L2", "L3"), marked=0)


def _line_conic():
    amb = Ambient(CP2, 0)
    h = amb.h()
    return Divisor(amb, (h, h + h), ("L", "C"), marked=0)


def elliptic_cap_oracle(epsilon, side):
    if side == "left":
        div = blowup_generic_grow_oracle(_triangle(), 1, 1)
        return blowup_generic_grow_oracle(div, 2, 2 - epsilon)
    div = blowup_generic_grow_oracle(_line_conic(), 0, 2)
    return blowup_generic_grow_oracle(div, 1, 6 - epsilon)


def parabolic_cap_oracle(n):
    div = blowup_generic_grow_oracle(_line_conic(), 0, 1)
    if n < 4:
        div = blowup_generic_grow_oracle(div, 1, 4 - n)
    return div


def hyperbolic_single_cap_oracle(c1):
    return blowup_generic_grow_oracle(_line_conic(), 1, c1 + 2)


# The earlier hand tables of the family classes at n = 0, as rows
# (h; e_1, ..., e_9).
_FAMILY_FIRST = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),  # h
    (1, -1, -1, 0, -1, 0, 0, 0, 0, 0),  # h - e1 - e2 - e4
    (0, 0, 0, 0, 1, -1, -1, 0, 0, 0),  # e4 - e5 - e6
    (0, 0, 1, -1, -1, 0, 0, 0, 0, 0),  # e2 - e3 - e4
    (0, 0, 0, 1, 0, 0, 0, -1, 0, 0),  # e3 - e7
    (0, 1, -1, -1, 0, 0, 0, 0, 0, 0),  # e1 - e2 - e3
    (1, -1, 0, 0, 0, 0, 0, 0, -1, -1),  # h - e1 - e8 - e9
)
_FAMILY_SECOND = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),  # h
    (1, -1, -1, 0, 0, -1, 0, 0, 0, 0),  # h - e1 - e2 - e5
    (0, 0, 1, -1, -1, 0, 0, 0, 0, 0),  # e2 - e3 - e4
    (0, 0, 0, 0, 1, 0, -1, -1, 0, 0),  # e4 - e6 - e7
    (0, 0, 0, 1, -1, 0, 0, 0, 0, 0),  # e3 - e4
    (0, 1, -1, -1, 0, 0, 0, 0, 0, 0),  # e1 - e2 - e3
    (1, -1, 0, 0, 0, 0, 0, 0, -1, -1),  # h - e1 - e8 - e9
)


def family_configuration_divisors_oracle(n):
    """The earlier family padding of the hand tables: one conditional
    tuple per row, the n extra classes last, on the third sphere."""
    amb = Ambient(CP2, 9 + n)
    labels = tuple("C%d" % i for i in range(7))
    return tuple(
        Divisor(amb, tuple(HClass(amb, row + ((-1,) if k == 2 else (0,)) * n)
                           for k, row in enumerate(table)), labels, marked=0)
        for table in (_FAMILY_FIRST, _FAMILY_SECOND)
    )


def product_classes_oracle(n):
    """The earlier hand-padded product-model (fiber, conic) classes."""
    product = Ambient(S2XS2, 4 - n)
    return (HClass(product, (0, 1) + (0,) * (4 - n)),
            HClass(product, (2, 1) + (-1,) * (4 - n)))


def assert_sound(div):
    """Hashable, equal to its own serialization round trip, and written
    by divisor_to_indented_json as json.dumps writes its document, at
    depth 0 and at depth 2."""
    hash(div)
    assert divisor_from_dict(divisor_to_dict(div)) == div
    text = json.dumps(divisor_to_dict(div), indent=2, sort_keys=True)
    assert divisor_to_indented_json(div) == text
    assert divisor_to_indented_json(div, "\n    ") == text.replace("\n", "\n    ")


class TestPaddedBuildersMatchOracles:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("eps", [-1, 0, 1])
    def test_elliptic(self, eps, side):
        cap = elliptic_cap(eps, side)
        assert cap == elliptic_cap_oracle(eps, side)
        assert_sound(cap)

    @pytest.mark.parametrize("n", range(-9, 5))
    def test_parabolic(self, n):
        cap = parabolic_cap(n)
        assert cap == parabolic_cap_oracle(n)
        assert_sound(cap)

    @pytest.mark.parametrize("c1", range(3, 21))
    def test_hyperbolic_single(self, c1):
        cap = hyperbolic_single_cap(c1)
        assert cap == hyperbolic_single_cap_oracle(c1)
        assert_sound(cap)

    @pytest.mark.parametrize("n", range(61))
    def test_family(self, n):
        # the census caps number the classes and label the spheres their
        # own way: the same configuration, up to that relabelling
        divisors = family_configuration_divisors(n)
        oracles = family_configuration_divisors_oracle(n)
        assert len(divisors) == len(oracles) == 2
        for div, oracle in zip(divisors, oracles):
            assert div.ambient == oracle.ambient
            assert _canonical_configuration(div) == _canonical_configuration(oracle)
            assert_sound(div)

    @pytest.mark.parametrize("n", range(-7, 5))
    def test_product_classes(self, n):
        sol = parabolic_solutions(n)[1]
        fiber, conic = product_classes_oracle(n)
        assert (sol.model, sol.fiber_class, sol.conic_class) == (S2XS2, fiber, conic)
        hash(sol)
        assert_sound(Divisor(fiber.ambient, (sol.fiber_class, sol.conic_class), ("F", "C")))

    @pytest.mark.parametrize("k", range(3, 7))
    def test_blowups_on_cycle_caps(self, k):
        c = (k,) * (k + 3)
        caps = [cycle_cap_from_path(c, path) for path, _ in dominated_blowups(c)]
        for cap in caps:
            n = len(cap)
            for i in range(n):
                out = blowup_node_total(cap, i, (i + 1) % n)
                assert out == blowup_node_total_grow_oracle(cap, i, (i + 1) % n)
                assert_sound(out)
                for times in (1, 2):
                    out = blowup_generic(cap, i, times)
                    assert out == blowup_generic_grow_oracle(cap, i, times)
                    assert_sound(out)
        assert len(caps) == {3: 8, 4: 35, 5: 124, 6: 420}[k]
