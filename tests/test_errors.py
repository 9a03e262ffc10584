"""The integer-input contract: every public function that reads a
sequence or a matrix of integers takes int and bool entries, and refuses
any other entry with DomainError("... must be integers, got <entry>"),
never truncating it, parsing it or letting a raw TypeError escape."""

from decimal import Decimal
from fractions import Fraction
from functools import reduce
from operator import getitem

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_divisor import cycle_cap_from_path_oracle
from test_lattice import (
    bareiss_determinant,
    cycle_graph_gram_oracle,
    dense_orthogonal_complement,
    dense_smith_normal_form,
    diagonal_gram_oracle,
    fraction_signature,
    sylvester_negative_definite,
    symmetric_matrices,
    tree_graph_gram_oracle,
)
from test_sl2z import block_list_reversal
from torusfill.blowup import blowup_at, dominated_blowups, path_to
from torusfill.divisor import (
    CP2,
    S2XS2,
    Ambient,
    cycle_cap_from_path,
    cycle_monodromy,
    divisor_from_dict,
    divisor_from_json,
)
from torusfill.errors import DomainError, _ints
from torusfill.lattice import (
    cokernel_invariants,
    cycle_graph_gram,
    determinant,
    diagonal_gram,
    gram_invariants,
    integer_kernel,
    is_negative_definite,
    orthogonal_complement,
    parity,
    signature,
    smith_diagonal,
    smith_normal_form,
    tree_graph_gram,
)
from torusfill.sl2z import (
    cyclic_canonical,
    cyclic_equal,
    is_standard_string,
    monodromy,
    orientation_reversal,
    standard_factorization,
)

INTS = st.integers(-9, 9)


def vectors(n):
    return st.lists(INTS, min_size=n, max_size=n)


strings = st.lists(INTS, min_size=1, max_size=6)
sequences = st.lists(st.integers(0, 4), min_size=2, max_size=6)
matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(vectors(shape[1]), min_size=shape[0], max_size=shape[0]))
square_matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(vectors(n), min_size=n, max_size=n))
forms = symmetric_matrices(max_size=4).map(lambda g: [list(row) for row in g])


@st.composite
def complement_inputs(draw):
    gram = draw(forms)
    return gram, draw(st.lists(vectors(len(gram)), max_size=3))


@st.composite
def cap_inputs(draw):
    """Weights in 2..5 and one chain to an endpoint they dominate."""
    c = draw(st.lists(st.integers(2, 5), min_size=2, max_size=5))
    paths = [list(p) for p, _ in dominated_blowups(c)]
    assume(paths)
    return c, draw(st.sampled_from(paths))


@st.composite
def divisor_data(draw):
    blowups = draw(st.integers(0, 2))
    count = draw(st.integers(1, 3))
    coords = draw(st.lists(vectors(1 + blowups), min_size=count, max_size=count))
    return {
        "ambient": {"model": "CP2", "blowups": blowups},
        "components": [{"label": "C%d" % i, "coords": c} for i, c in enumerate(coords)],
        "marked": draw(st.one_of(st.none(), st.integers(-1, 3))),
    }


# name: (function, strategy of its argument tuple, oracle or None).  Every
# integer inside the arguments is an entry the function reads before any
# other refusal, so replacing any one of them must give the integer refusal.
CASES = {
    "monodromy": (monodromy, st.tuples(strings), None),
    "standard_factorization": (standard_factorization, st.tuples(strings), None),
    "is_standard_string": (is_standard_string, st.tuples(strings), None),
    "orientation_reversal": (orientation_reversal, st.tuples(strings), block_list_reversal),
    "cyclic_canonical": (cyclic_canonical, st.tuples(strings), None),
    "cyclic_equal": (cyclic_equal, st.tuples(strings, strings), None),
    "blowup_at": (blowup_at, st.tuples(sequences, st.integers(1, 5)), None),
    "path_to": (path_to, st.tuples(sequences), None),
    "dominated_blowups": (lambda c: list(dominated_blowups(c)), st.tuples(sequences), None),
    "smith_normal_form": (smith_normal_form, st.tuples(matrices), dense_smith_normal_form),
    "smith_diagonal": (smith_diagonal, st.tuples(matrices), None),
    "cokernel_invariants": (cokernel_invariants, st.tuples(matrices), None),
    "integer_kernel": (integer_kernel, st.tuples(matrices), None),
    "determinant": (determinant, st.tuples(square_matrices), bareiss_determinant),
    "signature": (signature, st.tuples(forms), fraction_signature),
    "parity": (parity, st.tuples(forms), None),
    "is_negative_definite": (is_negative_definite, st.tuples(forms), sylvester_negative_definite),
    "gram_invariants": (gram_invariants, st.tuples(forms), None),
    "orthogonal_complement": (orthogonal_complement, complement_inputs(),
                              dense_orthogonal_complement),
    "diagonal_gram": (diagonal_gram, st.tuples(strings), diagonal_gram_oracle),
    "cycle_graph_gram": (
        cycle_graph_gram,
        st.tuples(st.lists(INTS, min_size=2, max_size=6),
                  st.one_of(st.none(), st.lists(st.sampled_from((1, -1, 2)), max_size=7))),
        cycle_graph_gram_oracle,
    ),
    "tree_graph_gram": (
        tree_graph_gram,
        st.tuples(strings, st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
                                    max_size=5)),
        tree_graph_gram_oracle,
    ),
    "cycle_monodromy": (lambda w: cycle_monodromy(w, 1), st.tuples(strings), None),
    "cycle_cap_from_path": (cycle_cap_from_path, cap_inputs(), cycle_cap_from_path_oracle),
    "divisor_from_dict": (divisor_from_dict, st.tuples(divisor_data()), None),
    "Ambient": (Ambient, st.tuples(st.sampled_from((CP2, S2XS2)), st.integers(-2, 4)), None),
}

NON_INTEGERS = st.one_of(
    st.floats(),
    st.fractions(),
    st.decimals(),
    st.text(max_size=3),
)


def entry_paths(x, path=()):
    """The paths to the integer entries inside nested lists, tuples and
    dicts."""
    if isinstance(x, int):
        yield path
    elif isinstance(x, dict):
        for key, value in x.items():
            yield from entry_paths(value, path + (key,))
    elif isinstance(x, (list, tuple)):
        for i, value in enumerate(x):
            yield from entry_paths(value, path + (i,))


def replaced(x, path, value):
    """A copy of x with the entry at path replaced by value."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(x, dict):
        return {**x, head: replaced(x[head], rest, value)}
    items = list(x)
    items[head] = replaced(items[head], rest, value)
    return type(x)(items)


def outcome(fn, args):
    """fn(*args), or the message of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return "DomainError: %s" % exc


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_non_integer_entry_is_refused(name, data):
    fn, inputs, _ = CASES[name]
    args = data.draw(inputs)
    paths = list(entry_paths(args))
    if not paths:
        return
    bad = data.draw(NON_INTEGERS)
    poisoned = replaced(args, data.draw(st.sampled_from(paths)), bad)
    with pytest.raises(DomainError) as exc:
        fn(*poisoned)
    assert str(exc.value).endswith(" must be integers, got %r" % (bad,))


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bool_entries_read_as_ints(name, data):
    fn, inputs, oracle = CASES[name]
    args = data.draw(inputs)
    with_bools = args
    for path in entry_paths(args):
        value = reduce(getitem, path, args)
        if value in (0, 1) and data.draw(st.booleans()):
            with_bools = replaced(with_bools, path, bool(value))
    want = outcome(fn, args)
    assert outcome(fn, with_bools) == want
    if oracle is not None:
        assert want == outcome(oracle, args)


def test_ints_reads_once_and_names_the_first_bad_entry():
    assert _ints(iter([3, True, -2]), "entries") == (3, 1, -2)
    assert all(type(x) is int for x in _ints((True, False), "entries"))
    with pytest.raises(DomainError, match=r"^entries must be integers, got '4'$"):
        _ints([1, "4", 2.5], "entries")


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(signature, ([[0.5]],), id="signature"),
        pytest.param(determinant, ([[0.5, 0], [0, 4]],), id="determinant"),
        pytest.param(parity, ([["3"]],), id="parity"),
        pytest.param(orthogonal_complement, (((1, 0), (0, -1)), [[0.5, 1]]),
                     id="orthogonal_complement"),
        pytest.param(cycle_graph_gram, ([-2, -2, -2], [1, Fraction(1, 2), 1]),
                     id="cycle_graph_gram-sign"),
        pytest.param(divisor_from_json, ('{"ambient": {"model": "CP2", "blowups": 0}, '
                                         '"components": [{"label": "L", "coords": [1.0]}], '
                                         '"marked": 0}',), id="divisor_from_json"),
        pytest.param(smith_normal_form, ([[Fraction(7, 2)]],), id="smith_normal_form"),
        pytest.param(cycle_graph_gram, ([-2.5, -3, -4],), id="cycle_graph_gram-weight"),
        pytest.param(tree_graph_gram, ([-2, -2], [(0.0, 1)]), id="tree_graph_gram"),
        pytest.param(cycle_monodromy, ([1.7, 2], 1), id="cycle_monodromy"),
        pytest.param(gram_invariants, ([[Decimal("3")]],), id="gram_invariants"),
        pytest.param(blowup_at, ((0, 0), 1.0), id="blowup_at-position"),
        pytest.param(Ambient, (CP2, 1.5), id="Ambient-float"),
        pytest.param(Ambient, (CP2, "2"), id="Ambient-str"),
        pytest.param(divisor_from_json, ('{"ambient": {"model": "CP2", "blowups": 0}, '
                                         '"components": [{"label": "L", "coords": [1]}], '
                                         '"marked": 0.5}',), id="divisor_from_json-marked"),
    ],
)
def test_truncating_probes_are_refused(fn, args):
    with pytest.raises(DomainError, match="must be integers, got "):
        fn(*args)


def test_bool_strings_still_run():
    assert monodromy((True, 3)) == monodromy((1, 3))
