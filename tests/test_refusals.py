"""Each precondition of the hyperbolic census is refused in one place,
with one message: the length budgets by errors._within, the standard
string by one fillings reader, the chain move by cycle_cap_from_path's
move rule and a non-blowup by path_to's ear loop.  The messages are
pinned byte for byte; the budget and standard-string ones are also what
the CLI prints after "error: "."""

import re
from pathlib import Path

import pytest

from torusfill.blowup import (
    EmbeddingWitness,
    embeddability_witness,
    enumerate_blowups,
    path_to,
)
from torusfill.divisor import cycle_cap_from_path, hyperbolic_cycle_cap
from torusfill.errors import DomainError, ResourceLimitError
from torusfill.fillings import (
    distfill_family,
    double_cover_obstruction,
    hyperbolic_filling_census,
    tight_structure_census,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torusfill"

# (call of a limit, the size it is refused on, the message past it); the
# reversal of (5,) is (3, 2, 2), of length 3
BUDGETS = {
    "enumerate_blowups": (lambda limit: enumerate_blowups(5, limit), 5,
                          "enumeration of length-5 sequences exceeds limit 4"),
    "embeddability_witness": (lambda limit: embeddability_witness((5,), limit), 3,
                              "enumeration of length-3 sequences exceeds limit 2"),
    "hyperbolic_filling_census": (lambda limit: hyperbolic_filling_census((5,), limit), 3,
                                  "reversal length 3 exceeds limit 2"),
    "distfill_family": (lambda limit: distfill_family(3, limit), 3,
                        "family parameter 3 exceeds limit 2"),
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_budget_runs_at_the_limit_and_refuses_past_it(name):
    call, size, message = BUDGETS[name]
    assert call(size) is not None
    with pytest.raises(ResourceLimitError) as exc:
        call(size - 1)
    assert str(exc.value) == message


STANDARD_REFUSALS = {
    "census": hyperbolic_filling_census,
    "contact census": tight_structure_census,
    "obstruction": lambda d: double_cover_obstruction(d, ()),
}


@pytest.mark.parametrize("what", sorted(STANDARD_REFUSALS))
@pytest.mark.parametrize("d, shown", [((2, 2), "(2, 2)"), ([2, 2], "(2, 2)"),
                                      ((True, 2), "(True, 2)")])
def test_standard_string_refusals(what, d, shown):
    with pytest.raises(DomainError) as exc:
        STANDARD_REFUSALS[what](d)
    assert str(exc.value) == "%s needs a standard string, got %s" % (what, shown)


# a move m must satisfy 1 <= m < len(s) for the sequence s it is applied to
@pytest.mark.parametrize("path", [(0,), (-1,), (2,), (1, 0), (1, 3), (1, 1, 4)])
def test_move_rule(path):
    with pytest.raises(DomainError) as exc:
        cycle_cap_from_path((3, 3, 3, 3, 3), path)
    assert str(exc.value) == "component index out of range"


@pytest.mark.parametrize("d, witness, message", [
    # a non-blowup, of the wrong length or not: path_to refuses it
    ((5,), EmbeddingWitness((1, 1), (3, 2, 2), 0), "(1, 1) is not a blowup of (0, 0)"),
    ((5,), EmbeddingWitness((2, 2, 2), (3, 2, 2), 0), "(2, 2, 2) is not a blowup of (0, 0)"),
    # wrong length, a blowup: cycle_cap_from_path refuses its endpoint
    ((5,), EmbeddingWitness((0, 0), (3, 2, 2), 0),
     "sequence (0, 0) is not dominated by weights (3, 2, 2)"),
    ((5,), EmbeddingWitness((1, 2, 1, 2), (3, 2, 2), 0),
     "sequence (1, 2, 1, 2) is not dominated by weights (3, 2, 2)"),
    # a blowup, but 3 > 2 against the reversal (3, 2, 2, 2, 2) of (7,)
    ((7,), EmbeddingWitness((1, 3, 1, 2, 2), (3, 2, 2, 2, 2), 0),
     "sequence (1, 3, 1, 2, 2) is not dominated by weights (3, 2, 2, 2, 2)"),
    # a target that is not a rotation is refused before the sequence is read
    ((5,), EmbeddingWitness((1, 1, 1), (2, 2, 2), 0),
     "witness target is not a rotation of the reversal"),
    ((5,), EmbeddingWitness((1, 1), (3, 2), 0),
     "witness target is not a rotation of the reversal"),
])
def test_supplied_witness_refusals(d, witness, message):
    with pytest.raises(DomainError) as exc:
        hyperbolic_cycle_cap(d, witness=witness)
    assert str(exc.value) == message


@pytest.mark.parametrize("s", [(1, 1), (0, 0, 0), (1, 2, 3, 4)])
def test_path_to_refuses_a_non_blowup(s):
    with pytest.raises(DomainError) as exc:
        path_to(s)
    assert str(exc.value) == "%s is not a blowup of (0, 0)" % (s,)


@pytest.mark.parametrize("literal", ["needs a standard string", "is not a blowup of (0, 0)"])
def test_one_line_raises_each_message(literal):
    lines = [line for path in PACKAGE.glob("*.py") for line in path.read_text().splitlines()
             if re.search(r"DomainError\(.*%s" % re.escape(literal), line)]
    assert len(lines) == 1, lines
