"""torusfill: exact monodromy classification for torus bundles over the
circle and lattice invariants of their symplectic fillings.

The package is pure Python with exact integer arithmetic throughout.
Modules:

* ``sl2z``: monodromy strings, trace trichotomy, S/T words, the
  orientation-reversal involution, hyperbolic standard forms, and the
  first homology of torus bundles.
* ``blowup``: the blowup calculus on integer sequences and the
  embeddability test.
* ``lattice``: Smith normal form, cokernels, saturated orthogonal
  complements, determinant/parity/signature invariants.
* ``divisor``: homology-class models of spherical divisor caps in
  blowups of the plane, their dual graphs and boundary monodromies.
* ``fillings``: filling census, parabolic class search, the
  distinguished-filling determinant family, complement invariants of
  configurations, and contact structure counting.
* ``cli``: the ``torusfill`` command.
"""

from .errors import DomainError, ResourceLimitError
from .sl2z import (
    Mat2,
    TraceClass,
    H1Invariants,
    monodromy,
    classify_trace,
    evaluate_word,
    standard_factorization,
    orientation_reversal,
    cyclic_canonical,
    cyclic_equal,
    is_standard_string,
    hyperbolic_standard_form,
    torus_bundle_h1,
)
from .blowup import (
    blowup_at,
    dominates,
    enumerate_blowups,
    embeddability_witness,
    is_embeddable,
)
from .lattice import (
    smith_normal_form,
    cokernel_invariants,
    orthogonal_complement,
    lattice_invariants,
    radical_and_quotient,
    Sublattice,
    LatticeInvariants,
)
from .divisor import (
    Ambient,
    HClass,
    Divisor,
    pairing,
    adjunction_genus,
    blowup_generic,
    blowup_node_total,
    dual_graph,
    cycle_monodromy,
    is_anticanonical,
    realize_cap,
)
from .fillings import (
    FillingInvariants,
    hyperbolic_filling_census,
    euler_consistency,
    parabolic_solutions,
    distfill_family,
    complement_invariants,
    census_complement_invariants,
    tight_structure_census,
    double_cover_obstruction,
)

__version__ = "0.1.0"
