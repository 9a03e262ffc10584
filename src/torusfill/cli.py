"""Command-line front end.

Verbs: classify, embed, cap, fillings, parabolic, distfill, contact,
lattice.  Every verb prints a human-readable report by default and a
JSON document with --json.  JSON output is deterministic (sorted keys,
no timing field); elapsed time is shown in text mode only.

Exit codes: 0 on success, 1 on domain or resource errors (diagnostic on
stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import fillings as fil
from . import lattice as lat
from .blowup import embeddability_witness
from .divisor import (
    cycle_monodromy,
    divisor_to_dict,
    dual_graph,
    realize_cap,
)
from .errors import DomainError, ResourceLimitError
from .sl2z import (
    HYPERBOLIC,
    Mat2,
    classify_trace,
    hyperbolic_standard_form,
    is_standard_string,
    monodromy,
    orientation_reversal,
    torus_bundle_h1,
)

__all__ = ["main", "run", "parse_string_arg"]


def parse_string_arg(text: str):
    """Parse a comma-separated integer list; argparse-friendly."""
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or parts == [""]:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated integer list, got %r" % (text,)
        ) from None


def _parse_gram(text: str):
    rows = []
    for chunk in str(text).split(";"):
        rows.append(parse_string_arg(chunk))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise argparse.ArgumentTypeError("matrix rows have unequal lengths")
    return tuple(rows)


def _mat_dict(m: Mat2):
    return [[m.a, m.b], [m.c, m.d]]


def _h1_dict(inv):
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def _invariants_dict(inv: lat.LatticeInvariants):
    return {
        "rank": inv.rank,
        "det": inv.det,
        "parity": inv.parity,
        "signature": list(inv.signature),
        "elementary_divisors": list(inv.elementary_divisors),
    }


def _witness_dict(witness):
    return {
        "sequence": list(witness.sequence),
        "target": list(witness.target),
        "rotation": witness.rotation,
    }


def _weights_str(weights):
    return "(" + ", ".join("%+d" % w for w in weights) + ")"


def _report_classify(args):
    d = args.d
    mat = monodromy(d)
    tc = classify_trace(mat)
    report = {
        "input": list(d),
        "matrix": _mat_dict(mat),
        "trace": tc.trace,
        "class": tc.kind,
    }
    warnings = []
    if tc.kind == HYPERBOLIC:
        sign, standard = hyperbolic_standard_form(mat)
        report["standard_form"] = {"sign": sign, "string": list(standard)}
    if is_standard_string(d):
        rev = orientation_reversal(d)
        report["orientation_reversal"] = list(rev)
        witness = embeddability_witness(d, args.limit)
        report["embeddable"] = witness is not None
        if witness is not None:
            report["witness"] = _witness_dict(witness)
    else:
        warnings.append("string is not standard; reversal and embeddability skipped")
    if mat.trace != 2:
        report["h1"] = _h1_dict(torus_bundle_h1(mat))
    else:
        warnings.append("trace-2 parabolic: first homology torsion not computed")
    if warnings:
        report["warnings"] = warnings
    return report


def _text_classify(report, out):
    print("string:        %s" % (tuple(report["input"]),), file=out)
    print("monodromy:     %s  (trace %d, %s)"
          % (report["matrix"], report["trace"], report["class"]), file=out)
    if "standard_form" in report:
        sf = report["standard_form"]
        print("standard form: sign %+d, string %s" % (sf["sign"], tuple(sf["string"])), file=out)
    if "orientation_reversal" in report:
        print("reversal:      %s" % (tuple(report["orientation_reversal"]),), file=out)
        print("embeddable:    %s" % report["embeddable"], file=out)
        if report.get("witness"):
            w = report["witness"]
            print("witness:       %s dominated by %s (rotation %d)"
                  % (tuple(w["sequence"]), tuple(w["target"]), w["rotation"]), file=out)
    if "h1" in report:
        h1 = report["h1"]
        print("H1:            Z^%d + torsion %s" % (h1["free_rank"], h1["torsion"]), file=out)


def _report_embed(args):
    d = args.d
    rev = orientation_reversal(d)
    witness = embeddability_witness(d, args.limit)
    report = {
        "input": list(d),
        "orientation_reversal": list(rev),
        "embeddable": witness is not None,
        "witness": None,
    }
    if witness is not None:
        report["witness"] = _witness_dict(witness)
    return report


def _text_embed(report, out):
    print("string:    %s" % (tuple(report["input"]),), file=out)
    print("reversal:  %s" % (tuple(report["orientation_reversal"]),), file=out)
    if report["witness"]:
        w = report["witness"]
        print("witness:   %s dominated by %s (rotation %d)"
              % (tuple(w["sequence"]), tuple(w["target"]), w["rotation"]), file=out)
    else:
        print("witness:   none", file=out)


def _cap_from_args(args):
    chosen = [
        args.d is not None,
        args.c1 is not None,
        args.n is not None,
        args.elliptic is not None,
    ]
    if sum(chosen) != 1:
        raise DomainError("cap needs exactly one of --d, --c1, --n, --elliptic")
    if args.d is not None:
        return realize_cap("hyperbolic-cycle", d=args.d)
    if args.c1 is not None:
        return realize_cap("hyperbolic-single", c1=args.c1)
    if args.n is not None:
        return realize_cap("parabolic", n=args.n)
    if args.epsilon is None:
        raise DomainError("--elliptic needs --epsilon")
    return realize_cap("elliptic-%s" % args.elliptic, epsilon=args.epsilon)


def _report_cap(args):
    cap = _cap_from_args(args)
    weights, edges = dual_graph(cap)
    report = {
        "divisor": divisor_to_dict(cap),
        "dual_graph": {
            "weights": list(weights),
            "edges": [[i, j, m] for (i, j), m in sorted(edges.items())],
        },
    }
    if len(cap) >= 2 and all(m >= 1 for m in edges.values()):
        mono = cycle_monodromy(weights, 1)
        report["boundary_monodromy"] = {
            "matrix": _mat_dict(mono),
            "trace": mono.trace,
            "edge_sign_product": 1,
        }
    return report


def _text_cap(report, out):
    comps = report["divisor"]["components"]
    amb = report["divisor"]["ambient"]
    print("ambient:   %s blown up %d times" % (amb["model"], amb["blowups"]), file=out)
    for entry in comps:
        print("  %-4s %s" % (entry["label"], entry["coords"]), file=out)
    print("weights:   %s" % _weights_str(report["dual_graph"]["weights"]), file=out)
    if "boundary_monodromy" in report:
        b = report["boundary_monodromy"]
        print("boundary:  %s (trace %d)" % (b["matrix"], b["trace"]), file=out)


def _report_fillings(args):
    res = fil.hyperbolic_filling_census(args.d, args.limit)
    inv = res.invariants
    report = {
        "input": list(res.string),
        "orientation_reversal": list(res.reversal),
        "target": list(res.target),
        "rotation": res.rotation,
        "invariants": {
            "N": inv.n_blowups,
            "b1": inv.b1,
            "b2": inv.b2,
            "b3": inv.b3,
            "c1_trivial": inv.c1_trivial,
            "class_count_bound": inv.class_count_bound,
        },
        "euler_consistent": fil.euler_consistency(res.capped, inv),
        "capped_divisor": divisor_to_dict(res.capped),
        "configurations": [divisor_to_dict(c) for c in res.configurations],
    }
    return report


def _text_fillings(report, out):
    inv = report["invariants"]
    print("string:          %s" % (tuple(report["input"]),), file=out)
    print("reversal:        %s (rotation %d used)"
          % (tuple(report["orientation_reversal"]), report["rotation"]), file=out)
    print("blowups N:       %d" % inv["N"], file=out)
    print("filling Betti:   b1=%d b2=%d b3=%d, c1 trivial: %s"
          % (inv["b1"], inv["b2"], inv["b3"], inv["c1_trivial"]), file=out)
    print("configurations:  %d (distinct up to relabelling)"
          % inv["class_count_bound"], file=out)
    print("euler check:     %s" % report["euler_consistent"], file=out)


def _solution_dict(sol: fil.ParabolicSolution):
    return {
        "model": sol.model,
        "a": sol.a,
        "b": sol.b,
        "coefficients": list(sol.coefficients),
        "N": sol.n_blowups,
        "fiber_class": list(sol.fiber_class.coords),
        "conic_class": list(sol.conic_class.coords),
        "b2_filling": sol.b2_filling,
        "b2_rank_consistent": sol.b2_rank_consistent,
    }


def _report_parabolic(args):
    n = args.n
    if n is None:
        raise DomainError("parabolic needs --n")
    raw = fil.parabolic_solutions_raw(n)
    solutions = fil._filter_parabolic(n, raw)
    report = {
        "n": n,
        "solutions": [_solution_dict(s) for s in solutions],
        "raw_counts": {model: len(entries) for model, entries in raw.items()},
        "warnings": [
            "reported b2_filling follows the classification bookkeeping; "
            "the rank identity favours b2_rank_consistent"
        ],
    }
    return report


def _text_parabolic(report, out):
    print("n = %d" % report["n"], file=out)
    for sol in report["solutions"]:
        print("  %-6s N=%d  a=%d b=%d coefficients=%s" % (
            sol["model"], sol["N"], sol["a"], sol["b"], sol["coefficients"]), file=out)
        print("         fiber %s, conic %s" % (sol["fiber_class"], sol["conic_class"]), file=out)
        print("         b2(filling)=%d (rank-consistent value %d)"
              % (sol["b2_filling"], sol["b2_rank_consistent"]), file=out)
    print("raw solutions before filters: %s" % report["raw_counts"], file=out)


def _report_distfill(args):
    n = args.n if args.n is not None else args.N
    if n is None:
        raise DomainError("distfill needs --n (family parameter)")
    res = fil.distfill_family(n, args.limit if args.limit > 50 else 50)
    report = {
        "n": n,
        "det1": res.det1,
        "det2": res.det2,
        "parity1": res.parity1,
        "parity2": res.parity2,
        "formula_det1": res.formula_det1,
        "formula_det2": res.formula_det2,
        "matches_formula": res.matches_formula,
        "invariants1": _invariants_dict(res.invariants1),
        "invariants2": _invariants_dict(res.invariants2),
    }
    if not res.matches_formula:
        report["warnings"] = ["computed determinants diverge from the closed formula"]
    return report


def _text_distfill(report, out):
    print("family parameter: %d" % report["n"], file=out)
    print("det1 = %d (%s), det2 = %d (%s)"
          % (report["det1"], report["parity1"], report["det2"], report["parity2"]), file=out)
    print("formula: %d and %d, match: %s"
          % (report["formula_det1"], report["formula_det2"], report["matches_formula"]), file=out)


def _report_contact(args):
    census = fil.tight_structure_census(args.d)
    report = {
        "input": list(census.string),
        "virtually_overtwisted": census.vot_count,
        "universally_tight": census.ut_count,
        "rotation_values": [list(v) for v in census.rotation_values],
    }
    if census.vot_count <= args.limit:
        tuples = census.rotation_tuples()
        report["rotation_tuples"] = [list(t) for t in tuples]
        report["double_cover"] = {
            str(list(t)): fil.double_cover_obstruction(census.string, t) for t in tuples
        }
    else:
        report["rotation_tuples"] = None
    return report


def _text_contact(report, out):
    print("string:                 %s" % (tuple(report["input"]),), file=out)
    print("virtually overtwisted:  %d" % report["virtually_overtwisted"], file=out)
    print("universally tight:      %d" % report["universally_tight"], file=out)
    if report.get("rotation_tuples") is not None:
        print("rotation tuples:        %s"
              % [tuple(t) for t in report["rotation_tuples"]], file=out)
    else:
        print("rotation tuples:        omitted (more than --limit; raise it to list them)",
              file=out)


def _report_lattice(args):
    if args.gram is None:
        raise DomainError("lattice needs --gram 'a,b;c,d'")
    gram = args.gram
    diag = lat.smith_diagonal(gram)
    free_rank, torsion = lat._cokernel_from_diagonal(len(gram), diag)
    report = {
        "gram": [list(r) for r in gram],
        "smith_diagonal": list(diag),
        "cokernel": {"free_rank": free_rank, "torsion": list(torsion)},
    }
    rows = len(gram)
    if rows and len(gram[0]) == rows and all(
        gram[i][j] == gram[j][i] for i in range(rows) for j in range(rows)
    ):
        inv = lat._gram_invariants(gram, diag)
        report["invariants"] = _invariants_dict(inv)
        report["negative_definite"] = lat._negative_definite(inv.signature)
    return report


def _text_lattice(report, out):
    print("gram:        %s" % report["gram"], file=out)
    print("smith form:  %s" % report["smith_diagonal"], file=out)
    print("cokernel:    Z^%d + %s" % (
        report["cokernel"]["free_rank"], report["cokernel"]["torsion"]), file=out)
    if "invariants" in report:
        inv = report["invariants"]
        print("invariants:  rank %d, det %d, %s, signature %s, divisors %s"
              % (inv["rank"], inv["det"], inv["parity"], tuple(inv["signature"]),
                 inv["elementary_divisors"]), file=out)
        print("negative definite: %s" % report["negative_definite"], file=out)


_VERBS = {
    "classify": (_report_classify, _text_classify),
    "embed": (_report_embed, _text_embed),
    "cap": (_report_cap, _text_cap),
    "fillings": (_report_fillings, _text_fillings),
    "parabolic": (_report_parabolic, _text_parabolic),
    "distfill": (_report_distfill, _text_distfill),
    "contact": (_report_contact, _text_contact),
    "lattice": (_report_lattice, _text_lattice),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="torusfill",
        description="Exact monodromy classification and filling invariants "
                    "of torus bundles over the circle.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, need_d=False):
        if need_d:
            p.add_argument("--d", type=parse_string_arg, required=True,
                           help="comma-separated monodromy string, e.g. 3,3,4,3,3")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--limit", type=int, default=14,
                       help="enumeration resource cap (default 14)")
        p.add_argument("--seed", type=int, default=None,
                       help="unused; all computations are deterministic")

    common(sub.add_parser("classify", help="trace class, standard form, reversal, homology"),
           need_d=True)
    common(sub.add_parser("embed", help="embeddability witness search"), need_d=True)

    cap = sub.add_parser("cap", help="build a cap configuration")
    cap.add_argument("--d", type=parse_string_arg, help="embeddable string (cycle cap)")
    cap.add_argument("--c1", type=int, help="single-vertex weight >= 3")
    cap.add_argument("--n", type=int, help="parabolic parameter n <= 4")
    cap.add_argument("--elliptic", choices=("left", "right"), help="elliptic cap side")
    cap.add_argument("--epsilon", type=int, help="elliptic parameter in {-1, 0, 1}")
    common(cap)

    common(sub.add_parser("fillings", help="hyperbolic filling census"), need_d=True)

    par = sub.add_parser("parabolic", help="parabolic class search")
    par.add_argument("--n", type=int, required=True)
    common(par)

    dist = sub.add_parser("distfill", help="distinguished filling family determinants")
    dist.add_argument("--n", type=int, help="family parameter N >= 0")
    dist.add_argument("--N", type=int, dest="N", help="alias of --n")
    common(dist)

    common(sub.add_parser("contact", help="tight contact structure counts"), need_d=True)

    latp = sub.add_parser("lattice", help="invariants of an explicit Gram matrix")
    latp.add_argument("--gram", type=_parse_gram,
                      help="semicolon-separated rows, e.g. '0,2;2,4'")
    common(latp)
    return parser


def run(argv=None):
    """Parse arguments, dispatch, and print the report; returns the
    process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    build, render = _VERBS[args.verb]
    started = time.monotonic()
    try:
        report = build(args)
    except (DomainError, ResourceLimitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        render(report, sys.stdout)
        for warning in report.get("warnings", ()):
            print("note: %s" % warning, file=sys.stdout)
        print("elapsed: %.3fs" % (time.monotonic() - started), file=sys.stdout)
    return 0


def main(argv=None):
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
