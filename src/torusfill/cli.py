"""Command-line front end.

Verbs: classify, embed, cap, fillings, parabolic, distfill, contact,
lattice.  Every verb prints a human-readable report by default and a
JSON document with --json.  JSON output is deterministic (sorted keys,
no timing field); elapsed time is shown in text mode only.  The
distfill report and its two invariants, the lattice invariants, the
classify h1 and the classify and embed witness are copies of the fields
of their result dataclasses (dict(vars(result))), so a field added to
one of those is reported without an edit here.  The classify and embed
reports take their reversal, embeddability and witness from one helper,
_embedding.  The cap verb builds its cap through divisor.realize_cap,
and the cap and fillings reports hold their Divisors themselves, which
_json_text writes as their divisor_to_dict documents.

run builds its argparse parser once per process, at its first call, and
every later call parses with that same parser.

Exit codes: 0 on success, 1 on domain or resource errors (diagnostic on
stderr) and, from main, when the reader closes stdout early (silently),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import fillings as fil
from . import lattice as lat
from .blowup import DEFAULT_LIMIT, embeddability_witness
from .divisor import (
    Divisor,
    cycle_monodromy,
    divisor_to_indented_json,
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
        # classify omits an absent witness, which embed writes as null;
        # the witness is the one field that can be None
        report.update((key, value) for key, value in _embedding(d, args.limit).items()
                      if value is not None)
    else:
        warnings.append("string is not standard; reversal and embeddability skipped")
    if mat.trace != 2:
        report["h1"] = dict(vars(torus_bundle_h1(mat)))
    else:
        warnings.append("trace-2 parabolic: first homology torsion not computed")
    if warnings:
        report["warnings"] = warnings
    return report


def _text_classify(report):
    print("string:        %s" % (tuple(report["input"]),))
    print("monodromy:     %s  (trace %d, %s)"
          % (report["matrix"], report["trace"], report["class"]))
    if "standard_form" in report:
        sf = report["standard_form"]
        print("standard form: sign %+d, string %s" % (sf["sign"], tuple(sf["string"])))
    if "orientation_reversal" in report:
        print("reversal:      %s" % (tuple(report["orientation_reversal"]),))
        print("embeddable:    %s" % report["embeddable"])
        if report.get("witness"):
            w = report["witness"]
            print("witness:       %s dominated by %s (rotation %d)"
                  % (tuple(w["sequence"]), tuple(w["target"]), w["rotation"]))
    if "h1" in report:
        h1 = report["h1"]
        print("H1:            Z^%d + torsion %s" % (h1["free_rank"], list(h1["torsion"])))


def _embedding(d, limit):
    """The orientation reversal, embeddability and witness (None when
    there is none) of the standard string d: the fields the classify
    and embed reports share."""
    rev = orientation_reversal(d)
    witness = embeddability_witness(d, limit)
    return {
        "orientation_reversal": list(rev),
        "embeddable": witness is not None,
        "witness": None if witness is None else dict(vars(witness)),
    }


def _report_embed(args):
    return {"input": list(args.d), **_embedding(args.d, args.limit)}


def _text_embed(report):
    print("string:    %s" % (tuple(report["input"]),))
    print("reversal:  %s" % (tuple(report["orientation_reversal"]),))
    if report["witness"]:
        w = report["witness"]
        print("witness:   %s dominated by %s (rotation %d)"
              % (tuple(w["sequence"]), tuple(w["target"]), w["rotation"]))
    else:
        print("witness:   none")


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
        return realize_cap("hyperbolic-cycle", d=args.d, limit=args.limit)
    if args.c1 is not None:
        return realize_cap("hyperbolic-single", c1=args.c1)
    if args.n is not None:
        return realize_cap("parabolic", n=args.n)
    if args.epsilon is None:
        raise DomainError("--elliptic needs --epsilon")
    return realize_cap("elliptic-" + args.elliptic, epsilon=args.epsilon)


def _report_cap(args):
    cap = _cap_from_args(args)
    weights, edges = dual_graph(cap)
    # every cap builder ends in divisor._cap, which certifies a cycle of
    # at least two spheres with positive edges
    mono = cycle_monodromy(weights, 1)
    return {
        "divisor": cap,
        "dual_graph": {
            "weights": list(weights),
            "edges": [[i, j, m] for (i, j), m in sorted(edges.items())],
        },
        "boundary_monodromy": {
            "matrix": _mat_dict(mono),
            "trace": mono.trace,
            "edge_sign_product": 1,
        },
    }


def _text_cap(report):
    cap = report["divisor"]
    print("ambient:   %s blown up %d times" % (cap.ambient.model, cap.ambient.blowups))
    for label, c in zip(cap.labels, cap.components):
        print("  %-4s %s" % (label, list(c.coords)))
    print("weights:   %s" % _weights_str(report["dual_graph"]["weights"]))
    b = report["boundary_monodromy"]
    print("boundary:  %s (trace %d)" % (b["matrix"], b["trace"]))


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
        "capped_divisor": res.capped,
        "configurations": res.configurations,
    }
    return report


def _text_fillings(report):
    inv = report["invariants"]
    print("string:          %s" % (tuple(report["input"]),))
    print("reversal:        %s (rotation %d used)"
          % (tuple(report["orientation_reversal"]), report["rotation"]))
    print("blowups N:       %d" % inv["N"])
    print("filling Betti:   b1=%d b2=%d b3=%d, c1 trivial: %s"
          % (inv["b1"], inv["b2"], inv["b3"], inv["c1_trivial"]))
    print("configurations:  %d (distinct up to relabelling)"
          % inv["class_count_bound"])
    print("euler check:     %s" % report["euler_consistent"])


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


def _text_parabolic(report):
    print("n = %d" % report["n"])
    for sol in report["solutions"]:
        print("  %-6s N=%d  a=%d b=%d coefficients=%s" % (
            sol["model"], sol["N"], sol["a"], sol["b"], sol["coefficients"]))
        print("         fiber %s, conic %s" % (sol["fiber_class"], sol["conic_class"]))
        print("         b2(filling)=%d (rank-consistent value %d)"
              % (sol["b2_filling"], sol["b2_rank_consistent"]))
    print("raw solutions before filters: %s" % report["raw_counts"])


def _report_distfill(args):
    n = args.n if args.n is not None else args.N
    if n is None:
        raise DomainError("distfill needs --n (family parameter)")
    res = fil.distfill_family(n, max(args.limit, 50))
    report = dict(vars(res), invariants1=dict(vars(res.invariants1)),
                  invariants2=dict(vars(res.invariants2)))
    if not res.matches_formula:
        report["warnings"] = ["computed determinants diverge from the closed formula"]
    return report


def _text_distfill(report):
    print("family parameter: %d" % report["n"])
    print("det1 = %d (%s), det2 = %d (%s)"
          % (report["det1"], report["parity1"], report["det2"], report["parity2"]))
    print("formula: %d and %d, match: %s"
          % (report["formula_det1"], report["formula_det2"], report["matches_formula"]))


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


def _text_contact(report):
    print("string:                 %s" % (tuple(report["input"]),))
    print("virtually overtwisted:  %d" % report["virtually_overtwisted"])
    print("universally tight:      %d" % report["universally_tight"])
    if report.get("rotation_tuples") is not None:
        print("rotation tuples:        %s"
              % [tuple(t) for t in report["rotation_tuples"]])
    else:
        print("rotation tuples:        omitted (more than --limit; raise it to list them)")


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
    try:
        # the parser gives nonempty integer rows of one length, so the
        # one refusal left is a Gram that is not a symmetric form
        inv = lat._gram_invariants(gram, diag)
    except DomainError:
        return report
    report["invariants"] = dict(vars(inv))
    report["negative_definite"] = lat._negative_definite(inv.signature)
    return report


def _text_lattice(report):
    print("gram:        %s" % report["gram"])
    print("smith form:  %s" % report["smith_diagonal"])
    print("cokernel:    Z^%d + %s" % (
        report["cokernel"]["free_rank"], report["cokernel"]["torsion"]))
    if "invariants" in report:
        inv = report["invariants"]
        print("invariants:  rank %d, det %d, %s, signature %s, divisors %s"
              % (inv["rank"], inv["det"], inv["parity"], tuple(inv["signature"]),
                 list(inv["elementary_divisors"])))
        print("negative definite: %s" % report["negative_definite"])


def _args_d(p):
    p.add_argument("--d", type=parse_string_arg, required=True,
                   help="comma-separated monodromy string, e.g. 3,3,4,3,3")


def _args_cap(p):
    p.add_argument("--d", type=parse_string_arg, help="embeddable string (cycle cap)")
    p.add_argument("--c1", type=int, help="single-vertex weight >= 3")
    p.add_argument("--n", type=int, help="parabolic parameter n <= 4")
    p.add_argument("--elliptic", choices=("left", "right"), help="elliptic cap side")
    p.add_argument("--epsilon", type=int, help="elliptic parameter in {-1, 0, 1}")


def _args_distfill(p):
    p.add_argument("--n", type=int, help="family parameter N >= 0")
    p.add_argument("--N", type=int, dest="N", help="alias of --n")


def _args_lattice(p):
    p.add_argument("--gram", type=_parse_gram, help="semicolon-separated rows, e.g. '0,2;2,4'")


# verb -> (report, text, help, adder of the verb's own arguments); the adders
# run once, at the first call of run, so `type=` callables are looked up
# then, not at import
_VERBS = {
    "classify": (_report_classify, _text_classify,
                 "trace class, standard form, reversal, homology", _args_d),
    "embed": (_report_embed, _text_embed, "embeddability witness search", _args_d),
    "cap": (_report_cap, _text_cap, "build a cap configuration", _args_cap),
    "fillings": (_report_fillings, _text_fillings, "hyperbolic filling census", _args_d),
    "parabolic": (_report_parabolic, _text_parabolic, "parabolic class search",
                  lambda p: p.add_argument("--n", type=int, required=True)),
    "distfill": (_report_distfill, _text_distfill,
                 "distinguished filling family determinants", _args_distfill),
    "contact": (_report_contact, _text_contact, "tight contact structure counts", _args_d),
    "lattice": (_report_lattice, _text_lattice, "invariants of an explicit Gram matrix",
                _args_lattice),
}


@functools.cache
def _build_parser():
    # parse_args leaves a parser unchanged, so one build serves every call
    parser = argparse.ArgumentParser(
        prog="torusfill",
        description="Exact monodromy classification and filling invariants "
                    "of torus bundles over the circle.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, _, help_text, add_args) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        add_args(p)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        # distfill bounds its family parameter by max(--limit, 50), so -h
        # states 50 as its default
        p.add_argument("--limit", type=int,
                       default=50 if verb == "distfill" else DEFAULT_LIMIT,
                       help="enumeration resource cap (default %(default)s)")
        p.add_argument("--seed", type=int, default=None,
                       help="unused; all computations are deterministic")
    return parser


_escape = json.encoder.encode_basestring_ascii
_INT, _STR = frozenset({int}), frozenset({str})


def _json_text(value):
    """json.dumps(value, indent=2, sort_keys=True, default=divisor_to_dict),
    byte for byte, for the values reports hold.

    indent= forces the pure-Python encoder, so reports are written here:
    dispatch is on the exact type (a bool is never taken for an int),
    strings are escaped to ASCII as json.dumps escapes them, an all-int
    list is one join, and each depth's newline-plus-indent is built once
    per call.  A Divisor (of exact type) is written by
    divisor_to_indented_json at its depth, so the cap and fillings
    reports keep their caps as they are.  A value of any other type (a
    float, a subclass, a dict with a non-str key; none of them holding a
    Divisor) is handed to json.dumps and its text re-indented to its
    depth; escaped strings hold no newline, so every newline in that
    text is a line break of the layout.
    """
    newlines = ["\n"]

    def write(v, depth):
        t = type(v)
        if t is str:
            return _escape(v)
        if t is int:
            return int.__repr__(v)
        if v is None:
            return "null"
        if t is bool:
            return "true" if v else "false"
        if t is Divisor:
            return divisor_to_indented_json(v, newlines[depth])
        if t is list or t is tuple or t is dict:
            if not v:
                return "{}" if t is dict else "[]"
            if depth + 1 == len(newlines):
                newlines.append(newlines[depth] + "  ")
            inner, close = newlines[depth + 1], newlines[depth]
            sep = "," + inner
            if t is not dict:
                if {*map(type, v)} == _INT:
                    return "[" + inner + sep.join(map(int.__repr__, v)) + close + "]"
                return "[" + inner + sep.join([write(x, depth + 1) for x in v]) + close + "]"
            if {*map(type, v)} == _STR:
                return "{" + inner + sep.join(
                    [_escape(k) + ": " + write(v[k], depth + 1) for k in sorted(v)]
                ) + close + "}"
        return json.dumps(v, indent=2, sort_keys=True).replace("\n", newlines[depth])

    return write(value, 0)


def run(argv=None):
    """Parse arguments, dispatch, and print the report; returns the
    process exit status."""
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    build, render = _VERBS[args.verb][:2]
    started = time.monotonic()
    try:
        report = build(args)
    except (DomainError, ResourceLimitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(_json_text(report))
    else:
        render(report)
        for warning in report.get("warnings", ()):
            print("note: %s" % warning)
        print("elapsed: %.3fs" % (time.monotonic() - started))
    return 0


def main(argv=None):
    """run, with a reader that closed the pipe early ending in status 1
    and no traceback (the recipe of the `signal` module's docs)."""
    try:
        status = run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the flush at interpreter exit would raise again: send what is
        # left of stdout to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
