"""Output checks, one per kind of operation.

Each check reads the `--json` report of one call and tests it against
the benchmark's own arithmetic in `model`, never against the library.
A check returns None when the report is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
from math import prod

import model


def _witness(d, witness):
    """A witness is a blowup of (0, 0), with sum 3(l - 2), dominated by
    a target that is a rotation of the reversal."""
    seq, target = tuple(witness["sequence"]), tuple(witness["target"])
    c = model.reversal(d)
    if not model.is_rotation(c, target):
        return "witness target %s is not a rotation of the reversal %s" % (target, c)
    if len(seq) != len(c) or sum(seq) != 3 * (len(c) - 2) or not model.is_origin_blowup(seq):
        return "witness %s is not a blowup of (0, 0) of length %d" % (seq, len(c))
    if not all(x <= y for x, y in zip(seq, target)):
        return "witness %s is not dominated by %s" % (seq, target)
    return None


def _embedding(d, r):
    c = model.reversal(d)
    if tuple(r["orientation_reversal"]) != c:
        return "reversal %s, expected %s" % (r["orientation_reversal"], c)
    if r["embeddable"] != model.embeddable(d):
        return "embeddable is %s" % r["embeddable"]
    if r["embeddable"] != (r.get("witness") is not None):
        return "embeddable flag disagrees with the witness"
    return _witness(d, r["witness"]) if r.get("witness") else None


def check_classify(d, r):
    (a, b), (c, e) = model.product(d)
    trace = a + e
    if "matrix" in r and r["matrix"] != [[a, b], [c, e]]:
        return "matrix %s, expected %s" % (r["matrix"], [[a, b], [c, e]])
    if r["trace"] != trace:
        return "trace %s, expected %d" % (r["trace"], trace)
    if trace != 2 and prod(r["h1"]["torsion"]) != abs(2 - trace):
        return "H1 torsion %s for trace %d" % (r["h1"]["torsion"], trace)
    if model.is_standard(d):
        return _embedding(d, r)
    return None


def check_embed(d, r):
    return _embedding(d, r)


def check_cap(d, r):
    div = r["divisor"]
    if div["ambient"]["model"] != "CP2":
        return "cap ambient %s" % div["ambient"]["model"]
    coords = [entry["coords"] for entry in div["components"]]
    total = [sum(col) for col in zip(*coords)]
    anticanonical = [3] + [-1] * div["ambient"]["blowups"]
    if total != anticanonical:
        return "component classes sum to %s, not the anticanonical class" % total
    return None


def check_contact(d, r):
    if r["virtually_overtwisted"] != prod(x - 1 for x in d):
        return "contact count %s for %s" % (r["virtually_overtwisted"], d)
    return None


def check_fillings(d, r):
    if r["euler_consistent"] is not True:
        return "euler_consistent is %s" % r["euler_consistent"]
    if r["invariants"]["class_count_bound"] != len(r["configurations"]):
        return "class_count_bound %s for %d configurations" % (
            r["invariants"]["class_count_bound"], len(r["configurations"]))
    if tuple(r["target"]) != model.census_target(d):
        return "census target %s, expected %s" % (r["target"], model.census_target(d))
    return None


def check_parabolic(n, r):
    sols = r["solutions"]
    if len(sols) != 2 or any(s["b2_filling"] != 4 - n for s in sols):
        return "parabolic n=%d solutions %s" % (n, [s["b2_filling"] for s in sols])
    return None


def check_distfill(n, r):
    det1 = (-1) ** (n + 1) * (9 * n + 20)
    if r["matches_formula"] is not True or (r["det1"], r["det2"]) != (det1, 9 * det1):
        return "distfill n=%d determinants %s, %s" % (n, r["det1"], r["det2"])
    return None


def check_dense(gram, r):
    if r["gram"] != [list(row) for row in gram]:
        return "gram echoed wrongly"
    det = model.determinant(gram)
    if r["invariants"]["det"] != det:
        return "det %s, expected %d" % (r["invariants"]["det"], det)
    if abs(det) != prod(r["smith_diagonal"]):
        return "|det| %d differs from the Smith diagonal product" % abs(det)
    return None


def check_plumbing(gram, r):
    if r.get("negative_definite") is not True:
        return "plumbing Gram not reported negative definite"
    return check_dense(gram, r)


_CHECKS = {
    "classify": check_classify,
    "embed": check_embed,
    "cap": check_cap,
    "contact": check_contact,
    "fillings": check_fillings,
    "parabolic": check_parabolic,
    "distfill": check_distfill,
    "dense": check_dense,
    "plumbing": check_plumbing,
}


def check(op, status, stdout):
    """None when the call exited as expected and its report passes its
    check, else the reason it failed."""
    if status != op.expect:
        return "exit status %r, expected %d" % (status, op.expect)
    if op.expect != 0:
        return "stdout not empty on refusal" if stdout else None
    try:
        report = json.loads(stdout)
        return _CHECKS[op.check](op.arg, report)
    except (ValueError, KeyError, TypeError) as exc:
        return "malformed report: %s: %s" % (type(exc).__name__, exc)
