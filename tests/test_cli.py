import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock, patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusfill import cli, fillings, lattice
from torusfill.blowup import dominates
from torusfill.cli import _parse_gram, main, parse_string_arg, run
from torusfill.divisor import divisor_from_dict, divisor_to_dict, dual_graph, realize_cap
from torusfill.errors import DomainError
from torusfill.lattice import cycle_graph_gram, tree_graph_gram
from torusfill.sl2z import is_standard_string, orientation_reversal

from test_blowup import iter_blowup_paths, level_blowups
from test_lattice import bareiss_determinant, fraction_signature


def capture(capsys, argv):
    status = run(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


class TestParsing:
    def test_single(self):
        assert parse_string_arg("5") == (5,)

    def test_list(self):
        assert parse_string_arg("3,2,2") == (3, 2, 2)

    def test_bad_token(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_string_arg("3,x")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_string_arg("")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--d", "3,x"])
        assert exc.value.code == 2

    def test_missing_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


class TestClassify:
    def test_report(self, capsys):
        status, out, err = capture(capsys, ["classify", "--d", "3,3,4,3,3", "--json"])
        assert status == 0
        report = json.loads(out)
        assert report["class"] == "hyperbolic"
        assert report["orientation_reversal"] == [3, 3, 3, 2, 3, 3]
        assert report["embeddable"] is True

    def test_text_mode(self, capsys):
        status, out, err = capture(capsys, ["classify", "--d", "5"])
        assert status == 0
        assert "hyperbolic" in out and "witness" in out

    def test_json_deterministic(self, capsys):
        _, first, _ = capture(capsys, ["classify", "--d", "3,3,4,3,3", "--json"])
        _, second, _ = capture(capsys, ["classify", "--d", "3,3,4,3,3", "--json"])
        assert first == second


class TestEmbed:
    def test_witness(self, capsys):
        status, out, _ = capture(capsys, ["embed", "--d", "5", "--json"])
        report = json.loads(out)
        assert status == 0
        assert report["witness"]["sequence"] == [1, 1, 1]

    def test_no_witness(self, capsys):
        status, out, _ = capture(capsys, ["embed", "--d", "3", "--json"])
        report = json.loads(out)
        assert status == 0 and report["witness"] is None

    def test_domain_error(self, capsys):
        status, out, err = capture(capsys, ["embed", "--d", "2,2"])
        assert status == 1 and "error" in err


# cap arguments with the realize_cap kind and parameters they name
CAP_CASES = [
    (["--c1", "3"], "hyperbolic-single", {"c1": 3}),
    (["--c1", "7"], "hyperbolic-single", {"c1": 7}),
    (["--c1", "2"], "hyperbolic-single", {"c1": 2}),
    (["--n", "4"], "parabolic", {"n": 4}),
    (["--n=-3"], "parabolic", {"n": -3}),
    (["--n", "5"], "parabolic", {"n": 5}),
    (["--elliptic", "left", "--epsilon", "1"], "elliptic-left", {"epsilon": 1}),
    (["--elliptic", "right", "--epsilon=-1"], "elliptic-right", {"epsilon": -1}),
    (["--elliptic", "right", "--epsilon", "2"], "elliptic-right", {"epsilon": 2}),
]

# refusals of a verb whose options argparse accepts but the verb cannot use
REFUSALS = [
    (["cap", "--elliptic", "left"], "--elliptic needs --epsilon"),
    (["distfill"], "distfill needs --n (family parameter)"),
    (["lattice"], "lattice needs --gram 'a,b;c,d'"),
]


class TestCap:
    def test_cycle_cap_round_trip(self, capsys):
        status, out, _ = capture(capsys, ["cap", "--d", "5", "--json"])
        assert status == 0
        report = json.loads(out)
        div = divisor_from_dict(report["divisor"])
        assert dual_graph(div)[0] == (1, -2, -2, -1)
        assert report["dual_graph"]["weights"] == [1, -2, -2, -1]

    def test_parabolic_cap(self, capsys):
        status, out, _ = capture(capsys, ["cap", "--n", "4", "--json"])
        report = json.loads(out)
        assert report["dual_graph"]["weights"] == [0, 4]

    def test_elliptic_cap(self, capsys):
        status, out, _ = capture(
            capsys, ["cap", "--elliptic", "left", "--epsilon", "1", "--json"]
        )
        report = json.loads(out)
        assert report["dual_graph"]["weights"] == [1, 0, 0]

    def test_needs_exactly_one_family(self, capsys):
        for argv in (["cap", "--json"], ["cap", "--n", "1", "--c1", "3"]):
            assert capture(capsys, argv) == (
                1, "", "error: cap needs exactly one of --d, --c1, --n, --elliptic\n")

    @pytest.mark.parametrize("argv, message", REFUSALS,
                             ids=[" ".join(argv) for argv, _ in REFUSALS])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_refusals_name_the_missing_option(self, capsys, argv, message, mode):
        assert capture(capsys, argv + mode) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize("argv, kind, params", CAP_CASES,
                             ids=[" ".join(argv) for argv, _, _ in CAP_CASES])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_reports_match_realize_cap(self, capsys, monkeypatch, argv, kind, params, mode):
        # the verb calls each builder directly; realize_cap's dispatch is
        # the reference for the divisor, the whole report and the errors
        got = capture(capsys, ["cap"] + argv + mode)
        try:
            reference = realize_cap(kind, **params)
        except DomainError as exc:
            assert got == (1, "", "error: %s\n" % exc)
            return
        monkeypatch.setattr(cli, "_cap_from_args", lambda args: realize_cap(kind, **params))
        want = capture(capsys, ["cap"] + argv + mode)
        if mode:
            assert json.loads(got[1])["divisor"] == divisor_to_dict(reference)
        else:
            got, want = [(s, out.split("elapsed")[0], err) for s, out, err in (got, want)]
        assert got == want and got[0] == 0


class TestFillings:
    def test_five(self, capsys):
        status, out, _ = capture(capsys, ["fillings", "--d", "5", "--json"])
        report = json.loads(out)
        assert report["invariants"]["N"] == 6
        assert report["invariants"]["b2"] == 3
        assert report["invariants"]["class_count_bound"] == 1
        assert report["euler_consistent"] is True

    def test_not_embeddable(self, capsys):
        status, out, err = capture(capsys, ["fillings", "--d", "3"])
        assert status == 1 and "error" in err

    def test_one_cap_per_endpoint(self, capsys, monkeypatch):
        # a palindromic target gets one cap per pair {s, s reversed} of
        # dominated endpoints: (E + P) // 2 caps for E endpoints of
        # which P are palindromes, fewer than E, fewer than the chains;
        # (3,)*7 and (6,)*9 are the reversals of their reversals, with
        # E = 7, P = 1 and E = 420, P = 4
        spy = Mock(wraps=fillings.cycle_cap_from_path)
        monkeypatch.setattr(fillings, "cycle_cap_from_path", spy)
        for target, calls in (((3,) * 7, 4), ((6,) * 9, 212)):
            spy.reset_mock()
            d = ",".join(map(str, orientation_reversal(target)))
            status, out, _ = capture(capsys, ["fillings", "--d", d, "--json"])
            assert status == 0
            c = tuple(json.loads(out)["orientation_reversal"])
            assert c == target
            endpoints = {s for s in level_blowups(len(c)) if dominates(s, c)}
            palindromes = sum(s == s[::-1] for s in endpoints)
            chains = sum(1 for _ in iter_blowup_paths(len(c), c))
            assert spy.call_count == calls == (len(endpoints) + palindromes) // 2
            assert calls < len(endpoints) < chains


class TestParabolicVerb:
    def test_n0(self, capsys):
        status, out, _ = capture(capsys, ["parabolic", "--n", "0", "--json"])
        report = json.loads(out)
        assert status == 0
        models = {sol["model"]: sol for sol in report["solutions"]}
        assert models["CP2"]["N"] == 5
        assert models["S2xS2"]["N"] == 4

    def test_one_raw_search(self, capsys, monkeypatch):
        spy = Mock(wraps=fillings.parabolic_solutions_raw)
        monkeypatch.setattr(fillings, "parabolic_solutions_raw", spy)
        status, out, _ = capture(capsys, ["parabolic", "--n", "2", "--json"])
        assert status == 0 and spy.call_count == 1
        report = json.loads(out)
        assert report["raw_counts"] == {
            model: len(entries) for model, entries in fillings.parabolic_solutions_raw(2).items()
        }
        assert len(report["solutions"]) == 2

    def test_n5_fails(self, capsys):
        status, out, err = capture(capsys, ["parabolic", "--n", "5"])
        assert status == 1
        assert "does not embed" in err

    def test_smallest_searched_n(self, capsys):
        status, out, _ = capture(capsys, ["parabolic", "--n=-7", "--json"])
        assert status == 0
        models = {sol["model"]: sol for sol in json.loads(out)["solutions"]}
        assert (models["CP2"]["N"], models["S2xS2"]["N"]) == (12, 11)

    @pytest.mark.parametrize("n", [-8, -50])
    def test_below_search_box_refused(self, capsys, n):
        status, out, err = capture(capsys, ["parabolic", "--n=%d" % n])
        assert status == 1 and out == ""
        assert err == (
            "error: parabolic search supports -7 <= n <= 4: the plane solution "
            "needs %d exceptional classes, the search tries 12 (n = %d)\n" % (5 - n, n)
        )


class TestDistFill:
    def test_golden(self, capsys):
        status, out, _ = capture(capsys, ["distfill", "--n", "0", "--json"])
        report = json.loads(out)
        assert (report["det1"], report["det2"]) == (-20, -180)
        assert report["matches_formula"] is True

    def test_deterministic(self, capsys):
        _, first, _ = capture(capsys, ["distfill", "--n", "2", "--json"])
        _, second, _ = capture(capsys, ["distfill", "--n", "2", "--json"])
        assert first == second

    # the family bound is max(--limit, 50): the default 50 and any lower
    # --limit allow n up to 50, and only a --limit above 50 raises it
    @pytest.mark.parametrize("argv", [["--n", "50"], ["--n", "40", "--limit", "3"],
                                      ["--n", "60", "--limit", "60"]])
    def test_limit_is_at_least_50(self, capsys, argv):
        status, out, err = capture(capsys, ["distfill"] + argv + ["--json"])
        assert (status, err) == (0, "")
        assert json.loads(out)["n"] == int(argv[1])

    def test_past_50_refused_at_default_limit(self, capsys):
        status, out, err = capture(capsys, ["distfill", "--n", "51"])
        assert (status, out) == (1, "")
        assert err == "error: family parameter 51 exceeds limit 50\n"


class TestContactVerb:
    def test_counts(self, capsys):
        status, out, _ = capture(capsys, ["contact", "--d", "4,3", "--json"])
        report = json.loads(out)
        assert report["virtually_overtwisted"] == 6
        assert report["universally_tight"] == 1
        assert len(report["rotation_tuples"]) == 6
        assert set(report["double_cover"].values()) == {"virtually overtwisted"}

    def test_large_census_omits_tuples(self, capsys):
        status, out, _ = capture(capsys, ["contact", "--d", "9,9,9,9", "--json"])
        report = json.loads(out)
        assert report["rotation_tuples"] is None
        assert report["virtually_overtwisted"] == 8 ** 4


class TestLatticeVerb:
    def test_gram_report(self, capsys):
        status, out, _ = capture(capsys, ["lattice", "--gram", "0,2;2,4", "--json"])
        report = json.loads(out)
        assert report["smith_diagonal"] == [2, 2]
        assert report["cokernel"] == {"free_rank": 0, "torsion": [2, 2]}
        assert report["negative_definite"] is False

    def test_one_smith_form(self, capsys, monkeypatch):
        spy = Mock(wraps=lattice.smith_normal_form)
        monkeypatch.setattr(lattice, "smith_normal_form", spy)
        status, out, _ = capture(capsys, ["lattice", "--gram=-2,1,0;1,-2,3;0,3,4", "--json"])
        assert status == 0 and spy.call_count == 1
        report = json.loads(out)
        gram = ((-2, 1, 0), (1, -2, 3), (0, 3, 4))
        assert report["invariants"] == {
            "rank": 3,
            "det": bareiss_determinant(gram),
            "parity": "even",
            "signature": list(fraction_signature(gram)),
            "elementary_divisors": [30],
        }

    def test_one_symmetric_elimination(self, capsys, monkeypatch):
        spy = Mock(wraps=lattice._sym_eliminate)
        monkeypatch.setattr(lattice, "_sym_eliminate", spy)
        status, out, _ = capture(capsys, ["lattice", "--gram=-2,1;1,-2", "--json"])
        assert status == 0 and spy.call_count == 1
        report = json.loads(out)
        assert report["invariants"]["signature"] == [0, 2, 0]
        assert report["negative_definite"] is True

    def test_main_entry(self, capsys):
        assert main(["lattice", "--gram", "1,0;0,1", "--json"]) == 0
        capsys.readouterr()


class TestMainReadsSysArgv:
    def test_verb_call(self, capsys, monkeypatch):
        argv = ["embed", "--d", "5", "--json"]
        monkeypatch.setattr(sys, "argv", ["torusfill"] + argv)
        assert main() == 0
        from_main = capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr() == from_main
        assert json.loads(from_main.out)["embeddable"] is True
        assert cli._build_parser() is cli._build_parser()  # built once

    def test_help(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["torusfill", "-h"])
        with pytest.raises(SystemExit) as from_main:
            main()
        main_out = capsys.readouterr()
        with pytest.raises(SystemExit) as from_run:
            run(["-h"])
        assert from_main.value.code == from_run.value.code == 0
        assert capsys.readouterr() == main_out
        assert "{classify,embed,cap,fillings,parabolic,distfill,contact,lattice}" in main_out.out


class TestResourceLimits:
    # the reversal of (17,) has length 15, one past the default limit
    @pytest.mark.parametrize("verb", ["embed", "classify", "cap"])
    def test_witness_refused(self, capsys, verb):
        status, out, err = capture(capsys, [verb, "--d", "17"])
        assert status == 1 and out == ""
        assert err == "error: enumeration of length-15 sequences exceeds limit 14\n"

    def test_census_refused(self, capsys):
        status, out, err = capture(capsys, ["fillings", "--d", "17"])
        assert status == 1 and out == ""
        assert err == "error: reversal length 15 exceeds limit 14\n"

    def test_cap_raised_limit_builds(self, capsys):
        # the reversal of (3,)*15 is itself, one past the default limit
        argv = ["cap", "--d", ",".join(["3"] * 15), "--limit", "20", "--json"]
        status, out, err = capture(capsys, argv)
        assert status == 0 and err == ""
        weights = json.loads(out)["dual_graph"]["weights"]
        assert weights == [1, -2] + [-3] * 13 + [-2]

    def test_cap_lowered_limit_refused(self, capsys):
        # the same refusal as embed with the same arguments
        for verb in ("cap", "embed"):
            status, out, err = capture(capsys, [verb, "--d", "3,3,3,3,3", "--limit", "2"])
            assert status == 1 and out == ""
            assert err == "error: enumeration of length-5 sequences exceeds limit 2\n"


# --- run's parser against a parser built by hand ------------------------------

def oracle_parser():
    """The earlier parser: every verb's subparser, built by hand."""
    parser = argparse.ArgumentParser(
        prog="torusfill",
        description="Exact monodromy classification and filling invariants "
                    "of torus bundles over the circle.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, need_d=False, limit=14):
        if need_d:
            p.add_argument("--d", type=parse_string_arg, required=True,
                           help="comma-separated monodromy string, e.g. 3,3,4,3,3")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--limit", type=int, default=limit,
                       help="enumeration resource cap (default %d)" % limit)
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
    common(dist, limit=50)  # the bound that runs: max(--limit, 50)

    common(sub.add_parser("contact", help="tight contact structure counts"), need_d=True)

    latp = sub.add_parser("lattice", help="invariants of an explicit Gram matrix")
    latp.add_argument("--gram", type=_parse_gram,
                      help="semicolon-separated rows, e.g. '0,2;2,4'")
    common(latp)
    return parser


ORACLE_PARSER = oracle_parser()  # parse_args leaves a parser unchanged
VERBS = ("classify", "embed", "cap", "fillings", "parabolic", "distfill", "contact", "lattice")
NEAR_MISSES = ("fill", "Classify", "classify ", "lat", "")


def parse_outcome(parser, argv):
    """The Namespace as a dict, or the usage exit's code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def run_outcome(argv):
    """Run argv; returns (status, stdout, stderr), with the text reports'
    elapsed time masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = run(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return status, re.sub(r"(?m)^elapsed: .*$", "elapsed:", out.getvalue()), err.getvalue()


def assert_parses_as_oracle(argv):
    """run's parser parses argv as the oracle parser does, and on a usage
    error run exits with the oracle's code and output."""
    want = parse_outcome(ORACLE_PARSER, argv)
    assert parse_outcome(cli._build_parser(), argv) == want, argv
    status, out, err = run_outcome(argv)
    if isinstance(want, tuple):
        assert (status, out, err) == want, argv
    return status, out, err


_PARSER_GRID = (
    [[], ["-h"], ["--help"], ["frobnicate"], ["fill"], ["--json", "classify", "--d", "5"]]
    + [[verb, "-h"] for verb in VERBS]
    + [[verb] for verb in VERBS]
    + [[verb, "--json", "junk"] for verb in VERBS]
    + [[verb, "--limit", "q"] for verb in VERBS]
    + [[verb, "--elliptic", "mid"] for verb in VERBS]
    + [[verb, "--gram", "1,2;3"] for verb in VERBS]
    + [["classify", "--d", "3,3", "extra"], ["cap", "--n", "2", "--elliptic", "mid"],
       ["lattice", "--gram=1,2;3,4;5", "--json"], ["distfill", "--N", "3", "--seed", "1"]]
)


@pytest.mark.parametrize("argv", _PARSER_GRID, ids=" ".join)
def test_parser_matches_oracle(argv):
    assert_parses_as_oracle(argv)


# --- every verb on small random arguments -----------------------------------

_TOKENS = st.one_of(st.integers(-1, 7).map(str), st.sampled_from(["", "x", " 3", "2.5", "+4"]))
_D_TEXT = st.lists(_TOKENS, min_size=1, max_size=5).map(",".join)
_N_TEXT = st.integers(-60, 60).map(str)
_GRAM_TEXT = st.lists(
    st.lists(st.integers(-5, 5).map(str), min_size=1, max_size=3).map(",".join),
    min_size=1, max_size=3,
).map(";".join)
_ARGV = st.one_of(
    st.tuples(st.sampled_from(["classify", "embed", "fillings", "contact"]),
              _D_TEXT.map(lambda d: ["--d=" + d])),
    st.tuples(st.just("cap"), st.one_of(
        _D_TEXT.map(lambda d: ["--d=" + d]),
        _N_TEXT.map(lambda c: ["--c1=" + c]),
        _N_TEXT.map(lambda n: ["--n=" + n]),
        st.tuples(st.sampled_from(["left", "right"]), st.integers(-2, 2)).map(
            lambda p: ["--elliptic", p[0], "--epsilon=%d" % p[1]]),
        st.just([]),
    )),
    st.tuples(st.sampled_from(["parabolic", "distfill"]), _N_TEXT.map(lambda n: ["--n=" + n])),
    st.tuples(st.just("lattice"), _GRAM_TEXT.map(lambda g: ["--gram=" + g])),
)


# every verb takes --limit; drawn at the default or below, so that no call
# does more work than at the default
_LIMIT = st.one_of(st.just([]), st.integers(0, 14).map(lambda k: ["--limit=%d" % k]))


# the shape of argv: a verb name from the real ones and near misses (None
# keeps the drawn verb), a junk positional, and --json before the verb
_NAME = st.one_of(st.none(), st.sampled_from(VERBS + NEAR_MISSES))
_JUNK = st.one_of(st.just([]), st.sampled_from(["x", "3", "-"]).map(lambda t: [t]))


def fuzz_argv(verb_args, limit, as_json, name, junk, json_first):
    verb, args = verb_args
    return ((["--json"] if json_first else []) + [verb if name is None else name]
            + args + junk + limit + (["--json"] if as_json else []))


@given(_ARGV, _LIMIT, st.booleans(), _NAME, _JUNK, st.booleans())
@settings(max_examples=300, deadline=None)
def test_fuzz_every_verb(verb_args, limit, as_json, name, junk, json_first):
    argv = fuzz_argv(verb_args, limit, as_json, name, junk, json_first)
    status, out, err = assert_parses_as_oracle(argv)
    assert status in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if status:
        assert out == "", argv


# the grid holds -h of every verb and the near-miss verbs
_ANY_ARGV = st.one_of(
    st.sampled_from(_PARSER_GRID),
    st.builds(fuzz_argv, _ARGV, _LIMIT, st.booleans(), _NAME, _JUNK, st.booleans()),
)


@given(st.lists(_ANY_ARGV, min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_calls_share_no_state(argvs):
    # one process's run over the sequence, against each argv run on a
    # freshly built parser
    in_sequence = [run_outcome(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run_outcome(argv))
    assert in_sequence == fresh, argvs


# --- the report writer against json.dumps -------------------------------------

def dumps(value):
    """The oracle: cli._json_text must print exactly this."""
    return json.dumps(value, indent=2, sort_keys=True)


_CHARS = st.one_of(
    st.characters(),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
    st.sampled_from('"\\\x00\x08\x1f\x7f\n\t\u2028\xe9\U0001f600'),
)
_TEXT = st.text(_CHARS, max_size=6)
_INTS = st.one_of(st.integers(), st.integers(-10 ** 3000, 10 ** 3000))
_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _TEXT, st.floats(),
    # bools among ints, which the all-int join must not take
    st.lists(st.one_of(_INTS, st.booleans()), max_size=5),
)
_VALUES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_TEXT, kids, max_size=4),
    st.dictionaries(_INTS, kids, max_size=3),  # json.dumps' own key rules
), max_leaves=25)


@given(_VALUES)
@example([1, True])
@example({"": [], "a": {}, "b": ()})
@example({"\ud800\"\\\x01\xe9": ["\U0001f600"]})
@settings(max_examples=400, deadline=None)
def test_writer_matches_json_dumps(value):
    assert cli._json_text(value) == dumps(value)


class _Str(str):
    pass


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("leaf", [1.5, float("nan"), {2: [1], 1: {}}, _Str("x"), [1, 2.0]])
def test_writer_hands_other_values_to_json_dumps(depth, leaf):
    value = leaf
    for i in range(depth):
        value = [0, value] if i % 2 else {"b": value, "a": [1]}
    want = dumps(value)
    with patch.object(cli.json, "dumps", wraps=json.dumps) as fallback:
        assert cli._json_text(value) == want
    assert fallback.call_count == 1


def _standard_grid():
    """Standard strings with entries 2..5, length <= 5 and sum <= 14."""
    return [d for n in range(1, 6) for d in itertools.product(range(2, 6), repeat=n)
            if sum(d) <= 14 and is_standard_string(d)]


def _csv(values):
    return ",".join(map(str, values))


def _gram_arg(rows):
    return "--gram=" + ";".join(map(_csv, rows))


_DENSE = [[3, -1, 4, 0], [-1, -5, 9, 2], [4, 9, 2, -6], [0, 2, -6, 5]]

_REPORT_GRID = (
    [[verb, "--d=" + _csv(d)] for d in _standard_grid()
     for verb in ("fillings", "cap", "classify", "embed", "contact")]
    + [["distfill", "--n=%d" % n] for n in range(21)]
    + [["parabolic", "--n=%d" % n] for n in range(-7, 5)]
    + [["cap", "--n=%d" % n] for n in range(-7, 5)]
    + [["cap", "--c1=%d" % c] for c in range(3, 9)]
    + [["cap", "--elliptic", side, "--epsilon=%d" % e]
       for side in ("left", "right") for e in (-1, 0, 1)]
    + [["lattice", _gram_arg(cycle_graph_gram(w))]
       for w in ((-2, -3), (-3, -3, -4), (-2, -2, -5, -3))]
    + [["lattice", _gram_arg(tree_graph_gram((-2, -3, -2, -4), [(0, 1), (1, 2), (1, 3)]))]]
    + [["lattice", _gram_arg(_DENSE)], ["lattice", _gram_arg([[0, 2], [2, 4]])]]
)


def test_every_report_is_printed_as_json_dumps_prints_it(capsys, monkeypatch):
    written = []
    writer = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda report: written.append(report) or writer(report))
    printed = 0
    for argv in _REPORT_GRID:
        status, out, _ = capture(capsys, argv + ["--json"])
        if status:
            assert out == "" and not written, argv
            continue
        report, = written
        assert out == dumps(report) + "\n", argv
        written.clear()
        printed += 1
    assert printed > 1700


@pytest.mark.parametrize("json_flag", [["--json"], []])
def test_closed_pipe_exits_1_without_traceback(json_flag):
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "torusfill", "fillings", "--d", "3,3,4,3,2,3"] + json_flag,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no traceback, no "Exception ignored" at exit


def _digest_grid():
    """Every argv of the pinned sweep, in order: distfill --n -2..60 and
    51..60 under --limit 60, cap and parabolic --n -9..5, cap --c1 1..19,
    both elliptic sides at epsilon -2..2, the five string verbs on every
    string over {2, 3, 4, 5} of length <= 5, and 480 seeded lattice
    Grams, one third each drawn symmetric, square and non-square."""
    grid = [["distfill", "--n", str(n)] for n in range(-2, 61)]
    grid += [["distfill", "--n", str(n), "--limit", "60"] for n in range(51, 61)]
    grid += [[verb, "--n", str(n)] for verb in ("cap", "parabolic") for n in range(-9, 6)]
    grid += [["cap", "--c1", str(c)] for c in range(1, 20)]
    grid += [["cap", "--elliptic", side, "--epsilon", str(e)]
             for side in ("left", "right") for e in range(-2, 3)]
    grid += [[verb, "--d", _csv(d)] for n in range(1, 6)
             for d in itertools.product(range(2, 6), repeat=n)
             for verb in ("cap", "fillings", "classify", "embed", "contact")]
    rng = random.Random(5)
    for k in range(480):
        rows = rng.randint(1, 5)
        cols = rows if k % 3 else rng.choice([c for c in range(1, 6) if c != rows])
        gram = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 1:
            gram = [[gram[min(i, j)][max(i, j)] for j in range(rows)] for i in range(rows)]
        grid.append(["lattice", _gram_arg(gram)])
    return grid


def _grid_digests(capsys, flags):
    """sha256 per verb over repr((argv, status, stdout, stderr)) of the
    digest grid's calls in order, each argv extended by flags, with the
    time on a text report's elapsed line removed."""
    grid = [argv + flags for argv in _digest_grid()]
    assert len(grid) == 7432
    digests = {}
    for argv in grid:
        status, out, err = capture(capsys, argv)
        out = re.sub(r"(?m)^elapsed: .*$", "elapsed:", out)
        digest = digests.setdefault(argv[0], hashlib.sha256())
        digest.update(repr((argv, status, out, err)).encode())
    return {verb: d.hexdigest() for verb, d in digests.items()}


# sha256 per verb over repr((argv, status, stdout, stderr)) of its calls in
# grid order; a change that moves one byte of a report, a refusal message
# or an exit status moves its verb's digest, and the assert names the verb
_REPORT_DIGESTS = {
    "distfill": "897f6c8a7498897330c5c9a8e2df394f6d73e061e35ffbbf13ec86ab56e14cdd",
    "cap": "af5a50d68cfbba91c1480ab770e4339304b0b4223876f65b6eb00a93eed4a860",
    "parabolic": "9d8c3dd6b743b1766d2711b19d512fcb9fe15bde315991d4b4a33930cbac0cee",
    "fillings": "f1f256ee32cb2676be80c488fc4010ad1788d57dc12bfc4bd934ff0c285369fc",
    "classify": "7228282e161fe6d836595fb8f3d7b911776078809b930121fa839bdc840bc07e",
    "embed": "3c578e1e859958316d57e0fef0d89d481162449ae10d09b241076aac868dc3bd",
    "contact": "e356b14d939fd9073858a7718276b2d20953573ac1cb3b08dd2c97f345379a60",
    "lattice": "02386f9a4b2b380d51da8e3983f734d9b7005a6a8aeb452630c584dbb0a88ab9",
}


def test_reports_match_pinned_digests(capsys):
    assert _grid_digests(capsys, ["--json"]) == _REPORT_DIGESTS


# the same sweep in text mode, which no JSON digest covers
_TEXT_DIGESTS = {
    "distfill": "197bae39b3893e3597eb243475b38cf2fcb588b9c22025f0ab0f7285ec2d9255",
    "cap": "24095d6cdf7a6a01df296a89965602d7677bdc530c66c6013b532942d65c70fa",
    "parabolic": "4210438c8896265c566f49e70a28b7ecc6062b11d526ffe4d3daa8a441e07636",
    "fillings": "2527282a6eb620d2fff427d5b2d39aad584cff03892085e051526b3d58290f92",
    "classify": "0c02b2603e828b13c3a6a25c4fc6c16a313cd8472ad292f65d073acb0505678d",
    "embed": "98c7a1ac2c614377072acca795df23316390d60834f04aaa635e22bb409f5185",
    "contact": "6fcdcfaea6779671e0f17e860e97f0d7d9323aae3c98c2d579ccd285b4983896",
    "lattice": "9b0fc10e3e691ed548dd28f60dba7b793e2eb17ad530d2140a1edd2fbb1890fc",
}


def test_text_reports_match_pinned_digests(capsys):
    assert _grid_digests(capsys, []) == _TEXT_DIGESTS
