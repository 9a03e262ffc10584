import json
from unittest.mock import Mock

import pytest

from torusfill import fillings, lattice
from torusfill.blowup import dominates, enumerate_blowups
from torusfill.cli import main, parse_string_arg, run
from torusfill.divisor import divisor_from_dict, dual_graph

from test_blowup import iter_blowup_paths


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
        status, out, err = capture(capsys, ["cap", "--json"])
        assert status == 1


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
        spy = Mock(wraps=fillings.cycle_cap_from_path)
        monkeypatch.setattr(fillings, "cycle_cap_from_path", spy)
        status, out, _ = capture(capsys, ["fillings", "--d", "3,3,3,3,3,3,3", "--json"])
        assert status == 0
        c = tuple(json.loads(out)["orientation_reversal"])
        assert len(c) == 7
        endpoints = {s for s in enumerate_blowups(7) if dominates(s, c)}
        chains = sum(1 for _ in iter_blowup_paths(7, c))
        assert spy.call_count == len(endpoints) < chains


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
            "det": lattice.determinant(gram),
            "parity": "even",
            "signature": list(lattice.signature(gram)),
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
