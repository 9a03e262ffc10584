"""Self-test of the benchmark at tiny sizes (one block per workload).

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the workloads and metrics the
benchmark prints, each with its unit; that a traced run produces the
same output digest as a plain one, so tracing changes no output; and
that tampered reports are all counted as failed, so the checks are
live.  Exits with status 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import sys

import run


def _bump(value):
    # add one to every integer in a report; every check reads some integer
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [_bump(x) for x in value]
    if isinstance(value, dict):
        return {k: _bump(v) for k, v in value.items()}
    return value


def tamper(stdout):
    if not stdout:
        return "{}\n"
    return json.dumps(_bump(json.loads(stdout)), indent=2, sort_keys=True) + "\n"


def _units(entries):
    return [(m["name"], m["unit"]) for m in entries]


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"], spec["command"]
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
    assert _units(spec["end_to_end"]) == list(run.END_TO_END)
    assert _units(spec["per_layer"]) == list(run.PER_LAYER)
    for workload in run.workloads.WORKLOADS:
        plain, plain_rec = run.measure(workload, 7, 0, 0, min_ops=1)
        traced, traced_rec = run.measure(workload, 7, 0, 1, min_ops=1)
        bad, _ = run.measure(workload, 7, 0, 0, tamper=tamper, min_ops=1)
        for result, units in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
            assert result["correct"] and result["failed"] == 0, result
            assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(units)
        assert plain_rec["digest"] == traced_rec["digest"], workload
        assert plain_rec["digest_ops"] == traced_rec["digest_ops"] == plain["attempted"]
        assert bad["failed"] == bad["attempted"] > 0, bad
        print("%s: %d ops, digest %s, traced digest equal, %d/%d tampered reports failed"
              % (workload, plain["attempted"], plain_rec["digest"][:16], bad["failed"],
                 bad["attempted"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
