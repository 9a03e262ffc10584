"""Benchmark of the torusfill command line, end to end and per layer.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs whole CLI verbs in-process through `torusfill.cli.run([..., "--json"])`
from one thread: a closed loop with one client, each call issued when the
previous one has returned.  The library is imported from `src/` next to
this directory, in a fresh interpreter per run, so module-level caches
start cold as they do for every CLI call.

With `--trace 0` the run measures whole blocks of its workload until at
least `--seconds` of calls have run, and reports the end-to-end metrics.
With `--trace 1` it runs the first blocks of the same stream (the digest
prefix), each call once plain and once with span tracing installed,
alternating which goes first, and reports the per-layer metrics.  Every
report is checked after its call, outside the timed span.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it is the run record: Python version, CPU
count, git commit, seed, op count and the sha256 of the concatenated
`--json` output of the digest prefix, which equal seeds and
byte-identical reports reproduce exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Calls per run before percentiles are taken: p90 keeps ten samples
# beyond it.
MIN_OPS = 100
# A run stops starting new calls after this much wall time, so that it
# exits well inside three minutes even on a much slower program.
WALL_LIMIT_S = 150.0
# Set-up samples per run, and the wall time between two of them.
SETUP_SAMPLES = 11
SETUP_EVERY_S = 2.5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

TIMED_SPANS = (
    "divisor.HClass.dot",
    "fillings.parabolic_solutions_raw",
    "blowup.enumerate_blowups",
    "lattice.signature",
    "lattice.smith_normal_form",
    "sl2z.orientation_reversal",
)
PER_LAYER = (
    [("%s.self_s" % layer, "s") for layer in tracing.LAYERS]
    + [("%s.calls" % layer, "count") for layer in tracing.LAYERS]
    + [("%s.calls" % name, "count") for name in TIMED_SPANS]
    + [("%s.s" % name, "s") for name in TIMED_SPANS + (
        "blowup.embeddability_witness",
        "blowup.path_to",
        "lattice.determinant",
        "lattice.is_negative_definite",
        "lattice.orthogonal_complement",
        "lattice.gram_matrix",
        "sl2z.hyperbolic_standard_form",
        "sl2z.torus_bundle_h1",
    )]
    + [
        ("divisor.cycle_cap_from_path.calls", "count"),
        ("blowup.iter_blowup_paths.chains", "count"),
        ("fillings.census.classes_per_chain", "ratio"),
        ("lattice.smith_normal_form.max_bits", "bits"),
        ("lattice.smith_normal_form.max_dim", "rows"),
        ("trace_overhead_frac", "ratio"),
    ]
)


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def import_seconds():
    """Time for a fresh interpreter to import torusfill.cli, timed inside
    the child."""
    code = ("import time; t = time.perf_counter(); import torusfill.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def call(cli, op):
    """Run one CLI call; returns (seconds, exit status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            status = cli.run(list(op.argv) + ["--json"])
        except SystemExit as exc:
            status = exc.code
        except Exception:  # the op boundary: record the failure, keep running
            status = "raised " + traceback.format_exc(limit=-3).strip().splitlines()[-1]
        elapsed = perf_counter() - start
    return elapsed, status, out.getvalue()


class Run:
    """Counts, failures and the output digest of one run."""

    def __init__(self, digest_ops, tamper=None):
        self.digest_ops = digest_ops
        self.tamper = tamper
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failures = []

    def record(self, op, status, stdout, reason=None):
        if self.tamper is not None:
            stdout = self.tamper(stdout)
        if self.attempted < self.digest_ops:
            self.digest.update(stdout.encode())
        self.attempted += 1
        reason = reason or checks.check(op, status, stdout)
        if reason is not None:
            self.failures.append("%s: %s" % (" ".join(op.argv)[:80], reason))

    def summary(self):
        return {
            "ops": self.attempted,
            "digest": self.digest.hexdigest(),
            "digest_ops": min(self.attempted, self.digest_ops),
            "failed_frac": len(self.failures) / max(1, self.attempted),
            "failures": self.failures[:5],
        }


def untraced(cli, stream, min_blocks, block_len, seconds, tamper=None):
    """Whole blocks until `seconds` of calls have run and at least
    min_blocks blocks are done; the first min_blocks are digested.

    Set-up is sampled between blocks, once per SETUP_EVERY_S of wall
    time and topped up to SETUP_SAMPLES at the end, so its median spans
    the same stretch of machine time as the calls.  One untimed import
    first writes the bytecode cache, as the first call after
    installation does.  Peak RSS is read when the digest prefix is
    done, so it covers the same calls in every run."""
    run = Run(min_blocks * block_len, tamper)
    latencies, setups = [], []
    busy = 0.0
    rss_kb = None
    import_seconds()
    wall0 = last_setup = perf_counter()

    def late():
        return perf_counter() - wall0 > WALL_LIMIT_S

    blocks = 0
    while (blocks < min_blocks or busy < seconds) and not late():
        for op in next(stream):
            if late():
                break
            elapsed, status, stdout = call(cli, op)
            busy += elapsed
            latencies.append(elapsed)
            run.record(op, status, stdout)
        else:
            blocks += 1
            if blocks == min_blocks:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if perf_counter() - last_setup >= SETUP_EVERY_S:
                setups.append(import_seconds())
                last_setup = perf_counter()
    while len(setups) < SETUP_SAMPLES:
        setups.append(import_seconds())
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * deciles[8],
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    info = dict(run.summary(), blocks=blocks, busy_s=busy, latency_samples=len(latencies),
                setup_samples=len(setups))
    return run, metrics, info


def traced(cli, stream, min_blocks, block_len, tamper=None):
    """The digest prefix, each call run plain and traced in alternating
    order; the traced report must equal the plain one byte for byte."""
    run = Run(min_blocks * block_len, tamper)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    for _ in range(min_blocks):
        for op in next(stream):
            order = (False, True) if run.attempted % 2 == 0 else (True, False)
            results = {}
            for with_trace in order:
                if with_trace:
                    tracer.install(run.attempted)
                try:
                    results[with_trace] = call(cli, op)
                finally:
                    tracer.uninstall()
            plain_s += results[False][0]
            traced_s += results[True][0]
            _, status, stdout = results[True]
            differs = results[False][1:] != results[True][1:]
            run.record(op, status, stdout, "traced output differs" if differs else None)
    table = tracer.table()
    metrics = layer_metrics(table, tracer, traced_s / plain_s - 1)
    info = dict(run.summary(), spans=tracer.spans(), plain_s=plain_s, traced_s=traced_s)
    return run, metrics, info


def layer_metrics(table, tracer, overhead):
    values = {}
    for name, (calls, total, own) in table.items():
        layer = name.split(".")[0]
        values["%s.calls" % name] = calls
        values["%s.s" % name] = total
        values["%s.calls" % layer] = values.get("%s.calls" % layer, 0) + calls
        values["%s.self_s" % layer] = values.get("%s.self_s" % layer, 0.0) + own
    values["blowup.iter_blowup_paths.chains"] = tracer.chains
    values["fillings.census.classes_per_chain"] = (
        tracer.census_classes / tracer.chains if tracer.chains else 0.0)
    values["lattice.smith_normal_form.max_bits"] = tracer.snf_max_bits
    values["lattice.smith_normal_form.max_dim"] = tracer.snf_max_dim
    values["trace_overhead_frac"] = overhead
    return {name: values[name] for name, _ in PER_LAYER}


def measure(workload, seed, seconds, trace, tamper=None, min_ops=MIN_OPS):
    """One run of at least min_ops calls; returns (result line, record).
    `tamper(stdout)` may rewrite reports before they are checked,
    to show that the checks catch wrong output."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from torusfill import cli

    stream = workloads.blocks(workload, seed)
    first = next(stream)
    stream = itertools.chain([first], stream)
    min_blocks = -(-min_ops // len(first))
    gc.collect()
    if trace:
        run, values, info = traced(cli, stream, min_blocks, len(first), tamper)
        units = PER_LAYER
    else:
        run, values, info = untraced(cli, stream, min_blocks, len(first), seconds, tamper)
        units = END_TO_END
    record = dict(info, workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  python=platform.python_version(), nproc=os.cpu_count(), commit=commit())
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torusfill" / "cli.py").is_file():
        print("error: no torusfill sources under %s" % SRC, file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    for failure in record["failures"]:
        print("failed: %s" % failure, file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
