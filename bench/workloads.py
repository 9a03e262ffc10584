"""Seeded operation streams for the three workloads.

A workload is an endless sequence of blocks.  Every block has the same
strata in the same numbers (fixed below); the seed picks the concrete
input inside each stratum and the order of the calls in a block.  Runs are measured in whole blocks,
so every run sees the same mix whatever its length, and different
seeds see inputs of matched difficulty: the strata are cut on the
quantity the library's cost follows (blowup chains for the census,
family parameter for distfill, reversal length and embeddability for
the witness scan).  Each stratum is wide enough in share of the block
that the 50th and 90th latency percentiles fall inside one stratum,
never on the edge between two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import model


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments (without --json), the exit status it
    must return, the name of the check its report gets, and the input
    that check needs."""

    argv: tuple
    expect: int
    check: str
    arg: object


def _csv(values):
    return ",".join(str(x) for x in values)


def _string_op(verb, d, expect=0, check=None):
    return Op((verb, "--d=" + _csv(d)), expect, check or verb, tuple(d))


def _gram_op(rows, check):
    text = ";".join(_csv(r) for r in rows)
    return Op(("lattice", "--gram=" + text), 0, check, tuple(tuple(r) for r in rows))


# --- census -----------------------------------------------------------------

# (reversal length, lowest and highest chain count, ops per block).
# The census builds one cap per chain, so the chain band fixes the cost;
# lengths 5-8 with entries 2-5, weighted toward the small ones.
CENSUS_STRATA = ((5, 3, 6, 8), (6, 10, 14, 7), (7, 20, 28, 6), (8, 45, 60, 4))
PARABOLIC_N = tuple(range(-4, 5))


def _embeddable_target(rng, length, top=5):
    """A standard string with entries 2..top that dominates a random
    blowup of (0, 0) of the given length."""
    while True:
        s = model.random_blowup(rng, length)
        if max(s) > top:
            continue
        c = tuple(min(top, max(x, 2) + rng.choice((0, 0, 1, 2))) for x in s)
        if model.is_standard(c):
            return c


def census_string(rng, length, lo, hi):
    """An embeddable string whose reversal has the given length and whose
    census walks between lo and hi chains.  The reversal of a rotation
    of the target is the string handed to the program."""
    for _ in range(100000):
        c = _embeddable_target(rng, length)
        d = model.reversal(c)
        if lo <= model.chain_count(model.census_target(d)) <= hi:
            return d
    raise RuntimeError("no census input of length %d in chain band %d-%d" % (length, lo, hi))


def census_blocks(rng):
    parabolic = []
    while True:
        if not parabolic:
            parabolic = list(PARABOLIC_N)
            rng.shuffle(parabolic)
        block = []
        for length, lo, hi, count in CENSUS_STRATA:
            block += [_string_op("fillings", census_string(rng, length, lo, hi))
                      for _ in range(count)]
        n = parabolic.pop()
        block.append(Op(("parabolic", "--n=%d" % n), 0, "parabolic", n))
        yield _shuffled(block, rng)


def _shuffled(block, rng):
    # the order inside a block only moves which input warms the
    # blowup-level cache first
    rng.shuffle(block)
    return block


# --- distfill ---------------------------------------------------------------

# (lowest n, highest n, ops per block).  Narrow bands keep the cost of
# each slot nearly the same across seeds; the cost grows about as n^2.5.
# The top band is four of the 26 calls, so p90 falls inside it and is
# read from four samples per block.
DISTFILL_STRATA = ((2, 4, 1), (12, 14, 1), (22, 24, 1), (32, 34, 1), (46, 48, 4))
# One plumbing Gram of each size per block, cycles and trees: these
# cheap calls are two thirds of the block, so p50 falls among them.
CYCLE_SIZES = tuple(range(3, 11))
TREE_SIZES = tuple(range(5, 13))
DENSE_SIZES = ((10, 12), (20, 22))
DENSE_ENTRY = 9


def standard_entries(rng, k, top=6):
    while True:
        d = tuple(rng.choice((2, 2, 3, 3, 4, 5, top)) for _ in range(k))
        if model.is_standard(d):
            return d


def cycle_gram(d):
    """Plumbing of a cycle of spheres with weights -d_i: negative
    definite for a standard string."""
    k = len(d)
    q = [[0] * k for _ in range(k)]
    for i in range(k):
        q[i][i] = -d[i]
    for i in range(k):
        j = (i + 1) % k
        q[i][j] += 1
        q[j][i] += 1
    return q


def tree_gram(rng, k):
    """Plumbing of a random tree with every weight -w_i, w_i at least the
    vertex degree and at least 2: then the form is minus a sum of
    squares plus (w_i - deg_i) x_i^2 terms, strict at the leaves, so it
    is negative definite."""
    while True:
        parent = [None] + [rng.randrange(i) for i in range(1, k)]
        degree = [0] * k
        for i in range(1, k):
            degree[i] += 1
            degree[parent[i]] += 1
        if max(degree) <= 3:
            break
    weights = standard_entries(rng, k)
    q = [[0] * k for _ in range(k)]
    for i in range(k):
        q[i][i] = -max(weights[i], degree[i])
    for i in range(1, k):
        q[i][parent[i]] = q[parent[i]][i] = 1
    return q


def dense_gram(rng, k):
    q = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            q[i][j] = q[j][i] = rng.randint(-DENSE_ENTRY, DENSE_ENTRY)
    return q


def distfill_blocks(rng):
    while True:
        block = []
        for lo, hi, count in DISTFILL_STRATA:
            for _ in range(count):
                n = rng.randint(lo, hi)
                block.append(Op(("distfill", "--n=%d" % n), 0, "distfill", n))
        block += [_gram_op(cycle_gram(standard_entries(rng, k)), "plumbing") for k in CYCLE_SIZES]
        block += [_gram_op(tree_gram(rng, k), "plumbing") for k in TREE_SIZES]
        block += [_gram_op(dense_gram(rng, rng.randint(lo, hi)), "dense")
                  for lo, hi in DENSE_SIZES]
        yield _shuffled(block, rng)


# --- classify ---------------------------------------------------------------

# Slots of one block: (verb, lowest and highest reversal length,
# embeddable or None for either, count).  Non-embeddable reversals of
# length 10-12 make the witness scan run over every rotation and every
# blowup; the three heaviest slots are under a tenth of the block and
# the length-10 slots sit on the 90th percentile.
CLASSIFY_SLOTS = (
    ("classify", 1, 9, None, 10),
    ("classify", 10, 10, False, 1),
    ("classify", 11, 11, False, 1),
    ("classify", 12, 12, False, 1),
    ("embed", 1, 9, None, 9),
    ("embed", 10, 10, False, 1),
    ("embed", 12, 12, False, 1),
    ("contact", 1, 12, None, 8),
)
CAP_OPS = 6
NONSTANDARD_OPS = 1  # per verb: classify (status 0) and embed (status 1)


def classify_string(rng, lo, hi, embeddable):
    """A standard string of length 1-10 whose reversal length is in
    lo..hi and, unless embeddable is None, with that embeddability."""
    for _ in range(100000):
        d = tuple(rng.choice((2, 2, 2, 3, 3, 4, 5, 6)) for _ in range(rng.randint(1, 10)))
        if not model.is_standard(d) or not lo <= len(model.reversal(d)) <= hi:
            continue
        if embeddable is None or model.embeddable(d) == embeddable:
            return d
    raise RuntimeError("no standard string with reversal length %d-%d" % (lo, hi))


def nonstandard_string(rng):
    while True:
        d = tuple(rng.choice((-1, 0, 1, 2, 2, 3)) for _ in range(rng.randint(1, 8)))
        if not model.is_standard(d):
            return d


def classify_blocks(rng):
    while True:
        block = []
        for verb, lo, hi, emb, count in CLASSIFY_SLOTS:
            block += [_string_op(verb, classify_string(rng, lo, hi, emb)) for _ in range(count)]
        block += [_string_op("cap", model.reversal(_embeddable_target(rng, rng.randint(2, 9), 6)))
                  for _ in range(CAP_OPS)]
        for _ in range(NONSTANDARD_OPS):
            block.append(_string_op("classify", nonstandard_string(rng)))
            block.append(_string_op("embed", nonstandard_string(rng), 1, "refused"))
        yield _shuffled(block, rng)


WORKLOADS = {
    "census": census_blocks,
    "distfill": distfill_blocks,
    "classify": classify_blocks,
}


def blocks(workload, seed):
    """The endless block stream of a workload; equal seeds give equal
    streams."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
