"""Seeded workload generator for the genfrob benchmark.

A workload is a list of CLI instances. Each instance is a dict with the
argv passed to ``genfrob.cli.main`` and, for sublattice instances, the
multipliers m_i of the basis file (m_1*K_1, m_2*K_2, ...) built from the
kernel basis K. The kernel basis and the Frobenius oracle below are
computed here, independently of the program under test, so the inputs
depend only on the seed.

The default seed yields the fixed instance lists named in README.md.
Any other seed keeps each instance's command and k and draws its weights
(and multipliers) from a pool of nearby inputs, so that a claim can be
checked on inputs it was not tuned on. Each pool holds the inputs whose
time on the reference commit, measured in alternation with the default
instance, came within about 5% of the default's (25% for instances that
take under 0.5 s), so that one pass costs about the same on every seed.
"""
from __future__ import annotations

import random

DEFAULT_SEED = 0

WORKLOADS = ("frobenius-large", "module-deep", "poset-wide", "verify-sublattice")

# Pools of weight vectors near each default instance. The first entry of
# every pool is the default.
MODULE3_POOL = ((13, 17, 29), (13, 17, 28), (14, 17, 29), (13, 15, 29))
MODULE4_POOL = ((5, 7, 11, 13), (5, 7, 11, 14), (5, 7, 11, 15))
IDEAL7_POOL = ((11, 13, 17, 19, 23, 29, 31), (11, 13, 17, 19, 23, 29, 37),
               (11, 13, 17, 19, 25, 29, 31))
POSET_K_POOL = ((13, 17, 29), (11, 17, 29))
# No input near these two came within 5% of their time (8% to 60% off),
# so they are the same on every seed.
VERIFY3_POOL = (((7, 9, 11), (1, 3)),)
VERIFY3B_POOL = (((11, 13, 17), (1, 2)),)
VERIFY4_POOL = (((5, 7, 11, 13), (1, 1, 2)), ((5, 7, 11, 14), (1, 1, 2)))
SEQUENCE_POOL = (((101, 103, 107), (1, 5)), ((101, 103, 107), (5, 1)),
                 ((103, 105, 109), (1, 5)), ((99, 101, 105), (1, 5)),
                 ((101, 105, 107), (1, 5)))
# Weight vectors that contain 1: verify gives a false MISMATCH on all of
# them today (ROADMAP item 4b), so the probe fails on every seed.
PROBE_POOL = ((1, 4, 7), (1, 3, 5), (1, 5, 8), (1, 2), (1, 3))

# Triples in 29..47 whose structure poset has 289 to 299 elements (the
# default has 294) and whose poset time stayed within about 3%.
STRUCTURE_POOL = ((31, 37, 41), (29, 40, 41), (31, 34, 42), (31, 39, 42), (33, 34, 43))


def _w(weights) -> str:
    return ",".join(str(x) for x in weights)


def _inst(argv, basis=None, probe=False):
    return {"argv": list(argv), "basis": list(basis) if basis else None, "probe": probe}


def kernel_basis(weights):
    """Kernel basis of the weight row, by unimodular column reduction."""
    n = len(weights)
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    row = list(weights)
    for j in range(1, n):
        g, x, y = _xgcd(row[0], row[j])
        c0, cj = row[0] // g, row[j] // g
        for i in range(n):
            p, q = V[i][0], V[i][j]
            V[i][0] = x * p + y * q
            V[i][j] = -cj * p + c0 * q
        row[0], row[j] = g, 0
    return [tuple(V[i][j] for i in range(n)) for j in range(1, n)]


def _xgcd(a, b):
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a - (a // b) * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def basis_lines(weights, multipliers) -> str:
    """Basis file text for the sublattice (m_1*K_1, m_2*K_2, ...)."""
    vectors = kernel_basis(weights)
    return "".join(
        " ".join(str(m * x) for x in v) + "\n" for m, v in zip(multipliers, vectors)
    )


def kth_thresholds(weights, k):
    """Per residue r mod a_1, the k-th smallest sum of a_2..a_n (with
    multiplicity) congruent to r. Degrees d with fewer than k
    representations in N^n are exactly those below the threshold of
    their residue. Kernel lattice only.
    """
    a1, rest = weights[0], weights[1:]
    bound = 8 * a1
    while True:
        sums = [0]
        for w in rest:
            sums = [s + j * w for s in sums for j in range((bound - s) // w + 1)]
        buckets = [[] for _ in range(a1)]
        for s in sums:
            buckets[s % a1].append(s)
        if all(len(b) >= k for b in buckets):
            return [sorted(b)[k - 1] for b in buckets]
        bound *= 2


def frobenius_oracle(weights, k):
    """(F_k, m_k) of the kernel lattice from the residue thresholds."""
    t = kth_thresholds(weights, k)
    return max(t) - weights[0], min(t)


def build(workload: str, seed: int) -> list[dict]:
    """The instance list of one workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    default = seed == DEFAULT_SEED

    def pick(pool):
        return pool[0] if default else rng.choice(pool)

    if workload == "frobenius-large":
        a = 1001 if default else rng.randrange(995, 1009, 2)
        w = _w((a, a + 2, a + 6))
        return [
            _inst(["frobenius", "-a", w, "-k", "1"]),
            _inst(["frobenius", "-a", w, "-k", "20", "--format", "json"]),
        ]
    if workload == "module-deep":
        w4 = _w(pick(MODULE4_POOL))
        return [
            _inst(["module", "-a", _w(pick(MODULE3_POOL)), "-k", "7", "--format", "json"]),
            _inst(["module", "-a", w4, "-k", "5", "--format", "json"]),
            _inst(["ball", "-a", w4, "-k", "4", "--format", "json"]),
            _inst(["ideal", "-a", _w(pick(IDEAL7_POOL)), "--format", "json"]),
        ]
    if workload == "poset-wide":
        return [
            _inst(["poset", "-a", _w(pick(STRUCTURE_POOL)), "--format", "json"]),
            _inst(["poset", "-a", _w(pick(POSET_K_POOL)), "-k", "4", "--format", "json"]),
        ]
    out = []
    for pool in (VERIFY3_POOL, VERIFY3B_POOL, VERIFY4_POOL):
        w, mult = pick(pool)
        out.append(_inst(["verify", "-a", _w(w), "--k-max", "4"], mult))
    w, mult = pick(SEQUENCE_POOL)
    out.append(_inst(["sequence", "-a", _w(w), "--k-max", "5", "--format", "json"], mult))
    out.append(_inst(["verify", "-a", _w(pick(PROBE_POOL)), "--k-max", "3"], probe=True))
    return out
