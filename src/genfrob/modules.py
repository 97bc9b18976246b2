"""Generalised lattice modules: minimal generators and classification.

A Laurent monomial belongs to the k-th module when its exponent
dominates at least k sublattice points, that is, when its quotient
class has at least k nonnegative representatives. So the generator
orbits are read from the residue-walk thresholds of ``counting``: a
class c is a generator orbit exactly when count(c) >= k and
count(c - [e_i]) < k for every i (the monomial-module criterion). It is
enough to test the atoms among the [e_i], since every [e_i] is an atom
plus a representable class. Each orbit is reported by the
lexicographically smallest nonnegative point of its class.

The paper's construction, lcms of k ball points around the origin
minimalised under divisibility up to the lattice action, is kept as the
independent oracle ``lcm_generator_classes``. It labels only the
coordinatewise-minimal lcms, which ``minimal_lcms`` finds one ball point
at a time, so its cost grows with that antichain, not with the number
of k-subsets; ``candidate_lcms``, every lcm, is the tests' reference.

The inductive classification splits each generator into an exceptional
carry-over, the image of a syzygy between two generators, or the image
of a syzygy with the unit. It and ``is_exceptional`` read the supports
and the thresholds, so each generator's fiber is enumerated once, and
the basis's one walk serves every generator.
"""
from __future__ import annotations

import re
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import itemgetter, le
from typing import NamedTuple

from .counting import _oracle_table, fiber, has_nonneg_rep, kth_degrees, thresholds
from .counting import m_value  # noqa: F401  (re-exported)
from .ideal import MarkovBasis, lattice_ideal
from .lattice import InputError, LatticeBasis, QuotientClass, dot, vadd, vsub
from .neighbourhood import Ball, ball, moves

EXCEPTIONAL = "Exceptional"
SYZYGY_OF_TWO_GENERATORS = "SyzygyOfTwoGenerators"
SYZYGY_WITH_UNIT = "SyzygyWithUnit"


def render_monomial(exponent) -> str:
    """Text form like x1^-1*x2*x3^2; the unit monomial renders as 1."""
    parts = []
    for i, e in enumerate(exponent, start=1):
        if e == 0:
            continue
        parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def parse_monomial(text: str, n: int) -> tuple[int, ...]:
    """Inverse of render_monomial for n variables."""
    exponent = [0] * n
    text = text.strip()
    if text == "1":
        return tuple(exponent)
    for part in text.split("*"):
        m = re.fullmatch(r"x(\d+)(?:\^(-?\d+))?", part.strip())
        if not m:
            raise InputError(f"cannot parse monomial factor {part!r}")
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise InputError(f"variable x{i} out of range for n={n}")
        exponent[i - 1] += int(m.group(2)) if m.group(2) else 1
    return tuple(exponent)


def phi(g1, g2) -> tuple[int, ...]:
    """Multidegree of the syzygy between two monomials: their lcm."""
    return tuple(max(x, y) for x, y in zip(g1, g2))


def divides_mod_L(basis: LatticeBasis, m, m2) -> bool:
    """True when some lattice translate of m is coordinatewise below m2."""
    return has_nonneg_rep(basis, basis.label(vsub(m2, m)))


def candidate_lcms(bl: Ball, k: int, weight, degree_cap: int) -> tuple[tuple[int, ...], ...]:
    """lcms of the k-subsets of the ball that contain the origin, sorted.

    These are the lcms of the (k-1)-subsets of the nonzero ball points
    with the origin, kept when their degree is at most ``degree_cap``.
    Such an lcm is >= 0, so a point p enters it as p+ = max(p, 0); as
    weights are positive, the kept points are the p+ under the cap, with
    multiplicity. Level 0 is the origin, and level j + 1 holds max(L, q)
    for L in level j and a kept q not <= L, under the cap, and L itself
    when it dominates more than j kept points: Lemma 2 of
    ``lcm_generator_classes`` without its antichain step.
    Proof that level j holds the lcms of j kept points under the cap.
    For j + 1 points X with lcm M under the cap and q in X, the lcm L of
    the others is <= M, so in level j. If some q is not <= L, then
    M = max(L, q); else M = L dominates j + 1 points. Conversely, a q
    not <= L = lcm(Y) is none of Y's points, and an L dominating more
    than j points dominates one outside Y.
    """
    if bl.radius != k - 1:
        raise InputError(f"need a ball of radius {k - 1}, got {bl.radius}")
    pos = [tuple(max(x, 0) for x in p) for p in bl.points if any(p)]
    if len(pos) < k - 1:
        raise InputError(f"ball has too few points for {k}-subsets")
    a = weight.a
    mult = Counter(q for q in pos if dot(a, q) <= degree_cap)
    level = {(0,) * len(a)}
    for j in range(k - 1):
        found = set()
        for lcm in level:
            dominated = 0
            for q, m in mult.items():
                if all(map(le, q, lcm)):
                    dominated += m
                elif dot(a, c := tuple(map(max, lcm, q))) <= degree_cap:
                    found.add(c)
            if dominated > j:
                found.add(lcm)
        level = found
    return tuple(sorted(level))


def minimal_lcms(bl: Ball, k: int, weight, degree_cap: int) -> tuple[tuple[int, ...], ...]:
    """The coordinatewise-minimal elements of ``candidate_lcms``, sorted.

    Found level by level as in Lemma 2 of ``lcm_generator_classes``.
    Each kept p+ is a thermometer code: coordinate i has one bit per
    distinct nonzero value of p+_i, and a value sets the bits of every
    value up to it. Then max is ``|`` and q <= L is ``not q & ~L``, and
    since the bits of a coordinate add up to a_i times its value, each
    code keeps its degree beside it: deg(L | q) = deg(L) + the degrees of
    the bits of q & ~L. Each level keeps its antichain by a filter in increasing degree: a
    point dominated by another has a strictly larger degree, so only the
    points kept before it can dominate it.
    """
    if bl.radius != k - 1:
        raise InputError(f"need a ball of radius {k - 1}, got {bl.radius}")
    pos = [tuple(max(x, 0) for x in p) for p in bl.points if any(p)]
    if len(pos) < k - 1:
        raise InputError(f"ball has too few points for {k}-subsets")
    a = weight.a
    pos = [q for q in pos if dot(a, q) <= degree_cap]
    values = [sorted({0, *(q[i] for q in pos)}) for i in range(len(a))]
    offsets = [0]
    for vals in values:
        offsets.append(offsets[-1] + len(vals) - 1)
    # per coordinate: offset, bit mask and values, by rank
    fields = [(off, (1 << len(v) - 1) - 1, v) for off, v in zip(offsets, values)]
    # The bit of rank r in coordinate i adds a_i * (v_r - v_(r-1)) to the degree.
    bit_degree = {
        1 << off + r - 1: ai * (v[r] - v[r - 1])
        for off, v, ai in zip(offsets, values, a)
        for r in range(1, len(v))
    }

    def decode(code):
        return tuple(v[(code >> off & mask).bit_count()] for off, mask, v in fields)

    mult: dict[int, int] = {}
    for q in pos:
        code = sum(((1 << values[i].index(x)) - 1) << offsets[i] for i, x in enumerate(q))
        mult[code] = mult.get(code, 0) + 1
    # Each level maps its codes, in increasing degree, to their degrees.
    level = {0: 0}  # M_0: the origin, which dominates no kept point
    for j in range(k - 1):
        found = {}
        for lcm, d in level.items():
            dominated = 0
            for q, m in mult.items():
                new = q & ~lcm
                if not new:
                    dominated += m
                elif (c := lcm | q) not in found:
                    e = d
                    while new:
                        low = new & -new
                        e += bit_degree[low]
                        new ^= low
                    found[c] = e
            if dominated > j:
                found[lcm] = d
        level = {}
        for d, c in sorted((d, c) for c, d in found.items() if d <= degree_cap):
            for m in level:
                if not m & ~c:
                    break
            else:
                level[c] = d
    return tuple(sorted(map(decode, level)))


class ModuleGens(NamedTuple):
    """Minimal generating data of the k-th module, one orbit per entry.

    Representatives are the lexicographically smallest translates that
    put a dominated point at the origin; supports hold the dominated
    lattice points of each representative.
    """

    k: int
    generators: tuple[tuple[int, ...], ...]
    supports: tuple[tuple[tuple[int, ...], ...], ...]
    classes: tuple[QuotientClass, ...]
    min_degree_witness: tuple[int, ...]
    m_k: int
    f_1: int

    def render(self) -> tuple[str, ...]:
        return tuple(render_monomial(g) for g in self.generators)


def lcm_generator_classes(
    basis: LatticeBasis,
    k: int,
    markov: MarkovBasis | None = None,
) -> frozenset:
    """Generator orbits of the k-th module by the lcm construction.

    The independent oracle for ``minimal_generators``: lcms of the
    k-subsets of the radius k-1 ball that contain the origin, up to
    degree m_k + max(F_1, 0), minimalised under divisibility modulo L
    read from the basis's oracle counting table. Only the
    coordinatewise-minimal lcms are found (``minimal_lcms``) and
    labelled; by Lemma 1 that gives the same orbits.

    Lemma 1. If L1 < L2 are candidate lcms, then [L2] - [L1] = [L2 - L1]
    is representable and, of positive degree, nonzero, so [L2] is not
    minimal. If [L2] rules out a class c (c - [L2] representable, c !=
    [L2]), then c - [L1] is a sum of two representable classes and of
    positive degree, so [L1] rules out c too. Every candidate dominates
    a minimal one, so minimalising the classes of the minimal lcms gives
    the same set as minimalising those of all candidates.

    Lemma 2. Let the kept points be the p+ = max(p, 0) of the nonzero
    ball points with deg(p+) <= cap, with multiplicity, and let M_j be
    the minimal L with deg L <= cap dominating at least j of them. Then
    M_0 = {0} and M_(j+1) is the set of minimal elements of the L in M_j
    that dominate at least j+1 points together with the max(L, q) for L
    in M_j and a kept q not <= L, of degree <= cap; M_(k-1) is the set
    of minimal candidate lcms.
    Proof. A minimal L dominating j points is the max of any j of them,
    which lies below L and dominates as many; so M_j holds the minimal
    lcms of j-subsets under the cap. Each listed point dominates j+1
    points. A minimal X of level j+1 lies above some L in M_j; if L
    dominates j+1 points then X = L, and otherwise X dominates a point
    q not <= L, so X >= max(L, q), a listed point, and X equals it.
    Degree grows with the point, so pruning at the cap loses nothing.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    if markov is None:
        markov = lattice_ideal(basis)
    f_values, m_values = kth_degrees(basis, k)
    cap = m_values[-1] + max(f_values[0], 0)
    bl = ball(moves(markov), k - 1)
    orbits = {basis.label(g) for g in minimal_lcms(bl, k, basis.weight, cap)}
    table = _oracle_table(basis, cap)
    return frozenset(
        cls
        for cls in orbits
        if not any(
            cls2 != cls and table.count(basis.class_sub(cls, cls2)) >= 1 for cls2 in orbits
        )
    )


def minimal_generators(basis: LatticeBasis, k: int) -> ModuleGens:
    """Canonical orbit representatives of the k-th module's generators.

    Tests one candidate per residue node, the least class of count >= k
    there, kept by ``Thresholds.minimal_nodes``: the candidate of degree
    d = t_k(r) at node r is dropped when some atom g has
    d - deg g >= t_k(map_g[r]), one comparison per atom on the walk's
    node maps. The support of a representative r, its dominated lattice
    points, is {r - u : u in the fiber of its class}; the fiber is
    sorted, so r is its first point and r - u over it reversed is sorted
    too.
    """
    t = thresholds(basis, k)
    least = t.least_degrees(k)
    reps = []
    for node in t.minimal_nodes(least):
        cls = t.node_class(node, least[node])
        points = fiber(basis, cls).points
        rep = points[0]
        reps.append((cls.degree, rep, tuple(vsub(rep, u) for u in reversed(points)), cls))
    reps.sort()  # reps are distinct, so the classes are never compared
    generators = tuple(r[1] for r in reps)
    supports = tuple(r[2] for r in reps)
    classes = tuple(r[3] for r in reps)
    m_k = t.m[k - 1]
    if not generators or reps[0][0] != m_k:
        raise RuntimeError("no generator found at the minimum degree")
    return ModuleGens(
        k=k,
        generators=generators,
        supports=supports,
        classes=classes,
        min_degree_witness=generators[0],
        m_k=m_k,
        f_1=t.f[0],
    )


def modified_min_gens(
    basis: LatticeBasis,
    k: int,
    gens: ModuleGens | None = None,
    markov: MarkovBasis | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Unit plus generator translates that do not dominate the origin.

    The full set of such translates is infinite; the returned slice
    shifts each non-unit generator orbit by the lattice points of the
    radius-k ball and keeps the shifts that fail to dominate the origin.
    """
    if markov is None:
        markov = lattice_ideal(basis)
    if gens is None:
        gens = minimal_generators(basis, k)
    n = basis.n
    unit = (0,) * n
    out = {unit}
    bl = ball(moves(markov), k)
    for g in gens.generators:
        if g == unit:
            continue
        for l in bl.points:
            shifted = tuple(x + y for x, y in zip(g, l))
            if any(e < 0 for e in shifted):
                out.add(shifted)
    return tuple(sorted(out))


class GeneratorClassification(NamedTuple):
    """Inductive case of one minimal generator, with its certificates."""

    case: str
    witnesses: tuple[tuple[int, ...], ...]


def is_exceptional(basis: LatticeBasis, g, k: int) -> bool:
    """Generator of the k-th module dominating more than k points: count >= k + 1."""
    return thresholds(basis, k + 1).at_least(basis.label(g), k + 1)


def subset_lcms(points, size: int) -> set:
    """The lcms of the size-subsets of distinct points, 1 <= size <= len(points).

    A size-subset is the points S minus some D of j = |S| - size points.
    Let T_i be j + 1 points that no point outside T_i passes in
    coordinate i (ties either way), and T the union of the T_i, at most
    n(j + 1) points. D misses a point of T_i, which attains coordinate i
    of lcm(S - D); so lcm(S - D) = lcm(T - D). And D & T runs over
    exactly the D' in T with max(0, j - |S - T|) <= |D'| <= j, padding
    D' to j points from S - T. So the lcms of the subsets T - D', of
    |T| - j up to min(|T|, size) points, are the same set, and
    D -> D & T is onto, so there are no more of them than size-subsets.
    """
    j = len(points) - size
    top = {p for i in range(len(points[0])) for p in sorted(points, key=itemgetter(i))[-j - 1 :]}
    sizes = range(len(top) - j, min(len(top), size) + 1)
    return {reduce(phi, K) for r in sizes for K in combinations(top, r)}


def classify(
    basis: LatticeBasis,
    g,
    k_next: int,
    gens: ModuleGens | None = None,
) -> GeneratorClassification:
    """Case analysis of a minimal generator of the k_next-th module.

    Looks at the lcms of the (k_next - 1)-subsets of the dominated
    points: all equal means the generator was already an exceptional
    generator one level down; an incomparable pair exhibits it as the
    image of a syzygy between two lower generators; otherwise the unique
    proper-divisor lcm certifies a syzygy with the unit.

    g's dominated points are its orbit's support, translated by g minus
    the representative; ``subset_lcms`` forms their lcms.
    """
    if k_next < 2:
        raise InputError("classification needs k_next at least 2")
    if gens is None:
        gens = minimal_generators(basis, k_next)
    if gens.k != k_next:
        raise InputError(f"generators are for k={gens.k}, not k={k_next}")
    cls = basis.label(g)
    if cls not in gens.classes:
        raise InputError(
            f"{render_monomial(g)} is not a minimal generator of the module for k={k_next}"
        )
    i = gens.classes.index(cls)
    shift = vsub(g, gens.generators[i])
    support = [vadd(p, shift) for p in gens.supports[i]]

    lcms = sorted(subset_lcms(support, k_next - 1))
    if len(lcms) == 1:
        if lcms[0] != g:
            raise RuntimeError("constant subset lcm differs from the generator")
        return GeneratorClassification(EXCEPTIONAL, ())
    for l1, l2 in combinations(lcms, 2):
        if phi(l1, l2) not in (l1, l2):  # incomparable
            return GeneratorClassification(SYZYGY_OF_TWO_GENERATORS, (l1, l2))
    proper = [l for l in lcms if l != g]
    if len(proper) != 1:
        raise RuntimeError("expected a unique proper-divisor subset lcm")
    return GeneratorClassification(SYZYGY_WITH_UNIT, (proper[0],))
