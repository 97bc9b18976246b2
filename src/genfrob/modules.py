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
coordinatewise-minimal lcms, which ``minimal_lcms`` finds by a search
over the values each coordinate takes on the ball points, closing the
last two coordinates as a staircase, so no k-subset is formed;
``candidate_lcms``, every lcm, is the tests' reference.

The inductive classification splits each generator into an exceptional
carry-over, the image of a syzygy between two generators, or the image
of a syzygy with the unit. It and ``is_exceptional`` read the supports
and the thresholds, so each generator's fiber is enumerated once, and
the basis's one walk serves every generator.
"""
from __future__ import annotations

import re
from bisect import insort
from collections import Counter, namedtuple
from itertools import combinations
from operator import itemgetter, le

from .counting import _oracle_table, fiber, has_nonneg_rep, kth_degrees, thresholds
from .counting import m_value  # noqa: F401  (re-exported)
from .ideal import MarkovBasis, lattice_ideal
from .lattice import InputError, LatticeBasis, dot, vadd, vsub
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
    when it dominates more than j kept points.
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


def _staircase(pairs, j: int) -> list[tuple[int, int]]:
    """The minimal (v, t) with at least j of the sorted ``pairs`` <= them.

    The two-dimensional maxima walk of Kung, Luccio and Preparata: t is
    the j-th smallest second coordinate of the pairs up to the end of a
    run of equal v, a step when it falls below the last step's t.
    """
    steps = []
    lasts = []
    for r, (v, y) in enumerate(pairs):
        insort(lasts, y)
        if r + 1 < len(pairs) and pairs[r + 1][0] == v:
            continue
        if len(lasts) >= j and (not steps or lasts[j - 1] < steps[-1][1]):
            steps.append((v, lasts[j - 1]))
    return steps


def minimal_lcms(bl: Ball, k: int, weight, degree_cap: int) -> tuple[tuple[int, ...], ...]:
    """The coordinatewise-minimal elements of ``candidate_lcms``, sorted.

    With j = k - 1, a depth-first search sets coordinates 0..n-3 in turn
    to values of the kept points still under the prefix, while at least
    j lie under it and its degree is within the cap; ``_staircase``
    closes the last two. One pass in increasing degree keeps each
    candidate above no earlier one. Lemma 2 of ``lcm_generator_classes``.
    """
    if bl.radius != k - 1:
        raise InputError(f"need a ball of radius {k - 1}, got {bl.radius}")
    pos = [tuple(max(x, 0) for x in p) for p in bl.points if any(p)]
    if len(pos) < k - 1:
        raise InputError(f"ball has too few points for {k}-subsets")
    a, j = weight.a, k - 1
    if not j:
        return ((0,) * len(a),)
    found = []

    def search(prefix, d, points):
        i = len(prefix)
        if i == len(a) - 2:
            found.extend((*prefix, *step) for step in _staircase(sorted(q[i:] for q in points), j))
            return
        points.sort(key=itemgetter(i))
        for t, q in enumerate(points):
            if t + 1 < len(points) and points[t + 1][i] == q[i]:
                continue
            if (e := d + a[i] * q[i]) > degree_cap:
                break
            if t + 1 >= j:
                search((*prefix, q[i]), e, points[: t + 1])

    search((), 0, [q for q in pos if dot(a, q) <= degree_cap])
    level = []
    for d, c in sorted((dot(a, c), c) for c in found):
        if d <= degree_cap and not any(all(map(le, m, c)) for m in level):
            level.append(c)
    return tuple(sorted(level))


class ModuleGens(namedtuple(
    "ModuleGens", "k generators supports classes min_degree_witness m_k f_1"
)):
    """Minimal generating data of the k-th module, one orbit per entry.

    Representatives are the lexicographically smallest translates that
    put a dominated point at the origin; supports hold the dominated
    lattice points of each representative.
    """

    __slots__ = ()

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
    ball points with deg(p+) <= cap, with multiplicity, and j = k - 1 >= 1.
    Then ``minimal_lcms`` finds the minimal candidate lcms.
    Proof. (a) A minimal L with deg L <= cap and j kept points under it
    is their lcm, which is a candidate; so these L are the minimal
    candidates, and each L_i is 0 or a kept point's i-th coordinate.
    (b) For fixed L_0..L_(n-2), the least L_(n-1) is the j-th smallest
    last coordinate of the points under that prefix. (c) That value does
    not rise as L_(n-2) grows, so a candidate whose last coordinate does
    not fall lies above an earlier one. (d) Degree grows with the point,
    so stopping at the cap loses nothing. So the search keeps the prefix
    L_0..L_(n-3) of a minimal L, and the staircase gives L_(n-1) at
    L_(n-2); every candidate found lies above a minimal L, which the pass
    in increasing degree keeps first.
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


def modified_min_gens(basis: LatticeBasis, k: int) -> tuple[tuple[int, ...], ...]:
    """Unit plus generator translates that do not dominate the origin.

    The full set of such translates is infinite; the returned slice
    shifts each non-unit generator orbit by the lattice points of the
    radius-k ball and keeps the shifts that fail to dominate the origin.
    """
    unit = (0,) * basis.n
    out = {unit}
    bl = ball(moves(lattice_ideal(basis)), k)
    for g in minimal_generators(basis, k).generators:
        if g == unit:
            continue
        for l in bl.points:
            shifted = tuple(x + y for x, y in zip(g, l))
            if any(e < 0 for e in shifted):
                out.add(shifted)
    return tuple(sorted(out))


class GeneratorClassification(namedtuple("GeneratorClassification", "case witnesses")):
    """Inductive case of one minimal generator, with its certificates."""

    __slots__ = ()


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
    return {tuple(map(max, zip(*K))) for r in sizes for K in combinations(top, r)}


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
