"""Generalised lattice modules: minimal generators and classification.

A Laurent monomial belongs to the k-th module when its exponent
dominates at least k sublattice points, that is, when its quotient
class has at least k nonnegative representatives. So the generator
orbits are read from the residue-walk thresholds of ``counting``: a
class c is a generator orbit exactly when count(c) >= k and
count(c - [e_i]) < k for every i (the monomial-module criterion). It is
enough to test the atoms among the [e_i], since every [e_i] is an atom
plus a representable class. ``generator_classes`` gives the orbits'
classes alone, with no fiber enumerated; ``minimal_generators`` reports
each orbit by the lexicographically smallest nonnegative point of its
class, with its support.

The paper's construction, lcms of k ball points around the origin
minimalised under divisibility up to the lattice action, is kept as the
independent oracle ``lcm_generator_classes``. It labels only the
coordinatewise-minimal lcms, of the points of one move ball per basis
grown across k (``_grown_ball``). Every lcm family here comes from one
step over the values a coordinate takes on the points (``_by_value``),
so no subset is formed: ``minimal_lcms`` sweeps the coordinates in
turn, keeps at each value the minimal vectors that were not minimal at
the value before and closes the last two coordinates as a staircase;
``candidate_lcms`` (every lcm, the tests' reference) and
``subset_lcms`` (for ``classify``) test each full prefix of the
depth-first search ``_value_prefixes`` by one lemma (``_every_lcm``).

The inductive classification splits each generator into an exceptional
carry-over, the image of a syzygy between two generators, or the image
of a syzygy with the unit. It and ``is_exceptional`` read the supports
and the thresholds, so each generator's fiber is enumerated once, and
the basis's one walk serves every generator.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial
from itertools import combinations, compress, groupby, islice, repeat
from operator import itemgetter, le

from .counting import _oracle_table, fiber, has_nonneg_rep, kth_degrees, thresholds
from .counting import m_value  # noqa: F401  (re-exported)
from .ideal import MarkovBasis, lattice_ideal
from .lattice import InputError, LatticeBasis, QuotientClass, dot, vadd, vsub
from .neighbourhood import Ball, MoveSet, ball, moves

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


def _kept_points(bl: Ball, k: int, a, degree_cap: int) -> list[tuple[int, ...]]:
    """The positive parts max(p, 0) of the nonzero ball points, with
    multiplicity, of degree at most ``degree_cap``: the points whose lcms
    with the origin are the candidate lcms for k."""
    if bl.radius != k - 1:
        raise InputError(f"need a ball of radius {k - 1}, got {bl.radius}")
    zero = (0,) * len(a)
    pos = [tuple(map(max, p, zero)) for p in bl.points if any(p)]
    return _under_cap(pos, map(partial(dot, a), pos), k, degree_cap)


def _under_cap(pos, degrees, k: int, cap: int) -> list[tuple[int, ...]]:
    """The positive parts ``pos`` whose ``degrees`` are at most cap, once
    there are the k - 1 of them that a k-subset with the origin needs."""
    if len(pos) < k - 1:
        raise InputError(f"ball has too few points for {k}-subsets")
    return list(compress(pos, map(le, degrees, repeat(cap))))


def _grown_ball(basis: LatticeBasis, ms: MoveSet, radius: int) -> tuple:
    """The basis's move ball of ms, grown to at least the radius, with
    each point's positive part max(p, 0) and its degree, in ball order.

    The basis keeps one such ball, next to its walk and its oracle
    table, and starts a new one for another move set. The positive parts
    and degrees are formed once, for the points a growth adds. A growth
    past MAX_BALL_POINTS raises InputError and leaves no ball behind.
    """
    zero = (0,) * basis.n
    grown = basis._memo.pop("ball", None)
    if grown is None or grown[0].moves.moves != ms.moves:
        grown = (Ball(0, {zero: 0}, ms), [zero], [0])
    bl, positive, degrees = grown
    start = len(bl)
    bl.grow(radius)
    pos = [tuple(map(max, p, zero)) for p in islice(bl.distance, start, None)]
    positive += pos
    degrees += map(partial(dot, basis.weight.a), pos)
    basis._memo["ball"] = grown
    return grown


def _by_value(points: list, i: int, size: int, top):
    """Each value v <= top of coordinate i with at least ``size`` of the
    points at or below it, in increasing order, with those points.

    Sorts the points by coordinate i, once, so the points at or below
    each v are a prefix: v runs over the i-th coordinates from the
    size-th smallest up.
    """
    key = itemgetter(i)
    points.sort(key=key)
    for v in sorted(set(map(key, points[size - 1 :]))):
        if v > top:
            break
        yield v, points[: bisect_right(points, v, key=key)]


def _value_prefixes(points, size: int, depth: int, a=None, cap=None):
    """Each prefix v_0..v_(depth-1) of coordinate values with at least
    ``size`` points under it, with those points, in lexicographic order.

    Depth first: v_i runs over the i-th coordinates of the points under
    v_0..v_(i-1), from the size-th smallest up (``_by_value``). With a
    weight ``a`` the search stops a coordinate once the prefix's degree
    passes ``cap``, which loses nothing when the points are >= 0; with no
    weight there is no cap.
    """

    def search(prefix, under, room):
        i = len(prefix)
        if i == depth:
            yield prefix, under
            return
        top = math.inf if a is None else room // a[i]
        for v, below in _by_value(under, i, size, top):
            yield from search((*prefix, v), below, None if a is None else room - a[i] * v)

    return search((), list(points), cap)


def _every_lcm(points, size: int, n: int, a=None, cap=None):
    """Every lcm of ``size`` of the n-coordinate ``points``, with
    multiplicity, in increasing order; with a weight ``a``, those of
    degree at most ``cap``.

    Lemma. v is the lcm of some size of the points exactly when at
    least size of them lie <= v and some size of those attain every
    coordinate of v: an lcm's points lie under it and attain it, and
    such points have lcm v. So each v_i is the i-th coordinate of a point
    under v_0..v_(i-1) with at least size of those at or below it, which
    makes v a prefix of depth n of ``_value_prefixes``: at most j + 1
    values a coordinate for j = len(points) - size, so at most (j + 1)^n
    prefixes rather than C(len(points), j) subsets. The points it leaves
    under v are those <= v. One attaining point a coordinate is enough,
    padded to size from the rest, so v is an lcm exactly when the masks
    of the coordinates min(size, n) of them attain OR to every
    coordinate; for size >= n, exactly when the lcm of all of them is v.
    """
    for v, under in _value_prefixes(points, size, n, a, cap):
        if size < n:
            masks = {sum(1 << i for i in range(n) if q[i] == v[i]) for q in under}
            reach = {0}
            for _ in range(size):
                reach = {r | m for r in reach for m in masks}
            if (1 << n) - 1 in reach:
                yield v
        elif tuple(map(max, zip(*under))) == v:
            yield v


def candidate_lcms(bl: Ball, k: int, weight, degree_cap: int) -> tuple[tuple[int, ...], ...]:
    """lcms of the k-subsets of the ball that contain the origin, sorted.

    These are the lcms of the (k-1)-subsets of the nonzero ball points
    with the origin, kept when their degree is at most ``degree_cap``.
    Such an lcm is >= 0, so a point p enters it as p+ = max(p, 0): for
    k >= 2 they are the lcms of k - 1 kept points (``_every_lcm``), and
    for k = 1 the origin.
    """
    kept = _kept_points(bl, k, weight.a, degree_cap)
    if k == 1:
        return ((0,) * weight.n,)
    return tuple(_every_lcm(kept, k - 1, weight.n, weight.a, degree_cap))


def _staircase(points, j: int) -> list[tuple[int, int]]:
    """The minimal (v, t) with at least j of the ``points`` <= them on
    their last two coordinates, for points sorted by the second-last.

    The two-dimensional maxima walk of Kung, Luccio and Preparata: t is
    the j-th smallest last coordinate of the points up to the end of a
    run of equal v, a step when it falls below the last step's t. Only
    the j smallest are kept, sorted.
    """
    steps = []
    lasts = []
    for v, run in groupby(points, itemgetter(-2)):
        lasts += map(itemgetter(-1), run)
        lasts.sort()
        del lasts[j:]
        if len(lasts) == j and (not steps or lasts[-1] < steps[-1][1]):
            steps.append((v, lasts[-1]))
    return steps


def minimal_lcms(bl: Ball, k: int, weight, degree_cap: int) -> tuple[tuple[int, ...], ...]:
    """The coordinatewise-minimal elements of ``candidate_lcms``, sorted.

    With j = k - 1, ``_sweep`` takes the kept points' coordinates in
    turn, each upward, and closes the last two with ``_staircase``. At
    each value it keeps the minimal vectors that were not minimal at the
    value before: the vectors with j points under them only gain as the
    value grows, so a minimal one lies above an earlier candidate exactly
    when it was minimal before, and one set difference replaces a pass
    comparing each candidate with every kept one. Lemma 2 of
    ``lcm_generator_classes``, (d) for the set difference.
    """
    a = weight.a
    return _minimal_lcms(_kept_points(bl, k, a, degree_cap), k - 1, a, degree_cap)


def _minimal_lcms(kept: list, j: int, a, cap: int) -> tuple[tuple[int, ...], ...]:
    """The minimal vectors of degree at most cap with at least j of the
    kept points under them, sorted; for j = 0 the origin.

    ``_sweep`` finds them, with some above the cap, which go here.
    """
    if not j:
        return ((0,) * len(a),)
    return tuple(sorted(u for u in _sweep(kept, j, 0, a, cap) if dot(a, u) <= cap))


def _sweep(points: list, j: int, i: int, a, room: int) -> list[tuple[int, ...]]:
    """The minimal u = (u_i, .., u_(n-1)) with at least j of the points
    <= u on coordinates i..n-1: every such u whose degree on those
    coordinates is at most ``room``, and perhaps some above it.

    Coordinate i is swept upward (``_by_value``); at each value v the
    points with x_i <= v recurse, and the last two coordinates are a
    staircase. (v, u) is minimal exactly when u is minimal at v but was
    not at the value before: Lemma 2 (d) of ``lcm_generator_classes``.
    """
    if i == len(a) - 2:
        key = itemgetter(i)
        points.sort(key=key)
        return _staircase(points[: bisect_right(points, room // a[i], key=key)], j)
    found = []
    last = set()
    for v, under in _by_value(points, i, j, room // a[i]):
        steps = _sweep(under, j, i + 1, a, room - a[i] * v)
        found += [(v, *u) for u in steps if u not in last]
        last = set(steps)
    return found


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

    The independent oracle for ``generator_classes``: lcms of the
    k-subsets of the radius k-1 ball that contain the origin, up to
    degree m_k + max(F_1, 0), minimalised under divisibility modulo L
    read from the basis's oracle counting table. Only the
    coordinatewise-minimal lcms are found (``minimal_lcms``) and
    labelled; by Lemma 1 that gives the same orbits. The ball is the
    basis's one ball of the Markov moves (``_grown_ball``), grown only
    when k - 1 passes its radius; the ball of radius k - 1 is a prefix of
    it, with each point's positive part and degree formed once. A Markov
    basis of another lattice basis is refused.

    Lemma 1. If L1 < L2 are candidate lcms, then [L2] - [L1] = [L2 - L1]
    is representable and, of positive degree, nonzero, so [L2] is not
    minimal. If [L2] rules out a class c (c - [L2] representable, c !=
    [L2]), then c - [L1] is a sum of two representable classes and of
    positive degree, so [L1] rules out c too. Every candidate dominates
    a minimal one, so minimalising the classes of the minimal lcms gives
    the same set as minimalising those of all candidates. Only classes of
    lower degree can rule out c: for c2 != c with c - c2 representable, a
    representative of c - c2 is nonzero, so deg c2 < deg c. The orbits are
    sorted, and each is tested against those of lower degree alone.

    Lemma 2. Let the kept points be the p+ = max(p, 0) of the nonzero
    ball points with deg(p+) <= cap, with multiplicity, and j = k - 1 >= 1.
    Then ``minimal_lcms`` finds the minimal candidate lcms.
    Proof. (a) A minimal L with deg L <= cap and j kept points under it
    is their lcm, which is a candidate; so these L are the minimal
    candidates. As degree grows with the vector, they are the minimal
    vectors with j kept points under them that lie within the cap.
    (b) Each L_i is the i-th coordinate of a point under L with at least
    j of those at or below it, else L_i could fall; so sweeping
    coordinate i over those values (``_by_value``) misses none, and
    stopping once the degree passes the cap loses nothing. (c) On the
    last two coordinates, the least L_(n-1) at L_(n-2) is the j-th
    smallest last coordinate of the points up to L_(n-2), which does not
    rise as L_(n-2) grows; the steps where it falls are the minimal
    pairs, the staircase. (d) For coordinate i < n - 2 let R_v be the set
    of u = (u_(i+1), .., u_(n-1)) with at least j of the points with
    x_i <= v under u. R_v only grows with v, so (v, u) is minimal exactly
    when u is minimal in R_v and u is not in R_w, for w the value before
    v. A minimal u of R_v that lies in R_w is minimal in R_w too, and a
    minimal u of R_w lies in R_w: so u lies in R_w exactly when it was
    minimal at w, and the minimal (v, u) are the minimal vectors at v
    less those at w, one set difference with no pass comparing
    candidates. The cap keeps this exact within it: a u within the cap
    at v is within it at w < v, so the answers at v and at w both hold
    it or both do not; what the cut lets through above the cap goes at
    the end.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    if markov is None:
        markov = lattice_ideal(basis)
    elif markov.basis != basis:
        raise InputError("the Markov basis is of another lattice basis")
    f_values, m_values = kth_degrees(basis, k)
    cap = m_values[-1] + max(f_values[0], 0)
    bl, positive, degrees = _grown_ball(basis, moves(markov), k - 1)
    end = bl.ends[k - 1]
    kept = _under_cap(positive[1:end], degrees[1:end], k, cap)
    orbits = sorted({basis.label(g) for g in _minimal_lcms(kept, k - 1, basis.weight.a, cap)})
    table = _oracle_table(basis, cap)
    return frozenset(
        cls
        for cls in orbits
        if not any(
            table.count(basis.class_sub(cls, cls2)) >= 1
            for cls2 in orbits[: bisect_left(orbits, cls.degree, key=itemgetter(0))]
        )
    )


def generator_classes(basis: LatticeBasis, k: int) -> tuple[QuotientClass, ...]:
    """The classes of the k-th module's generator orbits, in node order.

    Tests one candidate per residue node, the least class of count >= k
    there, kept by ``Thresholds.minimal_nodes``: the candidate of degree
    d = t_k(r) at node r is dropped when some atom g has
    d - deg g >= t_k(map_g[r]), one comparison per atom on the walk's
    node maps. No fiber is enumerated. The least class has degree m_k.
    """
    t = thresholds(basis, k)
    least = t.least_degrees(k)
    classes = tuple(t.node_class(node, least[node]) for node in t.minimal_nodes(least))
    if min((c.degree for c in classes), default=None) != t.m[k - 1]:
        raise RuntimeError("no generator found at the minimum degree")
    return classes


def minimal_generators(basis: LatticeBasis, k: int) -> ModuleGens:
    """Canonical orbit representatives of the k-th module's generators.

    The orbits are the classes of ``generator_classes``. The support of a
    representative r, its dominated lattice points, is
    {r - u : u in the fiber of its class}; the fiber is sorted, so r is
    its first point and r - u over it reversed is sorted too.
    """
    reps = []
    for cls in generator_classes(basis, k):
        points = fiber(basis, cls).points
        rep = points[0]
        reps.append((cls.degree, rep, tuple(vsub(rep, u) for u in reversed(points)), cls))
    reps.sort()  # reps are distinct, so the classes are never compared
    generators = tuple(r[1] for r in reps)
    t = thresholds(basis, k)
    return ModuleGens(
        k=k,
        generators=generators,
        supports=tuple(r[2] for r in reps),
        classes=tuple(r[3] for r in reps),
        min_degree_witness=generators[0],
        m_k=t.m[k - 1],
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
    if k < 1:
        raise InputError("k must be at least 1")
    return thresholds(basis, k + 1).at_least(basis.label(g), k + 1)


def subset_lcms(points, size: int) -> set:
    """The lcms of the size-subsets of the points, 1 <= size <= len(points).

    ``_every_lcm`` with no weight: the points are lattice points, with
    negative coordinates, so no degree prune holds.
    """
    return set(_every_lcm(points, size, len(points[0])))


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
    the representative; ``subset_lcms`` finds the lcms of their
    (k_next - 1)-subsets by coordinate values, forming no subset.
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
