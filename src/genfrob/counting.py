"""Class-graded counting of nonnegative representations.

Two independent ways to count points of N^n per quotient class:

- ``thresholds``, the engine: a k-best round robin over the residue
  graph of Z^n/L modulo the class of the cheapest generator, which adds
  one generator at a time and goes round each cycle of the permutation
  it induces, with no heap. One run yields F_1..F_K and m_1..m_K
  (``kth_degrees``), whether a class has count >= k, and the atoms of
  the representable monoid with their node maps, so the module and
  poset layers test minimality by comparing degrees on nodes.
- ``CountTable``, unbounded-knapsack dynamic programming over (degree,
  torsion) into one flat list of exact counts, saturated at a cap when
  a cell is read. It is the brute-force oracle the engine is checked
  against, and the table from which ``module_poset`` reads its labels'
  counts by (degree, torsion code), by one bisection per residue node.

Both code a torsion tuple by ``LatticeBasis.torsion_code`` and take
the unit classes [e_i] from ``LatticeBasis.units``; the lattice layer
is the one place the coding of Z^n/L is worked out.

The walk and the oracle table are worked out once per basis object.
The basis keeps its last walk, and ``thresholds(basis, K)`` returns it
while it covers K; a larger K walks once more and replaces it, so
``Thresholds.f`` and ``.m`` hold at least K entries and readers index
them by k - 1. The oracle readers share one private table of exact
counts per basis, ``_oracle_table``, which answers every k and is
rebuilt only when a reader needs a deeper degree, and the least and
greatest count per degree that a table works out on first read; it is
never fed from the walk, so the engine and the oracles stay
independent. The public
``count_table`` builds a fresh table of exactly the cap asked.

Fibers are enumerated directly, once per generator orbit, in
lexicographic order with no sort (``degree_fiber``, closed form in the
last two coordinates). The tests keep the plain recursion
``representations`` as its reference and ``dominated_points`` as the
reference for supports and counts.
"""
from __future__ import annotations

import sys
from collections import namedtuple
from functools import cached_property
from operator import add, itemgetter

from .lattice import InputError, LatticeBasis, QuotientClass, vsub, xgcd


class Fiber(namedtuple("Fiber", "label points")):
    """All nonnegative integer points in one quotient class, in lexicographic order."""

    __slots__ = ()


# Largest (max_degree + 1) * index, the degrees times the torsion
# classes, that one counting table may hold. A cell is one 8-byte slot of
# one flat list, plus an int object for a count above 256. On CPython 3.11,
# at 1M cells, tracemalloc and peak RSS gave 17 and 17 bytes a cell on
# (1001, 1003, 1007) (counts up to 498), 42 and 48 on (3, 5, 8) (near
# 4 * 10^9), 48 and 56 on (2, 3, 5, 7, 11, 13) (near 3 * 10^23), 39 and 39
# at index 6 and 20 and 19 at index 50 on (13, 17, 29). Counts up to about
# 10^54 keep 56 bytes, so a table stays under about 230 MB. The oracle
# table's counts stay small: 113 at most in the 338,343 cells `verify -a
# 1001,1003,1007 --k-max 2` needs; (10007, 10009, 10037) needs over 6.8M.
MAX_TABLE_CELLS = 4_000_000


class CountTable:
    """Saturating counts of nonnegative representatives per class.

    count(c) = min(#{u in N^n with label u = c}, cap) for every class c
    of degree 0..max_degree, read from one flat list of exact counts at
    degree * index + torsion code. Adding generator i adds to each row
    the row a_i below it with its torsions moved by [e_i], so a block of
    a_i rows is one slice add, gathered through that permutation when
    index > 1. It keeps no reference to the basis, which keeps its
    oracle table (``_oracle_table``). A table over MAX_TABLE_CELLS
    raises InputError before anything is allocated.
    """

    def __init__(self, basis: LatticeBasis, max_degree: int, cap: int):
        if max_degree < 0:
            raise InputError("max_degree must be nonnegative")
        if cap < 1:
            raise InputError("cap must be at least 1")
        size = basis.index
        cells = (max_degree + 1) * size
        if cells > MAX_TABLE_CELLS:
            raise InputError(
                f"a counting table of degrees 0..{max_degree} needs (max_degree + 1) * "
                f"index = {cells} cells, over the budget of {MAX_TABLE_CELLS}"
            )
        self.max_degree = max_degree
        self.cap = cap
        self.index = size
        self._torsions = basis.torsions
        self._torsion_code = basis.torsion_code
        flat = [0] * cells
        flat[0] = 1
        for ai, unit in zip(basis.weight.a, basis.units):
            block = ai * size
            if size > 1:
                shift = basis.torsion_shift([-x for x in unit.torsion])
                gather = itemgetter(*[j * size + c for j in range(ai) for c in shift])
            for start in range(block, cells, block):
                below = flat[start - block:start]
                if size > 1:
                    below = gather(below)
                # the last block may be partial: map stops at the shorter slice
                flat[start:start + block] = map(add, flat[start:start + block], below)
        self._cells = flat

    def cell(self, degree: int, code: int) -> int:
        """Saturated count of the class of this degree and torsion code; 0 below degree 0."""
        if degree < 0:
            return 0
        if degree > self.max_degree:
            raise InputError(f"degree {degree} beyond table range {self.max_degree}")
        return min(self._cells[degree * self.index + code], self.cap)

    def count(self, c: QuotientClass) -> int:
        """Saturated count for class c; 0 below degree 0."""
        try:
            code = self._torsion_code[c.torsion]
        except KeyError:
            raise _torsion_error(c) from None
        return self.cell(c.degree, code)

    def row(self, degree: int) -> list[int]:
        """The saturated counts of the classes of this degree, by torsion code."""
        start = degree * self.index
        return [min(x, self.cap) for x in self._cells[start:start + self.index]]

    @cached_property
    def _extremes(self) -> tuple[list[int], list[int]]:
        """Per degree, the least and the greatest count of its classes,
        worked out on first read. They are exact, so they give the
        saturated answer to count >= k for every k up to the cap. At index
        1 each degree has one class, so both are the cells themselves and
        nothing is copied."""
        cells, size = self._cells, self.index
        if size == 1:
            return cells, cells
        starts = range(0, len(cells), size)
        return (
            [min(cells[start:start + size]) for start in starts],
            [max(cells[start:start + size]) for start in starts],
        )

    def classes_at(self, degree: int):
        """All classes of the given degree, with their saturated counts."""
        return zip((QuotientClass(degree, tor) for tor in self._torsions), self.row(degree))


def count_table(basis: LatticeBasis, max_degree: int, cap: int) -> CountTable:
    return CountTable(basis, max_degree, cap)


def _oracle_table(basis: LatticeBasis, max_degree: int) -> CountTable:
    """The basis's shared table of exact counts, at least max_degree deep.

    Exact counts answer count >= k for every k, so a miss is only ever a
    deeper degree: the old table goes before one of that depth is built.
    """
    memo = basis._memo
    if "table" not in memo or memo["table"].max_degree < max_degree:
        memo.pop("table", None)  # let the old rows go before the new ones are built
        memo["table"] = CountTable(basis, max_degree, sys.maxsize)
    return memo["table"]


def degree_fiber(basis: LatticeBasis, degree: int) -> tuple[tuple[int, ...], ...]:
    """All points of N^n with the given weighted degree, in lexicographic order.

    The first n - 2 coordinates run upward. The last two solve
    x * p + y * q = rem, with p, q the last two weights and
    (g, u, _) = xgcd(p, q): no solution unless g divides rem, and then x
    runs upward from u * (rem / g) mod (q / g) in steps of q / g while
    x * p <= rem, with y = (rem - x * p) / q. So no sort is needed;
    ``fiber``, ``fiber_graph`` and ``minimal_generators`` rely on the order.
    """
    *head, p, q = basis.weight.a
    g, u, _ = xgcd(p, q)
    partial = [((), degree)] if degree >= 0 else []
    for ai in head:
        partial = [(pre + (x,), rem - x * ai) for pre, rem in partial for x in range(rem // ai + 1)]
    return tuple(
        pre + (x, (rem - x * p) // q)
        for pre, rem in partial
        if rem % g == 0
        for x in range(u * (rem // g) % (q // g), rem // p + 1, q // g)
    )


def _torsion_error(c: QuotientClass) -> InputError:
    return InputError(f"torsion {c.torsion} is not one of the basis's torsions")


def fiber(basis: LatticeBasis, c: QuotientClass) -> Fiber:
    """Complete enumeration of the nonnegative points in class c."""
    if c.degree < 0:
        raise InputError("fiber degree must be nonnegative")
    if c.torsion not in basis.torsion_code:
        raise _torsion_error(c)
    pts = tuple(
        u for u in degree_fiber(basis, c.degree) if basis.torsion(u) == c.torsion
    )
    return Fiber(c, pts)


def dominated_points(basis: LatticeBasis, p) -> frozenset:
    """Sublattice points coordinatewise below p.

    These are p - u over the fiber of p's class; empty when the weighted
    degree of p is negative.
    """
    if basis.weight.degree(p) < 0:
        return frozenset()
    return frozenset(vsub(p, u) for u in fiber(basis, basis.label(p)).points)


class Thresholds:
    """t_1(r) <= ... <= t_K(r), the K smallest degrees reached at each residue node r.

    These are the k-fold Apery sets (Rosales and Garcia-Sanchez,
    *Numerical Semigroups*, ch. 1). A class of degree d = q * a_s + r and
    torsion t lies at node (r, t - q * t_s), with t_s the torsion of
    [e_s], and its count is the number of walks into that node of degree
    at most d: count >= k exactly when d >= t_k(node). ``f`` and ``m``
    hold F_1..F_K and m_1..m_K for the K of the walk, which may exceed
    the K asked of ``thresholds``; a k outside 1..K raises KeyError.

    Per node only a sorted list and an int offset are kept, and the nodes
    of one run of a cycle share one list: t_k(node) is
    reached[node][k - 1] + offsets[node], and ``least_degrees(k)`` is
    that column. ``f`` and ``m`` are handed in by the walk, which works
    them out from its runs. Taking an atom g away moves all the classes
    of a node to one node, so ``atom_maps`` holds, per atom, deg g and
    that node map, laid out on first read from torsion shifts worked out
    with the walk, and ``minimal_nodes`` reads them.
    ``a_s``, ``block_codes`` and ``block_orders`` lay out the nodes for
    the posets. The basis keeps its last walk, so the walk keeps no
    reference to the basis: the cycle would hold both until a full
    garbage collection.
    """

    def __init__(self, basis: LatticeBasis, reached, offsets, s: int, f, m):
        a_s = basis.weight.a[s]
        units = basis.units
        self.a_s = a_s
        self._t_s = units[s].torsion
        self._moduli = basis.torsion_moduli
        self._torsions = basis.torsions
        self._torsion_code = basis.torsion_code
        self._reached = reached
        self._offsets = offsets
        self.f = tuple(f)
        self.m = tuple(m)
        self._atoms = tuple(sorted(  # see atoms()
            g for g in set(units)
            if not any(self.at_least(basis.class_sub(g, h), 1) for h in units if h != g)
        ))
        # Taking g away is adding the class (-deg g, -t_g): per atom, deg g
        # and that step's torsion shifts, laid out as node maps on first read.
        self._atom_steps = [
            (g.degree, _node_step(basis, s, -g.degree, [-x for x in g.torsion]))
            for g in self._atoms
        ]

    def _column(self, k: int) -> int:
        """Index of t_k in a node's list."""
        if not 1 <= k <= len(self.m):
            raise KeyError(k)
        return k - 1

    def _shift(self, torsion, q) -> tuple[int, ...]:
        """torsion + q * t_s."""
        return tuple((x + q * y) % m for x, y, m in zip(torsion, self._t_s, self._moduli))

    def at_least(self, c: QuotientClass, k: int) -> bool:
        """True when class c has at least k nonnegative representatives."""
        if c.torsion not in self._torsion_code:
            raise _torsion_error(c)
        j = self._column(k)
        q, r = divmod(c.degree, self.a_s)
        node = r * len(self._torsions) + self._torsion_code[self._shift(c.torsion, -q)]
        return c.degree >= self._reached[node][j] + self._offsets[node]

    def least_degrees(self, k: int) -> list[int]:
        """t_k(node) for every node: its least degree with count >= k."""
        j = self._column(k)
        return list(map(add, map(itemgetter(j), self._reached), self._offsets))

    def node_class(self, node: int, d: int) -> QuotientClass:
        """The class of degree d at a node; d must have the node's residue."""
        torsion = self._torsions[node % len(self._torsions)]
        return QuotientClass(d, self._shift(torsion, d // self.a_s))

    def least_classes(self, k: int):
        """Per node, the class of least degree with count >= k."""
        for node, d in enumerate(self.least_degrees(k)):
            yield self.node_class(node, d)

    def atoms(self) -> tuple[QuotientClass, ...]:
        """Atoms of the monoid of representable classes, sorted.

        Every representable class is a sum of unit classes [e_i], so the
        atoms are the distinct [e_i] from which no other [e_j] can be
        taken away leaving a representable class.
        """
        return self._atoms

    @cached_property
    def atom_maps(self) -> tuple[tuple[int, list[int]], ...]:
        """Per atom g, in ``atoms()`` order: deg g and its node map.

        The map sends each node to the node of (class - g), the same for
        every class of the node. So a class c of degree d at node r has
        count(c - g) >= k exactly when d - deg g >= t_k(map[r]), and the
        module tests need no class arithmetic.
        """
        index = len(self._torsions)
        return tuple((d, _node_map(self.a_s, index, *step)) for d, step in self._atom_steps)

    def minimal_nodes(self, least) -> list[int]:
        """The nodes whose least member is minimal, for ``least[v]`` the
        least member degree at node v or None (no member), the members
        closed under adding [e_s]. Taking an atom g from the member of
        degree d leaves one exactly when least[map_g[v]] <= d - deg g.
        """
        maps = self.atom_maps
        return [v for v, d in enumerate(least) if d is not None and not any(
            (e := least[step[v]]) is not None and e <= d - g for g, step in maps)]

    @cached_property
    def block_codes(self) -> list[tuple[int, ...]]:
        """Per block q = 0..F_1 // a_s of the degrees q * a_s .. q * a_s + a_s - 1:
        per torsion code c, the code of t_c + q * t_s, the torsion of the
        block's class at each node r * index + c."""
        step = [self._torsion_code[self._shift(t, 1)] for t in self._torsions]
        up = tuple(range(len(self._torsions)))
        out = []
        for _ in range(self.f[0] // self.a_s + 1):
            out.append(up)
            up = tuple(step[u] for u in up)
        return out

    @cached_property
    def block_orders(self) -> list[list[int]]:
        """Per block, the node of each class of the block in (degree, torsion
        code) order, from the inverse of its ``block_codes``; the shifts
        repeat, and blocks with equal shifts share one list."""
        index = len(self._torsions)
        orders = {}
        for up in self.block_codes:
            if up not in orders:
                down = sorted(range(index), key=up.__getitem__)
                orders[up] = [r * index + c for r in range(self.a_s) for c in down]
        return [orders[up] for up in self.block_codes]


def _node_step(basis: LatticeBasis, s: int, degree: int, torsion) -> tuple:
    """How adding the class (degree, torsion) moves the residue nodes.

    With degree = q * a_s + rem, a node of residue r goes to residue
    r + rem and torsion code low[c] below the wrap, and past it to
    r + rem - a_s and high[c]: each multiple of a_s is one [e_s] taken
    off. Returns (rem, low, high).
    """
    t_s = basis.units[s].torsion
    q, rem = divmod(degree, basis.weight.a[s])
    low, high = (
        basis.torsion_shift([x - p * y for x, y in zip(torsion, t_s)]) for p in (q, q + 1)
    )
    return rem, low, high


def _node_map(a_s: int, index: int, rem: int, low, high) -> list[int]:
    """The node reached from each node, in node order, for one ``_node_step``.

    Node r * index + c goes to (r + rem) * index + low[c] below the wrap,
    the first cut = (a_s - rem) * index nodes, and to
    (r + rem - a_s) * index + high[c] past it. So the map is filled by
    two strided slices per torsion code, O(index) interpreted steps, in
    one list of exactly a_s * index slots.
    """
    nodes = a_s * index
    cut = nodes - rem * index
    out = [0] * nodes
    for c in range(index):
        out[c:cut:index] = range(rem * index + low[c], nodes + low[c], index)
        out[cut + c::index] = range(high[c], rem * index + high[c], index)
    return out


# Largest a_s * index * (K + 6) that one walk may hold: the residue nodes
# times the list length, plus 6 entries a node for what each node keeps
# whatever K is (its slots in the lists and offsets, its node map entry,
# its list's header and its run). That is the worst case, with as many
# runs as nodes: the nodes of one run share a list, so a walk keeps
# runs * K entries, but where every node enters the running K smallest,
# as on the cycles of length 1 of a weight that is a multiple of a_s,
# each keeps its own. On CPython 3.11 an entry, a slot in a list and
# mostly an int of its own, costs about 50 bytes of peak RSS with the
# walk's temporaries, and a node at K = 1 about 335, 7 entries. At the
# budget's edge, on such cycles, (1142857, 1142858, 2285714) with K = 1
# peaks at 401 MB, (100003, 100004, 200006) with K = 73 at 422 MB and
# (50021, 50022, 100042) with K = 153 at 388 MB, so a walk stays under
# about 430 MB.
MAX_WALK_ENTRIES = 8_000_000


def _k_smallest(xs: list, ys: list, k: int) -> list:
    """The k smallest of two sorted lists of at most k entries, for a ys
    that enters: xs is shorter than k or ys[0] < xs[-1]. Runs that do not
    interleave are concatenated, and only the rest are sorted; a slice or
    a concatenation sizes the list to its length."""
    if not xs or xs[-1] <= ys[0]:
        return xs + ys[:k - len(xs)]
    if ys[-1] <= xs[0]:
        return ys + xs[:k - len(ys)]
    return sorted(xs + ys)[:k]


def _first_lists(reached, offsets, table, step: int, k_max: int) -> list:
    """The first generator's lists, in place, and its one run.

    The nodes of node 0's cycle, of length L, share range(0, K * L * step,
    L * step), the node at position p with offset p * step; every other
    node stays empty. A run is (list, first offset, last offset).
    """
    cycle = [0]
    x = table[0]
    while x:
        cycle.append(x)
        x = table[x]
    lap = len(cycle) * step
    first = list(range(0, k_max * lap, lap))
    for x, d in zip(cycle, range(0, lap, step)):
        reached[x] = first
        offsets[x] = d
    return [(first, 0, lap - step)]


def _add_generator(reached, offsets, table, step: int, k_max: int) -> list:
    """A later generator's lists, in place, round each cycle of its node
    map ``table``, and their runs; see ``thresholds``."""
    inf = float("inf")
    runs = []
    seen = bytearray(len(reached))
    start = 0
    while (start := seen.find(0, start)) >= 0:
        # Fold 1: A at the cycle's end; cut is A[-1] once A is full.
        ks, cut = [], inf
        x, d = start, 0
        while True:
            seen[x] = 1
            own = reached[x]
            if own and own[0] + offsets[x] - d < cut:
                shift = offsets[x] - d
                ks = _k_smallest(ks, [v + shift for v in own], k_max)
                if len(ks) == k_max:
                    cut = ks[-1]
            x = table[x]
            d += step
            if x == start:
                break
        if not ks:
            continue  # no multiset reaches this cycle yet
        # t = B by doubling, from A; lap = L * step.
        t, lap, shift = ks, d, d
        while len(t) < k_max or t[0] + shift < t[-1]:
            t = _k_smallest(t, [v + shift for v in t], k_max)
            shift += shift
        # Fold 2, from d = lap on: t = K-smallest((A_P - lap) U B), which
        # is K-smallest(t U own list - lap) of the node before, formed
        # only where it changes and written with offset lap + P * step; lo
        # is the first offset of the run that t serves. At the last node
        # A_P is A, and K-smallest((A - lap) U B) is B - lap: B itself is
        # written there, with offset P * step, and nothing is merged.
        b, cut = t, t[-1]
        x, d, lo = start, lap, lap
        while True:
            own = reached[x]
            if own and own[0] + offsets[x] - d < cut:
                if d > lo:
                    runs.append((t, lo, d - step))
                if table[x] == start:
                    t, d = b, d - lap
                else:
                    shift = offsets[x] - d
                    t = _k_smallest(t, [v + shift for v in own], k_max)
                    cut = t[-1]
                lo = d
            reached[x] = t
            offsets[x] = d
            x = table[x]
            d += step
            if x == start:
                break
        runs.append((t, lo, d - step))
    return runs


def thresholds(basis: LatticeBasis, k_max: int) -> Thresholds:
    """t_1..t_K at every residue node, K >= kmax, from one k-best round robin.

    Each basis object keeps its last walk. It is returned as it is while
    its K covers kmax; a larger kmax walks once with K = kmax and
    replaces it. A walk over MAX_WALK_ENTRIES raises InputError before
    anything is allocated.

    Let a_s be the smallest weight. Every point of N^n is a multiset M of
    the other generators plus some multiple of e_s, so the count of a
    class c of degree d is the number of multisets M in the same class
    modulo <[e_s]> with deg M <= d. The nodes of the residue graph are
    those a_s * index classes, each encoded as one int: degree residue
    times the index, plus the basis's torsion code. With t_k(r) the k-th
    smallest degree of such a multiset at node r, the classes of node r
    with count < k are those of degree t_k(r) - a_s and below, so
    F_k = max(max_r t_k(r) - a_s, -1) and m_k = min_r t_k(r).

    The walk is the k-best form of the round-robin algorithm (Boecker
    and Liptak, Algorithmica 2007). It adds the other generators one at
    a time and keeps, per node, the K = k_max smallest degrees of
    multisets of the generators added so far, as a shared sorted list
    plus an int offset. Adding a_i permutes the nodes, and a multiset
    with a copy of a_i is one at the predecessor plus a_i. On one cycle
    of length L, with x_P the node at position P from its start and
    w_P = t_old(x_P) - P * a_i, the new lists are

        t(x_P) = P * a_i + K-smallest(A_P U (B + L * a_i)),

    with A_P the K smallest w_Q over Q <= P and B those of w_Q + j * L * a_i
    over every Q and j >= 0. This is exact because the K smallest of a
    union depend only on the K smallest of each part, so ties and
    multiplicities come out as in a merge of every list.

    - The first generator's lists are closed-form: the nodes of node 0's
      cycle share range(0, K * L * a_i, L * a_i), the node at position p
      with offset p * a_i, and every other node stays empty.
    - Each later generator takes two folds round each cycle
      (``_add_generator``). The first works out A at the cycle's end: a
      node's list enters only while A is short or when its least w is
      below A[-1], so most steps compare two ints. B comes from that A by
      doubling: after r rounds it holds the terms of fewer than 2^r laps,
      O(K log K * log laps) in all, where a closure lap by lap takes up
      to about K laps. The second fold works a lap up, from t = B: with
      t_P = K-smallest((A_P - L * a_i) U B), which is
      K-smallest(t_{P-1} U (w_P - L * a_i)), a node's list enters t in
      the same way, and t is written with offset (L + P) * a_i, in place.
      At the cycle's last node A_P is A, so t is B - L * a_i there: where
      that node's list enters, B itself is written, with offset P * a_i,
      and no merge is made (one merge in seven on the cycles of length 1
      of (1001, 1003, 2002) at K = 20). The nodes between two entries are
      one run and share one list, so a later generator costs
      O(L + runs * K).

    Every list the walk keeps is made by a slice, a concatenation or
    list() of a range (``_k_smallest``), which size it to its length
    (list() rounds an odd length up one slot, as the allocator's 16-byte
    blocks do anyway); an in-place += or a list built by appends, as a
    comprehension is, would keep about an eighth more. That is why the
    second fold shifts its offsets a lap up rather than B's entries.

    f and m come from the last generator's runs: within a run the
    offsets grow with the position, so t_k is largest at the run's last
    node and least at its first. Every walk checks the bound
    F_k <= m_k + max(F_1, 0).
    """
    if k_max < 1:
        raise InputError("k must be at least 1")
    last = basis._memo.get("walk")
    if last is not None and len(last.f) >= k_max:
        return last
    a = basis.weight.a
    n = basis.n
    s = a.index(min(a))
    a_s = a[s]
    entries = a_s * basis.index * (k_max + 6)
    if entries > MAX_WALK_ENTRIES:
        raise InputError(
            f"the residue walk for k = {k_max} needs a_s * index * (k + 6) = {entries} "
            f"list entries, over the budget of {MAX_WALK_ENTRIES}"
        )
    basis._memo.pop("walk", None)  # let the old lists go before the new ones are built
    index = basis.index
    nodes = a_s * index
    units = basis.units
    gens = [i for i in range(n) if i != s]

    # Node x's degrees are reached[x][j] + offsets[x]; a list is shared
    # by the nodes of a run and replaced, never changed in place. The node
    # maps, the node reached by adding each generator, are built one at a
    # time.
    reached = [[]] * nodes
    offsets = [0] * nodes
    maps = (_node_map(a_s, index, *_node_step(basis, s, a[i], units[i].torsion)) for i in gens)
    runs = _first_lists(reached, offsets, next(maps), a[gens[0]], k_max)
    for i, table in zip(gens[1:], maps):
        runs.clear()  # let the generator before's lists go as they are replaced
        runs = _add_generator(reached, offsets, table, a[i], k_max)

    if min(map(len, reached)) < k_max:
        short = sum(len(degs) < k_max for degs in reached)
        raise RuntimeError(f"residue-graph walk left {short} of {nodes} nodes short")
    # One column t_k of the runs at a time, each a tuple of references: a
    # list of every column would hold as many references as the lists.
    lists, lows, tops = zip(*runs)
    f = [max(max(map(add, col, tops)) - a_s, -1) for col in zip(*lists)]
    m = [min(map(add, col, lows)) for col in zip(*lists)]
    f1 = max(f[0], 0)
    for k, (fk, mk) in enumerate(zip(f, m), start=1):
        if fk > mk + f1:
            raise RuntimeError(f"F_{k} = {fk} exceeds the bound m_k + F_1 = {mk + f1}")
    t = Thresholds(basis, reached, offsets, s, f, m)
    basis._memo["walk"] = t
    return t


def kth_degrees(basis: LatticeBasis, k_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(F_1..F_kmax, m_1..m_kmax) from the residue-graph thresholds."""
    t = thresholds(basis, k_max)
    return t.f[:k_max], t.m[:k_max]


def m_value(basis: LatticeBasis, k: int) -> int:
    """Smallest degree at which some class has count >= k."""
    return thresholds(basis, k).m[k - 1]


def has_nonneg_rep(basis: LatticeBasis, c: QuotientClass) -> bool:
    """True when class c contains a point of N^n."""
    if c.torsion not in basis.torsion_code:
        raise _torsion_error(c)
    return c.degree >= 0 and thresholds(basis, 1).at_least(c, 1)


def atoms(basis: LatticeBasis) -> tuple[QuotientClass, ...]:
    """Atoms of the monoid of representable classes, sorted."""
    return thresholds(basis, 1).atoms()
