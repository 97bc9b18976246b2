"""Pure-difference binomial ideal engine.

Binomials are exponent pairs; S-pairs and reductions are integer vector
operations, never general polynomial arithmetic. The lattice ideal of a
sublattice basis is obtained by saturating the basis binomials variable
by variable with cheapest-variable reverse-lexicographic orders, then
minimalising the generating set: each binomial, in increasing degree,
is dropped when it reduces to zero modulo those kept before it.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .counting import degree_fiber
from .lattice import InputError, LatticeBasis, QuotientClass, WeightVector, dot, vsub


@dataclass(frozen=True)
class TermOrder:
    """Weighted graded reverse-lexicographic order.

    perm lists the variables from most expensive to cheapest; ties in
    weighted degree break by reverse lexicography over that sequence.
    """

    weight: WeightVector
    perm: tuple[int, ...] = ()

    def __post_init__(self):
        perm = self.perm or tuple(range(self.weight.n))
        object.__setattr__(self, "perm", perm)
        if sorted(perm) != list(range(self.weight.n)):
            raise InputError(f"perm {perm} is not a permutation")

    def key(self, u):
        """Sort key: ascending key means ascending monomial order."""
        return (dot(self.weight.a, u), tuple(-u[p] for p in reversed(self.perm)))

    def greater(self, u, v) -> bool:
        return self.key(u) > self.key(v)

    def cheapest_in(self, i: int) -> "TermOrder":
        """Same order with variable i made cheapest."""
        perm = tuple(j for j in range(self.weight.n) if j != i) + (i,)
        return TermOrder(self.weight, perm)


def _pos_part(v):
    return tuple(x if x > 0 else 0 for x in v)


def _neg_part(v):
    return tuple(-x if x < 0 else 0 for x in v)


@dataclass(frozen=True)
class Binomial:
    """Difference of two monomials, head minus tail.

    Markov basis elements always have disjoint supports, so the head and
    tail are the positive and negative parts of the underlying lattice
    vector; intermediate reduction results may share a monomial factor.
    """

    head: tuple[int, ...]
    tail: tuple[int, ...]

    def __post_init__(self):
        if self.head == self.tail:
            raise InputError("zero binomial")
        if any(x < 0 for x in self.head) or any(x < 0 for x in self.tail):
            raise InputError("binomial monomials must have nonnegative exponents")

    @property
    def vector(self) -> tuple[int, ...]:
        return vsub(self.head, self.tail)

    @property
    def is_pure(self) -> bool:
        return all(h == 0 or t == 0 for h, t in zip(self.head, self.tail))

    @classmethod
    def from_vector(cls, v, order: TermOrder) -> "Binomial":
        p, m = _pos_part(v), _neg_part(v)
        if order.greater(p, m):
            return cls(p, m)
        return cls(m, p)


def _reduce_monomial(u, gb, skip=None):
    """One reduction step of monomial u by the first applicable element."""
    for idx, (gh, gt) in enumerate(gb):
        if idx == skip:
            continue
        if all(x >= y for x, y in zip(u, gh)):
            return tuple(x - y + z for x, y, z in zip(u, gh, gt)), True
    return u, False


def _normal_form(pair, gb, order, skip=None):
    """Full normal form of a binomial pair; None when it reduces to zero."""
    u, v = pair
    while True:
        if u == v:
            return None
        u, changed = _reduce_monomial(u, gb, skip)
        if not changed:
            break
        if u == v:
            return None
        if order.greater(v, u):
            u, v = v, u
    while True:
        v, changed = _reduce_monomial(v, gb, skip)
        if not changed:
            break
        if u == v:
            return None
    return (u, v)


def _spair(f, g):
    fh, ft = f
    gh, gt = g
    lcm = tuple(max(x, y) for x, y in zip(fh, gh))
    left = tuple(a - b + c for a, b, c in zip(lcm, fh, ft))
    right = tuple(a - b + c for a, b, c in zip(lcm, gh, gt))
    if left == right:
        return None
    return left, right


def _buchberger_pairs(pairs, order):
    """Reduced Groebner basis of the ideal generated by binomial pairs."""
    G = []
    for p in sorted(set(pairs), key=lambda p: (order.key(p[0]), order.key(p[1]))):
        nf = _normal_form(p, G, order)
        if nf is not None:
            if order.greater(nf[1], nf[0]):
                nf = (nf[1], nf[0])
            G.append(nf)
    queue = []
    counter = 0
    for i in range(len(G)):
        for j in range(i):
            lcm = tuple(max(x, y) for x, y in zip(G[i][0], G[j][0]))
            heapq.heappush(queue, (order.key(lcm), counter, j, i))
            counter += 1
    while queue:
        _, _, i, j = heapq.heappop(queue)
        f, g = G[i], G[j]
        if all(x == 0 or y == 0 for x, y in zip(f[0], g[0])):
            continue  # coprime heads, S-pair reduces to zero
        s = _spair(f, g)
        if s is None:
            continue
        if order.greater(s[1], s[0]):
            s = (s[1], s[0])
        nf = _normal_form(s, G, order)
        if nf is None:
            continue
        G.append(nf)
        new = len(G) - 1
        for i in range(new):
            lcm = tuple(max(x, y) for x, y in zip(G[i][0], G[new][0]))
            heapq.heappush(queue, (order.key(lcm), counter, i, new))
            counter += 1
    return _interreduce(G, order)


def _interreduce(G, order):
    """Minimalise heads, then fully tail-reduce; canonical sorted output."""
    keep = []
    for h, t in sorted(set(G), key=lambda p: (order.key(p[0]), order.key(p[1]))):
        if any(all(x >= y for x, y in zip(h, kh)) for kh, _ in keep):
            continue
        keep.append((h, t))
    while True:
        changed = False
        out = []
        for i, pair in enumerate(keep):
            nf = _normal_form(pair, keep, order, skip=i)
            if nf is None:
                changed = True
                continue
            if nf != pair:
                changed = True
            out.append(nf)
        keep = out
        if not changed:
            break
    return sorted(set(keep), key=lambda p: (order.key(p[0]), order.key(p[1])))


def buchberger(gens, order: TermOrder) -> tuple[Binomial, ...]:
    """Reduced Groebner basis of the ideal generated by the binomials."""
    oriented = []
    for g in gens:
        h, t = g.head, g.tail
        oriented.append((h, t) if order.greater(h, t) else (t, h))
    return tuple(Binomial(h, t) for h, t in _buchberger_pairs(oriented, order))


def _reduces_to_zero(pair, gb_pairs, order) -> bool:
    return _normal_form(pair, gb_pairs, order) is None


def ideal_equal(gens_a, gens_b, order: TermOrder) -> bool:
    """True when the two binomial generating sets span the same ideal."""
    pa = [(g.head, g.tail) for g in gens_a]
    pb = [(g.head, g.tail) for g in gens_b]
    ga = _buchberger_pairs(pa, order)
    gb = _buchberger_pairs(pb, order)
    return all(_reduces_to_zero(p, ga, order) for p in pb) and all(
        _reduces_to_zero(p, gb, order) for p in pa
    )


def _strip_common(pair):
    """Divide out the common monomial factor of the two monomials."""
    h, t = pair
    common = tuple(min(x, y) for x, y in zip(h, t))
    if not any(common):
        return pair, False
    return (vsub(h, common), vsub(t, common)), True


@dataclass(frozen=True)
class MarkovBasis:
    """Minimal binomial generating set of a lattice ideal."""

    basis: LatticeBasis
    elements: tuple[Binomial, ...]
    order_used: TermOrder = field(compare=False)

    def __post_init__(self):
        for b in self.elements:
            if not b.is_pure:
                raise InputError("Markov element with shared monomial factor")
            if not self.basis.contains(b.vector):
                raise InputError(f"Markov vector {b.vector} outside the lattice")

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.vector for b in self.elements)


def lattice_ideal(basis: LatticeBasis, order: TermOrder | None = None) -> MarkovBasis:
    """Minimal Markov basis of the lattice ideal of the given sublattice.

    Saturates the basis binomials with respect to every variable: each
    pass recomputes a reduced Groebner basis in an order with that
    variable cheapest and strips monomial factors, looping until a full
    round leaves the generators untouched. The saturated reduced basis
    is then minimalised in one pass of increasing weighted degree.
    """
    if order is None:
        order = TermOrder(basis.weight)
    n = basis.n
    pairs = [(_pos_part(v), _neg_part(v)) for v in basis.vectors]
    while True:
        stripped_any = False
        for i in range(n):
            ord_i = order.cheapest_in(i)
            gb = _buchberger_pairs(pairs, ord_i)
            out = []
            for p in gb:
                q, stripped = _strip_common(p)
                stripped_any = stripped_any or stripped
                out.append(q)
            pairs = out
        if not stripped_any:
            break
    gb = _buchberger_pairs(pairs, order)
    for h, t in gb:
        if any(x > 0 and y > 0 for x, y in zip(h, t)):
            raise RuntimeError("saturated basis still has a monomial factor")

    def degree_key(p):
        return (dot(basis.weight.a, p[0]), order.key(p[0]), order.key(p[1]))

    # One greedy pass in increasing degree is already minimal (graded
    # Nakayama): a binomial is generated only by binomials of degree at
    # most its own, and a later one of equal degree needed to generate
    # it would itself have been dropped.
    kept: list = []
    for p in sorted(gb, key=degree_key):
        if kept and _reduces_to_zero(p, _buchberger_pairs(kept, order), order):
            continue
        kept.append(p)
    return MarkovBasis(basis, tuple(Binomial(h, t) for h, t in kept), order)


@dataclass(frozen=True)
class FiberGraph:
    """Markov-move graph on the full fiber of one weighted degree."""

    degree: int
    vertices: tuple[tuple[int, ...], ...]
    edges: frozenset

    def components(self) -> tuple[frozenset, ...]:
        remaining = set(self.vertices)
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        comps = []
        while remaining:
            start = min(remaining)
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            remaining -= seen
            comps.append(frozenset(seen))
        return tuple(sorted(comps, key=min))


def fiber_graph(mb: MarkovBasis, c: QuotientClass) -> FiberGraph:
    """Graph on all nonnegative points of c's degree under Markov moves.

    Connected components coincide with quotient classes, so for a proper
    sublattice the graph splits the degree fiber by torsion.
    """
    if c.degree < 0:
        raise InputError("fiber degree must be nonnegative")
    verts = degree_fiber(mb.basis, c.degree)
    vset = set(verts)
    moves = set()
    for v in mb.vectors:
        moves.add(v)
        moves.add(tuple(-x for x in v))
    edges = set()
    for u in verts:
        for mv in moves:
            w = vsub(u, mv)
            if w in vset:
                edges.add((u, w) if u <= w else (w, u))
    return FiberGraph(c.degree, verts, frozenset(edges))
