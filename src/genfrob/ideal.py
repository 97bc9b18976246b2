"""Pure-difference binomial ideal engine.

Binomials are exponent pairs; S-pairs and reductions are integer vector
operations, never general polynomial arithmetic. Buchberger's algorithm
skips an S-pair when its heads are coprime or by the chain criterion
(Gebauer and Moeller, J. Symbolic Comput. 1988). The lattice ideal of a
sublattice basis is obtained by saturating the basis binomials in one
round over the variables, each with a cheapest-variable
reverse-lexicographic order (Hosten and Sturmfels, IPCO 1995), then
minimalising the generating set: each binomial, in increasing degree,
is dropped when the moves of those kept before it connect its head to
its tail (Diaconis and Sturmfels, Ann. Statist. 1998).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .counting import degree_fiber
from .lattice import InputError, LatticeBasis, QuotientClass, WeightVector, dot, vadd, vneg, vsub


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
    """Reduced Groebner basis of the ideal generated by binomial pairs.

    S-pairs are taken in increasing order of their lcm. The pair (i, j)
    is skipped when its heads are coprime, or when the head of another
    element k divides its lcm and neither (i, k) nor (j, k) is pending.
    """
    G = []
    for p in sorted(set(pairs), key=lambda p: (order.key(p[0]), order.key(p[1]))):
        nf = _normal_form(p, G, order)
        if nf is not None:
            if order.greater(nf[1], nf[0]):
                nf = (nf[1], nf[0])
            G.append(nf)
    queue = []
    pending = set()

    def add_pairs(new):
        for i in range(new):
            lcm = tuple(max(x, y) for x, y in zip(G[i][0], G[new][0]))
            heapq.heappush(queue, (order.key(lcm), i, new, lcm))
            pending.add((i, new))

    for new in range(1, len(G)):
        add_pairs(new)
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        f, g = G[i], G[j]
        if all(x == 0 or y == 0 for x, y in zip(f[0], g[0])):
            continue  # coprime heads, S-pair reduces to zero
        if any(
            k != i
            and k != j
            and all(x >= y for x, y in zip(lcm, G[k][0]))
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue  # chain criterion
        s = _spair(f, g)
        if s is None:
            continue
        if order.greater(s[1], s[0]):
            s = (s[1], s[0])
        nf = _normal_form(s, G, order)
        if nf is None:
            continue
        G.append(nf)
        add_pairs(len(G) - 1)
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
        return pair
    return vsub(h, common), vsub(t, common)


def signed_moves(vectors) -> frozenset:
    """The vectors and their negatives: the steps of a Markov move graph."""
    return frozenset(m for v in vectors for m in (tuple(v), vneg(v)))


def _steps(u, moves):
    """The nonnegative points one move away from u."""
    for mv in moves:
        w = vadd(u, mv)
        if min(w) >= 0:
            yield w


def _connected(u, v, moves) -> bool:
    """True when the moves walk u to v through nonnegative points.

    The moves have degree zero, so the walk stays in one finite fiber.
    """
    seen = {u}
    stack = [u]
    while stack:
        for w in _steps(stack.pop(), moves):
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return u == v


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

    Saturates the basis binomials in one round over the variables: pass
    i computes a reduced Groebner basis in an order with variable i
    cheapest and strips monomial factors. Every stripped binomial stays
    in the lattice ideal, and after pass i the generators span at least
    the saturation by x_1 ... x_i, so one round reaches the lattice
    ideal. Its reduced Groebner basis under ``order`` is then
    minimalised in one pass of increasing weighted degree: a binomial
    lies in the ideal of those kept before it exactly when their moves
    connect its head to its tail through nonnegative points.
    """
    if order is None:
        order = TermOrder(basis.weight)
    pairs = [(_pos_part(v), _neg_part(v)) for v in basis.vectors]
    for i in range(basis.n):
        pairs = [_strip_common(p) for p in _buchberger_pairs(pairs, order.cheapest_in(i))]
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
    moves: frozenset = frozenset()
    for h, t in sorted(gb, key=degree_key):
        if _connected(h, t, moves):
            continue
        kept.append((h, t))
        moves = signed_moves(vsub(p, q) for p, q in kept)
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
    moves = signed_moves(mb.vectors)
    edges = set()
    for u in verts:
        for w in _steps(u, moves):
            edges.add((u, w) if u <= w else (w, u))
    return FiberGraph(c.degree, verts, frozenset(edges))
