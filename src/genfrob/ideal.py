"""Pure-difference binomial ideal engine.

Binomials are exponent pairs; S-pairs and reductions are integer vector
operations, never general polynomial arithmetic. Buchberger's algorithm
prunes pairs once, when an element is added, by the criteria of Gebauer
and Moeller (J. Symbolic Comput. 1988), and skips pairs with coprime
heads. The lattice ideal of a sublattice basis is obtained by
size-reducing the basis and saturating its binomials by only as many
variables as a unit-closure test asks for, each pass a reduced Groebner
basis with that variable cheapest (Hosten and Sturmfels, IPCO 1995):
the passes stop as soon as the closure proves that saturating the
cheapest variable of the target order, in a last pass, gives the whole
lattice ideal. The generating set is then minimalised: each binomial,
in increasing degree, is dropped when the moves of those kept before it
connect its head to its tail (Diaconis and Sturmfels, Ann. Statist.
1998).
"""
from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cached_property
from itertools import permutations
from operator import add, ge, itemgetter, neg, sub

from .counting import degree_fiber
from .lattice import InputError, LatticeBasis, QuotientClass, WeightVector, _Validated, _read_only
from .lattice import dot, vneg, vsub


class TermOrder(_Validated, namedtuple("TermOrder", "weight perm")):
    """Weighted graded reverse-lexicographic order.

    perm lists the variables from most expensive to cheapest; ties in
    weighted degree break by reverse lexicography over that sequence.
    """

    __setattr__ = _read_only

    def __new__(cls, weight: WeightVector, perm: tuple[int, ...] = ()):
        perm = perm or tuple(range(weight.n))
        if sorted(perm) != list(range(weight.n)):
            raise InputError(f"perm {perm} is not a permutation")
        return super().__new__(cls, weight, perm)

    @cached_property
    def _cheapest_first(self):
        """Reads a monomial's exponents cheapest variable first; kept once read."""
        return itemgetter(*reversed(self.perm))

    def key(self, u):
        """Sort key: ascending key means ascending monomial order."""
        return (dot(self.weight.a, u), tuple(map(neg, self._cheapest_first(u))))

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


class Binomial(_Validated, namedtuple("Binomial", "head tail")):
    """Difference of two monomials, head minus tail.

    Markov basis elements always have disjoint supports, so the head and
    tail are the positive and negative parts of the underlying lattice
    vector; intermediate reduction results may share a monomial factor.
    """

    __slots__ = ()

    def __new__(cls, head: tuple[int, ...], tail: tuple[int, ...]):
        if head == tail:
            raise InputError("zero binomial")
        if any(x < 0 for x in head) or any(x < 0 for x in tail):
            raise InputError("binomial monomials must have nonnegative exponents")
        return super().__new__(cls, head, tail)

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


def _support(u) -> int:
    """Bitmask of the variables with a positive exponent in u, a byte each."""
    return int.from_bytes(bytes(map(bool, u)), "little")


def _record(h, t):
    """Reducer record of the pair: head, tail - head and the head's support."""
    return h, tuple(map(sub, t, h)), _support(h)


def _reduce_step(u, reducers):
    """u reduced once by the first reducer whose head divides it, or None.

    A head whose support is not inside u's is skipped on its mask alone.
    """
    outside = ~_support(u)
    for gh, step, gm in reducers:
        if not gm & outside and all(map(ge, u, gh)):
            return tuple(map(add, u, step))
    return None


def _reduced(u, reducers):
    """Normal form of the monomial u: reduced until no head divides it."""
    while (w := _reduce_step(u, reducers)) is not None:
        u = w
    return u


def _normal_form(pair, reducers, order):
    """Full normal form of a homogeneous binomial pair, head first; None at zero.

    Both monomials have one weighted degree, and reductions keep it, so
    they compare by reverse lexicography alone: the larger one has the
    lexicographically smaller exponents, read cheapest variable first.
    """
    cheapest_first = order._cheapest_first
    u, v = pair
    cu, cv = cheapest_first(u), cheapest_first(v)
    if cu > cv:
        u, v, cv = v, u, cu
    while u != v:
        w = _reduce_step(u, reducers)
        if w is None:
            return u, _reduced(v, reducers)
        u, cu = w, cheapest_first(w)
        if cu > cv:
            u, v, cv = v, u, cu
    return None


def _lcm(u, v):
    return tuple(map(max, u, v))


def _buchberger_pairs(pairs, order):
    """Reduced Groebner basis of the ideal generated by homogeneous binomial pairs.

    Each pair must have one weighted degree (see ``_normal_form``).
    S-pairs are taken in increasing order of their lcm. Pairs are pruned
    once, when an element h is added, by the criteria of Gebauer and
    Moeller (J. Symbolic Comput. 1988):
    - B: a pending pair (i, j) goes when the head of h divides its lcm
      and that lcm differs from the lcms of (i, h) and of (j, h);
    - M: a new pair (i, h) is not formed when the lcm of another new
      pair properly divides its lcm;
    - F: of the new pairs with equal lcms one is formed, and none when
      one of them has coprime heads (those reduce to zero).
    Criterion M takes the distinct new lcms in increasing total degree
    and tests each only against those kept as minimal before it. A proper
    divisor has a strictly smaller total degree, so it comes earlier; and
    when one exists, a minimal one divides it, which is kept and divides
    the lcm too, since divisibility is transitive.
    An element whose head the head of h divides leaves the reducer
    list; its pending pairs stay. Every element keeps the support mask
    of its head, and each pending pair that of its lcm: a monomial whose
    support is not inside another's does not divide it, which skips most
    divisibility tests on the masks alone.
    """
    key = order.key
    elements = []  # reducer records of every element added
    active = []  # indices of the reducers, in the order they were added
    reducers = []  # their records
    live = {}  # pending pair (i, j) -> (lcm of the heads, its support)
    queue = []

    def add_element(nf):
        new = len(elements)
        record = _record(*nf)
        h, _, hm = record
        elements.append(record)
        dead = [
            (i, j)
            for (i, j), (lcm, lm) in live.items()
            if not hm & ~lm
            and all(map(ge, lcm, h))
            and lcm != _lcm(elements[i][0], h)
            and lcm != _lcm(elements[j][0], h)
        ]
        for ij in dead:
            del live[ij]  # criterion B
        first = {}  # lcm with h -> (the first reducer giving it, its support)
        coprime = set()  # lcms of the pairs with coprime heads
        for i in active:
            gh, _, gm = elements[i]
            lcm = tuple(map(max, gh, h))
            if lcm not in first:
                first[lcm] = (i, gm | hm)
            if not gm & hm:
                coprime.add(lcm)
        minimal = []  # (lcm, support) of the new lcms no other divides
        for lcm in sorted(first, key=sum):
            i, lm = first[lcm]
            outside = ~lm
            for m, mm in minimal:
                if not mm & outside and all(map(ge, lcm, m)):
                    break  # criterion M
            else:
                minimal.append((lcm, lm))
                if lcm not in coprime:  # else criterion F, or coprime heads
                    live[i, new] = (lcm, lm)
                    heapq.heappush(queue, (key(lcm), i, new))
        active[:] = [
            i for i in active if hm & ~elements[i][2] or not all(map(ge, elements[i][0], h))
        ]
        active.append(new)
        reducers[:] = [elements[i] for i in active]

    for p in sorted(set(pairs), key=lambda p: (key(p[0]), key(p[1]))):
        nf = _normal_form(p, reducers, order)
        if nf is not None:
            add_element(nf)
    while queue:
        _, i, j = heapq.heappop(queue)
        pending = live.pop((i, j), None)
        if pending is None:
            continue  # dropped by criterion B
        lcm = pending[0]
        left = tuple(map(add, lcm, elements[i][1]))
        right = tuple(map(add, lcm, elements[j][1]))
        nf = _normal_form((left, right), reducers, order)
        if nf is not None:
            add_element(nf)
    # A reducer head is a normal form of those before it, and the heads it
    # divides leave the list: the reducers' heads are already minimal.
    return _interreduce(reducers, order)


def _minimal_heads(G, order):
    """Reducer records of the pairs whose heads no other head divides.

    In increasing order a proper divisor comes first, so each head is
    tested only against those kept before it.
    """
    key = order.key
    keep = []
    for h, t in sorted(set(G), key=lambda p: key(p[0])):
        record = _record(h, t)
        outside = ~record[2]
        if any(not km & outside and all(map(ge, h, kh)) for kh, _, km in keep):
            continue
        keep.append(record)
    return keep


def _interreduce(records, order):
    """Reduced Groebner basis, sorted, from the records of a homogeneous one.

    The records' heads must be minimal. Each tail has one normal form
    modulo them, so one pass of tail reductions gives the reduced basis.
    An element never reduces its own tail: the tail has the head's
    degree, so the head divides it only when they are equal.
    """
    records = sorted(records, key=lambda r: order.key(r[0]))
    return [(h, _reduced(tuple(map(add, h, step)), records)) for h, step, _ in records]


def _homogeneous(gens, order):
    """The generators as pairs; InputError when head and tail differ in degree."""
    a = order.weight.a
    pairs = [(g.head, g.tail) for g in gens]
    for h, t in pairs:
        if dot(a, h) != dot(a, t):
            raise InputError(f"binomial {h} - {t} is not homogeneous in the weight grading")
    return pairs


def buchberger(gens, order: TermOrder) -> tuple[Binomial, ...]:
    """Reduced Groebner basis of the ideal generated by homogeneous binomials."""
    return tuple(Binomial(h, t) for h, t in _buchberger_pairs(_homogeneous(gens, order), order))


def _reduces_to_zero(pair, gb_pairs, order) -> bool:
    return _normal_form(pair, [_record(h, t) for h, t in gb_pairs], order) is None


def ideal_equal(gens_a, gens_b, order: TermOrder) -> bool:
    """True when the two sets of homogeneous binomials span the same ideal."""
    pa = _homogeneous(gens_a, order)
    pb = _homogeneous(gens_b, order)
    ga = _buchberger_pairs(pa, order)
    gb = _buchberger_pairs(pb, order)
    return all(_reduces_to_zero(p, ga, order) for p in pb) and all(
        _reduces_to_zero(p, gb, order) for p in pa
    )


def _divide_out(pair, i):
    """Divide out the power of variable i common to the two monomials."""
    h, t = pair
    c = min(h[i], t[i])
    if not c:
        return pair
    return h[:i] + (h[i] - c,) + h[i + 1 :], t[:i] + (t[i] - c,) + t[i + 1 :]


def _unit_closure(pairs, units) -> set:
    """Variables made units by the binomials once the given ones are.

    When one side of x^u - x^v has all its variables in the set, that
    side is a unit modulo the binomial, so x^u and x^v are both units
    and every variable of the other side joins the set.
    """
    units = set(units)
    grew = True
    while grew:
        grew = False
        for h, t in pairs:
            for u, v in ((h, t), (t, h)):
                if all(x == 0 or i in units for i, x in enumerate(v)):
                    new = {i for i, x in enumerate(u) if x} - units
                    if new:
                        units |= new
                        grew = True
    return units


def _strip_common(pair):
    """Divide out the common monomial factor of the two monomials."""
    h, t = pair
    common = tuple(min(x, y) for x, y in zip(h, t))
    if not any(common):
        return pair
    return vsub(h, common), vsub(t, common)


def _short_vectors(vectors):
    """Size-reduced basis of the same lattice, by unimodular pairwise steps.

    b_i becomes b_i - q b_j, q the integer nearest to <b_i, b_j> / <b_j, b_j>,
    whenever that makes b_i strictly shorter. The sum of the squared
    lengths falls at every step, so the loop ends.
    """
    vecs = [tuple(v) for v in vectors]
    norms = [dot(v, v) for v in vecs]
    changed = True
    while changed:
        changed = False
        for i, j in permutations(range(len(vecs)), 2):
            q = (2 * dot(vecs[i], vecs[j]) + norms[j]) // (2 * norms[j])
            if q:
                w = tuple(x - q * y for x, y in zip(vecs[i], vecs[j]))
                nw = dot(w, w)
                if nw < norms[i]:
                    vecs[i], norms[i], changed = w, nw, True
    return vecs


def signed_moves(vectors) -> frozenset:
    """The vectors and their negatives: the steps of a Markov move graph."""
    return frozenset(m for v in vectors for m in (tuple(v), vneg(v)))


def _steps(u, moves):
    """The nonnegative points one move away from u."""
    for mv in moves:
        w = tuple(map(add, u, mv))
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


class MarkovBasis(_Validated, namedtuple("MarkovBasis", "basis elements")):
    """Minimal binomial generating set of a lattice ideal."""

    __slots__ = ()

    def __new__(cls, basis: LatticeBasis, elements: tuple[Binomial, ...]):
        for b in elements:
            if not b.is_pure:
                raise InputError("Markov element with shared monomial factor")
            if not basis.contains(b.vector):
                raise InputError(f"Markov vector {b.vector} outside the lattice")
        return super().__new__(cls, basis, elements)

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.vector for b in self.elements)


def lattice_ideal(basis: LatticeBasis, order: TermOrder | None = None) -> MarkovBasis:
    """Minimal Markov basis of the lattice ideal of the given sublattice.

    Starts from a size-reduced basis of the same lattice (short vectors
    give small binomials) and saturates their binomials by a few
    variables. A pass for variable i computes a reduced Groebner basis
    in an order with x_i cheapest and divides each element by the power
    of x_i common to both terms. The binomials are homogeneous in the
    weight grading, so that gives J : x_i^oo exactly (Sturmfels,
    *Groebner Bases and Convex Polytopes*, Lemma 12.1). After passes for
    a set T of variables the binomials thus generate J = J_0 : (x_T)^oo,
    with J_0 the ideal of the start binomials, and J is saturated by
    every variable of T.

    The last pass runs in ``order`` itself and saturates its cheapest
    variable l. While the unit closure U of T + {l} under the current
    binomials (the lemma below) misses a variable, one more pass is
    made, for the variable that grows U most (the first on ties).

    Lemma. Let J be contained in I_L and contain binomials whose vectors
    generate L, and let S be a set of variables. Start with U = S, and
    whenever a binomial x^u - x^v of J has supp(v) in U, add supp(u) to
    U. If U reaches every variable, then J : (x_S)^oo = I_L.

    Proof. Every x^w - 1 with w in L lies in J localised at all the
    variables, since the vectors of J's binomials generate L, and every
    binomial of I_L is x^v (x^(u - v) - 1). So for f in I_L there is a
    monomial x^m with x^m f in J. In R_(x_S)/J the variables of S are
    units, and by induction so is every variable of U: when x^v is a
    unit, so is x^u = x^v, and so is each variable dividing it. If U is
    every variable, x^m is a unit there, so f lies in J R_(x_S), whose
    contraction to R is J : (x_S)^oo. Conversely J : (x_S)^oo lies in
    I_L : (x_S)^oo = I_L.

    With S = T + {l}, J : (x_S)^oo = (J : (x_T)^oo) : x_l^oo = J : x_l^oo,
    which the last pass computes, so its output generates I_L. When T
    holds every variable but l, U = S is every variable, so the loop
    never makes more than the n runs of a pass per variable.

    Dividing the last pass by powers of x_l alone would give a Groebner
    basis of J : x_l^oo = I_L under ``order`` (Lemma 12.1 again). It
    strips every common monomial factor instead; each stripped binomial
    still lies in I_L and its head divides that one, so the stripped set
    is a Groebner basis of I_L too, and interreducing it gives the
    reduced one. That basis is unique, so neither the start basis nor
    the choice of passes changes the result. It is then minimalised in
    one pass of increasing weighted degree: a binomial lies in the ideal
    of those kept before it exactly when their moves connect its head to
    its tail through nonnegative points.
    """
    if order is None:
        order = TermOrder(basis.weight)
    everything = set(range(basis.n))
    saturated = {order.perm[-1]}
    pairs = [(_pos_part(v), _neg_part(v)) for v in _short_vectors(basis.vectors)]
    while _unit_closure(pairs, saturated) != everything:
        i = max(
            everything - saturated,
            key=lambda j: (len(_unit_closure(pairs, saturated | {j})), -j),
        )
        pairs = [_divide_out(p, i) for p in _buchberger_pairs(pairs, order.cheapest_in(i))]
        saturated.add(i)
    gb = _buchberger_pairs(pairs, order)
    stripped = [_strip_common(p) for p in gb]
    if stripped != gb:
        gb = _interreduce(_minimal_heads(stripped, order), order)
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
    moves: set = set()
    for h, t in sorted(gb, key=degree_key):
        if _connected(h, t, moves):
            continue
        kept.append((h, t))
        moves |= signed_moves([vsub(h, t)])
    return MarkovBasis(basis, tuple(Binomial(h, t) for h, t in kept))


class FiberGraph(namedtuple("FiberGraph", "degree vertices edges")):
    """Markov-move graph on the full fiber of one weighted degree; vertices sorted."""

    __slots__ = ()

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
