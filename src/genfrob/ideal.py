"""Pure-difference binomial ideal engine.

Binomials are exponent pairs at the interface. Inside the Groebner
kernel and the Markov minimalisation each monomial is one int, its
exponents in fixed-width fields with a guard bit each, the cheapest
variable in the most significant field (Bachmann and Schoenemann,
ISSAC 1998): a divisibility test, a reduction step, an lcm and the
reverse-lexicographic comparison within one degree are each a few int
operations. Every exponent is at most its monomial's weighted degree,
so fields sized from the largest degree a run meets never overflow; a
run widens them when an S-pair's lcm passes that size, and hands its
basis on packed, with the packing that holds it. The lattice ideal's
last run keeps that packing through the Markov minimalisation.

Buchberger's algorithm prunes pairs once, when an element is added, by
the criteria of Gebauer and Moeller (J. Symbolic Comput. 1988), and
skips pairs with coprime heads. The lattice ideal of a sublattice basis
is obtained by size-reducing the basis and saturating its binomials by
only as many variables as a unit-closure test asks for, each pass a
reduced Groebner basis with that variable cheapest (Hosten and
Sturmfels, IPCO 1995): the passes stop as soon as the closure proves
that saturating the cheapest variable of the target order, in a last
pass, gives the whole lattice ideal. The generating set is then
minimalised: each binomial, in increasing degree, is dropped when the
moves of those kept before it connect its head to its tail (Diaconis and
Sturmfels, Ann. Statist. 1998).

An ideal has exactly one reduced Groebner basis in a given term order
(Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2
section 7), so ``ideal_equal`` compares the reduced bases of the two
generating sets.
"""
from __future__ import annotations

import heapq
from collections import namedtuple
from itertools import permutations
from operator import add, lshift

from .counting import _torsion_error, degree_fiber
from .lattice import InputError, LatticeBasis, QuotientClass, WeightVector, _Validated
from .lattice import dot, vneg, vsub


class TermOrder(_Validated, namedtuple("TermOrder", "weight perm")):
    """Weighted graded reverse-lexicographic order.

    perm lists the variables from most expensive to cheapest; ties in
    weighted degree break by reverse lexicography over that sequence.
    """

    __slots__ = ()

    def __new__(cls, weight: WeightVector, perm: tuple[int, ...] = ()):
        perm = perm or tuple(range(weight.n))
        if sorted(perm) != list(range(weight.n)):
            raise InputError(f"perm {perm} is not a permutation")
        return super().__new__(cls, weight, perm)

    def key(self, u):
        """Sort key: ascending key means ascending monomial order."""
        return (dot(self.weight.a, u), tuple(-u[i] for i in reversed(self.perm)))

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


def _width(degree: int) -> int:
    """Field width for monomials up to the given weighted degree.

    Every weight is at least 1, so no exponent exceeds its monomial's
    degree. The width leaves a guard bit and one spare bit above that
    degree's bits, so a field holds twice the degree.
    """
    return degree.bit_length() + 2


class _Packing(namedtuple("_Packing", "width shifts terms guard cap")):
    """Monomials of one term order packed into one int each, in fields of width bits.

    Variable perm[k] holds field k, so the cheapest variable holds the
    most significant field and, within one weighted degree, the larger
    monomial is the smaller int. The top bit of each field is a guard
    bit, 0 in every packed monomial, so with guard the mask of those bits:
    - g divides u exactly when (u - g) & guard is 0: the lowest field
      with u_i < g_i borrows and sets its guard bit. This is one
      operation shorter than ((u | guard) - g) & guard == guard;
    - a reduction of u by h - t, for h dividing u, is u + (t - h);
    - an lcm takes each field of u where ((u | guard) - v) keeps its
      guard bit, and of v elsewhere.
    shifts holds each variable's field offset, terms its weight and
    offset, and cap is the largest exponent a field holds.
    """

    __slots__ = ()

    def encode(self, u) -> int:
        return sum(map(lshift, u, self.shifts))

    def decode(self, p) -> tuple[int, ...]:
        cap = self.cap
        return tuple([p >> s & cap for s in self.shifts])

    def degree(self, p) -> int:
        cap = self.cap
        d = 0
        for a, s in self.terms:
            d += a * (p >> s & cap)
        return d

    def key(self, p):
        """Sort key: ascending key means ascending monomial order."""
        return self.degree(p), -p

    def lcm(self, u, v) -> int:
        guard = self.guard
        ge = ((u | guard) - v) & guard
        return v ^ ((u ^ v) & (ge - (ge >> (self.width - 1))))

    def record(self, h, t):
        """Reducer record of the packed pair: head, tail - head and the guard mask."""
        return h, t - h, self.guard


def _packing(order: TermOrder, width: int) -> _Packing:
    """The packing of ``order`` with fields of the given width."""
    shifts = [0] * order.weight.n
    for k, i in enumerate(order.perm):
        shifts[i] = width * k
    guard = sum(1 << (s + width - 1) for s in shifts)
    terms = tuple(zip(order.weight.a, shifts))
    return _Packing(width, tuple(shifts), terms, guard, (1 << (width - 1)) - 1)


def _reduce_step(u, reducers):
    """Packed u reduced once by the first reducer whose head divides it, or None."""
    for h, step, guard in reducers:
        if not (u - h) & guard:
            return u + step
    return None


def _reduced(u, reducers):
    """Normal form of the packed monomial u: reduced until no head divides it."""
    while (w := _reduce_step(u, reducers)) is not None:
        u = w
    return u


def _normal_form(u, v, reducers):
    """Full normal form of a homogeneous packed binomial, head first; None at zero.

    Both monomials have one weighted degree, and reductions keep it, so
    they compare by reverse lexicography alone: the larger one is the
    smaller int.
    """
    if u > v:
        u, v = v, u
    while u != v:
        w = _reduce_step(u, reducers)
        if w is None:
            return u, _reduced(v, reducers)
        u = w
        if u > v:
            u, v = v, u
    return None


def _buchberger_pairs(pairs, order):
    """Reduced Groebner basis of the ideal generated by homogeneous binomial pairs.

    Each pair must have one weighted degree (see ``_normal_form``). The
    pairs come in as exponent tuples, and every monomial of the run is
    packed (``_Packing``), in fields wide enough for twice the largest
    input degree. An S-pair whose lcm has a degree past what a field
    holds first widens the fields of every monomial the run keeps. The
    basis goes out packed and sorted, as ``_interreduce`` gives it,
    together with the run's last packing, which holds it.
    S-pairs are taken in increasing order of their lcm. Pairs are pruned
    once, when an element h is added, by the criteria of Gebauer and
    Moeller (J. Symbolic Comput. 1988):
    - B: a pending pair (i, j) goes when the head of h divides its lcm
      and that lcm differs from the lcms of (i, h) and of (j, h);
    - M: a new pair (i, h) is not formed when the lcm of another new
      pair properly divides its lcm;
    - F: of the new pairs with equal lcms one is formed, and none when
      one of them has coprime heads (those reduce to zero).
    Criterion M takes the distinct new lcms in increasing packed value
    and tests each only against those kept as minimal before it. A proper
    divisor is a strictly smaller int, so it comes earlier; and when one
    exists, a minimal one divides it, which is kept and divides the lcm
    too, since divisibility is transitive.
    An element whose head the head of h divides leaves the reducer
    list; its pending pairs stay.
    """
    pairs = set(pairs)
    a = order.weight.a
    packing = _packing(order, _width(max((dot(a, h) for h, _ in pairs), default=0)))
    elements = []  # reducer records of every element added
    active = []  # indices of the reducers, in the order they were added
    reducers = []  # their records
    live = {}  # pending pair (i, j) -> lcm of the heads
    queue = []  # (degree of the lcm, -lcm, i, j)

    def add_element(h, t):
        guard = packing.guard
        new = len(elements)
        elements.append(packing.record(h, t))
        dead = [
            (i, j)
            for (i, j), lcm in live.items()
            if not (lcm - h) & guard
            and lcm != packing.lcm(elements[i][0], h)
            and lcm != packing.lcm(elements[j][0], h)
        ]
        for ij in dead:
            del live[ij]  # criterion B
        first = {}  # lcm with h -> the first reducer giving it
        coprime = set()  # lcms of the pairs with coprime heads
        for i in active:
            g = elements[i][0]
            lcm = packing.lcm(g, h)
            if lcm not in first:
                first[lcm] = i
            if lcm == g + h:
                coprime.add(lcm)
        minimal = []  # the new lcms no other divides
        for lcm in sorted(first):
            for m in minimal:
                if not (lcm - m) & guard:
                    break  # criterion M
            else:
                minimal.append(lcm)
                if lcm not in coprime:  # else criterion F, or coprime heads
                    i = first[lcm]
                    live[i, new] = lcm
                    heapq.heappush(queue, (packing.degree(lcm), -lcm, i, new))
        active[:] = [i for i in active if (elements[i][0] - h) & guard]
        active.append(new)
        reducers[:] = [elements[i] for i in active]

    def widen(degree):
        nonlocal packing
        old, packing = packing, _packing(order, _width(degree))

        def repack(p):
            return packing.encode(old.decode(p))

        elements[:] = [packing.record(repack(h), repack(h + step)) for h, step, _ in elements]
        reducers[:] = [elements[i] for i in active]
        for ij, lcm in live.items():
            live[ij] = repack(lcm)
        queue[:] = [(d, -repack(-m), i, j) for d, m, i, j in queue]
        heapq.heapify(queue)

    packed = [tuple(map(packing.encode, p)) for p in pairs]
    for u, v in sorted(packed, key=lambda p: (packing.degree(p[0]), -p[0], -p[1])):
        nf = _normal_form(u, v, reducers)
        if nf is not None:
            add_element(*nf)
    while queue:
        degree, _, i, j = heapq.heappop(queue)
        if (i, j) not in live:
            continue  # dropped by criterion B
        if degree > packing.cap:
            widen(degree)
        lcm = live.pop((i, j))
        nf = _normal_form(lcm + elements[i][1], lcm + elements[j][1], reducers)
        if nf is not None:
            add_element(*nf)
    # A reducer head is a normal form of those before it, and the heads it
    # divides leave the list: the reducers' heads are already minimal.
    return _interreduce(reducers, packing), packing


def _minimal_heads(G, packing):
    """Reducer records of the packed pairs whose heads no other head divides.

    In increasing order a proper divisor comes first, so each head is
    tested only against those kept before it.
    """
    guard = packing.guard
    keep = []
    for h, t in sorted(set(G), key=lambda p: packing.key(p[0])):
        for k, _, _ in keep:
            if not (h - k) & guard:
                break
        else:
            keep.append(packing.record(h, t))
    return keep


def _interreduce(records, packing):
    """Reduced Groebner basis, packed and sorted, from the records of a homogeneous one.

    The records' heads must be minimal. Each tail has one normal form
    modulo them, so one pass of tail reductions gives the reduced basis.
    An element never reduces its own tail: the tail has the head's
    degree, so the head divides it only when they are equal.
    """
    records = sorted(records, key=lambda r: packing.key(r[0]))
    return [(h, _reduced(h + step, records)) for h, step, _ in records]


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
    G, packing = _buchberger_pairs(_homogeneous(gens, order), order)
    return tuple(Binomial(packing.decode(h), packing.decode(t)) for h, t in G)


def ideal_equal(gens_a, gens_b, order: TermOrder) -> bool:
    """True when the two sets of homogeneous binomials span the same ideal.

    An ideal has exactly one reduced Groebner basis in a given term
    order, so the two spans are equal exactly when their reduced bases are.
    """
    return buchberger(gens_a, order) == buchberger(gens_b, order)


def _divide_out(pair, i):
    """Divide out the power of variable i common to the two monomials."""
    h, t = pair
    c = min(h[i], t[i])
    if not c:
        return pair
    return h[:i] + (h[i] - c,) + h[i + 1 :], t[:i] + (t[i] - c,) + t[i + 1 :]


def _supports(pairs):
    """Bitmasks of the variables in the head and in the tail of each pair."""
    return [tuple(sum(1 << i for i, x in enumerate(u) if x) for u in p) for p in pairs]


def _unit_closure(supports, units: int) -> int:
    """Bitmask of the variables made units by the binomials once the given ones are.

    supports holds the head and tail masks of each binomial x^u - x^v.
    When one side has all its variables in the set, that side is a unit
    modulo the binomial, so x^u and x^v are both units and every variable
    of the other side joins the set.
    """
    grew = True
    while grew:
        grew = False
        for hm, tm in supports:
            for side, other in ((hm, tm), (tm, hm)):
                if not other & ~units and side & ~units:
                    units |= side
                    grew = True
    return units


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


def _connected(u, v, moves, guard) -> bool:
    """True when the packed moves walk u to v through nonnegative points.

    A move is a pair (s, t) of packed monomials, the negative and the
    positive part of its vector: it takes w to w - s + t when w - s sets
    no guard bit. The moves have degree zero, so the walk stays in one
    finite fiber.
    """
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for s, t in moves:
            x = w - s
            if x & guard:
                continue
            x += t
            if x == v:
                return True
            if x not in seen:
                seen.add(x)
                stack.append(x)
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
    strips every common monomial factor instead, on the run's packed
    monomials, where the factor of x^h - x^t is the fieldwise minimum
    h + t - lcm(h, t). Each stripped binomial still lies in I_L and its
    head divides that one, so the stripped set is a Groebner basis of
    I_L too, and interreducing it gives the reduced one. That basis is
    unique, so neither the start basis nor the choice of passes changes
    the result. It is then minimalised in one pass of increasing
    weighted degree: a binomial lies in the ideal of those kept before
    it exactly when their moves connect its head to its tail through
    nonnegative points.
    """
    if order is None:
        order = TermOrder(basis.weight)
    everything = (1 << basis.n) - 1
    saturated = 1 << order.perm[-1]
    pairs = [(_pos_part(v), _neg_part(v)) for v in _short_vectors(basis.vectors)]
    while _unit_closure(supports := _supports(pairs), saturated) != everything:
        i = max(
            (j for j in range(basis.n) if not saturated >> j & 1),
            key=lambda j: (_unit_closure(supports, saturated | 1 << j).bit_count(), -j),
        )
        G, packing = _buchberger_pairs(pairs, order.cheapest_in(i))
        pairs = [_divide_out(tuple(map(packing.decode, p)), i) for p in G]
        saturated |= 1 << i
    gb, packing = _buchberger_pairs(pairs, order)
    # Dividing out a pair's common factor, its fieldwise minimum
    # h + t - lcm(h, t), leaves lcm(h, t) - t and lcm(h, t) - h.
    stripped = [((m := packing.lcm(h, t)) - t, m - h) for h, t in gb]
    if stripped != gb:
        gb = _interreduce(_minimal_heads(stripped, packing), packing)

    # One greedy pass in increasing degree is already minimal (graded
    # Nakayama): a binomial is generated only by binomials of degree at
    # most its own, and a later one of equal degree needed to generate
    # it would itself have been dropped. Every point of a walk has the
    # degree of the binomial tested, so the packing of gb holds it.
    kept = []
    moves = []  # (s, t) for a move w -> w - s + t
    for h, t in sorted(gb, key=lambda p: (packing.key(p[0]), packing.key(p[1]))):
        if packing.lcm(h, t) != h + t:
            raise RuntimeError("saturated basis still has a monomial factor")
        if not _connected(h, t, moves, packing.guard):
            kept.append(Binomial(packing.decode(h), packing.decode(t)))
            moves += ((t, h), (h, t))
    return MarkovBasis(basis, tuple(kept))


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
    if c.torsion not in mb.basis.torsion_code:
        raise _torsion_error(c)
    verts = degree_fiber(mb.basis, c.degree)
    moves = signed_moves(mb.vectors)
    edges = set()
    for u in verts:
        for mv in moves:
            w = tuple(map(add, u, mv))
            if min(w) >= 0:
                edges.add((u, w) if u <= w else (w, u))
    return FiberGraph(c.degree, verts, frozenset(edges))
