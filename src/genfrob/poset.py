"""Structure posets of a sublattice and of its modules.

Ground set: quotient classes of weighted degree 0..F_1, ordered by
"the difference class has a nonnegative representative". Module posets
are the degree-shifted label sets of classes whose count reaches k
inside the window [m_k, m_k + F_1]; their minimal elements match the
generator orbits.

Both posets read F_1, representability and the atoms of the monoid of
representable classes from the basis's one residue walk, which
``module_poset`` also takes m_k from; module posets read their labels'
counts from the basis's oracle counting table, by one bisection per
residue node. In the window both member sets are closed under adding a
representable class, so y covers x exactly when y = x + atom is a
member, and a label x is minimal exactly when no x - atom is a label.

Both posets are one node vector: per residue node of the walk, the
least member degree there, or None. The structure poset's vector holds
each node's residue, so every class of degree 0..F_1 is a member; a
module poset's holds its least label degrees. Members are computed as
codes, degree * index + torsion code, whose order is the (degree,
torsion) order of the output: ``_labels`` lists them block by block
of the walk's ``block_orders``, with no sort, and ``_covers`` takes
the Hasse covers from the walk's node maps, one integer comparison per
member and atom. Minimality is ``Thresholds.minimal_nodes`` on the same
maps, and ``finiteness_report`` tells posets apart and finds the full
ones from the vectors. The classes, the covers as class pairs and
the representable classes are built from the codes the first time they
are read; ``verify`` reads none of them, and the CLI writes its output
from the codes. A structure poset over MAX_POSET_ELEMENTS classes raises
InputError after the walk, before any member is listed, and
``poset -k`` holds a module poset's window to the same budget before
its table is built. ``max_antichain_size`` is Dilworth's theorem
through a maximum bipartite matching. The class-by-class module poset, the cover builder
by class addition, the transitive reduction and the exhaustive
antichain search live on as oracles in the test suite.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import cached_property

from .counting import _oracle_table, m_value, thresholds
from .lattice import InputError, LatticeBasis, QuotientClass, _read_only

# Largest (F_1 + 1) * index, the classes of degree 0..F_1, that one
# structure poset, or one listed module poset's window, may hold; its
# covers number at most the atoms times the elements. On CPython 3.11
# `poset -a 1001,1003,1007` (335,334 elements, 3 atoms, 1,002,991
# covers) peaks at about 330 MB of RSS as text, 365 MB as DOT and
# 465 MB as JSON, mostly the cover pairs and the output text, so a
# structure poset stays under about 500 MB.
# (10007, 10009, 10037) has 6,814,762 elements.
MAX_POSET_ELEMENTS = 360_000


def _check_window(basis: LatticeBasis, f1: int, name: str) -> None:
    """Raise InputError when (F_1 + 1) * index exceeds MAX_POSET_ELEMENTS."""
    elements = (f1 + 1) * basis.index
    if elements > MAX_POSET_ELEMENTS:
        raise InputError(
            f"the {name} has (F_1 + 1) * index = {elements} elements, "
            f"over the budget of {MAX_POSET_ELEMENTS}"
        )


def _codes(basis: LatticeBasis, nodes) -> list[int]:
    """Codes y * index + u, in order, of the classes of degree y in 0..F_1
    and torsion code u whose node v has nodes[v] <= y (None: no class).

    As nodes[v] has the node's residue, nodes[v] <= y exactly when the
    block of nodes[v] is at most that of y, so each block of the walk's
    ``block_orders`` is one pass over its nodes in code order.
    """
    t = thresholds(basis, 1)
    orders = t.block_orders
    index = basis.index
    first = [len(orders) if y is None else y // t.a_s for y in nodes]
    out = []
    for q, order in enumerate(orders):
        base = q * t.a_s * index
        out += [base + o for o, v in enumerate(order) if first[v] <= q]
    del out[bisect_left(out, (t.f[0] + 1) * index):]
    return out


def _labels(basis: LatticeBasis, nodes) -> list[int]:
    """The member codes of a node vector, in (degree, torsion) order: one
    label expansion (``_covers`` lists its codes without it)."""
    return _codes(basis, nodes)


def _covers(basis: LatticeBasis, nodes) -> list[tuple[int, int]]:
    """Hasse covers of a node vector's members: code pairs (z - g, z), sorted.

    A member z of degree y at node v covers z - g, for an atom g, exactly
    when the node w the walk's map for g sends v to holds a degree
    nodes[w] <= y - deg g. That degree has the residue of y - deg g, so
    the z are the members of the vector max(nodes[v], nodes[w] + deg g).
    Taking g away moves the torsion code u of z to down[u], so z - g is
    z + down[u] - u - deg g * index.
    """
    t = thresholds(basis, 1)
    index = basis.index
    pairs = []
    for g, (dg, step) in zip(t.atoms(), t.atom_maps):
        above = [
            None if y is None or nodes[w] is None else max(y, nodes[w] + dg)
            for y, w in zip(nodes, step)
        ]
        down = basis.torsion_shift([-x for x in g.torsion])
        delta = [c - u - dg * index for u, c in enumerate(down)]
        his = _codes(basis, above)
        pairs += zip([z + delta[z % index] for z in his], his)
    pairs.sort()
    return pairs


def _classes(basis: LatticeBasis, codes) -> dict:
    """Each code -> its class."""
    index = basis.index
    torsions = basis.torsions
    return {z: QuotientClass(z // index, torsions[z % index]) for z in codes}


class _CodedPoset:
    """The members and covers of a poset given by ``basis`` and ``nodes``:
    as codes, and as classes built from them."""

    @cached_property
    def label_codes(self) -> list[int]:
        """The members' codes, degree * index + torsion code, in order."""
        return _labels(self.basis, self.nodes)

    @cached_property
    def cover_codes(self) -> list[tuple[int, int]]:
        """The Hasse covers as sorted code pairs."""
        return _covers(self.basis, self.nodes)

    def _members(self) -> tuple:
        return tuple(_classes(self.basis, self.label_codes).values())

    def _class_covers(self) -> tuple:
        classes = _classes(self.basis, self.label_codes)
        return tuple((classes[x], classes[y]) for x, y in self.cover_codes)


class StructurePoset(namedtuple("StructurePoset", "basis f1"), _CodedPoset):
    """Every class of degree 0..F_1, ordered by representable differences.

    One node vector, each node's residue, fixes the members; the
    elements in (degree, torsion) order, the covers and the
    representable classes are built the first time they are read.
    """

    __setattr__ = _read_only

    @cached_property
    def nodes(self) -> tuple:
        index = self.basis.index
        return tuple(v // index for v in range(thresholds(self.basis, 1).a_s * index))

    @cached_property
    def elements(self) -> tuple[QuotientClass, ...]:
        return self._members()

    @cached_property
    def covers(self) -> tuple[tuple[QuotientClass, QuotientClass], ...]:
        return self._class_covers()

    @cached_property
    def representable(self) -> frozenset:
        """The members of the walk's t_1 vector: count >= 1 at degree >= t_1(node)."""
        least = thresholds(self.basis, 1).least_degrees(1)
        return frozenset(_classes(self.basis, _labels(self.basis, least)).values())

    def leq(self, b: QuotientClass, a: QuotientClass) -> bool:
        """b <= a in the structure order."""
        for c in (a, b):
            # The elements: every torsion tuple at each degree 0..F_1.
            if not 0 <= c.degree <= self.f1 or c.torsion not in self.basis.torsion_code:
                raise InputError(f"class {c} is outside the poset window")
        if a == b:
            return True
        return self.basis.class_sub(a, b) in self.representable


def structure_poset(basis: LatticeBasis) -> StructurePoset:
    """Full structure poset; its members and covers are built when read.

    Raises InputError, after the walk, when its (F_1 + 1) * index
    elements exceed MAX_POSET_ELEMENTS.
    """
    f1 = thresholds(basis, 1).f[0]
    _check_window(basis, f1, "structure poset")
    return StructurePoset(basis, f1)


def leq(poset: StructurePoset, b: QuotientClass, a: QuotientClass) -> bool:
    return poset.leq(b, a)


class ModulePoset(namedtuple("ModulePoset", "k m_k f_1 nodes minimal_elements basis"), _CodedPoset):
    """The k-th module inside the structure poset, as one node vector.

    A label is a class of the module in the window [m_k, m_k + F_1]
    moved down by m_k: it keeps its torsion and has degree 0..F_1. A
    label of degree y = q * a_s + r and torsion t lies at residue node
    r * index + code(t - q * t_s), the coding of ``counting.Thresholds``.
    Adding [e_s] keeps a label at its node and stays a label inside the
    window, so ``nodes[v]``, the least label degree at node v or None,
    fixes every label. The basis is a field, so equal module posets have
    equal label sets, and equal numbers on different lattices differ.
    The labels, the embedding witnesses (the classes of degree m_k) and
    the covers, as codes and as classes, are built the first time they
    are read.
    """

    __setattr__ = _read_only

    @cached_property
    def labels(self) -> frozenset:
        return frozenset(self._members())

    @cached_property
    def min_degree_classes(self) -> frozenset:
        # Labels of degree 0 lie at the nodes of residue 0, whose codes are their torsions.
        torsions = self.basis.torsions
        return frozenset(
            QuotientClass(self.m_k, torsions[c]) for c in range(len(torsions)) if self.nodes[c] == 0
        )

    @cached_property
    def covers(self) -> tuple[tuple[QuotientClass, QuotientClass], ...]:
        return self._class_covers()


def module_poset(basis: LatticeBasis, k: int) -> ModulePoset:
    """The k-th module's node vector and minimal elements; the rest on first read.

    The labels at node v are the degrees r, r + a_s, ... up to F_1, with
    r its residue, and their torsions are the walk's ``block_codes``.
    Each step adds [e_s], so the count of the label's class moved up by
    m_k never falls along the chain, and the vector is filled by one
    bisection per node: nodes[v] is the first degree of the chain whose
    class has count >= k in the oracle table, found in at most
    ceil(log2(F_1 // a_s + 2)) cell reads. The minimal elements are the
    least labels of the walk's ``minimal_nodes``.
    """
    mk = m_value(basis, k)
    t = thresholds(basis, k)  # the walk m_value just ran
    f1, a_s, codes = t.f[0], t.a_s, t.block_codes
    index = basis.index
    nodes = [None] * (a_s * index)
    if f1 >= 0:
        table = _oracle_table(basis, mk + f1)
        for v in range(len(nodes)):
            r, c = divmod(v, index)
            chain = range(r, f1 + 1, a_s)
            i = bisect_left(chain, True, key=lambda y: table.cell(mk + y, codes[y // a_s][c]) >= k)
            if i < len(chain):
                nodes[v] = chain[i]
    minimal = frozenset(t.node_class(v, nodes[v]) for v in t.minimal_nodes(nodes))
    return ModulePoset(k, mk, f1, tuple(nodes), minimal, basis)


class FinitenessReport(namedtuple(
    "FinitenessReport", "k_max posets b_values distinct_label_sets full_poset_ks"
)):
    """Module posets for k = 1..k_max and the induced b-value analytics."""

    __slots__ = ()


def finiteness_report(basis: LatticeBasis, k_max: int) -> FinitenessReport:
    """Collect posets and check F_k = m_k - 1 exactly on full posets (labels = window).

    Posets are told apart by their node vectors, which place labels, so
    classes taken relative to m_k, and a poset is full when its vector
    counts (F_1 + 1) * index labels, (F_1 - y) // a_s + 1 at a node whose
    least label has degree y. Only the distinct label sets are expanded.
    One oracle table, of m_K + F_1 degrees, serves every k.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    t = thresholds(basis, k_max)
    f1, a_s = t.f[0], t.a_s
    window = (f1 + 1) * basis.index  # the labels of a full poset; none when F_1 = -1
    if f1 >= 0:  # one oracle table for every k: the k-th poset reads degrees up to m_k + F_1
        _oracle_table(basis, t.m[-1] + f1)
    posets = tuple(module_poset(basis, k) for k in range(1, k_max + 1))
    b_values = []
    full_ks = []
    distinct: dict[tuple, ModulePoset] = {}  # node vector -> first poset with it
    for mp, fk in zip(posets, t.f):
        b_values.append(fk - mp.m_k)
        distinct.setdefault(mp.nodes, mp)
        is_full = sum((f1 - y) // a_s + 1 for y in mp.nodes if y is not None) == window
        if is_full != (fk == mp.m_k - 1):
            raise RuntimeError(f"F_k = m_k - 1 should hold exactly on full posets; k={mp.k}")
        if is_full:
            full_ks.append(mp.k)
    return FinitenessReport(
        k_max=k_max,
        posets=posets,
        b_values=tuple(b_values),
        distinct_label_sets=tuple(mp.labels for mp in distinct.values()),
        full_poset_ks=tuple(full_ks),
    )


def max_antichain_size(poset: StructurePoset) -> int:
    """Width of the poset, by Dilworth's theorem.

    The width equals the fewest chains that cover the poset, which is N
    minus a maximum matching in the bipartite graph with an edge x -> y
    for every x < y (Fulkerson's reduction). The matching grows by
    augmenting paths, searched depth first without recursion.
    """
    elems = poset.elements
    index = {c: i for i, c in enumerate(elems)}
    above = [
        [
            j
            for s in poset.representable
            if s.degree > 0 and (j := index.get(poset.basis.class_add(x, s))) is not None
        ]
        for x in elems
    ]
    match_of = [-1] * len(elems)  # right vertex -> matched left vertex
    for root in range(len(elems)):
        seen = set()
        # Each frame: (left vertex, iterator over its right neighbours);
        # via[i] is the matched right vertex that leads to frame i + 1.
        stack = [(root, iter(above[root]))]
        via = []
        while stack:
            _, it = stack[-1]
            for v in it:
                if v in seen:
                    continue
                seen.add(v)
                if match_of[v] < 0:
                    # Augment along the path: flip every edge on the stack.
                    for (w, _), r in zip(stack, via + [v]):
                        match_of[r] = w
                    stack = []
                    break
                via.append(v)
                stack.append((match_of[v], iter(above[match_of[v]])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()
    return len(elems) - sum(1 for w in match_of if w >= 0)


def poset_to_dot(poset: StructurePoset) -> str:
    """Hasse diagram in DOT format, edges from smaller to larger."""
    index = poset.basis.index
    torsions = poset.basis.torsions
    names = {}
    for z in poset.label_codes:
        y, u = divmod(z, index)
        names[z] = f"{y}:" + ",".join(map(str, torsions[u])) if torsions[u] else str(y)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += [f'  "{name}";' for name in names.values()]
    lines += [f'  "{names[x]}" -> "{names[y]}";' for x, y in poset.cover_codes]
    lines.append("}")
    return "\n".join(lines) + "\n"
