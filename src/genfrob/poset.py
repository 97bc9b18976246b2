"""Structure posets of a sublattice and of its modules.

Ground set: quotient classes of weighted degree 0..F_1, ordered by
"the difference class has a nonnegative representative". Module posets
are the degree-shifted label sets of classes whose count reaches k
inside the window [m_k, m_k + F_1]; their minimal elements match the
generator orbits.

Both posets read F_1, representability and the atoms of the monoid of
representable classes from the basis's one residue walk, which
``module_poset`` also takes m_k from; module posets read their labels'
counts from the basis's oracle counting table. In the window both
member sets are closed under adding a representable class, so y covers
x exactly when y = x + atom is a member, and a label x is minimal
exactly when no x - atom is a label.

A module poset is one node vector: per residue node of the walk, the
least label degree there, or None. Minimality is one comparison per
node and atom on the walk's node maps, and ``finiteness_report`` tells
posets apart and finds the full ones from the vectors. The labels, the
witnesses and the covers are built when first read; ``verify`` reads
none of them, and ``finiteness_report`` only the distinct label sets.
``max_antichain_size`` is Dilworth's theorem through a maximum bipartite
matching. The class-by-class module poset, the transitive reduction and
the exhaustive antichain search live on as oracles in the test suite.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .counting import _oracle_table, kth_degrees, m_value, thresholds
from .lattice import InputError, LatticeBasis, QuotientClass, _read_only


def _covers(basis: LatticeBasis, members, steps) -> tuple:
    """Hasse covers of a member set: the atom steps x -> x + g inside it, sorted."""
    pairs = ((x, y) for x in members for g in steps if (y := basis.class_add(x, g)) in members)
    return tuple(sorted(pairs))


class StructurePoset(NamedTuple):
    basis: LatticeBasis
    f1: int
    elements: tuple[QuotientClass, ...]
    covers: tuple[tuple[QuotientClass, QuotientClass], ...]
    representable: frozenset

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
    """Full structure poset; its Hasse covers are the atom steps x -> x + g."""
    t = thresholds(basis, 1)
    f1 = t.f[0]
    torsions = basis.torsions  # lexicographic, so elements come out sorted
    elements = tuple(QuotientClass(d, tor) for d in range(f1 + 1) for tor in torsions)
    representable = frozenset(c for c in elements if t.at_least(c, 1))
    covers = _covers(basis, frozenset(elements), t.atoms())
    return StructurePoset(basis, f1, elements, covers, representable)


def leq(poset: StructurePoset, b: QuotientClass, a: QuotientClass) -> bool:
    return poset.leq(b, a)


def _label_torsions(basis: LatticeBasis, f1: int) -> list[list[int]]:
    """ups[q][c]: the torsion code of the label of degree q * a_s + r at a
    node of torsion code c, for q = 0..F_1 // a_s: t_c + q * t_s."""
    a = basis.weight.a
    a_s = min(a)
    t_s = basis.units[a.index(a_s)].torsion
    return [basis.torsion_shift([q * y for y in t_s]) for q in range(f1 // a_s + 1)]


def _labels(mp: ModulePoset) -> frozenset:
    """Every label of a module poset: each node's least label plus multiples of [e_s]."""
    basis = mp.basis
    a_s = min(basis.weight.a)
    torsions = basis.torsions
    index = len(torsions)
    ups = _label_torsions(basis, mp.f_1)
    return frozenset(
        QuotientClass(y, torsions[ups[y // a_s][node % index]])
        for node, least in enumerate(mp.nodes)
        if least is not None
        for y in range(least, mp.f_1 + 1, a_s)
    )


class _ModulePosetFields(NamedTuple):
    k: int
    m_k: int
    f_1: int
    nodes: tuple
    minimal_elements: frozenset


class ModulePoset(_ModulePosetFields):
    """The k-th module inside the structure poset, as one node vector.

    A label is a class of the module in the window [m_k, m_k + F_1]
    moved down by m_k: it keeps its torsion and has degree 0..F_1. A
    label of degree y = q * a_s + r and torsion t lies at residue node
    r * index + code(t - q * t_s), the coding of ``counting.Thresholds``.
    Adding [e_s] keeps a label at its node and stays a label inside the
    window, so ``nodes[v]``, the least label degree at node v or None,
    fixes every label, and equal fields on one basis mean equal label
    sets. The labels, the embedding witnesses (the classes of degree
    m_k) and the covers are built the first time they are read. The
    basis and the atoms are kept beside the fields, out of equality.
    """

    __setattr__ = _read_only

    def __new__(cls, k, m_k, f_1, nodes, minimal_elements, basis, atoms):
        self = super().__new__(cls, k, m_k, f_1, nodes, minimal_elements)
        vars(self).update(basis=basis, atoms=atoms)
        return self

    def __getnewargs__(self):
        return (*self, self.basis, self.atoms)

    @cached_property
    def labels(self) -> frozenset:
        return _labels(self)

    @cached_property
    def min_degree_classes(self) -> frozenset:
        # Labels of degree 0 lie at the nodes of residue 0, whose codes are their torsions.
        torsions = self.basis.torsions
        return frozenset(
            QuotientClass(self.m_k, torsions[c]) for c in range(len(torsions)) if self.nodes[c] == 0
        )

    @cached_property
    def covers(self) -> tuple[tuple[QuotientClass, QuotientClass], ...]:
        return _covers(self.basis, self.labels, self.atoms)


def module_poset(basis: LatticeBasis, k: int) -> ModulePoset:
    """The k-th module's node vector and minimal elements; the rest on first read.

    The vector is filled in one pass over the oracle table's rows
    m_k..m_k + F_1. A label x is minimal exactly when no x - g is a
    label, for g an atom; x - g lies at the node the walk's map for g
    gives, the same for every label of x's node, so only each node's
    least label can be minimal, and it is when every such node has no
    label or a least one above deg x - deg g.
    """
    mk = m_value(basis, k)
    t = thresholds(basis, k)  # the walk m_value just ran
    f1 = t.f[0]
    a_s = min(basis.weight.a)
    index = basis.index
    ups = _label_torsions(basis, f1)
    nodes = [None] * (a_s * index)
    if f1 >= 0:
        table = _oracle_table(basis, mk + f1)
        for y in range(f1 + 1):
            q, r = divmod(y, a_s)
            base = r * index
            row = table.row(mk + y)
            for c, u in enumerate(ups[q]):
                if row[u] >= k and nodes[base + c] is None:
                    nodes[base + c] = y
    least = [f1 + 1 if y is None else y for y in nodes]  # None: above every label
    torsions = basis.torsions
    minimal = frozenset(
        QuotientClass(y, torsions[ups[y // a_s][node % index]])
        for node, y in enumerate(nodes)
        if y is not None and all(least[step[node]] > y - g for g, step in t.atom_maps)
    )
    return ModulePoset(k, mk, f1, tuple(nodes), minimal, basis, t.atoms())


class FinitenessReport(NamedTuple):
    """Module posets for k = 1..k_max and the induced b-value analytics."""

    k_max: int
    posets: tuple[ModulePoset, ...]
    b_values: tuple[int, ...]
    distinct_label_sets: tuple[frozenset, ...]
    full_poset_ks: tuple[int, ...]


def finiteness_report(basis: LatticeBasis, k_max: int) -> FinitenessReport:
    """Collect posets and check F_k = m_k - 1 exactly on full posets (labels = window).

    Posets are told apart by their node vectors, which place labels, so
    classes taken relative to m_k, and a poset is full when its vector
    counts (F_1 + 1) * index labels, (F_1 - y) // a_s + 1 at a node whose
    least label has degree y. Only the distinct label sets are expanded.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    f_values = kth_degrees(basis, k_max)[0]
    f1 = f_values[0]
    a_s = min(basis.weight.a)
    window = (f1 + 1) * basis.index  # the labels of a full poset; none when F_1 = -1
    posets = tuple(module_poset(basis, k) for k in range(1, k_max + 1))
    b_values = []
    full_ks = []
    distinct: dict[tuple, ModulePoset] = {}  # node vector -> first poset with it
    for mp, fk in zip(posets, f_values):
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
    def name(c: QuotientClass) -> str:
        if c.torsion:
            return f"{c.degree}:" + ",".join(str(t) for t in c.torsion)
        return str(c.degree)

    lines = ["digraph hasse {", "  rankdir=BT;"]
    for c in poset.elements:
        lines.append(f'  "{name(c)}";')
    for lo, hi in poset.covers:
        lines.append(f'  "{name(lo)}" -> "{name(hi)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
