"""Structure posets of a sublattice and of its modules.

Ground set: quotient classes of weighted degree 0..F_1, ordered by
"the difference class has a nonnegative representative". Module posets
are the degree-shifted label sets of classes whose count reaches k
inside the window [m_k, m_k + F_1]; their minimal elements match the
generator orbits.

Both posets read F_1, representability and the atoms of the monoid of
representable classes from the basis's one residue walk, which
``module_poset`` also takes m_k from; module posets read their labels
from the basis's oracle counting table. In the window both member sets
are closed under adding a representable class, so y covers x exactly
when y = x + atom is a member, and a label x is minimal exactly when no
x - atom is a label. A module poset builds its covers when they are
first read, since ``verify`` and ``finiteness_report`` never read them.
``max_antichain_size`` is Dilworth's theorem through a maximum bipartite
matching. The transitive reduction and the exhaustive antichain search
live on as oracles in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .counting import _oracle_table, kth_degrees, m_value, thresholds
from .lattice import InputError, LatticeBasis, QuotientClass


def _covers(basis: LatticeBasis, members, steps) -> tuple:
    """Hasse covers of a member set: the atom steps x -> x + g inside it, sorted."""
    pairs = ((x, y) for x in members for g in steps if (y := basis.class_add(x, g)) in members)
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class StructurePoset:
    basis: LatticeBasis
    f1: int
    elements: tuple[QuotientClass, ...]
    covers: tuple[tuple[QuotientClass, QuotientClass], ...]
    representable: frozenset
    _element_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_element_set", frozenset(self.elements))

    def leq(self, b: QuotientClass, a: QuotientClass) -> bool:
        """b <= a in the structure order."""
        for c in (a, b):
            if c not in self._element_set:
                raise InputError(f"class {c} is outside the poset window")
        if a == b:
            return True
        return self.basis.class_sub(a, b) in self.representable


def structure_poset(basis: LatticeBasis) -> StructurePoset:
    """Full structure poset; its Hasse covers are the atom steps x -> x + g."""
    t = thresholds(basis, 1)
    f1 = t.f[0]
    if f1 < 0:
        return StructurePoset(basis, f1, (), (), frozenset())
    torsions = basis.torsions  # lexicographic, so elements come out sorted
    elements = tuple(QuotientClass(d, tor) for d in range(f1 + 1) for tor in torsions)
    representable = frozenset(c for c in elements if t.at_least(c, 1))
    covers = _covers(basis, frozenset(elements), t.atoms())
    return StructurePoset(basis, f1, elements, covers, representable)


def leq(poset: StructurePoset, b: QuotientClass, a: QuotientClass) -> bool:
    return poset.leq(b, a)


@dataclass(frozen=True)
class ModulePoset:
    """Labels of the k-th module inside the structure poset.

    Labels keep their own torsion and carry the degree offset from m_k,
    so equality of module posets is equality of label sets. The classes
    of degree exactly m_k are stored as embedding witnesses. The basis
    and the atoms are kept for the covers, which are built on first read.
    """

    k: int
    m_k: int
    labels: frozenset
    minimal_elements: frozenset
    min_degree_classes: frozenset
    basis: LatticeBasis = field(repr=False, compare=False)
    atoms: tuple[QuotientClass, ...] = field(repr=False, compare=False)

    @cached_property
    def covers(self) -> tuple[tuple[QuotientClass, QuotientClass], ...]:
        return _covers(self.basis, self.labels, self.atoms)


def module_poset(basis: LatticeBasis, k: int) -> ModulePoset:
    """Label set of the k-th module, with its minimal elements; covers on first read."""
    mk = m_value(basis, k)
    t = thresholds(basis, k)  # the walk m_value just ran
    f1 = t.f[0]
    steps = t.atoms()
    if f1 < 0:
        return ModulePoset(k, mk, frozenset(), frozenset(), frozenset(), basis, steps)
    table = _oracle_table(basis, mk + f1)
    labels = {
        QuotientClass(d - mk, cls.torsion)
        for d in range(mk, mk + f1 + 1)
        for cls, cnt in table.classes_at(d)
        if cnt >= k
    }
    witnesses = frozenset(QuotientClass(mk, x.torsion) for x in labels if x.degree == 0)
    minimal = frozenset(
        x for x in labels if not any(basis.class_sub(x, g) in labels for g in steps)
    )
    return ModulePoset(k, mk, frozenset(labels), minimal, witnesses, basis, steps)


@dataclass(frozen=True)
class FinitenessReport:
    """Module posets for k = 1..k_max and the induced b-value analytics."""

    k_max: int
    posets: tuple[ModulePoset, ...]
    b_values: tuple[int, ...]
    distinct_label_sets: tuple[frozenset, ...]
    full_poset_ks: tuple[int, ...]


def finiteness_report(basis: LatticeBasis, k_max: int) -> FinitenessReport:
    """Collect posets and check F_k = m_k - 1 exactly on full posets (labels = window)."""
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    f_values = kth_degrees(basis, k_max)[0]
    full = frozenset(
        QuotientClass(d, tor) for d in range(f_values[0] + 1) for tor in basis.torsions
    )
    posets = tuple(module_poset(basis, k) for k in range(1, k_max + 1))
    b_values = []
    full_ks = []
    distinct: list[frozenset] = []
    for mp, fk in zip(posets, f_values):
        b_values.append(fk - mp.m_k)
        if mp.labels not in distinct:
            distinct.append(mp.labels)
        is_full = mp.labels == full
        if is_full != (fk == mp.m_k - 1):
            raise RuntimeError(f"F_k = m_k - 1 should hold exactly on full posets; k={mp.k}")
        if is_full:
            full_ks.append(mp.k)
    return FinitenessReport(
        k_max=k_max,
        posets=posets,
        b_values=tuple(b_values),
        distinct_label_sets=tuple(distinct),
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
