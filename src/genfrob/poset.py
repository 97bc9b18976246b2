"""Structure posets of a sublattice and of its modules.

Ground set: quotient classes of weighted degree 0..F_1, ordered by
"the difference class has a nonnegative representative". Module posets
are the degree-shifted label sets of classes whose count reaches k
inside the window [m_k, m_k + F_1]; their minimal elements match the
generator orbits.
"""
from __future__ import annotations

from dataclasses import dataclass

from .counting import CountTable, m_value
from .frobenius import frobenius
from .lattice import InputError, LatticeBasis, QuotientClass


def _class_sort_key(c: QuotientClass):
    return (c.degree, c.torsion)


@dataclass(frozen=True)
class StructurePoset:
    basis: LatticeBasis
    f1: int
    elements: tuple[QuotientClass, ...]
    covers: tuple[tuple[QuotientClass, QuotientClass], ...]
    representable: frozenset

    def leq(self, b: QuotientClass, a: QuotientClass) -> bool:
        """b <= a in the structure order."""
        for c in (a, b):
            if c not in set(self.elements):
                raise InputError(f"class {c} is outside the poset window")
        if a == b:
            return True
        return self.basis.class_sub(a, b) in self.representable


def structure_poset(basis: LatticeBasis) -> StructurePoset:
    """Full structure poset, with Hasse diagram by transitive reduction."""
    f1 = frobenius(basis, 1)
    if f1 < 0:
        return StructurePoset(basis, f1, (), (), frozenset())
    table = CountTable(basis, f1, 1)
    elements = tuple(
        sorted(
            (
                QuotientClass(d, t)
                for d in range(f1 + 1)
                for t in basis.all_torsions()
            ),
            key=_class_sort_key,
        )
    )
    representable = frozenset(
        c for c in elements if table.count(c) >= 1
    )

    def less(x, y):
        return x != y and basis.class_sub(y, x) in representable

    covers = []
    for x in elements:
        for y in elements:
            if not less(x, y):
                continue
            if any(less(x, z) and less(z, y) for z in elements):
                continue
            covers.append((x, y))
    return StructurePoset(basis, f1, elements, tuple(sorted(covers, key=lambda p: (_class_sort_key(p[0]), _class_sort_key(p[1])))), representable)


def leq(poset: StructurePoset, b: QuotientClass, a: QuotientClass) -> bool:
    return poset.leq(b, a)


@dataclass(frozen=True)
class ModulePoset:
    """Labels of the k-th module inside the structure poset.

    Labels keep their own torsion and carry the degree offset from m_k,
    so equality of module posets is equality of label sets. The classes
    of degree exactly m_k are stored as embedding witnesses.
    """

    k: int
    m_k: int
    labels: frozenset
    minimal_elements: frozenset
    min_degree_classes: frozenset
    covers: tuple[tuple[QuotientClass, QuotientClass], ...]


def module_poset(basis: LatticeBasis, k: int) -> ModulePoset:
    if k < 1:
        raise InputError("k must be at least 1")
    f1 = frobenius(basis, 1)
    mk = m_value(basis, k)
    if f1 < 0:
        return ModulePoset(k, mk, frozenset(), frozenset(), frozenset(), ())
    table = CountTable(basis, mk + f1, k)
    rep_table = CountTable(basis, f1, 1)
    labels = set()
    witnesses = set()
    for d in range(mk, mk + f1 + 1):
        for cls, cnt in table.classes_at(d):
            if cnt >= k:
                labels.add(QuotientClass(d - mk, cls.torsion))
                if d == mk:
                    witnesses.add(cls)

    def less(x, y):
        if x == y:
            return False
        diff = basis.class_sub(y, x)
        return 0 <= diff.degree <= f1 and rep_table.count(diff) >= 1

    minimal = frozenset(
        x for x in labels if not any(less(y, x) for y in labels)
    )
    covers = tuple(
        sorted(
            (
                (x, y)
                for x in labels
                for y in labels
                if less(x, y) and not any(less(x, z) and less(z, y) for z in labels)
            ),
            key=lambda p: (_class_sort_key(p[0]), _class_sort_key(p[1])),
        )
    )
    return ModulePoset(k, mk, frozenset(labels), minimal, frozenset(witnesses), covers)


@dataclass(frozen=True)
class FinitenessReport:
    """Module posets for k = 1..k_max and the induced b-value analytics."""

    k_max: int
    posets: tuple[ModulePoset, ...]
    b_values: tuple[int, ...]
    distinct_label_sets: tuple[frozenset, ...]
    full_poset_ks: tuple[int, ...]


def finiteness_report(basis: LatticeBasis, k_max: int) -> FinitenessReport:
    """Collect posets and check F_k = m_k - 1 exactly on full posets."""
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    sp = structure_poset(basis)
    full = frozenset(sp.elements)
    posets = tuple(module_poset(basis, k) for k in range(1, k_max + 1))
    b_values = []
    full_ks = []
    distinct: list[frozenset] = []
    for mp in posets:
        fk = frobenius(basis, mp.k)
        b_values.append(fk - mp.m_k)
        if mp.labels not in distinct:
            distinct.append(mp.labels)
        if mp.labels == full:
            full_ks.append(mp.k)
            if fk != mp.m_k - 1:
                raise RuntimeError(
                    f"full module poset at k={mp.k} but F_k={fk} != m_k-1"
                )
        elif fk == mp.m_k - 1:
            raise RuntimeError(
                f"F_k=m_k-1 at k={mp.k} but the module poset is not full"
            )
    return FinitenessReport(
        k_max=k_max,
        posets=posets,
        b_values=tuple(b_values),
        distinct_label_sets=tuple(distinct),
        full_poset_ks=tuple(full_ks),
    )


def max_antichain_size(poset: StructurePoset) -> int:
    """Largest antichain, by brute force over the ground set.

    Runs a maximum-independent-set search on the comparability graph;
    the poset has at most a few hundred elements at the scales used.
    """
    elems = list(poset.elements)
    if not elems:
        return 0
    comparable = {
        (i, j)
        for i in range(len(elems))
        for j in range(len(elems))
        if i != j and (poset.leq(elems[i], elems[j]) or poset.leq(elems[j], elems[i]))
    }
    best = 0

    def rec(idx, chosen):
        nonlocal best
        if idx == len(elems):
            best = max(best, len(chosen))
            return
        if len(chosen) + (len(elems) - idx) <= best:
            return
        if all((idx, j) not in comparable for j in chosen):
            rec(idx + 1, chosen + [idx])
        rec(idx + 1, chosen)

    rec(0, [])
    return best


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
