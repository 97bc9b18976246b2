"""Table-driven generators, covers and minimal elements against oracles.

Generators, Hasse covers and minimal elements are read from counting
tables and the atoms of the representable monoid. Here they are checked
against the lcm construction of the paper and against brute force over
the order relation, with representability decided by enumerating the
nonnegative points of each degree.
"""
import math
import random

from genfrob import (
    LatticeBasis,
    QuotientClass,
    WeightVector,
    atoms,
    frobenius,
    kernel_basis,
    lattice_ideal,
    lcm_generator_classes,
    m_value,
    minimal_generators,
    module_poset,
    structure_poset,
)

from .oracles import hasse_covers, minimal_elements, representations


def _random_weights(rng, n):
    while True:
        a = [rng.randint(2, 9) for _ in range(n)]
        if rng.random() < 0.2:
            a[rng.randrange(n)] = 1
        if math.gcd(*a) == 1:
            return WeightVector(tuple(a))


def _random_basis(rng):
    """A kernel lattice or a proper sublattice of one, on 2 to 4 variables."""
    n = rng.choice((2, 3, 3, 3, 4))
    w = _random_weights(rng, n)
    K = kernel_basis(w)
    if n == 4 or rng.random() < 0.5:
        return K
    m = rng.randint(2, 3)
    if n == 2:
        return LatticeBasis(w, (tuple(m * x for x in K.vectors[0]),))
    v1, v2 = K.vectors
    t = rng.randint(-2, 2)
    u1 = tuple(x + t * y for x, y in zip(v1, v2))
    u2 = tuple(m * y for y in v2)
    if rng.random() < 0.5:
        u1, u2 = u2, u1
    return LatticeBasis(w, (u1, u2))


def _counts_by_enumeration(basis, max_degree):
    """Number of points of N^n per class, for degrees 0..max_degree."""
    counts = {}
    for d in range(max_degree + 1):
        for u in representations(basis.weight.a, d):
            c = basis.label(u)
            counts[c] = counts.get(c, 0) + 1
    return counts


def test_table_structures_match_oracles():
    # case = one (basis, k): generator orbits against the lcm oracle, and
    # the module poset's labels, covers and minimal elements against
    # enumeration and brute force; each basis also checks its structure
    # poset's covers
    rng = random.Random(4004)
    cases = 0
    kinds = set()
    while cases < 300:
        B = _random_basis(rng)
        kinds.add((B.n, B.index > 1, 1 in B.weight.a))
        mb = lattice_ideal(B)
        f1 = frobenius(B, 1)
        k_max = 4
        window = m_value(B, k_max) + max(f1, 0)
        counts = _counts_by_enumeration(B, window)

        def less(x, y):
            diff = B.class_sub(y, x)
            return diff.degree > 0 and counts.get(diff, 0) >= 1

        sp = structure_poset(B)
        if f1 < 0:
            assert (sp.elements, sp.covers) == ((), ()), B
        else:
            assert set(sp.covers) == hasse_covers(sp.elements, less), B
            assert len(set(sp.covers)) == len(sp.covers)
        for k in range(1, k_max + 1):
            gens = minimal_generators(B, k)
            assert frozenset(gens.classes) == lcm_generator_classes(B, k, mb), (B, k)
            mp = module_poset(B, k)
            if f1 < 0:
                assert mp.labels == mp.minimal_elements == frozenset() and mp.covers == ()
                cases += 1
                continue
            mk = mp.m_k
            labels = {
                QuotientClass(d - mk, t)
                for d in range(mk, mk + f1 + 1)
                for t in B.torsions
                if counts.get(QuotientClass(d, t), 0) >= k
            }
            assert mp.labels == labels, (B, k)
            assert set(mp.covers) == hasse_covers(labels, less), (B, k)
            assert mp.minimal_elements == minimal_elements(labels, less), (B, k)
            assert len(mp.minimal_elements) == len(gens.classes), (B, k)
            cases += 1
    assert {(2, False, True), (2, True, False), (3, True, False), (3, True, True),
            (4, False, False), (3, False, True)} <= kinds


def test_atoms_known_values():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert [g.degree for g in atoms(B)] == [3, 5]
    B = kernel_basis(WeightVector((4, 6, 9)))
    assert [g.degree for g in atoms(B)] == [4, 6, 9]
    # equal weights on a kernel give one class, so one atom
    assert [g.degree for g in atoms(kernel_basis(WeightVector((1, 1))))] == [1]
