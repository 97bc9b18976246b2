"""Randomized property suites with fixed seeds.

Each suite runs at least 100 independent cases; a case is one assertion
unit as noted in the suite. Instances draw small coprime weight triples
and, where noted, proper finite-index sublattices of their kernels.
"""
import math
import random
from itertools import combinations

from genfrob import (
    LatticeBasis,
    WeightVector,
    ball,
    brute_force_frobenius,
    class_label,
    count_table,
    divides_mod_L,
    dominated_points,
    fiber_graph,
    frobenius,
    kernel_basis,
    lattice_ideal,
    m_value,
    member,
    minimal_generators,
    module_poset,
    moves,
    phi,
    structure_poset,
)
from genfrob.lattice import QuotientClass


def random_weights(rng, lo=2, hi=12):
    while True:
        a = tuple(rng.randint(lo, hi) for _ in range(3))
        if math.gcd(math.gcd(a[0], a[1]), a[2]) == 1:
            return WeightVector(a)


def random_sublattice(rng, w, max_scale=3):
    K = kernel_basis(w)
    v1, v2 = K.vectors
    t = rng.randint(-2, 2)
    m = rng.randint(1, max_scale)
    u1 = tuple(x + t * y for x, y in zip(v1, v2))
    u2 = tuple(m * y for y in v2)
    if rng.random() < 0.5:
        u1, u2 = u2, u1
    return LatticeBasis(w, (u1, u2))


def test_suite_a_fiber_graph_connectivity():
    # case = one pair of fiber points checked against the component split
    rng = random.Random(1001)
    cases = 0
    while cases < 100:
        w = random_weights(rng, hi=9)
        B = random_sublattice(rng, w)
        mb = lattice_ideal(B)
        for d in range(0, 14):
            fg = fiber_graph(mb, QuotientClass(d, B.zero_class.torsion))
            comp_of = {}
            for i, comp in enumerate(fg.components()):
                for p in comp:
                    comp_of[p] = i
            for u, v in combinations(fg.vertices, 2):
                diff = tuple(x - y for x, y in zip(u, v))
                assert member(B, diff) == (comp_of[u] == comp_of[v])
                cases += 1
    assert cases >= 100


def test_suite_b_support_identity():
    # case = one random point p with nonnegative degree
    rng = random.Random(1002)
    cases = 0
    while cases < 100:
        w = random_weights(rng)
        B = random_sublattice(rng, w)
        table = count_table(B, 80, 10**6)
        for _ in range(20):
            p = tuple(rng.randint(-4, 4) for _ in range(3))
            d = w.degree(p)
            if 0 <= d <= 80:
                assert len(dominated_points(B, p)) == table.count(class_label(B, p))
                cases += 1
    assert cases >= 100


def test_suite_c_filtration():
    # case = one generator of M^(k+1) divisible by a generator of M^(k)
    rng = random.Random(1003)
    cases = 0
    while cases < 100:
        w = random_weights(rng, hi=8)
        B = kernel_basis(w)
        levels = {k: minimal_generators(B, k) for k in (1, 2, 3)}
        for k in (1, 2):
            for g in levels[k + 1].generators:
                assert any(
                    divides_mod_L(B, h, g) for h in levels[k].generators
                ), (w.a, k, g)
                cases += 1
    assert cases >= 100


def test_suite_d_pipeline_oracle_agreement():
    # case = one (weights, k) pair, weights up to 20, k up to 5
    rng = random.Random(1004)
    cases = 0
    while cases < 100:
        w = random_weights(rng, lo=2, hi=20)
        B = kernel_basis(w)
        for k in range(1, 6):
            assert frobenius(B, k) == brute_force_frobenius(B, k), (w.a, k)
            cases += 1
    assert cases >= 100


def test_suite_e_neighbourhood_reconstruction():
    # case = one generator rebuilt as an lcm of k ball points with origin
    rng = random.Random(1005)
    cases = 0
    while cases < 100:
        w = random_weights(rng, hi=8)
        B = kernel_basis(w)
        mb = lattice_ideal(B)
        for k in (1, 2, 3):
            bl = ball(moves(mb), k - 1)
            gens = minimal_generators(B, k)
            for g, sup in zip(gens.generators, gens.supports):
                assert (0, 0, 0) in sup
                in_ball = [p for p in sup if p in bl and any(p)]
                ok = False
                for subset in combinations(in_ball, k - 1):
                    lcm = (0, 0, 0)
                    for p in subset:
                        lcm = phi(lcm, p)
                    if lcm == g:
                        ok = True
                        break
                assert ok, (w.a, k, g)
                cases += 1
    assert cases >= 100


def test_suite_f_frobenius_bounds_and_full_poset():
    # case = one (instance, k) bound check
    rng = random.Random(1006)
    cases = 0
    while cases < 100:
        w = random_weights(rng, hi=10)
        B = kernel_basis(w) if rng.random() < 0.5 else random_sublattice(rng, w, 2)
        f1 = brute_force_frobenius(B, 1)
        sp = structure_poset(B)
        full = frozenset(sp.elements)
        for k in range(1, 5):
            fk = frobenius(B, k)
            mk = m_value(B, k)
            assert mk - 1 <= fk <= mk + max(f1, -1), (w.a, k)
            mp = module_poset(B, k)
            assert (fk == mk - 1) == (mp.labels == full), (w.a, k)
            cases += 1
    assert cases >= 100
