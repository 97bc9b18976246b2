import math
import operator
import random

import pytest

from genfrob import (
    Binomial,
    InputError,
    LatticeBasis,
    QuotientClass,
    TermOrder,
    WeightVector,
    buchberger,
    class_label,
    dominated_points,
    fiber_graph,
    ideal_equal,
    kernel_basis,
    lattice_ideal,
    member,
)
from genfrob import ideal
from genfrob.ideal import _buchberger_pairs, _supports, _unit_closure

from .oracles import (
    groebner_without_chain_criterion,
    lattice_ideal_by_groebner,
    normal_form,
    representations,
    spair,
)


def _binomials(order, *vectors):
    return [Binomial.from_vector(v, order) for v in vectors]


def _tuples(run):
    """A ``_buchberger_pairs`` result, packed pairs and packing, as exponent pairs."""
    G, packing = run
    return [(packing.decode(h), packing.decode(t)) for h, t in G]


def test_lattice_ideal_3_5_8():
    B = kernel_basis(WeightVector((3, 5, 8)))
    order = TermOrder(B.weight)
    mb = lattice_ideal(B)
    assert len(mb.elements) == 2
    known = _binomials(order, (1, 1, -1), (5, -3, 0))
    assert ideal_equal(mb.elements, known, order)


def test_lattice_ideal_3_4_11():
    B = kernel_basis(WeightVector((3, 4, 11)))
    order = TermOrder(B.weight)
    mb = lattice_ideal(B)
    assert len(mb.elements) == 2
    known = _binomials(order, (1, 2, -1), (4, -3, 0))
    assert ideal_equal(mb.elements, known, order)


def test_lattice_ideal_2_5_10():
    B = kernel_basis(WeightVector((2, 5, 10)))
    order = TermOrder(B.weight)
    mb = lattice_ideal(B)
    assert len(mb.elements) == 2
    known = _binomials(order, (-5, 0, 1), (0, -2, 1))
    assert ideal_equal(mb.elements, known, order)


def test_ideal_equal_reflexive_and_proper_subideal():
    B = kernel_basis(WeightVector((3, 5, 8)))
    order = TermOrder(B.weight)
    mb = lattice_ideal(B)
    assert ideal_equal(mb.elements, mb.elements, order)
    partial = _binomials(order, (1, 1, -1))
    assert not ideal_equal(partial, mb.elements, order)


def _equal_by_membership(gens_a, gens_b, order):
    """Two-sided ideal membership by the oracle Groebner runs: each
    generator of one side reduces to zero modulo a basis of the other."""
    pa = [(g.head, g.tail) for g in gens_a]
    pb = [(g.head, g.tail) for g in gens_b]
    ga = groebner_without_chain_criterion(pa, order)
    gb = groebner_without_chain_criterion(pb, order)
    return all(normal_form(p, ga, order) is None for p in pb) and all(
        normal_form(p, gb, order) is None for p in pa
    )


def test_ideal_equal_agrees_with_two_sided_oracle_membership():
    # kernels and sublattices of index up to 6 under permuted orders; each
    # case compares generating sets of one lattice ideal with each other
    # and with the proper subideal of the Markov basis less one element
    rng = random.Random(7407)
    cases = 0
    while cases < 40:
        n = rng.randint(3, 5)
        a = tuple(rng.randint(2, 13 if n == 3 else 9) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        vecs = list(kernel_basis(WeightVector(a)).vectors)
        if rng.random() < 0.6:
            i, m = rng.randrange(n - 1), rng.randint(2, 6)
            vecs[i] = tuple(m * x for x in vecs[i])
        B = LatticeBasis(WeightVector(a), tuple(vecs))
        order, other = (TermOrder(B.weight, tuple(rng.sample(range(n), n))) for _ in range(2))
        mb = lattice_ideal(B, order).elements
        by_groebner = tuple(Binomial(h, t) for h, t in lattice_ideal_by_groebner(B, order))
        drop = rng.randrange(len(mb))
        sub = mb[:drop] + mb[drop + 1 :]
        for gens in (mb, by_groebner, lattice_ideal(B, other).elements, mb[::-1], mb + mb):
            for x, y, want in ((gens, mb, True), (gens, sub, False), (sub, gens, False)):
                got = ideal_equal(x, y, order)
                assert got == _equal_by_membership(x, y, order) == want, (a, B.vectors, order, x, y)
        cases += 1


def test_buchberger_single_binomial_is_its_own_basis():
    order = TermOrder(WeightVector((3, 5, 8)))
    (b,) = _binomials(order, (1, 1, -1))
    assert buchberger([b], order) == (b,)


def test_buchberger_known_basis_binomials_need_no_saturation():
    # For the basis {(1,2,-1),(4,-3,0)} the basis binomials already span
    # the full lattice ideal.
    w = WeightVector((3, 4, 11))
    order = TermOrder(w)
    gens = _binomials(order, (1, 2, -1), (4, -3, 0))
    gb = buchberger(gens, order)
    mb = lattice_ideal(kernel_basis(w))
    assert ideal_equal(gb, mb.elements, order)
    assert ideal_equal(gb, gens, order)


def test_buchberger_deterministic():
    B = kernel_basis(WeightVector((3, 4, 11)))
    order = TermOrder(B.weight)
    gens = _binomials(order, *B.vectors)
    assert buchberger(gens, order) == buchberger(list(reversed(gens)), order)


def test_buchberger_and_ideal_equal_reject_inhomogeneous_binomials():
    # The kernel compares the two terms of a binomial within one weighted
    # degree, so a head and tail of different degrees are refused.
    order = TermOrder(WeightVector((3, 5, 8)))
    good = _binomials(order, (1, 1, -1))
    for bad in (Binomial((1, 0, 0), (0, 0, 0)), Binomial((0, 2, 0), (1, 0, 1)), Binomial((0, 0, 1), (2, 0, 0))):
        with pytest.raises(InputError, match="not homogeneous"):
            buchberger(good + [bad], order)
        with pytest.raises(InputError, match="not homogeneous"):
            ideal_equal(good, [bad], order)
        with pytest.raises(InputError, match="not homogeneous"):
            ideal_equal([bad], good, order)


def test_markov_elements_are_pure_degree_zero_lattice_vectors():
    for a in ((3, 5, 8), (3, 4, 11), (2, 5, 10), (4, 6, 9)):
        B = kernel_basis(WeightVector(a))
        mb = lattice_ideal(B)
        for b in mb.elements:
            assert b.is_pure
            assert B.weight.degree(b.vector) == 0
            assert member(B, b.vector)


def test_markov_minimality_removal_changes_ideal():
    for a in ((3, 5, 8), (3, 4, 11), (4, 6, 9)):
        B = kernel_basis(WeightVector(a))
        order = TermOrder(B.weight)
        mb = lattice_ideal(B)
        for i in range(len(mb.elements)):
            rest = mb.elements[:i] + mb.elements[i + 1 :]
            if rest:
                assert not ideal_equal(rest, mb.elements, order)


def test_markov_basis_minimal_on_seeded_cases():
    # case = one kept binomial that must not reduce to zero modulo a
    # Groebner basis of the others (the one greedy pass is minimal)
    rng = random.Random(5005)
    cases = 0
    while cases < 300:
        n = rng.choice((3, 3, 4, 5))
        a = tuple(rng.randint(2, 15) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        B = kernel_basis(WeightVector(a))
        if rng.random() < 0.5:
            m = rng.randint(2, 3)
            B = LatticeBasis(B.weight, (tuple(m * x for x in B.vectors[0]),) + B.vectors[1:])
        mb = lattice_ideal(B)
        order = TermOrder(B.weight)
        pairs = [(b.head, b.tail) for b in mb.elements]
        for i, p in enumerate(pairs):
            rest = pairs[:i] + pairs[i + 1 :]
            assert not rest or normal_form(
                p, groebner_without_chain_criterion(rest, order), order
            ) is not None, (a, B.vectors, p)
            cases += 1


def test_lattice_ideal_matches_groebner_oracle():
    # kernels and sublattices of index 2-6, in the kernel basis or a
    # second basis of the same lattice, under the default or a permuted
    # order; the oracle saturates to a fixpoint and tests each greedy
    # candidate by a Groebner run
    rng = random.Random(5105)
    cases = 0
    while cases < 300:
        n = rng.randint(2, 6)
        top = 13 if n <= 4 else 9
        a = tuple(rng.randint(1 if rng.random() < 0.25 else 2, top) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        vecs = [list(v) for v in kernel_basis(WeightVector(a)).vectors]
        if rng.random() < 0.6:
            i, m = rng.randrange(n - 1), rng.randint(2, 6)
            vecs[i] = [m * x for x in vecs[i]]
        if n > 2 and rng.random() < 0.5:
            i, j = rng.sample(range(n - 1), 2)
            c = rng.choice((-2, -1, 1, 2))
            vecs[i] = [x + c * y for x, y in zip(vecs[i], vecs[j])]
        B = LatticeBasis(WeightVector(a), tuple(tuple(v) for v in vecs))
        order = TermOrder(B.weight, tuple(rng.sample(range(n), n))) if rng.random() < 0.3 else None
        got = [(b.head, b.tail) for b in lattice_ideal(B, order).elements]
        assert got == lattice_ideal_by_groebner(B, order), (a, B.vectors, order)
        cases += 1


def test_lattice_ideal_matches_groebner_oracle_eight_nine_variables():
    # distinct weights, so the Markov bases are not just x_i - x_j moves
    rng = random.Random(6206)
    cases = 0
    while cases < 6:
        n = rng.choice((8, 9))
        a = tuple(sorted(rng.sample(range(5, 26), n)))
        if math.gcd(*a) != 1:
            continue
        vecs = [list(v) for v in kernel_basis(WeightVector(a)).vectors]
        if cases % 2:
            i, m = rng.randrange(n - 1), rng.randint(2, 3)
            vecs[i] = [m * x for x in vecs[i]]
        B = LatticeBasis(WeightVector(a), tuple(tuple(v) for v in vecs))
        order = TermOrder(B.weight, tuple(rng.sample(range(n), n))) if cases % 3 == 0 else None
        got = [(b.head, b.tail) for b in lattice_ideal(B, order).elements]
        assert got == lattice_ideal_by_groebner(B, order), (a, B.vectors, order)
        cases += 1


def test_lattice_ideal_matches_groebner_oracle_on_seven_variable_benchmark_weights():
    # the weights the benchmark's ideal instances are drawn from
    for a in ((11, 13, 17, 19, 23, 29, 31), (11, 13, 17, 19, 23, 29, 37), (11, 13, 17, 19, 25, 29, 31)):
        B = kernel_basis(WeightVector(a))
        got = [(b.head, b.tail) for b in lattice_ideal(B).elements]
        assert got == lattice_ideal_by_groebner(B), a


def test_lattice_ideal_matches_groebner_oracle_on_index_six_sublattice_permuted_order():
    K = kernel_basis(WeightVector((11, 13, 17, 19, 23, 29, 31)))
    vecs = list(K.vectors)
    vecs[1] = tuple(6 * x for x in vecs[1])
    B = LatticeBasis(K.weight, tuple(vecs))
    assert B.index == 6
    order = TermOrder(B.weight, (5, 3, 2, 6, 0, 4, 1))
    got = [(b.head, b.tail) for b in lattice_ideal(B, order).elements]
    assert got == lattice_ideal_by_groebner(B, order)


# Kernels whose Groebner runs pass the starting field width partway
# through, so the packed monomials are widened before an S-pair is formed.
WIDENING = ((3, 20, 25, 30), (2, 3, 7, 8, 12), (19, 20, 31, 35), (10, 16, 19, 21, 34))


def test_runs_that_widen_their_fields_match_the_groebner_oracles(monkeypatch):
    widths, runs = [], []
    original_packing, original_run = ideal._packing, ideal._buchberger_pairs

    def packing(order, width):
        widths.append(width)
        return original_packing(order, width)

    def run(pairs, order):
        widths.clear()
        out = original_run(pairs, order)
        runs.append((pairs, order, list(widths)))
        return out

    monkeypatch.setattr(ideal, "_packing", packing)
    monkeypatch.setattr(ideal, "_buchberger_pairs", run)
    for a in WIDENING:
        runs.clear()
        B = kernel_basis(WeightVector(a))
        got = [(b.head, b.tail) for b in lattice_ideal(B).elements]
        assert got == lattice_ideal_by_groebner(B), a
        widened = [(pairs, order) for pairs, order, w in runs if len(w) > 1]
        assert widened, a
        for pairs, order in widened:
            got = _tuples(original_run(pairs, order))
            assert got == groebner_without_chain_criterion(pairs, order), a
    # Inputs of degree at most 30 start with fields up to 63; the reduced
    # basis has x1^131, so a run that kept its first fields would carry
    # into the next field and give a wrong basis.
    order = TermOrder(WeightVector((1, 1, 5, 2)), (2, 0, 3, 1))
    pairs = [
        ((5, 0, 0, 0), (0, 0, 1, 0)),
        ((0, 5, 5, 0), (4, 1, 5, 0)),
        ((1, 0, 0, 2), (0, 5, 0, 0)),
    ]
    runs.clear()
    got = _tuples(run(pairs, order))
    assert len(runs[0][2]) > 1
    assert got == groebner_without_chain_criterion(pairs, order)


def test_exponents_far_past_small_fields_match_the_groebner_oracle():
    # x1^100019 - x2^100003 has degree about 10^10, so 36-bit fields;
    # (2, 3, 10007) has x1 x2^3335 - x3 next to x1^3 - x2^2
    for a in ((100003, 100019), (2, 3, 10007)):
        B = kernel_basis(WeightVector(a))
        got = [(b.head, b.tail) for b in lattice_ideal(B).elements]
        assert got == lattice_ideal_by_groebner(B), a
    order = TermOrder(WeightVector((100003, 100019)))
    pairs = [((100019, 0), (0, 100003)), ((200038, 0), (100019, 100003))]
    assert _tuples(_buchberger_pairs(pairs, order)) == groebner_without_chain_criterion(pairs, order)


# The Markov basis of the 12-variable ladder instance, as the round of
# one saturation pass per variable gave it. The oracle takes about 12 s
# here, so the result is pinned instead.
MARKOV_11_TO_53 = (
    (-1, 1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 0, 2, 0, -1, 0, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 1, -1, 0, 0, 0, 0, 0, 0, 0),
    (1, 2, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0),
    (-2, 3, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 0, 1, 0, 1, -1, 0, 0, 0, 0, 0, 0),
    (2, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0),
    (-1, 1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0),
    (-1, 0, 0, 1, 1, 0, -1, 0, 0, 0, 0, 0),
    (1, 1, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0),
    (4, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0),
    (-2, 2, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, -1, 0, 2, -1, 0, 0, 0, 0, 0, 0),
    (3, 1, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0),
    (-1, 0, 1, 0, 0, 0, 1, -1, 0, 0, 0, 0),
    (-1, 0, 0, 1, 0, 1, 0, -1, 0, 0, 0, 0),
    (0, -1, 0, 1, 0, 0, 1, -1, 0, 0, 0, 0),
    (-2, 1, 0, 2, 0, -1, 0, 0, 0, 0, 0, 0),
    (-1, 0, 0, 0, 1, 1, 0, 0, -1, 0, 0, 0),
    (2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1),
    (-1, 0, 0, 0, 1, 0, 1, 0, 0, -1, 0, 0),
    (0, -2, 0, 3, 0, 0, -1, 0, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 2, 0, 0, 0, 0, -1, 0),
    (0, -1, 0, 0, 0, 1, 1, 0, 0, 0, -1, 0),
    (0, 0, 0, -1, 0, 0, 2, 0, 0, -1, 0, 0),
)


def test_lattice_ideal_twelve_variables_matches_pinned_basis():
    B = kernel_basis(WeightVector((11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)))
    mb = lattice_ideal(B)
    assert mb.vectors == MARKOV_11_TO_53


def test_unit_closure_two_variables():
    # x1^3 - x2^2: either variable a unit makes the other one
    supports = _supports([((3, 0), (0, 2))])
    assert supports == [(0b01, 0b10)]
    assert _unit_closure(supports, 0b10) == 0b11
    assert _unit_closure(supports, 0b01) == 0b11
    assert _unit_closure(supports, 0) == 0


def test_unit_closure_weights_containing_one():
    # a = (1, 4, 6): x1^4 - x2 and x1^2 x2 - x3, so any one variable
    # made a unit makes all three units
    B = kernel_basis(WeightVector((1, 4, 6)))
    pairs = [(b.head, b.tail) for b in lattice_ideal(B).elements]
    assert pairs == [((4, 0, 0), (0, 1, 0)), ((2, 1, 0), (0, 0, 1))]
    for seed in (0b001, 0b010, 0b100):
        assert _unit_closure(_supports(pairs), seed) == 0b111


def test_unit_closure_short_until_a_saturation_pass(monkeypatch):
    # a = (5, 7, 8): the start binomials x2^3 - x1 x3^2 and x2 x3 - x1^3
    # have no side in x3 alone, so one pass saturates another variable
    # before the last pass in the target order
    B = kernel_basis(WeightVector((5, 7, 8)))
    start = [((0, 3, 0), (1, 0, 2)), ((0, 1, 1), (3, 0, 0))]
    assert _unit_closure(_supports(start), 0b100) == 0b100
    assert _unit_closure(_supports(start), 0b110) == 0b111
    runs = []
    original = ideal._buchberger_pairs

    def counted(pairs, order):
        runs.append(order.perm)
        return original(pairs, order)

    monkeypatch.setattr(ideal, "_buchberger_pairs", counted)
    got = [(b.head, b.tail) for b in lattice_ideal(B).elements]
    assert len(runs) == 2 and runs[-1] == (0, 1, 2)
    assert got == lattice_ideal_by_groebner(B)


def test_buchberger_pairs_matches_groebner_without_pair_pruning():
    # equal-degree binomials x^u - x^v, common factors allowed, under
    # permuted orders; the oracle forms every S-pair but coprime ones
    rng = random.Random(6106)
    cases = 0
    while cases < 150:
        n = rng.choice((2, 3, 4, 5, 6, 7, 8, 8, 9, 9))
        a = tuple(rng.randint(1, 4) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        order = TermOrder(WeightVector(a), tuple(rng.sample(range(n), n)))
        # 0/1 exponents and at most three binomials keep the
        # unpruned oracle fast on 7-9 variables
        size, top = (rng.randint(2, 5), 2) if n <= 6 else (rng.randint(2, 3), 1)
        pairs = []
        for _ in range(200):
            u = tuple(rng.randint(0, top) for _ in range(n))
            v = tuple(rng.randint(0, top) for _ in range(n))
            if u != v and sum(x * y for x, y in zip(a, u)) == sum(x * y for x, y in zip(a, v)):
                pairs.append((u, v))
                if len(pairs) == size:
                    break
        if not pairs:
            continue
        got = _tuples(_buchberger_pairs(pairs, order))
        assert got == groebner_without_chain_criterion(pairs, order), (a, order.perm, pairs)
        cases += 1


def test_buchberger_pairs_hands_the_tail_pass_minimal_heads(monkeypatch):
    # The tail pass takes the reducer list as it stands, so every new head
    # must drop the reducers whose heads it divides.
    heads = []
    original = ideal._interreduce

    def interreduce(records, packing):
        heads.append([packing.decode(r[0]) for r in records])
        return original(records, packing)

    monkeypatch.setattr(ideal, "_interreduce", interreduce)
    order = TermOrder(WeightVector((2, 4, 4, 3, 2, 3, 1)), (3, 5, 4, 0, 1, 6, 2))
    pairs = [
        ((1, 1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 1, 1, 1)),
        ((0, 0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 1, 0, 0)),
        ((1, 1, 0, 0, 0, 0, 1), (1, 0, 1, 0, 0, 0, 1)),
    ]
    assert len(_tuples(_buchberger_pairs(pairs, order))) == 6
    lattice_ideal(kernel_basis(WeightVector((11, 13, 17, 19, 23, 29, 31))))
    assert heads and all(heads)
    for hs in heads:
        assert not [(g, h) for g in hs for h in hs if g != h and all(map(operator.ge, h, g))]


def test_buchberger_pairs_output_is_reduced_groebner_basis():
    # binomials x^u - x^v of equal degree, common factors allowed, under
    # permuted orders
    rng = random.Random(5205)
    cases = 0
    while cases < 200:
        n = rng.randint(2, 5)
        a = tuple(rng.randint(1, 9) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        order = TermOrder(WeightVector(a), tuple(rng.sample(range(n), n)))
        pairs = []
        for _ in range(rng.randint(1, 4)):
            u = tuple(rng.randint(0, 3) for _ in range(n))
            others = [v for v in representations(a, sum(x * y for x, y in zip(a, u))) if v != u]
            if others:
                pairs.append((u, rng.choice(others)))
        if not pairs:
            continue
        G = _tuples(_buchberger_pairs(pairs, order))
        for i, f in enumerate(G):
            assert order.greater(f[0], f[1])
            for j, g in enumerate(G):
                assert i == j or not all(x >= y for x, y in zip(f[0], g[0])), (pairs, G)
                assert not all(x >= y for x, y in zip(f[1], g[0])), (pairs, G)
                s = spair(f, g)
                assert i >= j or s is None or normal_form(s, G, order) is None, (pairs, G)
        assert all(normal_form(p, G, order) is None for p in pairs)
        cases += 1


def test_saturation_idempotent():
    B = kernel_basis(WeightVector((3, 5, 8)))
    order = TermOrder(B.weight)
    first = lattice_ideal(B)
    # same lattice presented by a different basis
    v1, v2 = B.vectors
    other = LatticeBasis(B.weight, (v1, tuple(x + y for x, y in zip(v1, v2))))
    second = lattice_ideal(other)
    assert ideal_equal(first.elements, second.elements, order)


def test_saturation_needed_for_sublattice():
    # The basis binomial x1^2 - x2^2 saturates to itself; scaling the
    # sublattice keeps the Markov basis honest about membership.
    H = LatticeBasis(WeightVector((1, 1)), ((2, -2),))
    mb = lattice_ideal(H)
    assert [b.vector for b in mb.elements] == [(2, -2)]


def test_fiber_graph_connected_pair():
    B = kernel_basis(WeightVector((3, 5, 8)))
    mb = lattice_ideal(B)
    fg = fiber_graph(mb, class_label(B, (1, 1, 0)))
    assert fg.vertices == ((0, 0, 1), (1, 1, 0))
    assert fg.components() == (frozenset({(0, 0, 1), (1, 1, 0)}),)


def test_fiber_graph_singleton():
    B = kernel_basis(WeightVector((3, 5, 8)))
    mb = lattice_ideal(B)
    fg = fiber_graph(mb, class_label(B, (1, 0, 0)))
    assert fg.vertices == ((1, 0, 0),)
    assert fg.edges == frozenset()


def test_fiber_graph_disconnected_for_proper_sublattice():
    H = LatticeBasis(WeightVector((1, 1)), ((2, -2),))
    mb = lattice_ideal(H)
    fg = fiber_graph(mb, class_label(H, (1, 0)))
    assert set(fg.vertices) == {(1, 0), (0, 1)}
    assert len(fg.components()) == 2


def test_fiber_graph_components_match_classes():
    H = LatticeBasis(WeightVector((1, 1)), ((2, -2),))
    mb = lattice_ideal(H)
    for degree_point in ((2, 0), (3, 0)):
        fg = fiber_graph(mb, class_label(H, degree_point))
        for comp in fg.components():
            labels = {class_label(H, p) for p in comp}
            assert len(labels) == 1
        comp_count = len(fg.components())
        label_count = len({class_label(H, p) for p in fg.vertices})
        assert comp_count == label_count


def test_domination_count_equals_component_size():
    B = kernel_basis(WeightVector((3, 4, 11)))
    mb = lattice_ideal(B)
    for v in ((1, 2, -1), (5, -1, -1), (8, -6, 0)):
        assert member(B, v)
        vplus = tuple(x if x > 0 else 0 for x in v)
        fg = fiber_graph(mb, class_label(B, vplus))
        comp = next(c for c in fg.components() if vplus in c)
        assert len(dominated_points(B, vplus)) == len(comp)


def test_fiber_graph_rejects_negative_degree():
    B = kernel_basis(WeightVector((3, 5, 8)))
    mb = lattice_ideal(B)
    with pytest.raises(InputError):
        fiber_graph(mb, class_label(B, (-1, 0, 0)))


def test_fiber_graph_rejects_a_torsion_the_basis_lacks():
    # fiber_graph read only the degree: (16, (4,)) on the (3,5,8) kernel
    # gave all 3 points of degree 16
    K = kernel_basis(WeightVector((3, 5, 8)))
    H = LatticeBasis(WeightVector((13, 17, 29)), ((-17, 13, 0), (-696, 522, 6)))
    for B, torsion in ((K, (4,)), (K, (0,)), (H, (7,)), (H, ())):
        with pytest.raises(InputError, match="torsion"):
            fiber_graph(lattice_ideal(B), QuotientClass(16, torsion))


def test_binomial_validation():
    with pytest.raises(InputError):
        Binomial((1, 0), (1, 0))
    with pytest.raises(InputError):
        Binomial((1, -1), (0, 0))
