import math
import random
from functools import reduce
from itertools import combinations
from math import comb
from operator import le

import pytest

from genfrob import (
    EXCEPTIONAL,
    SYZYGY_OF_TWO_GENERATORS,
    SYZYGY_WITH_UNIT,
    Ball,
    InputError,
    LatticeBasis,
    TermOrder,
    WeightVector,
    ball,
    candidate_lcms,
    class_label,
    classify,
    divides_mod_L,
    dominated_points,
    is_exceptional,
    kernel_basis,
    kth_degrees,
    lattice_ideal,
    lcm_generator_classes,
    minimal_generators,
    modified_min_gens,
    module_poset,
    moves,
    parse_monomial,
    phi,
    render_monomial,
)

from genfrob.modules import _staircase, minimal_lcms, subset_lcms

from .oracles import (
    candidate_lcms_exhaustive,
    classify_by_support,
    lcm_generator_classes_all_candidates,
)


def _orbit_set(basis, gens):
    return {class_label(basis, g) for g in gens}


def test_candidate_subset_count_3_4_11():
    B = kernel_basis(WeightVector((3, 4, 11)))
    bl = ball(moves(lattice_ideal(B)), 2)
    assert len(bl) == 13
    # one subset per pair of nonzero ball points, 12 choose 2 of them
    assert comb(len(bl) - 1, 2) == 66
    cands = candidate_lcms(bl, 3, B.weight, 10**9)
    assert len(cands) == 55  # distinct lcms among the 66 subsets
    capped = candidate_lcms(bl, 3, B.weight, 15 + 5)
    assert len(capped) == 6
    assert set(capped) <= set(cands)


def test_candidate_lcms_k1_unit():
    B = kernel_basis(WeightVector((3, 5, 8)))
    bl = ball(moves(lattice_ideal(B)), 0)
    assert candidate_lcms(bl, 1, B.weight, 10) == ((0, 0, 0),)


def test_candidate_lcms_3_5_8_k2():
    B = kernel_basis(WeightVector((3, 5, 8)))
    bl = ball(moves(lattice_ideal(B)), 1)
    cands = candidate_lcms(bl, 2, B.weight, 8 + 7)
    assert set(cands) == {(0, 0, 1), (1, 1, 0), (0, 3, 0), (5, 0, 0)}


def test_candidate_lcms_radius_check():
    B = kernel_basis(WeightVector((3, 5, 8)))
    bl = ball(moves(lattice_ideal(B)), 1)
    with pytest.raises(InputError):
        candidate_lcms(bl, 3, B.weight, 100)


def _random_sublattice(rng, max_index=9, ns=(2, 3, 3, 4)):
    """A kernel lattice, or a sublattice of index up to max_index, on n in ns variables.

    About 30% of the weight vectors contain a 1. A sublattice takes
    an upper triangular integer matrix times the kernel basis, so its
    index is the product of the diagonal.
    """
    n = rng.choice(ns)
    while True:
        a = [rng.randint(2, 9) for _ in range(n)]
        if rng.random() < 0.3:
            a[rng.randrange(n)] = 1
        if math.gcd(*a) == 1:
            break
    K = kernel_basis(WeightVector(tuple(a)))
    if rng.random() < 0.5:
        return K
    r = n - 1
    while True:
        diag = [rng.randint(1, max_index if r == 1 else 3) for _ in range(r)]
        if math.prod(diag) <= max_index:
            break
    rows = [
        [diag[i] if j == i else rng.randint(-2, 2) if j > i else 0 for j in range(r)]
        for i in range(r)
    ]
    vectors = tuple(
        tuple(sum(c * v[x] for c, v in zip(row, K.vectors)) for x in range(n)) for row in rows
    )
    return LatticeBasis(K.weight, vectors)


def test_candidate_lcms_matches_exhaustive_oracle():
    # Each case is one (basis, k), checked at the real cap m_k + max(F_1, 0)
    # and, where the exhaustive walk stays small, with no cap at all.
    # Cases whose exhaustive walk exceeds 100,000 subsets are skipped to
    # keep the oracle's run time down.
    rng = random.Random(7007)
    cases = 0
    uncapped = 0
    kinds = set()
    while cases < 300:
        B = _random_sublattice(rng)
        k = rng.randint(1, 5)
        bl = ball(moves(lattice_ideal(B)), k - 1)
        subsets = comb(len(bl) - 1, k - 1)
        if len(bl) - 1 < k - 1 or subsets > 100_000:
            continue
        f, m = kth_degrees(B, k)
        caps = [m[-1] + max(f[0], 0)]
        if subsets <= 20_000:
            caps.append(10**9)
            uncapped += 1
        for cap in caps:
            assert candidate_lcms(bl, k, B.weight, cap) == candidate_lcms_exhaustive(
                bl, k, B.weight, cap
            ), (B, k, cap)
        kinds.add((B.n, B.index > 1, 1 in B.weight.a, k))
        cases += 1
    assert uncapped >= 150
    assert {(n, True, True) for n in (2, 3, 4)} <= {kind[:3] for kind in kinds}
    assert {kind[3] for kind in kinds} == {1, 2, 3, 4, 5}


def test_minimal_lcms_are_the_minimal_candidate_lcms():
    # Kernels and sublattices of index 2-3, k = 1..6, at the real cap and,
    # where the ball is small, with no cap. Balls over 150 points are
    # skipped to keep candidate_lcms fast. lcm_generator_classes, which
    # labels only the minimal lcms, is checked against the construction
    # that labels every candidate.
    rng = random.Random(1919)
    cases = uncapped = 0
    kinds = set()
    while cases < 200:
        B = _random_sublattice(rng, max_index=3)
        k = rng.randint(1, 6)
        mb = lattice_ideal(B)
        bl = ball(moves(mb), k - 1)
        if len(bl) > 150:
            continue
        f, m = kth_degrees(B, k)
        caps = [m[-1] + max(f[0], 0)]
        if comb(len(bl) - 1, k - 1) <= 20_000:
            caps.append(10**9)
            uncapped += 1
        for cap in caps:
            lcms = candidate_lcms(bl, k, B.weight, cap)
            minimal = tuple(L for L in lcms if not any(M != L and all(map(le, M, L)) for M in lcms))
            assert minimal_lcms(bl, k, B.weight, cap) == minimal, (B, k, cap)
        assert lcm_generator_classes(B, k, mb) == lcm_generator_classes_all_candidates(B, k, mb), (
            B,
            k,
        )
        kinds.add((B.index, k))
        cases += 1
    assert uncapped >= 100
    assert {(index, k) for index in (1, 2, 3) for k in range(1, 7)} <= kinds


def test_lcm_oracle_grows_one_ball_across_k_and_move_sets():
    # The basis keeps one move ball and grows it only when a k needs a
    # larger radius, so k = 4, 2, 6, 3 read prefixes of one radius-5 ball.
    # The Markov basis of another term order has another move set, which
    # starts a new ball. Every call equals the call on a fresh basis, on
    # kernels and on sublattices of index 2, 3 and 5.
    cases = [
        ((5, 7, 11, 13), None, (0, 2, 1, 3)),
        ((6, 10, 15), None, (0, 2, 1)),
        ((5, 7, 11, 13), ((-7, 5, 0, 0), (-33, 22, 1, 0), (-78, 52, 0, 2)), (0, 2, 1, 3)),
        ((3, 5, 8), ((-5, 3, 0), (-48, 24, 3)), (1, 0, 2)),
        ((4, 6, 9), ((-3, 2, 0), (45, -45, 10)), (1, 0, 2)),
    ]
    ks = (4, 2, 6, 3)
    for a, vectors, perm in cases:
        weight = WeightVector(a)

        def fresh():
            return kernel_basis(weight) if vectors is None else LatticeBasis(weight, vectors)

        want = {k: lcm_generator_classes(fresh(), k) for k in ks}
        shared = fresh()
        markovs = (lattice_ideal(shared), lattice_ideal(shared, TermOrder(weight, perm)))
        assert moves(markovs[0]).moves != moves(markovs[1]).moves, a
        for mb in (*markovs, markovs[0]):
            for k in ks:
                assert lcm_generator_classes(shared, k, mb) == want[k], (a, vectors, k)
            assert len(shared._memo["ball"].ends) == 6
        for k in ks:
            for mb in markovs:
                assert lcm_generator_classes(shared, k, mb) == want[k], (a, vectors, k)


def test_minimal_lcms_radius_check():
    B = kernel_basis(WeightVector((3, 5, 8)))
    bl = ball(moves(lattice_ideal(B)), 1)
    with pytest.raises(InputError):
        minimal_lcms(bl, 3, B.weight, 100)


def test_module_functions_reject_k_below_one():
    # is_exceptional(B, g, 0) asked count >= 1 and answered True
    B = kernel_basis(WeightVector((3, 5, 8)))
    for call in (
        lambda: is_exceptional(B, (0, 0, 1), 0),
        lambda: minimal_generators(B, 0),
        lambda: lcm_generator_classes(B, 0),
        lambda: module_poset(B, 0),
    ):
        with pytest.raises(InputError, match="k must be at least 1"):
            call()


def _minimal(points):
    return tuple(
        sorted(L for L in points if not any(M != L and all(map(le, M, L)) for M in points))
    )


def test_minimal_lcms_on_hand_built_balls_match_the_exhaustive_walk():
    # minimal_lcms and candidate_lcms read only the ball's radius and
    # points, so each case lists its nonzero points by hand: ties in every
    # coordinate, distinct points with equal positive parts, and two
    # variables, where the staircase is the whole search. Each k runs
    # uncapped and at every cap up to the uncapped answer's largest degree,
    # so caps cut the staircase between its steps; k = 1 is the origin
    # whatever the cap. The repeated positive parts give candidate_lcms
    # points with multiplicity.
    cases = [
        (
            (1, 2, 3),
            [(2, 0, 1), (2, 1, 0), (0, 2, 2), (1, 2, 0), (2, 2, -1), (-1, 0, 3), (0, 0, 3)],
        ),
        ((2, 3), [(3, -1), (1, 2), (2, 2), (0, 4), (4, 0), (-2, 1), (2, -3), (1, 1), (-1, 4)]),
        ((1, 1), [(1, 0), (0, 1), (1, -1), (-1, 1), (2, 0), (0, 2), (1, 1)]),
        (
            (3, 1, 2, 1),
            [(1, 0, 2, 0), (1, 2, 0, -1), (0, 1, 1, 1), (1, 1, 1, 0), (-2, 1, 1, 1), (0, 0, 2, 2)],
        ),
    ]
    steps_cut = 0
    for a, points in cases:
        weight = WeightVector(a)
        origin = (0,) * len(a)
        for k in range(1, len(points) + 2):
            bl = Ball(k - 1, {origin: 0, **{p: 1 for p in points}})
            uncapped = minimal_lcms(bl, k, weight, 10**9)
            for cap in (10**9, *range(-1, max(map(weight.degree, uncapped)) + 1)):
                got = minimal_lcms(bl, k, weight, cap)
                if k == 1:
                    assert got == (origin,) == candidate_lcms(bl, k, weight, cap)
                    continue
                every = candidate_lcms_exhaustive(bl, k, weight, cap)
                assert candidate_lcms(bl, k, weight, cap) == every, (a, k, cap)
                assert got == _minimal(every), (a, k, cap)
                steps_cut += 0 < len(got) < len(uncapped)
    assert steps_cut >= 20


def test_staircase_is_the_minimal_pairs_with_j_points_below():
    # Pairs with many ties in both coordinates and repeated pairs; the
    # steps come in increasing first and decreasing second coordinate.
    rng = random.Random(2222)
    for _ in range(500):
        pairs = sorted((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 9)))
        j = rng.randint(1, len(pairs))
        below = {
            (v, t)
            for v, _ in pairs
            for _, t in pairs
            if sum(x <= v and y <= t for x, y in pairs) >= j
        }
        assert _staircase(pairs, j) == list(_minimal(below)), (pairs, j)


def test_minimal_lcms_on_five_variables_are_the_minimal_candidate_lcms():
    # Five variables, where the search sets three coordinates before the
    # staircase: kernels and sublattices of index 2-3, k = 2..6, at the
    # real cap and, where the ball is small, with no cap. Balls over 1,000
    # points are skipped to keep candidate_lcms fast.
    rng = random.Random(5555)
    cases = uncapped = 0
    kinds = set()
    while cases < 60:
        B = _random_sublattice(rng, max_index=3, ns=(5,))
        k = rng.randint(2, 6)
        bl = ball(moves(lattice_ideal(B)), k - 1)
        if len(bl) > 1000:
            continue
        f, m = kth_degrees(B, k)
        caps = [m[-1] + max(f[0], 0)]
        if comb(len(bl) - 1, k - 1) <= 20_000:
            caps.append(10**9)
            uncapped += 1
        for cap in caps:
            lcms = candidate_lcms(bl, k, B.weight, cap)
            assert minimal_lcms(bl, k, B.weight, cap) == _minimal(lcms), (B, k, cap)
        kinds.add((B.index > 1, k))
        cases += 1
    assert uncapped >= 20
    assert {(sub, k) for sub in (False, True) for k in range(2, 7)} <= kinds


def test_classify_and_is_exceptional_match_dominated_points():
    # classify reads a generator's dominated points from the support held
    # for its orbit, shifted to the monomial asked about, and is_exceptional
    # reads count > k from the thresholds. Both are checked against a fresh
    # enumeration by dominated_points, on every generator, on a lattice
    # translate of it, and (is_exceptional) on non-generators and on points
    # of negative degree.
    rng = random.Random(9009)
    kinds = set()
    cases_seen = set()
    for _ in range(200):
        B = _random_sublattice(rng, max_index=6)
        k = rng.randint(2, 5)
        gens = minimal_generators(B, k)
        n = B.n
        for g in gens.generators:
            coeffs = [rng.randint(-2, 2) for _ in B.vectors]
            if not any(coeffs):
                coeffs[0] = 1
            l = tuple(sum(c * v[x] for c, v in zip(coeffs, B.vectors)) for x in range(n))
            g_l = tuple(x + y for x, y in zip(g, l))
            out = classify(B, g, k, gens)
            out_l = classify(B, g_l, k, gens)
            assert (out.case, out.witnesses) == classify_by_support(
                g, sorted(dominated_points(B, g)), k
            ), (B, k, g)
            assert (out_l.case, out_l.witnesses) == classify_by_support(
                g_l, sorted(dominated_points(B, g_l)), k
            ), (B, k, g_l)
            assert out_l.case == out.case
            assert out_l.witnesses == tuple(
                tuple(x + y for x, y in zip(w, l)) for w in out.witnesses
            )
            cases_seen.add(out.case)
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        points = list(gens.generators)
        points += [tuple(x + y for x, y in zip(gens.generators[0], e)) for e in units]
        points += [tuple(-x for x in e) for e in units]
        points += [tuple(rng.randint(-3, 4) for _ in range(n)) for _ in range(4)]
        for p in points:
            assert is_exceptional(B, p, k) == (len(dominated_points(B, p)) > k), (B, k, p)
        kinds.add((n, B.index > 1, k))
    assert cases_seen == {EXCEPTIONAL, SYZYGY_OF_TWO_GENERATORS, SYZYGY_WITH_UNIT}
    assert {(n, True) for n in (2, 3, 4)} <= {kind[:2] for kind in kinds}
    assert {kind[2] for kind in kinds} == {2, 3, 4, 5}


def test_classify_matches_the_subset_walk_up_to_k_12():
    # classify forms the lcms of subsets of each coordinate's top points
    # only; the oracle forms the lcm of every (k - 1)-subset of the
    # dominated points. Kernels and sublattices of index 2-3 on 2 to 5
    # variables, every generator, k = 2..12; up to 6 points are left out,
    # and some cases pad the left-out set from outside the top points.
    rng = random.Random(1212)
    kinds = set()
    cases_seen = set()
    for _ in range(120):
        B = _random_sublattice(rng, max_index=3, ns=(2, 3, 4, 5))
        k = rng.randint(2, 12)
        gens = minimal_generators(B, k)
        for g in gens.generators:
            out = classify(B, g, k, gens)
            support = sorted(dominated_points(B, g))
            assert (out.case, out.witnesses) == classify_by_support(g, support, k), (B, k, g)
            cases_seen.add(out.case)
        kinds.add((B.n, B.index, k))
    assert cases_seen == {EXCEPTIONAL, SYZYGY_OF_TWO_GENERATORS, SYZYGY_WITH_UNIT}
    assert {kind[:2] for kind in kinds} == {(n, i) for n in (2, 3, 4, 5) for i in (1, 2, 3)}
    assert {kind[2] for kind in kinds} == set(range(2, 13))


def test_subset_lcms_equal_the_lcms_of_every_subset():
    # Distinct points with many ties in each coordinate. With fewer points
    # a subset than coordinates, the points <= v can have lcm v while no
    # size of them attain it, so the cover test by masks decides there.
    rng = random.Random(4242)
    small = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        count = rng.randint(1, 12)
        points = list({tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count)})
        size = rng.randint(1, len(points))
        walk = {reduce(phi, K) for K in combinations(points, size)}
        assert subset_lcms(points, size) == walk, (points, size)
        small += size < min(n, len(points))
    assert small >= 50


def test_divides_mod_L_examples():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert divides_mod_L(B, (0, 0, 1), (1, 1, 0))  # x3 | x1x2, same orbit
    assert not divides_mod_L(B, (0, 0, 1), (0, 3, 0))  # difference degree 7
    # higher degree never divides lower degree
    assert not divides_mod_L(B, (0, 3, 0), (0, 0, 1))


def test_minimal_generators_3_5_8_k2():
    B = kernel_basis(WeightVector((3, 5, 8)))
    gens = minimal_generators(B, 2)
    assert gens.render() == ("x3", "x2^3")
    assert gens.m_k == 8
    assert gens.min_degree_witness == (0, 0, 1)


def test_minimal_generators_k1_unit():
    B = kernel_basis(WeightVector((3, 5, 8)))
    gens = minimal_generators(B, 1)
    assert gens.render() == ("1",)
    assert gens.supports == (((0, 0, 0),),)


def test_minimal_generators_3_4_11_k3():
    B = kernel_basis(WeightVector((3, 4, 11)))
    gens = minimal_generators(B, 3)
    degs = tuple(B.weight.degree(g) for g in gens.generators)
    assert degs == (15, 20)
    assert _orbit_set(B, gens.generators) == _orbit_set(B, [(5, 0, 0), (4, 2, 0)])
    # mutual divisibility with the known representatives, orbit by orbit
    assert divides_mod_L(B, gens.generators[0], (5, 0, 0))
    assert divides_mod_L(B, (5, 0, 0), gens.generators[0])


def test_minimal_generators_3_4_11_k4():
    B = kernel_basis(WeightVector((3, 4, 11)))
    gens = minimal_generators(B, 4)
    assert len(gens.generators) == 3
    known = [(0, 0, 2), (-1, 1, 2), (3, 1, 1)]
    assert _orbit_set(B, gens.generators) == _orbit_set(B, known)
    assert gens.m_k == 22


def test_minimal_generators_2_5_10_k2():
    B = kernel_basis(WeightVector((2, 5, 10)))
    gens = minimal_generators(B, 2)
    assert gens.render() == ("x3",)
    assert gens.supports[0] == ((-5, 0, 1), (0, -2, 1), (0, 0, 0))


def test_generator_invariants():
    for a, ks in (((3, 5, 8), (1, 2, 3)), ((3, 4, 11), (2, 3, 4))):
        B = kernel_basis(WeightVector(a))
        for k in ks:
            gens = minimal_generators(B, k)
            f1 = gens.f_1
            for g, sup in zip(gens.generators, gens.supports):
                assert len(sup) >= k
                assert gens.m_k <= B.weight.degree(g) <= gens.m_k + max(f1, 0)
            # no generator divides another modulo the lattice
            for g in gens.generators:
                for h in gens.generators:
                    if g != h:
                        assert not divides_mod_L(B, g, h)
            assert B.weight.degree(gens.min_degree_witness) == gens.m_k


def test_filtration_between_levels():
    B = kernel_basis(WeightVector((3, 4, 11)))
    lower = minimal_generators(B, 3)
    upper = minimal_generators(B, 4)
    for g in upper.generators:
        assert any(divides_mod_L(B, h, g) for h in lower.generators)


def test_modified_min_gens_k1():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert modified_min_gens(B, 1) == ((0, 0, 0),)


def test_modified_min_gens_3_4_11_k3_contains_known_witnesses():
    B = kernel_basis(WeightVector((3, 4, 11)))
    mm = modified_min_gens(B, 3)
    assert (0, 0, 0) in mm
    assert (-1, -1, 2) in mm  # x1^-1 x2^-1 x3^2
    assert (-2, 1, 2) in mm  # x1^-2 x2 x3^2
    for g in mm:
        if g != (0, 0, 0):
            assert any(e < 0 for e in g)


def test_modified_min_gens_always_contains_unit():
    for a in ((3, 5, 8), (2, 5, 10)):
        B = kernel_basis(WeightVector(a))
        for k in (1, 2):
            assert (0, 0, 0) in modified_min_gens(B, k)


def test_modified_min_gens_takes_the_basis_and_k_alone():
    B = kernel_basis(WeightVector((3, 5, 8)))
    with pytest.raises(TypeError):
        modified_min_gens(B, 3, minimal_generators(B, 3))


def test_phi_examples():
    assert phi((-1, -1, 2), (-2, 1, 2)) == (-1, 1, 2)
    assert phi((1, 2, 3), (1, 2, 3)) == (1, 2, 3)
    assert phi((-1, -1, 2), (0, 0, 0)) == (0, 0, 2)


def test_classify_exceptional_2_5_10():
    B = kernel_basis(WeightVector((2, 5, 10)))
    gens2 = minimal_generators(B, 2)
    assert gens2.generators == ((0, 0, 1),)
    assert is_exceptional(B, (0, 0, 1), 2)
    out = classify(B, (0, 0, 1), 3)
    assert out.case == EXCEPTIONAL
    assert out.witnesses == ()


def test_classify_syzygy_of_two_generators():
    B = kernel_basis(WeightVector((3, 4, 11)))
    gens4 = minimal_generators(B, 4)
    out = classify(B, (-1, 1, 2), 4, gens4)
    assert out.case == SYZYGY_OF_TWO_GENERATORS
    assert set(out.witnesses) == {(-1, -1, 2), (-2, 1, 2)}
    assert phi(*out.witnesses) == (-1, 1, 2)


def test_classify_syzygy_with_unit():
    B = kernel_basis(WeightVector((3, 4, 11)))
    gens4 = minimal_generators(B, 4)
    out = classify(B, (0, 0, 2), 4, gens4)
    assert out.case == SYZYGY_WITH_UNIT
    assert out.witnesses == ((-1, -1, 2),)
    assert phi(out.witnesses[0], (0, 0, 0)) == (0, 0, 2)


def test_classify_rejects_non_generators():
    B = kernel_basis(WeightVector((3, 5, 8)))
    gens = minimal_generators(B, 2)
    with pytest.raises(InputError):
        classify(B, (1, 0, 0), 2, gens)  # dominates only one point
    with pytest.raises(InputError):
        classify(B, (1, 1, 1), 2, gens)  # divisible by x3, not minimal


def test_neighbourhood_reconstruction_known_cases():
    # every generator is an lcm of k ball points, one of them the origin,
    # after translating the generator so a support point sits at 0
    from itertools import combinations

    for a, k in (((3, 5, 8), 2), ((3, 4, 11), 3), ((2, 5, 10), 2)):
        B = kernel_basis(WeightVector(a))
        mb = lattice_ideal(B)
        bl = ball(moves(mb), k - 1)
        gens = minimal_generators(B, k)
        for g, sup in zip(gens.generators, gens.supports):
            assert (0,) * B.n in sup
            in_ball = [p for p in sup if p in bl and any(p)]
            found = False
            for subset in combinations(in_ball, k - 1):
                lcm = (0,) * B.n
                for p in subset:
                    lcm = phi(lcm, p)
                if lcm == g:
                    found = True
                    break
            assert found, (a, k, g)


def test_generator_coverage_matches_counts():
    # a class is divisible by some generator orbit exactly when its count
    # reaches k, for every degree up to m_k + F_1
    from genfrob import count_table

    for a, ks in (((3, 5, 8), (1, 2, 3)), ((3, 4, 11), (2, 3, 4)), ((2, 5, 10), (2, 3))):
        B = kernel_basis(WeightVector(a))
        for k in ks:
            gens = minimal_generators(B, k)
            cap = gens.m_k + max(gens.f_1, 0)
            table = count_table(B, cap, max(k, 2))
            gen_classes = [class_label(B, g) for g in gens.generators]
            for d in range(cap + 1):
                for c, cnt in table.classes_at(d):
                    covered = any(
                        (diff := B.class_sub(c, gc)).degree >= 0
                        and table.count(diff) >= 1
                        for gc in gen_classes
                    )
                    assert covered == (cnt >= k), (a, k, d, c)


def test_exceptional_generators_persist_or_are_divided():
    # an exceptional generator either stays minimal one level up or some
    # higher generator divides it
    for a, ks in (((2, 5, 10), (2,)), ((3, 5, 8), (2, 3)), ((3, 4, 11), (2, 3))):
        B = kernel_basis(WeightVector(a))
        for k in ks:
            gens = minimal_generators(B, k)
            upper = minimal_generators(B, k + 1)
            for g, sup in zip(gens.generators, gens.supports):
                if len(sup) < k + 1:
                    continue
                assert is_exceptional(B, g, k)
                in_upper = any(
                    divides_mod_L(B, h, g) and divides_mod_L(B, g, h)
                    for h in upper.generators
                )
                divided = any(
                    divides_mod_L(B, h, g) and not divides_mod_L(B, g, h)
                    for h in upper.generators
                )
                assert in_upper or divided, (a, k, g)


def test_exceptional_x3_reappears_in_next_level():
    B = kernel_basis(WeightVector((2, 5, 10)))
    g2 = minimal_generators(B, 2)
    assert is_exceptional(B, g2.generators[0], 2)
    g3 = minimal_generators(B, 3)
    assert class_label(B, (0, 0, 1)) in [class_label(B, g) for g in g3.generators]


def test_render_and_parse_monomials():
    assert render_monomial((0, 0, 0)) == "1"
    assert render_monomial((-1, 1, 2)) == "x1^-1*x2*x3^2"
    assert render_monomial((5, 0, 0)) == "x1^5"
    assert parse_monomial("x1^-1*x2*x3^2", 3) == (-1, 1, 2)
    assert parse_monomial("1", 3) == (0, 0, 0)
    with pytest.raises(InputError):
        parse_monomial("y2", 3)
    with pytest.raises(InputError):
        parse_monomial("x4", 3)
