import gc
import math
import random
import re
import sys
import tracemalloc
import weakref

import pytest

from genfrob import (
    CountTable,
    InputError,
    LatticeBasis,
    QuotientClass,
    WeightVector,
    brute_force_frobenius,
    brute_force_m,
    class_label,
    count_table,
    degree_fiber,
    dominated_points,
    fiber,
    has_nonneg_rep,
    kernel_basis,
    kth_degrees,
    lcm_generator_classes,
    m_value,
    module_poset,
    thresholds,
)

from .oracles import (
    class_count,
    count_representations,
    count_table_by_rows,
    node_map_by_rows,
    representations,
    thresholds_by_heap,
)


def _first_reach(table, basis, k, limit):
    for d in range(limit + 1):
        if any(cnt >= k for _, cnt in table.classes_at(d)):
            return d
    raise AssertionError("not reached")


def test_count_first_reach_degrees_3_5_8():
    B = kernel_basis(WeightVector((3, 5, 8)))
    table = count_table(B, 40, 10)
    assert [_first_reach(table, B, k, 40) for k in range(1, 7)] == [0, 8, 16, 21, 24, 29]


def test_count_degree_zero():
    B = kernel_basis(WeightVector((3, 5, 8)))
    table = count_table(B, 5, 5)
    assert table.count(B.zero_class) == 1


def test_count_degree_eight_witnesses():
    B = kernel_basis(WeightVector((3, 5, 8)))
    table = count_table(B, 10, 10)
    c = class_label(B, (1, 1, 0))
    assert table.count(c) == 2
    assert fiber(B, c).points == ((0, 0, 1), (1, 1, 0))


def test_count_matches_enumeration_oracle():
    B = kernel_basis(WeightVector((3, 5, 8)))
    table = count_table(B, 30, 50)
    for d in range(31):
        (cls, cnt), = list(table.classes_at(d))
        assert cnt == count_representations((3, 5, 8), d)


def test_count_sublattice_matches_oracle():
    w = WeightVector((2, 3, 5))
    H = LatticeBasis(w, ((1, 1, -1), (8, -2, -2)))
    table = count_table(H, 15, 50)
    rng = random.Random(5)
    for _ in range(60):
        p = tuple(rng.randint(-3, 3) for _ in range(3))
        c = class_label(H, p)
        if 0 <= c.degree <= 15:
            assert table.count(c) == class_count(w.a, H.vectors, p)


def test_fiber_degree_zero():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert fiber(B, B.zero_class).points == ((0, 0, 0),)


def test_fiber_2_5_10_class_of_x3():
    B = kernel_basis(WeightVector((2, 5, 10)))
    pts = fiber(B, class_label(B, (0, 0, 1))).points
    assert set(pts) == {(5, 0, 0), (0, 2, 0), (0, 0, 1)}


def test_fiber_rejects_negative_degree():
    B = kernel_basis(WeightVector((3, 5, 8)))
    with pytest.raises(InputError):
        fiber(B, class_label(B, (-1, 0, 0)))


def test_dominated_points_known_examples():
    B = kernel_basis(WeightVector((2, 5, 10)))
    assert dominated_points(B, (0, 0, 1)) == {(0, 0, 0), (-5, 0, 1), (0, -2, 1)}
    B2 = kernel_basis(WeightVector((3, 4, 11)))
    assert dominated_points(B2, (-1, 1, 2)) == {
        (-1, -2, 1),
        (-2, -4, 2),
        (-6, -1, 2),
        (-5, 1, 1),
    }


def test_dominated_points_origin_and_negative():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert dominated_points(B, (0, 0, 0)) == {(0, 0, 0)}
    assert dominated_points(B, (-1, 0, 0)) == frozenset()


def test_m_value_examples():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert m_value(B, 3) == 16
    assert m_value(B, 1) == 0
    for a1, a2 in ((3, 5), (2, 7)):
        B2 = kernel_basis(WeightVector((a1, a2)))
        for k in range(1, 8):
            assert m_value(B2, k) == (k - 1) * a1 * a2


def test_has_nonneg_rep_examples():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert not has_nonneg_rep(B, class_label(B, (-1, 2, 0)))  # degree 7
    assert has_nonneg_rep(B, B.zero_class)
    assert has_nonneg_rep(B, class_label(B, (0, 1, 0)))  # degree 5
    assert not has_nonneg_rep(B, class_label(B, (-1, 0, 0)))  # negative degree


def test_support_identity_random():
    rng = random.Random(11)
    B = kernel_basis(WeightVector((3, 4, 11)))
    table = count_table(B, 60, 1000)
    for _ in range(150):
        p = tuple(rng.randint(-4, 4) for _ in range(3))
        d = B.weight.degree(p)
        if 0 <= d <= 60:
            assert len(dominated_points(B, p)) == table.count(class_label(B, p))


def test_window_rule_empirical():
    B = kernel_basis(WeightVector((3, 5, 8)))
    k = 3
    table = count_table(B, 60, k)
    a1 = 3
    for r in range(58):
        if all(min(table.row(d)) >= k for d in range(r, r + a1)):
            assert all(min(table.row(d)) >= k for d in range(r, 61))
            break
    else:
        raise AssertionError("no covered window found")


def test_translation_invariance_of_dominated_points():
    rng = random.Random(3)
    B = kernel_basis(WeightVector((3, 5, 8)))
    v1, v2 = B.vectors
    for _ in range(50):
        p = tuple(rng.randint(-3, 6) for _ in range(3))
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        l = tuple(s * x + t * y for x, y in zip(v1, v2))
        shifted = dominated_points(B, tuple(x + y for x, y in zip(p, l)))
        expected = {tuple(x + y for x, y in zip(q, l)) for q in dominated_points(B, p)}
        assert shifted == expected


def test_fiber_and_count_table_cardinality_agree():
    w = WeightVector((2, 3, 5))
    H = LatticeBasis(w, ((1, 1, -1), (8, -2, -2)))
    table = count_table(H, 12, 10**6)
    for d in range(13):
        for cls, cnt in table.classes_at(d):
            assert cnt == len(fiber(H, cls).points)


def test_counts_monotone_under_generators():
    B = kernel_basis(WeightVector((3, 5, 8)))
    cap = 7
    table = count_table(B, 40, cap)
    for d in range(41):
        for cls, cnt in table.classes_at(d):
            for i, ai in enumerate(B.weight.a):
                unit = tuple(int(j == i) for j in range(3))
                prev = B.class_sub(cls, class_label(B, unit))
                if prev.degree >= 0:
                    assert cnt >= min(table.count(prev), cap) or cnt == cap
                    assert cnt >= table.count(prev) or cnt == cap


def test_cap_saturates():
    B = kernel_basis(WeightVector((3, 5, 8)))
    t1 = count_table(B, 30, 1)
    t5 = count_table(B, 30, 5)
    for d in range(31):
        for (c1, n1), (_, n5) in zip(t1.classes_at(d), t5.classes_at(d)):
            assert n1 == min(n5, 1) or (n5 == 5 and n1 == 1)


def test_degree_fiber_matches_oracle():
    # seeded weights with two to five variables, some containing 1 and some
    # with equal last two weights (the pair degree_fiber solves in closed form)
    rng = random.Random(15)
    cases = [(3, 4, 11), (1, 1), (2, 1), (1, 2), (2, 2, 3), (3, 5, 5)]
    while len(cases) < 150:
        a = [rng.randint(1, 30) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.2:
            a[rng.randrange(len(a))] = 1
        if rng.random() < 0.3:
            a[-1] = a[-2]
        if math.gcd(*a) == 1:
            cases.append(tuple(a))
    assert {len(a) for a in cases} == {2, 3, 4, 5}
    for a in cases:
        B = kernel_basis(WeightVector(a))
        for d in range(-1, 80):
            assert list(degree_fiber(B, d)) == representations(a, d), (a, d)


def test_count_table_validation():
    B = kernel_basis(WeightVector((3, 5, 8)))
    with pytest.raises(InputError):
        count_table(B, -1, 1)
    with pytest.raises(InputError):
        count_table(B, 5, 0)
    table = count_table(B, 5, 1)
    with pytest.raises(InputError):
        table.count(class_label(B, (2, 0, 0)))  # degree 6 beyond range


def test_classes_with_a_torsion_the_basis_lacks_are_rejected():
    # has_nonneg_rep said yes to (5, (1,)) on a kernel, whose fiber is
    # empty, and CountTable.count raised KeyError on the sublattice;
    # Thresholds.at_least zipped the torsion with the moduli, so it read
    # (7,) as (1,) there
    K = kernel_basis(WeightVector((3, 5, 8)))
    H = LatticeBasis(WeightVector((13, 17, 29)), ((-17, 13, 0), (-696, 522, 6)))
    assert H.torsions == tuple((r,) for r in range(6))
    table = count_table(H, 40, 3)
    for B, torsion in ((K, (1,)), (K, (0,)), (H, (7,)), (H, (1, 2)), (H, ())):
        walk = thresholds(B, 2)
        for degree in (-4, 0, 5, 30):
            c = QuotientClass(degree, torsion)
            with pytest.raises(InputError, match="torsion"):
                has_nonneg_rep(B, c)
            with pytest.raises(InputError, match="torsion"):
                walk.at_least(c, 2)
        with pytest.raises(InputError, match="torsion"):
            fiber(B, c)
        if B is H:
            with pytest.raises(InputError, match="torsion"):
                table.count(c)
    for torsion in H.torsions:
        c = QuotientClass(30, torsion)
        found = has_nonneg_rep(H, c)
        assert found == bool(fiber(H, c).points) == (table.count(c) >= 1), torsion
        assert found == thresholds(H, 1).at_least(c, 1), torsion


def _threshold_case(rng, sizes=(2, 3, 3, 4), top=9, max_index=6, twin=0.0):
    """A kernel lattice, or a sublattice of index 2 to max_index, on n in sizes.

    Weights lie in 2..top, and about 30% of the weight vectors contain
    a 1; with probability twin another weight is set equal to the
    smallest. A sublattice takes an upper triangular integer matrix
    times the kernel basis, so its index is the product of the diagonal;
    a diagonal (2, 2) with even entries above it gives the non-cyclic
    torsion Z/2 x Z/2.
    """
    n = rng.choice(sizes)
    while True:
        a = [rng.randint(2, top) for _ in range(n)]
        if rng.random() < 0.3:
            a[rng.randrange(n)] = 1
        if twin and rng.random() < twin:
            low = a.index(min(a))
            a[(low + rng.randrange(1, n)) % n] = a[low]
        if math.gcd(*a) == 1:
            break
    K = kernel_basis(WeightVector(tuple(a)))
    if rng.random() < 0.4:
        return K
    r = n - 1
    while True:
        diag = [rng.randint(1, max_index if r == 1 else 3) for _ in range(r)]
        if 2 <= math.prod(diag) <= max_index:
            break
    step = 2 if rng.random() < 0.5 else 1
    rows = [
        [diag[i] if j == i else step * rng.randint(-1, 1) if j > i else 0 for j in range(r)]
        for i in range(r)
    ]
    vectors = tuple(
        tuple(sum(c * v[x] for c, v in zip(row, K.vectors)) for x in range(n)) for row in rows
    )
    return LatticeBasis(K.weight, vectors)


def test_thresholds_match_count_table():
    # Every read of the residue-walk thresholds against a counting table
    # that reaches m_K + F_1 + max(a), past every threshold t_k(r).
    rng = random.Random(8008)
    kinds = set()
    for _ in range(320):
        B = _threshold_case(rng)
        K = rng.randint(1, 5)
        t = thresholds(B, K)
        a = B.weight.a
        top = t.m[-1] + max(t.f[0], 0) + max(a)
        table = count_table(B, top, K)
        for d in range(top + 1):
            for c, cnt in table.classes_at(d):
                assert [t.at_least(c, k) for k in range(1, K + 1)] == [
                    cnt >= k for k in range(1, K + 1)
                ], (B, c)
        assert not t.at_least(class_label(B, (-1,) + (0,) * (B.n - 1)), 1)
        # Each node's least class of count >= k: walking down by [e_s]
        # from any class of count >= k ends in exactly one of them.
        s = a.index(min(a))
        e_s = class_label(B, tuple(int(j == s) for j in range(B.n)))
        for k in range(1, K + 1):
            least = list(t.least_classes(k))
            assert len(least) == len(set(least)) == a[s] * B.index
            for c in least:
                assert table.count(c) >= k, (B, k, c)
                below = B.class_sub(c, e_s)
                assert below.degree < 0 or table.count(below) < k, (B, k, c)
            lowest = set()
            for d in range(top + 1):
                for c, cnt in table.classes_at(d):
                    below = B.class_sub(c, e_s)
                    if cnt >= k and (below.degree < 0 or table.count(below) < k):
                        lowest.add(c)
            assert lowest == set(least), (B, k)
        units = {class_label(B, tuple(int(j == i) for j in range(B.n))) for i in range(B.n)}
        expected = sorted(
            (g for g in units if not any(
                h != g and table.count(B.class_sub(g, h)) >= 1 for h in units
            )),
            key=lambda c: (c.degree, c.torsion),
        )
        assert list(t.atoms()) == expected, B
        for _ in range(3):
            c = class_label(B, tuple(rng.randint(-3, 3) for _ in range(B.n)))
            if c.degree <= top:
                assert has_nonneg_rep(B, c) == (c.degree >= 0 and table.count(c) >= 1), (B, c)
        kinds.add((B.n, B.index, len(B.torsion_moduli), 1 in a, K))
    assert {kind[0] for kind in kinds} == {2, 3, 4}
    assert {kind[1] for kind in kinds} == {1, 2, 3, 4, 5, 6}
    assert any(kind[2] >= 2 for kind in kinds)  # non-cyclic torsion
    assert any(kind[0] == 2 and kind[3] for kind in kinds)
    assert {kind[4] for kind in kinds} == {1, 2, 3, 4, 5}


def test_round_robin_matches_heap_walk():
    # The round-robin engine against the k-best Dijkstra walk it
    # replaced: F_k, m_k and every node's least class of count >= k.
    rng = random.Random(1010)
    kinds = set()
    for _ in range(1000):
        B = _threshold_case(rng, sizes=(2, 3, 4, 5, 6), top=12, max_index=16, twin=0.15)
        K = rng.randint(1, 30)
        t, h = thresholds(B, K), thresholds_by_heap(B, K)
        assert (t.f, t.m) == (h.f, h.m), (B, K)
        for k in range(1, K + 1):
            assert list(t.least_classes(k)) == list(h.least_classes(k)), (B, k)
        a = sorted(B.weight.a)
        kinds.add((B.n, B.index, a[0] == 1, a[0] == a[1], K))
    assert {kind[0] for kind in kinds} == {2, 3, 4, 5, 6}
    assert {kind[1] for kind in kinds} >= {1, 2, 7, 9, 12, 16}
    assert any(kind[2] for kind in kinds)
    assert any(kind[3] and not kind[2] for kind in kinds)  # e.g. (4, 4, 5)
    assert {kind[4] for kind in kinds} == set(range(1, 31))
    # A weight that is a multiple of the smallest moves no node's residue,
    # so its cycles are those of a torsion shift, of length 1 at index 1:
    # the laps' doubling closes each of them. Two fixed cases and seeded
    # ones with a forced multiple, on kernels and scaled kernels.
    cases = [
        (kernel_basis(WeightVector((101, 103, 202))), 100),
        (kernel_basis(WeightVector((13, 26, 39, 17))), 200),
    ]
    while len(cases) < 80:
        n = rng.randint(3, 5)
        a = [rng.randint(2, 15) for _ in range(n - 1)]
        a.insert(rng.randrange(n), min(a) * rng.randint(1, 4))
        if math.gcd(*a) == 1:
            multipliers = [rng.choice((1, 1, 2, 3)) for _ in range(n - 1)]
            cases.append((_scaled_kernel(tuple(a), multipliers), rng.randint(1, 30)))
    for B, K in cases:
        t, h = thresholds(B, K), thresholds_by_heap(B, K)
        assert (t.f, t.m) == (h.f, h.m), (B, K)
        for k in range(1, K + 1):
            assert list(t.least_classes(k)) == list(h.least_classes(k)), (B, k)
        # A cycle whose start does not enter keeps the doubling's list
        # itself; it is exact-size too (only list() of a range, at an odd
        # K, rounds up one slot).
        for xs in t._reached:
            assert len(xs) % 2 or sys.getsizeof(xs) == sys.getsizeof(xs[:]), (B, K)
    assert any(B.index > 1 for B, _ in cases)


def test_basis_keeps_its_last_walk_and_no_longer():
    B = kernel_basis(WeightVector((13, 17, 29)))
    t = thresholds(B, 3)
    assert thresholds(B, 2) is t and thresholds(B, 3) is t
    assert len(t.f) == len(t.m) == 3
    assert kth_degrees(B, 2) == (t.f[:2], t.m[:2])
    assert [m_value(B, k) for k in (1, 2, 3)] == list(t.m)
    longer = thresholds(B, 5)
    assert longer is not t and thresholds(B, 4) is longer
    assert (longer.f[:3], longer.m[:3]) == (t.f, t.m)
    assert kth_degrees(B, 5) == (longer.f, longer.m)
    # The walk belongs to the basis object: an equal basis walks for
    # itself, and a dropped basis takes its walk and its oracle table
    # with it at once, with no cycle left for the garbage collector.
    twin = LatticeBasis(B.weight, B.vectors)
    assert twin == B and hash(twin) == hash(B)
    assert thresholds(twin, 1) is not longer
    assert brute_force_m(B, 2) == t.m[1]
    gone = [weakref.ref(x) for x in (B, longer)]
    gc.disable()
    try:
        del B, t, longer
        assert [ref() for ref in gone] == [None, None]
    finally:
        gc.enable()


def test_thresholds_refuse_a_k_outside_the_walk():
    B = kernel_basis(WeightVector((13, 17, 29)))
    t = thresholds(B, 3)
    c = class_label(B, (1, 1, 1))
    for k in (0, len(t.m) + 1):
        with pytest.raises(KeyError):
            t.at_least(c, k)
        with pytest.raises(KeyError):
            list(t.least_classes(k))


def test_walk_keeps_no_second_copy_of_its_lists():
    # What stays allocated after the walk is its per-node lists; a second
    # table of the same entries, such as a per-k transpose, would show as
    # a peak well above it.
    B = kernel_basis(WeightVector((211, 223, 227)))
    tracemalloc.start()
    try:
        t = thresholds(B, 400)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(t.m) == 400
    assert peak <= 1.1 * kept, (peak, kept)


def _scaled_kernel(weights, multipliers):
    """The sublattice on the kernel basis rows of the weights, row i
    times multipliers[i]."""
    K = kernel_basis(WeightVector(weights))
    return LatticeBasis(
        K.weight, tuple(tuple(m * x for x in v) for m, v in zip(multipliers, K.vectors))
    )


def test_node_maps_by_slices_match_the_row_by_row_maps(monkeypatch):
    from genfrob import counting

    rng = random.Random(3737)
    for _ in range(600):
        a_s, index = rng.randint(1, 60), rng.randint(1, 8)
        rem = 0 if rng.random() < 0.2 else rng.randrange(a_s)
        low, high = rng.sample(range(index), index), rng.sample(range(index), index)
        got = counting._node_map(a_s, index, rem, low, high)
        assert got == node_map_by_rows(a_s, index, rem, low, high), (a_s, index, rem, low, high)
        assert sorted(got) == list(range(a_s * index))  # a permutation of the nodes
    # The maps of real walks and atoms, on torsions Z/2 x Z/2, Z/2 x Z/4,
    # Z/3 x Z/3 and Z/2 x Z/6: the walk's maps as the spy sees them built,
    # the atoms' from their steps.
    built = []

    def spy(*args):
        out = node_map_by_rows(*args)
        built.append(args)
        assert real(*args) == out, args
        return out

    real = counting._node_map
    monkeypatch.setattr(counting, "_node_map", spy)
    cases = [
        _scaled_kernel((13, 17, 29), (2, 2)),
        _scaled_kernel((13, 17, 29), (2, 4)),
        _scaled_kernel((13, 17, 29), (3, 3)),
        _scaled_kernel((5, 7, 11, 13), (2, 2, 3)),
    ]
    steps = []
    for B in cases:
        assert len(B.torsion_moduli) == 2
        t = thresholds(B, 3)
        assert len(built) == B.n - 1
        maps = t.atom_maps
        assert len(built) == B.n - 1 + len(maps) > B.n - 1
        for (d, step), (deg, m) in zip(t._atom_steps, maps):
            assert d == deg and m == node_map_by_rows(t.a_s, B.index, *step)
        steps += built[: B.n - 1]
        built.clear()
    # some steps move torsion codes, some differently below and past the wrap
    assert any(list(low) != sorted(low) for *_, low, _ in steps)
    assert any(low != high for *_, low, high in steps)


def test_walk_merges_take_only_runs_that_enter(monkeypatch):
    # Every merge of the folds and of the laps' doubling takes a run ys
    # that enters the running K smallest xs: xs is short or ys starts
    # below xs[-1], so a node whose own list does not enter costs no
    # merge. The spy sees each merge's runs and its result.
    from genfrob import counting

    merges = []

    def spy_merge(xs, ys, k):
        out = real(xs, ys, k)
        merges.append((xs, ys, k, out))
        return out

    real = counting._k_smallest
    monkeypatch.setattr(counting, "_k_smallest", spy_merge)
    rng = random.Random(4141)
    merged = 0
    for _ in range(200):
        B = _threshold_case(rng, sizes=(2, 3, 4, 5), top=12, max_index=16, twin=0.15)
        K = rng.randint(1, 12)
        merges.clear()
        t, h = thresholds(B, K), thresholds_by_heap(B, K)
        assert (t.f, t.m) == (h.f, h.m), (B, K)
        for k in range(1, K + 1):
            assert t.least_degrees(k) == h.least_degrees(k), (B, k)
        for xs, ys, k, out in merges:
            assert k == K and 0 < len(ys) <= K and len(xs) <= K, (B, K, xs, ys)
            assert len(xs) < K or ys[0] < xs[-1], (B, K, xs, ys)
            assert out == sorted(xs + ys)[:K], (B, K, xs, ys)
        merged += len(merges)
    assert merged > 0
    # On the ladder, far fewer merges than the 2 * 1,001 steps of the two
    # folds round the second generator's cycles.
    merges.clear()
    thresholds(kernel_basis(WeightVector((1001, 1003, 1007))), 20)
    assert 0 < len(merges) < 400, len(merges)
    # A cycle's last node takes B with no merge: on the 1,001 cycles of
    # length 1 of (1001, 1003, 2002) a merge there made 7,007 in all.
    merges.clear()
    thresholds(kernel_basis(WeightVector((1001, 1003, 2002))), 20)
    assert len(merges) == 6006


def test_walk_lists_are_exact_size():
    # Every list the walk keeps, and every node map, holds no spare slot:
    # a list built by appends or by += would. list() sizes an odd length
    # one slot up, to the even count the allocator rounds to in any case,
    # so the sublattice's walk is taken at an even K, though not a
    # multiple of 4, the size [*range(...)] would round to.
    cases = [
        (kernel_basis(WeightVector((1001, 1003, 1007))), 20),
        (_scaled_kernel((13, 17, 29), (1, 6)), 18),
        (_scaled_kernel((13, 17, 29), (2, 4)), 18),
    ]
    for B, K in cases:
        t = thresholds(B, K)
        assert B.index in (1, 6, 8) and len(t.m) == K
        lists = [t._reached, *t._reached, *(m for _, m in t.atom_maps)]
        for xs in lists:
            assert sys.getsizeof(xs) == sys.getsizeof(xs[:]), (B, len(xs))
        assert any(len(xs) == K for xs in t._reached)


def test_walk_budget_admits_the_ladder_and_refuses_before_allocating():
    from genfrob.counting import MAX_WALK_ENTRIES

    assert MAX_WALK_ENTRIES >= 100003 * (50 + 6)  # (100003, 100019, 100043), K = 50
    assert MAX_WALK_ENTRIES >= 1000003 * (1 + 6)  # (1000003, 1000033, 1000037), K = 1
    assert MAX_WALK_ENTRIES >= 10007 * (400 + 6)  # (10007, 10009, 20014), K = 400
    assert MAX_WALK_ENTRIES < 7999999 * (1 + 6)  # (7999999, 8000001, 8000003), K = 1
    B = kernel_basis(WeightVector((2, 3)))
    k = MAX_WALK_ENTRIES // 2 - 5
    need = f"needs a_s * index * (k + 6) = {2 * (k + 6)} list entries"
    with pytest.raises(InputError, match=re.escape(need)):
        thresholds(B, k)
    assert kth_degrees(B, 2) == ((1, 7), (0, 6))


def test_flat_table_matches_the_row_by_row_table_cell_for_cell():
    # Kernels and sublattices of index 2-6 (one or two basis vectors
    # scaled, so Z/4 and Z/2 x Z/2 both occur) on 2 to 5 variables. Each
    # generator fills the table in blocks of a_i rows, so depths are
    # drawn both with max_degree + 1 a multiple of some a_i (a full last
    # block) and at random (mostly a partial one).
    rng = random.Random(2424)
    last_blocks = set()
    moduli = set()
    cases = 0
    while cases < 120:
        n = rng.randint(2, 5)
        a = tuple(rng.randint(1 if rng.random() < 0.2 else 2, 12) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        vecs = [list(v) for v in kernel_basis(WeightVector(a)).vectors]
        scales = [rng.randint(2, 6)] if rng.random() < 0.7 else [2, rng.choice((2, 3))]
        if rng.random() < 0.25:
            scales = []
        for i, m in zip(rng.sample(range(n - 1), min(len(scales), n - 1)), scales):
            vecs[i] = [m * x for x in vecs[i]]
        B = LatticeBasis(WeightVector(a), tuple(tuple(v) for v in vecs))
        if B.index > 6:
            continue
        if rng.random() < 0.5:
            depth = rng.choice(a) * rng.randint(1, 60 // max(a)) - 1
        else:
            depth = rng.randint(0, 60)
        for cap in (1, 2, 5, sys.maxsize):
            table = CountTable(B, depth, cap)
            rows = count_table_by_rows(B, depth, cap)
            for d, row in enumerate(rows):
                assert table.row(d) == row, (a, B.vectors, depth, cap, d)
                assert [table.cell(d, c) for c in range(B.index)] == row
                assert [table.count(cls) for cls, _ in table.classes_at(d)] == row
                assert [cnt for _, cnt in table.classes_at(d)] == row
        last_blocks.update((depth + 1) % ai == 0 for ai in a if ai <= depth)
        moduli.add(B.torsion_moduli)
        cases += 1
    assert last_blocks == {True, False}
    assert {(), (2,), (3,), (4,), (2, 2), (5,), (6,)} <= moduli, moduli


def test_table_budget_refuses_before_allocating(monkeypatch):
    from genfrob import counting

    assert counting.MAX_TABLE_CELLS >= 512_513  # verify -a 1001,1003,1007 --k-max 2
    monkeypatch.setattr(counting, "MAX_TABLE_CELLS", 1000)
    K = kernel_basis(WeightVector((13, 17, 29)))
    S = LatticeBasis(K.weight, (tuple(6 * x for x in K.vectors[0]), K.vectors[1]))
    for B, fits, over in ((K, 999, 100_000), (S, 165, 20_000)):
        cells = (over + 1) * B.index
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"\\* index = {cells} cells, over the budget of 1000"):
                CountTable(B, over, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cells, peak  # less than one pointer per cell
        table = CountTable(B, fits, 2)
        assert table.count(B.zero_class) == 1


def test_oracle_scan_lets_each_table_go_before_the_next():
    # The F_1 scan on (211, 223, 227) outgrows its table six times.
    # Holding the old table while the next one is built would show as a
    # peak well above the one table the basis keeps afterwards.
    B = kernel_basis(WeightVector((211, 223, 227)))
    tracemalloc.start()
    try:
        f1 = brute_force_frobenius(B, 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f1 == kth_degrees(B, 1)[0][0]
    assert peak <= 1.2 * kept, (peak, kept)


def test_shared_oracle_table_answers_as_fresh_tables_do():
    # The oracle readers share one table of exact counts per basis, grown
    # to the largest degree asked of it. A deep k = 1 request comes first,
    # then larger k at no greater depth; every answer must match the one
    # on a fresh basis.
    K = kernel_basis(WeightVector((7, 9, 11)))
    for vectors in (K.vectors, (K.vectors[0], tuple(3 * x for x in K.vectors[1]))):
        shared = LatticeBasis(K.weight, vectors)
        for read in (
            lambda B: lcm_generator_classes(B, 3),
            lambda B: module_poset(B, 3).labels,
            lambda B: brute_force_frobenius(B, 1),
            lambda B: brute_force_m(B, 4),
            lambda B: module_poset(B, 2).labels,
            lambda B: brute_force_frobenius(B, 3),
        ):
            assert read(shared) == read(LatticeBasis(K.weight, vectors)), vectors
