import pytest

from genfrob import (
    InputError,
    LatticeBasis,
    QuotientClass,
    WeightVector,
    finiteness_report,
    kernel_basis,
    leq,
    max_antichain_size,
    minimal_generators,
    module_poset,
    poset_to_dot,
    structure_poset,
)

KNOWN_HASSE_EDGES = {(0, 3), (3, 6), (0, 5), (1, 4), (4, 7), (1, 6), (2, 5), (2, 7)}


def test_structure_poset_3_5_8_matches_known_diagram():
    sp = structure_poset(kernel_basis(WeightVector((3, 5, 8))))
    assert [c.degree for c in sp.elements] == list(range(8))
    assert {(u.degree, v.degree) for u, v in sp.covers} == KNOWN_HASSE_EDGES


def test_structure_poset_2_3_two_incomparable_elements():
    sp = structure_poset(kernel_basis(WeightVector((2, 3))))
    assert [c.degree for c in sp.elements] == [0, 1]
    assert sp.covers == ()


def test_leq_examples():
    sp = structure_poset(kernel_basis(WeightVector((3, 5, 8))))
    zero = QuotientClass(0, ())
    assert leq(sp, zero, QuotientClass(3, ()))
    assert leq(sp, QuotientClass(4, ()), QuotientClass(4, ()))
    assert not leq(sp, zero, QuotientClass(1, ()))


def test_leq_rejects_classes_outside_window():
    sp = structure_poset(kernel_basis(WeightVector((3, 5, 8))))
    with pytest.raises(InputError):
        leq(sp, QuotientClass(0, ()), QuotientClass(9, ()))


def test_leq_window_on_a_proper_sublattice():
    w = WeightVector((2, 3, 5))
    K = kernel_basis(w)
    H = LatticeBasis(w, (K.vectors[0], tuple(3 * x for x in K.vectors[1])))
    sp = structure_poset(H)
    assert (sp.f1, H.torsion_moduli) == (11, (3,))
    assert all(leq(sp, c, c) for c in sp.elements)
    zero = QuotientClass(0, (0,))
    # Invalid torsion tuples inside the degree window, then degrees outside it.
    outside = [QuotientClass(5, t) for t in ((3,), (-1,), (), (0, 0))]
    outside += [QuotientClass(-1, (0,)), QuotientClass(12, (0,))]
    for c in outside:
        for b, a in ((zero, c), (c, zero)):
            with pytest.raises(InputError):
                leq(sp, b, a)


def test_leq_rejects_every_class_when_f1_is_negative():
    for w in ((1, 2), (3, 1, 7)):
        sp = structure_poset(kernel_basis(WeightVector(w)))
        assert sp.f1 == -1
        for d in (-1, 0, 1):
            c = QuotientClass(d, ())
            with pytest.raises(InputError):
                leq(sp, c, c)


def test_structure_poset_empty_when_f1_negative():
    sp = structure_poset(kernel_basis(WeightVector((1, 2))))
    assert sp.f1 == -1
    assert sp.elements == ()


def test_module_poset_labels_3_5_8():
    B = kernel_basis(WeightVector((3, 5, 8)))
    expected = {
        1: {0, 3, 5, 6},
        2: {0, 3, 5, 6, 7},
        3: {0, 2, 3, 4, 5, 6, 7},
        4: {0, 2, 3, 4, 5, 6, 7},
        5: {0, 2, 3, 4, 5, 6, 7},
        6: set(range(8)),
    }
    for k, labels in expected.items():
        mp = module_poset(B, k)
        assert {c.degree for c in mp.labels} == labels


def test_module_poset_k2_minimal_elements_match_generators():
    B = kernel_basis(WeightVector((3, 5, 8)))
    mp = module_poset(B, 2)
    assert {c.degree for c in mp.minimal_elements} == {0, 7}
    gens = minimal_generators(B, 2)
    assert len(gens.generators) == len(mp.minimal_elements)


def test_module_poset_k6_is_full():
    B = kernel_basis(WeightVector((3, 5, 8)))
    sp = structure_poset(B)
    mp = module_poset(B, 6)
    assert mp.labels == frozenset(sp.elements)


def test_minimal_elements_match_generator_orbits():
    for a, ks in (((3, 5, 8), (1, 2, 3, 4)), ((3, 4, 11), (1, 2, 3, 4))):
        B = kernel_basis(WeightVector(a))
        for k in ks:
            assert len(module_poset(B, k).minimal_elements) == len(
                minimal_generators(B, k).generators
            )


def test_equal_degree_classes_incomparable():
    w = WeightVector((2, 3, 5))
    H = LatticeBasis(w, ((1, 1, -1), (8, -2, -2)))
    sp = structure_poset(H)
    for x in sp.elements:
        for y in sp.elements:
            if x != y and x.degree == y.degree:
                assert not sp.leq(x, y)
                assert not sp.leq(y, x)


def test_sublattice_poset_size():
    w = WeightVector((2, 3, 5))
    H = LatticeBasis(w, ((1, 1, -1), (8, -2, -2)))
    sp = structure_poset(H)
    assert len(sp.elements) == H.index * (sp.f1 + 1)


def test_finiteness_report_3_5_8():
    rep = finiteness_report(kernel_basis(WeightVector((3, 5, 8))), 6)
    assert len(rep.distinct_label_sets) == 4
    assert rep.b_values == (7, 4, 1, 1, 1, -1)
    assert rep.full_poset_ks == (6,)


def test_finiteness_report_two_variable():
    rep = finiteness_report(kernel_basis(WeightVector((3, 5))), 5)
    assert len(rep.distinct_label_sets) == 1
    assert rep.b_values == (7,) * 5


def test_antichain_bound_on_generator_count():
    for a in ((3, 5, 8), (3, 4, 11)):
        B = kernel_basis(WeightVector(a))
        sp = structure_poset(B)
        bound = max_antichain_size(sp)
        for k in (1, 2, 3, 4):
            assert len(minimal_generators(B, k).generators) <= bound


def test_module_posets_label_sets_determine_relations():
    # equal label sets induce identical cover relations
    B = kernel_basis(WeightVector((3, 5, 8)))
    seen = {}
    for k in range(1, 7):
        mp = module_poset(B, k)
        if mp.labels in seen:
            assert seen[mp.labels] == mp.covers
        else:
            seen[mp.labels] = mp.covers


def test_b_values_agree_across_reports():
    from genfrob import sequence_report

    for a in ((3, 5, 8), (3, 4, 11)):
        B = kernel_basis(WeightVector(a))
        fin = finiteness_report(B, 5)
        seq = sequence_report(B, 5)
        assert fin.b_values == seq.b_values


def test_poset_to_dot():
    sp = structure_poset(kernel_basis(WeightVector((3, 5, 8))))
    dot = poset_to_dot(sp)
    assert dot.startswith("digraph hasse {")
    assert '"0" -> "3";' in dot
    assert dot.count("->") == 8


def test_max_antichain_size_matches_exhaustive_search():
    # case = one small structure poset, kernel or sublattice
    import math
    import random

    from .oracles import max_antichain_by_search

    rng = random.Random(6006)
    cases = 0
    while cases < 60:
        a = tuple(rng.randint(2, 9) for _ in range(rng.choice((2, 3, 3))))
        if math.gcd(*a) != 1:
            continue
        B = kernel_basis(WeightVector(a))
        if len(a) == 3 and rng.random() < 0.5:
            v1, v2 = B.vectors
            B = LatticeBasis(B.weight, (v1, tuple(2 * x for x in v2)))
        sp = structure_poset(B)
        if not 0 < len(sp.elements) <= 30:
            continue
        less = lambda x, y: x != y and sp.leq(x, y)  # noqa: E731
        assert max_antichain_size(sp) == max_antichain_by_search(sp.elements, less), (a, B.vectors)
        cases += 1


def test_max_antichain_size_known_values():
    # (3,5,8): {0, 1, 2} is an antichain, and the chains 0<3<6, 1<4<7
    # and 2<5 cover the poset
    assert max_antichain_size(structure_poset(kernel_basis(WeightVector((3, 5, 8))))) == 3
    assert max_antichain_size(structure_poset(kernel_basis(WeightVector((2, 3))))) == 2
    assert max_antichain_size(structure_poset(kernel_basis(WeightVector((1, 2))))) == 0


def test_module_poset_builds_its_covers_on_first_read():
    B = kernel_basis(WeightVector((3, 5, 8)))
    mp, again = module_poset(B, 3), module_poset(B, 3)
    assert "covers" not in vars(mp)
    covers = mp.covers
    assert mp.covers is covers and "covers" in vars(mp)
    assert covers and all(v in mp.labels for u, v in covers)
    # Covers are derived from the labels, so they take no part in equality.
    assert mp == again and hash(mp) == hash(again) and "covers" not in vars(again)
    assert again.covers == covers


def test_module_poset_node_vector_matches_the_class_by_class_oracle():
    # case = one basis, kernel or sublattice of index 2-3 on 2-4
    # variables: for k = 1..4 the labels, minimal elements and witnesses
    # read from the node vector against the construction class by class,
    # the generator test on node maps against at_least on class
    # differences, and the finiteness report against the label sets
    import math
    import random

    from .oracles import generator_classes_by_class_tests, module_poset_by_classes

    rng = random.Random(2020)
    kinds = set()
    cases = 0
    while cases < 150:
        n = rng.randint(2, 4)
        a = tuple(rng.randint(1 if rng.random() < 0.2 else 2, 12) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        vecs = [list(v) for v in kernel_basis(WeightVector(a)).vectors]
        index = rng.randint(1, 3)
        i = rng.randrange(n - 1)
        vecs[i] = [index * x for x in vecs[i]]
        B = LatticeBasis(WeightVector(a), tuple(map(tuple, vecs)))
        f1 = minimal_generators(B, 1).f_1
        window = frozenset(QuotientClass(d, t) for d in range(f1 + 1) for t in B.torsions)
        label_sets = []
        for k in range(1, 5):
            mp = module_poset(B, k)
            labels, minimal, witnesses = module_poset_by_classes(B, k)
            assert mp.labels == labels, (a, B.vectors, k)
            assert mp.minimal_elements == minimal, (a, B.vectors, k)
            assert mp.min_degree_classes == witnesses, (a, B.vectors, k)
            classes = sorted(minimal_generators(B, k).classes)
            assert classes == generator_classes_by_class_tests(B, k), (a, B.vectors, k)
            label_sets.append(labels)
        rep = finiteness_report(B, 4)
        assert rep.distinct_label_sets == tuple(dict.fromkeys(label_sets)), (a, B.vectors)
        full = tuple(k for k, labels in enumerate(label_sets, start=1) if labels == window)
        assert rep.full_poset_ks == full, (a, B.vectors)
        kinds.add((n, B.index, f1 < 0))
        cases += 1
    assert {(n, i) for n, i, _ in kinds} == {(n, i) for n in (2, 3, 4) for i in (1, 2, 3)}
    assert any(empty for *_, empty in kinds)
