import random
from itertools import product

import pytest

from genfrob import (
    InputError,
    LatticeBasis,
    QuotientClass,
    WeightVector,
    class_label,
    kernel_basis,
    member,
    sublattice_index,
)


def test_kernel_basis_3_4_11_matches_known_basis():
    B = kernel_basis(WeightVector((3, 4, 11)))
    assert sublattice_index(B) == 1
    known = LatticeBasis(WeightVector((3, 4, 11)), ((1, 2, -1), (4, -3, 0)))
    for v in known.vectors:
        assert member(B, v)
    for v in B.vectors:
        assert member(known, v)


def test_kernel_basis_two_weights():
    B = kernel_basis(WeightVector((1, 1)))
    (v,) = B.vectors
    assert v in ((1, -1), (-1, 1))


def test_kernel_basis_3_5_8():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert member(B, (1, 1, -1))
    assert member(B, (5, -3, 0))
    assert sublattice_index(B) == 1
    for v in B.vectors:
        assert B.weight.degree(v) == 0


def test_member_examples():
    B = kernel_basis(WeightVector((3, 4, 11)))
    assert member(B, (1, 2, -1))
    assert not member(B, (1, 0, 0))
    assert member(B, (5, -1, -1))


def test_member_dimension_mismatch():
    B = kernel_basis(WeightVector((3, 4, 11)))
    with pytest.raises(InputError):
        member(B, (1, 0))


def test_class_label_zero_class():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert class_label(B, (1, 1, -1)) == B.zero_class
    assert class_label(B, (0, 0, 0)) == B.zero_class


def test_class_label_saturated_kernel_torsion_free():
    B = kernel_basis(WeightVector((3, 5, 8)))
    c = class_label(B, (1, 0, 0))
    assert c.degree == 3
    assert c.torsion == ()


def test_class_label_sublattice_torsion():
    H = LatticeBasis(WeightVector((1, 1)), ((2, -2),))
    c0 = class_label(H, (0, 0))
    c1 = class_label(H, (1, -1))
    assert c0.degree == c1.degree == 0
    assert c0 != c1
    assert not member(H, (1, -1))


def test_sublattice_index_examples():
    H = LatticeBasis(WeightVector((1, 1)), ((2, -2),))
    assert sublattice_index(H) == 2
    known = LatticeBasis(WeightVector((3, 4, 11)), ((1, 2, -1), (4, -3, 0)))
    assert sublattice_index(known) == 1


def test_invalid_weights_rejected():
    with pytest.raises(InputError):
        WeightVector((2, 4))
    with pytest.raises(InputError):
        WeightVector((5,))
    with pytest.raises(InputError):
        WeightVector((3, 0, 5))
    with pytest.raises(InputError):
        WeightVector((3, -1, 5))


def test_invalid_basis_rejected():
    w = WeightVector((3, 5, 8))
    with pytest.raises(InputError):
        LatticeBasis(w, ((1, 1, -1),))  # wrong count
    with pytest.raises(InputError):
        LatticeBasis(w, ((1, 0, 0), (0, 1, 0)))  # nonzero degree
    with pytest.raises(InputError):
        LatticeBasis(w, ((1, 1, -1), (2, 2, -2)))  # dependent


def test_non_integer_entries_rejected():
    # int() would truncate 3.7 to 3 and -5.9 to -5: a different lattice
    for weights in ((3.7, 5, 8), (3, 5, 8.0), ("3", 5, 8)):
        with pytest.raises(InputError, match="integer"):
            WeightVector(weights)
    w = WeightVector((3, 5, 8))
    for bad in (-5.9, -5.0, "-5"):
        with pytest.raises(InputError, match="integer"):
            LatticeBasis(w, ((bad, 3, 0), (1, 1, -1)))


def test_member_iff_zero_class_random():
    rng = random.Random(2024)
    B = kernel_basis(WeightVector((3, 4, 11)))
    for _ in range(200):
        v = tuple(rng.randint(-6, 6) for _ in range(3))
        assert member(B, v) == (class_label(B, v) == B.zero_class)


def test_kernel_basis_saturated_random():
    rng = random.Random(7)
    B = kernel_basis(WeightVector((3, 5, 8)))
    # points with a.v = 0 built directly: v = (5s + 8t, -3s, -3t) has
    # degree 15s + 24t - 15s - 24t = 0
    for _ in range(100):
        s, t = rng.randint(-5, 5), rng.randint(-5, 5)
        v = (5 * s + 8 * t, -3 * s, -3 * t)
        assert B.weight.degree(v) == 0
        assert member(B, v)


def test_class_label_respects_addition():
    rng = random.Random(99)
    H = LatticeBasis(WeightVector((2, 3, 5)), ((1, 1, -1), (4, -1, -1)))
    for _ in range(100):
        p = tuple(rng.randint(-5, 5) for _ in range(3))
        q = tuple(rng.randint(-5, 5) for _ in range(3))
        s = tuple(x + y for x, y in zip(p, q))
        assert class_label(H, s) == H.class_add(class_label(H, p), class_label(H, q))


def test_index_multiplies_under_scaling():
    w = WeightVector((3, 5, 8))
    K = kernel_basis(w)
    v1, v2 = K.vectors
    H = LatticeBasis(w, (v1, tuple(3 * x for x in v2)))
    assert sublattice_index(H) == 3


def test_torsion_code_and_unit_classes_of_a_two_modulus_sublattice():
    K = kernel_basis(WeightVector((3, 5, 8)))
    B = LatticeBasis(K.weight, (tuple(2 * x for x in K.vectors[0]),
                                tuple(6 * x for x in K.vectors[1])))
    moduli = B.torsion_moduli
    assert len(moduli) == 2
    assert B.torsions == tuple(product(*map(range, moduli)))
    assert len(B.torsions) == sublattice_index(B)
    assert [B.torsion_code[t] for t in B.torsions] == list(range(len(B.torsions)))
    assert B.units == tuple(class_label(B, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for delta in ((1, 5), (-1, 7), (0, 0)):
        shift = B.torsion_shift(delta)
        for t in B.torsions:
            moved = tuple((x + y) % m for x, y, m in zip(t, delta, moduli))
            assert shift[B.torsion_code[t]] == B.torsion_code[moved]
    # Classes compare and sort by (degree, torsion) and keep their repr.
    c = QuotientClass(3, (1, 0))
    assert repr(c) == "QuotientClass(degree=3, torsion=(1, 0))"
    assert c == QuotientClass(3, (1, 0)) and hash(c) == hash(QuotientClass(3, (1, 0)))
    classes = [QuotientClass(d, t) for d in (4, -1, 3) for t in reversed(B.torsions)]
    assert sorted(classes) == sorted(classes, key=lambda x: (x.degree, x.torsion))
