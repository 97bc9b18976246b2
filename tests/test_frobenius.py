import math
import random

import pytest

from genfrob import (
    InputError,
    LatticeBasis,
    WeightVector,
    brute_force_frobenius,
    brute_force_m,
    frobenius,
    kernel_basis,
    kth_degrees,
    m_value,
    sequence_report,
)

from .oracles import frobenius_by_enumeration


def test_first_frobenius_3_5_8():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert frobenius(B, 1) == 7
    assert brute_force_frobenius(B, 1) == 7


def test_third_frobenius_3_4_11():
    B = kernel_basis(WeightVector((3, 4, 11)))
    assert frobenius(B, 3) == 17
    assert brute_force_frobenius(B, 3) == 17


def test_two_variable_closed_form():
    # F_k = k*a*b - a - b and m_k = (k-1)*a*b. With two weights the
    # engine runs only its closed-form first generator, so this checks
    # that step apart from both walks.
    for a1, a2 in ((3, 5), (2, 7)):
        B = kernel_basis(WeightVector((a1, a2)))
        for k in range(1, 11):
            assert frobenius(B, k) == k * a1 * a2 - a1 - a2
            assert brute_force_frobenius(B, k) == k * a1 * a2 - a1 - a2
    rng = random.Random(2002)
    pairs = set()
    while len(pairs) < 100:
        a, b = rng.randint(1, 60), rng.randint(1, 60)
        if math.gcd(a, b) == 1:
            pairs.add((a, b))
    for a, b in sorted(pairs):
        K = rng.randint(1, 40)
        for w in ((a, b), (b, a)):
            f_values, m_values = kth_degrees(kernel_basis(WeightVector(w)), K)
            assert f_values == tuple(k * a * b - a - b for k in range(1, K + 1)), w
            assert m_values == tuple((k - 1) * a * b for k in range(1, K + 1)), w


def test_second_frobenius_3_5_8_derived():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert frobenius(B, 2) == 12
    assert frobenius_by_enumeration((3, 5, 8), 2, 40) == 12


def test_sixth_frobenius_3_5_8_derived():
    B = kernel_basis(WeightVector((3, 5, 8)))
    assert frobenius(B, 6) == 28
    assert frobenius_by_enumeration((3, 5, 8), 6, 60) == 28


def test_frobenius_negative_one_when_everything_covered():
    B = kernel_basis(WeightVector((1, 1)))
    assert frobenius(B, 1) == -1
    assert brute_force_frobenius(B, 1) == -1
    assert frobenius(B, 2) == 0


def test_frobenius_rejects_bad_k():
    B = kernel_basis(WeightVector((3, 5, 8)))
    with pytest.raises(InputError):
        frobenius(B, 0)
    with pytest.raises(InputError):
        brute_force_frobenius(B, 0)


def test_frobenius_takes_only_the_basis_and_k():
    B = kernel_basis(WeightVector((3, 5, 8)))
    with pytest.raises(TypeError):
        frobenius(B, 2, degree_cap=5)
    assert frobenius(B, 2) == frobenius(B, k=2) == 12


def test_sequence_report_3_5():
    B = kernel_basis(WeightVector((3, 5)))
    rep = sequence_report(B, 4)
    assert rep.f_values == (7, 22, 37, 52)
    assert set(rep.f_diffs) == {15}
    assert rep.dimension == 1
    assert all(rep.bound_checks.values())


def test_sequence_report_3_5_8():
    B = kernel_basis(WeightVector((3, 5, 8)))
    rep = sequence_report(B, 6)
    assert rep.f_values == (7, 12, 17, 22, 25, 28)
    assert rep.m_values == (0, 8, 16, 21, 24, 29)
    assert rep.b_values == (7, 4, 1, 1, 1, -1)
    assert rep.f_diffs == (5, 5, 5, 3, 3)
    assert rep.m_diffs == (8, 8, 5, 3, 5)
    assert rep.dimension == 2
    assert all(d <= 8 for d in rep.m_diffs)
    assert all(rep.bound_checks.values())


def test_sequence_report_requires_k_max_two():
    B = kernel_basis(WeightVector((3, 5)))
    with pytest.raises(InputError):
        sequence_report(B, 1)


def _random_weights(rng, n):
    while True:
        a = [rng.randint(2, 12) for _ in range(n)]
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
    m = rng.randint(1, 3)
    if n == 2:
        return LatticeBasis(w, (tuple(m * x for x in K.vectors[0]),))
    v1, v2 = K.vectors
    t = rng.randint(-2, 2)
    u1 = tuple(x + t * y for x, y in zip(v1, v2))
    u2 = tuple(m * y for y in v2)
    if rng.random() < 0.5:
        u1, u2 = u2, u1
    return LatticeBasis(w, (u1, u2))


def test_engine_matches_counting_oracle():
    # case = one (basis, k): F_k and m_k against the table-scan oracles,
    # and the one-run values against a run per k
    rng = random.Random(3003)
    k_max = 6
    cases = 0
    kinds = set()
    while cases < 300:
        B = _random_basis(rng)
        kinds.add((B.n, B.index > 1, 1 in B.weight.a))
        f_all, m_all = kth_degrees(B, k_max)
        for k in range(1, k_max + 1):
            f_k, m_k = kth_degrees(B, k)
            assert (f_k[-1], m_k[-1]) == (f_all[k - 1], m_all[k - 1])
            assert f_all[k - 1] == brute_force_frobenius(B, k), (B, k)
            assert m_all[k - 1] == brute_force_m(B, k), (B, k)
            cases += 1
    assert {(2, False, True), (3, True, False), (3, True, True), (4, False, False)} <= kinds


def test_engine_large_weights_match_golden_values():
    B = kernel_basis(WeightVector((1001, 1003, 1007)))
    assert frobenius(B, 1) == 335333
    f_values, m_values = kth_degrees(B, 20)
    assert f_values[0] == 335333
    assert (f_values[-1], m_values[-1]) == (373371, 57171)
    assert m_value(B, 20) == 57171


def test_engine_ladder_instance_matches_golden_values():
    # The ROADMAP ladder's top instance; the heap walk gave the same values.
    B = kernel_basis(WeightVector((10007, 10009, 10037, 10039, 10061)))
    f_values, m_values = kth_degrees(B, 100)
    assert (f_values[-1], m_values[-1]) == (3862890, 270823)


def test_kth_degrees_rejects_bad_k():
    B = kernel_basis(WeightVector((3, 5, 8)))
    with pytest.raises(InputError):
        kth_degrees(B, 0)
    with pytest.raises(InputError):
        m_value(B, 0)
    with pytest.raises(InputError):
        brute_force_m(B, 0)
