"""Property tests of quotient labels and of the short start basis of
the ideal layer, against rational span membership."""
import math

import pytest

from genfrob import LatticeBasis, WeightVector, class_label, kernel_basis, sublattice_index
from genfrob.ideal import _short_vectors

from .oracles import in_span

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _combination(coeffs, vectors, n):
    return [sum(c * v[t] for c, v in zip(coeffs, vectors)) for t in range(n)]


@st.composite
def basis_and_points(draw):
    """A sublattice H of the kernel K with quotient K/H = Z/d_1 + ... ,
    index d_1 d_2 ... <= 50, a point p and a point q = p + h + e with h
    in H and e in K or anywhere.

    H_i = d_i (U K)_i for an upper unitriangular U, so K/H is not
    cyclic whenever two d_i share a factor.
    """
    n = draw(st.integers(2, 4))
    a = draw(
        st.lists(st.integers(1, 12), min_size=n, max_size=n).filter(
            lambda w: math.gcd(*w) == 1
        )
    )
    K = kernel_basis(WeightVector(tuple(a))).vectors
    room = 50
    rows = []
    for i in range(n - 1):
        d = draw(st.integers(1, room))
        room //= d
        row = [d * draw(st.integers(-3, 3)) if j > i else 0 for j in range(n - 1)]
        row[i] = d
        rows.append(row)
    H = LatticeBasis(WeightVector(tuple(a)), tuple(tuple(_combination(r, K, n)) for r in rows))
    small = st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)
    point = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    p = draw(point)
    h = _combination(draw(small), H.vectors, n)
    e = draw(st.one_of(small.map(lambda c: _combination(c, K, n)), point))
    return H, tuple(p), tuple(x + y + z for x, y, z in zip(p, h, e))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(basis_and_points())
def test_equal_labels_iff_difference_in_span(case):
    H, p, q = case
    assert 1 <= sublattice_index(H) <= 50
    diff = tuple(x - y for x, y in zip(p, q))
    assert (class_label(H, p) == class_label(H, q)) == in_span(H.vectors, diff)


@st.composite
def long_bases(draw):
    """A sublattice basis as above, made longer by unimodular steps
    b_i += c b_j."""
    H = draw(basis_and_points())[0]
    vecs = [list(v) for v in H.vectors]
    if len(vecs) > 1:
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.permutations(range(len(vecs))))[:2]
            c = draw(st.integers(-40, 40))
            vecs[i] = [x + c * y for x, y in zip(vecs[i], vecs[j])]
    return LatticeBasis(H.weight, tuple(tuple(v) for v in vecs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(long_bases())
def test_short_start_basis_spans_the_same_lattice(H):
    short = _short_vectors(H.vectors)
    assert len(short) == len(H.vectors)
    assert all(H.contains(v) for v in short)
    assert all(in_span(short, v) for v in H.vectors)
    assert sum(x * x for v in short for x in v) <= sum(x * x for v in H.vectors for x in v)
