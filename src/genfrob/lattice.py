"""Exact integer lattice primitives.

Weighted kernel lattices, finite-index sublattice bases, membership,
and canonical quotient-class labels derived from the Smith normal form
of the basis matrix.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd
from operator import add, index, mul, neg, sub


class InputError(ValueError):
    """Invalid user-supplied weights, basis vectors, or points."""


def dot(u, v):
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(u):
    return tuple(map(neg, u))


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _integers(entries, what: str) -> tuple[int, ...]:
    """The entries as ints; InputError when one is not an integer, such as 3.7, 8.0 or "3"."""
    entries = tuple(entries)
    try:
        return tuple(map(index, entries))
    except TypeError:
        raise InputError(f"{what} {entries} must have integer entries") from None


def _read_only(self, name, value):
    """``__setattr__`` of the records that keep a ``__dict__``: assignment is refused."""
    raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")


class _Validated:
    """Base of the records whose ``__new__`` validates: ``_make``, and so
    ``_replace``, build the record through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class WeightVector(_Validated, namedtuple("WeightVector", "a")):
    """Positive integer weights (a1, ..., an) with gcd 1 and n >= 2."""

    __slots__ = ()

    def __new__(cls, a):
        a = _integers(a, "weights")
        if len(a) < 2:
            raise InputError("need at least two weights")
        if any(x < 1 for x in a):
            raise InputError("weights must be positive integers")
        g = 0
        for x in a:
            g = gcd(g, x)
        if g != 1:
            raise InputError(f"weights must be coprime overall, gcd is {g}")
        return super().__new__(cls, a)

    @property
    def n(self) -> int:
        return len(self.a)

    def degree(self, p) -> int:
        """Weighted degree a . p of an integer point."""
        if len(p) != self.n:
            raise InputError(f"point has dimension {len(p)}, expected {self.n}")
        return dot(self.a, p)


class QuotientClass(namedtuple("QuotientClass", "degree torsion")):
    """Canonical label of an element of Z^n modulo a sublattice.

    Two points get equal labels exactly when their difference lies in
    the sublattice; the degree field is the weighted degree, the torsion
    field the residues singled out by the Smith normal form. Labels
    order by (degree, torsion).
    """

    __slots__ = ()


def _smith_diagonal(mat):
    """Diagonalize an integer matrix with unimodular row and column ops.

    Returns (diag, rows) where diag holds the nonnegative invariant
    factors (each dividing the next) and rows is the accumulated left
    transform R, so that R * mat * C is the diagonal matrix for some
    unimodular C that is not tracked.
    """
    nrow = len(mat)
    ncol = len(mat[0]) if nrow else 0
    A = [list(row) for row in mat]
    R = [[int(i == j) for j in range(nrow)] for i in range(nrow)]

    def step(a, b):
        # A unimodular (x, y, u, v) with u * a + v * b = 0: subtract
        # b // a times a when a divides b, else the xgcd step.
        if a != 0 and b % a == 0:
            return 1, 0, -(b // a), 1
        g, x, y = xgcd(a, b)
        return x, y, -(b // g), a // g

    def row_op(i1, i2):
        # Zero A[i2][t] against the pivot A[i1][t], mirroring on R.
        if A[i2][t]:
            x, y, u, v = step(A[i1][t], A[i2][t])
            for M in (A, R):
                r1, r2 = M[i1], M[i2]
                M[i1] = [x * p + y * q for p, q in zip(r1, r2)]
                M[i2] = [u * p + v * q for p, q in zip(r1, r2)]

    def col_op(j1, j2):
        if A[t][j2]:
            x, y, u, v = step(A[t][j1], A[t][j2])
            for row in A:
                p, q = row[j1], row[j2]
                row[j1], row[j2] = x * p + y * q, u * p + v * q

    diag = []
    for t in range(min(nrow, ncol)):
        # Bring a nonzero entry of the trailing submatrix to (t, t).
        pivot = None
        for i in range(t, nrow):
            for j in range(t, ncol):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            diag.extend(0 for _ in range(t, min(nrow, ncol)))
            break
        pi, pj = pivot
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            R[t], R[pi] = R[pi], R[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, nrow):
                row_op(t, i)
            for j in range(t + 1, ncol):
                col_op(t, j)
            if all(A[i][t] == 0 for i in range(t + 1, nrow)) and all(
                A[t][j] == 0 for j in range(t + 1, ncol)
            ):
                # Pivot must divide the rest of the submatrix for the
                # invariant-factor chain; fold a bad row in and retry.
                bad = next(
                    (
                        (i, j)
                        for i in range(t + 1, nrow)
                        for j in range(t + 1, ncol)
                        if A[i][j] % A[t][t] != 0
                    ),
                    None,
                )
                if bad is None:
                    break
                i = bad[0]
                A[t] = [x + y for x, y in zip(A[t], A[i])]
                R[t] = [x + y for x, y in zip(R[t], R[i])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            R[t] = [-x for x in R[t]]
        diag.append(A[t][t])
    return diag, [tuple(row) for row in R]


class LatticeBasis:
    """Basis of a finite-index sublattice of the weighted kernel lattice.

    Holds n - 1 independent integer vectors, all of weighted degree zero.
    The Smith normal form of the basis matrix is computed once and drives
    quotient labels, membership, and the sublattice index. The coding of
    the torsion tuples as ints 0..index - 1 and the unit classes [e_i]
    are worked out on first use and shared by every layer.

    A plain class rather than a tuple, so that it can be weakly
    referenced: equality, hashing and pickling go by the two fields
    ``weight`` and ``vectors`` alone, and no attribute can be assigned.
    """

    def __init__(self, weight: WeightVector, vectors):
        vectors = tuple(_integers(v, "basis vector") for v in vectors)
        vars(self).update(weight=weight, vectors=vectors)
        # perfbench/layertrace.py counts and times basis builds by wrapping
        # __post_init__ on the class, so every build goes through it.
        self.__post_init__()

    def __post_init__(self):
        n = self.weight.n
        vecs = self.vectors
        if len(vecs) != n - 1:
            raise InputError(f"expected {n - 1} basis vectors, got {len(vecs)}")
        for v in vecs:
            if len(v) != n:
                raise InputError(f"basis vector {v} has wrong dimension")
            if dot(self.weight.a, v) != 0:
                raise InputError(f"basis vector {v} has nonzero weighted degree")
        # Columns of the matrix are the basis vectors.
        mat = [[vecs[j][i] for j in range(n - 1)] for i in range(n)]
        diag, rows = _smith_diagonal(mat)
        if any(d == 0 for d in diag):
            raise InputError("basis vectors are not linearly independent")
        index = 1
        moduli = []
        torsion_rows = []
        for d, row in zip(diag, rows):
            index *= d
            if d > 1:
                moduli.append(d)
                torsion_rows.append(row)
        # _memo holds the invariants the counting layer works out once per
        # basis object: the last residue walk and the oracle counting
        # table. Not a field, so two equal bases stay equal and hash alike.
        vars(self).update(
            _moduli=tuple(moduli), _torsion_rows=tuple(torsion_rows), _index=index, _memo={}
        )

    __setattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.weight, self.vectors) == (other.weight, other.vectors)

    def __hash__(self):
        return hash((self.weight, self.vectors))

    def __repr__(self):
        return f"LatticeBasis(weight={self.weight!r}, vectors={self.vectors!r})"

    def __reduce__(self):
        return LatticeBasis, (self.weight, self.vectors)

    @property
    def n(self) -> int:
        return self.weight.n

    @property
    def index(self) -> int:
        return self._index

    @property
    def torsion_moduli(self) -> tuple[int, ...]:
        return self._moduli

    def torsion(self, p) -> tuple[int, ...]:
        return tuple(
            dot(row, p) % d for row, d in zip(self._torsion_rows, self._moduli)
        )

    def label(self, p) -> QuotientClass:
        if len(p) != self.n:
            raise InputError(f"point has dimension {len(p)}, expected {self.n}")
        return QuotientClass(dot(self.weight.a, p), self.torsion(p))

    @property
    def zero_class(self) -> QuotientClass:
        return QuotientClass(0, (0,) * len(self._moduli))

    def contains(self, v) -> bool:
        if len(v) != self.n:
            raise InputError(f"point has dimension {len(v)}, expected {self.n}")
        return dot(self.weight.a, v) == 0 and not any(self.torsion(v))

    def class_add(self, c: QuotientClass, d: QuotientClass) -> QuotientClass:
        tor = tuple((x + y) % m for x, y, m in zip(c.torsion, d.torsion, self._moduli))
        return QuotientClass(c.degree + d.degree, tor)

    def class_sub(self, c: QuotientClass, d: QuotientClass) -> QuotientClass:
        tor = tuple((x - y) % m for x, y, m in zip(c.torsion, d.torsion, self._moduli))
        return QuotientClass(c.degree - d.degree, tor)

    @cached_property
    def torsions(self) -> tuple[tuple[int, ...], ...]:
        """All torsion tuples, one per coset of the kernel lattice, in code
        order: mixed radix over the moduli, so also lexicographic."""
        out = [()]
        for m in self._moduli:
            out = [t + (r,) for t in out for r in range(m)]
        return tuple(out)

    @cached_property
    def torsion_code(self) -> dict[tuple[int, ...], int]:
        """Torsion tuple -> its position in ``torsions``."""
        return {t: i for i, t in enumerate(self.torsions)}

    @cached_property
    def units(self) -> tuple[QuotientClass, ...]:
        """The classes [e_1], ..., [e_n] of the unit vectors."""
        n = self.n
        return tuple(self.label(tuple(int(j == i) for j in range(n))) for i in range(n))

    def torsion_shift(self, delta) -> list[int]:
        """Codes of t + delta for every torsion t, in code order."""
        code = self.torsion_code
        return [
            code[tuple((x + y) % m for x, y, m in zip(t, delta, self._moduli))]
            for t in self.torsions
        ]


def kernel_basis(a: WeightVector) -> LatticeBasis:
    """Basis of the full weighted kernel lattice, the integer points
    orthogonal to the weights.

    Column-reduces the weight row to (1, 0, ..., 0) by unimodular
    operations; the remaining columns of the transform span the kernel.
    """
    n = a.n
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    row = list(a.a)
    for j in range(1, n):
        g, x, y = xgcd(row[0], row[j])
        c0, cj = row[0] // g, row[j] // g
        for i in range(n):
            p, q = V[i][0], V[i][j]
            V[i][0] = x * p + y * q
            V[i][j] = -cj * p + c0 * q
        row[0], row[j] = g, 0
    assert row[0] == 1
    vectors = tuple(tuple(V[i][j] for i in range(n)) for j in range(1, n))
    return LatticeBasis(a, vectors)


def member(basis: LatticeBasis, v) -> bool:
    """True when v is an integer combination of the basis vectors."""
    return basis.contains(v)


def class_label(basis: LatticeBasis, p) -> QuotientClass:
    """Canonical label of p in the quotient by the sublattice."""
    return basis.label(p)


def sublattice_index(basis: LatticeBasis) -> int:
    """Index of the spanned sublattice inside the full kernel lattice."""
    return basis.index
