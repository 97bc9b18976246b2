"""Generalised Frobenius numbers and sequence analytics.

F_k is the largest weighted degree at which some quotient class still
has fewer than k nonnegative representatives. ``frobenius`` and
``sequence_report`` read F_k and m_k off the residue-graph engine
``counting.kth_degrees``; ``brute_force_frobenius`` and ``brute_force_m``
are the independent oracles, sharing no code with the engine: one scan
each of the least or the greatest count per degree of the basis's
oracle table of exact counts (``_table_past``), which the table works
out once (``CountTable._extremes``) for every k.
"""
from __future__ import annotations

from collections import namedtuple

from .counting import _oracle_table, kth_degrees, m_value  # noqa: F401  (re-exported)
from .lattice import InputError, LatticeBasis


def _table_past(basis: LatticeBasis, k: int):
    """The basis's oracle table once every class in its top a_1 degrees has
    count >= k, starting from its table or one of a_1 rows; a shallower
    table goes before one of twice the rows is asked for.

    Counts are monotone under adding the first generator:
    count(c, d) >= count(c - [e1], d - a1). So a_1 consecutive degrees
    with every class at count >= k are followed by no class below k, and
    F_k and m_k <= F_k + 1 both lie below them. The test reads the
    table's least count per degree, worked out once per table.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    a1 = basis.weight.a[0]
    rows = a1
    while True:
        table = _oracle_table(basis, rows - 1)
        top = table.max_degree
        if min(table._extremes[0][top - a1 + 1:top + 1]) >= k:
            return table
        rows = 2 * (top + 1)
        del table  # let the shared table go before it is rebuilt deeper


def brute_force_frobenius(basis: LatticeBasis, k: int) -> int:
    """Independent oracle for F_k: scan the oracle table's least count per
    degree down from its top to the first degree below k."""
    table = _table_past(basis, k)
    least = table._extremes[0]
    return next((d for d in range(table.max_degree, -1, -1) if least[d] < k), -1)


def brute_force_m(basis: LatticeBasis, k: int) -> int:
    """Independent oracle for m_k: scan the oracle table's greatest count
    per degree up to the first degree at k or more."""
    table = _table_past(basis, k)
    greatest = table._extremes[1]
    return next(d for d in range(table.max_degree + 1) if greatest[d] >= k)


def frobenius(basis: LatticeBasis, k: int) -> int:
    """F_k: the largest degree with some class count below k, or -1 if
    none; the last F value of the residue walk ``kth_degrees``."""
    return kth_degrees(basis, k)[0][-1]


class FrobeniusReport(namedtuple(
    "FrobeniusReport", "k_max f_values m_values b_values f_diffs m_diffs dimension bound_checks"
)):
    """Sequence analytics for F_k and m_k up to k_max."""

    __slots__ = ()


def sequence_report(basis: LatticeBasis, k_max: int) -> FrobeniusReport:
    """F/m/b sequences with the progression bounds checked.

    The set of observed b-values is a lower slice of the full b-set, so
    the dimension bounds are reported against the values seen up to
    k_max only. ``dimension`` counts the distinct F_k differences seen
    up to k_max, not the progression's dimension.
    """
    if k_max < 2:
        raise InputError("k_max must be at least 2")
    f_values, m_values = kth_degrees(basis, k_max)
    b_values = tuple(f - m for f, m in zip(f_values, m_values))
    f_diffs = tuple(f_values[i + 1] - f_values[i] for i in range(k_max - 1))
    m_diffs = tuple(m_values[i + 1] - m_values[i] for i in range(k_max - 1))
    dimension = len(set(f_diffs))
    m2 = m_values[1]
    f1 = f_values[0]
    b_sorted = sorted(set(b_values))
    b_lo, b_hi = b_sorted[0], b_sorted[-1]
    t = len(b_sorted)
    checks = {
        "m_nondecreasing": all(d >= 0 for d in m_diffs),
        "m_diffs_at_most_m2": all(d <= m2 for d in m_diffs),
        "f_between_bounds": all(
            m - 1 <= f <= m + max(f1, -1) for f, m in zip(f_values, m_values)
        ),
        "dimension_le_t_times_m2_plus_1": dimension <= t * (m2 + 1),
        "dimension_le_m2_plus_b_spread_plus_1": dimension <= m2 + b_hi - b_lo + 1,
        "f_diffs_bounded": all(abs(d) <= m2 + b_hi - b_lo for d in f_diffs),
    }
    return FrobeniusReport(
        k_max=k_max,
        f_values=f_values,
        m_values=m_values,
        b_values=b_values,
        f_diffs=f_diffs,
        m_diffs=m_diffs,
        dimension=dimension,
        bound_checks=checks,
    )
