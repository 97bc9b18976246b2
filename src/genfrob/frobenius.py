"""Generalised Frobenius numbers and sequence analytics.

F_k is the largest weighted degree at which some quotient class still
has fewer than k nonnegative representatives. ``frobenius`` and
``sequence_report`` read F_k and m_k off the residue-graph engine
``counting.kth_degrees``; ``brute_force_frobenius`` and ``brute_force_m``
are the independent oracles, plain upward scans of counting tables that
share no code with the engine. Both read their rows from one scan,
``_rows``, over the basis's oracle table of exact counts, which doubles
the table's depth only when it reads past its end.
"""
from __future__ import annotations

from typing import NamedTuple

from .counting import _oracle_table, kth_degrees, m_value  # noqa: F401  (re-exported)
from .lattice import InputError, LatticeBasis


def _rows(basis: LatticeBasis):
    """Rows 0, 1, 2, ... of exact counts per class, from the basis's oracle table.

    The scan starts on the basis's table, or one of a_1 rows (the fewest an
    F_k scan reads); at its end the table goes, one of twice the rows is
    asked for, and the scan goes on from there.
    """
    rows = basis.weight.a[0]
    start = 0
    while True:
        table = _oracle_table(basis, rows - 1)
        for d in range(start, table.max_degree + 1):
            yield table.row(d)
        start = table.max_degree + 1
        rows = 2 * start
        del table  # let the shared table go before it is rebuilt deeper


def brute_force_frobenius(basis: LatticeBasis, k: int) -> int:
    """Independent oracle for F_k: scan degrees upward until a_1
    consecutive degrees have every class at count >= k.

    Sound because counts are monotone under adding the first generator:
    count(c, d) >= count(c - [e1], d - a1).
    """
    if k < 1:
        raise InputError("k must be at least 1")
    a1 = basis.weight.a[0]
    last_bad = -1
    for d, row in enumerate(_rows(basis)):
        if min(row) < k:
            last_bad = d
        elif d - last_bad == a1:
            return last_bad


def brute_force_m(basis: LatticeBasis, k: int) -> int:
    """Independent oracle for m_k: the first degree with a class of count >= k."""
    if k < 1:
        raise InputError("k must be at least 1")
    return next(d for d, row in enumerate(_rows(basis)) if max(row) >= k)


def frobenius(basis: LatticeBasis, k: int, degree_cap: int | None = None) -> int:
    """Largest degree with some class count below k, or -1 if none.

    With degree_cap, F_k is returned only when a table scan up to the
    cap would have proved it: uncovered degrees are closed under
    subtracting a_1, so such a scan finds F_k exactly when
    F_k <= degree_cap - a_1, and InputError is raised otherwise.
    """
    fk = kth_degrees(basis, k)[0][-1]
    a1 = basis.weight.a[0]
    if degree_cap is not None and fk > degree_cap - a1:
        raise InputError(
            f"degree cap {degree_cap} too small: F_{k} = {fk} needs a cap of "
            f"at least {fk + a1}"
        )
    return fk


class FrobeniusReport(NamedTuple):
    """Sequence analytics for F_k and m_k up to k_max."""

    k_max: int
    f_values: tuple[int, ...]
    m_values: tuple[int, ...]
    b_values: tuple[int, ...]
    f_diffs: tuple[int, ...]
    m_diffs: tuple[int, ...]
    dimension: int
    bound_checks: dict


def sequence_report(basis: LatticeBasis, k_max: int) -> FrobeniusReport:
    """F/m/b sequences with the progression bounds checked.

    The set of observed b-values is a lower slice of the full b-set, so
    the dimension bounds are reported against the values seen up to
    k_max only.
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
