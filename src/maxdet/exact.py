"""Fraction-free determinants and log-scale scalars.

Determinants are exact: entries are taken as Python ints of arbitrary
size and eliminated fraction-free (Bareiss), so there is no rounding
anywhere.  Log-scale values are the one deliberate exception: a
LogScalar carries ln|x| and whether x is 0, so that quantities like
|det|/n^(n/2) stay representable for n in the thousands.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


def det_exact(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Accepts any square sequence of integer rows (lists or a numpy array);
    entries are copied as Python ints, so fixed-width input cannot
    overflow.  All intermediate values are integers (each exact division
    is by the previous pivot, which divides exactly by the Sylvester
    identity).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowk = a[k]
            rowi = a[i]
            for j in range(k + 1, n):
                rowi[j] = (pivot * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def leading_minors(rows: Sequence[Sequence[int]]) -> list[int] | None:
    """The leading principal minors det N[:1, :1], ..., det N[:n, :n] of a
    square integer matrix, or None if any of them is 0.

    Bareiss elimination without row swaps makes entry (i, j) before step
    k the minor on rows 0..k-1, i and columns 0..k-1, j (Sylvester's
    identity), so the pivot of step k is the leading minor of order k + 1;
    a zero pivot stops it.  One pass of O(n^3) exact integer work gives
    all n minors.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    a = [list(map(int, row)) for row in rows]
    minors = []
    prev = 1
    for k in range(n):
        rowk = a[k]
        pivot = rowk[k]
        if pivot == 0:
            return None
        minors.append(pivot)
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (pivot * rowi[j] - aik * rowk[j]) // prev
        prev = pivot
    return minors


class LogScalar(NamedTuple):
    """A nonnegative magnitude as its natural log: sign is 1, or 0 for the
    value 0 with log_abs 0.0.  Values compare in tuple order, which is
    their numeric order."""

    sign: int
    log_abs: float

    def value(self) -> float:
        """Decimal value; overflows to inf rather than raising."""
        if self.sign == 0:
            return 0.0
        try:
            return math.exp(self.log_abs)
        except OverflowError:
            return math.inf


def normalized_ratio(det_abs_log: LogScalar, n: int) -> LogScalar:
    """Scale a determinant magnitude by the Hadamard bound n^(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if det_abs_log.sign == 0:
        return LogScalar(0, 0.0)
    return LogScalar(det_abs_log.sign,
                     det_abs_log.log_abs - 0.5 * n * math.log(n))

