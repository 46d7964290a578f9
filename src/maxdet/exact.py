"""Fraction-free determinants and log-scale scalars.

Determinants and leading minors are exact: both come from one Bareiss
fraction-free elimination (``_bareiss``) over Python ints of arbitrary
size, so there is no rounding anywhere.  Log-scale values are the one
deliberate exception: a LogScalar carries ln|x| and whether x is 0, so
that quantities like |det|/n^(n/2) stay representable for n in the
thousands.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The pivots of Bareiss fraction-free elimination and its row swaps.

    Entries are copied as Python ints, so fixed-width input cannot
    overflow.  A zero pivot is swapped for the first nonzero entry below
    it; where the column has none, the pivots end with that 0.  Each
    exact division is by the previous pivot: by Sylvester's identity,
    entry (i, j) before step k is the minor on rows 0..k-1, i and
    columns 0..k-1, j of the swapped rows, so the pivot of step k is
    their leading minor of order k + 1, and every value is an integer.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    a = [list(map(int, row)) for row in rows]
    pivots = []
    swaps = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            below = next((i for i in range(k + 1, n) if a[i][k]), None)
            if below is None:
                pivots.append(0)
                break
            a[k], a[below] = a[below], a[k]
            swaps += 1
        rowk = a[k]
        pivot = rowk[k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (pivot * rowi[j] - aik * rowk[j]) // prev
        prev = pivot
    return pivots, swaps


def det_exact(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square sequence of integer rows (lists or a
    numpy array): the last Bareiss pivot, signed by the row swaps; 1 for
    a 0 x 0 matrix and 0 where a column has no nonzero pivot left."""
    pivots, swaps = _bareiss(rows)
    if not pivots:
        return 1
    return -pivots[-1] if swaps % 2 else pivots[-1]


def leading_minors(rows: Sequence[Sequence[int]]) -> list[int] | None:
    """The leading principal minors det N[:1, :1], ..., det N[:n, :n] of a
    square integer matrix, or None if any of them is 0: the Bareiss pivots,
    when elimination needed no row swap and no zero pivot.  One pass of
    O(n^3) exact integer work gives all n minors.
    """
    pivots, swaps = _bareiss(rows)
    return pivots if not swaps and 0 not in pivots else None


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
