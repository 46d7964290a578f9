"""Fraction-free determinants and log-scale scalars.

Determinants are exact: entries are taken as Python ints of arbitrary
size and eliminated by Bareiss (fraction-free), so there is no rounding
anywhere.  Log-scale values are the one deliberate exception: a LogScalar
carries a sign and ln|x| so that quantities like det/n^(n/2) stay
representable for n in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


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


@dataclass(frozen=True)
class LogScalar:
    """Sign and natural log of absolute value.

    log_abs is meaningless when sign == 0 (kept at 0.0 by convention).
    """

    sign: int
    log_abs: float

    @classmethod
    def from_int(cls, x: int) -> "LogScalar":
        if x == 0:
            return cls(0, 0.0)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        s = self.sign * other.sign
        if s == 0:
            return LogScalar(0, 0.0)
        return LogScalar(s, self.log_abs + other.log_abs)

    def value(self) -> float:
        """Decimal value; overflows to +-inf rather than raising."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf

    def _key(self):
        # total order: sign dominates; within a sign, log_abs ordered by sign
        return (self.sign, self.sign * self.log_abs if self.sign else 0.0)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()


def normalized_ratio(det_abs_log: LogScalar, n: int) -> LogScalar:
    """Scale a determinant magnitude by the Hadamard bound n^(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if det_abs_log.sign == 0:
        return LogScalar(0, 0.0)
    return LogScalar(det_abs_log.sign,
                     det_abs_log.log_abs - 0.5 * n * math.log(n))

