"""Closed-form determinant bounds and their exact floor decisions.

Bound values are carried as LogScalar (sign + ln).  The supporting lemmas
of the paper are checked by tests/test_lemmas.py, and the exhaustive D(n)
oracle for n <= 6 lives in tests/oracles.py, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import LogScalar

C_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def g_of_h(h: int) -> Fraction:
    """g(h) = 1 + 2^-h * h * binom(h, h/2), exactly."""
    if h < 2 or h % 2:
        raise ValueError("h must be an even integer >= 2")
    return 1 + Fraction(h * math.comb(h, h // 2), 2 ** h)


def h0(d: int) -> float:
    """Core-order threshold (e (pi/2)^(d/2) (d-1)! + d)^2; inf on overflow."""
    if d < 1:
        raise ValueError("d must be >= 1")
    try:
        root = math.e * (math.pi / 2.0) ** (d / 2.0) * math.factorial(d - 1) + d
        return root * root
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundContext:
    n: int
    h: int
    d: int
    epsilon: float     # sqrt(4 d ln h / h), 0 when d = 0
    delta: float       # 6 d^3 / h
    c: float
    g_h: float | None  # None when h is odd (no central binomial)
    h0_d: float | None


@dataclass(frozen=True)
class BoundEntry:
    name: str
    applicable: bool
    reason: str
    target: str                  # "D(n)/h^(h/2)", "D(n)/h^(n/2)", "Dbar(n)"
    value: LogScalar | None

    def as_row(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "target": self.target,
            "value_log": None if self.value is None else self.value.log_abs,
            "value_decimal": None if self.value is None else self.value.value(),
        }

    def as_json(self) -> dict:
        row = self.as_row()
        row["reason"] = self.reason
        return row


@dataclass(frozen=True)
class BoundReport:
    n: int
    h: int
    d: int
    context: BoundContext
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "h": self.h, "d": self.d,
            "context": {
                "epsilon": self.context.epsilon,
                "delta": self.context.delta,
                "c": self.context.c,
                "g_h": self.context.g_h,
                "h0_d": self.context.h0_d,
            },
            "bounds": [e.as_json() for e in self.entries],
        }

    def csv_rows(self) -> list[list]:
        # fixed column order: name, applicable, target, value_log, value_decimal
        rows = [["name", "applicable", "target", "value_log", "value_decimal"]]
        for e in self.entries:
            r = e.as_row()
            rows.append([r["name"], r["applicable"], r["target"],
                         r["value_log"], r["value_decimal"]])
        return rows


def make_context(n: int, h: int, d: int) -> BoundContext:
    eps = math.sqrt(4.0 * d * math.log(h) / h) if d >= 1 and h >= 3 else 0.0
    delta = 6.0 * d ** 3 / h
    gh = float(g_of_h(h)) if h >= 2 and h % 2 == 0 else None
    return BoundContext(n=n, h=h, d=d, epsilon=eps, delta=delta,
                        c=C_SQRT_2_OVER_PI,
                        g_h=gh, h0_d=h0(d) if d >= 1 else None)


def _log_entry(name, target, ok, reason, log_value) -> BoundEntry:
    value = LogScalar(1, log_value) if ok else None
    return BoundEntry(name=name, applicable=ok, reason=reason,
                      target=target, value=value)


def evaluate_bounds(n: int, h: int, d: int) -> BoundReport:
    """Every closed-form bound at (n, h, d) with its applicability flag."""
    if n != h + d:
        raise ValueError("n must equal h + d")
    if h < 1 or d < 0:
        raise ValueError("need h >= 1 and d >= 0")
    ctx = make_context(n, h, d)
    eps, delta = ctx.epsilon, ctx.delta
    c = C_SQRT_2_OVER_PI
    entries = []

    # direct-expectation bound: D(n)/h^(h/2) > (2n/pi)^(d/2) for h >= h0(d)
    ok = d >= 1 and ctx.h0_d is not None and h >= ctx.h0_d
    entries.append(_log_entry(
        "direct_expectation", "D(n)/h^(h/2)", ok,
        "requires d >= 1 and h >= h0(d)",
        0.5 * d * math.log(2.0 * n / math.pi) if ok else 0.0))

    # small borders: same bound for every Hadamard core when 1 <= d <= 3
    ok = 1 <= d <= 3 and h >= 4
    entries.append(_log_entry(
        "small_border", "D(n)/h^(h/2)", ok,
        "requires 1 <= d <= 3 and h >= 4",
        0.5 * d * math.log(2.0 * n / math.pi) if ok else 0.0))
    entries.append(_log_entry(
        "small_border_normalized", "Dbar(n)", ok,
        "requires 1 <= d <= 3 and h >= 4",
        0.5 * d * math.log(2.0 / (math.pi * math.e)) if ok else 0.0))

    ok = d >= 1 and ctx.h0_d is not None and h >= ctx.h0_d
    entries.append(_log_entry(
        "direct_expectation_normalized", "Dbar(n)", ok,
        "requires d >= 1 and h >= h0(d)",
        0.5 * d * math.log(2.0 / (math.pi * math.e)) if ok else 0.0))

    # tail-bound theorem: needs a large core, h/ln h >= 16 d^3
    t2_ok = h >= 656 and 16 * d ** 3 <= h / math.log(h)
    entries.append(_log_entry(
        "tail_bound", "D(n)/h^(n/2)", t2_ok,
        "requires h >= 656 and 16 d^3 <= h/ln h",
        0.5 * d * math.log(2.0 / math.pi) - 2.31 * d * eps if t2_ok else 0.0))
    entries.append(_log_entry(
        "tail_bound_normalized", "Dbar(n)", t2_ok,
        "requires h >= 656 and 16 d^3 <= h/ln h",
        0.5 * d * math.log(2.0 / (math.pi * math.e)) - 2.38 * d * eps
        if t2_ok else 0.0))

    # relaxed-core theorem: only needs 6 d^3 <= h
    t3_ok = d >= 1 and delta <= 1.0
    entries.append(_log_entry(
        "relaxed_core", "D(n)/h^(n/2)", t3_ok,
        "requires d >= 1 and 6 d^3 <= h",
        d * math.log(0.594) + math.log1p(-0.93 * delta) if t3_ok else 0.0))
    entries.append(_log_entry(
        "relaxed_core_normalized", "Dbar(n)", t3_ok,
        "requires d >= 1 and 6 d^3 <= h",
        d * math.log(0.352) + math.log1p(-0.93 * delta) if t3_ok else 0.0))

    # universal floor: Dbar(n) > 0.07 * 0.352^d, no conditions
    entries.append(_log_entry(
        "universal_floor", "Dbar(n)", True, "always applicable",
        math.log(0.07) + d * math.log(0.352)))

    return BoundReport(n=n, h=h, d=d, context=ctx, entries=tuple(entries))


def _dbar_sq_above(det_n: int, m: int, k: int, width: int,
                   floor: Fraction) -> bool:
    """Exactly decide Dbar(n)^2 > floor for a core of order m and weight k
    bordered to n = m + width with Schur determinant det_n, as
    Dbar(n)^2 = k^m det_n^2 / (k^(2 width) n^n), cleared of denominators."""
    n = m + width
    lhs = int(det_n) ** 2 * k ** max(m - 2 * width, 0) * floor.denominator
    rhs = n ** n * k ** max(2 * width - m, 0) * floor.numerator
    return lhs > rhs


def passes_uniform_floor(det_n: int, m: int, k: int, width: int, d: int
                         ) -> bool:
    """Exactly decide Dbar(n) > (7/100) (44/125)^d for a bordered witness."""
    return _dbar_sq_above(det_n, m, k, width,
                          Fraction(49, 10 ** 4) * Fraction(44, 125) ** (2 * d))


# pi e lies strictly between these products of pi and e to 30 decimals
PI_E_LO = (Fraction("3.141592653589793238462643383279")
           * Fraction("2.718281828459045235360287471352"))
PI_E_HI = (Fraction("3.141592653589793238462643383280")
           * Fraction("2.718281828459045235360287471353"))


def passes_small_border_floor(det_n: int, m: int, k: int, width: int, d: int
                              ) -> bool | None:
    """Decide Dbar(n) > (2/(pi e))^(d/2) for a bordered witness in integers:
    True if Dbar(n)^2 > (2/PI_E_LO)^d, False if Dbar(n)^2 <= (2/PI_E_HI)^d,
    and None (undecided) in between."""
    if _dbar_sq_above(det_n, m, k, width, (2 / PI_E_LO) ** d):
        return True
    if not _dbar_sq_above(det_n, m, k, width, (2 / PI_E_HI) ** d):
        return False
    return None

