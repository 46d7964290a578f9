"""Closed-form determinant bounds and their certified floor decisions.

``evaluate_bounds`` gives the bounds as the plain rows that ``bound``
prints, each value as its natural log and its decimal, with the epsilon,
delta and h0(d) that decide where each applies.  The module is Python
floats and integers alone; it imports no numpy.  The supporting lemmas
of the paper, g(h) among them, are checked by tests/test_lemmas.py, and
the exhaustive D(n) oracle for n <= 6 lives in tests/oracles.py.
"""

from __future__ import annotations

import math

from .exact import LogScalar


def h0(d: int) -> float:
    """Core-order threshold (e (pi/2)^(d/2) (d-1)! + d)^2; inf on overflow."""
    if d < 1:
        raise ValueError("d must be >= 1")
    try:
        root = math.e * (math.pi / 2.0) ** (d / 2.0) * math.factorial(d - 1) + d
        return root * root
    except OverflowError:
        return math.inf


# the CSV columns of a bound row; its JSON row adds a "reason" at the end
BOUND_COLUMNS = ("name", "applicable", "target", "value_log", "value_decimal")


def _row(name: str, target: str, reason: str, value_log: float | None
         ) -> dict:
    """One bound's row; value_log is None where the bound does not apply."""
    return {"name": name, "applicable": value_log is not None,
            "target": target,  # "D(n)/h^(h/2)", "D(n)/h^(n/2)" or "Dbar(n)"
            "value_log": value_log,
            "value_decimal": (None if value_log is None
                              else LogScalar(1, value_log).value()),
            "reason": reason}


def evaluate_bounds(n: int, h: int, d: int) -> dict:
    """Every closed-form bound at (n, h, d), as ``bound`` prints it: n, h,
    d, a context dict and a ``bounds`` list of rows.  Each value is
    computed only where its bound applies."""
    if n != h + d:
        raise ValueError("n must equal h + d")
    if h < 1 or d < 0:
        raise ValueError("need h >= 1 and d >= 0")
    eps = math.sqrt(4.0 * d * math.log(h) / h) if d >= 1 and h >= 3 else 0.0
    delta = 6.0 * d ** 3 / h
    h0_d = h0(d) if d >= 1 else None
    power = 0.5 * d * math.log(2.0 * n / math.pi)
    normalized = 0.5 * d * math.log(2.0 / (math.pi * math.e))

    # direct-expectation bound: D(n)/h^(h/2) > (2n/pi)^(d/2) for h >= h0(d)
    direct = d >= 1 and h >= h0_d
    # small borders: same bound for every Hadamard core when 1 <= d <= 3
    small = 1 <= d <= 3 and h >= 4
    # tail-bound theorem: needs a large core, h/ln h >= 16 d^3
    tail = h >= 656 and 16 * d ** 3 <= h / math.log(h)
    # relaxed-core theorem: only needs 6 d^3 <= h
    relaxed = d >= 1 and delta <= 1.0
    bounds = [
        _row("direct_expectation", "D(n)/h^(h/2)",
             "requires d >= 1 and h >= h0(d)", power if direct else None),
        _row("small_border", "D(n)/h^(h/2)",
             "requires 1 <= d <= 3 and h >= 4", power if small else None),
        _row("small_border_normalized", "Dbar(n)",
             "requires 1 <= d <= 3 and h >= 4",
             normalized if small else None),
        _row("direct_expectation_normalized", "Dbar(n)",
             "requires d >= 1 and h >= h0(d)",
             normalized if direct else None),
        _row("tail_bound", "D(n)/h^(n/2)",
             "requires h >= 656 and 16 d^3 <= h/ln h",
             0.5 * d * math.log(2.0 / math.pi) - 2.31 * d * eps
             if tail else None),
        _row("tail_bound_normalized", "Dbar(n)",
             "requires h >= 656 and 16 d^3 <= h/ln h",
             normalized - 2.38 * d * eps if tail else None),
        _row("relaxed_core", "D(n)/h^(n/2)",
             "requires d >= 1 and 6 d^3 <= h",
             d * math.log(0.594) + math.log1p(-0.93 * delta)
             if relaxed else None),
        _row("relaxed_core_normalized", "Dbar(n)",
             "requires d >= 1 and 6 d^3 <= h",
             d * math.log(0.352) + math.log1p(-0.93 * delta)
             if relaxed else None),
        _row("universal_floor", "Dbar(n)", "always applicable",
             uniform_floor_log(d)),
    ]
    return {
        "n": n, "h": h, "d": d,
        "context": {
            "epsilon": eps,  # sqrt(4 d ln h / h), 0 when d = 0
            "delta": delta,  # 6 d^3 / h
            "h0_d": h0_d,
        },
        "bounds": bounds,
    }


# a float floor decision stands only if its gap exceeds this share of the
# magnitudes of its terms (see _dbar_sq_above)
LOG_DECISION_MARGIN = 2.0 ** -40


def _dbar_sq_above(det_n: int, m: int, k: int, width: int,
                   *floors: tuple[int, int]) -> list[bool]:
    """Decide Dbar(n)^2 > floor for each floor, a (numerator, denominator)
    pair of positive integers in lowest terms, for a core of order m and
    weight k bordered to n = m + width with Schur determinant det_n, where
    Dbar(n)^2 = k^m det_n^2 / (k^(2 width) n^n).

    First in logarithms: the sign of the math.fsum of the terms
    2 ln|det_n|, (m - 2 width) ln k, ln(denominator), -n ln n and
    -ln(numerator).  Error bound, with u = 2^-53: each term is an
    integer below 2^53 (exact as a float) times math.log of a positive
    integer.  math.log rounds that integer to a float (below 2^1024) or
    to its frexp mantissa f times 2^e (above, returning ln f + e ln 2),
    each with relative error u, so with a libm log within one ulp every
    log is within 5u of its value relative to it, and every term within
    6u.  fsum rounds the exact sum once, so the computed gap is within
    8u = 2^-50 times the sum of the terms' magnitudes of the true one.
    A float answer stands only if the gap exceeds LOG_DECISION_MARGIN =
    2^-40 times that sum, which leaves a factor 2^10 for a less accurate
    libm.  If any floor is left open, and always for det_n = 0, one call
    of ``_dbar_sq_above_exact`` decides them all in integers.
    """
    n = m + width
    det_n = int(det_n)
    if det_n and k > 0:
        common = (2 * math.log(abs(det_n)), (m - 2 * width) * math.log(k),
                  -n * math.log(n))
        above = []
        for num, den in floors:
            terms = common + (math.log(den), -math.log(num))
            gap = math.fsum(terms)
            if abs(gap) <= LOG_DECISION_MARGIN * math.fsum(map(abs, terms)):
                break
            above.append(gap > 0)
        else:
            return above
    return _dbar_sq_above_exact(det_n, m, k, width, floors)


def _dbar_sq_above_exact(det_n: int, m: int, k: int, width: int,
                         floors: tuple[tuple[int, int], ...]) -> list[bool]:
    """``_dbar_sq_above`` in integers, cleared of denominators: the two
    sides k^m det_n^2 and k^(2 width) n^n, each without the power of k that
    they share, are formed once for every floor."""
    n = m + width
    lhs = det_n ** 2 * k ** max(m - 2 * width, 0)
    rhs = n ** n * k ** max(2 * width - m, 0)
    return [lhs * den > rhs * num for num, den in floors]


def uniform_floor_log(d: int) -> float:
    """ln(0.07 * 0.352^d) in floats: Dbar(n)'s unconditional floor."""
    return math.log(0.07) + d * math.log(0.352)


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def passes_uniform_floor(det_n: int, m: int, k: int, width: int, d: int
                         ) -> bool:
    """Exactly decide Dbar(n) > (7/100) (44/125)^d for a bordered witness."""
    floor = _lowest_terms(49 * 44 ** (2 * d), 10 ** 4 * 125 ** (2 * d))
    return _dbar_sq_above(det_n, m, k, width, floor)[0]


# pi e lies strictly between these products of pi and e to 30 decimals,
# held as (numerator, denominator) in lowest terms
PI_E_LO = _lowest_terms(3141592653589793238462643383279
                        * 2718281828459045235360287471352, 10 ** 60)
PI_E_HI = _lowest_terms(3141592653589793238462643383280
                        * 2718281828459045235360287471353, 10 ** 60)


def passes_small_border_floor(det_n: int, m: int, k: int, width: int, d: int
                              ) -> bool | None:
    """Decide Dbar(n) > (2/(pi e))^(d/2) for a bordered witness in integers:
    True if Dbar(n)^2 > (2/PI_E_LO)^d, False if Dbar(n)^2 <= (2/PI_E_HI)^d,
    and None (undecided) in between."""
    # 2/(pi e) in lowest terms; its powers stay in lowest terms
    lo, hi = (_lowest_terms(2 * den, num) for num, den in (PI_E_LO, PI_E_HI))
    above_lo, above_hi = _dbar_sq_above(det_n, m, k, width,
                                        (lo[0] ** d, lo[1] ** d),
                                        (hi[0] ** d, hi[1] ** d))
    return True if above_lo else None if above_hi else False
