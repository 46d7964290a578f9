"""Closed-form determinant bounds, a tiny brute-force maxdet oracle, and
numerical checkers for the supporting inequalities.

Bound values are carried as LogScalar (sign + ln).  Lemma checkers return
True/False, or None as an explicit skip marker when a precondition is not
met, so property tests can distinguish vacuous passes from real ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exact import LogScalar

C_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

_REL_TOL = 1e-12


def g_of_h(h: int) -> Fraction:
    """g(h) = 1 + 2^-h * h * binom(h, h/2), exactly.

    Also enforces the growth inequality g(h) > c*sqrt(h) + 0.9 for h >= 4,
    which every even h satisfies.
    """
    if h < 2 or h % 2:
        raise ValueError("h must be an even integer >= 2")
    value = 1 + Fraction(h * math.comb(h, h // 2), 2 ** h)
    if h >= 4:
        lower = C_SQRT_2_OVER_PI * math.sqrt(h) + 0.9
        if not float(value) > lower:
            raise AssertionError(f"g({h}) = {float(value)} <= {lower}")
    return value


def central_binomial_lower_bound(h: int) -> float:
    """2^h sqrt(2/(pi h)) (1 - 1/(4h)): a strict lower bound on binom(h, h/2)."""
    if h < 2 or h % 2:
        raise ValueError("h must be an even integer >= 2")
    return 2.0 ** h * math.sqrt(2.0 / (math.pi * h)) * (1.0 - 1.0 / (4 * h))


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


# ---------------------------------------------------------------------------
# brute-force maximal determinant oracle


def _batched_det_int(a: np.ndarray) -> np.ndarray:
    """Exact determinants of a batch of small integer matrices (k <= 6)."""
    k = a.shape[-1]
    if k == 0:
        return np.ones(a.shape[0], dtype=np.int64)
    if k == 1:
        return a[:, 0, 0].copy()
    if k == 2:
        return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    if k == 3:
        return (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
                - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
                + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0]))
    total = np.zeros(a.shape[0], dtype=np.int64)
    cols = np.arange(k)
    for j in range(k):
        minor = a[:, 1:, :][:, :, cols != j]
        term = a[:, 0, j] * _batched_det_int(minor)
        total += term if j % 2 == 0 else -term
    return total


def maxdet_oracle(n: int) -> int:
    """Exact D(n) for n <= 6 by exhaustive enumeration.

    The first row and column are fixed to +1 (any sign matrix is
    equivalent to such a matrix under row/column negation), leaving
    2^((n-1)^2) candidates.
    """
    if not 1 <= n <= 6:
        raise ValueError("oracle is exhaustive; only n <= 6 is feasible")
    if n == 1:
        return 1
    free = (n - 1) ** 2
    shifts = np.arange(free, dtype=np.uint64)
    best = 0
    chunk = 1 << min(16, free)
    for start in range(0, 1 << free, chunk):
        idx = np.arange(start, start + chunk, dtype=np.uint64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int64)
        mats = np.ones((chunk, n, n), dtype=np.int64)
        mats[:, 1:, 1:] = (1 - 2 * bits).reshape(chunk, n - 1, n - 1)
        dets = _batched_det_int(mats)
        best = max(best, int(np.abs(dets).max()))
    return best


# ---------------------------------------------------------------------------
# lemma checkers


def check_pert_bound(e: np.ndarray, d: int) -> bool | None:
    """Determinant floor for I - E with |e_ij| <= eps and d*eps <= 1.

    Checks det(I-E) >= 1 - d*eps; when diag(E) = 0 additionally the
    sharper (1-(d-1)eps)(1+eps)^(d-1) floor; and the diagonally-dominant
    product floor on I - E itself.  Returns None when d*eps > 1.
    """
    e = np.asarray(e, dtype=float)
    if e.shape != (d, d):
        raise ValueError("E must be d x d")
    eps = float(np.abs(e).max())
    if d * eps > 1.0:
        return None
    a = np.eye(d) - e
    det = float(np.linalg.det(a))
    checks = [det >= (1.0 - d * eps) - _REL_TOL * max(1.0, abs(1.0 - d * eps))]
    if np.all(np.diagonal(e) == 0.0) and (d - 1) * eps <= 1.0:
        bound = (1.0 - (d - 1) * eps) * (1.0 + eps) ** (d - 1)
        checks.append(det >= bound - _REL_TOL * max(1.0, abs(bound)))
    checks.append(check_dd_bound(a))
    return all(checks)


def check_dd_bound(a: np.ndarray) -> bool:
    """|det A| >= prod|a_ii| (1 - (d-1)^2 eps^2) with eps the DD ratio."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    diag = np.abs(np.diagonal(a))
    if np.any(diag == 0.0):
        return True  # floor is zero
    off = np.abs(a) / diag[:, None]
    np.fill_diagonal(off, 0.0)
    eps = float(off.max()) if d > 1 else 0.0
    floor = float(np.prod(diag)) * (1.0 - (d - 1) ** 2 * eps ** 2)
    if floor <= 0.0:
        return True
    det = abs(float(np.linalg.det(a)))
    return det >= floor - _REL_TOL * max(1.0, floor)


def check_es152(sample_space: Sequence, lam) -> bool | None:
    """Exact reverse-Markov tail for a finite distribution on [0, 1].

    sample_space is a sequence of outcomes, or (outcome, weight) pairs;
    outcomes must lie in [0, 1].  Returns None when lam >= mean.
    """
    pairs = []
    for item in sample_space:
        if isinstance(item, tuple):
            v, w = item
        else:
            v, w = item, 1
        v = _exact_fraction(v)
        if not 0 <= v <= 1:
            raise ValueError("outcomes must lie in [0, 1]")
        pairs.append((v, _exact_fraction(w)))
    total = sum(w for _, w in pairs)
    if total <= 0:
        raise ValueError("empty distribution")
    lam = _exact_fraction(lam)
    mu = sum(v * w for v, w in pairs) / total
    if lam >= mu:
        return None
    tail = sum(w for v, w in pairs if v >= lam) / total
    return bool(tail >= (mu - lam) / (1 - lam))


def _exact_fraction(x) -> Fraction:
    """Fraction with Python-int parts, so numpy integers cannot wrap."""
    if isinstance(x, np.generic):
        x = x.item()
    x = Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


def hoeffding_bound(t: float, ranges: Sequence[tuple[float, float]]) -> float:
    """Two-sided tail bound 2 exp(-2 t^2 / sum (b_i - a_i)^2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not ranges:
        raise ValueError("ranges must be nonempty")
    denom = sum((b - a) ** 2 for a, b in ranges)
    if denom == 0.0:
        return 0.0
    return 2.0 * math.exp(-2.0 * t * t / denom)


# ---------------------------------------------------------------------------
# scalar inequality grids


def _tally(report: dict, name: str, outcome: bool | None, detail=None) -> None:
    slot = report.setdefault(name, {"pass": 0, "fail": 0, "skip": 0})
    if outcome is None:
        slot["skip"] += 1
    elif outcome:
        slot["pass"] += 1
    else:
        slot["fail"] += 1
        report.setdefault("failures", []).append((name, detail))


def check_scalar_inequalities(h_values: Iterable[int] | None = None,
                              alpha_values: Iterable[float] | None = None
                              ) -> dict:
    """Grid checks of the power-ratio, exponential, and epsilon lemmas.

    Pairs (h, alpha) with integral n = h + alpha and n > |alpha| > 0 feed
    the two power-ratio inequalities; the epsilon system is checked on the
    grid h >= 656, 16 d^3 <= h / ln h, h <= 10^4.
    """
    if h_values is None:
        h_values = range(4, 10001, 4)
    if alpha_values is None:
        alpha_values = (-2.0, -0.5, 0.25, 0.5, 1.0, 2.0, 3.0)
    h_values = list(h_values)
    report: dict = {}

    for h in h_values:
        for alpha in alpha_values:
            n_real = h + alpha
            n = round(n_real)
            if abs(n_real - n) > 1e-9 or n <= abs(alpha) or n < 1:
                _tally(report, "power_ratio_floor", None)
                continue
            # h^h / n^n > (ne)^-alpha
            lhs = h * math.log(h) - n * math.log(n)
            rhs = -alpha * (math.log(n) + 1.0)
            _tally(report, "power_ratio_floor", lhs > rhs, (h, alpha))
            # (h/n)^n > exp(-alpha - alpha^2/h)
            lhs2 = n * (math.log(h) - math.log(n))
            rhs2 = -alpha - alpha * alpha / h
            _tally(report, "tail_bound_normalized", lhs2 > rhs2, (h, alpha))

    # chord-below-exponential lemma
    for kappa in (-2.0, -1.1 / C_SQRT_2_OVER_PI, -0.5, 0.5, 1.0, 3.0):
        for eps0 in (0.1, 0.271, 0.5):
            if abs(kappa * eps0) >= 1.0:
                _tally(report, "chord_below_exp", None)
                continue
            beta = math.log1p(kappa * eps0) / eps0
            ok = True
            for eps in np.linspace(0.0, eps0, 41):
                if 1.0 + kappa * eps < math.exp(beta * eps) - _REL_TOL:
                    ok = False
                    break
            _tally(report, "chord_below_exp", ok, (kappa, eps0))

    # epsilon system under the tail-bound theorem's conditions
    alpha_chord = 1.7262
    eps_cap = (math.sqrt(2.0 / math.pi) - 0.5) / 1.1
    for h in h_values:
        if h < 656 or h > 10000 or h % 2:
            continue
        log_g_minus_1 = (math.log(h) + math.log(math.comb(h, h // 2))
                         - h * math.log(2.0))
        d = 1
        while 16 * d ** 3 <= h / math.log(h):
            eps = math.sqrt(4.0 * d * math.log(h) / h)
            _tally(report, "eps_product_cap", d * eps <= 0.5 + 1e-15, (h, d))
            _tally(report, "eps_lower_bound", eps >= 8.0 * d / h, (h, d))
            _tally(report, "eps_upper_bound", eps <= eps_cap + 1e-15, (h, d))
            lhs = 2.0 * d * d * math.exp(-eps * eps * h / 8.0)
            _tally(report, "tail_mass_balance",
                   lhs <= (2.0 * eps) ** d * (1.0 + 1e-12), (h, d))
            _tally(report, "chord_at_eps_cap",
                   1.0 - 1.1 * eps / C_SQRT_2_OVER_PI
                   >= math.exp(-alpha_chord * eps) - _REL_TOL, (h, d))
            rhs = math.log(C_SQRT_2_OVER_PI - eps / 10.0) + 0.5 * math.log(h)
            _tally(report, "diagonal_mean_floor", log_g_minus_1 >= rhs - _REL_TOL,
                   (h, d))
            d += 1
    return report


# ---------------------------------------------------------------------------
# the full lemma suite (used by the CLI `lemmas` command)


def run_lemma_suite(seed: int = 20240601, n_random: int = 100_000,
                    inject_violation: bool = False) -> dict:
    """Run every lemma property suite with fixed seeds; report counts."""
    from . import border as border_mod
    from .constructions import build_recipe

    rng = np.random.default_rng(seed)
    report: dict = {}

    # determinant floors on random perturbations, d <= 6
    per_d = n_random // 6
    for d in range(1, 7):
        eps = rng.uniform(0.0, 1.0 / d, per_d)
        e = rng.uniform(-1.0, 1.0, (per_d, d, d)) * eps[:, None, None]
        dets = np.linalg.det(np.eye(d) - e)
        ok = dets >= (1.0 - d * eps) - _REL_TOL
        _tally(report, "near_identity_floor", bool(ok.all()), int((~ok).sum()))

        if d >= 2:
            eps2 = rng.uniform(0.0, 1.0 / (d - 1), per_d)
            e2 = rng.uniform(-1.0, 1.0, (per_d, d, d)) * eps2[:, None, None]
            e2[:, np.arange(d), np.arange(d)] = 0.0
            dets2 = np.linalg.det(np.eye(d) - e2)
            floor2 = (1.0 - (d - 1) * eps2) * (1.0 + eps2) ** (d - 1)
            ok2 = dets2 >= floor2 - _REL_TOL
            _tally(report, "near_identity_zero_diag_floor", bool(ok2.all()),
                   int((~ok2).sum()))

        # diagonally dominant floors
        diag = rng.uniform(0.5, 2.0, (per_d, d)) * rng.choice([-1.0, 1.0],
                                                              (per_d, d))
        eps3 = rng.uniform(0.0, 1.0, per_d)
        a = rng.uniform(-1.0, 1.0, (per_d, d, d))
        a *= (eps3[:, None, None] * np.abs(diag)[:, :, None])
        a[:, np.arange(d), np.arange(d)] = diag
        floor3 = np.prod(np.abs(diag), axis=1) * (1.0 - (d - 1) ** 2 * eps3 ** 2)
        dets3 = np.abs(np.linalg.det(a))
        ok3 = (floor3 <= 0.0) | (dets3 >= floor3 - _REL_TOL)
        _tally(report, "dd_product_floor", bool(ok3.all()), int((~ok3).sum()))

    # tight case: E = eps * ones has det(I - E) = 1 - d*eps exactly
    for d, eps in ((3, 0.2), (2, 0.25), (6, 1.0 / 6.0)):
        det = float(np.linalg.det(np.eye(d) - eps * np.ones((d, d))))
        gap = abs(det - (1.0 - d * eps))
        _tally(report, "near_identity_floor_tight", gap <= _REL_TOL, (d, eps, gap))
    det2 = float(np.linalg.det(np.array([[1.0, 0.3], [0.3, 1.0]])))
    _tally(report, "dd_product_floor_tight",
           abs(det2 - (1.0 - 0.09)) <= _REL_TOL, det2)

    # closed-form diagonal mean E(f11) = g(h) - 1, exhaustive at h in {4, 8}
    for h in (4, 8):
        q = build_recipe("unit" + ";double" * round(math.log2(h)))
        g_vals = [res.border.G[0, 0]
                  for res in border_mod.iter_all_borders(q, 1)]
        mean_f = Fraction(sum(g_vals), h * len(g_vals))
        _tally(report, "diagonal_mean_exact", mean_f == g_of_h(h) - 1,
               (h, mean_f))

    # reverse-Markov tail on the exact f11/sqrt(h) distribution at h = 4
    q4 = build_recipe("unit;double;double")
    xs = [Fraction(res.border.G[0, 0], 8)
          for res in border_mod.iter_all_borders(q4, 1)]
    for lam in (Fraction(0, 1), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        _tally(report, "reverse_markov_exhaustive", check_es152(xs, lam), (4, lam))

    # simple reverse-Markov cases
    _tally(report, "reverse_markov_uniform",
           check_es152([0, 1], Fraction(1, 4)), None)
    _tally(report, "reverse_markov_constant", check_es152([1, 1], Fraction(1, 2)), None)

    # empirical off-diagonal tail at h = 256 against the Hoeffding bound
    h = 256
    q = build_recipe("unit" + ";double" * 8)
    b1 = (rng.integers(0, 2, size=(h, 1), dtype=np.int8) * 2 - 1)
    c1 = border_mod.sign_completion(b1, q)
    u = (c1.astype(np.float64) @ q.dense().astype(np.float64).T) / h
    other = rng.integers(0, 2, size=(h, 10_000)).astype(np.float64) * 2 - 1
    f12 = (u @ other).ravel()
    bound = hoeffding_bound(2.0, [(-abs(x), abs(x)) for x in u.ravel()])
    frac = float(np.mean(np.abs(f12) >= 2.0))
    _tally(report, "hoeffding_tail", frac <= bound + 0.02, (frac, bound))

    # scalar grids
    scalar = check_scalar_inequalities()
    for name, slot in scalar.items():
        if name == "failures":
            for item in slot:
                report.setdefault("failures", []).append(item)
            continue
        merged = report.setdefault(name, {"pass": 0, "fail": 0, "skip": 0})
        for key in ("pass", "fail", "skip"):
            merged[key] += slot[key]

    # growth of g and of the central binomial coefficient
    for h in range(4, 2057, 2):
        g_val = float(g_of_h(h))  # raises if the growth inequality fails
        _tally(report, "diagonal_mean_growth",
               g_val > C_SQRT_2_OVER_PI * math.sqrt(h) + 0.9, h)
        log_binom = math.log(math.comb(h, h // 2))
        log_rhs = (h * math.log(2.0) + 0.5 * math.log(2.0 / (math.pi * h))
                   + math.log1p(-1.0 / (4 * h)))
        _tally(report, "central_binomial", log_binom > log_rhs, h)

    # universal floor versus the coarse power floor
    for d in range(0, 51):
        lhs = math.log(0.07) + d * math.log(0.352)
        rhs = -(d + 3) * math.log(3.0)
        _tally(report, "universal_floor_vs_power", lhs > rhs, d)

    if inject_violation:
        # canary: the tight case with its slack removed must fail
        det = Fraction(1) - 3 * Fraction(1, 5)
        _tally(report, "canary_tight_no_slack",
               det > Fraction(1) - 3 * Fraction(1, 5), "injected")

    failures = report.pop("failures", [])
    ok = all(slot["fail"] == 0 for slot in report.values())
    return {"lemmas": report, "failures": failures, "ok": ok, "seed": seed}
