"""The supporting lemmas of the bounds (Brent, Osborn and Smith, arXiv
1211.3248), one test each.

The random determinant floors and the Hoeffding tail share one sample,
drawn in a fixed order from one stream (``draws``).  The scalar
inequalities run on fixed grids; every test asserts that some case met
its lemma's precondition.  Float checks allow the slack written next to
them; the exact ones (Fraction) allow none.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from maxdet.border import _signs
from maxdet.bounds import C_SQRT_2_OVER_PI as C, g_of_h
from maxdet.constructions import build_recipe
from test_border import iter_all_borders

SEED = 20240601
N_RANDOM = 100_000  # random perturbations, split evenly over d = 1..6
TOL = 1e-12  # float slack of the determinant and chord checks
H_GRID = range(4, 10001, 4)
ALPHAS = (-2.0, -0.5, 0.25, 0.5, 1.0, 2.0, 3.0)
KAPPAS = (-2.0, -1.1 / C, -0.5, 0.5, 1.0, 3.0)


def near_identity_floor_holds(e, eps):
    """det(I - E) >= 1 - d eps, for E (or a stack of E) with |e_ij| <= eps
    and d eps <= 1."""
    d = e.shape[-1]
    return np.linalg.det(np.eye(d) - e) >= (1.0 - d * eps) - TOL


def dd_floor_holds(a, eps):
    """|det A| >= prod |a_ii| (1 - (d-1)^2 eps^2), for A (or a stack of A)
    with |a_ij| <= eps |a_ii| off the diagonal."""
    d = a.shape[-1]
    floor = (np.abs(np.diagonal(a, axis1=-2, axis2=-1)).prod(axis=-1)
             * (1.0 - (d - 1) ** 2 * eps ** 2))
    return np.abs(np.linalg.det(a)) >= floor - TOL


def _exact_fraction(x) -> Fraction:
    """Fraction with Python-int parts, so numpy integers cannot wrap."""
    if isinstance(x, np.generic):
        x = x.item()
    x = Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


def check_es152(sample_space, lam):
    """Exact reverse-Markov tail P(X >= lam) >= (mu - lam) / (1 - lam) for a
    finite distribution on [0, 1].

    sample_space is a sequence of outcomes, or (outcome, weight) pairs.
    Returns None when lam >= mu, where the lemma says nothing.
    """
    pairs = []
    for item in sample_space:
        v, w = item if isinstance(item, tuple) else (item, 1)
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


def hoeffding_bound(t, ranges):
    """Two-sided tail bound 2 exp(-2 t^2 / sum (b_i - a_i)^2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not ranges:
        raise ValueError("ranges must be nonempty")
    return 2.0 * math.exp(-2.0 * t * t / sum((b - a) ** 2 for a, b in ranges))


def log_central_binomial_floor(h):
    """ln of 2^h sqrt(2/(pi h)) (1 - 1/(4h)), a lower bound on C(h, h/2)."""
    return (h * math.log(2.0) + 0.5 * math.log(2.0 / (math.pi * h))
            + math.log1p(-1.0 / (4 * h)))


def central_binomials(h_max):
    """(h, C(h, h/2)) for even h = 0, 2, ..., h_max, exactly, by
    C(h + 2, h/2 + 1) = C(h, h/2) (h + 1)(h + 2) / (h/2 + 1)^2."""
    c = 1
    for h in range(0, h_max + 1, 2):
        yield h, c
        c = c * (h + 1) * (h + 2) // (h // 2 + 1) ** 2


def power_ratio_cases():
    """(h, alpha, n) on H_GRID x ALPHAS where n = h + alpha is an integer
    with n > |alpha|."""
    cases = [(h, a, round(h + a)) for h in H_GRID for a in ALPHAS
             if abs(h + a - round(h + a)) <= 1e-9 and round(h + a) > abs(a)]
    assert cases
    return cases


# the two power-ratio floors at n = h + alpha
POWER_RATIO = {
    # h^h / n^n > (n e)^-alpha
    "power_ratio_floor": lambda h, alpha, n: (
        h * math.log(h) - n * math.log(n) > -alpha * (math.log(n) + 1.0)),
    # (h/n)^n > exp(-alpha - alpha^2/h)
    "tail_bound_normalized": lambda h, alpha, n: (
        n * (math.log(h) - math.log(n)) > -alpha - alpha * alpha / h),
}


def eps_cases():
    """(h, d, eps) under the tail-bound theorem's conditions: h >= 656 on
    H_GRID, 16 d^3 <= h / ln h, and eps = sqrt(4 d ln h / h)."""
    cases = []
    for h in H_GRID:
        d = 1
        while h >= 656 and 16 * d ** 3 <= h / math.log(h):
            cases.append((h, d, math.sqrt(4.0 * d * math.log(h) / h)))
            d += 1
    assert cases
    return cases


# the epsilon system of the tail-bound theorem
EPS_SYSTEM = {
    "eps_product_cap": lambda h, d, eps: d * eps <= 0.5 + 1e-15,
    "eps_lower_bound": lambda h, d, eps: eps >= 8.0 * d / h,
    "eps_upper_bound": lambda h, d, eps: eps <= (C - 0.5) / 1.1 + 1e-15,
    # 2 d^2 exp(-eps^2 h / 8) <= (2 eps)^d, with 1e-12 relative slack
    "tail_mass_balance": lambda h, d, eps: (
        2.0 * d * d * math.exp(-eps * eps * h / 8.0)
        <= (2.0 * eps) ** d * (1.0 + 1e-12)),
    "chord_at_eps_cap": lambda h, d, eps: (
        1.0 - 1.1 * eps / C >= math.exp(-1.7262 * eps) - TOL),
}


@pytest.fixture(scope="module")
def draws():
    """Per d = 1..6 the near-identity, zero-diagonal (d >= 2) and diagonally
    dominant samples as (matrices, eps) pairs, then the Hoeffding check's
    border column and 10 000 sign columns at h = 256, in that order from
    one stream seeded with SEED."""
    rng = np.random.default_rng(SEED)
    per_d = N_RANDOM // 6
    out = {"near": [], "zero_diag": [], "dd": []}
    for d in range(1, 7):
        eps = rng.uniform(0.0, 1.0 / d, per_d)
        e = rng.uniform(-1.0, 1.0, (per_d, d, d)) * eps[:, None, None]
        out["near"].append((e, eps))
        if d >= 2:
            eps = rng.uniform(0.0, 1.0 / (d - 1), per_d)
            e = rng.uniform(-1.0, 1.0, (per_d, d, d)) * eps[:, None, None]
            e[:, np.arange(d), np.arange(d)] = 0.0
            out["zero_diag"].append((e, eps))
        diag = (rng.uniform(0.5, 2.0, (per_d, d))
                * rng.choice([-1.0, 1.0], (per_d, d)))
        eps = rng.uniform(0.0, 1.0, per_d)
        a = rng.uniform(-1.0, 1.0, (per_d, d, d))
        a *= eps[:, None, None] * np.abs(diag)[:, :, None]
        a[:, np.arange(d), np.arange(d)] = diag
        out["dd"].append((a, eps))
    out["b1"] = rng.integers(0, 2, size=(256, 1), dtype=np.int8) * 2 - 1
    out["others"] = (rng.integers(0, 2, size=(256, 10_000)) * 2 - 1
                     ).astype(np.int8)
    return out


def test_near_identity_floor(draws):
    for e, eps in draws["near"]:
        assert near_identity_floor_holds(e, eps).all(), e.shape


def test_near_identity_zero_diag_floor(draws):
    # diag E = 0 and (d-1) eps <= 1: det(I - E) >= (1-(d-1)eps)(1+eps)^(d-1)
    for e, eps in draws["zero_diag"]:
        d = e.shape[-1]
        floor = (1.0 - (d - 1) * eps) * (1.0 + eps) ** (d - 1)
        assert (np.linalg.det(np.eye(d) - e) >= floor - TOL).all(), d


def test_dd_product_floor(draws):
    for a, eps in draws["dd"]:
        assert dd_floor_holds(a, eps).all(), a.shape


def test_near_identity_floor_tight():
    # E = eps J attains the floor: det(I - eps J) = 1 - d eps
    for d, eps in ((3, 0.2), (2, 0.25), (6, 1.0 / 6.0)):
        det = np.linalg.det(np.eye(d) - eps * np.ones((d, d)))
        assert abs(det - (1.0 - d * eps)) <= TOL, (d, eps)


def test_dd_product_floor_tight():
    det = np.linalg.det(np.array([[1.0, 0.3], [0.3, 1.0]]))
    assert abs(det - (1.0 - 0.09)) <= TOL


def test_diagonal_mean_exact():
    # E f11 = g(h) - 1 for f11 = G_11 / h, over every border column
    for h in (4, 8):
        q = build_recipe("unit" + ";double" * (h.bit_length() - 1))
        g11 = [int(res.G[0, 0]) for res in iter_all_borders(q, 1)]
        assert Fraction(sum(g11), h * len(g11)) == g_of_h(h) - 1, h


def test_reverse_markov_exhaustive(h4):
    # the exact distribution of f11 / sqrt(h) = G_11 / 8 at h = 4; its
    # mean is 3/4, where the lemma says nothing
    xs = [Fraction(int(res.G[0, 0]), 8)
          for res in iter_all_borders(h4, 1)]
    outcomes = [check_es152(xs, Fraction(j, 4)) for j in range(4)]
    assert outcomes == [True, True, True, None]


def test_reverse_markov_uniform():
    assert check_es152([0, 1], Fraction(1, 4)) is True


def test_reverse_markov_constant():
    assert check_es152([1, 1], Fraction(1, 2)) is True


def test_hoeffding_tail(draws):
    # P(|f12| >= 2) for f12 = c1 Q^T b2 / h at h = 256, over 10 000 sign
    # columns b2, against the Hoeffding bound plus 0.02 of sampling slack
    h = 256
    q = build_recipe("unit" + ";double" * 8)
    c1 = _signs(q.rmatmul(draws["b1"]))
    u = (c1.astype(np.float64) @ q.dense().astype(np.float64).T) / h
    f12 = (u @ draws["others"].astype(np.float64)).ravel()
    bound = hoeffding_bound(2.0, [(-abs(x), abs(x)) for x in u.ravel()])
    assert np.mean(np.abs(f12) >= 2.0) <= bound + 0.02


@pytest.mark.parametrize("name", POWER_RATIO)
def test_power_ratio(name):
    for h, alpha, n in power_ratio_cases():
        assert POWER_RATIO[name](h, alpha, n), (h, alpha)


def test_chord_below_exp():
    # 1 + kappa eps >= exp(beta eps) on [0, eps0] for the chord slope
    # beta = ln(1 + kappa eps0) / eps0, wherever |kappa eps0| < 1: on all
    # 18 pairs but kappa = -2 and kappa = 3 at eps0 = 0.5
    checked = 0
    for kappa in KAPPAS:
        for eps0 in (0.1, 0.271, 0.5):
            if abs(kappa * eps0) >= 1.0:
                continue
            beta = math.log1p(kappa * eps0) / eps0
            for eps in np.linspace(0.0, eps0, 41):
                assert (1.0 + kappa * eps
                        >= math.exp(beta * eps) - TOL), (kappa, eps0, eps)
            checked += 1
    assert checked == 16


@pytest.mark.parametrize("name", EPS_SYSTEM)
def test_eps_system(name):
    for h, d, eps in eps_cases():
        assert EPS_SYSTEM[name](h, d, eps), (h, d)


def test_diagonal_mean_floor():
    # ln(g(h) - 1) = ln(h C(h, h/2) / 2^h) >= ln(c - eps/10) + ln(h) / 2
    binom = dict(central_binomials(H_GRID[-1]))
    assert binom[H_GRID[-1]] == math.comb(H_GRID[-1], H_GRID[-1] // 2)
    for h, d, eps in eps_cases():
        log_g_minus_1 = math.log(h) + math.log(binom[h]) - h * math.log(2.0)
        assert (log_g_minus_1
                >= math.log(C - eps / 10.0) + 0.5 * math.log(h) - TOL), (h, d)


def test_diagonal_mean_growth():
    # g(h) > c sqrt(h) + 0.9 for even h >= 4
    for h in range(4, 2057, 2):
        assert float(g_of_h(h)) > C * math.sqrt(h) + 0.9, h


def test_central_binomial():
    for h, binom in central_binomials(2056):
        if h >= 4:
            assert math.log(binom) > log_central_binomial_floor(h), h


def test_universal_floor_vs_power():
    # 0.07 * 0.352^d > 3^-(d+3)
    for d in range(51):
        assert (math.log(0.07) + d * math.log(0.352)
                > -(d + 3) * math.log(3.0)), d
