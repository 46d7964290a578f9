import math
from fractions import Fraction

import numpy as np
import pytest

from maxdet import bounds
from maxdet.bounds import (BOUND_COLUMNS, evaluate_bounds, h0,
                           passes_small_border_floor, passes_uniform_floor)
from oracles import g_of_h, maxdet_oracle
from test_border import iter_all_borders
from test_lemmas import (POWER_RATIO, check_es152, dd_floor_holds,
                         hoeffding_bound, log_central_binomial_floor,
                         near_identity_floor_holds)


# the bracket on pi e that the floors hold as integer pairs, as Fractions
PI_E_LO, PI_E_HI = (Fraction(*pair) for pair in (bounds.PI_E_LO,
                                                 bounds.PI_E_HI))


class TestGofH:
    def test_g4_exact(self):
        assert g_of_h(4) == Fraction(5, 2)

    def test_g4_above_growth_floor(self):
        assert float(g_of_h(4)) > 0.79788 * 2 + 0.9

    def test_binomial_bound_h4(self):
        lb = math.exp(log_central_binomial_floor(4))
        assert math.isclose(lb, 5.9841, abs_tol=5e-4)
        assert 6 > lb

    def test_binomial_bound_many(self):
        for h in range(2, 300, 2):
            log_binom = math.log(math.comb(h, h // 2))
            assert log_binom > log_central_binomial_floor(h)

    def test_odd_h_rejected(self):
        with pytest.raises(ValueError):
            g_of_h(5)


# far above 2^40 the logarithms cannot tell a threshold from its neighbour
LOG_RESOLUTION = 1 << 40


def uniform_floor(d):
    return Fraction(49, 10 ** 4) * Fraction(44, 125) ** (2 * d)


def floor_sides(m, k, width, floor):
    """Dbar(n)^2 > floor iff k^(m - 2 width) det_n^2 > floor n^n: the
    Fraction k^(m - 2 width) and the right side.  Every Fraction step has
    one small operand, so no gcd of two big integers is taken."""
    n = m + width
    return Fraction(k) ** (m - 2 * width), floor * Fraction(n) ** n


def sampled_dets(m, k, width, floor, seed):
    """det_n values near the floor's threshold, far from it, and 0, 1."""
    unit, rhs = floor_sides(m, k, width, floor)
    x = (rhs.numerator * unit.denominator) // (rhs.denominator
                                               * unit.numerator)
    t = math.isqrt(x) + 1  # the smallest |det_n| above the floor
    rng = np.random.default_rng(seed)
    far = [t * int(f) // 1000 for f in rng.integers(1, 10 ** 6, size=4)]
    return [t - 1, -t, 0, 1, *far]


# (m, k, width, d) of Table 1 cells, up to the core of its largest row
TABLE1_SAMPLES = [(664, 664, 5, 5), (710, 709, 6, 6), (2868, 2868, 10, 10),
                  (5750, 5749, 8, 14), (23994, 23993, 4, 18),
                  (60458, 60457, 20, 22)]


class TestH0:
    def test_h0_1(self):
        expected = (math.e * math.sqrt(math.pi / 2) + 1) ** 2
        assert h0(1) == pytest.approx(expected)
        assert 19.42 < h0(1) < 19.43

    def test_h0_3(self):
        expected = (math.e * (math.pi / 2) ** 1.5 * 2 + 3) ** 2
        assert h0(3) == pytest.approx(expected)
        assert 187 < h0(3) < 188

    def test_increasing(self):
        vals = [h0(d) for d in range(1, 11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            h0(0)


def entry(n, h, d, name):
    """The row of bound ``name`` at (n, h, d)."""
    rows = evaluate_bounds(n, h, d)["bounds"]
    return next(row for row in rows if row["name"] == name)


class TestEvaluateBounds:
    def test_assume_h_constant(self):
        val = entry(15, 12, 3, "small_border_normalized")["value_decimal"]
        assert 0.1133 < val < 0.1134

    def test_tail_bound_at_656(self):
        eps = evaluate_bounds(657, 656, 1)["context"]["epsilon"]
        assert abs(eps - 0.19888) < 1e-4
        e = entry(657, 656, 1, "tail_bound")
        assert e["applicable"]
        expected = math.sqrt(2 / math.pi) * math.exp(-2.31 * eps)
        assert math.isclose(e["value_decimal"], expected, rel_tol=1e-12)
        assert abs(e["value_decimal"] - 0.50399) < 1e-4

    def test_tail_bound_applicability_boundary(self):
        assert entry(657, 656, 1, "tail_bound")["applicable"]
        assert not entry(658, 656, 2, "tail_bound")["applicable"]

    def test_small_border_window(self):
        assert entry(13, 12, 1, "small_border")["applicable"]
        assert entry(15, 12, 3, "small_border")["applicable"]
        assert not entry(16, 12, 4, "small_border")["applicable"]
        assert not entry(12, 12, 0, "small_border")["applicable"]

    def test_relaxed_core_window(self):
        assert entry(668, 664, 4, "relaxed_core")["applicable"]
        # delta = 6*8^3/664 > 1
        assert not entry(672, 664, 8, "relaxed_core")["applicable"]

    def test_direct_expectation_needs_h0(self):
        assert entry(21, 20, 1, "direct_expectation")["applicable"]
        assert not entry(17, 16, 1, "direct_expectation")["applicable"]

    def test_normalized_values_in_unit_interval(self):
        for h, d in [(664, 0), (664, 1), (664, 3), (664, 6), (2868, 9),
                     (5744, 14), (656, 1), (60456, 22)]:
            for e in evaluate_bounds(h + d, h, d)["bounds"]:
                if e["applicable"] and e["target"] == "Dbar(n)":
                    assert e["value_decimal"] > 0.0
                    assert e["value_log"] <= 0.0, e["name"]

    def test_strength_ordering(self):
        tail = entry(666, 664, 2, "tail_bound_normalized")
        direct = entry(666, 664, 2, "direct_expectation_normalized")
        if tail["applicable"] and direct["applicable"]:
            assert tail["value_log"] < direct["value_log"]
        small = entry(666, 664, 2, "small_border_normalized")
        assert small["applicable"]
        assert (entry(666, 664, 2, "universal_floor")["value_log"]
                < small["value_log"])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            evaluate_bounds(10, 8, 1)

    def test_report_serialization(self):
        rep = evaluate_bounds(669, 664, 5)
        assert list(rep) == ["n", "h", "d", "context", "bounds"]
        assert list(rep["context"]) == ["epsilon", "delta", "h0_d"]
        assert BOUND_COLUMNS == ("name", "applicable", "target",
                                 "value_log", "value_decimal")
        # delta = 6*5^3/664 > 1/0.93, where log1p(-0.93 delta) is undefined:
        # a bound that does not apply has no value
        for row in rep["bounds"]:
            assert tuple(row) == BOUND_COLUMNS + ("reason",)
            assert (row["value_log"] is None) == (not row["applicable"])
            assert (row["value_decimal"] is None) == (not row["applicable"])
        assert len(rep["bounds"]) == 9


class TestOracle:
    # D(1..4) and D(6) are checked by acceptance criteria 05 and 05s
    def test_n5(self):
        assert maxdet_oracle(5) == 48

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            maxdet_oracle(7)
        with pytest.raises(ValueError):
            maxdet_oracle(0)


class TestPertBounds:
    @staticmethod
    def dd_ratio(a):
        """The smallest eps with |a_ij| <= eps |a_ii| off the diagonal."""
        off = np.abs(a) / np.abs(np.diagonal(a))[:, None]
        np.fill_diagonal(off, 0.0)
        return float(off.max())

    def test_tight_all_ones(self):
        e = 0.2 * np.ones((3, 3))
        a = np.eye(3) - e
        assert abs(float(np.linalg.det(a)) - 0.4) <= 1e-12
        assert near_identity_floor_holds(e, 0.2)
        assert dd_floor_holds(a, self.dd_ratio(a))

    def test_nice_bound_equality_2x2(self):
        a = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert dd_floor_holds(a, 0.3)
        assert math.isclose(np.linalg.det(a), 1 - 0.09, rel_tol=1e-14)

    def test_skip_marker(self):
        # outside d eps <= 1 the floor need not hold: at d = 2, eps = 2,
        # det(I - E) = (1 - 2)(1 + 2) - 4 = -7 < 1 - d eps = -3
        e = np.array([[2.0, 2.0], [2.0, -2.0]])
        assert not near_identity_floor_holds(e, 2.0)

    def test_random_never_violated(self):
        rng = np.random.default_rng(77)
        for _ in range(2000):
            d = int(rng.integers(1, 7))
            eps = rng.uniform(0, 1 / d)
            e = rng.uniform(-eps, eps, (d, d))
            a = np.eye(d) - e
            assert near_identity_floor_holds(e, np.abs(e).max())
            assert dd_floor_holds(a, self.dd_ratio(a))

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            near_identity_floor_holds(np.zeros((2, 3)), 0.0)


class TestES152:
    def test_uniform01(self):
        assert check_es152([0, 1], Fraction(1, 4)) is True

    def test_constant_one(self):
        assert check_es152([1, 1, 1], Fraction(1, 2)) is True

    def test_skip_when_lambda_at_mean(self):
        assert check_es152([0, 1], Fraction(1, 2)) is None

    def test_weighted(self):
        assert check_es152([(0, 3), (1, 1)], Fraction(1, 8)) is True

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_es152([2], 0)

    def test_exhaustive_f11_distribution(self, h4):
        xs = [Fraction(int(res.G[0, 0]), 8)
              for res in iter_all_borders(h4, 1)]
        assert len(xs) == 16
        assert check_es152(xs, Fraction(1, 2)) is True

    def test_numpy_integer_fractions(self):
        xs = [Fraction(np.int64(v), 8) for v in (4, 8, 4, 8)]
        weights = [(x, np.int64(3)) for x in xs]
        assert check_es152(xs, Fraction(np.int64(1), 2)) is True
        assert check_es152(weights, np.int64(0)) is True
        # numpy parts near 2^62 would wrap in fixed width
        big = np.int64(1 << 62)
        assert check_es152([(Fraction(np.int64(1), 2), big), (1, big)],
                           Fraction(1, 4)) is True


class TestUniformFloor:
    @staticmethod
    def oracle(det_n, m, k, width, d):
        n = m + width
        dbar_sq = Fraction(k ** m * det_n ** 2, k ** (2 * width) * n ** n)
        return dbar_sq > Fraction(49, 10 ** 4) * Fraction(44, 125) ** (2 * d)

    @staticmethod
    def threshold(m, k, width, d):
        """Smallest |det_n| that passes, by exact rational arithmetic."""
        n = m + width
        x = Fraction(49 * 44 ** (2 * d) * n ** n * k ** (2 * width),
                     10 ** 4 * 125 ** (2 * d) * k ** m)
        return math.isqrt(math.floor(x)) + 1

    @pytest.mark.parametrize("m,k,width,d", [
        (4, 4, 1, 1), (12, 12, 3, 3), (6, 5, 4, 2), (2, 2, 5, 5),
        (664, 664, 5, 5), (710, 709, 7, 5)])
    def test_boundary_matches_fractions(self, m, k, width, d, exact_floor_calls):
        t = self.threshold(m, k, width, d)
        for det_n in (t - 1, t, -t, t + 1, 0, 1):
            assert passes_uniform_floor(det_n, m, k, width, d) \
                == self.oracle(det_n, m, k, width, d), det_n
        for det_n in (t - 1, t):
            exact_floor_calls.clear()
            assert passes_uniform_floor(det_n, m, k, width, d) == (det_n == t)
            # the logarithms decide unless the threshold is too large for
            # them to separate t - 1 from t (or det N = 0)
            assert len(exact_floor_calls) == (det_n == 0 or t > LOG_RESOLUTION)

    @pytest.mark.parametrize("m,k,width,d", TABLE1_SAMPLES)
    def test_table1_samples_match_fractions(self, m, k, width, d):
        floor = uniform_floor(d)
        unit, rhs = floor_sides(m, k, width, floor)
        for det_n in sampled_dets(m, k, width, floor, m):
            assert passes_uniform_floor(det_n, m, k, width, d) \
                == (unit * det_n ** 2 > rhs), det_n

    def test_numpy_det(self):
        assert passes_uniform_floor(np.int64(48), 4, 4, 1, 1) is True


class TestSmallBorderFloor:
    @staticmethod
    def series_bounds():
        """Rational bounds on pi e from series, independent of the literals:
        e from its factorial series (tail below 2/31!), pi by Machin's
        formula with each arctan between two partial sums."""
        e_lo = sum(Fraction(1, math.factorial(j)) for j in range(31))
        e_hi = e_lo + Fraction(2, math.factorial(31))

        def arctan(x, terms=60):
            parts = [(-1) ** j * x ** (2 * j + 1) / (2 * j + 1)
                     for j in range(terms + 1)]
            return sum(parts[:-1]), sum(parts)  # alternating: lo, hi

        a_lo, a_hi = arctan(Fraction(1, 5))
        b_lo, b_hi = arctan(Fraction(1, 239))
        pi_lo, pi_hi = 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo
        return pi_lo * e_lo, pi_hi * e_hi

    def test_bracket(self):
        lo, hi = self.series_bounds()
        assert PI_E_LO < lo < hi < PI_E_HI
        assert PI_E_HI - PI_E_LO < Fraction(1, 10 ** 25)

    @staticmethod
    def oracle(det_n, m, k, width, d):
        n = m + width
        dbar_sq = Fraction(k ** m * det_n ** 2, k ** (2 * width) * n ** n)
        if dbar_sq > (2 / PI_E_LO) ** d:
            return True
        if dbar_sq <= (2 / PI_E_HI) ** d:
            return False
        return None

    @staticmethod
    def threshold(m, k, width, d, pi_e):
        """Smallest |det_n| with k^m det_n^2 pi_e^d > 2^d k^(2 width) n^n."""
        n = m + width
        x = Fraction(2 ** d * n ** n * k ** (2 * width), k ** m) / pi_e ** d
        return math.isqrt(math.floor(x)) + 1

    @pytest.mark.parametrize("m,k,width,d", [
        (4, 4, 1, 1), (12, 12, 3, 3), (6, 5, 4, 2), (2, 2, 5, 5),
        (664, 664, 5, 5), (710, 709, 7, 5), (4096, 4096, 20, 20)])
    def test_boundary_matches_fractions(self, m, k, width, d, exact_floor_calls):
        t_true = self.threshold(m, k, width, d, PI_E_LO)
        t_open = self.threshold(m, k, width, d, PI_E_HI)  # first non-false
        assert t_open <= t_true
        for det_n in (t_true - 1, t_true, -t_true, t_true + 1,
                      t_open - 1, t_open, 0, 1):
            assert passes_small_border_floor(det_n, m, k, width, d) \
                == self.oracle(det_n, m, k, width, d), det_n
        assert passes_small_border_floor(t_true, m, k, width, d) is True
        below = passes_small_border_floor(t_true - 1, m, k, width, d)
        assert below is (None if t_true - 1 >= t_open else False)
        assert passes_small_border_floor(t_open - 1, m, k, width, d) is False
        # the logarithms decide unless the thresholds are too large for
        # them to separate neighbours, and then one exact call decides both
        # floors
        for det_n in (t_true - 1, t_true, t_open - 1, t_open, 0):
            exact_floor_calls.clear()
            passes_small_border_floor(det_n, m, k, width, d)
            assert len(exact_floor_calls) == (
                det_n == 0 or t_open > LOG_RESOLUTION), det_n

    @pytest.mark.parametrize("m,k,width,d", TABLE1_SAMPLES)
    def test_table1_samples_match_fractions(self, m, k, width, d,
                                            exact_floor_calls):
        lo, hi = (floor_sides(m, k, width, (2 / pi_e) ** d)
                  for pi_e in (PI_E_LO, PI_E_HI))
        for det_n in sampled_dets(m, k, width, (2 / PI_E_LO) ** d, m):
            exact_floor_calls.clear()
            want = (True if lo[0] * det_n ** 2 > lo[1] else
                    False if hi[0] * det_n ** 2 <= hi[1] else None)
            assert passes_small_border_floor(det_n, m, k, width, d) is want, \
                det_n
            assert len(exact_floor_calls) <= 1, det_n

    def test_undecided_band(self):
        # at m = 4096, d = 20 the thresholds are near 10^108 and the bracket
        # on pi e leaves integers that neither side decides
        m, k, width, d = 4096, 4096, 20, 20
        t_true = self.threshold(m, k, width, d, PI_E_LO)
        t_open = self.threshold(m, k, width, d, PI_E_HI)
        assert t_true - t_open > 1
        assert passes_small_border_floor(t_open, m, k, width, d) is None
        assert passes_small_border_floor(t_true - 1, m, k, width, d) is None

    def test_numpy_det(self):
        assert passes_small_border_floor(np.int64(48), 4, 4, 1, 1) is True


class TestHoeffding:
    def test_unit_norm_case(self):
        val = hoeffding_bound(2.0, [(-1, 1)])  # sum (b-a)^2 = 4
        assert math.isclose(val, 2 * math.exp(-2), rel_tol=1e-12)

    def test_monotone_to_zero(self):
        vals = [hoeffding_bound(t, [(-1, 1), (-0.5, 0.5)])
                for t in (1, 2, 4, 8, 16)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-40

    def test_guards(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0, [(-1, 1)])
        with pytest.raises(ValueError):
            hoeffding_bound(1, [])


class TestScalarInequalities:
    def test_spec_points(self):
        # both power-ratio floors at n = h + alpha, from n = 5 on
        for h in (4, 16, 656, 1000):
            for alpha in (1.0, 2.0):
                for name, holds in POWER_RATIO.items():
                    assert holds(h, alpha, h + round(alpha)), (name, h, alpha)

    def test_eps_cap_value(self):
        # at h = 656 every admissible epsilon is below (2 ln h / h)^(1/3),
        # which itself sits below the chord cap (sqrt(2/pi) - 0.5)/1.1
        root_bound = (2 * math.log(656) / 656) ** (1 / 3)
        assert 0.2703 < root_bound < 0.2705
        assert root_bound <= (math.sqrt(2 / math.pi) - 0.5) / 1.1
