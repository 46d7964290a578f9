import math
import random

import numpy as np
import pytest

from maxdet.constructions import build_recipe
from maxdet.exact import LogScalar, det_exact, normalized_ratio


def cofactor_det(rows):
    """Independent cofactor-expansion determinant oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestDetExact:
    def test_order2(self):
        assert det_exact([[1, 1], [1, -1]]) == -2

    def test_identity5(self):
        assert det_exact(np.eye(5, dtype=np.int64)) == 1

    def test_non_square(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_against_cofactor_oracle_5x5(self):
        rng = random.Random(5)
        for _ in range(100):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            assert det_exact(rows) == cofactor_det(rows)

    def test_against_cofactor_oracle_all_sizes(self):
        # invariant: agreement on 10^4 random matrices up to 6x6, entries in {-2..2}
        rng = random.Random(99)
        for _ in range(10_000):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            assert det_exact(rows) == cofactor_det(rows)

    def test_int64_input_beyond_2_63(self):
        # Bareiss products of fixed-width entries would wrap silently
        a = np.array([[3 ** 39, 1, 0], [1, 3 ** 39, 1], [0, 1, 3 ** 39]],
                     dtype=np.int64)
        assert det_exact(a) == cofactor_det(a.tolist()) > 2 ** 63

    def test_singular_with_zero_pivot(self):
        rows = [[0, 1, 1], [0, 2, 2], [1, 3, 4]]
        assert det_exact(rows) == cofactor_det(rows) == 0

    @pytest.mark.parametrize("recipe,m", [
        ("unit", 1),
        ("unit;double", 2),
        ("unit;double;double", 4),
        ("unit;double;double;double", 8),
        ("paley1(11)", 12),
        ("unit;double;double;double;double", 16),
        ("unit;double;double;double;double;double", 32),
        ("unit;double;double;double;double;double;double", 64),
    ])
    def test_hadamard_determinant_squares(self, recipe, m):
        h = build_recipe(recipe)
        d = det_exact(h.matrix)
        assert d * d == m ** m


class TestLogScalar:
    def test_from_int(self):
        x = LogScalar.from_int(-48)
        assert x.sign == -1
        assert math.isclose(x.log_abs, math.log(48))
        assert LogScalar.from_int(0).sign == 0

    def test_huge_int(self):
        x = LogScalar.from_int(7 ** 4000)
        assert math.isclose(x.log_abs, 4000 * math.log(7), rel_tol=1e-12)

    def test_mul_signs(self):
        a, b = LogScalar.from_int(-3), LogScalar.from_int(-5)
        p = a * b
        assert p.sign == 1 and math.isclose(p.log_abs, math.log(15))
        assert (a * LogScalar.from_int(0)).sign == 0

    def test_mul_associative_commutative(self):
        rng = random.Random(3)
        for _ in range(200):
            xs = [LogScalar(rng.choice((-1, 1)), rng.uniform(-3, 3))
                  for _ in range(3)]
            a, b, c = xs
            lhs, rhs = (a * b) * c, a * (b * c)
            assert lhs.sign == rhs.sign
            assert abs(lhs.log_abs - rhs.log_abs) < 1e-12
            assert abs((a * b).log_abs - (b * a).log_abs) < 1e-12

    def test_ordering(self):
        assert LogScalar.from_int(-5) < LogScalar.from_int(0) < LogScalar.from_int(3)
        assert LogScalar.from_int(-2) > LogScalar.from_int(-7)
        assert LogScalar.from_int(9) > LogScalar.from_int(8)


class TestNormalizedRatio:
    def test_hadamard_bound_attained(self):
        n = 4
        det = LogScalar.from_int(16)  # 4^(4/2)
        assert abs(normalized_ratio(det, n).log_abs) < 1e-12

    def test_n5_value(self):
        r = normalized_ratio(LogScalar.from_int(48), 5)
        assert math.isclose(r.value(), 48 / 5 ** 2.5, rel_tol=1e-12)
        assert math.isclose(r.value(), 0.858650, abs_tol=5e-7)

    def test_zero_det(self):
        assert normalized_ratio(LogScalar.from_int(0), 7).sign == 0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            normalized_ratio(LogScalar.from_int(1), 0)
