import math
import random

import numpy as np
import pytest

from maxdet.constructions import build_recipe
from maxdet.exact import LogScalar, det_exact, leading_minors


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
        d = det_exact(h.dense())
        assert d * d == m ** m


def assert_adjugate(rows, det, adj):
    n = len(rows)
    for i in range(n):
        for j in range(n):
            s = sum(rows[i][t] * adj[t][j] for t in range(n))
            assert s == (det if i == j else 0)


class TestLeadingMinors:
    def test_empty_and_non_square(self):
        assert leading_minors([]) == []
        with pytest.raises(ValueError):
            leading_minors([[1, 2, 3], [4, 5, 6]])

    def test_random_against_det_exact(self):
        # every leading block's determinant, also past 2^63 and on int64
        rng = random.Random(5)
        for _ in range(2000):
            n = rng.randint(1, 8)
            r = rng.choice([2, 9, 3 ** 30])
            rows = [[rng.randint(-r, r) for _ in range(n)] for _ in range(n)]
            want = [det_exact([row[:w] for row in rows[:w]])
                    for w in range(1, n + 1)]
            got = leading_minors(rows)
            assert got == (None if 0 in want else want)
        a = np.array([[3 ** 39, 1, 0], [1, 3 ** 39, 1], [0, 1, 3 ** 39]],
                     dtype=np.int64)
        assert leading_minors(a) == [det_exact(a[:w, :w])
                                     for w in (1, 2, 3)]
        assert leading_minors(a)[-1] > 2 ** 63

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]],                    # zero first pivot
        [[1, 2, 0], [2, 4, 1], [0, 1, 1]],   # zero second pivot
        [[1, 2], [2, 4]]])                   # zero last minor
    def test_zero_pivot(self, rows):
        assert leading_minors(rows) is None


class TestLogScalar:
    def test_from_int(self):
        x = LogScalar(1, math.log(48))
        assert math.isclose(x.value(), 48.0, rel_tol=1e-12)
        assert LogScalar(0, 0.0).value() == 0.0

    def test_huge_int(self):
        # a determinant far beyond float range keeps an accurate log, and
        # its decimal value overflows to inf rather than raising
        x = LogScalar(1, math.log(7 ** 4000))
        assert math.isclose(x.log_abs, 4000 * math.log(7), rel_tol=1e-12)
        assert x.value() == math.inf

    def test_ordering(self):
        # zero is below every positive value, however small its log
        log = math.log
        assert LogScalar(0, 0.0) < LogScalar(1, -700.0) < LogScalar(1, log(3))
        assert LogScalar(1, log(9)) > LogScalar(1, log(8))
        xs = [LogScalar(1, 2.0), LogScalar(0, 0.0), LogScalar(1, -1.0),
              LogScalar(1, 0.0)]
        assert sorted(xs) == [LogScalar(0, 0.0), LogScalar(1, -1.0),
                              LogScalar(1, 0.0), LogScalar(1, 2.0)]
        assert max(xs) == LogScalar(1, 2.0)
        assert min(xs) == LogScalar(0, 0.0)

    def test_equality_and_hash(self):
        # equal iff both fields are, hashed as the pair (sign, log_abs)
        a, b = LogScalar(1, 0.5), LogScalar(1, 0.5)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash((1, 0.5))
        assert a != LogScalar(0, 0.0) and a != LogScalar(1, 0.25)
        assert len({a, b, LogScalar(0, 0.0), LogScalar(1, 0.25)}) == 3
        assert a <= b and a >= b and not (a < b or a > b)

    def test_immutable(self):
        x = LogScalar(1, 0.5)
        with pytest.raises(AttributeError):
            x.sign = -1

