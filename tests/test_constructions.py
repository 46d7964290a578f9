import numpy as np
import pytest

from maxdet.constructions import (_PALEY2_K, _PALEY2_L, CONFERENCE,
                                  HADAMARD, QuasiOrthogonal, build_order,
                                  build_recipe, kronecker, paley_conference,
                                  paley_one, paley_two, plan_recipe,
                                  sylvester_double, unit, validate)
from maxdet.exact import det_exact


def gram_oracle(m):
    """Independent exact Gram product (object-dtype, no float path)."""
    a = np.array(m, dtype=object)
    return a @ a.T


class TestPaleyOne:
    def test_order4(self):
        q = paley_one(3)
        assert q.order == 4 and q.weight == 4 and q.kind == HADAMARD
        gram = gram_oracle(q.matrix.tolist())
        assert (gram == 4 * np.eye(4, dtype=object)).all()
        assert validate(q)

    def test_normalized_first_row_col(self):
        q = paley_one(7)
        assert np.all(q.matrix[0] == 1) and np.all(q.matrix[:, 0] == 1)

    def test_order332(self):
        q = paley_one(331)
        assert q.order == 332 and validate(q)

    def test_rejects_1_mod_4(self):
        with pytest.raises(ValueError):
            paley_one(5)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            paley_one(15)


class TestPaleyTwo:
    def test_order12(self):
        q = paley_two(5)
        assert q.order == 12 and q.weight == 12
        gram = gram_oracle(q.matrix.tolist())
        assert (gram == 12 * np.eye(12, dtype=object)).all()

    def test_order2868(self):
        q = paley_two(1433)
        assert q.order == 2868 and validate(q)

    def test_rejects_3_mod_4(self):
        with pytest.raises(ValueError):
            paley_two(3)


class TestPaleyConference:
    def test_order6(self):
        q = paley_conference(5)
        assert q.order == 6 and q.weight == 5 and q.kind == CONFERENCE
        gram = gram_oracle(q.matrix.tolist())
        assert (gram == 5 * np.eye(6, dtype=object)).all()
        assert validate(q)

    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_symmetric(self, p):
        q = paley_conference(p)
        assert np.array_equal(q.matrix, q.matrix.T)

    def test_order710(self):
        q = paley_conference(709)
        assert q.order == 710 and validate(q)

    def test_rejects(self):
        with pytest.raises(ValueError):
            paley_conference(7)


class TestSylvesterAndKronecker:
    def test_unit_double(self):
        q = sylvester_double(unit())
        assert q.matrix.tolist() == [[1, 1], [1, -1]]

    def test_five_doublings(self):
        q = paley_one(3)
        for _ in range(5):
            q = sylvester_double(q)
            assert validate(q)
        assert q.order == 128

    def test_double_rejects_conference(self):
        with pytest.raises(ValueError):
            sylvester_double(paley_conference(5))

    def test_kron_h2_h2(self):
        h2 = sylvester_double(unit())
        q = kronecker(h2, h2)
        assert q.order == 4 and validate(q)

    def test_kron_h4_h4(self):
        h4 = build_recipe("unit;double;double")
        q = kronecker(h4, h4)
        assert q.order == 16 and validate(q)

    def test_kron_rejects_conference(self):
        with pytest.raises(ValueError):
            kronecker(sylvester_double(unit()), paley_conference(5))


class TestKronOracle:
    @pytest.mark.parametrize("p", [5, 13, 29])
    def test_paley_two_matches_np_kron(self, p):
        conf = paley_conference(p).matrix
        eye = np.eye(p + 1, dtype=np.int8)
        oracle = np.kron(conf, _PALEY2_K) + np.kron(eye, _PALEY2_L)
        h = paley_two(p).matrix
        assert h.dtype == np.int8 and np.array_equal(h, oracle)

    @pytest.mark.parametrize("r1,r2", [("unit;double", "paley1(3)"),
                                       ("paley1(7)", "paley2(5)"),
                                       ("unit", "paley1(11)")])
    def test_kronecker_matches_np_kron(self, r1, r2):
        q1, q2 = build_recipe(r1), build_recipe(r2)
        h = kronecker(q1, q2).matrix
        assert h.dtype == np.int8
        assert np.array_equal(h, np.kron(q1.matrix, q2.matrix))


class TestRmatmul:
    """The structured B^T Q against the dense int64 product."""

    @staticmethod
    def check(recipe, d, seed=0):
        q = build_recipe(recipe)
        rng = np.random.default_rng(seed)
        b = (rng.integers(0, 2, size=(q.order, d)) * 2 - 1).astype(np.int8)
        p = q.rmatmul(b)
        assert p.dtype == np.int64 and p.shape == (d, q.order)
        assert np.array_equal(p, b.T.astype(np.int64)
                              @ q.matrix.astype(np.int64))

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("recipe", [
        "unit;double;double", "paley1(7)", "paley1(331);double",
        "conference(13)", "conference(709)", "paley2(5)", "paley2(1433)",
        "kron(paley1(3),paley1(7))"])
    def test_matches_dense(self, recipe, d):
        self.check(recipe, d)

    def test_conference_5749_d8(self):
        self.check("conference(5749)", 8)

    @pytest.mark.parametrize("recipe", ["paley2(5);double", "conference(13)"])
    def test_empty_block(self, recipe):
        q = build_recipe(recipe)
        p = q.rmatmul(np.zeros((q.order, 0), dtype=np.int8))
        assert p.shape == (0, q.order) and p.dtype == np.int64

    def test_hand_built_parts(self):
        m = build_recipe("paley2(5)").matrix
        q = QuasiOrthogonal(m, 12, 12, HADAMARD, "by hand")
        q = kronecker(sylvester_double(q), build_recipe("paley1(3)"))
        b = np.random.default_rng(2).integers(-1, 2, size=(q.order, 3))
        assert np.array_equal(q.rmatmul(b), b.T @ q.matrix.astype(np.int64))

    def test_integer_input(self):
        q = build_recipe("kron(paley2(5),paley1(3));double")
        b = np.random.default_rng(1).integers(-9, 10, size=(q.order, 3))
        assert np.array_equal(q.rmatmul(b),
                              b.T @ q.matrix.astype(np.int64))


class TestValidate:
    def test_flipped_entry_fails(self):
        q = paley_one(7)
        bad = q.matrix.copy()
        bad[3, 5] = -bad[3, 5]
        broken = type(q)(matrix=bad, order=q.order, weight=q.weight,
                         kind=q.kind, recipe=q.recipe)
        assert not validate(broken)

    def test_unit(self):
        assert validate(unit())

    def test_det_identity_small_orders(self):
        for recipe, k, m in [("paley1(11)", 12, 12),
                             ("conference(5)", 5, 6),
                             ("conference(13)", 13, 14),
                             ("paley2(5)", 12, 12)]:
            q = build_recipe(recipe)
            d = det_exact(q.matrix)
            assert d * d == k ** m


class TestRecipes:
    def test_plan_examples(self):
        assert plan_recipe(HADAMARD, 664) == "paley1(331);double"
        assert plan_recipe(HADAMARD, 2868) == "paley2(1433)"
        assert plan_recipe(HADAMARD, 4) == "paley1(3)"
        assert plan_recipe(HADAMARD, 1) == "unit"
        assert plan_recipe(HADAMARD, 2) == "unit;double"
        assert plan_recipe(CONFERENCE, 710) == "conference(709)"
        assert plan_recipe(CONFERENCE, 6) == "conference(5)"

    def test_plan_unreachable(self):
        # 92 = 4*23: 91, 45, and 22 give no Paley prime; 92 != 2^j
        assert plan_recipe(HADAMARD, 92) is None
        assert plan_recipe(CONFERENCE, 8) is None

    def test_plan_round_trip(self):
        for order in (4, 8, 12, 20, 24, 28, 32, 44, 48, 664, 672):
            recipe = plan_recipe(HADAMARD, order)
            assert recipe is not None, order
            q = build_recipe(recipe)
            assert q.order == order and q.kind == HADAMARD

    def test_build_order_error_names_nearest(self):
        with pytest.raises(ValueError, match="nearest realizable"):
            build_order(HADAMARD, 92)

    def test_kron_recipe_parses(self):
        q = build_recipe("kron(unit;double,unit;double)")
        assert q.order == 4 and validate(q)
        q2 = build_recipe(q.recipe)
        assert np.array_equal(q2.matrix, q.matrix)

    def test_bad_recipes(self):
        for recipe in ("", "bogus", "paley1(6)", "unit;triple",
                       "kron(unit)", "paley1(3);double;oops"):
            with pytest.raises(ValueError):
                build_recipe(recipe)


def test_all_plannable_orders_up_to_600_validate():
    # smaller sibling of the full acceptance sweep (<= 2000)
    for m in range(4, 601, 4):
        recipe = plan_recipe(HADAMARD, m)
        if recipe is not None:
            assert validate(build_recipe(recipe)), recipe
    for m in range(6, 601, 4):
        recipe = plan_recipe(CONFERENCE, m)
        if recipe is not None:
            assert validate(build_recipe(recipe)), recipe
