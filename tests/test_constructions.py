import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import maxdet
from maxdet import cli, constructions
from maxdet.border import _sign_completion
from maxdet.constructions import (CONFERENCE, HADAMARD, ExactnessError,
                                  QuasiOrthogonal, build_recipe, kronecker,
                                  paley_conference, paley_one, paley_two,
                                  plan_recipe, sylvester_double, unit)
from maxdet.exact import det_exact
from oracles import validate, walsh_hadamard

# Independent dense oracles: the textbook definitions, built with no maxdet
# code (Euler's criterion for the Legendre symbol, np.kron, np.block).
PALEY2_K = np.array([[1, 1], [1, -1]], dtype=np.int8)
PALEY2_L = np.array([[1, -1], [-1, -1]], dtype=np.int8)


def legendre(x, p):
    """The Legendre symbol (x/p) by Euler's criterion."""
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def jacobsthal_oracle(p):
    """J[i, j] = (j - i / p), as int8."""
    chi = np.array([legendre(x, p) for x in range(p)], dtype=np.int8)
    return np.array([np.roll(chi, i) for i in range(p)])


def paley_one_oracle(p):
    j = jacobsthal_oracle(p)
    ones = np.ones((p, 1), dtype=np.int8)
    return np.block([[np.ones((1, 1), dtype=np.int8), ones.T],
                     [ones, -(np.eye(p, dtype=np.int8) + j)]])


def conference_oracle(p):
    ones = np.ones((p, 1), dtype=np.int8)
    return np.block([[np.zeros((1, 1), dtype=np.int8), ones.T],
                     [ones, jacobsthal_oracle(p)]])


def paley_two_oracle(p):
    eye = np.eye(p + 1, dtype=np.int8)
    return np.kron(conference_oracle(p), PALEY2_K) + np.kron(eye, PALEY2_L)


def double_oracle(q):
    return np.block([[q, q], [q, -q]])


def recipe_oracle(recipe):
    """Dense int8 Q for a recipe, from the oracles above."""
    if recipe.endswith(";double"):
        return double_oracle(recipe_oracle(recipe[:-len(";double")]))
    if recipe == "unit":
        return np.ones((1, 1), dtype=np.int8)
    if recipe.startswith("kron("):
        depth = 0
        for i, ch in enumerate(recipe):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 1:
                return np.kron(recipe_oracle(recipe[5:i]),
                               recipe_oracle(recipe[i + 1:-1]))
    name, p = recipe[:-1].split("(")
    return {"paley1": paley_one_oracle, "paley2": paley_two_oracle,
            "conference": conference_oracle}[name](int(p))


def gram_oracle(m):
    """Independent exact Gram product (object-dtype, no float path)."""
    a = np.array(m, dtype=object)
    return a @ a.T


def matrix_core(m, kind=HADAMARD, weight=None):
    """A hand-built core whose operator is the dense product with m."""
    m = np.asarray(m, dtype=np.int64)
    return QuasiOrthogonal(len(m), len(m) if weight is None else weight,
                           kind, "by hand",
                           lambda x, out: np.matmul(x, m, out=out))


class TestCoreRecord:
    def test_work_not_shared(self):
        # rmatmul reads B^T in place and keeps nothing in the core's work;
        # the sign completion keeps P and a block of C there, in the core
        # that made them
        a, b = build_recipe("paley1(11)"), build_recipe("paley1(11)")
        assert a.work == {} and a.work is not b.work
        a.rmatmul(np.ones((12, 2), dtype=np.int8))
        assert a.work == {}
        _sign_completion(np.ones((1, 2, 12), dtype=np.int8), a)
        assert set(a.work) == {"p", "c"} and b.work == {}


class TestPaleyOne:
    def test_order4(self):
        q = paley_one(3)
        assert q.order == 4 and q.weight == 4 and q.kind == HADAMARD
        gram = gram_oracle(q.dense().tolist())
        assert (gram == 4 * np.eye(4, dtype=object)).all()
        assert validate(q)

    def test_normalized_first_row_col(self):
        m = paley_one(7).dense()
        assert np.all(m[0] == 1) and np.all(m[:, 0] == 1)

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 43, 331])
    def test_matches_legendre_oracle(self, p):
        assert np.array_equal(paley_one(p).dense(), paley_one_oracle(p))

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
        gram = gram_oracle(q.dense().tolist())
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
        gram = gram_oracle(q.dense().tolist())
        assert (gram == 5 * np.eye(6, dtype=object)).all()
        assert validate(q)

    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_symmetric(self, p):
        m = paley_conference(p).dense()
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 41, 709])
    def test_matches_legendre_oracle(self, p):
        assert np.array_equal(paley_conference(p).dense(),
                              conference_oracle(p))

    def test_order710(self):
        q = paley_conference(709)
        assert q.order == 710 and validate(q)

    def test_rejects(self):
        with pytest.raises(ValueError):
            paley_conference(7)


class TestCharacterCertificate:
    """Each Paley generator certifies its quadratic character when built."""

    @staticmethod
    def patch(monkeypatch, p, changes):
        real = constructions._quadratic_character

        def patched(q):
            chi = real(q)
            if q == p:
                for x, value in changes.items():
                    chi[x] = value
            return chi

        monkeypatch.setattr(constructions, "_quadratic_character", patched)

    @pytest.mark.parametrize("build,p", [(paley_one, 7),
                                         (paley_conference, 13),
                                         (paley_two, 13)])
    def test_flipped_sign_raises(self, monkeypatch, build, p):
        build(p)
        self.patch(monkeypatch, p, {1: -1})  # 1 is a square
        with pytest.raises(ExactnessError, match="sign, sum or symmetry"):
            build(p)

    def test_broken_antisymmetry_raises(self, monkeypatch):
        # chi(1) -> -1 and chi(3) -> +1 keep the sum at 0, but
        # chi(-1) = chi(6) = -1 no longer equals -chi(1)
        self.patch(monkeypatch, 7, {1: -1, 3: 1})
        with pytest.raises(ExactnessError, match="sign, sum or symmetry"):
            paley_one(7)

    def test_broken_autocorrelation_raises(self, monkeypatch):
        # swap the squares {1, 12} with the non-squares {2, 11}: signs, sum
        # and symmetry survive, the autocorrelation does not
        self.patch(monkeypatch, 13, {1: -1, 12: -1, 2: 1, 11: 1})
        with pytest.raises(ExactnessError, match="autocorrelation"):
            paley_conference(13)

    def test_raises_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            from maxdet import constructions as c
            real = c._quadratic_character

            def flipped(p):
                chi = real(p)
                chi[1] = -chi[1]
                return chi

            c._quadratic_character = flipped
            caught = []
            for build, p in ((c.paley_one, 7), (c.paley_conference, 13),
                             (c.paley_two, 13)):
                try:
                    build(p)
                except c.ExactnessError:
                    caught.append(build.__name__)
            print(sys.flags.optimize, *caught)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["1", "paley_one", "paley_conference",
                                      "paley_two"]


def is_smooth(n):
    for r in (2, 3, 5):
        while n % r == 0:
            n //= r
    return n == 1


def percival_factor(size):
    """Percival's radix-2 convolution factor (Math. Comp. 72, 2003)."""
    n, u = size.bit_length() - 1, 2.0 ** -53
    return size * math.expm1(3 * n * math.log1p(u)
                             + (3 * n + 1) * math.log1p(u * math.sqrt(5))
                             + 3 * n * math.log1p(2 * u))


class TestFFTLength:
    """The Paley convolutions run at the smallest 5-smooth length >= 2p-1,
    under a rounding bound stated for that length."""

    def test_smooth_length_brute_force(self):
        for n in range(1, 5001):
            expected = n
            while not is_smooth(expected):
                expected += 1
            assert constructions._smooth_length(n) == expected, n

    @pytest.mark.parametrize("size,factor", [
        (1024, 1.833974548645698e-11),     # 2^10
        (3072, 7.040507772368663e-11),     # 3 2^10
        (5120, 1.303280526087701e-10),     # 5 2^10
        (11520, 3.684510671462278e-10),    # 2^8 3^2 5
        (22500, 9.934695897849321e-10)])   # 2^2 3^2 5^4
    def test_bound_pinned(self, size, factor):
        assert constructions._fft_error_factor(size) == pytest.approx(
            factor, rel=1e-12)

    def test_bound_covers_percival_at_powers_of_two(self):
        for k in range(1, 25):
            assert (constructions._fft_error_factor(1 << k)
                    >= percival_factor(1 << k)), k

    @pytest.mark.parametrize("size", [0, 7, 22113, 3 * 7 * 1024])
    def test_bound_rejects_other_lengths(self, size):
        with pytest.raises(ValueError, match="5-smooth"):
            constructions._fft_error_factor(size)

    @pytest.mark.parametrize("p", [5, 13, 61, 331, 1433, 5749])
    def test_bound_exceeds_observed_error(self, p):
        # adversarial sign rows against the exact integer convolution
        chi = constructions._quadratic_character(p).astype(np.int64)
        size = constructions._smooth_length(2 * p - 1)
        chi_hat = np.fft.rfft(chi.astype(np.float64), size)
        factor = constructions._fft_error_factor(size) * math.sqrt(p - 1)
        signs = np.random.default_rng(p).integers(0, 2, p) * 2 - 1
        rows = {"chi": chi, "ones": np.ones(p, dtype=np.int64),
                "alternating": (-1) ** np.arange(p), "random": signs}
        for name, x in rows.items():
            y = np.fft.irfft(np.fft.rfft(x.astype(np.float64), size)
                             * chi_hat, size)[:2 * p - 1]
            error = float(np.abs(y - np.convolve(x, chi)).max())
            assert error < factor * math.sqrt(float(x @ x)), name

    @pytest.mark.parametrize("recipe,p", [("paley1(331)", 331),
                                          ("conference(709)", 709),
                                          ("paley2(13)", 13),
                                          ("paley1(3);double", 3)])
    def test_every_length_is_smooth(self, monkeypatch, recipe, p):
        seen = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def rfft_logged(a, n=None, *args, **kwargs):
            seen.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n, *args, **kwargs)

        def irfft_logged(a, n=None, *args, **kwargs):
            seen.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", rfft_logged)
        monkeypatch.setattr(np.fft, "irfft", irfft_logged)
        q = build_recipe(recipe)
        q.rmatmul(np.ones((q.order, 3), dtype=np.int8))
        assert set(seen) == {constructions._smooth_length(2 * p - 1)}


def circulant_reference(x, p):
    """X J for the Jacobsthal matrix J[i, j] = chi(j - i) of p, by exact
    integer convolutions with chi from Euler's criterion, folded mod p."""
    chi = np.array([legendre(i, p) for i in range(p)], dtype=np.int64)
    out = np.empty_like(x)
    for row, y in zip(x, out):
        lin = np.convolve(row, chi)
        y[...] = lin[:p]
        y[:p - 1] += lin[p:]
    return out


class TestTwoLanes:
    """Two rows share one transformed row when the worst case of the FFT
    bound allows it, and the products stay exact either way."""

    @staticmethod
    def transformed_rows(monkeypatch):
        rows = []
        rfft = np.fft.rfft

        def rfft_logged(a, *args, **kwargs):
            rows.append(np.shape(a)[0] if np.ndim(a) > 1 else 1)
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", rfft_logged)
        return rows

    # (p, amp, lanes): for rows of max|x| = amp, every table1 fast-row core
    # takes two lanes, also on amp = 2 rows, such as non-sign B or a
    # Kronecker inner factor gives;
    # of the primes with N = 22500, 11213 is the largest with two lanes for
    # sign rows and 11239 the next admitted one
    @pytest.mark.parametrize("p,amp,lanes", [
        (13, 1, 2), (331, 2, 2), (709, 1, 2), (1433, 2, 2), (5749, 1, 2),
        (5023, 2, 2), (11117, 1, 2), (11117, 2, 1), (11213, 1, 2),
        (11239, 1, 1)])
    def test_products_equal_reference(self, monkeypatch, p, amp, lanes):
        eps = 1 if p % 4 == 1 else -1
        conv = constructions._paley_circulant(p, eps)
        rows = self.transformed_rows(monkeypatch)
        rng = np.random.default_rng(p)
        # transformed rows per call: a budget's worth, or two longer rows
        size = constructions._smooth_length(2 * p - 1)
        per = max(2, constructions.PRODUCT_BUDGET // size)
        assert (constructions.PRODUCT_BUDGET // size < 2) == (p > 11000)
        for c in ((1, 2, 3, 4, 5) if p < 2000 else (3, 5)):
            signs = rng.integers(0, 2, size=(2, c, p)) * 2 - 1
            x = signs[0] if amp == 1 else signs[0] + signs[1]
            x[:, 0] = amp
            out = np.empty_like(x)
            rows.clear()
            conv(x, out)
            packed = -(-c // lanes) if c > 1 else 1
            assert rows == [min(per, packed - i)
                            for i in range(0, packed, per)], c
            assert np.array_equal(out, circulant_reference(x, p)), c

    # every table1 fast-row core and the conference cores of the large
    # certify_roundtrip orders: every circulant gets sign rows of B, so
    # they keep two lanes
    @pytest.mark.parametrize("recipe", [
        *(cli._table1_core(h, p, method)
          for h, _, _, p, method in cli.EXCEPTIONAL_ROWS
          if h <= cli.EXCEPTIONAL_FAST_CORE_MAX),
        "conference(11057)", "conference(11069)", "conference(11093)",
        "conference(11117)"])
    def test_benchmark_cores_keep_two_lanes(self, monkeypatch, recipe):
        seen = []
        real = constructions._paley_circulant

        def logged_circulant(*args):
            conv = real(*args)

            def logged(x, out):
                seen.append(int(np.abs(x).max()))
                conv(x, out)
            return logged

        monkeypatch.setattr(constructions, "_paley_circulant",
                            logged_circulant)
        q = build_recipe(recipe)
        p = int(recipe[recipe.index("(") + 1:recipe.index(")")])
        rows = self.transformed_rows(monkeypatch)
        b = (np.random.default_rng(p).integers(0, 2, size=(q.order, 4)) * 2
             - 1).astype(np.int8)
        q.rmatmul(b)
        # 4 sign rows reach the circulant as 4 order / (p + 1) rows
        assert sum(rows) == 2 * q.order // (p + 1)
        assert seen and set(seen) == {1}

    def test_one_circulant_through_changing_row_counts(self, monkeypatch):
        # 4, 1, 3 and 2 rows take 2, 1, 2 and 1 transformed rows of the same
        # work arrays, so each call reuses rows that the last call left
        # holding its decoded values and, in the tail, its rounding noise,
        # which would grow from call to call if not cleared; max|x|, and
        # with it base, changes between calls
        conv = constructions._paley_circulant(331, -1)
        rows = self.transformed_rows(monkeypatch)
        rng = np.random.default_rng(8)
        for c, lanes, amp in ((4, 2, 2), (1, 1, 1), (3, 2, 1), (2, 2, 2)) * 4:
            x = rng.integers(-amp, amp + 1, size=(c, 331))
            x[:, 0] = amp
            out = np.empty_like(x)
            rows.clear()
            conv(x, out)
            assert rows == [-(-c // lanes)], c
            assert np.array_equal(out, circulant_reference(x, 331)), c

    def test_dense_cores_through_both_lanes(self):
        # a Paley II core of a two-lane prime, with odd and even row counts
        q = paley_two(13)
        dense = q.dense()
        rng = np.random.default_rng(3)
        for c in (2, 3, 6, 7):
            x = rng.integers(-3, 4, size=(c, q.order))
            out = np.empty(x.shape)
            q.right_mul(x, out)
            assert np.array_equal(out, x @ dense), c

    def test_circulant_scans_its_rows(self, monkeypatch):
        # two rows of 3 chi(-i), which X J maps to 3 (p - 1) at column 0,
        # share one transformed row: the lanes' base comes from max|x| = 3,
        # not from a bound handed down
        p = 331
        conv = constructions._paley_circulant(p, -1)
        rows = self.transformed_rows(monkeypatch)
        chi = np.array([legendre(-i, p) for i in range(p)], dtype=np.int64)
        x = np.tile(3 * chi, (2, 1))
        out = np.empty(x.shape)
        conv(x, out)
        assert rows == [1]
        assert np.array_equal(out, circulant_reference(x, p))
        assert out[0, 0] == out[1, 0] == 3 * (p - 1)

    def test_checks_raise_on_packed_rows_under_optimize(self):
        # a forced residual (irfft off by 0.3) and a forced norm (the row
        # norms 10^6 times too large) must each raise on a call of 4 rows
        # that transforms 2
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from maxdet import constructions as c
            conv = c._paley_circulant(331, -1)
            x = np.ones((4, 331), dtype=np.int64)
            out = np.empty_like(x)
            irfft, einsum = np.fft.irfft, np.einsum
            seen = []

            def fake_irfft(spec, *args, **kwargs):
                seen.append(len(spec))
                return irfft(spec, *args, **kwargs) + 0.3

            def fake_einsum(spec, a, b):
                seen.append(len(a))
                return einsum(spec, a, b) * 1e12
            fakes = [("irfft", fake_irfft), ("einsum", fake_einsum)]
            for name, fake in fakes:
                np.fft.irfft, np.einsum = irfft, einsum
                setattr(np.fft if name == "irfft" else np, name, fake)
                try:
                    conv(x, out)
                except c.ExactnessError as exc:
                    print("residual" if "residual" in str(exc) else "bound",
                          seen.pop(), sys.flags.optimize)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["residual", "2", "1", "bound", "2", "1"]


class TestProductGroups:
    """A product passes its rows through the FFT, Paley II's pairs and the
    Gram block in groups of at most ``PRODUCT_BUDGET`` float64 entries (or
    one longer row); the groups change no bit of the result, and every
    group is checked."""

    # 1 leaves two transformed rows per group, 40 to 150 two to sixteen
    # by leaf (N = 9 to 90); 1 << 40 makes every product one call
    @pytest.mark.parametrize("budget", [1, 40, 64, 100, 150])
    @pytest.mark.parametrize("recipe", [
        "paley1(43)", "conference(13)", "paley2(13)",
        "paley2(13);double;double", "kron(paley1(7),paley2(5))"])
    def test_grouped_equal_one_call(self, monkeypatch, recipe, budget):
        # odd row counts, so the odd last row of the two lanes, and at
        # small budgets a lane pair, ends a group
        q = build_recipe(recipe)
        dense = q.dense()
        rng = np.random.default_rng(q.order)
        for c in (1, 5, 7):
            x = (rng.integers(0, 2, size=(c, q.order)) * 2 - 1).astype(
                np.int8)
            whole, grouped = np.empty(x.shape), np.empty(x.shape)
            monkeypatch.setattr(constructions, "PRODUCT_BUDGET", 1 << 40)
            q.right_mul(x, whole)
            monkeypatch.setattr(constructions, "PRODUCT_BUDGET", budget)
            q.right_mul(x, grouped)
            assert np.array_equal(whole.view(np.int64),
                                  grouped.view(np.int64)), c
            assert np.array_equal(grouped, x.astype(np.int64) @ dense), c

    @pytest.mark.parametrize("budget,width", [(1, 1), (7, 2),
                                              (1 << 40, 664)])
    def test_gram_block_in_column_blocks(self, monkeypatch, budget, width):
        # G summed over blocks of 1, 2 or all 664 columns of P
        from maxdet import border
        q = build_recipe("paley1(331);double")
        b = (np.random.default_rng(2).integers(0, 2, size=(q.order, 3)) * 2
             - 1).astype(np.int8)
        p = b.T.astype(np.int64) @ q.dense()
        oracle = np.where(p >= 0, 1, -1) @ p.T
        monkeypatch.setattr(border, "PRODUCT_BUDGET", budget)
        [g] = _sign_completion(b.T[None], q)
        assert g.dtype == np.int64 and np.array_equal(g, oracle)
        assert q.work["c"].shape == (3, width)

    @pytest.mark.parametrize("name,fake", [
        ("irfft", lambda real, *a, **k: real(*a, **k) + 0.4),
        ("einsum", lambda real, *a: real(*a) * 1e12)])
    def test_a_later_group_is_checked(self, monkeypatch, name, fake):
        # ten rows in three groups of two transformed rows of two lanes
        # (the last one row): the first group passes, the second fails its
        # residual or its bound
        conv = constructions._paley_circulant(331, -1)
        monkeypatch.setattr(constructions, "PRODUCT_BUDGET", 1)
        owner = np.fft if name == "irfft" else np
        real, calls = getattr(owner, name), []

        def second_call_off(*args, **kwargs):
            calls.append(len(args[1] if name == "einsum" else args[0]))
            if len(calls) == 1:
                return real(*args, **kwargs)
            return fake(real, *args, **kwargs)

        monkeypatch.setattr(owner, name, second_call_off)
        x = np.ones((10, 331), dtype=np.int8)
        with pytest.raises(ExactnessError,
                           match="residual" if name == "irfft" else "bound"):
            conv(x, np.empty(x.shape))
        assert calls == [2, 2]

    def test_product_buffers_within_budgets(self):
        # one sign completion at width 14 on a fresh conference(11117) core
        # keeps P (14 x 11118) and, beside it, about 1.45 budgets, a C block
        # of one budget among them: the FFT's two arrays of two transformed
        # rows are made with the core.  Sized for the certificate's one
        # row, they were made anew here and it traced 4.2 budgets; with
        # every row transformed at once, and C whole, 14 budgets
        q = paley_conference(11117)
        d = 14
        b = (np.random.default_rng(0).integers(0, 2, size=(q.order, d)) * 2
             - 1).astype(np.int8)
        tracemalloc.start()
        try:
            [g] = _sign_completion(b.T[None], q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = constructions.PRODUCT_BUDGET * 8
        assert peak < d * q.order * 8 + 2 * budget
        p = q.rmatmul(b)
        assert np.array_equal(g, (np.where(p >= 0, 1.0, -1.0) @ p.T).astype(
            np.int64))


class TestOversizedPrime:
    """A prime whose certificate the FFT bound cannot cover is refused
    before the character, or anything else of size p, is allocated."""

    @pytest.mark.parametrize("recipe", ["paley1(1000000007)",
                                        "conference(1000000009)",
                                        "paley2(1000000009)",
                                        "paley1(4000039)"])
    def test_refused_before_allocation(self, recipe):
        tracemalloc.start()
        try:
            with pytest.raises(ExactnessError, match="rounding bound"):
                build_recipe(recipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSylvesterAndKronecker:
    def test_unit_double(self):
        q = sylvester_double(unit())
        assert q.dense().tolist() == [[1, 1], [1, -1]]

    def test_five_doublings(self):
        q = paley_one(3)
        for _ in range(5):
            q = sylvester_double(q)
            assert validate(q)
        assert q.order == 128

    @pytest.mark.parametrize("recipe", ["paley1(7);double",
                                        "paley2(5);double;double",
                                        "kron(unit;double,paley1(3));double"])
    def test_double_matches_np_block(self, recipe):
        assert np.array_equal(build_recipe(recipe).dense(),
                              recipe_oracle(recipe))

    @pytest.mark.parametrize("recipe", ["paley1(43);double;double",
                                        "paley2(13);double"])
    def test_doubled_products_equal_dense(self, recipe):
        # each level writes its rows straight into its caller's out
        q = build_recipe(recipe)
        dense = q.dense()
        rng = np.random.default_rng(6)
        for c in (1, 2, 3, 5):
            x = rng.integers(-3, 4, size=(c, q.order))
            out = np.empty(x.shape)
            q.right_mul(x, out)
            assert np.array_equal(out, x @ dense), c

    def test_double_refuses_an_out_it_cannot_view(self):
        q = build_recipe("paley1(7);double")
        x = np.ones((3, q.order), dtype=np.int64)
        out = np.zeros((3, q.order + 1), dtype=np.int64)[:, :-1]
        with pytest.raises(ValueError, match="copy"):
            q.right_mul(x, out)

    def test_doubled_product_work_arrays(self):
        # one rmatmul allocates its float64 result, the leaf's int8 view of
        # B^T's blocks (a copy here, as b.T is not contiguous) and the
        # leaf's two FFT buffers, each but the copy about d * order * 8
        # bytes; an int64 copy of B^T or a work array per doubling level
        # (7.8 units traced before products wrote float64) exceeds the bound
        q = build_recipe("paley1(1019);double;double;double")
        d = 4
        b = np.random.default_rng(0).integers(0, 2, size=(q.order, d)) * 2 - 1
        tracemalloc.start()
        try:
            q.rmatmul(b.astype(np.int8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * d * q.order * 8

    def test_deep_tower_equals_walsh_hadamard(self):
        # unit doubled 20 times is 20 nested calls over 2 sign rows of 2^20
        # entries; every level views X and out, so the product allocates
        # less than half of X, where a copy of X or out at any level would
        # exceed it
        assert np.array_equal(walsh_hadamard(np.eye(8, dtype=np.int8)),
                              recipe_oracle("unit" + ";double" * 3))
        q = build_recipe("unit" + ";double" * 20)
        bt = (np.random.default_rng(20).integers(0, 2, size=(2, q.order)) * 2
              - 1).astype(np.int8)
        out = np.empty(bt.shape)
        tracemalloc.start()
        try:
            q.rmatmul(bt.T, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bt.nbytes // 2
        assert np.array_equal(out, walsh_hadamard(bt))

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
        assert np.array_equal(paley_two(p).dense(), paley_two_oracle(p))

    @pytest.mark.parametrize("r1,r2", [("unit;double", "paley1(3)"),
                                       ("paley1(7)", "paley2(5)"),
                                       ("unit", "paley1(11)")])
    def test_kronecker_matches_np_kron(self, r1, r2):
        q1, q2 = build_recipe(r1), build_recipe(r2)
        h = kronecker(q1, q2).dense()
        assert np.array_equal(h, np.kron(recipe_oracle(r1),
                                         recipe_oracle(r2)))


class TestRmatmul:
    """The structured B^T Q against the dense oracle."""

    @staticmethod
    def check(recipe, d, seed=0):
        q = build_recipe(recipe)
        rng = np.random.default_rng(seed)
        b = (rng.integers(0, 2, size=(q.order, d)) * 2 - 1).astype(np.int8)
        p = q.rmatmul(b)
        assert p.dtype == np.float64 and p.shape == (d, q.order)
        # sign rows and {-1,0,1} entries: float32 sums below 2^24 are exact
        oracle = b.T.astype(np.float32) @ recipe_oracle(recipe).astype(
            np.float32)
        assert np.array_equal(p, oracle)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("recipe", [
        "unit;double;double", "paley1(7)", "paley1(331);double",
        "conference(13)", "conference(709)", "paley2(5)", "paley2(1433)",
        "kron(paley1(3),paley1(7))"])
    def test_matches_dense(self, recipe, d):
        self.check(recipe, d)

    def test_conference_5749_d8(self):
        self.check("conference(5749)", 8)

    def test_row_counts_share_work_arrays(self):
        # the FFT work arrays grow to the largest row count and are reused
        # by prefix for smaller ones; any order of sizes gives the same rows
        q = build_recipe("paley2(13)")
        rng = np.random.default_rng(4)
        b = rng.integers(-1, 2, size=(q.order, 9))
        full = b.T @ q.dense()
        for d in (1, 9, 3, 9, 0, 5):
            assert np.array_equal(q.rmatmul(b[:, :d]), full[:d])

    def test_doubling_work_arrays_and_out(self):
        # doubling keeps its own work arrays; rmatmul writes into `out`
        recipe = "paley1(7);double;double"
        q = build_recipe(recipe)
        b = np.random.default_rng(5).integers(-1, 2, size=(q.order, 6))
        full = b.T @ recipe_oracle(recipe).astype(np.int64)
        out = np.empty((6, q.order))
        for d in (2, 6, 5):
            rows = out[:d]
            assert q.rmatmul(b[:, :d], rows) is rows
            assert np.array_equal(out[:d], full[:d])

    @pytest.mark.parametrize("recipe", ["paley2(5);double", "conference(13)"])
    def test_empty_block(self, recipe):
        q = build_recipe(recipe)
        p = q.rmatmul(np.zeros((q.order, 0), dtype=np.int8))
        assert p.shape == (0, q.order) and p.dtype == np.float64

    def test_hand_built_parts(self):
        q = matrix_core(recipe_oracle("paley2(5)"))
        q = kronecker(sylvester_double(q), build_recipe("paley1(3)"))
        b = np.random.default_rng(2).integers(-1, 2, size=(q.order, 3))
        oracle = np.kron(double_oracle(recipe_oracle("paley2(5)")),
                         recipe_oracle("paley1(3)")).astype(np.int64)
        assert np.array_equal(q.rmatmul(b), b.T @ oracle)

    def test_integer_input(self):
        recipe = "kron(paley2(5),paley1(3));double"
        q = build_recipe(recipe)
        b = np.random.default_rng(1).integers(-9, 10, size=(q.order, 3))
        assert np.array_equal(q.rmatmul(b),
                              b.T @ recipe_oracle(recipe).astype(np.int64))


class TestFloatProducts:
    """P = B^T Q in float64 through every kind of part, against the dense
    oracle, for int8 and int64 blocks."""

    @pytest.mark.parametrize("recipe", [
        "unit", "paley1(7)", "paley2(5)", "conference(13)", "unit;double",
        "paley1(7);double", "paley2(5);double;double",
        "paley1(11);double;double;double", "kron(paley1(3),paley2(5))",
        "kron(unit;double,paley1(3));double"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_equals_dense(self, recipe, dtype):
        q = build_recipe(recipe)
        oracle = recipe_oracle(recipe).astype(np.int64)
        rng = np.random.default_rng(q.order)
        for c in (1, 2, 3, 5):
            b = rng.integers(-4, 5, size=(q.order, c)).astype(dtype)
            p = q.rmatmul(b)
            assert p.dtype == np.float64
            assert np.array_equal(p, b.T.astype(np.int64) @ oracle), c

    def test_one_leaf_call_per_product(self):
        # three doublings hand B^T's eight column blocks, all 8 c rows, to
        # the leaf at once, as int8 sign rows, and transform the leaf's
        # image after
        leaf = paley_one(7)
        calls = []
        real = leaf.right_mul

        def logged(x, out):
            calls.append((x.shape, x.dtype, int(np.abs(x).max())))
            real(x, out)

        leaf.right_mul = logged
        q = sylvester_double(sylvester_double(sylvester_double(leaf)))
        b = np.random.default_rng(1).integers(0, 2, size=(64, 3)) * 2 - 1
        p = q.rmatmul(b.astype(np.int8))
        assert calls == [((24, 8), np.int8, 1)]
        assert np.array_equal(p, b.T @ recipe_oracle(
            "paley1(7);double;double;double"))

    @pytest.mark.parametrize("recipe,p", [
        ("paley1(11239);double;double", 11239), ("paley2(11677)", 11677),
        ("paley2(11677);double", 11677)])
    def test_leaf_bound_is_the_admission_bound(self, monkeypatch, recipe, p):
        # for random sign B, a tower's leaf and Paley II's conference core
        # get rows of p signs (one lane each at these primes), so the bound
        # that every group of the product computes is the bound that
        # _paley_fft admitted p on
        _, factor = constructions._paley_fft(p, -1 if p % 4 == 3 else 1)
        q = build_recipe(recipe)
        bounds, einsum = [], np.einsum

        def einsum_logged(*args):
            squares = einsum(*args)
            bounds.append(math.sqrt(float(squares.max(initial=0))) * factor)
            return squares

        monkeypatch.setattr(np, "einsum", einsum_logged)
        b = np.random.default_rng(p).integers(0, 2, size=(q.order, 3)) * 2 - 1
        q.rmatmul(b.astype(np.int8))
        assert bounds and set(bounds) == {math.sqrt(p) * factor}

    @pytest.mark.parametrize("recipe", [
        *("paley1(3)" + ";double" * levels for levels in range(1, 8)),
        "paley2(13)", "paley2(5);double;double", "kron(paley1(3),paley1(7))"])
    def test_leaf_first_equals_dense_for_integer_blocks(self, recipe):
        # the leaf runs on B's blocks and the butterflies on its image: by
        # linearity the same product as dense() for any integer B, here
        # with |B| up to 127, which a Kronecker product's integer copy of
        # its outer image holds only in a type wider than B's
        q = build_recipe(recipe)
        dense = q.dense()
        assert np.array_equal(dense, recipe_oracle(recipe))
        rng = np.random.default_rng(q.order)
        for c in (1, 2, 5):
            b = rng.integers(-127, 128, size=(q.order, c)).astype(np.int8)
            b[0, 0], b[-1, -1] = 127, -127
            p = q.rmatmul(b)
            assert np.array_equal(p, b.T.astype(np.int64) @ dense), c

    @pytest.mark.parametrize("recipe", [
        "unit", "paley1(7)", "paley2(5)", "conference(13)", "paley1(7);double",
        "paley2(5);double;double", "paley1(11);double;double;double",
        "kron(paley1(3),paley2(5))", "kron(unit;double,paley1(3));double"])
    @pytest.mark.parametrize("signs", [True, False])
    def test_one_scan_per_product(self, recipe, signs):
        # rmatmul scans B for its 2^53 check, and each circulant and each
        # Kronecker product scans the rows it is given: the product equals
        # the oracle for sign B and for B in -3..3
        q = build_recipe(recipe)
        rng = np.random.default_rng(q.order)
        if signs:
            b = rng.integers(0, 2, size=(q.order, 3)) * 2 - 1
        else:
            b = rng.integers(-3, 4, size=(q.order, 3))
        p = q.rmatmul(b.astype(np.int8))
        assert np.array_equal(p, b.T @ recipe_oracle(recipe).astype(np.int64))

    @pytest.mark.parametrize("amp,levels,dtype", [
        (1, 6, np.int8), (1, 7, np.int16), (127, 1, np.int16),
        (1 << 8, 7, np.int32), (1 << 24, 7, np.int64)])
    def test_transform_type_holds_its_values(self, amp, levels, dtype):
        # the leaf reads B's blocks in B's own type and of B's size, and
        # the float64 butterflies hold its image up to 2^L max|B| exactly,
        # also at the edge of each integer type
        q, seen = unit(), []
        real = q.right_mul
        q.right_mul = lambda x, out: (
            seen.append((x.dtype, int(np.abs(x).max()))), real(x, out))
        for _ in range(levels):
            q = sylvester_double(q)
        b = np.full((q.order, 2), amp, dtype=dtype)
        b[1::3, 0] = -amp
        p = q.rmatmul(b)
        assert seen == [(dtype, amp)]
        assert np.array_equal(p, b.T.astype(np.int64) @ recipe_oracle(
            q.recipe).astype(np.int64))

    def test_overflow_guard(self):
        # max|B| * order must stay below 2^53, where float64 holds every
        # integer; just below it the product is exact
        q = build_recipe("unit;double;double;double")
        oracle = recipe_oracle(q.recipe).astype(object)
        b = np.full((8, 1), (1 << 50) - 1, dtype=np.int64)
        b[3] = -b[3]
        assert q.rmatmul(b).astype(object).tolist() == (
            b.T.astype(object) @ oracle).tolist()
        b[3] = -(1 << 50)
        with pytest.raises(ExactnessError, match="2\\^53"):
            q.rmatmul(b)

    def test_overflow_guard_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from maxdet.constructions import ExactnessError, build_recipe
            q = build_recipe("unit;double;double;double")
            try:
                q.rmatmul(np.full((8, 1), 1 << 50, dtype=np.int64))
            except ExactnessError:
                print(sys.flags.optimize, "2^53")
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["1", "2^53"]


class TestValidate:
    def test_flipped_entry_fails(self):
        m = paley_one_oracle(7)
        assert validate(matrix_core(m))
        m[3, 5] = -m[3, 5]
        assert not validate(matrix_core(m))

    def test_pattern_and_weight(self):
        conf = conference_oracle(5)
        assert validate(matrix_core(conf, CONFERENCE, 5))
        assert not validate(matrix_core(conf, CONFERENCE, 6))
        assert not validate(matrix_core(conf))  # zeros in a Hadamard core
        assert not validate(matrix_core(paley_one_oracle(3), "other"))

    def test_unit(self):
        assert validate(unit())

    def test_det_identity_small_orders(self):
        for recipe, k, m in [("paley1(11)", 12, 12),
                             ("conference(5)", 5, 6),
                             ("conference(13)", 13, 14),
                             ("paley2(5)", 12, 12)]:
            q = build_recipe(recipe)
            d = det_exact(q.dense())
            assert d * d == k ** m


class TestRecipes:
    def test_plan_examples(self):
        assert plan_recipe(664) == "paley1(331);double"
        assert plan_recipe(2868) == "paley2(1433)"
        assert plan_recipe(4) == "paley1(3)"
        assert plan_recipe(1) == "unit"
        assert plan_recipe(2) == "unit;double"
        assert plan_recipe(710) == "conference(709)"
        assert plan_recipe(6) == "conference(5)"

    def test_plan_unreachable(self):
        # 92 = 4*23: 91, 45, and 22 give no Paley prime; 92 != 2^j.  The
        # order alone fixes the kind that the refusal names: 10 and 26 are
        # 2 (mod 4) above 2, and 9 and 25 are composite
        for order, kind in ((92, HADAMARD), (3, HADAMARD), (0, HADAMARD),
                            (10, CONFERENCE), (26, CONFERENCE)):
            with pytest.raises(ValueError, match=(
                    f"^no recipe realizes {kind} order {order}$")):
                plan_recipe(order)

    def test_plan_refuses_oversized_primes_without_trial_division(self):
        # 2^61 - 1 (paley1) and 2^60 - 1 (paley2) fail the residue or the
        # FFT bound first, down to 2^20 - 1, the first that the bound
        # admits (and trial division refuses); the walk ends at the
        # Mersenne prime 2^19 - 1
        assert plan_recipe(1 << 61) == "paley1(524287)" + ";double" * 42
        # a conference order has no recipe to fall through to: 2^61 + 1 is
        # 1 (mod 4) (and 3 | 2^61 + 1), so the bound refuses it
        with pytest.raises(ExactnessError, match="rounding bound"):
            plan_recipe((1 << 61) + 2)
        # 4000039 = 3 (mod 4) is prime but above the bound, and no other
        # recipe makes 4000040
        with pytest.raises(ValueError, match="hadamard order 4000040$"):
            plan_recipe(4000040)

    def test_plan_admits_only_leaves_its_products_run(self):
        # every leaf reads sign rows of B, so a prime is admitted on the
        # bound sqrt(p) |chi|_2 E(N) of a sign row, however many doublings
        # lie above it: paley1(1259743) (0.215) under one doubling makes
        # 2519488, and paley1(968879) (0.110) under four makes 15502080
        assert constructions._admits(1259743, -1)
        assert plan_recipe(2519488) == "paley1(1259743);double"
        assert plan_recipe(15502080) == (
            "paley1(968879)" + ";double" * 4)
        assert plan_recipe(2654184) == "paley1(1327091);double"
        assert plan_recipe(1944004) == "paley2(972001)"
        assert plan_recipe(2000000) == (
            "paley2(31249)" + ";double" * 5)

    @pytest.mark.parametrize("kind,order", [
        (HADAMARD, 1104), (HADAMARD, 1240), (HADAMARD, 672),
        (HADAMARD, 2868), (HADAMARD, 5736), (HADAMARD, 112),
        (CONFERENCE, 710)])
    def test_planned_leaf_gets_the_bound_it_was_admitted_on(
            self, monkeypatch, kind, order):
        # every leaf reads sign rows of B: the circulant of the prime the
        # planner admitted gets rows of max 1, the rows it was admitted on
        admitted, reached = [], []
        real_fft, real_circulant = (constructions._paley_fft,
                                    constructions._paley_circulant)

        def fft_logged(p, eps):
            out = real_fft(p, eps)
            admitted.append(p)
            return out

        def circulant_logged(*args):
            conv = real_circulant(*args)

            def logged(x, out):
                reached.append((args[0], int(np.abs(x).max())))
                conv(x, out)
            return logged

        monkeypatch.setattr(constructions, "_paley_fft", fft_logged)
        recipe = plan_recipe(order)
        planned = admitted[-1]
        monkeypatch.setattr(constructions, "_paley_circulant",
                            circulant_logged)
        q = build_recipe(recipe)
        assert q.kind == kind, recipe
        b = np.random.default_rng(order).integers(0, 2, size=(order, 2))
        q.rmatmul((b * 2 - 1).astype(np.int8))
        assert reached and set(reached) == {(planned, 1)}, recipe

    def test_plan_round_trip(self):
        for order in (4, 8, 12, 20, 24, 28, 32, 44, 48, 664, 672):
            q = build_recipe(plan_recipe(order))
            assert q.order == order and q.kind == HADAMARD

    def test_kron_recipe_parses(self):
        q = build_recipe("kron(unit;double,unit;double)")
        assert q.order == 4 and validate(q)
        q2 = build_recipe(q.recipe)
        assert np.array_equal(q2.dense(), q.dense())

    def test_bad_recipes(self):
        for recipe in ("", "bogus", "paley1(6)", "unit;triple",
                       "kron(unit)", "paley1(3);double;oops"):
            with pytest.raises(ValueError):
                build_recipe(recipe)

    @pytest.mark.parametrize("recipe, message", [
        ("paley1(6)", "paley_one needs a prime p = 3 (mod 4), got 6"),
        ("paley1(15)", "paley_one needs a prime p = 3 (mod 4), got 15"),
        ("paley2(7)", "paley_conference needs a prime p = 1 (mod 4), got 7"),
        ("conference(9)",
         "paley_conference needs a prime p = 1 (mod 4), got 9")])
    def test_refusal_names_the_generator(self, recipe, message):
        # eps alone names the generator that a refused prime was asked of
        with pytest.raises(ValueError) as exc:
            build_recipe(recipe)
        assert str(exc.value) == message
