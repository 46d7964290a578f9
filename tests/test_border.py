import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import maxdet
import oracles
from maxdet import border as border_mod
from maxdet import bounds, cli, constructions, exact, primes, sieve
from maxdet.border import (SchurConsistencyError, SearchConfig,
                           SharedBlocks, WitnessError, _greedy_exact,
                           _ratio_from_det, _sign_completion, _signs,
                           assemble_bordered, greedy_corners, run_trial,
                           sample_border_columns, save_witness, search,
                           search_widths, verify_witness, witness_dict)
from maxdet.cli import (EXCEPTIONAL_FAST_CORE_MAX, EXCEPTIONAL_ROWS,
                        _table1_core)
from maxdet.constructions import (ExactnessError, QuasiOrthogonal,
                                  build_recipe, paley_conference)
from maxdet.exact import LogScalar, det_exact, leading_minors


class Enumerated(NamedTuple):
    """The Gram block, det N and ratio of one sign block B's trial."""

    G: np.ndarray
    det_n: int
    ratio: LogScalar


def iter_all_borders(q, d):
    """The trial for each of the 2^(m d) sign blocks B, for exhaustive small
    cases.  Bit t of the pattern index makes row-major entry t of B equal
    to -1."""
    m, k = q.order, q.weight
    assert m * d <= 24, "exhaustive enumeration is limited to m*d <= 24"
    shifts = np.arange(m * d, dtype=np.uint32)
    for pattern in range(1 << (m * d)):
        b = (1 - 2 * ((pattern >> shifts) & 1).astype(np.int8)).reshape(m, d)
        g = gram(b, q)
        [(_, det_n)] = batched_greedy(g[None], k)
        yield Enumerated(g, det_n, _ratio_from_det(det_n, m, k, d))


def gram(b, q):
    """G of one trial's m x d sign block B, through ``_sign_completion`` on
    a chunk of that one trial."""
    [g] = _sign_completion(b.T[None], q)
    return g


def trials_of(cases, master_seed):
    """``run_trial`` for each (recipe, d, t): trial t of a search under
    ``master_seed``.  The cases on one recipe share one ``SharedBlocks`` at
    their largest width; widths nest, so each result is the trial that a
    width-d search gives."""
    top = {}
    for recipe, d, t in cases:
        width, trials = top.get(recipe, (0, 0))
        top[recipe] = max(width, d), max(trials, t + 1)
    cores = {recipe: build_recipe(recipe) for recipe in top}
    blocks = {recipe: SharedBlocks(width, SearchConfig(
        trials=trials, master_seed=master_seed))
        for recipe, (width, trials) in top.items()}
    return [run_trial(cores[recipe], d, t, blocks[recipe])
            for recipe, d, t in cases]


def claiming_order(q, order):
    """A core with q's operator that states another order."""
    return QuasiOrthogonal(order, q.weight, q.kind, q.recipe, q.right_mul)


def flip_sign(row: str, j: int) -> str:
    """A sign string with entry j flipped."""
    return row[:j] + ("-" if row[j] == "+" else "+") + row[j + 1:]


def moved_address(w: dict, field: str, step: int) -> dict:
    """A copy of witness w with its master_seed or trial_index moved by
    step, after checking that the B drawn at the moved address changes
    det N = det(G - kD): another address may give the same det N, and the
    moved witness is then still valid."""
    moved = dict(w, **{field: w[field] + step})
    q, b, d_block = border_mod._witness_blocks(moved)
    assert det_exact(gram(b, q) - q.weight * d_block.astype(np.int64)) \
        != int(w["det_schur"]), (field, step)
    return moved


def sign_block(b, q):
    """The whole C = sgn(B^T Q) of the sign rule that ``_sign_completion``
    applies block by block."""
    return _signs(q.rmatmul(b))


def dense_sign_completion(b, q):
    """C = sgn(B^T Q), sgn(0) = +1, from the dense core: the oracle for the
    C that ``_sign_completion`` applies."""
    return np.where(b.T.astype(np.int64) @ q.dense() >= 0, 1, -1)


def exhaustive_search(q, d):
    """The best trial over every B; the lowest pattern wins a tie."""
    return max(iter_all_borders(q, d), key=lambda res: res.ratio)


def reference_greedy(g, k):
    """The greedy corner with both candidates computed directly.

    Returns D, det N and whether any entry tied (|v+| == |v-|).
    """
    g = np.asarray(g).tolist()
    d = len(g)
    work = [[g[i][j] + (k if i == j else 0) for j in range(d)]
            for i in range(d)]
    d_block = -np.eye(d, dtype=np.int8)
    tied = False
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            base = g[i][j]
            work[i][j] = base - k
            v_plus = det_exact(work)
            work[i][j] = base + k
            v_minus = det_exact(work)
            tied |= abs(v_plus) == abs(v_minus)
            sign = 1 if abs(v_plus) >= abs(v_minus) else -1
            d_block[i, j] = sign
            work[i][j] = base - k * sign
    return d_block, det_exact(work), tied


def batched_greedy(grams, k):
    """``greedy_corners`` of a stack, each block with its own minors."""
    eye = k * np.eye(grams.shape[1], dtype=np.int64)
    return greedy_corners(grams, k, [leading_minors((g + eye).tolist())
                                     for g in grams])


def draw(master_seed, trial_index, m, d):
    """The m x d border B of one trial."""
    return sample_border_columns(master_seed, [trial_index], m, d)[0]


class TestSampling:
    def test_deterministic_streams(self):
        a = draw(7, 3, 16, 2)
        b = draw(7, 3, 16, 2)
        c = draw(7, 4, 16, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_entry_mean(self):
        b = draw(0, 0, 1000, 100)
        assert abs(b.mean()) <= 0.02  # ~6 sigma for 10^5 fair signs

    def test_balance_of_a_million_signs(self):
        # 2^20 signs over 256 trials of one seed: the sum of fair signs has
        # standard deviation 2^10, so 6 sigma is 6144; each trial's share
        # is checked the same way (sd 64)
        stack = sample_border_columns(2024, range(256), 1024, 4)
        assert abs(int(stack.sum(dtype=np.int64))) <= 6 * 1024
        per_trial = stack.sum(axis=(1, 2), dtype=np.int64)
        assert np.abs(per_trial).max() <= 6 * 64

    def test_columns_equidistributed(self):
        # every row of B (4 entries) over 100_000 // 64 trials of width 64
        stack = sample_border_columns(1, range(100_000 // 64), 4, 64)
        keys, counts = np.unique(stack.mT.reshape(-1, 4), axis=0,
                                 return_counts=True)
        assert len(keys) == 16
        assert np.abs(counts / counts.sum() - 1 / 16).max() <= 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            draw(0, 0, 0, 1)

    def test_oracle_is_splitmix64(self):
        # the published SplitMix64 outputs for the state 1234567: word i of
        # a stream whose key is that state
        words = [oracles.splitmix64_mix(1234567 + i * 0x9E3779B97F4A7C15)
                 for i in range(1, 6)]
        assert words == [6457827717110365317, 3203168211198807973,
                         9817491932198370423, 4593380528125082431,
                         16408922859458223821]

    @pytest.mark.parametrize("m,d", [(664, 6), (5750, 8), (11058, 4), (13, 3),
                                     (53732, 26), (7, 0)])
    def test_matches_integer_oracle(self, m, d):
        # bit for bit against the stream in Python integers, trial by trial
        # and as one stack; 13 x 3 leaves 25 bits of a word unused
        trials = range(2) if m * d > 10 ** 6 else range(3)
        stack = sample_border_columns(5, trials, m, d)
        assert stack.dtype == np.int8 and stack.shape == (len(trials), m, d)
        for t, b in zip(trials, stack):
            assert np.array_equal(b, draw(5, t, m, d))
            assert b.tolist() == oracles.border_signs(5, t, m, d), t

    @pytest.mark.parametrize("seed", [-1, -(1 << 63), (1 << 64) + 5,
                                      (1 << 64) - 1, 3 << 70])
    def test_seeds_outside_uint64(self, seed):
        # seeds and trial indices are taken mod 2^64
        b = draw(seed, 2, 37, 5)
        assert b.tolist() == oracles.border_signs(seed, 2, 37, 5)
        assert np.array_equal(b, draw(seed % (1 << 64), 2, 37, 5))
        assert np.array_equal(draw(seed, -1, 9, 3),
                              draw(seed, (1 << 64) - 1, 9, 3))

    def test_distinct_trials_differ(self):
        # 64 signs each: no two of 512 trials alike, nor trial 0 of 512 seeds
        trials = sample_border_columns(0, range(512), 64, 1)
        seeds = np.stack([draw(s, 0, 64, 1) for s in range(512)])
        for stack in (trials, seeds):
            assert len(np.unique(stack.reshape(512, -1), axis=0)) == 512

    @pytest.mark.parametrize("m", [7, 664, 5750])
    def test_prefix_stable(self, m):
        # the first w columns of a width-26 draw are the width-w draw, at
        # every width, for any m (7 and 5750 are not multiples of 64)
        wide = draw(4, m, m, 26)
        for w in range(27):
            assert np.array_equal(wide[:, :w], draw(4, m, m, w)), w

    def test_result_b_is_the_searched_block(self, h12, monkeypatch):
        # a result's address, (master_seed, trial_index), draws again the
        # block the search's product used
        used = []
        real = border_mod._sign_completion
        monkeypatch.setattr(border_mod, "_sign_completion",
                            lambda bt, q: used.append(bt.copy())
                            or real(bt, q))
        config = SearchConfig(trials=6, master_seed=-3)
        shared = SharedBlocks(4, config)
        shared.fill(h12, 4)
        [bt] = used
        for w in (1, 4):
            for t in range(6):
                res = run_trial(h12, w, t, shared)
                b = draw(res.master_seed, res.trial_index, res.m, res.d)
                assert np.array_equal(b, bt[t, :w].T), (w, t)


class TestSignCompletion:
    def test_zero_maps_to_plus(self, h4):
        b = np.array([[1], [1], [-1], [-1]], dtype=np.int8)
        p = b.T.astype(int) @ h4.dense()
        c = sign_block(b, h4)
        assert np.any(p == 0)
        assert np.all(c[p == 0] == 1)
        # the Gram block is formed with this C
        assert np.array_equal(gram(b, h4), c.astype(int) @ p.T)

    def test_row_depends_only_on_own_column(self, h4):
        b = draw(2, 0, 4, 2)
        c = sign_block(b, h4)
        b2 = b.copy()
        b2[:, 1] = -b2[:, 1]
        c2 = sign_block(b2, h4)
        assert np.array_equal(c[0], c2[0])
        assert not np.array_equal(c[1], c2[1])

    def test_diagonal_has_no_cancellation(self, h4):
        b = h4.dense()[:, :1].copy()
        g = gram(b, h4)
        p = b.T.astype(int) @ h4.dense()
        assert g[0, 0] == int(np.abs(p).sum())

    def test_norm_bound_guard_raises(self):
        # entries of 2^45 push |x|_2 |chi|_2 times the FFT error factor
        # past 1/4 before any transform runs
        q = paley_conference(5)
        b = np.full((6, 1), 1 << 45, dtype=np.int64)
        with pytest.raises(ExactnessError, match="bound"):
            gram(b, q)

    def test_residual_guard_raises(self, monkeypatch):
        q = build_recipe("paley1(331);double")
        b = draw(0, 0, q.order, 2)
        real = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *a, **k: real(*a, **k) + 0.4)
        with pytest.raises(ExactnessError, match="residual"):
            gram(b, q)

    def test_guards_raise_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from maxdet.constructions import ExactnessError, build_recipe
            q = build_recipe("conference(13)")
            caught = []
            try:
                q.rmatmul(np.full((14, 1), 1 << 45, dtype=np.int64))
            except ExactnessError:
                caught.append("bound")
            real = np.fft.irfft
            np.fft.irfft = lambda *a, **k: real(*a, **k) + 0.4
            try:
                q.rmatmul(np.ones((14, 1), dtype=np.int8))
            except ExactnessError:
                caught.append("residual")
            print(sys.flags.optimize, *caught)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["1", "bound", "residual"]

    def test_gram_order_guard(self, h4):
        # the float64 Gram block is exact while m^2 < 2^53; a core that
        # only claims a larger order trips the guard before any product
        b = draw(0, 0, 4, 2)
        g = gram(b, claiming_order(h4, 94_906_265))
        assert np.array_equal(g, gram(b, h4))
        with pytest.raises(ExactnessError, match="Gram"):
            gram(b, claiming_order(h4, 94_906_266))

    def test_gram_order_guard_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from maxdet.border import _sign_completion
            from maxdet.constructions import (ExactnessError,
                                              QuasiOrthogonal, build_recipe)
            h2 = build_recipe("unit;double")
            q = QuasiOrthogonal(1 << 27, h2.weight, h2.kind, h2.recipe,
                                h2.right_mul)
            try:
                _sign_completion(np.ones((1, 1, 2), dtype=np.int8), q)
            except ExactnessError:
                print(sys.flags.optimize, "order")
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["1", "order"]


class TestGramBlock:
    def test_diag_range_exhaustive_h4(self, h4):
        seen = set()
        for res in iter_all_borders(h4, 1):
            g11 = res.G[0, 0]
            seen.add(g11)
            assert 0 <= g11 <= 8  # h^(3/2)
        assert seen == {4, 8}

    @pytest.mark.parametrize("h", [4, 8, 12])
    def test_row_norm_hadamard(self, h, h4, h8, h12):
        q = {4: h4, 8: h8, 12: h12}[h]
        b = draw(5, h, h, 3)
        c = sign_block(b, q)
        cqt = c.astype(np.int64) @ q.dense().T
        norms = (cqt ** 2).sum(axis=1)
        assert np.all(norms == h * h)

    def test_row_norm_conference(self):
        q = paley_conference(5)
        b = draw(6, 0, 6, 2)
        c = sign_block(b, q)
        cqt = c.astype(np.int64) @ q.dense().T
        assert np.all((cqt ** 2).sum(axis=1) == 5 * 6)

    def test_matches_exact_matmul(self, h8):
        shared = SharedBlocks(3, SearchConfig(trials=2, master_seed=9))
        res = run_trial(h8, 3, 1, shared)
        b = draw(res.master_seed, res.trial_index, 8, 3)
        oracle = (dense_sign_completion(b, h8) @ h8.dense().T
                  @ b.astype(np.int64))
        assert shared.grams.dtype == np.int64
        assert np.array_equal(shared.grams[1], oracle)

    # 5 trials: the budget as it is puts them in one chunk, one of 2 W m
    # entries in chunks of 2, 2 and 1, and one of 1 entry in chunks of one
    # trial whose Gram block runs over single columns of P
    @pytest.mark.parametrize("per,chunks", [(None, [5]), (2, [2, 2, 1]),
                                            (0, [1] * 5)],
                             ids=["one-chunk", "partial-last", "one-each"])
    @pytest.mark.parametrize("recipe,width", [
        ("paley1(331);double", 4), ("paley2(13);double", 3),
        ("conference(709)", 5), ("kron(paley1(3),paley1(7))", 3)])
    def test_chunked_stack_equals_dense_oracle(self, monkeypatch, recipe,
                                               width, per, chunks):
        q = build_recipe(recipe)
        m, seed = q.order, 21
        if per is not None:
            monkeypatch.setattr(border_mod, "PRODUCT_BUDGET",
                                max(1, per * width * m))
        calls = []
        real = border_mod._sign_completion
        monkeypatch.setattr(border_mod, "_sign_completion",
                            lambda bt, q: calls.append(len(bt)) or real(bt, q))
        shared = SharedBlocks(width, SearchConfig(trials=5, master_seed=seed))
        shared.fill(q, width)
        assert calls == chunks
        dense = q.dense()
        for t, g in enumerate(shared.grams):
            # one trial at a time, in exact int64 from the dense core
            b = draw(seed, t, m, width)
            p = b.T.astype(np.int64) @ dense
            assert np.array_equal(g, np.where(p >= 0, 1, -1) @ p.T), t


class TestGreedy:
    def test_d1(self):
        d_block, det_n = _greedy_exact(np.array([[6]]), 4)
        assert d_block.tolist() == [[-1]]
        assert det_n == 10

    def test_all_zero_g(self):
        d_block, det_n = _greedy_exact(np.zeros((2, 2), np.int64), 1)
        assert abs(det_n) >= 1
        assert np.all(np.diagonal(d_block) == -1)

    def test_guarantee_random_h8_d3(self, h8):
        shared = SharedBlocks(3, SearchConfig(trials=10_000, master_seed=100))
        eye = 8 * np.eye(3, dtype=np.int64)
        for t in range(10_000):
            res = run_trial(h8, 3, t, shared)
            midpoint = det_exact(shared.grams[t] + eye)
            assert abs(res.det_n) >= abs(midpoint)

    def test_matches_two_determinant_reference(self):
        rng = np.random.default_rng(2024)
        cases = [(np.zeros((3, 3), np.int64), 1),   # every entry ties
                 (np.zeros((2, 2), np.int64), 0),   # N singular throughout
                 (np.array([[-3, 2], [0, 1]]), 3)]  # singular midpoint
        for _ in range(1500):
            d = int(rng.integers(1, 8))
            k = int(rng.integers(0, 4))
            g = rng.integers(-6, 7, size=(d, d))
            if d > 1 and rng.random() < 0.3:
                g[:, 1] = g[:, 0]  # repeated columns
            cases.append((g, k))
        # the batched path must agree on every block, dominant or not,
        # with a positive, negative or zero midpoint
        ties = singular = negative = 0
        for g, k in cases:
            ref_d, ref_det, tied = reference_greedy(g, k)
            for d_block, det_n in (_greedy_exact(g, k),
                                   batched_greedy(np.asarray(g)[None], k)[0]):
                assert np.array_equal(d_block, ref_d) and det_n == ref_det
            ties += tied
            singular += det_n == 0
            negative += det_n < 0
        assert ties > 0 and singular > 0 and negative > 0

    @pytest.mark.parametrize("recipe,d", [("conference(709)", 4),
                                          ("conference(709)", 7),
                                          ("paley2(1433)", 8),
                                          ("paley2(1433)", 10),
                                          ("conference(709)", 9),
                                          ("conference(709)", 10),
                                          ("paley1(2887)", 11),
                                          ("paley2(1433)", 12),
                                          ("conference(5749)", 14),
                                          ("paley1(5023);double", 22)])
    def test_matches_reference_on_trial_blocks(self, recipe, d, monkeypatch):
        # every block here takes the float path; the d = 22 reference
        # alone takes 924 determinants, so one trial
        q = build_recipe(recipe)
        trials = range(2 if d < 20 else 1)
        grams = _sign_completion(
            sample_border_columns(11, trials, q.order, d).mT, q)
        calls = self._count_calls(monkeypatch)
        corners = batched_greedy(grams, q.weight)
        assert calls == {"_greedy_exact": 0, "det_exact": len(grams)}
        for g, (d_block, det_n) in zip(grams, corners):
            ref_d, ref_det, _ = reference_greedy(g, q.weight)
            assert np.array_equal(d_block, ref_d) and det_n == ref_det

    def test_fallback_non_dominant(self, monkeypatch):
        # at width 14 the 664 core's blocks are not diagonally dominant,
        # and the float path certifies them without the exact fallback
        q = build_recipe("paley1(331);double")
        b = draw(11, 0, q.order, 14)
        g = gram(b, q)
        assert (2 * np.diagonal(g) + 2 * q.weight
                <= np.abs(g).sum(axis=1) + 14 * q.weight).any()
        calls = self._count_calls(monkeypatch)
        [(d_block, det_n)] = batched_greedy(g[None], q.weight)
        assert calls == {"_greedy_exact": 0, "det_exact": 1}
        ref_d, ref_det, _ = reference_greedy(g, q.weight)
        assert np.array_equal(d_block, ref_d) and det_n == ref_det

    @pytest.mark.parametrize("error", [1e-9, 1e-3, np.nan])
    def test_fallback_perturbed_inverse(self, error, monkeypatch):
        # a float inverse off by more than its certificates allow sends the
        # block to the exact path, with the same D and det
        q = build_recipe("paley2(1433)")
        b = draw(11, 1, q.order, 10)
        g = gram(b, q)
        calls = self._count_calls(monkeypatch)
        [want] = batched_greedy(g[None], q.weight)
        assert calls == {"_greedy_exact": 0, "det_exact": 1}
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: real(a) * (1 + error) + error)
        [(d_block, det_n)] = batched_greedy(g[None], q.weight)
        # the exact path: the midpoint, 10 x 10 cofactors and the final det
        assert calls == {"_greedy_exact": 1, "det_exact": 1 + 102}
        assert np.array_equal(d_block, want[0]) and det_n == want[1]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_batched_matches_reference_on_mixed_stacks(self, d, monkeypatch):
        # even blocks are dominant, odd ones have a negative diagonal (and,
        # at odd d, a negative midpoint); both take the float path.  Block
        # 3, with G + kI singular, takes the exact path alone, as if decided
        # by itself, in a stack of 7 and in stacks of one.  With k above
        # every |G_ij| no entry of N turns 0, which could tie
        rng = np.random.default_rng(d)
        k, eye = 10, np.eye(d, dtype=np.int64)
        grams = rng.integers(-9, 10, size=(7, d, d))
        grams[0::2] += 20 * d * eye
        grams[1::2] -= 20 * d * eye
        grams[3, -1] = grams[3, 0] if d > 1 else 0  # det(G + kI) = 0 ...
        grams[3] -= k * eye  # ... once kI is taken off
        assert det_exact(grams[3] + k * eye) == 0
        calls = self._count_calls(monkeypatch)
        for idx in ([0, 1, 2, 3, 4, 5, 6], [0], [1], [3]):
            calls["_greedy_exact"] = 0
            corners = batched_greedy(grams[idx], k)
            for g, (d_block, det_n) in zip(grams[idx], corners):
                ref_d, ref_det, _ = reference_greedy(g, k)
                assert np.array_equal(d_block, ref_d) and det_n == ref_det
            assert calls["_greedy_exact"] == idx.count(3)

    def test_negative_midpoint_non_dominant(self, monkeypatch):
        # G + kI is far from dominant and has a negative determinant; the
        # float path certifies it, and D and det N are the exact greedy's
        g, k = self.NEGATIVE_BLOCK
        assert det_exact(g + k * np.eye(5, dtype=np.int64)) < 0
        calls = self._count_calls(monkeypatch)
        [(d_block, det_n)] = batched_greedy(g[None], k)
        assert calls == {"_greedy_exact": 0, "det_exact": 1}
        ref_d, ref_det, _ = reference_greedy(g, k)
        assert np.array_equal(d_block, ref_d) and det_n == ref_det < 0

    def test_negative_midpoint_checked_under_optimize(self):
        # a doubled final determinant, and a negated one, of the negative
        # block leave the bracket that its certificates give, even under
        # python -O
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            from maxdet import border
            from maxdet.exact import leading_minors
            g = np.array({self.NEGATIVE_BLOCK[0].tolist()})
            minors = [leading_minors((g + 4 * np.eye(5, dtype=int)).tolist())]
            real_det = border.det_exact
            border._greedy_exact = None  # the block takes the float path
            for scale in (2, -1):
                border.det_exact = lambda rows: real_det(rows) * scale
                try:
                    border.greedy_corners(g[None], 4, minors)
                except border.SchurConsistencyError as exc:
                    msg = str(exc)
                    print("certificate" if "bracket" in msg else msg,
                          sys.flags.optimize)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["certificate", "1", "certificate", "1"]

    def test_singular_float_inverse_goes_exact(self, monkeypatch):
        # a stack whose float inverse raises takes the exact path, block by
        # block, with the same D and det N
        q = build_recipe("conference(13)")
        grams = _sign_completion(
            sample_border_columns(2, range(3), q.order, 4).mT, q)

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "inv", singular)
        calls = self._count_calls(monkeypatch)
        for g, (d_block, det_n) in zip(grams, batched_greedy(grams,
                                                              q.weight)):
            ref_d, ref_det, _ = reference_greedy(g, q.weight)
            assert np.array_equal(d_block, ref_d) and det_n == ref_det
        assert calls["_greedy_exact"] == len(grams)

    def test_batched_zero_width(self):
        assert [(c[0].shape, c[1]) for c in batched_greedy(
            np.zeros((3, 0, 0), np.int64), 4)] == [((0, 0), 1)] * 3

    # a non-dominant block whose midpoint det(G + 4I) is negative
    NEGATIVE_BLOCK = (np.array([[-3, 8, -6, 2, 7], [5, -9, 1, -4, 3],
                                [-2, 6, 4, -8, 1], [7, -1, -5, 3, -6],
                                [1, 4, 9, -2, -7]]), 4)

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"_greedy_exact": 0, "det_exact": 0}
        for name in calls:
            real = getattr(border_mod, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(border_mod, name, counted)
        return calls

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5, 7, 12])
    def test_determinant_count(self, d, monkeypatch):
        # a nonsingular midpoint: the exact path takes one direct
        # determinant for the midpoint, d per row for the cofactors and one
        # for the final check.  With the diagonal made dominant the batched
        # path takes only the final direct determinant: its midpoint is a
        # leading minor
        g = np.random.default_rng([3, d]).integers(-9, 10, size=(d, d))
        assert det_exact(g + 4 * np.eye(d, dtype=np.int64)) != 0
        calls = self._count_calls(monkeypatch)
        d_block, det_n = border_mod._greedy_exact(g, 4)
        assert calls == {"_greedy_exact": 1, "det_exact": d * d + 2}
        ref_d, ref_det, _ = reference_greedy(g, 4)
        assert np.array_equal(d_block, ref_d) and det_n == ref_det
        if d:
            g += 20 * d * np.eye(d, dtype=np.int64)
            calls.update(_greedy_exact=0, det_exact=0)
            [(d_block, det_n)] = batched_greedy(g[None], 4)
            assert calls == {"_greedy_exact": 0, "det_exact": 1}
            ref_d, ref_det, _ = reference_greedy(g, 4)
            assert np.array_equal(d_block, ref_d) and det_n == ref_det

    def test_two_norm_bound_certifies_ill_conditioned(self, monkeypatch):
        # every leading minor of G + 4I is nonzero but the block is far
        # from dominant: the row 2-norm bound on its inverse certifies
        # every sign, where the 1-norm bound left 146 determinants to the
        # exact path (the seed is picked for that: most such blocks need
        # only the 1-norm bound)
        g = np.random.default_rng([3, 12, 7]).integers(-9, 10, size=(12, 12))
        calls = self._count_calls(monkeypatch)
        [(d_block, det_n)] = batched_greedy(g[None], 4)
        assert calls == {"_greedy_exact": 0, "det_exact": 1}
        ref_d, ref_det, _ = reference_greedy(g, 4)
        assert np.array_equal(d_block, ref_d) and det_n == ref_det

    def test_one_norm_bound_where_two_norms_overflow(self, monkeypatch):
        # entries near 2^34 would overflow the int64 squared row norms, so
        # the 1-norm bound alone certifies the block
        rng = np.random.default_rng(0)
        g = (rng.integers(-(1 << 31), 1 << 31, size=(6, 6))
             + (1 << 34) * np.eye(6, dtype=np.int64))
        assert 6 * (int(np.abs(g).max()) + 4) ** 2 >= 1 << 63
        calls = self._count_calls(monkeypatch)
        [(d_block, det_n)] = batched_greedy(g[None], 4)
        assert calls == {"_greedy_exact": 0, "det_exact": 1}
        ref_d, ref_det, _ = reference_greedy(g, 4)
        assert np.array_equal(d_block, ref_d) and det_n == ref_det

    def test_determinant_count_singular_midpoint(self, monkeypatch):
        # det(G + I) = 0: no leading minors, so the block takes the exact
        # path: the midpoint, 3 cofactors for each of 3 rows, and the final
        # direct determinant
        g = np.array([[-1, 0, 0], [3, -2, 0], [-3, -1, 3]])
        assert det_exact(g + np.eye(3, dtype=np.int64)) == 0
        calls = self._count_calls(monkeypatch)
        [(d_block, det_n)] = batched_greedy(g[None], 1)
        assert calls == {"_greedy_exact": 1, "det_exact": 11}
        ref_d, ref_det, _ = reference_greedy(g, 1)
        assert np.array_equal(d_block, ref_d) and det_n == ref_det == 32

    def test_guarantee_checked_under_optimize(self):
        # each of the three raised checks of the exact path must fire even
        # under python -O: a zeroed final determinant (the 6th of a 2 x 2
        # block) falls below the midpoint, a negated one differs from the
        # running value, and a midpoint (the 1st) off by one breaks row 0's
        # Laplace expansion
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from maxdet import border
            real_det = border.det_exact
            fakes = [(6, lambda det: 0), (6, lambda det: -det),
                     (1, lambda det: det + 1)]
            for call, fake in fakes:
                calls = []

                def det_exact(rows):
                    calls.append(0)
                    det = real_det(rows)
                    return fake(det) if len(calls) == call else det
                border.det_exact = det_exact
                try:
                    border._greedy_exact(np.array([[5, 1], [-2, 7]]), 4)
                except border.SchurConsistencyError as exc:
                    msg = str(exc)
                    check = ("midpoint" if "below" in msg else
                             "laplace" if "Laplace" in msg else "running")
                    print(check, sys.flags.optimize)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["midpoint", "1", "running", "1",
                                      "laplace", "1"]

    def test_float_path_checked_under_optimize(self):
        # in a stack of three dominant width-8 blocks, a zeroed final
        # determinant of the second falls below its midpoint, and a doubled
        # one leaves the bracket that the float certificates give
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from maxdet import border
            from maxdet.exact import leading_minors
            real_det = border.det_exact
            grams = np.random.default_rng(0).integers(-9, 10, size=(3, 8, 8))
            grams += 200 * np.eye(8, dtype=np.int64)
            minors = [leading_minors((g + 4 * np.eye(8, dtype=int)).tolist())
                      for g in grams]
            border._greedy_exact = None  # every block takes the float path
            for scale in (0, 2):
                calls = []

                def fake(rows):
                    calls.append(0)
                    det = real_det(rows)
                    return det * scale if len(calls) == 2 else det
                border.det_exact = fake
                try:
                    border.greedy_corners(grams, 4, minors)
                except border.SchurConsistencyError as exc:
                    msg = str(exc)
                    print("midpoint" if "below" in msg else
                          "certificate" if "bracket" in msg else msg,
                          sys.flags.optimize)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["midpoint", "1", "certificate", "1"]

    def test_search_path_checked_under_optimize(self):
        # the same two checks on the blocks that a search decides together
        # at every width, from the minors of its largest width
        script = textwrap.dedent("""
            import sys
            from maxdet import border
            from maxdet.constructions import build_recipe
            q = build_recipe("conference(709)")
            config = border.SearchConfig(trials=3, master_seed=1)
            real_det = border.det_exact
            border._greedy_exact = None  # every block takes the float path
            for scale in (0, 2):
                border.det_exact = lambda rows: real_det(rows) * scale
                try:
                    border.search_widths(q, [7, 5], config)
                except border.SchurConsistencyError as exc:
                    msg = str(exc)
                    print("midpoint" if "below" in msg else
                          "certificate" if "bracket" in msg else msg,
                          sys.flags.optimize)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        assert out.stdout.split() == ["midpoint", "1", "certificate", "1"]


class TestRunTrialAndSearch:
    def test_d0_hadamard(self, h4):
        shared = SharedBlocks(0, SearchConfig(trials=1))
        res = run_trial(h4, 0, 0, shared)
        assert res.ratio.sign == 1 and abs(res.ratio.log_abs) < 1e-12
        # the bare core makes no product
        assert (res.det_n, res.D.shape) == (1, (0, 0))
        assert shared.grams is None and res.master_seed == 0

    def test_d0_conference(self):
        q = paley_conference(5)
        res = run_trial(q, 0, 0, SharedBlocks(0, SearchConfig(trials=1)))
        assert math.isclose(res.ratio.value(), 125 / 216, rel_tol=1e-12)

    def test_exhaustive_h4_d1(self, h4):
        best = exhaustive_search(h4, 1)
        assert math.isclose(best.ratio.value(), 48 / 5 ** 2.5, rel_tol=1e-9)
        # the bordered determinant is 4^(m/2-d) * |det N| = 4 * 12
        assert 4 * abs(best.det_n) == 48

    def test_trials1_is_trial0(self, h12):
        # trial 0 of a larger search is the same trial
        a = search(h12, 2, SearchConfig(trials=1, master_seed=42))
        b = run_trial(h12, 2, 0,
                      SharedBlocks(2, SearchConfig(trials=4, master_seed=42)))
        assert a.ratio == b.ratio and a.trial_index == 0
        assert a.det_n == b.det_n and np.array_equal(a.D, b.D)

    def test_width_beyond_core_order(self, h4):
        assert search(h4, 4, SearchConfig(trials=2)).d == 4
        with pytest.raises(ValueError, match="exceeds the core order 4"):
            search(h4, 5, SearchConfig(trials=2))
        with pytest.raises(ValueError, match="border width 5 exceeds"):
            search_widths(h4, [1, 5], SearchConfig(trials=2))

    def test_best_nondecreasing_in_trials(self, h12):
        vals = []
        for trials in (1, 4, 16, 64):
            cfg = SearchConfig(trials=trials, master_seed=3)
            vals.append(search(h12, 2, cfg).ratio)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_search_h4_d1_hits_maximum(self, h4):
        for trials in (64, 128):
            best = search(h4, 1, SearchConfig(trials=trials, master_seed=0))
            if math.isclose(best.ratio.value(), 48 / 5 ** 2.5, rel_tol=1e-9):
                return
        pytest.fail("best-of-128 missed the exhaustive maximum over 16 columns")

    # the ids leave out the pinned values, so a deliberate repin keeps them
    @pytest.mark.parametrize("recipe,d,trials,index,det_schur", [
        ("paley1(331);double", 6, 8, 4, 9156293968795879734902784),
        ("paley2(1433)", 4, 4, 1, 252020455465130909696),
        ("conference(709)", 4, 8, 2, 65502099030331816),
        ("paley2(1433)", 10, 8, 7,
         1019523438068851838841317432833906885362987403575296),
        ("paley1(331);double", 14, 8, 7,
         19050134017701983782166070775034407193281786094167093411840),
        ("paley1(5023);double", 22, 2, 1,
         int("1110928258373947696830334489021012283284216578435301130194455"
             "9930985412380142077624773442714095023639402468197364101440596"
             "105756672")),
    ], ids=["paley1(331);double-d6", "paley2(1433)-d4", "conference(709)-d4",
            "paley2(1433)-d10", "paley1(331);double-d14",
            "paley1(5023);double-d22"])
    def test_pinned_results(self, recipe, d, trials, index, det_schur):
        best = search(build_recipe(recipe), d,
                      SearchConfig(trials=trials, master_seed=0))
        assert (best.trial_index, best.det_n) == (index, det_schur)


@pytest.fixture
def made_blocks(monkeypatch):
    """Every ``SharedBlocks`` that a search makes, in order."""
    made = []

    class Recorded(SharedBlocks):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(border_mod, "SharedBlocks", Recorded)
    return made


def _same_trial(a, a_blocks, b, b_blocks):
    """The same trial: address (so B), det N, ratio and D, and the G that
    each search's blocks hold for it (none at width 0)."""
    t, d = a.trial_index, a.d
    return (t == b.trial_index and d == b.d and a.det_n == b.det_n
            and a.ratio == b.ratio and a.master_seed == b.master_seed
            and np.array_equal(a.D, b.D)
            and (d == 0 or np.array_equal(a_blocks.grams[t, :d, :d],
                                          b_blocks.grams[t, :d, :d])))


class TestSearchWidths:
    @pytest.mark.parametrize("row", [r for r in EXCEPTIONAL_ROWS
                                     if r[0] <= EXCEPTIONAL_FAST_CORE_MAX],
                             ids=lambda r: str(r[0]))
    def test_fast_row_cells_equal_standalone_search(self, row, made_blocks):
        h, _, ds, p, method = row
        q = build_recipe(_table1_core(h, p, method))
        widths = [h + d - q.order for d in ds]
        config = SearchConfig(trials=8, master_seed=3)
        found = search_widths(q, widths, config)
        shared = made_blocks[-1]
        assert [r.d for r in found] == widths
        for w, res in zip(widths, found):
            alone = search(q, w, config)
            assert _same_trial(res, shared, alone, made_blocks[-1]), w

    def test_one_width_equals_search(self, h12, made_blocks):
        config = SearchConfig(trials=16, master_seed=8)
        [res] = search_widths(h12, [3], config)
        alone = search(h12, 3, config)
        assert _same_trial(res, made_blocks[0], alone, made_blocks[1])

    def test_any_order_and_bare_core(self, h12, made_blocks):
        # widths in any order, repeated, or 0, each as if searched alone
        config = SearchConfig(trials=6, master_seed=2)
        widths = [2, 0, 4, 2]
        found = search_widths(h12, widths, config)
        shared = made_blocks[-1]
        for w, res in zip(widths, found):
            alone = search(h12, w, config)
            assert _same_trial(res, shared, alone, made_blocks[-1]), w

    def test_one_product_per_chunk(self, h12, monkeypatch):
        # one draw and one product per chunk of trials whose P fits the
        # budget, none to write a witness and one to verify it: the 5 trials'
        # 3 x 12 blocks fit one chunk, or chunks of 2 at a budget of 72
        # entries, with the last chunk partial
        calls, draws = [], []
        real = border_mod._sign_completion
        real_draw = border_mod.sample_border_columns

        def counted(bt, q):
            calls.append(bt.shape[:2])
            return real(bt, q)

        def counted_draw(master_seed, trials, m, d):
            draws.append((master_seed, list(trials), d))
            return real_draw(master_seed, trials, m, d)
        monkeypatch.setattr(border_mod, "_sign_completion", counted)
        monkeypatch.setattr(border_mod, "sample_border_columns", counted_draw)
        config = SearchConfig(trials=5, master_seed=0)
        found = search_widths(h12, [1, 3, 2], config)
        assert calls == [(5, 3)]
        assert draws == [(0, [0, 1, 2, 3, 4], 3)]
        witness_dict(found[1])
        assert draws[1:] == []
        verify_witness(found[1])
        assert draws[1:] == [(0, [found[1].trial_index], 3)]
        calls.clear()
        draws.clear()
        monkeypatch.setattr(border_mod, "PRODUCT_BUDGET", 2 * 3 * 12)
        chunked = search_widths(h12, [1, 3, 2], config)
        assert calls == [(2, 3), (2, 3), (1, 3)]
        assert draws == [(0, [0, 1], 3), (0, [2, 3], 3), (0, [4], 3)]
        assert [(r.trial_index, r.det_n) for r in chunked] == [
            (r.trial_index, r.det_n) for r in found]

    def test_width_outside_shared_range(self, h12):
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            search(h12, -1, SearchConfig(trials=1))
        with pytest.raises(ValueError, match="must be >= 0"):
            search_widths(h12, [2, -1], SearchConfig(trials=1))
        config = SearchConfig(trials=1)
        with pytest.raises(ValueError, match="width 3 is outside 0..2"):
            search(h12, 3, config, SharedBlocks(2, config))

    def test_minors_are_the_midpoints_of_every_width(self, h12):
        # one pivot-free Bareiss run per trial at the largest width gives
        # det(G[:w, :w] + kI) for every w; each width's corners are decided
        # once, by its first trial
        config = SearchConfig(trials=6, master_seed=1)
        shared = SharedBlocks(5, config)
        for d in (5, 2, 2):
            search(h12, d, config, shared)
        assert shared.grams.shape == (6, 5, 5)
        assert sorted(shared.corners) == [2, 5]
        for g, minors in zip(shared.grams, shared.minors):
            want = [det_exact(g[:w, :w] + h12.weight * np.eye(w, dtype=int))
                    for w in range(1, 6)]
            assert minors == (None if 0 in want else want)


class TestSchurConsistency:
    def test_direct_equals_schur_random(self, order_set):
        rng = np.random.default_rng(12345)
        cores = ["unit;double;double", "unit;double;double;double",
                 "paley1(11)", "paley1(19)", "unit;double;double;double;double",
                 "paley1(23)", "conference(5)", "conference(13)",
                 "conference(17)", "paley2(5)", "paley2(13)", "paley1(43)",
                 "paley1(31)", "conference(29)", "conference(37)"]
        orders = {recipe: build_recipe(recipe).order for recipe in cores}
        cases = []
        t = 0
        while len(cases) < 100:
            recipe = cores[rng.integers(len(cores))]
            # no border wider than its core, which search refuses too
            max_d = min(8, 64 - orders[recipe], orders[recipe])
            if max_d >= 1:
                cases.append((recipe, int(rng.integers(1, max_d + 1)), t))
            t += 1
        for res in trials_of(cases, 777):
            verify_witness(res)  # n <= 64: includes the direct determinant

    def test_direct_check_catches_mismatch(self, h4):
        res = run_trial(h4, 2, 1,
                        SharedBlocks(2, SearchConfig(trials=2, master_seed=1)))
        w = witness_dict(res)
        w["D_off"] = flip_sign(w["D_off"], 0)  # D[0, 1]
        with pytest.raises((WitnessError, SchurConsistencyError)):
            verify_witness(w)


class TestWitness:
    def test_round_trip_file(self, tmp_path, h12):
        best = search(h12, 2, SearchConfig(trials=8, master_seed=5))
        path = tmp_path / "witness.json"
        save_witness(path, best)
        ratio = verify_witness(path)
        assert abs(ratio.log_abs - best.ratio.log_abs) < 1e-9

    def test_witness_with_b_and_no_stream_refused(self, tmp_path, capsys):
        # written by ``search --recipe 'paley1(19)' --d 3 --trials 8
        # --seed 0 --out`` when trials drew B from a Philox stream and
        # witnesses stored B: it names no stream to draw B from
        w = {"n": 23, "m": 20, "d": 3, "kind": "hadamard", "weight": 20,
             "recipe": "paley1(19)", "master_seed": 0, "trial_index": 2,
             "B": "-+- --- ++- +-+ --- +-- --- +++ -++ --- -+- ++- +++ ++- "
                  "+-+ -+- --+ ++- -+- -++".split(),
             "D_off": "--+-++", "det_schur": "1049856",
             "ratio_log": -1.2238939984356634,
             "ratio_decimal": 0.294082776533888}
        with pytest.raises(WitnessError, match="no 'stream' field"):
            verify_witness(w)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(w))
        assert cli.main(["verify", str(path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False and "'stream'" in data["error"]

    def test_fresh_result_round_trips(self, h12):
        best = search(h12, 3, SearchConfig(trials=4, master_seed=6))
        ratio = verify_witness(best)
        assert abs(ratio.log_abs - best.ratio.log_abs) < 1e-12

    def test_tampered_b_raises(self, h12):
        # a witness carries no B, so one written into it is refused rather
        # than passed over: verify draws B from the address alone
        w = witness_dict(search(h12, 2, SearchConfig(trials=4,
                                                      master_seed=10)))
        w["B"] = ["++"] * 12
        with pytest.raises(WitnessError, match="unknown field 'B'"):
            verify_witness(w)

    @pytest.mark.parametrize("field, step", [
        ("master_seed", 1), ("trial_index", 1), ("master_seed", -1)],
        ids=["seed+1", "trial+1", "seed-1"])
    def test_changed_address_fails_det_schur(self, field, step):
        # n = 71 is above DIRECT_CHECK_LIMIT, and a witness carries neither
        # B nor C: verify draws B at the changed address and recomputes C
        # and G, so the stored det_schur is what catches it
        w = moved_address(witness_dict(
            search(build_recipe("paley1(67)"), 3,
                   SearchConfig(trials=4, master_seed=12))), field, step)
        with pytest.raises(WitnessError, match="det_schur"):
            verify_witness(w)

    def test_tampered_det_schur_raises(self, h12):
        best = search(h12, 2, SearchConfig(trials=4, master_seed=10))
        w = witness_dict(best)
        assert w["det_schur"] == str(best.det_n)
        for value in (best.det_n + 1, -best.det_n):
            w["det_schur"] = str(value)
            with pytest.raises(WitnessError, match="det_schur"):
                verify_witness(w)

    @pytest.mark.parametrize("text", ["", "12a", "+12", "1e5", " 12", "1_0",
                                      "--1", "\u0661"])
    def test_malformed_det_schur_raises(self, h12, text):
        best = search(h12, 2, SearchConfig(trials=2, master_seed=10))
        w = witness_dict(best)
        w["det_schur"] = text
        with pytest.raises(WitnessError, match="det_schur"):
            verify_witness(w)

    def test_tampered_ratio_raises(self, tmp_path, h12):
        best = search(h12, 2, SearchConfig(trials=4, master_seed=10))
        w = witness_dict(best)
        w["ratio_log"] += 0.5
        with pytest.raises(WitnessError):
            verify_witness(w)

    def test_bad_sign_string(self, h12):
        best = search(h12, 2, SearchConfig(trials=2, master_seed=11))
        w = witness_dict(best)
        w["D_off"] = "+x"
        with pytest.raises(WitnessError, match="D_off entry 1"):
            verify_witness(w)
        w["D_off"] = "\u0661+"
        with pytest.raises(WitnessError, match="D_off entry 0"):
            verify_witness(w)

    # a change to None drops the field: the first three are witnesses in
    # the earlier format, which stored B and named no stream
    @pytest.mark.parametrize("change,error", [
        ({"B": [], "stream": None}, "no 'stream' field"),
        ({"B": ["+-"] * 1004, "stream": None}, "no 'stream' field"),
        ({"B": ["+"] * 1003 + ["*"], "stream": None}, "no 'stream' field"),
        ({"D_off": "+"}, "D off-diagonal block has wrong length"),
        ({"n": 1006, "d": 2, "D_off": "+?"}, "bad sign '?' at D_off entry 1"),
        ({"n": 1006}, "n != m + d"),
        ({"n": 2009, "d": 1005}, "border width d exceeds the core order m"),
        ({"stream": "philox4x64-10"}, "unknown stream 'philox4x64-10'"),
        ({"trial_index": True}, "'trial_index' has the wrong type"),
        ({"trial_index": -1}, "trial_index is outside 0..2^64 - 1"),
        ({"trial_index": 1 << 64}, "trial_index is outside 0..2^64 - 1"),
        ({"master_seed": 1.0}, "'master_seed' has the wrong type")],
        ids=["no-rows", "wide-rows", "bad-sign", "short-d-off",
             "bad-d-off", "wrong-n", "wider-than-core", "unknown-stream",
             "bool-trial-index", "negative-trial-index",
             "trial-index-2^64", "float-master-seed"])
    def test_malformed_blocks_refused_before_the_core(self, monkeypatch,
                                                      change, error):
        # a forged witness naming paley1(1000003) whose fields, address or
        # blocks are malformed is refused before that core is built and
        # before any B is drawn
        called = []
        monkeypatch.setattr(border_mod, "build_recipe", called.append)
        monkeypatch.setattr(border_mod, "sample_border_columns",
                            lambda *args: called.append(args))
        w = {"n": 1005, "m": 1004, "d": 1, "weight": 1004,
             "kind": "hadamard", "recipe": "paley1(1000003)",
             "stream": "splitmix64-1", "master_seed": 0, "trial_index": 0,
             "D_off": "", "det_schur": "1", "ratio_log": 0.0,
             "ratio_decimal": 1.0, **change}
        w = {key: value for key, value in w.items() if value is not None}
        with pytest.raises(WitnessError, match=re.escape(error)):
            verify_witness(w)
        assert called == []

    @pytest.mark.parametrize("recipe,d", [
        ("unit", 0), ("paley1(11)", 0), ("paley1(11)", 1),
        ("conference(13)", 3)], ids=["unit", "bare-core", "d1", "conference"])
    def test_saved_bytes_equal_json_dump(self, tmp_path, recipe, d):
        # save_witness lays the text out itself, in json.dump's bytes
        best = search(build_recipe(recipe), d,
                      SearchConfig(trials=4, master_seed=7))
        path = tmp_path / "w.json"
        save_witness(path, best)
        assert path.read_text() == (
            json.dumps(witness_dict(best), indent=2) + "\n")

    def test_witness_fields(self, h12):
        best = search(h12, 2, SearchConfig(trials=2, master_seed=12))
        w = witness_dict(best)
        assert w["n"] == 14 and w["m"] == 12 and w["d"] == 2
        # B is addressed in its stream, not stored
        assert "B" not in w and w["stream"] == "splitmix64-1"
        assert (w["master_seed"], w["trial_index"]) == (12,
                                                        best.trial_index)
        assert len(w["D_off"]) == 2
        assert w["recipe"] == "paley1(11)"
        json.dumps(w)  # serializable


class TestRecordClasses:
    def test_no_dataclasses(self):
        # records are NamedTuples or plain classes: no code generation at
        # import, and maxdet adds no import of dataclasses
        for mod in (border_mod, bounds, cli, constructions, exact, primes,
                    sieve):
            for name, cls in inspect.getmembers(mod, inspect.isclass):
                assert not dataclasses.is_dataclass(cls), (mod, name)
        script = textwrap.dedent("""
            import sys
            import numpy
            before = "dataclasses" in sys.modules
            import maxdet.cli
            print(before, "dataclasses" in sys.modules)
        """)
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(maxdet.__file__).parents[1])})
        before, after = out.stdout.split()
        assert after == before

    @pytest.mark.parametrize("trials", [0, -3])
    def test_search_config_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="trials"):
            SearchConfig(trials=trials)
        with pytest.raises(ValueError, match="trials"):
            SearchConfig(trials, 5)

    def test_shared_blocks_start_empty(self):
        config = SearchConfig(trials=2)
        a, b = SharedBlocks(3, config), SharedBlocks(3, config)
        assert a.grams is None and a.minors == [] and a.corners == {}
        assert a.minors is not b.minors and a.corners is not b.corners


class TestRatioFromDet:
    def test_hadamard_bound_attained(self):
        # the order-1 core bordered by 3: |det| 16 = 4^(4/2) at n = 4
        assert abs(_ratio_from_det(16, 1, 1, 3).log_abs) < 1e-12

    def test_n5_value(self):
        # H4 bordered by 1: det N = 12 gives |det| 4^2 * 12 / 4 = 48 = D(5)
        r = _ratio_from_det(12, 4, 4, 1)
        assert math.isclose(r.value(), 48 / 5 ** 2.5, rel_tol=1e-12)
        assert math.isclose(r.value(), 0.858650, abs_tol=5e-7)


class TestAssemble:
    def test_shape_and_blocks(self, h4):
        res = run_trial(h4, 2, 0, SharedBlocks(2, SearchConfig(trials=1)))
        b = draw(res.master_seed, res.trial_index, 4, 2)
        c = dense_sign_completion(b, h4)
        full = np.array(assemble_bordered(h4, b, c, res.D))
        assert full.shape == (6, 6)
        assert np.array_equal(full[:4, :4], h4.dense())
        assert np.array_equal(full[:4, 4:], b)
        assert np.array_equal(full[4:, :4], c)
        assert np.array_equal(full[4:, 4:], res.D)
        assert full[4][4] == -1 and full[5][5] == -1
