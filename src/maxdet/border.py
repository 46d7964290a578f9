"""Randomized bordering of quasi-orthogonal matrices.

A trial samples an m x d sign block B, completes the d x m block C by the
no-cancellation sign rule C = sgn(B^T Q), greedily fixes the d x d corner
D (diagonal -1), and evaluates the bordered determinant exactly through
the integer Schur block N = G - k D with G = C Q^T B.  det N is linear in
each row of D, with coefficients the cofactors of that row, so the greedy
decides each entry by the sign of one cofactor.  A search decides the
corners of all its trials at one width together (``greedy_corners``):
every block with nonzero leading minors of G + kI takes its signs from
float solves, vectorized over the stack and kept current by Sherman-Morrison
updates, and each sign is certified by an exact integer residual and a
Hadamard bound on the inverse.  A block with k = 0, a zero leading
minor, or a sign that cannot be certified takes d direct cofactors per
row (``_greedy_exact``).  Either way D and det N are the exact greedy's,
every determinant and minor comes from ``exact``'s one Bareiss
elimination, and the checks are raised, also under ``python -O``.
Ratios |det| / n^(n/2) are carried in log scale; d = 0 is the bare core.

A search makes its products over Q by the chunk of consecutive trials:
one exact product P = B^T Q of the chunk's stacked B^T rows, through the
core's operator (``QuasiOrthogonal.rmatmul``, exact by the checks
described in ``constructions``), which reads them in place and writes P
in float64.  A chunk takes as many trials as keep P within
``PRODUCT_BUDGET`` entries, or one trial where its P is larger.  Since
Q^T B = P^T, each trial's Gram block is G = C P^T over its own rows of P,
summed by float64 products over blocks of P's columns where the operator
wrote P, so C is held one block at a time; it is exact because every
partial sum is an integer of size at most m^2 < 2^53 (a raised check on
the order).

A trial is fixed by its stream, SplitMix64 words keyed by (master_seed,
trial_index) (``sample_border_columns`` states it bit for bit), which
draws B: C and G follow from B, and D from G.  The stream is a counter
hash, so a chunk's B^T rows are drawn by a few uint64 array operations,
and any trial's B can be rederived with integers alone.  A
``TrialResult`` keeps D and det N, and its witness keeps D and the
address of B, (master_seed, trial_index): ``verify_witness`` draws B
again from there, after every field and the core are checked, and
recomputes C and G.  Border widths nest: B is drawn as a d x m array and
transposed, and the draw is prefix-stable, so the first w columns of a
trial's width-W block are its width-w block.  Entry (i, j) of G depends
only on columns i and j of B, so the width-w trial's G is the leading
block G[:w, :w] of the width-W one, and its midpoint det(G[:w, :w] + kI)
is a leading principal minor of G + kI.  Every trial runs in a search,
which keeps G of every trial at the largest width it serves
(``SharedBlocks``): one draw and one product per chunk, one Bareiss run
per trial for the midpoints of every width (``leading_minors``: its
pivots, when it swaps no row), and one batched greedy per width.
"""

from __future__ import annotations

import json
import math
import re
from operator import attrgetter, mul
from typing import NamedTuple

import numpy as np

from .constructions import (PRODUCT_BUDGET, ExactnessError, QuasiOrthogonal,
                            build_recipe, work_array)
from .exact import LogScalar, det_exact, leading_minors


class WitnessError(ValueError):
    """Stored witness data is inconsistent with its own fields."""


class SchurConsistencyError(RuntimeError):
    """An exact cross-check of the determinant failed (internal bug)."""


class SearchConfig:
    def __init__(self, trials: int, master_seed: int = 0):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.trials, self.master_seed = trials, master_seed


# verify_witness also checks the full bordered determinant up to this n
DIRECT_CHECK_LIMIT = 64

class TrialResult(NamedTuple):
    """One trial of a search: its corner D (int8) and det N = det(G - k D)."""

    ratio: LogScalar
    trial_index: int
    n: int
    m: int
    d: int
    kind: str
    weight: int
    recipe: str
    master_seed: int
    det_n: int
    D: np.ndarray


# SplitMix64's state step (Steele, Lea and Flood, OOPSLA 2014)
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array, mod 2^64."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def sample_border_columns(master_seed: int, trials, m: int, d: int
                          ) -> np.ndarray:
    """The T x m x d stack of B, one m x d block of fair +-1 entries for
    each trial index in ``trials`` (d = 0 gives m x 0 blocks).

    The stream of trial t is SplitMix64's, all mod 2^64: with mix64 its
    finalizer (``_mix64``) and gamma = 0x9E3779B97F4A7C15, the trial's key
    is k = mix64(mix64(master_seed) ^ t), and its word i (from 0) is
    mix64(k + (i + 1) gamma).  Entry j of the trial's row-major d x m draw
    is +1 iff bit j mod 64 of word floor(j / 64) is set, bits counted from
    the least significant, and -1 otherwise.  B is the transpose of that
    draw, so its first w columns are the width-w draw of the same trial.
    The stack is a view of one C-ordered (T, d, m) int8 array, which is
    the chunk's B^T rows.
    """
    if m < 1 or d < 0:
        raise ValueError("m must be >= 1 and d >= 0")
    mask = (1 << 64) - 1
    keys = _mix64(np.array([t & mask for t in trials], dtype=np.uint64)
                  ^ _mix64(np.array([master_seed & mask], dtype=np.uint64)))
    words = np.arange(1, -(-d * m // 64) + 1, dtype=np.uint64) * GOLDEN_GAMMA
    words = _mix64(keys[:, None] + words)
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=1, count=d * m, bitorder="little")
    signs = bits.view(np.int8)
    signs *= 2  # not <<= 1: numpy's int8 shift is several times slower
    signs -= 1
    return signs.reshape(len(keys), d, m).mT


def _check_gram_order(m: int) -> None:
    if m * m >= 1 << 53:
        raise ExactnessError(f"order {m} is too large for an exact float64 "
                             f"Gram block")


def _signs(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sgn(P) as float64 +-1, with sgn(0) = +1, into out if given."""
    # -0.0 + 0.0 = +0.0, so every zero of P, whatever its sign bit, gives +1
    c = np.add(p, 0.0, out=out)
    return np.copysign(1.0, c, out=c)


def _sign_completion(bt: np.ndarray, q: QuasiOrthogonal) -> np.ndarray:
    """The T x W x W int64 stack of G = C Q^T B = C P^T, one per trial, for
    the T x W x m integer array bt whose slice t is trial t's B^T, with
    P = B^T Q and C = sgn(P) (``_signs``).

    The core's operator makes one product of all T W rows of bt, read in
    place where their layout allows, and writes P in float64, exact as its
    entries are integers below 2^53 (``QuasiOrthogonal.rmatmul``), into a
    work array of the core.  Each trial's G reads its own W rows of P
    there, one block of columns at a time: the block's C goes into a
    second work array of at most PRODUCT_BUDGET entries (or one column),
    and each trial adds its C P^T to its G.  B is a sign block, so
    |P| <= m and every partial sum, within a block or across blocks, is an
    integer of size at most m^2: below 2^53 the float64 (BLAS) products and
    their sum are exact in any summation order.  Only the returned stack is
    new; C is never held whole.
    """
    _check_gram_order(q.order)
    trials, d, m = bt.shape
    rows = trials * d
    p = q.rmatmul(bt.reshape(rows, m).T, work_array(q.work, "p", (rows, m)))
    width = min(m, max(1, PRODUCT_BUDGET // max(rows, 1)))
    c = work_array(q.work, "c", (rows, width))
    g = np.zeros((trials, d, d))
    for j in range(0, m, width):
        w = min(width, m - j)
        block = p[:, j:j + w].reshape(trials, d, w)
        g += _signs(block, c[:, :w].reshape(trials, d, w)) @ block.mT
    return g.astype(np.int64)


def _greedy_exact(g, k: int) -> tuple[np.ndarray, int]:
    """Fix D entrywise to maximize |det N| for the Schur block N = G - k D.

    g is the square integer Gram block, as an array or a list of rows.
    The diagonal of D is -1; the off-diagonal entries start undecided (held
    at 0) and are fixed in row-major order.  det N is linear in row i, and
    the cofactors of row i depend only on the other rows, so they stay
    fixed while row i is decided: setting entry (i, j) to s moves det N by
    -k s cof_ij.  The entry takes the sign of the larger of |det - k cof_ij|
    and |det + k cof_ij|, +1 winning ties, so |det N| never falls below the
    midpoint |det(G + kI)| where it starts.

    This is the exact path of ``greedy_corners``, for the blocks that its
    certified float solves do not decide: each cofactor of row i is one
    direct determinant, N with row i replaced by a unit row.  Three raised
    checks: each row's Laplace expansion must equal the running
    determinant, and one final direct determinant must reach the midpoint
    and equal the running value.
    """
    work = np.asarray(g).tolist()
    d = len(work)
    for i in range(d):
        work[i][i] += k
    midpoint = running = det_exact(work)
    d_block = -np.eye(d, dtype=np.int8)
    for i in range(d):
        row = work[i]
        cof_i = [det_exact(work[:i] + [[int(c == j) for c in range(d)]]
                           + work[i + 1:]) for j in range(d)]
        for j in range(d):
            if j != i:
                step = k * cof_i[j]
                sign = 1 if abs(running - step) >= abs(running + step) else -1
                d_block[i, j] = sign
                row[j] -= k * sign
                running -= sign * step
        laplace = sum(map(mul, row, cof_i))
        if laplace != running:
            raise SchurConsistencyError(
                f"row {i} Laplace expansion {laplace} differs from the "
                f"running determinant {running}")
    det_n = det_exact(work)
    if abs(det_n) < abs(midpoint):
        raise SchurConsistencyError(
            f"greedy corner det {det_n} fell below the midpoint "
            f"det(G + kI) = {midpoint}")
    if det_n != running:
        raise SchurConsistencyError(
            f"greedy corner det {det_n} differs from the running value "
            f"{running}")
    return d_block, det_n


def greedy_corners(grams: np.ndarray, k: int, minors: list
                   ) -> list[tuple[np.ndarray, int]]:
    """The greedy corner (``_greedy_exact``) of every block of a (T, d, d)
    int64 stack, by certified float solves where they hold.

    ``minors`` gives, for each block, the ``leading_minors`` of a matrix
    whose leading d x d block is that block's G + kI, or None.

    Sign rule.  Once det N is nonzero, each step of the greedy moves it
    away from 0, so it never changes sign and |det N| never falls below
    the midpoint det(G + kI) = minors[d - 1].  So with N_i the block just
    before row i is set, the rule becomes s_ij = +1 iff cof_ij det N_i <= 0,
    that is iff x_j <= 0 for x = N_i^-1 e_i.  The blocks with k > 0 and a
    nonzero midpoint share one stacked float inverse of G + kI, kept current
    by a Sherman-Morrison update after each row.

    Bound.  Every D the greedy visits keeps |N_rc| <= |G_rc| + k, so
    S_r = sum_c (|G_rc| + k)^2 bounds the squared 2-norm of row r of N,
    and by Hadamard's inequality every cofactor of N_i is at most
    sqrt(prod_r S_r / min_r S_r).  With |det N_i| >= |midpoint| this gives
    ||N_i^-1||_inf <= beta = d ceil(sqrt(prod_r S_r / min_r S_r)) /
    |midpoint|, computed in integers.  The 1-norms R_r = sum_c |G_rc| + d k
    give the cofactor bound prod_r R_r / min_r R_r, which is never smaller
    since sqrt(S_r) <= R_r; the root is capped by it, and where S could
    overflow int64 the 1-norm bound stands alone.

    Certificate: x' = rint(2^s x) is an integer vector with a residual
    r = N_i x' - 2^s e_i that is exact in int64, so the exact scaled
    solution 2^s x is within beta ||r||_inf of x' in every entry.
    Decision j stands only if |x'_j| > beta ||r||_inf, compared in
    integers.  Entries and k below 2^46 make N exact in float64, and with
    d < 2^14 they bound every R_r by 2^61.  The scale keeps
    2^s (max_r R_r ||x||_inf + 1) < 2^61, so no int64 step can overflow.

    A certified block closes with a Bareiss run for the final det N and
    two raised checks.  The final determinant must reach the midpoint.
    And every certificate must have held: row i multiplies det N by
    1 + v.x for its change v of row i (the determinant lemma),
    v.x' = k sum_j |x'_j| for certified signs, and
    |v.(2^s x - x')| <= k (d - 1) beta ||r||_inf, so det N / det(G + kI)
    lies in the product of these brackets.  A block with k = 0, no minors
    (a zero pivot), a sign that cannot be certified, or in a stack whose
    float inverse fails, takes ``_greedy_exact`` alone.
    """
    count, d = grams.shape[:2]
    corners = [None] * count
    lim = 1 << 46
    if d and 0 < k < lim and d < 1 << 14 and grams.dtype == np.int64:
        a = np.abs(grams) + k  # |N_rc| <= a_rc for every D visited
        rows = a.sum(axis=2)
        # S_r = sum_c a_rc^2, where int64 holds it
        sq = ((a * a).sum(axis=2) if d * int(a.max(initial=0)) ** 2 < 1 << 63
              else None)
        has_minors = np.array([mids is not None for mids in minors],
                              dtype=bool)
        idx = np.flatnonzero(has_minors & (-lim < grams.min(axis=(1, 2)))
                             & (grams.max(axis=(1, 2)) < lim))
        n0 = grams[idx] + k * np.eye(d, dtype=np.int64)
        try:
            inv = np.linalg.inv(n0.astype(np.float64))
        except np.linalg.LinAlgError:  # singular in floats: all go exact
            inv = np.full(n0.shape, np.nan)
        xs = np.empty(inv.shape)  # column i: x = N_i^-1 e_i
        vs = np.empty(inv.shape)  # row i: the change -k D[i] made to row i
        for i in range(d):
            x, v = xs[:, :, i], vs[:, i]
            x[...] = inv[:, :, i]
            # s_ij = +1 iff x_j <= 0; a zero x_j is never certified below
            np.copysign(k, x, out=v)
            v[:, i] = 0
            w = (v[:, None] @ inv)[:, 0]
            inv -= x[:, :, None] * (w / (1 + w[:, i:i + 1]))[:, None]
        big = rows[idx].max(axis=1)
        x_max = np.abs(xs).max(axis=1)
        scale = 61 - np.frexp(big[:, None] * x_max + 1)[1].astype(np.int64)
        keep = np.isfinite(x_max).all(axis=1) & (scale.min(axis=1) >= 0)
        idx, n0, xs, vs, scale = (a[keep] for a in (idx, n0, xs, vs, scale))
        xp = np.rint(np.ldexp(xs, scale[:, None])).astype(np.int64)
        nf = n0 + vs.astype(np.int64)
        # column i's residual takes the set rows of N for j < i
        res = np.where(np.triu(np.ones((d, d), dtype=bool), 1), nf @ xp,
                       n0 @ xp)
        diag = np.arange(d)
        res[:, diag, diag] -= np.left_shift(1, scale)
        r_norm = np.abs(res).max(axis=1)
        abs_xp = np.abs(xp)
        # the smallest decided |x'_j| of each column; none when d = 1
        low = np.where(np.eye(d, dtype=bool), np.iinfo(np.int64).max,
                       abs_xp).min(axis=1)
        d_blocks = (vs < 0).astype(np.int8) * 2 - 1
        for j, t in enumerate(idx.tolist()):
            r_t = rows[t].tolist()
            cof = math.prod(r_t) // min(r_t)
            if sq is not None:
                s_t = sq[t].tolist()
                cof = min(cof, math.isqrt(math.prod(s_t) // min(s_t) - 1) + 1)
            midpoint = minors[t][d - 1]
            num, den = d * cof, abs(midpoint)
            if all(x * den > num * r for x, r in zip(low[j].tolist(),
                                                     r_norm[j].tolist())):
                corners[t] = (d_blocks[j], _close_certified(
                    nf[j], midpoint, num, den, k, scale[j], r_norm[j],
                    abs_xp[j]))
    return [corner if corner is not None else _greedy_exact(g, k)
            for corner, g in zip(corners, grams)]


def _close_certified(nf, midpoint, num, den, k, scale, r_norm, abs_xp
                     ) -> int:
    """det N of a certified block, after its two raised checks; the bound
    on its inverse is beta = num / den."""
    d = len(nf)
    det_n = det_exact(nf.tolist())
    if abs(det_n) < abs(midpoint):
        raise SchurConsistencyError(
            f"greedy corner det {det_n} fell below the midpoint "
            f"det(G + kI) = {midpoint}")
    lo = hi = unit = 1
    for s, r, total, own in zip(scale.tolist(), r_norm.tolist(),
                                abs_xp.sum(axis=0).tolist(),
                                np.diagonal(abs_xp).tolist()):
        base = (den << s) + k * den * (total - own)
        slack = k * (d - 1) * num * r
        lo, hi = lo * (base - slack), hi * (base + slack)
        unit *= den << s
    # det N / midpoint > 0: the greedy never changes the sign of det N
    size, signed = abs(midpoint), det_n if midpoint > 0 else -det_n
    if not size * lo <= signed * unit <= size * hi:
        raise SchurConsistencyError(
            f"greedy corner det {det_n} is outside the bracket that the "
            f"float certificates give from the midpoint {midpoint}")
    return det_n


def _ratio_from_det(det_n: int, m: int, k: int, d: int) -> LogScalar:
    if det_n == 0:
        return LogScalar(0, 0.0)
    if d == 0:
        # the bare core k^(m/2) / m^(m/2); the general formula below rounds
        # differently, and witnesses store this value
        return LogScalar(1, 0.5 * m * (math.log(k) - math.log(m)))
    # |det| scaled by the Hadamard bound (m + d)^((m + d)/2)
    log_det = 0.5 * m * math.log(k) + math.log(abs(det_n)) - d * math.log(k)
    return LogScalar(1, log_det - 0.5 * (m + d) * math.log(m + d))


class SharedBlocks:
    """The trials of one search at the largest width W it serves, kept from
    the first trial to the end: every trial's G (T x W x W int64, 8 T W^2
    bytes), the leading principal minors of each G + kI, which are the
    midpoints of every width, and each width's greedy corners."""

    def __init__(self, width: int, config: SearchConfig):
        self.width, self.config = width, config
        self.grams: np.ndarray | None = None
        self.minors: list = []
        self.corners: dict = {}

    def fill(self, q: QuasiOrthogonal, d: int) -> None:
        """Make every trial's G at width W, if not yet made, and every
        corner at width d.

        The trials go in chunks of consecutive indices, as many as keep the
        chunk's P = B^T Q within PRODUCT_BUDGET entries, or one trial: the
        chunk's B^T rows are drawn together, each trial's from its own
        stream, as one int8 array, and ``_sign_completion`` makes one
        product per chunk.
        """
        if self.grams is None:
            seed, m, top = self.config.master_seed, q.order, self.width
            trials = self.config.trials
            per = min(trials, max(1, PRODUCT_BUDGET // (top * m)))
            self.grams = np.empty((trials, top, top), dtype=np.int64)
            for first in range(0, trials, per):
                stop = min(first + per, trials)
                bt = sample_border_columns(seed, range(first, stop), m,
                                           top).mT
                self.grams[first:stop] = _sign_completion(bt, q)
            eye = q.weight * np.eye(top, dtype=np.int64)
            self.minors = [leading_minors((g + eye).tolist())
                           for g in self.grams]
        if d not in self.corners:
            self.corners[d] = greedy_corners(self.grams[:, :d, :d], q.weight,
                                             self.minors)


def run_trial(q: QuasiOrthogonal, d: int, trial_index: int,
              shared: SharedBlocks) -> TrialResult:
    """Trial ``trial_index`` of the search that ``shared`` serves.

    At d > 0 the search's first trial at each width fills the whole search
    (``SharedBlocks.fill``), and every trial reads its D and det N there.
    d = 0 is the bare core, ratio k^(m/2)/m^(m/2): an empty corner with
    det N = 1, and no product.
    """
    if d:
        shared.fill(q, d)
        d_block, det_n = shared.corners[d][trial_index]
    else:
        d_block, det_n = np.zeros((0, 0), dtype=np.int8), 1
    m, k = q.order, q.weight
    return TrialResult(ratio=_ratio_from_det(det_n, m, k, d),
                       trial_index=trial_index, n=m + d, m=m, d=d,
                       kind=q.kind, weight=k, recipe=q.recipe,
                       master_seed=shared.config.master_seed, det_n=det_n,
                       D=d_block)


def search(q: QuasiOrthogonal, d: int, config: SearchConfig,
           shared: SharedBlocks | None = None) -> TrialResult:
    """Best trial over indices 0..trials-1; deterministic for a given seed.

    Each trial is one ``run_trial`` call, which reads the search's blocks.
    The reduction keeps the highest ratio; the lowest trial index wins a
    tie.  With d = 0 every trial is the bare core, so only trial 0 runs.
    ``shared`` comes from ``search_widths``, with the same config; without
    it the search keeps its own at width d.
    """
    if d < 0:
        raise ValueError(f"border width must be >= 0, got {d}")
    if shared is None:
        shared = SharedBlocks(d, config)
    if d > shared.width:
        raise ValueError(f"width {d} is outside 0..{shared.width}")
    if shared.width > q.order:
        raise ValueError(f"border width {shared.width} exceeds the core "
                         f"order {q.order}")
    _check_gram_order(q.order)  # before a B of that order is drawn
    trials = config.trials if d else 1
    return max((run_trial(q, d, t, shared) for t in range(trials)),
               key=attrgetter("ratio"))


def search_widths(q: QuasiOrthogonal, widths: list[int],
                  config: SearchConfig) -> list[TrialResult]:
    """The best trial at each border width, in the order given.

    Each equals ``search(q, w, config)``: the trials' products over Q are
    made at the largest width, by the chunk (``SharedBlocks.fill``), and
    every width reads the leading block of each trial's G and the leading
    minors of its G + kI.
    """
    shared = SharedBlocks(max(widths, default=0), config)
    return [search(q, d, config, shared) for d in widths]


def assemble_bordered(q: QuasiOrthogonal, b: np.ndarray, c: np.ndarray,
                      d_block: np.ndarray) -> list[list[int]]:
    """The full n x n matrix [[Q, B], [C, D]] as exact integers."""
    m, d = q.order, d_block.shape[0]
    full = np.zeros((m + d, m + d), dtype=np.int64)
    full[:m, :m] = q.dense()
    full[:m, m:] = b
    full[m:, :m] = c
    full[m:, m:] = d_block
    return full.tolist()


# ---------------------------------------------------------------------------
# witnesses


# the name of the stream that ``sample_border_columns`` states, as a witness
# names it
STREAM = "splitmix64-1"


def witness_dict(result: TrialResult) -> dict:
    """The witness of a trial: its core, the address of its B in the stream
    (master_seed, trial_index), its corner D as the row-major signs off the
    diagonal, and det N and the ratio.  C and B are not stored: verify
    draws B again from its address and recomputes C."""
    d = result.d
    return {
        "n": result.n, "m": result.m, "d": d,
        "kind": result.kind, "weight": result.weight,
        "recipe": result.recipe,
        "stream": STREAM,
        "master_seed": result.master_seed,
        "trial_index": result.trial_index,
        "D_off": "".join("+" if x > 0 else "-" for x in
                         result.D[~np.eye(d, dtype=bool)].tolist()),
        "det_schur": str(result.det_n),
        "ratio_log": result.ratio.log_abs,
        "ratio_decimal": result.ratio.value(),
    }


def save_witness(path, result: TrialResult) -> None:
    """Write ``json.dumps(witness_dict(result), indent=2)`` and a newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(witness_dict(result), indent=2) + "\n")


_WITNESS_FIELDS = {"n": int, "m": int, "d": int, "weight": int, "kind": str,
                   "recipe": str, "stream": str, "master_seed": int,
                   "trial_index": int, "D_off": str, "det_schur": str,
                   "ratio_log": (int, float), "ratio_decimal": (int, float)}


def _witness_blocks(w: dict) -> tuple[QuasiOrthogonal, np.ndarray, np.ndarray]:
    """The core, B and D of a witness, checked in the order that
    ``verify_witness`` states: a malformed witness never pays for the core
    it names or for its B."""
    if not isinstance(w, dict):
        raise WitnessError("witness is not a JSON object")
    for key, types in _WITNESS_FIELDS.items():
        if key not in w:
            raise WitnessError(f"witness has no {key!r} field")
        if not isinstance(w[key], types) or isinstance(w[key], bool):
            raise WitnessError(f"witness field {key!r} has the wrong type")
    # a witness stores no B: a B in the file would never be checked
    extra = sorted(w.keys() - _WITNESS_FIELDS.keys())
    if extra:
        raise WitnessError(f"witness has an unknown field {extra[0]!r}")
    if w["stream"] != STREAM:
        raise WitnessError(f"unknown stream {w['stream']!r}")
    if not 0 <= w["trial_index"] < 1 << 64:
        raise WitnessError("trial_index is outside 0..2^64 - 1")
    if not re.fullmatch(r"-?[0-9]+", w["det_schur"]):
        raise WitnessError("det_schur is not a signed decimal integer")
    m, d = w["m"], w["d"]
    if d < 0:
        raise WitnessError("d is negative")
    if d > m:
        raise WitnessError("border width d exceeds the core order m")
    if w["n"] != m + d:
        raise WitnessError("n != m + d")
    d_off = w["D_off"]
    if len(d_off) != d * (d - 1):
        raise WitnessError("D off-diagonal block has wrong length")
    for j, sign in enumerate(d_off):
        if sign not in "+-":
            raise WitnessError(f"bad sign {sign!r} at D_off entry {j}")
    d_block = -np.eye(d, dtype=np.int8)
    d_block[~np.eye(d, dtype=bool)] = [1 if s == "+" else -1 for s in d_off]
    q = build_recipe(w["recipe"])
    if q.order != m or q.kind != w["kind"] or q.weight != w["weight"]:
        raise WitnessError("recipe does not reproduce the stated core matrix")
    _check_gram_order(m)  # before a B of that order is drawn
    b = sample_border_columns(w["master_seed"], [w["trial_index"]], m, d)[0]
    return q, b, d_block


def verify_witness(source) -> LogScalar:
    """Recompute a witness's ratio from scratch; raise on any inconsistency.

    Accepts a TrialResult, a witness dict, or a path to a witness file.
    Each is read as its witness dict (``witness_dict``).  The fields, the
    stream and address, and the shapes are checked first, then the recipe
    must reproduce the stated core, and only then is B drawn again from
    the address (``sample_border_columns(master_seed, [trial_index], m,
    d)``).  C and G are recomputed from that B, so a changed address shows
    as a wrong det_schur or ratio_log.
    For n <= DIRECT_CHECK_LIMIT the full bordered matrix, with the whole
    C, is also assembled and its exact determinant is checked against the
    Schur path:
    |det A~| * k^d = k^(m/2) * |det N| as integers.
    """
    if isinstance(source, TrialResult):
        w = witness_dict(source)
    elif isinstance(source, dict):
        w = source
    else:
        with open(source) as fh:
            try:
                w = json.load(fh)
            except ValueError as exc:
                raise WitnessError(f"witness file is not JSON: {exc}") from exc

    q, b, d_block = _witness_blocks(w)
    m, d, k, n = w["m"], w["d"], w["weight"], w["n"]

    [g] = _sign_completion(b.T[None], q)
    det_n = det_exact(g - k * d_block.astype(np.int64))
    if det_n != int(w["det_schur"]):
        raise WitnessError(f"stored det_schur {w['det_schur']} does not "
                           f"match recomputed {det_n}")
    ratio = _ratio_from_det(det_n, m, k, d)

    # written so that a NaN or infinite stored value fails
    if not (abs(ratio.log_abs - w["ratio_log"]) <= 1e-9 and math.isclose(
            ratio.value(), w["ratio_decimal"], rel_tol=1e-8)):
        raise WitnessError(
            f"stored ratio_log, ratio_decimal {w['ratio_log']}, "
            f"{w['ratio_decimal']} do not match recomputed {ratio.log_abs}, "
            f"{ratio.value()}")

    if n <= DIRECT_CHECK_LIMIT:
        full = assemble_bordered(q, b, _signs(q.rmatmul(b)), d_block)
        det_full = det_exact(full)
        if abs(det_full) * k ** d != math.isqrt(k ** m) * abs(det_n):
            raise SchurConsistencyError(
                f"direct determinant {det_full} inconsistent with Schur "
                f"value {det_n} at (m={m}, d={d}, k={k})")
    return ratio
