"""Randomized bordering of quasi-orthogonal matrices.

A trial samples an m x d sign block B, completes the d x m block C by the
no-cancellation sign rule C = sgn(B^T Q), greedily fixes the d x d corner
D (diagonal -1), and evaluates the bordered determinant exactly through
the integer Schur block N = G - k D with G = C Q^T B.  det N is linear in
each row of D, with coefficients the cofactors of that row, so the greedy
decides each entry by integer arithmetic on the exact adjugate of N and
refreshes the adjugate by one exact rank-one update per row: O(d^3)
integer work per trial, with no floating point.  Ratios |det| / n^(n/2)
are carried in log scale; d = 0 is the bare core.

Each trial does one exact product over Q, P = B^T Q, through the core's
operator (``QuasiOrthogonal.rmatmul``, exact by the checks described in
``constructions``).  Since Q^T B = P^T, the Gram block is G = C P^T, a
float64 product that is exact because every partial sum is an integer of
size at most m^2 < 2^53 (a raised check on the order).

Border widths nest: B is drawn as a d x m array and transposed, and the
draw is prefix-stable, so the first w columns of a trial's width-W block
are its width-w block.  Row i of C and entry (i, j) of G depend only on
columns i and j of B, so the width-w trial's C and G are the leading
blocks C[:w] and G[:w, :w] of the width-W ones.  ``search_widths`` uses
this to serve every width of a core from one product per trial.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from operator import attrgetter, mul

import numpy as np

from .constructions import (ExactnessError, QuasiOrthogonal, build_recipe,
                            work_array)
from .exact import LogScalar, det_adj_exact, det_exact, normalized_ratio


class WitnessError(ValueError):
    """Stored witness data is inconsistent with its own fields."""


class SchurConsistencyError(RuntimeError):
    """An exact cross-check of the determinant failed (internal bug)."""


@dataclass(frozen=True)
class SearchConfig:
    trials: int = 256
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


DEFAULT_CONFIG = SearchConfig()

# verify_witness also checks the full bordered determinant up to this n
DIRECT_CHECK_LIMIT = 64


@dataclass(frozen=True)
class Border:
    """The blocks bordering Q: B (m x d), C (d x m), D (d x d), G = C Q^T B."""

    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    G: np.ndarray  # int64


@dataclass(frozen=True)
class TrialResult:
    ratio: LogScalar
    trial_index: int
    n: int
    m: int
    d: int
    kind: str
    weight: int
    recipe: str
    master_seed: int | None
    det_n: int
    border: Border


def trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    """Per-trial stream: Philox keyed by (master_seed, trial_index).

    This is the documented mixing function; streams for distinct trial
    indices are independent and the mapping is stable across runs, so any
    trial can be rerun on its own.
    """
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF,
                    trial_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_border_columns(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """m x d matrix of independent fair +-1 entries (d = 0 gives m x 0).

    It is the transpose of a d x m draw, so on one stream its first w
    columns equal a width-w draw.
    """
    if m < 1 or d < 0:
        raise ValueError("m must be >= 1 and d >= 0")
    return (rng.integers(0, 2, size=(d, m), dtype=np.int8) * 2 - 1).T


def _sign_completion(b: np.ndarray, q: QuasiOrthogonal
                     ) -> tuple[np.ndarray, np.ndarray]:
    """C = sgn(P) as int8 (sgn(0) = +1) and G = C Q^T B = C P^T as int64,
    for P = B^T Q.

    B is a sign block, so |P| <= m and every partial sum of C P^T is an
    integer of size at most m^2: below 2^53 the float64 (BLAS) product is
    exact in any summation order.  P, in int64 and in float64, lives in
    work arrays of the core; only the returned C and G are new.
    """
    m = q.order
    if m * m >= 1 << 53:
        raise ExactnessError(f"order {m} is too large for an exact float64 "
                             f"Gram block")
    shape = b.shape[::-1]
    exact = q.rmatmul(b, work_array(q.work, "product", shape, np.int64))
    p = work_array(q.work, "p", shape)
    p[...] = exact
    # C goes into the int64 result's buffer, which is dead after the cast;
    # an integer zero casts to +0.0, so sgn(0) = +1
    c = np.copysign(1.0, p, out=exact.view(np.float64))
    g = c @ p.T
    return c.astype(np.int8), g.astype(np.int64)


def greedy_complete(g, k: int) -> tuple[np.ndarray, int]:
    """Fix D entrywise to maximize |det N| for the Schur block N = G - k D.

    g is the square integer Gram block, as an array or a list of rows.
    The diagonal of D is -1; the off-diagonal entries start undecided (held
    at 0) and are fixed in row-major order.  det N is linear in row i, and
    the cofactors of row i depend only on the other rows, so they stay
    fixed while row i is decided: setting entry (i, j) to s moves det N by
    -k s cof_ij.  The entry takes the sign of the larger of |det - k cof_ij|
    and |det + k cof_ij|, +1 winning ties, so |det N| never falls below the
    midpoint |det(G + kI)| where it starts.

    The midpoint and its adjugate come from one fraction-free Gauss-Jordan
    pass (``det_adj_exact``).  After row i moves by delta, the cofactor
    rows still to be used are refreshed by the exact rank-one update
    adj' = (det' adj - adj[:, i] (delta^T adj)) / det.  While det N is 0
    (a singular midpoint) a row's cofactors are taken as d direct
    determinants instead, and the adjugate is rebuilt once det N turns
    nonzero; from then on it cannot return to 0.  Three raised checks:
    each row's Laplace expansion must equal the running determinant, and
    one final direct determinant must reach the midpoint and equal the
    running value.
    """
    work = np.asarray(g).tolist()
    d = len(work)
    for i in range(d):
        work[i][i] += k
    # cof[i] is the cofactor row of row i: adj(N^T) = adj(N)^T
    midpoint, cof = det_adj_exact(list(zip(*work)))
    running = midpoint
    d_block = -np.eye(d, dtype=np.int8)
    for i in range(d):
        row = work[i]
        if cof is None:
            cof_i = [det_exact(work[:i] + [[int(c == j) for c in range(d)]]
                               + work[i + 1:]) for j in range(d)]
        else:
            cof_i = cof[i]
        before = running
        delta = [0] * d
        for j in range(d):
            if j != i:
                step = k * cof_i[j]
                sign = 1 if abs(running - step) >= abs(running + step) else -1
                d_block[i, j] = sign
                delta[j] = -k * sign
                row[j] += delta[j]
                running -= sign * step
        laplace = sum(map(mul, row, cof_i))
        if laplace != running:
            raise SchurConsistencyError(
                f"row {i} Laplace expansion {laplace} differs from the "
                f"running determinant {running}")
        if cof is not None:
            for c in range(i + 1, d):
                col = cof[c]
                w = sum(map(mul, delta, col))
                cof[c] = [(running * x - w * u) // before
                          for x, u in zip(col, cof_i)]
        elif running and i + 1 < d:
            cof = det_adj_exact(list(zip(*work)))[1]
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


def _ratio_from_det(det_n: int, m: int, k: int, d: int) -> LogScalar:
    if det_n == 0:
        return LogScalar(0, 0.0)
    if d == 0:
        # the bare core k^(m/2) / m^(m/2); the general formula below rounds
        # differently, and witnesses store this value
        return LogScalar(1, 0.5 * m * (math.log(k) - math.log(m)))
    log_det = 0.5 * m * math.log(k) + math.log(abs(det_n)) - d * math.log(k)
    return normalized_ratio(LogScalar(1, log_det), m + d)


@dataclass
class SharedBlocks:
    """C and G of each trial at the largest width of one ``search_widths``.

    ``searches`` counts the widths still to be searched, the current one
    included.  A trial's blocks are kept only while a later width will read
    them, and the last width releases them as it reads them.  C is kept as
    bits (C > 0, eight to a byte), so the kept blocks of T trials take about
    T W m / 8 bytes.
    """

    width: int
    searches: int
    blocks: dict = field(default_factory=dict)


def run_trial(q: QuasiOrthogonal, d: int, rng: np.random.Generator,
              trial_index: int = 0, master_seed: int | None = None,
              shared: SharedBlocks | None = None) -> TrialResult:
    """One bordering trial; d = 0 gives the bare core ratio k^(m/2)/m^(m/2).

    With ``shared``, the first call for a trial index draws B at the shared
    width W >= d and makes C and G there; later widths redraw their B from
    the trial's own stream and read the kept leading blocks.
    """
    if shared is None:
        shared = SharedBlocks(d, 1)
    m = q.order
    kept = shared.blocks.get(trial_index)
    if kept is None:
        b = sample_border_columns(rng, m, shared.width)
        c, g = _sign_completion(b, q)
        if shared.searches > 1:
            shared.blocks[trial_index] = np.packbits(c > 0, axis=1), g
        b, c = b[:, :d], c[:d]
    else:
        if shared.searches == 1:
            del shared.blocks[trial_index]
        b = sample_border_columns(rng, m, d)
        bits, g = kept
        c = np.unpackbits(bits[:d], axis=1, count=m).view(np.int8) * 2 - 1
    return _finish_trial(q, b, c, g[:d, :d], trial_index, master_seed)


def _finish_trial(q, b, c, g, trial_index, master_seed) -> TrialResult:
    m, k, d = q.order, q.weight, b.shape[1]
    d_block, det_n = greedy_complete(g, k)
    ratio = _ratio_from_det(det_n, m, k, d)
    return TrialResult(ratio=ratio, trial_index=trial_index, n=m + d, m=m, d=d,
                       kind=q.kind, weight=k, recipe=q.recipe,
                       master_seed=master_seed, det_n=det_n,
                       border=Border(B=b, C=c, D=d_block, G=g))


def search(q: QuasiOrthogonal, d: int, config: SearchConfig = DEFAULT_CONFIG,
           shared: SharedBlocks | None = None) -> TrialResult:
    """Best trial over indices 0..trials-1; deterministic for a given seed.

    The reduction keeps the highest ratio; the lowest trial index wins a
    tie.  With d = 0 every trial is the bare core, so only trial 0 runs.
    ``shared`` comes from ``search_widths``; alone, a search is a one-width
    ``search_widths`` and keeps nothing between calls.
    """
    if shared is None:
        shared = SharedBlocks(d, 1)
    if not 0 <= d <= shared.width:
        raise ValueError(f"width {d} is outside 0..{shared.width}")
    trials = config.trials if d else 1
    best = max((run_trial(q, d, trial_generator(config.master_seed, t), t,
                          config.master_seed, shared)
                for t in range(trials)), key=attrgetter("ratio"))
    shared.searches -= 1
    return best


def search_widths(q: QuasiOrthogonal, widths: list[int],
                  config: SearchConfig = DEFAULT_CONFIG) -> list[TrialResult]:
    """The best trial at each border width, in the order given.

    Each equals ``search(q, w, config)``: trial t makes one product over Q
    at the largest width, and every width reads its leading blocks.
    """
    shared = SharedBlocks(max(widths, default=0), len(widths))
    return [search(q, d, config, shared) for d in widths]


def assemble_bordered(q: QuasiOrthogonal, border: Border) -> list[list[int]]:
    """The full n x n matrix [[Q, B], [C, D]] as exact integers."""
    m, d = q.order, border.D.shape[0]
    full = np.zeros((m + d, m + d), dtype=np.int64)
    full[:m, :m] = q.dense()
    full[:m, m:] = border.B
    full[m:, :m] = border.C
    full[m:, m:] = border.D
    return full.tolist()


# ---------------------------------------------------------------------------
# witnesses


def _signs_to_str(arr) -> str:
    return "".join("+" if v > 0 else "-" for v in arr)


def witness_dict(result: TrialResult) -> dict:
    """Serializable witness; C is omitted (recomputed from B on verify)."""
    d = result.d
    d_off = [result.border.D[i, j] for i in range(d) for j in range(d) if i != j]
    return {
        "n": result.n, "m": result.m, "d": d,
        "kind": result.kind, "weight": result.weight,
        "recipe": result.recipe,
        "master_seed": result.master_seed,
        "trial_index": result.trial_index,
        "B": [_signs_to_str(row) for row in result.border.B],
        "D_off": _signs_to_str(d_off),
        "det_schur": str(result.det_n),
        "ratio_log": result.ratio.log_abs,
        "ratio_decimal": result.ratio.value(),
    }


def save_witness(path, result: TrialResult) -> None:
    with open(path, "w") as fh:
        json.dump(witness_dict(result), fh, indent=2)
        fh.write("\n")


def _parse_signs(s: str) -> list[int]:
    if not set(s) <= {"+", "-"}:
        raise WitnessError(f"bad sign string {s!r}")
    return [1 if ch == "+" else -1 for ch in s]


_WITNESS_FIELDS = {"n": int, "m": int, "d": int, "weight": int, "kind": str,
                   "recipe": str, "B": list, "D_off": str, "det_schur": str,
                   "ratio_log": (int, float), "ratio_decimal": (int, float)}


def _witness_blocks(w: dict) -> tuple[QuasiOrthogonal, np.ndarray, np.ndarray]:
    if not isinstance(w, dict):
        raise WitnessError("witness is not a JSON object")
    for key, types in _WITNESS_FIELDS.items():
        if key not in w:
            raise WitnessError(f"witness has no {key!r} field")
        if not isinstance(w[key], types) or isinstance(w[key], bool):
            raise WitnessError(f"witness field {key!r} has the wrong type")
    if not all(isinstance(row, str) for row in w["B"]):
        raise WitnessError("B is not a list of sign strings")
    if not re.fullmatch(r"-?[0-9]+", w["det_schur"]):
        raise WitnessError("det_schur is not a signed decimal integer")
    m, d = w["m"], w["d"]
    if d < 0:
        raise WitnessError("d is negative")
    q = build_recipe(w["recipe"])
    if q.order != m or q.kind != w["kind"] or q.weight != w["weight"]:
        raise WitnessError("recipe does not reproduce the stated core matrix")
    if len(w["B"]) != m or any(len(row) != d for row in w["B"]):
        raise WitnessError("B block has wrong shape")
    b = np.array([_parse_signs(row) for row in w["B"]], dtype=np.int8)
    off = _parse_signs(w["D_off"])
    if len(off) != d * (d - 1):
        raise WitnessError("D off-diagonal block has wrong length")
    d_block = -np.eye(d, dtype=np.int8)
    it = iter(off)
    for i in range(d):
        for j in range(d):
            if i != j:
                d_block[i, j] = next(it)
    return q, b, d_block


def verify_witness(source) -> LogScalar:
    """Recompute a witness's ratio from scratch; raise on any inconsistency.

    Accepts a TrialResult, a witness dict, or a path to a witness file.
    For n <= DIRECT_CHECK_LIMIT the full bordered matrix is also
    assembled and its exact determinant is checked against the Schur path:
    |det A~| * k^d = k^(m/2) * |det N| as integers.
    """
    if isinstance(source, TrialResult):
        w = witness_dict(source)
        stored_c = source.border.C
    elif isinstance(source, dict):
        w, stored_c = source, None
    else:
        with open(source) as fh:
            try:
                w = json.load(fh)
            except ValueError as exc:
                raise WitnessError(f"witness file is not JSON: {exc}") from exc
        stored_c = None

    q, b, d_block = _witness_blocks(w)
    m, d, k, n = w["m"], w["d"], w["weight"], w["n"]
    if n != m + d:
        raise WitnessError("n != m + d")

    c, g = _sign_completion(b, q)
    if stored_c is not None and not np.array_equal(c, stored_c):
        raise WitnessError("stored C does not match sign completion of B")
    det_n = det_exact(g - k * d_block.astype(np.int64))
    if det_n != int(w["det_schur"]):
        raise WitnessError(f"stored det_schur {w['det_schur']} does not "
                           f"match recomputed {det_n}")
    ratio = _ratio_from_det(det_n, m, k, d)

    stored_sign = 0 if w["ratio_decimal"] == 0 else 1
    if ratio.sign != stored_sign or abs(ratio.log_abs - w["ratio_log"]) > 1e-9:
        raise WitnessError(
            f"stored ratio_log {w['ratio_log']} does not match recomputed "
            f"{ratio.log_abs}")

    if n <= DIRECT_CHECK_LIMIT:
        full = assemble_bordered(q, Border(B=b, C=c, D=d_block, G=g))
        det_full = det_exact(full)
        if abs(det_full) * k ** d != math.isqrt(k ** m) * abs(det_n):
            raise SchurConsistencyError(
                f"direct determinant {det_full} inconsistent with Schur "
                f"value {det_n} at (m={m}, d={d}, k={k})")
    return ratio
