"""Explicit Hadamard and conference matrix constructions.

Provides Paley I / Paley II / Paley conference matrices (prime moduli),
Sylvester doubling and Kronecker products, plus a small recipe planner
that realizes a target order as a composition of these generators.

A matrix here is "quasi-orthogonal of weight k": Q Q^T = k I with entries
in {-1, 0, +1}.  Hadamard matrices have k = order and no zeros; conference
matrices have k = order - 1 and a zero diagonal.

Each constructor also builds the exact product X -> X Q from its parts:
the Jacobsthal circulant by an FFT convolution whose rounding is bounded a
priori and checked at run time, the Paley borders by row sums, Sylvester
doubling as a butterfly and Kronecker factors by reshaping.  Every other
step is int64 arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .primes import is_prime

HADAMARD = "hadamard"
CONFERENCE = "conference"


class ExactnessError(ArithmeticError):
    """A product over Q could not be certified exact."""


@dataclass(frozen=True)
class QuasiOrthogonal:
    """Square {-1,0,+1} matrix Q with Q Q^T = weight * I."""

    matrix: np.ndarray
    order: int
    weight: int
    kind: str
    recipe: str
    # X -> X Q for an int64 array X with `order` columns (exact, built by
    # the constructor from its parts; the dense product when left unset)
    right_mul: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        if self.right_mul is None:
            object.__setattr__(self, "right_mul",
                               lambda x: x @ self.matrix.astype(np.int64))

    def __repr__(self):
        return f"QuasiOrthogonal({self.kind}, order={self.order}, recipe={self.recipe!r})"

    def rmatmul(self, b: np.ndarray) -> np.ndarray:
        """Exact B^T Q as int64 for an integer block B with `order` rows."""
        x = np.asarray(b).T.astype(np.int64)
        # every intermediate of right_mul is bounded by order * max|B|
        if x.size and int(np.abs(x).max()) * self.order >= 1 << 62:
            raise ExactnessError("B^T Q could overflow int64")
        return self.right_mul(x)


def _quadratic_character(p: int) -> np.ndarray:
    """chi[x] = +1 if x is a nonzero square mod p, -1 if non-square, 0 at 0."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    chi[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    return chi


def _jacobsthal(p: int) -> np.ndarray:
    """Circulant Q with Q[i, j] = chi(j - i mod p), as a read-only view."""
    chi = _quadratic_character(p)
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(chi, 2), p)
    return windows[p:0:-1]  # row i is windows[p - i]


_EPS = 2.0 ** -53
_ROOT_ERR = 2 * _EPS  # allowance for the library's roots of unity


def _fft_error_factor(size: int) -> float:
    """Percival, Math. Comp. 72 (2003): a convolution of length size = 2^n
    by double-precision radix-2 FFTs is off, entrywise, by less than
    |x|_2 |y|_2 times this factor."""
    n = size.bit_length() - 1
    return size * math.expm1(3 * n * math.log1p(_EPS)
                             + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
                             + 3 * n * math.log1p(_ROOT_ERR))


def _circulant_right_mul(p: int) -> Callable[[np.ndarray], np.ndarray]:
    """X -> X J for the Jacobsthal circulant J, exact in int64.

    Each row of X J is the cyclic convolution of that row with chi.  It is
    taken as a linear convolution by FFTs of a power-of-two length >= 2p-1
    and folded mod p.  The true values are integers; a raised check keeps
    the a-priori rounding bound below 1/4, and a second one checks that
    every computed value lies within 1/4 of an integer.
    """
    chi = _quadratic_character(p)
    size = 1 << (2 * p - 2).bit_length()
    chi_hat = np.fft.rfft(chi.astype(np.float64), size)
    factor = _fft_error_factor(size) * math.sqrt(p - 1)  # |chi|_2^2 = p - 1

    def right_mul(x: np.ndarray) -> np.ndarray:
        xf = x.astype(np.float64)
        norm = math.sqrt(float((xf * xf).sum(axis=1).max(initial=0)))
        bound = norm * factor
        if not bound < 0.25:
            raise ExactnessError(f"FFT rounding bound {bound:.3g} is not "
                                 "below 1/4")
        y = np.fft.irfft(np.fft.rfft(xf, size) * chi_hat, size)[:, :2 * p - 1]
        r = np.rint(y)
        residual = float(np.abs(y - r).max(initial=0))
        if not residual < 0.25:
            raise ExactnessError(f"FFT rounding residual {residual:.3g} is "
                                 "not below 1/4")
        lin = r.astype(np.int64)
        lin[:, :p - 1] += lin[:, p:]
        return lin[:, :p]

    return right_mul


def paley_one(p: int) -> QuasiOrthogonal:
    """Hadamard matrix of order p+1 for prime p = 3 (mod 4).

    Normalized so the first row and first column are all +1.
    """
    if not is_prime(p) or p % 4 != 3:
        raise ValueError(f"paley_one needs a prime p = 3 (mod 4), got {p}")
    q = _jacobsthal(p)
    h = np.empty((p + 1, p + 1), dtype=np.int8)
    h[0, :] = 1
    h[1:, 0] = 1
    # rows 1.. are the negated rows of I + [[0,e],[-e,Q]]; Gram stays (p+1)I
    np.negative(q, out=h[1:, 1:])
    np.fill_diagonal(h[1:, 1:], -1)  # -(Q + I), as Q has a zero diagonal
    conv = _circulant_right_mul(p)

    def right_mul(x):
        x0, xr = x[:, :1], x[:, 1:]
        return np.hstack([x0 + xr.sum(axis=1, keepdims=True),
                          x0 - xr - conv(xr)])

    return QuasiOrthogonal(h, p + 1, p + 1, HADAMARD, f"paley1({p})", right_mul)


def paley_conference(p: int) -> QuasiOrthogonal:
    """Symmetric conference matrix of order p+1 for prime p = 1 (mod 4)."""
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"paley_conference needs a prime p = 1 (mod 4), got {p}")
    q = _jacobsthal(p)
    c = np.empty((p + 1, p + 1), dtype=np.int8)
    c[0, 0] = 0
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:] = q
    conv = _circulant_right_mul(p)

    def right_mul(x):
        x0, xr = x[:, :1], x[:, 1:]
        return np.hstack([xr.sum(axis=1, keepdims=True), x0 + conv(xr)])

    return QuasiOrthogonal(c, p + 1, p, CONFERENCE, f"conference({p})",
                           right_mul)


_PALEY2_K = np.array([[1, 1], [1, -1]], dtype=np.int8)
_PALEY2_L = np.array([[1, -1], [-1, -1]], dtype=np.int8)


def paley_two(p: int) -> QuasiOrthogonal:
    """Hadamard matrix of order 2(p+1) for prime p = 1 (mod 4).

    It is conf (x) K + I (x) L for the conference matrix conf of order p+1.
    """
    conf = paley_conference(p)  # validates p
    m = p + 1
    h = np.empty((2 * m, 2 * m), dtype=np.int8)
    diag = 2 * np.arange(m)
    for s in range(2):
        for u in range(2):
            h[s::2, u::2] = _PALEY2_K[s, u] * conf.matrix
            h[diag + s, diag + u] = _PALEY2_L[s, u]  # conf has a zero diagonal
    kmat, lmat = _PALEY2_K.astype(np.int64), _PALEY2_L.astype(np.int64)

    def right_mul(x):
        c = x.shape[0]
        x3 = x.reshape(c, m, 2)
        z = (x3 @ kmat).transpose(0, 2, 1).reshape(2 * c, m)
        y = conf.right_mul(z).reshape(c, 2, m).transpose(0, 2, 1)
        return (y + x3 @ lmat).reshape(c, 2 * m)

    return QuasiOrthogonal(h, 2 * m, 2 * m, HADAMARD, f"paley2({p})", right_mul)


def sylvester_double(q: QuasiOrthogonal) -> QuasiOrthogonal:
    """Order-doubling [[Q, Q], [Q, -Q]]; Hadamard input only."""
    if q.kind != HADAMARD:
        raise ValueError("sylvester_double requires a Hadamard matrix")
    m, half = q.matrix, q.order
    h = np.empty((2 * half, 2 * half), dtype=np.int8)
    h[:half, :half] = h[:half, half:] = h[half:, :half] = m
    np.negative(m, out=h[half:, half:])

    def right_mul(x):
        # [X1 | X2] [[Q, Q], [Q, -Q]] = [(X1 + X2) Q | (X1 - X2) Q]
        x1, x2 = x[:, :half], x[:, half:]
        y = q.right_mul(np.vstack([x1 + x2, x1 - x2]))
        return np.hstack([y[:x.shape[0]], y[x.shape[0]:]])

    return QuasiOrthogonal(h, 2 * half, 2 * half, HADAMARD,
                           q.recipe + ";double", right_mul)


def kronecker(q1: QuasiOrthogonal, q2: QuasiOrthogonal) -> QuasiOrthogonal:
    """Kronecker product of two Hadamard matrices."""
    if q1.kind != HADAMARD or q2.kind != HADAMARD:
        raise ValueError("kronecker requires Hadamard matrices")
    a, b = q1.order, q2.order
    h = np.multiply.outer(q1.matrix, q2.matrix).transpose(0, 2, 1, 3)
    h = h.reshape(a * b, a * b)

    def right_mul(x):
        c = x.shape[0]
        y = q2.right_mul(x.reshape(c * a, b)).reshape(c, a, b)
        y = q1.right_mul(y.transpose(0, 2, 1).reshape(c * b, a))
        return y.reshape(c, b, a).transpose(0, 2, 1).reshape(c, a * b)

    return QuasiOrthogonal(h, a * b, a * b, HADAMARD,
                           f"kron({q1.recipe},{q2.recipe})", right_mul)


def unit() -> QuasiOrthogonal:
    return QuasiOrthogonal(np.array([[1]], dtype=np.int8), 1, 1, HADAMARD,
                           "unit", lambda x: x)


def gram_int(m: np.ndarray) -> np.ndarray:
    """Exact integer Gram matrix M M^T of a {-1,0,1} matrix, as int64.

    Computed through BLAS float32: every partial sum is an integer bounded
    by the order, exact in float32 up to 2^24.
    """
    n = m.shape[0]
    if n >= 1 << 24:
        raise ValueError("order too large for the float32 Gram path")
    f = m.astype(np.float32)
    return np.rint(f @ f.T).astype(np.int64)


def validate(q: QuasiOrthogonal) -> bool:
    """Exact check of Q Q^T = weight*I plus the kind's entry pattern."""
    m = q.matrix
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != q.order:
        return False
    if q.kind == HADAMARD:
        if q.weight != q.order or not np.all(np.abs(m) == 1):
            return False
    elif q.kind == CONFERENCE:
        if q.weight != q.order - 1:
            return False
        if np.any(np.diagonal(m) != 0):
            return False
        off = ~np.eye(q.order, dtype=bool)
        if not np.all(np.abs(m[off]) == 1):
            return False
    else:
        return False
    gram = gram_int(m)
    expected = q.weight * np.eye(q.order, dtype=np.int64)
    return bool(np.array_equal(gram, expected))


# ---------------------------------------------------------------------------
# recipe grammar: generator followed by ";double" steps; kron(...) nests.

_GEN_RE = re.compile(r"^(paley1|paley2|conference)\((\d+)\)$")


def _split_top(s: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def build_recipe(recipe: str) -> QuasiOrthogonal:
    """Rebuild a matrix from its recipe string, e.g. 'paley1(331);double'."""
    tokens = _split_top(recipe.strip(), ";")
    if not tokens or not tokens[0]:
        raise ValueError("empty recipe")
    head = tokens[0].strip()
    if head == "unit":
        q = unit()
    elif head.startswith("kron(") and head.endswith(")"):
        args = _split_top(head[5:-1], ",")
        if len(args) != 2:
            raise ValueError(f"kron takes two recipes: {head!r}")
        q = kronecker(build_recipe(args[0]), build_recipe(args[1]))
    else:
        match = _GEN_RE.match(head)
        if not match:
            raise ValueError(f"unknown generator {head!r}")
        name, p = match.group(1), int(match.group(2))
        q = {"paley1": paley_one, "paley2": paley_two,
             "conference": paley_conference}[name](p)
    for tok in tokens[1:]:
        if tok.strip() != "double":
            raise ValueError(f"unknown recipe step {tok!r}")
        q = sylvester_double(q)
    return q


def plan_recipe(kind: str, order: int) -> str | None:
    """Find a recipe realizing the given order, or None.

    Hadamard search tries, for each number of Sylvester doublings j with
    2^j | order: paley1 (base-1 prime = 3 mod 4), then paley2, then the
    pure power-of-two tower.  Prime moduli only; prime-power fields are
    not implemented.
    """
    if kind == CONFERENCE:
        p = order - 1
        if order >= 2 and is_prime(p) and p % 4 == 1:
            return f"conference({p})"
        return None
    if kind != HADAMARD:
        raise ValueError(f"unknown kind {kind!r}")
    if order < 1:
        return None
    base, j = order, 0
    while True:
        if base >= 4 and is_prime(base - 1) and (base - 1) % 4 == 3:
            return f"paley1({base - 1})" + ";double" * j
        if base % 2 == 0:
            half = base // 2
            if half >= 2 and is_prime(half - 1) and (half - 1) % 4 == 1:
                return f"paley2({half - 1})" + ";double" * j
        if base == 1:
            return "unit" + ";double" * j
        if base % 2:
            return None
        base //= 2
        j += 1


def build_order(kind: str, order: int) -> QuasiOrthogonal:
    """Plan and build; raises naming the nearest realizable order on failure."""
    recipe = plan_recipe(kind, order)
    if recipe is None:
        near = nearest_realizable(kind, order)
        raise ValueError(
            f"no recipe realizes {kind} order {order}; "
            f"nearest realizable order is {near}")
    return build_recipe(recipe)


def nearest_realizable(kind: str, order: int) -> int | None:
    for delta in range(1, 10000):
        for cand in (order - delta, order + delta):
            if cand >= 1 and plan_recipe(kind, cand) is not None:
                return cand
    return None
