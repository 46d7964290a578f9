"""Explicit Hadamard and conference matrix constructions.

Provides Paley I / Paley II / Paley conference matrices (prime moduli),
Sylvester doubling and Kronecker products, plus a small recipe planner
that realizes a target order as a composition of these generators.

A matrix here is "quasi-orthogonal of weight k": Q Q^T = k I with entries
in {-1, 0, +1}.  Hadamard matrices have k = order and no zeros; conference
matrices have k = order - 1 and a zero diagonal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .primes import is_prime

HADAMARD = "hadamard"
CONFERENCE = "conference"


@dataclass(frozen=True)
class QuasiOrthogonal:
    """Square {-1,0,+1} matrix Q with Q Q^T = weight * I."""

    matrix: np.ndarray
    order: int
    weight: int
    kind: str
    recipe: str

    def __repr__(self):
        return f"QuasiOrthogonal({self.kind}, order={self.order}, recipe={self.recipe!r})"


def _quadratic_character(p: int) -> np.ndarray:
    """chi[x] = +1 if x is a nonzero square mod p, -1 if non-square, 0 at 0."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    chi[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    return chi


def _jacobsthal(p: int) -> np.ndarray:
    """Circulant Q with Q[i, j] = chi(j - i mod p)."""
    chi = _quadratic_character(p)
    doubled = np.concatenate([chi, chi])
    q = np.empty((p, p), dtype=np.int8)
    for i in range(p):
        q[i] = doubled[p - i:2 * p - i]
    return q


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
    h[1:, 1:] = -(q + np.eye(p, dtype=np.int8))
    return QuasiOrthogonal(h, p + 1, p + 1, HADAMARD, f"paley1({p})")


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
    return QuasiOrthogonal(c, p + 1, p, CONFERENCE, f"conference({p})")


_PALEY2_K = np.array([[1, 1], [1, -1]], dtype=np.int8)
_PALEY2_L = np.array([[1, -1], [-1, -1]], dtype=np.int8)


def paley_two(p: int) -> QuasiOrthogonal:
    """Hadamard matrix of order 2(p+1) for prime p = 1 (mod 4)."""
    conf = paley_conference(p)  # validates p
    m = p + 1
    h = np.kron(conf.matrix, _PALEY2_K) + np.kron(np.eye(m, dtype=np.int8), _PALEY2_L)
    return QuasiOrthogonal(h.astype(np.int8), 2 * m, 2 * m, HADAMARD, f"paley2({p})")


def sylvester_double(q: QuasiOrthogonal) -> QuasiOrthogonal:
    """Order-doubling [[Q, Q], [Q, -Q]]; Hadamard input only."""
    if q.kind != HADAMARD:
        raise ValueError("sylvester_double requires a Hadamard matrix")
    m = q.matrix
    h = np.block([[m, m], [m, -m]]).astype(np.int8)
    return QuasiOrthogonal(h, 2 * q.order, 2 * q.order, HADAMARD, q.recipe + ";double")


def kronecker(q1: QuasiOrthogonal, q2: QuasiOrthogonal) -> QuasiOrthogonal:
    """Kronecker product of two Hadamard matrices."""
    if q1.kind != HADAMARD or q2.kind != HADAMARD:
        raise ValueError("kronecker requires Hadamard matrices")
    h = np.kron(q1.matrix, q2.matrix).astype(np.int8)
    return QuasiOrthogonal(h, q1.order * q2.order, q1.order * q2.order,
                           HADAMARD, f"kron({q1.recipe},{q2.recipe})")


def unit() -> QuasiOrthogonal:
    return QuasiOrthogonal(np.array([[1]], dtype=np.int8), 1, 1, HADAMARD, "unit")


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


def nearest_realizable(kind: str, order: int, span: int = 10000) -> int | None:
    for delta in range(1, span):
        for cand in (order - delta, order + delta):
            if cand >= 1 and plan_recipe(kind, cand) is not None:
                return cand
    return None
