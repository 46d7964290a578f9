"""Independent checks that only the tests use: a dense Gram check of a core,
the worst-case bordering scan of the sieve's irregular gaps, and an
exhaustive maximal-determinant oracle for n <= 6.
"""

import numpy as np

from maxdet.constructions import CONFERENCE, HADAMARD


def validate(q) -> bool:
    """Dense check (small orders) of the kind's entry pattern and
    Q Q^T = weight*I.  With entries in {-1, 0, 1} the float64 Gram product
    is exact: every partial sum is an integer of size at most order."""
    m = q.dense()
    if q.kind == HADAMARD:
        ok = q.weight == q.order and np.all(np.abs(m) == 1)
    elif q.kind == CONFERENCE:
        off = ~np.eye(q.order, dtype=bool)
        ok = (q.weight == q.order - 1 and not np.diagonal(m).any()
              and np.all(np.abs(m[off]) == 1))
    else:
        ok = False
    f = m.astype(np.float64)
    return bool(ok and np.array_equal(f @ f.T, q.weight * np.eye(q.order)))


def hadregion_violations(oset, limit: int) -> list[int]:
    """Orders whose worst-case bordering fails the 6d^3 <= h condition.

    Scans irregular gaps (consecutive members h < h' with h' - h > 4,
    h >= 4) and flags every n = h + d, 1 <= d <= h' - h, with 6d^3 > h.
    The right endpoint is included: the scan treats every order inside the
    gap as bordered from the gap's left member, which is how the source
    analysis counted its worst case.
    """
    if limit > oset.limit:
        raise ValueError(f"limit {limit} exceeds sieve limit {oset.limit}")
    mem = oset.members()
    mem = mem[mem <= limit]
    out: list[int] = []
    for h, hp in zip(mem[:-1], mem[1:]):
        h, hp = int(h), int(hp)
        if h < 4 or hp - h <= 4:
            continue
        for d in range(1, hp - h + 1):
            if 6 * d ** 3 > h:
                out.append(h + d)
    return out


def batched_det_int(a: np.ndarray) -> np.ndarray:
    """Exact determinants of a batch of small integer matrices (k <= 6)."""
    k = a.shape[-1]
    if k == 0:
        return np.ones(a.shape[0], dtype=np.int64)
    if k == 1:
        return a[:, 0, 0].copy()
    if k == 2:
        return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    if k == 3:
        return (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
                - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
                + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0]))
    total = np.zeros(a.shape[0], dtype=np.int64)
    cols = np.arange(k)
    for j in range(k):
        minor = a[:, 1:, :][:, :, cols != j]
        term = a[:, 0, j] * batched_det_int(minor)
        total += term if j % 2 == 0 else -term
    return total


def maxdet_oracle(n: int) -> int:
    """Exact D(n) for n <= 6 by exhaustive enumeration.

    The first row and column are fixed to +1 (any sign matrix is
    equivalent to such a matrix under row/column negation), leaving
    2^((n-1)^2) candidates.
    """
    if not 1 <= n <= 6:
        raise ValueError("oracle is exhaustive; only n <= 6 is feasible")
    if n == 1:
        return 1
    free = (n - 1) ** 2
    shifts = np.arange(free, dtype=np.uint64)
    best = 0
    chunk = 1 << min(16, free)
    for start in range(0, 1 << free, chunk):
        idx = np.arange(start, start + chunk, dtype=np.uint64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int64)
        mats = np.ones((chunk, n, n), dtype=np.int64)
        mats[:, 1:, 1:] = (1 - 2 * bits).reshape(chunk, n - 1, n - 1)
        dets = batched_det_int(mats)
        best = max(best, int(np.abs(dets).max()))
    return best
