"""Independent checks that only the tests use: a dense Gram check of a core,
an int64 Walsh-Hadamard transform, the worst-case bordering scan of the
sieve's irregular gaps, the exact g(h), the trial sign stream in Python
integers, the retired HADSIEVE2 sieve cache layout, complex Golay numbers
by factoring and an exhaustive maximal-determinant oracle for n <= 6.
"""

import math
import struct
from fractions import Fraction

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


def walsh_hadamard(x) -> np.ndarray:
    """x H in int64 for Sylvester's H of order n = 2^L, H[i, j] =
    (-1)^popcount(i & j), by the fast Walsh-Hadamard transform: one stage
    per bit, from the highest down, turns each pair (u, v) of entries whose
    indices differ only in that bit into (u + v, u - v)."""
    y = np.array(x, dtype=np.int64)
    rows, n = y.shape
    bit = n // 2
    while bit:
        pairs = y.reshape(rows, n // (2 * bit), 2, bit)
        u = pairs[:, :, 0].copy()
        pairs[:, :, 0] += pairs[:, :, 1]
        np.subtract(u, pairs[:, :, 1], out=pairs[:, :, 1])
        bit //= 2
    return y


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


def is_complex_golay(x: int) -> bool:
    """Whether x >= 1 is 2^(a-1) 6^b 10^c 22^d 26^e for some a, ..., e >= 0:
    its odd part is a product of 3, 5, 11 and 13 whose exponents sum to at
    most 1 + v2(x), for the exponent v2(x) of 2 in x."""
    v2 = (x & -x).bit_length() - 1
    odd, count = x >> v2, 0
    for p in (3, 5, 11, 13):
        while odd % p == 0:
            odd //= p
            count += 1
    return odd == 1 and count <= 1 + v2


MASK64 = (1 << 64) - 1


def hadsieve2_bytes(oset, rule_set: int = 0x1FFF) -> bytes:
    """An OrderSet in the retired HADSIEVE2 cache layout: magic, u64-LE
    limit, u16-LE rule set (bit i for each rule applied; the sieve always
    wrote 0x1FFF), the member bitset packed little-endian (bit j <-> order
    4j), the header byte 3 (orders 1 and 2), then the tag bytes."""
    member = oset.tags != 0xFF
    return (b"HADSIEVE2" + struct.pack("<QH", oset.limit, rule_set)
            + np.packbits(member, bitorder="little").tobytes() + bytes([3])
            + oset.tags.tobytes())


def splitmix64_mix(z: int) -> int:
    """SplitMix64's finalizer on a Python int, reduced mod 2^64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def border_signs(master_seed: int, trial_index: int, m: int, d: int
                 ) -> list[list[int]]:
    """The m x d border B of one trial, as lists of Python ints: entry j of
    the row-major d x m draw is bit j mod 64 of word j // 64, where word i
    is mix64(key + (i + 1) gamma) and key = mix64(mix64(seed) ^ t)."""
    key = splitmix64_mix(splitmix64_mix(master_seed) ^ (trial_index & MASK64))
    words = [splitmix64_mix(key + (i + 1) * 0x9E3779B97F4A7C15)
             for i in range(-(-d * m // 64))]
    draw = [1 if words[j // 64] >> (j % 64) & 1 else -1 for j in range(d * m)]
    return [[draw[r * m + i] for r in range(d)] for i in range(m)]


def g_of_h(h: int) -> Fraction:
    """g(h) = 1 + 2^-h * h * binom(h, h/2), exactly, from math.comb."""
    if h < 2 or h % 2:
        raise ValueError("h must be an even integer >= 2")
    return 1 + Fraction(h * math.comb(h, h // 2), 2 ** h)


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
