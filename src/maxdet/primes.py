"""Prime and prime-power utilities shared by the constructions and the sieve."""

from __future__ import annotations

import numpy as np


def prime_mask(limit: int) -> np.ndarray:
    """Boolean array of length limit+1, True at primes."""
    if limit < 1:
        return np.zeros(max(limit + 1, 0), dtype=bool)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return mask


def prime_power_mask(limit: int) -> np.ndarray:
    """Boolean array, True at p^k for prime p and k >= 1."""
    mask = prime_mask(limit)
    out = mask.copy()
    for p in np.flatnonzero(mask):
        p = int(p)
        if p * p > limit:
            break
        q = p * p
        while q <= limit:
            out[q] = True
            q *= p
    return out


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for n up to ~10^12."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True
