"""Achievable Hadamard orders up to a limit, by order arithmetic.

The member set is a known-constructible subset of the true Hadamard order
set: eleven construction rules (Paley-Sylvester-Turyn through Seberry-
Yamada) plus the Livinskyi power-of-two rule.  Orders 1 and 2 are always
members; every other member is a multiple of 4, and entry j of a uint8
tag array stands for order 4j: the index in ALL_RULES of the rule that
first marked it, or 0xFF for a non-member.  The tags are the only record
of the set, and the cache's tag section is that array as it is, so save
and load copy it unchanged.

The static rules run once.  The four rules that read the member set
(8ab, 16abcd, Miyamoto I, Yamada) then run in that order, round after
round, until a round adds nothing, so the set is closed under all the
rules below the limit.  Each rule call is array code: it reads the
members as they stand, collects what it derives in a boolean hit mask
over tag indices, and tags the new orders in one step.  The products fill
their masks with strided ORs: 8ab at index 2ab is one OR per smaller
factor a, and 16abcd at index 4(ab)(cd) combines the pair products ab,
which need only reach limit/16.  No temporary is larger than the
prime-power mask (limit + 1 bytes), so a build at the default limit 65536
stays below glibc's 128 KiB mmap threshold.
"""
from __future__ import annotations

import math
import os
import zlib
from typing import NamedTuple

import numpy as np

from .primes import prime_power_mask

MAGIC = b"HADSIEVE3"

# The largest sieve limit.  `sieve --max 16777216` takes about 0.9-1.6 s
# and peaks at 93 MB RSS, most of it the interpreter, numpy and the
# prime-power mask (2-core sandbox, Python 3.11, numpy 2.4); a larger limit
# is refused before anything of its size is allocated.
SIEVE_MAX = 1 << 24

RULE_PALEY = "paley"                # 2^j (p^k + 1), incl. powers of two
RULE_PRODUCT8 = "product8"          # Agaian-Sarukhanyan product 8ab
RULE_PRODUCT16 = "product16"        # Craigen-Seberry-Zhang product 16abcd
RULE_TWIN_PRIME = "twin_prime"      # (q+2)q + 1 for twin prime powers
RULE_COMPLEX_GOLAY = "complex_golay"  # 8(x+y) for complex Golay x, y
RULE_MIYAMOTO1 = "miyamoto1"        # 4q, q prime power, q-1 a member
RULE_MIYAMOTO2 = "miyamoto2"        # 8q, q = 3 mod 4, q and 2q-3 prime powers
RULE_YAMADA = "yamada"              # 4(q+2), q = 5 mod 8, (q+3)/2 a member
RULE_SMALL = "small_orders"         # every multiple of 4 up to 2056 but 13
RULE_BAUMERT_HALL = "baumert_hall"  # 4bw, b Baumert-Hall, w Williamson
RULE_SEBERRY_YAMADA = "seberry_yamada"  # Williamson orders 2q+3
RULE_TURYN_WILLIAMSON = "turyn_williamson"  # Williamson orders (q+1)/2
RULE_LIVINSKYI = "livinskyi"        # 2^(6k+5) q for q <= 2^(26k+1)

ALL_RULES = (
    RULE_PALEY, RULE_PRODUCT8, RULE_PRODUCT16, RULE_TWIN_PRIME,
    RULE_COMPLEX_GOLAY, RULE_MIYAMOTO1, RULE_MIYAMOTO2, RULE_YAMADA,
    RULE_SMALL, RULE_BAUMERT_HALL, RULE_SEBERRY_YAMADA,
    RULE_TURYN_WILLIAMSON, RULE_LIVINSKYI,
)
_NO_TAG = 0xFF  # tag of an order that no rule marked

# Orders <= 2056 divisible by 4 whose existence was still unresolved.
SMALL_ORDER_EXCEPTIONS = frozenset({
    668, 716, 892, 1004, 1132, 1244, 1388, 1436, 1676, 1772, 1916, 1948, 1964,
})

WILLIAMSON_BASE_MAX = 64
WILLIAMSON_BASE_EXCEPTIONS = frozenset({35, 47, 53, 59})
BAUMERT_HALL_MAX = 108
BAUMERT_HALL_EXCEPTIONS = frozenset({97, 103})


class OrderSet:
    """Achievable orders 1, 2 and multiples of 4 up to limit, by rule tag."""

    def __init__(self, limit: int):
        if not 4 <= limit <= SIEVE_MAX:
            raise ValueError(f"sieve limit {limit} is outside 4..{SIEVE_MAX}")
        self.limit = limit
        # index j <-> order 4j: the ALL_RULES index that marked it, or _NO_TAG
        self.tags = np.full(limit // 4 + 1, _NO_TAG, dtype=np.uint8)

    def __contains__(self, n: int) -> bool:
        return n in (1, 2) or (n % 4 == 0 and 4 <= n <= self.limit
                               and bool(self.tags[n // 4] != _NO_TAG))

    def _mark(self, hit: np.ndarray, rule: str) -> bool:
        """Add the orders 4j with hit[j] set; tag the new ones with rule.

        hit is overwritten with the mask of the new orders.
        """
        hit &= self.tags == _NO_TAG
        if not hit.any():
            return False
        self.tags[hit] = ALL_RULES.index(rule)
        return True

    def rule_of(self, n: int) -> str | None:
        """The rule that first marked order n; None for 1, 2 and non-members."""
        if n < 4 or n not in self:
            return None
        return ALL_RULES[self.tags[n // 4]]

    def members(self) -> np.ndarray:
        """All members in increasing order (includes 1 and 2)."""
        return np.concatenate([
            np.array([1, 2], dtype=np.int64),
            np.flatnonzero(self.tags != _NO_TAG).astype(np.int64) * 4])

    def max_member_leq(self, n: int) -> int:
        if n >= 4:
            nz = np.flatnonzero(self.tags[:n // 4 + 1] != _NO_TAG)
            if nz.size:
                return int(nz[-1]) * 4
        if n >= 1:
            return min(n, 2)
        raise ValueError(f"no member <= {n}")

    # -- persistence --------------------------------------------------------

    def restricted(self, limit: int) -> "OrderSet":
        """The same set cut down to a lower limit.

        Rules only derive an order from smaller ones, so this equals a
        fresh build to that limit.
        """
        if limit > self.limit:
            raise ValueError(f"limit {limit} exceeds {self.limit}")
        out = OrderSet(limit)
        out.tags[:] = self.tags[:out.tags.size]
        return out

    def save(self, path) -> None:
        """Cache format: magic, u64-LE limit, the tag bytes as held in
        memory (one per multiple of 4, order 4j at offset j), then a u32-LE
        zlib.crc32 of every byte before it.

        The file is written beside the target and renamed into place.
        """
        head = MAGIC + self.limit.to_bytes(8, "little")
        crc = zlib.crc32(self.tags, zlib.crc32(head))
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(head)
                fh.write(self.tags.tobytes())
                fh.write(crc.to_bytes(4, "little"))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path) -> "OrderSet":
        """Read a cache written by save; ValueError if it is not one."""
        with open(path, "rb") as fh:
            blob = fh.read()
        name = MAGIC.decode()
        if not blob.startswith(MAGIC):
            raise ValueError(f"not a {name} cache file")
        off = len(MAGIC) + 8
        limit = int.from_bytes(blob[len(MAGIC):off], "little")
        size = limit // 4 + 1
        if len(blob) != off + size + 4:
            raise ValueError(f"truncated or over-long {name} cache file")
        if zlib.crc32(memoryview(blob)[:-4]) != int.from_bytes(blob[-4:],
                                                                "little"):
            raise ValueError(f"{name} cache file fails its checksum")
        out = cls(limit)
        out.tags[:] = np.frombuffer(blob, np.uint8, size, off)
        if out.tags[0] != _NO_TAG:
            raise ValueError("cache file tags order 0")
        if out.tags[out.tags != _NO_TAG].max(initial=0) >= len(ALL_RULES):
            raise ValueError("unknown rule index in cache file")
        return out


class Resolution(NamedTuple):
    """n split as h + d with h the largest member not exceeding n."""

    n: int
    h: int
    d: int


class GapReport(NamedTuple):
    """Largest gap between consecutive members starting at or below x."""

    x: int
    gamma: int
    witness_pair: tuple[int, int] | None


# ---------------------------------------------------------------------------
# rule implementations: each fills a hit mask (hit[j] <-> order 4j) and
# hands it to OrderSet._mark


def _hits_of(oset: OrderSet, orders) -> np.ndarray:
    """Hit mask of the multiples of 4 in [4, limit] among orders."""
    orders = np.asarray(orders, dtype=np.int64)
    orders = orders[(orders >= 4) & (orders <= oset.limit) & (orders % 4 == 0)]
    hit = np.zeros(oset.tags.size, dtype=bool)
    hit[orders // 4] = True
    return hit


def _member_mask(oset: OrderSet, n: np.ndarray) -> np.ndarray:
    """Elementwise ``n in oset`` for an int64 array."""
    j = np.where((n % 4 == 0) & (n >= 4) & (n <= oset.limit), n // 4, 0)
    return (oset.tags[j] != _NO_TAG) | (n == 1) | (n == 2)


def _rule_paley(oset: OrderSet, ppm: np.ndarray) -> None:
    # bases b = 1, 2 (p = 0 and k = 0 degenerate) and p^k + 1; orders b 2^j
    base = np.zeros(oset.limit + 1, dtype=bool)
    base[1:] = ppm[:-1]
    base[1:3] = True
    hit = base[::4].copy()                 # j = 0: 4i = b
    hit |= base[::2][:hit.size]            # j = 1: 4i = 2b
    step = 1
    while step < hit.size:                 # j >= 2: 4i = 2^j b, i = step b
        view = hit[::step]
        view |= base[:view.size]
        step *= 2
    oset._mark(hit, RULE_PALEY)


def _rule_twin_prime(oset: OrderSet, ppm: np.ndarray) -> None:
    q = np.arange(3, math.isqrt(oset.limit), 2)  # (q+1)^2 <= limit
    q = q[ppm[q] & ppm[q + 2]]
    oset._mark(_hits_of(oset, (q + 1) ** 2), RULE_TWIN_PRIME)


def complex_golay_numbers(limit: int) -> np.ndarray:
    """All 2^(a-1) 6^b 10^c 22^d 26^e <= limit (integer values only): the
    even products of these five factors up to 2 limit, halved."""
    found = {1}
    for f in (2, 6, 10, 22, 26):
        for x in list(found):
            while (x := x * f) <= 2 * limit:
                found.add(x)
    return np.array(sorted(x // 2 for x in found if x % 2 == 0),
                    dtype=np.int64)


def _rule_complex_golay(oset: OrderSet) -> None:
    # 8(x + y) for complex Golay numbers x, y: index 2(x + y)
    qmax = oset.limit // 8
    golay = complex_golay_numbers(qmax)
    hit = np.zeros(oset.tags.size, dtype=bool)
    for row in range(0, golay.size, 32):   # 32 rows of the sum table at a time
        sums = (golay[row:row + 32, None] + golay).ravel()
        hit[2 * sums[sums <= qmax]] = True
    oset._mark(hit, RULE_COMPLEX_GOLAY)


def _rule_miyamoto2(oset: OrderSet, pp_orders: np.ndarray, ppm: np.ndarray) -> None:
    q = pp_orders[(pp_orders % 4 == 3) & (8 * pp_orders <= oset.limit)]
    oset._mark(_hits_of(oset, 8 * q[ppm[2 * q - 3]]), RULE_MIYAMOTO2)


def _rule_small(oset: OrderSet) -> None:
    top = min(2056, oset.limit)
    orders = [h for h in range(4, top + 1, 4) if h not in SMALL_ORDER_EXCEPTIONS]
    oset._mark(_hits_of(oset, orders), RULE_SMALL)


def williamson_orders(limit: int, pp_orders: np.ndarray,
                      ppm: np.ndarray) -> list[int]:
    """Known Williamson orders up to limit: the small bases, the Seberry-
    Yamada orders 2q + 3 and the Turyn orders (q + 1)/2."""
    wil = {w for w in range(1, WILLIAMSON_BASE_MAX + 1)
           if w not in WILLIAMSON_BASE_EXCEPTIONS}
    w = 2 * pp_orders + 3
    w = w[w <= limit]
    wil.update(w[ppm[w]].tolist())
    w = (pp_orders[pp_orders % 4 == 1] + 1) // 2
    wil.update(w[w <= limit].tolist())
    return sorted(w for w in wil if w <= limit)


def baumert_hall_orders(limit: int) -> list[int]:
    bh = {b for b in range(1, BAUMERT_HALL_MAX + 1)
          if b not in BAUMERT_HALL_EXCEPTIONS}
    k = 0
    while (1 << k) + 1 <= limit:
        bh.add((1 << k) + 1)
        k += 1
    return sorted(b for b in bh if b <= limit)


def _rule_baumert_hall(oset: OrderSet, pp_orders: np.ndarray,
                       ppm: np.ndarray) -> None:
    # orders 4bw: index b w
    top = oset.tags.size - 1
    wil = np.zeros(top + 1, dtype=bool)
    wil[williamson_orders(top, pp_orders, ppm)] = True
    hit = np.zeros(top + 1, dtype=bool)
    for b in baumert_hall_orders(top):
        view = hit[b::b]
        view |= wil[1:view.size + 1]
    oset._mark(hit, RULE_BAUMERT_HALL)


def _rule_livinskyi(oset: OrderSet) -> None:
    limit = oset.limit
    k = 1
    while (1 << (6 * k + 5)) <= limit:
        base = 1 << (6 * k + 5)
        qmax = min(1 << (26 * k + 1), limit // base)
        orders = np.arange(1, qmax + 1, dtype=np.int64) * base
        oset._mark(_hits_of(oset, orders), RULE_LIVINSKYI)
        k += 1


def _rule_product8(oset: OrderSet) -> bool:
    # 8ab for members 4a <= 4b: index 2ab, one strided OR per a
    member = oset.tags != _NO_TAG
    hit = np.zeros_like(member)
    for a in np.flatnonzero(member[:math.isqrt((member.size - 1) // 2) + 1]):
        view = hit[2 * a * a::2 * a]
        view |= member[a:a + view.size]
    return oset._mark(hit, RULE_PRODUCT8)


def _rule_product16(oset: OrderSet) -> bool:
    # 16abcd for members 4a <= 4b <= 4c <= 4d: index 4 (ab)(cd), where
    # neither pair product ab, cd exceeds top = (member.size - 1) // 4
    member = oset.tags != _NO_TAG
    top = (member.size - 1) // 4
    pairs = np.zeros(top + 1, dtype=bool)
    for a in np.flatnonzero(member[:math.isqrt(top) + 1]):
        view = pairs[a * a::a]
        view |= member[a:a + view.size]
    hit = np.zeros_like(member)
    for k in np.flatnonzero(pairs[:math.isqrt(top) + 1]):
        view = hit[4 * k * k::4 * k]
        view |= pairs[k:k + view.size]
    return oset._mark(hit, RULE_PRODUCT16)


def _rule_miyamoto1(oset: OrderSet, pp_orders: np.ndarray) -> bool:
    q = pp_orders[4 * pp_orders <= oset.limit]
    return oset._mark(_hits_of(oset, 4 * q[_member_mask(oset, q - 1)]),
                      RULE_MIYAMOTO1)


def _rule_yamada(oset: OrderSet, pp_orders: np.ndarray) -> bool:
    q = pp_orders[(pp_orders % 8 == 5) & (4 * (pp_orders + 2) <= oset.limit)]
    hits = _hits_of(oset, 4 * (q + 2)[_member_mask(oset, (q + 3) // 2)])
    return oset._mark(hits, RULE_YAMADA)


def build_order_set(limit: int) -> OrderSet:
    """Build the order set up to limit under all the rules.

    Product and membership-dependent rules (8ab, 16abcd, Miyamoto-I,
    Yamada) are iterated to a fixpoint; the rest are static.
    """
    oset = OrderSet(limit)
    ppm = prime_power_mask(limit)
    pp_orders = np.flatnonzero(ppm).astype(np.int64)

    _rule_paley(oset, ppm)
    _rule_twin_prime(oset, ppm)
    _rule_complex_golay(oset)
    _rule_miyamoto2(oset, pp_orders, ppm)
    _rule_small(oset)
    _rule_baumert_hall(oset, pp_orders, ppm)
    _rule_livinskyi(oset)

    changed = True
    while changed:
        changed = _rule_product8(oset)
        changed |= _rule_product16(oset)
        changed |= _rule_miyamoto1(oset, pp_orders)
        changed |= _rule_yamada(oset, pp_orders)
    return oset


# ---------------------------------------------------------------------------
# queries


def resolve(n: int, oset: OrderSet) -> Resolution:
    """Split n = h + d with h the largest member <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > oset.limit:
        raise ValueError(f"n = {n} exceeds sieve limit {oset.limit}")
    h = oset.max_member_leq(n)
    return Resolution(n=n, h=h, d=n - h)


def gap_function(x: int, oset: OrderSet) -> GapReport:
    """Maximum gap n_{i+1} - n_i over consecutive members with n_i <= x.

    Ties report the attaining pair with the largest left endpoint.  The
    successor of the largest member <= x must lie within the sieve limit,
    otherwise the gap at that member is unknown and an error is raised.
    """
    if x > oset.limit:
        raise ValueError(f"x = {x} exceeds sieve limit {oset.limit}")
    mem = oset.members()
    k = int(np.searchsorted(mem, x, side="right"))  # members <= x
    if k == 0:
        return GapReport(x=x, gamma=0, witness_pair=None)
    if k == len(mem):  # no member above x: the last gap is unknown
        raise ValueError(f"insufficient headroom: successor of {mem[-1]} "
                         f"exceeds limit {oset.limit}")
    seq = mem[:k + 1]  # pairs go one past x
    gaps = np.diff(seq)
    gamma = int(gaps.max())
    i = int(np.flatnonzero(gaps == gamma)[-1])
    return GapReport(x=x, gamma=gamma, witness_pair=(int(seq[i]), int(seq[i + 1])))

