"""Achievable Hadamard orders up to a limit, by order arithmetic.

The member set is a known-constructible subset of the true Hadamard order
set: eleven construction rules (Paley-Sylvester-Turyn through Seberry-
Yamada) plus the Livinskyi power-of-two rule.  Product rules are iterated
to a fixpoint, so the set is closed under the selected rules below the
limit.  Orders 1 and 2 are always members.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .primes import prime_power_mask

MAGIC = b"HADSIEVE2"

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
DEFAULT_RULES = frozenset(ALL_RULES)
_NO_TAG = 0xFF  # cache byte of an order that no rule marked

# Orders <= 2056 divisible by 4 whose existence was still unresolved.
SMALL_ORDER_EXCEPTIONS = frozenset({
    668, 716, 892, 1004, 1132, 1244, 1388, 1436, 1676, 1772, 1916, 1948, 1964,
})

WILLIAMSON_BASE_MAX = 64
WILLIAMSON_BASE_EXCEPTIONS = frozenset({35, 47, 53, 59})
BAUMERT_HALL_MAX = 108
BAUMERT_HALL_EXCEPTIONS = frozenset({97, 103})


class OrderSet:
    """Bitset of achievable orders: 1, 2, and multiples of 4 up to limit."""

    def __init__(self, limit: int, rules: frozenset[str]):
        if limit < 4:
            raise ValueError("limit must be >= 4")
        self.limit = limit
        self.rules = rules
        self.bits = np.zeros(limit // 4 + 1, dtype=bool)  # index j <-> order 4j
        self.has1 = True
        self.has2 = True
        self.rule_tags: dict[int, str] = {}

    def __contains__(self, n: int) -> bool:
        if n == 1:
            return self.has1
        if n == 2:
            return self.has2
        return n % 4 == 0 and 4 <= n <= self.limit and bool(self.bits[n // 4])

    def _mark(self, orders, rule: str) -> bool:
        orders = np.asarray(orders, dtype=np.int64).ravel()
        orders = orders[(orders >= 4) & (orders <= self.limit)]
        orders = orders[orders % 4 == 0]
        if orders.size == 0:
            return False
        idx = np.unique(orders // 4)
        idx = idx[~self.bits[idx]]
        if idx.size == 0:
            return False
        self.bits[idx] = True
        for j in idx:
            self.rule_tags[int(j) * 4] = rule
        return True

    def members(self) -> np.ndarray:
        """All members in increasing order (includes 1 and 2)."""
        front = [x for x, f in ((1, self.has1), (2, self.has2)) if f]
        return np.concatenate([np.array(front, dtype=np.int64),
                               np.flatnonzero(self.bits).astype(np.int64) * 4])

    def count(self) -> int:
        return int(self.bits.sum()) + self.has1 + self.has2

    def max_member_leq(self, n: int) -> int:
        if n >= 4:
            j = min(n // 4, self.bits.size - 1)
            nz = np.flatnonzero(self.bits[:j + 1])
            if nz.size:
                return int(nz[-1]) * 4
        if n >= 2 and self.has2:
            return 2
        if n >= 1 and self.has1:
            return 1
        raise ValueError(f"no member <= {n}")

    def successor(self, n: int) -> int | None:
        """Smallest member strictly greater than n, or None."""
        if n < 1 and self.has1:
            return 1
        if n < 2 and self.has2:
            return 2
        j = max(n // 4 + 1, 1)
        if j >= self.bits.size:
            return None
        nz = np.flatnonzero(self.bits[j:])
        if nz.size == 0:
            return None
        return (int(nz[0]) + j) * 4

    # -- persistence --------------------------------------------------------

    def restricted(self, limit: int) -> "OrderSet":
        """The same set cut down to a lower limit.

        Rules only derive an order from smaller ones, so this equals a
        fresh build to that limit.
        """
        if limit > self.limit:
            raise ValueError(f"limit {limit} exceeds {self.limit}")
        out = OrderSet(limit, self.rules)
        out.bits = self.bits[:limit // 4 + 1].copy()
        out.has1, out.has2 = self.has1, self.has2
        out.rule_tags = {n: r for n, r in self.rule_tags.items() if n <= limit}
        return out

    def save(self, path) -> None:
        """Cache format: magic, u64-LE limit, u16-LE rule set, bitset
        (LE-packed), header byte, rule tags.

        Bit i of the rule set selects ALL_RULES[i].  One bit per multiple
        of 4 (bit j <-> order 4j); the header byte flags orders 1 and 2 in
        its two low bits; then one byte per multiple of 4 gives the index
        in ALL_RULES of the rule that first marked it, 0xFF for none.  The
        file is written beside the target and renamed into place.
        """
        mask = sum(1 << i for i, r in enumerate(ALL_RULES) if r in self.rules)
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        header = (1 if self.has1 else 0) | (2 if self.has2 else 0)
        tags = np.full(self.bits.size, _NO_TAG, dtype=np.uint8)
        index = {r: i for i, r in enumerate(ALL_RULES)}
        for n, rule in self.rule_tags.items():
            tags[n // 4] = index[rule]
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<QH", self.limit, mask))
                fh.write(packed)
                fh.write(bytes([header]))
                fh.write(tags.tobytes())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path) -> "OrderSet":
        """Read a cache written by save; ValueError if it is not one."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if not blob.startswith(MAGIC):
            raise ValueError(f"not a {MAGIC.decode()} cache file")
        off = len(MAGIC) + struct.calcsize("<QH")
        if len(blob) < off:
            raise ValueError(f"truncated {MAGIC.decode()} cache file")
        limit, mask = struct.unpack_from("<QH", blob, len(MAGIC))
        nbits = limit // 4 + 1
        nbytes = (nbits + 7) // 8
        if len(blob) != off + nbytes + 1 + nbits:
            raise ValueError(f"truncated {MAGIC.decode()} cache file")
        out = cls(limit, frozenset(r for i, r in enumerate(ALL_RULES)
                                   if mask >> i & 1))
        raw = np.frombuffer(blob, np.uint8, nbytes, off)
        out.bits = np.unpackbits(raw, count=nbits, bitorder="little").astype(bool)
        header = blob[off + nbytes]
        out.has1 = bool(header & 1)
        out.has2 = bool(header & 2)
        tags = np.frombuffer(blob, np.uint8, nbits, off + nbytes + 1)
        tagged = np.flatnonzero(tags != _NO_TAG)
        if tagged.size and tags[tagged].max() >= len(ALL_RULES):
            raise ValueError("unknown rule index in cache file")
        out.rule_tags = {4 * int(j): ALL_RULES[tags[j]] for j in tagged}
        return out


@dataclass(frozen=True)
class Resolution:
    """n split as h + d with h the largest member not exceeding n."""

    n: int
    h: int
    d: int


@dataclass(frozen=True)
class GapReport:
    """Largest gap between consecutive members starting at or below x."""

    x: int
    gamma: int
    witness_pair: tuple[int, int] | None


# ---------------------------------------------------------------------------
# rule implementations


def _rule_paley(oset: OrderSet, pp_orders: np.ndarray) -> None:
    limit = oset.limit
    bases = np.unique(np.concatenate([
        np.array([1, 2], dtype=np.int64),      # p = 0 and k = 0 degenerate bases
        pp_orders.astype(np.int64) + 1,
    ]))
    j = 0
    while (1 << j) <= limit:
        vals = bases << j
        oset._mark(vals[vals <= limit], RULE_PALEY)
        j += 1


def _rule_twin_prime(oset: OrderSet, ppm: np.ndarray) -> None:
    limit = oset.limit
    out = []
    q = 3
    while (q + 1) * (q + 1) <= limit:
        if ppm[q] and q + 2 < ppm.size and ppm[q + 2]:
            out.append((q + 1) * (q + 1))
        q += 2
    oset._mark(out, RULE_TWIN_PRIME)


def complex_golay_numbers(limit: int) -> np.ndarray:
    """All 2^(a-1) 6^b 10^c 22^d 26^e <= limit (integer values only)."""
    found = set()
    c6 = 1
    while c6 <= 2 * limit:
        c10 = c6
        while c10 <= 2 * limit:
            c22 = c10
            while c22 <= 2 * limit:
                core = c22
                while core <= 2 * limit:
                    if core % 2 == 0 and core // 2 <= limit:
                        found.add(core // 2)  # a = 0
                    g = core
                    while g <= limit:
                        found.add(g)
                        g *= 2
                    core *= 26
                c22 *= 22
            c10 *= 10
        c6 *= 6
    return np.array(sorted(found), dtype=np.int64)


def _rule_complex_golay(oset: OrderSet) -> None:
    qmax = oset.limit // 8
    golay = complex_golay_numbers(qmax)
    if golay.size == 0:
        return
    sums = (golay[:, None] + golay[None, :]).ravel()
    sums = np.unique(sums[sums <= qmax])
    oset._mark(sums * 8, RULE_COMPLEX_GOLAY)


def _rule_miyamoto2(oset: OrderSet, pp_orders: np.ndarray, ppm: np.ndarray) -> None:
    limit = oset.limit
    out = [8 * q for q in pp_orders
           if q % 4 == 3 and 8 * q <= limit and 2 * q - 3 < ppm.size and ppm[2 * q - 3]]
    oset._mark(out, RULE_MIYAMOTO2)


def _rule_small(oset: OrderSet) -> None:
    top = min(2056, oset.limit)
    orders = [h for h in range(4, top + 1, 4) if h not in SMALL_ORDER_EXCEPTIONS]
    oset._mark(orders, RULE_SMALL)


def williamson_orders(limit: int, rules: frozenset[str],
                      pp_orders: np.ndarray, ppm: np.ndarray) -> list[int]:
    """Known Williamson orders up to limit under the selected rules."""
    wil = {w for w in range(1, WILLIAMSON_BASE_MAX + 1)
           if w not in WILLIAMSON_BASE_EXCEPTIONS}
    if RULE_SEBERRY_YAMADA in rules:
        for q in pp_orders:
            w = 2 * q + 3
            if w > limit:
                break
            if ppm[w]:
                wil.add(int(w))
    if RULE_TURYN_WILLIAMSON in rules:
        for q in pp_orders:
            if q % 4 == 1:
                w = (q + 1) // 2
                if w <= limit:
                    wil.add(int(w))
    return sorted(w for w in wil if w <= limit)


def baumert_hall_orders(limit: int) -> list[int]:
    bh = {b for b in range(1, BAUMERT_HALL_MAX + 1)
          if b not in BAUMERT_HALL_EXCEPTIONS}
    k = 0
    while (1 << k) + 1 <= limit:
        bh.add((1 << k) + 1)
        k += 1
    return sorted(b for b in bh if b <= limit)


def _rule_baumert_hall(oset: OrderSet, rules: frozenset[str],
                       pp_orders: np.ndarray, ppm: np.ndarray) -> None:
    limit = oset.limit
    wil = williamson_orders(limit // 4, rules, pp_orders, ppm)
    bh = baumert_hall_orders(limit // 4)
    out = []
    for w in wil:
        for b in bh:
            v = 4 * b * w
            if v > limit:
                break
            out.append(v)
    oset._mark(out, RULE_BAUMERT_HALL)


def _rule_livinskyi(oset: OrderSet) -> None:
    limit = oset.limit
    k = 1
    while (1 << (6 * k + 5)) <= limit:
        base = 1 << (6 * k + 5)
        qmax = min(1 << (26 * k + 1), limit // base)
        oset._mark(np.arange(1, qmax + 1, dtype=np.int64) * base, RULE_LIVINSKYI)
        k += 1


def _rule_product8(oset: OrderSet) -> bool:
    limit = oset.limit
    mem = np.flatnonzero(oset.bits).astype(np.int64) * 4
    changed = False
    for x in mem:
        if x * x > 2 * limit:
            break
        ys = mem[(mem >= x) & (mem <= 2 * limit // x)]
        changed |= oset._mark(x * ys // 2, RULE_PRODUCT8)
    return changed


def _rule_product16(oset: OrderSet) -> bool:
    limit16 = 16 * oset.limit
    mem = np.flatnonzero(oset.bits).astype(np.int64) * 4
    changed = False
    for i, w in enumerate(mem):
        if w ** 4 > limit16:
            break
        for x in mem[i:]:
            if w * x ** 3 > limit16:
                break
            jy = np.searchsorted(mem, x)
            for y in mem[jy:]:
                if w * x * y * y > limit16:
                    break
                zs = mem[(mem >= y) & (mem <= limit16 // (w * x * y))]
                changed |= oset._mark(w * x * y * zs // 16, RULE_PRODUCT16)
    return changed


def _rule_miyamoto1(oset: OrderSet, pp_orders: np.ndarray) -> bool:
    out = [4 * q for q in pp_orders
           if 4 * q <= oset.limit and (q - 1) in oset]
    return oset._mark(out, RULE_MIYAMOTO1)


def _rule_yamada(oset: OrderSet, pp_orders: np.ndarray) -> bool:
    out = [4 * (q + 2) for q in pp_orders
           if q % 8 == 5 and 4 * (q + 2) <= oset.limit and ((q + 3) // 2) in oset]
    return oset._mark(out, RULE_YAMADA)


def build_order_set(limit: int, rules: Iterable[str] | None = None) -> OrderSet:
    """Build the order set up to limit under the selected rules.

    Product and membership-dependent rules (8ab, 16abcd, Miyamoto-I,
    Yamada) are iterated to a fixpoint; the rest are static.
    """
    ruleset = DEFAULT_RULES if rules is None else frozenset(rules)
    unknown = ruleset - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    oset = OrderSet(limit, ruleset)

    ppm = prime_power_mask(limit)
    pp_orders = np.flatnonzero(ppm).astype(np.int64)

    if RULE_PALEY in ruleset:
        _rule_paley(oset, pp_orders)
    if RULE_TWIN_PRIME in ruleset:
        _rule_twin_prime(oset, ppm)
    if RULE_COMPLEX_GOLAY in ruleset:
        _rule_complex_golay(oset)
    if RULE_MIYAMOTO2 in ruleset:
        _rule_miyamoto2(oset, pp_orders, ppm)
    if RULE_SMALL in ruleset:
        _rule_small(oset)
    if RULE_BAUMERT_HALL in ruleset:
        _rule_baumert_hall(oset, ruleset, pp_orders, ppm)
    if RULE_LIVINSKYI in ruleset:
        _rule_livinskyi(oset)

    changed = True
    while changed:
        changed = False
        if RULE_PRODUCT8 in ruleset:
            changed |= _rule_product8(oset)
        if RULE_PRODUCT16 in ruleset:
            changed |= _rule_product16(oset)
        if RULE_MIYAMOTO1 in ruleset:
            changed |= _rule_miyamoto1(oset, pp_orders)
        if RULE_YAMADA in ruleset:
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
    mem = mem[mem <= x]
    if mem.size == 0:
        return GapReport(x=x, gamma=0, witness_pair=None)
    last = int(mem[-1])
    if oset.successor(last) is None:
        raise ValueError(
            f"insufficient headroom: successor of {last} exceeds limit {oset.limit}")
    all_mem = oset.members()
    k = int(np.searchsorted(all_mem, last)) + 1  # pairs go one past x
    seq = all_mem[:k + 1]
    gaps = np.diff(seq)
    if gaps.size == 0:
        return GapReport(x=x, gamma=0, witness_pair=None)
    gamma = int(gaps.max())
    i = int(np.flatnonzero(gaps == gamma)[-1])
    return GapReport(x=x, gamma=gamma, witness_pair=(int(seq[i]), int(seq[i + 1])))


def hadregion_violations(oset: OrderSet, limit: int) -> list[int]:
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


def gap_exponent(alpha: float) -> float:
    """Gap growth exponent alpha/(1+alpha) from a 2^t q order guarantee."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha / (1.0 + alpha)
