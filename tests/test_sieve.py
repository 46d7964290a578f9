import zlib

import numpy as np
import pytest

from maxdet import sieve
from maxdet.primes import prime_power_mask
from maxdet.sieve import (ALL_RULES, RULE_BAUMERT_HALL, RULE_LIVINSKYI,
                          RULE_MIYAMOTO1, RULE_PALEY, RULE_PRODUCT8,
                          RULE_PRODUCT16, RULE_SEBERRY_YAMADA, RULE_SMALL,
                          RULE_TURYN_WILLIAMSON, RULE_YAMADA,
                          SMALL_ORDER_EXCEPTIONS, OrderSet, build_order_set,
                          gap_function, resolve)
from oracles import hadregion_violations, hadsieve2_bytes, is_complex_golay


# ---------------------------------------------------------------------------
# reference sieve: the rules as per-order loops, marking order lists one
# call at a time, in the same fixpoint order as build_order_set; it takes a
# rule subset, so each rule's array code can be checked without the others
# marking its orders first


def _ref_mark(oset, orders, rule):
    orders = np.asarray(orders, dtype=np.int64).ravel()
    orders = orders[(orders >= 4) & (orders <= oset.limit)]
    orders = orders[orders % 4 == 0]
    if orders.size == 0:
        return False
    idx = np.unique(orders // 4)
    idx = idx[oset.tags[idx] == 0xFF]
    if idx.size == 0:
        return False
    oset.tags[idx] = ALL_RULES.index(rule)
    return True


def _ref_williamson_orders(limit, rules, pp_orders, ppm):
    wil = {w for w in range(1, sieve.WILLIAMSON_BASE_MAX + 1)
           if w not in sieve.WILLIAMSON_BASE_EXCEPTIONS}
    if sieve.RULE_SEBERRY_YAMADA in rules:
        for q in pp_orders:
            w = 2 * q + 3
            if w > limit:
                break
            if ppm[w]:
                wil.add(int(w))
    if sieve.RULE_TURYN_WILLIAMSON in rules:
        for q in pp_orders:
            if q % 4 == 1:
                w = (q + 1) // 2
                if w <= limit:
                    wil.add(int(w))
    return sorted(w for w in wil if w <= limit)


def _ref_static_rules(oset, ruleset, pp_orders, ppm):
    limit = oset.limit
    if RULE_PALEY in ruleset:
        bases = np.unique(np.concatenate([np.array([1, 2], dtype=np.int64),
                                          pp_orders + 1]))
        j = 0
        while (1 << j) <= limit:
            vals = bases << j
            _ref_mark(oset, vals[vals <= limit], RULE_PALEY)
            j += 1
    if sieve.RULE_TWIN_PRIME in ruleset:
        out = []
        q = 3
        while (q + 1) * (q + 1) <= limit:
            if ppm[q] and q + 2 < ppm.size and ppm[q + 2]:
                out.append((q + 1) * (q + 1))
            q += 2
        _ref_mark(oset, out, sieve.RULE_TWIN_PRIME)
    if sieve.RULE_COMPLEX_GOLAY in ruleset:
        qmax = limit // 8
        golay = sieve.complex_golay_numbers(qmax)
        if golay.size:
            sums = (golay[:, None] + golay[None, :]).ravel()
            sums = np.unique(sums[sums <= qmax])
            _ref_mark(oset, sums * 8, sieve.RULE_COMPLEX_GOLAY)
    if sieve.RULE_MIYAMOTO2 in ruleset:
        out = [8 * q for q in pp_orders
               if q % 4 == 3 and 8 * q <= limit and 2 * q - 3 < ppm.size
               and ppm[2 * q - 3]]
        _ref_mark(oset, out, sieve.RULE_MIYAMOTO2)
    if RULE_SMALL in ruleset:
        top = min(2056, limit)
        _ref_mark(oset, [h for h in range(4, top + 1, 4)
                         if h not in SMALL_ORDER_EXCEPTIONS], RULE_SMALL)
    if sieve.RULE_BAUMERT_HALL in ruleset:
        wil = _ref_williamson_orders(limit // 4, ruleset, pp_orders, ppm)
        bh = sieve.baumert_hall_orders(limit // 4)
        out = []
        for w in wil:
            for b in bh:
                v = 4 * b * w
                if v > limit:
                    break
                out.append(v)
        _ref_mark(oset, out, sieve.RULE_BAUMERT_HALL)
    if RULE_LIVINSKYI in ruleset:
        k = 1
        while (1 << (6 * k + 5)) <= limit:
            base = 1 << (6 * k + 5)
            qmax = min(1 << (26 * k + 1), limit // base)
            _ref_mark(oset, np.arange(1, qmax + 1, dtype=np.int64) * base,
                      RULE_LIVINSKYI)
            k += 1


def _ref_product8(oset):
    limit = oset.limit
    mem = np.flatnonzero(oset.tags != 0xFF).astype(np.int64) * 4
    changed = False
    for x in mem:
        if x * x > 2 * limit:
            break
        ys = mem[(mem >= x) & (mem <= 2 * limit // x)]
        changed |= _ref_mark(oset, x * ys // 2, RULE_PRODUCT8)
    return changed


def _ref_product16(oset):
    limit16 = 16 * oset.limit
    mem = np.flatnonzero(oset.tags != 0xFF).astype(np.int64) * 4
    changed = False
    for i, w in enumerate(mem):
        if w ** 4 > limit16:
            break
        for x in mem[i:]:
            if w * x ** 3 > limit16:
                break
            for y in mem[np.searchsorted(mem, x):]:
                if w * x * y * y > limit16:
                    break
                zs = mem[(mem >= y) & (mem <= limit16 // (w * x * y))]
                changed |= _ref_mark(oset, w * x * y * zs // 16,
                                     RULE_PRODUCT16)
    return changed


def reference_build_order_set(limit, rules=None):
    """build_order_set as per-order loops, kept as an oracle."""
    ruleset = frozenset(ALL_RULES if rules is None else rules)
    oset = OrderSet(limit)
    ppm = prime_power_mask(limit)
    pp_orders = np.flatnonzero(ppm).astype(np.int64)
    _ref_static_rules(oset, ruleset, pp_orders, ppm)
    changed = True
    while changed:
        changed = False
        if RULE_PRODUCT8 in ruleset:
            changed |= _ref_product8(oset)
        if RULE_PRODUCT16 in ruleset:
            changed |= _ref_product16(oset)
        if RULE_MIYAMOTO1 in ruleset:
            changed |= _ref_mark(oset, [
                4 * q for q in pp_orders
                if 4 * q <= oset.limit and (q - 1) in oset], RULE_MIYAMOTO1)
        if RULE_YAMADA in ruleset:
            changed |= _ref_mark(oset, [
                4 * (q + 2) for q in pp_orders
                if q % 8 == 5 and 4 * (q + 2) <= oset.limit
                and ((q + 3) // 2) in oset], RULE_YAMADA)
    return oset


def apply_rules(limit, rules):
    """build_order_set with only the given rules: direct _rule_* calls on a
    fresh OrderSet(limit), in build_order_set's order."""
    # the Williamson orders behind Baumert-Hall always include both families
    assert (RULE_BAUMERT_HALL not in rules
            or {RULE_SEBERRY_YAMADA, RULE_TURYN_WILLIAMSON} <= set(rules))
    oset = OrderSet(limit)
    ppm = prime_power_mask(limit)
    pp_orders = np.flatnonzero(ppm).astype(np.int64)
    static = {
        RULE_PALEY: lambda: sieve._rule_paley(oset, ppm),
        sieve.RULE_TWIN_PRIME: lambda: sieve._rule_twin_prime(oset, ppm),
        sieve.RULE_COMPLEX_GOLAY: lambda: sieve._rule_complex_golay(oset),
        sieve.RULE_MIYAMOTO2: lambda: sieve._rule_miyamoto2(oset, pp_orders,
                                                            ppm),
        RULE_SMALL: lambda: sieve._rule_small(oset),
        RULE_BAUMERT_HALL: lambda: sieve._rule_baumert_hall(oset, pp_orders,
                                                            ppm),
        RULE_LIVINSKYI: lambda: sieve._rule_livinskyi(oset),
    }
    fixpoint = {
        RULE_PRODUCT8: lambda: sieve._rule_product8(oset),
        RULE_PRODUCT16: lambda: sieve._rule_product16(oset),
        RULE_MIYAMOTO1: lambda: sieve._rule_miyamoto1(oset, pp_orders),
        RULE_YAMADA: lambda: sieve._rule_yamada(oset, pp_orders),
    }
    for rule, call in static.items():
        if rule in rules:
            call()
    changed = True
    while changed:
        changed = False
        for rule, call in fixpoint.items():
            if rule in rules:
                changed |= call()
    return oset


# the full build at ten limits, then rule subsets through apply_rules: each
# rule left out in turn (the Williamson families only feed Baumert-Hall, so
# they are checked through williamson_orders instead), and four small sets
ORACLE_CASES = (
    [(limit, None) for limit in (4, 8, 12, 100, 700, 2056, 4096, 20000,
                                 65536, 131072)]
    + [(limit, frozenset(ALL_RULES) - {rule}) for limit in (20000, 65536)
       for rule in ALL_RULES
       if rule not in (RULE_SEBERRY_YAMADA, RULE_TURYN_WILLIAMSON)]
    + [(65536, frozenset(rules)) for rules in (
        {RULE_PALEY, RULE_PRODUCT8, RULE_PRODUCT16},
        {RULE_PALEY, RULE_PRODUCT16},
        {RULE_PALEY, RULE_MIYAMOTO1, RULE_YAMADA},
        set())])


def _case_id(case):
    limit, rules = case
    if rules is None:
        return f"{limit}-default"
    if len(rules) == len(ALL_RULES) - 1:
        return f"{limit}-no-{(set(ALL_RULES) - rules).pop()}"
    return f"{limit}-" + "+".join(sorted(rules) or ["none"])


class TestBuild:
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
    def test_matches_reference_loops(self, case):
        limit, rules = case
        got = (build_order_set(limit) if rules is None
               else apply_rules(limit, rules))
        want = reference_build_order_set(limit, rules)
        assert np.array_equal(got.tags, want.tags)

    @pytest.mark.parametrize("limit", [3, 100, 2056, 65536, 131072])
    def test_williamson_orders_match_reference(self, limit):
        ppm = prime_power_mask(limit)
        pp_orders = np.flatnonzero(ppm).astype(np.int64)
        assert sieve.williamson_orders(limit, pp_orders, ppm) == \
            _ref_williamson_orders(limit, ALL_RULES, pp_orders, ppm)

    def test_complex_golay_numbers_match_factoring(self):
        # the reference sieve calls complex_golay_numbers too, so check it
        # against an oracle that factors each x instead
        got = set(sieve.complex_golay_numbers(20000).tolist())
        assert got == {x for x in range(1, 20001) if is_complex_golay(x)}
        assert sieve.complex_golay_numbers(0).size == 0

    @pytest.mark.parametrize("limit", [3, sieve.SIEVE_MAX + 1, 3 * 10 ** 18])
    def test_limit_out_of_range_refused(self, limit):
        with pytest.raises(ValueError, match="sieve limit"):
            build_order_set(limit)

    def test_limit_100_all_multiples_of_four(self):
        s = build_order_set(100)
        for n in range(4, 101, 4):
            assert n in s, n
        assert 1 in s and 2 in s
        assert 3 not in s and 6 not in s

    def test_664_in_668_out(self):
        s = build_order_set(672)
        assert 664 in s and 672 in s
        assert 668 not in s

    def test_only_paley_rule_limit4(self):
        s = OrderSet(4)
        sieve._rule_paley(s, prime_power_mask(4))
        assert sorted(int(x) for x in s.members()) == [1, 2, 4]
        assert s.rule_of(4) == RULE_PALEY

    def test_livinskyi_alone(self):
        s = OrderSet(8192)
        sieve._rule_livinskyi(s)
        assert sorted(int(x) for x in s.members()) == [1, 2, 2048, 4096, 6144, 8192]

    def test_monotone_in_rules(self):
        limit = 2048
        small = apply_rules(limit, {RULE_PALEY})
        mid = apply_rules(limit, {RULE_PALEY, RULE_PRODUCT8})
        full = build_order_set(limit)
        assert set(small.members().tolist()) <= set(mid.members().tolist())
        assert set(mid.members().tolist()) <= set(full.members().tolist())

    def test_other_rules_never_generate_small_exceptions(self, order_set):
        # the 13 unresolved orders come from no rule: the full build holds
        # every build under fewer rules, so none of them has any
        for s in (build_order_set(2056), order_set):
            for n in SMALL_ORDER_EXCEPTIONS:
                assert n not in s and s.rule_of(n) is None, n

    def test_tags_name_each_member(self, order_set):
        tags = order_set.tags
        assert np.all((tags < len(ALL_RULES)) | (tags == 0xFF))
        assert tags[0] == 0xFF
        for n in order_set.members()[2:].tolist():
            assert order_set.rule_of(n) == ALL_RULES[tags[n // 4]]
        assert order_set.rule_of(1) is order_set.rule_of(2) is None
        assert order_set.rule_of(668) is order_set.rule_of(670) is None
        assert order_set.rule_of(4) == RULE_PALEY
        assert order_set.rule_of(order_set.limit + 4) is None

    def test_members_multiples_of_four(self, order_set):
        members = order_set.members()
        assert members[0] == 1 and members[1] == 2
        assert np.all(members[2:] % 4 == 0)


class TestQueries:
    def test_resolve_member(self, order_set):
        r = resolve(672, order_set)
        assert (r.h, r.d) == (672, 0)

    def test_resolve_669(self, order_set):
        r = resolve(669, order_set)
        assert (r.h, r.d) == (664, 5)

    def test_resolve_5758(self, order_set):
        r = resolve(5758, order_set)
        assert (r.h, r.d) == (5744, 14)

    def test_resolve_monotone(self, order_set):
        prev = resolve(5, order_set).h
        for n in range(9, 3000, 4):
            cur = resolve(n, order_set).h
            assert cur >= prev
            prev = cur

    def test_resolve_errors(self, order_set):
        with pytest.raises(ValueError):
            resolve(0, order_set)
        with pytest.raises(ValueError):
            resolve(order_set.limit + 1, order_set)

    def test_gap_small_x(self):
        s = build_order_set(16)
        rep = gap_function(4, s)
        assert rep.gamma == 4 and rep.witness_pair == (4, 8)
        rep = gap_function(3, s)
        assert rep.gamma == 2 and rep.witness_pair == (2, 4)

    def test_gap_headroom_error(self):
        s = build_order_set(16)
        with pytest.raises(ValueError, match="headroom"):
            gap_function(16, s)

    def test_gap_at_65536(self, order_set):
        rep = gap_function(65536, order_set)
        assert rep.gamma >= 24
        # the last interval of the exceptional table is a maximal gap
        assert rep.witness_pair == (60456, 60480)
        mem = order_set.members()
        assert mem[np.searchsorted(mem, 60456, side="right")] == 60480

    def test_violations_empty_at_100(self, order_set):
        assert hadregion_violations(order_set, 100) == []

    def test_violations_max_60480(self, order_set):
        v = hadregion_violations(order_set, 65536)
        assert max(v) == 60480
        flagged = [n for n in v if 60456 < n <= 60480]
        assert flagged == [60478, 60479, 60480]

    def test_violations_limit_guard(self, order_set):
        with pytest.raises(ValueError):
            hadregion_violations(order_set, order_set.limit + 1)


def _saved(tmp_path, oset):
    path = tmp_path / "orders.sieve"
    oset.save(path)
    return path, bytearray(path.read_bytes())


def _tag_at(n):
    """Offset of order n's tag byte in a cache file."""
    return len(sieve.MAGIC) + 8 + n // 4


def _write_with_crc(path, blob):
    """blob written to path with its trailing checksum recomputed."""
    blob[-4:] = zlib.crc32(blob[:-4]).to_bytes(4, "little")
    path.write_bytes(bytes(blob))


class TestCache:
    def test_round_trip(self, tmp_path):
        s = build_order_set(4096)
        path = tmp_path / "orders.sieve"
        s.save(path)
        loaded = OrderSet.load(path)
        assert loaded.limit == s.limit
        assert 1 in loaded and 2 in loaded
        assert np.array_equal(loaded.tags, s.tags)
        assert np.count_nonzero(s.tags != 0xFF) > 900
        assert path.stat().st_size == len(sieve.MAGIC) + 8 + s.tags.size + 4
        assert [p.name for p in tmp_path.iterdir()] == ["orders.sieve"]

    @pytest.mark.parametrize("limit", [4, 4096, 65536])
    def test_save_of_load_same_bytes(self, tmp_path, limit):
        path, blob = _saved(tmp_path, build_order_set(limit))
        again = tmp_path / "again.sieve"
        OrderSet.load(path).save(again)
        assert again.read_bytes() == blob

    def test_restricted_saves_fresh_bytes(self, tmp_path):
        cut = tmp_path / "cut.sieve"
        build_order_set(65536).restricted(4096).save(cut)
        _, fresh = _saved(tmp_path, build_order_set(4096))
        assert cut.read_bytes() == fresh

    @pytest.mark.parametrize("mask", [0x0000, 0x0003, 0x0FFF, 0x1FFF, 0x3FFF])
    def test_other_rule_set_is_refused(self, tmp_path, mask):
        # a HADSIEVE2 file, whatever rule set it names: 0x1FFF is the one
        # that layout was ever written with
        path = tmp_path / "old.sieve"
        path.write_bytes(hadsieve2_bytes(build_order_set(2048), mask))
        with pytest.raises(ValueError, match="not a HADSIEVE3"):
            OrderSet.load(path)

    @pytest.mark.parametrize("order, tag", [
        (672, 0xFF),          # a member without a tag
        (668, 0),             # a tag on a non-member
        (0, 0),               # a tag on order 0
    ], ids=["untagged-member", "tagged-non-member", "tagged-order-0"])
    def test_tags_disagreeing_with_members_refused(self, tmp_path, order, tag):
        # a tag changed after save: the checksum refuses the member set
        # it would load instead of the saved one
        s = build_order_set(2048)
        path, blob = _saved(tmp_path, s)
        assert (blob[_tag_at(order)] == 0xFF) == (order not in s)
        blob[_tag_at(order)] = tag
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            OrderSet.load(path)

    @pytest.mark.parametrize("at", [len(sieve.MAGIC), -1],
                             ids=["limit", "checksum"])
    def test_flipped_header_or_checksum_refused(self, tmp_path, at):
        # limit 2048 -> 2049 keeps the length, so only the checksum sees it
        path, blob = _saved(tmp_path, build_order_set(2048))
        blob[at] ^= 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            OrderSet.load(path)

    def test_unknown_rule_index_refused(self, tmp_path):
        path, blob = _saved(tmp_path, build_order_set(2048))
        blob[_tag_at(672)] = len(ALL_RULES)
        _write_with_crc(path, blob)
        with pytest.raises(ValueError, match="unknown rule index"):
            OrderSet.load(path)

    def test_tag_on_order_0_refused(self, tmp_path):
        path, blob = _saved(tmp_path, build_order_set(2048))
        blob[_tag_at(0)] = 0
        _write_with_crc(path, blob)
        with pytest.raises(ValueError, match="order 0"):
            OrderSet.load(path)

    def test_old_format_is_foreign(self, tmp_path):
        path = tmp_path / "old.sieve"
        path.write_bytes(b"HADSIEVE1" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a HADSIEVE3"):
            OrderSet.load(path)

    def test_restricted_equals_fresh_build(self, order_set):
        for limit in (100, 2056, 20000):
            cut, fresh = order_set.restricted(limit), build_order_set(limit)
            assert cut.limit == limit
            assert np.array_equal(cut.tags, fresh.tags)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.sieve"
        path.write_bytes(b"NOTASIEVE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="HADSIEVE3"):
            OrderSet.load(path)

    @pytest.mark.parametrize("header", [0, 1, 2, 7, 255])
    def test_other_header_byte_is_foreign(self, tmp_path, header):
        # the magic's version byte changed, under a valid checksum
        path, blob = _saved(tmp_path, build_order_set(4096))
        at = len(sieve.MAGIC) - 1
        assert blob[at] == ord("3")
        blob[at] = header
        _write_with_crc(path, blob)
        with pytest.raises(ValueError, match="not a HADSIEVE3"):
            OrderSet.load(path)

    def test_truncated(self, tmp_path):
        path, blob = _saved(tmp_path, build_order_set(4096))
        path.write_bytes(bytes(blob[:-5]))
        with pytest.raises(ValueError, match="truncated"):
            OrderSet.load(path)

    def test_over_long(self, tmp_path):
        path, blob = _saved(tmp_path, build_order_set(4096))
        path.write_bytes(bytes(blob) + b"\x00")
        with pytest.raises(ValueError, match="over-long"):
            OrderSet.load(path)


class TestTableIntervalsSpot:
    def test_5744_5760(self, order_set):
        assert 5744 in order_set and 5760 in order_set
        for x in (5748, 5752, 5756):
            assert x not in order_set

    def test_712_720(self, order_set):
        assert 712 in order_set and 720 in order_set
        assert 716 not in order_set
