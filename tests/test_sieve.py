import numpy as np
import pytest

from maxdet.sieve import (DEFAULT_RULES, RULE_LIVINSKYI, RULE_PALEY,
                          RULE_PRODUCT8, RULE_SMALL, SMALL_ORDER_EXCEPTIONS,
                          OrderSet, build_order_set, gap_exponent,
                          gap_function, hadregion_violations, resolve)


class TestBuild:
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
        s = build_order_set(4, rules={RULE_PALEY})
        assert sorted(int(x) for x in s.members()) == [1, 2, 4]

    def test_livinskyi_alone(self):
        s = build_order_set(8192, rules={RULE_LIVINSKYI})
        assert sorted(int(x) for x in s.members()) == [1, 2, 2048, 4096, 6144, 8192]

    def test_monotone_in_rules(self):
        limit = 2048
        small = build_order_set(limit, rules={RULE_PALEY})
        mid = build_order_set(limit, rules={RULE_PALEY, RULE_PRODUCT8})
        full = build_order_set(limit)
        assert set(small.members().tolist()) <= set(mid.members().tolist())
        assert set(mid.members().tolist()) <= set(full.members().tolist())

    def test_other_rules_never_generate_small_exceptions(self):
        # the 13 unresolved orders must come from no rule but the table
        s = build_order_set(2056, rules=DEFAULT_RULES - {RULE_SMALL})
        for n in SMALL_ORDER_EXCEPTIONS:
            assert n not in s, n

    def test_members_multiples_of_four(self, order_set):
        members = order_set.members()
        assert members[0] == 1 and members[1] == 2
        assert np.all(members[2:] % 4 == 0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            build_order_set(100, rules={"nope"})


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
        assert order_set.successor(60456) == 60480

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

    def test_gap_exponent(self):
        assert gap_exponent(1 / 5) == pytest.approx(1 / 6)
        assert gap_exponent(2) == pytest.approx(2 / 3)
        assert gap_exponent(3 / 8) == pytest.approx(3 / 11)
        with pytest.raises(ValueError):
            gap_exponent(0)


class TestCache:
    def test_round_trip(self, tmp_path):
        s = build_order_set(4096)
        path = tmp_path / "orders.sieve"
        s.save(path)
        loaded = OrderSet.load(path)
        assert loaded.limit == s.limit
        assert loaded.has1 and loaded.has2
        assert np.array_equal(loaded.bits, s.bits)
        assert loaded.rules == s.rules == DEFAULT_RULES
        assert loaded.rule_tags == s.rule_tags and len(s.rule_tags) > 900
        assert [p.name for p in tmp_path.iterdir()] == ["orders.sieve"]

    def test_round_trip_rule_subset(self, tmp_path):
        s = build_order_set(2048, rules={RULE_PALEY, RULE_PRODUCT8})
        path = tmp_path / "orders.sieve"
        s.save(path)
        loaded = OrderSet.load(path)
        assert loaded.rules == {RULE_PALEY, RULE_PRODUCT8}
        assert loaded.rule_tags == s.rule_tags
        assert set(s.rule_tags.values()) == {RULE_PALEY, RULE_PRODUCT8}

    def test_old_format_is_foreign(self, tmp_path):
        path = tmp_path / "old.sieve"
        path.write_bytes(b"HADSIEVE1" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a HADSIEVE2"):
            OrderSet.load(path)

    def test_restricted_equals_fresh_build(self, order_set):
        for limit in (100, 2056, 20000):
            cut, fresh = order_set.restricted(limit), build_order_set(limit)
            assert cut.limit == limit
            assert np.array_equal(cut.bits, fresh.bits)
            assert cut.rule_tags == fresh.rule_tags

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.sieve"
        path.write_bytes(b"NOTASIEVE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="HADSIEVE2"):
            OrderSet.load(path)

    def test_truncated(self, tmp_path):
        s = build_order_set(4096)
        path = tmp_path / "orders.sieve"
        s.save(path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            OrderSet.load(path)


class TestTableIntervalsSpot:
    def test_5744_5760(self, order_set):
        assert 5744 in order_set and 5760 in order_set
        for x in (5748, 5752, 5756):
            assert x not in order_set

    def test_712_720(self, order_set):
        assert 712 in order_set and 720 in order_set
        assert 716 not in order_set
