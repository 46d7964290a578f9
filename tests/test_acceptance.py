"""Acceptance criteria, one test per criterion, each printing a PASS line.

Long-running pieces (the n = 5758 conference row and the n = 6 oracle)
carry the `slow` marker and run with `pytest -m slow`.  Criterion 9, the
supporting lemmas, is tests/test_lemmas.py: one test per lemma.
"""

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from maxdet.border import (SearchConfig, SharedBlocks, run_trial, search,
                           trial_generator, verify_witness)
from maxdet.bounds import evaluate_bounds
from maxdet.cli import EXCEPTIONAL_ROWS
from maxdet.constructions import (CONFERENCE, HADAMARD, build_recipe,
                                  paley_conference, plan_recipe)
from oracles import hadregion_violations, maxdet_oracle, validate
from test_border import exhaustive_search, iter_all_borders, trials_of

# documented deviation for criterion 7: fixpoint closure of the product
# rule over Yamada-rule orders lands inside two of the table's intervals
EXPECTED_INTERIOR_MEMBERS = {47976: "product8", 53736: "product8"}


def _report(num: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_criterion_01_construction_validity():
    # Every plannable core up to order 2000 is built, and a build certifies
    # the quadratic character of each Paley generator.  The dense Gram check
    # runs on every core up to order 600 and on the largest core up to 2000
    # of each recipe shape (the recipe with its prime taken out).
    t0 = time.time()
    built, largest = [], {}
    for kind, orders in ((HADAMARD, [1, 2] + list(range(4, 2001, 4))),
                         (CONFERENCE, range(2, 2001, 2))):
        for m in orders:
            recipe = plan_recipe(kind, m)
            if recipe is not None:
                q = build_recipe(recipe)
                assert (q.order, q.kind) == (m, kind), recipe
                built.append(recipe)
                if m <= 600:
                    assert validate(q), recipe
                else:
                    largest[re.sub(r"\d+", "p", recipe)] = recipe
    for recipe in largest.values():
        assert validate(build_recipe(recipe)), recipe
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, "construction validity",
            f"{len(built)} certified, dense check on those <= 600 and "
            f"{len(largest)} largest by shape, {elapsed:.1f}s")


def test_criterion_02_exact_expectations(h4):
    # E f11 = g(h) - 1 is test_lemmas.py::test_diagonal_mean_exact
    f12_sq = [Fraction(res.G[0, 1], 4) ** 2
              for res in iter_all_borders(h4, 2)]
    assert len(f12_sq) == 256
    assert sum(f12_sq) / 256 == 1
    _report(2, "exact expectations at h=4")


def test_criterion_03_best_bound_invariants():
    t0 = time.time()
    d = 3
    trials_per_h = 3400  # > 10^4 across the three core orders
    for h in (8, 12, 16):
        q = build_recipe(plan_recipe(HADAMARD, h))
        qm = q.dense()
        rng = trial_generator(2024, h)
        b_all = (rng.integers(0, 2, size=(trials_per_h, h, d),
                              dtype=np.int64) * 2 - 1)
        p = b_all.transpose(0, 2, 1) @ qm
        c_all = np.where(p >= 0, 1, -1)
        cqt = c_all @ qm.T
        g_all = cqt @ b_all
        bound = h ** 1.5
        diag = g_all[:, np.arange(d), np.arange(d)]
        assert np.all(diag >= 0) and np.all(diag <= bound)
        off = g_all[:, ~np.eye(d, dtype=bool)]
        assert np.all(np.abs(off) <= bound)
        assert np.all((cqt ** 2).sum(axis=2) == h * h)
    _report(3, "Gram block bounds and row norms",
            f"3x{trials_per_h} trials, {time.time()-t0:.1f}s")


def test_criterion_04_small_border_ladder():
    t0 = time.time()
    for h in (4, 8, 12, 16, 20, 24):
        q = build_recipe(plan_recipe(HADAMARD, h))
        for d in (1, 2, 3):
            n = h + d
            rhs_log = 0.5 * d * math.log(2 * n / math.pi)
            trials = 1000
            while True:
                best = search(q, d, SearchConfig(trials=trials, master_seed=0))
                lhs_log = math.log(abs(best.det_n)) - d * math.log(h)
                if lhs_log > rhs_log:
                    break
                assert trials < 8000, (h, d, lhs_log, rhs_log)
                trials *= 2
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(4, "direct-expectation floor at small h,d", f"{elapsed:.1f}s")


def test_criterion_05_oracle_agreement(h4):
    t0 = time.time()
    assert [maxdet_oracle(n) for n in (1, 2, 3, 4)] == [1, 2, 4, 16]
    d5 = maxdet_oracle(5)
    oracle_log = math.log(d5) - 2.5 * math.log(5)

    best = exhaustive_search(h4, 1)
    # exhaustive bordering attains the true maximum at n = 5, exactly
    assert 4 * abs(best.det_n) == d5
    assert abs(best.ratio.log_abs - oracle_log) < 1e-9
    shared = SharedBlocks(1, SearchConfig(trials=50, master_seed=31337))
    for t in range(50):
        res = run_trial(h4, 1, t, shared)
        assert res.ratio.log_abs <= oracle_log + 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(5, "maxdet oracle agreement", f"D(5)={d5}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_05s_oracle_n6(h4):
    d6 = maxdet_oracle(6)
    assert d6 == 160
    oracle_log = math.log(d6) - 3.0 * math.log(6)
    best = exhaustive_search(h4, 2)
    assert best.ratio.log_abs <= oracle_log + 1e-12
    _report(5, "slow: n=6 oracle", f"D(6)={d6}")


def test_criterion_06_table_fast_rows():
    t0 = time.time()
    h664 = build_recipe("paley1(331);double")
    target_670 = 3 * math.log(2 / (math.pi * math.e))
    trials = 256
    while True:
        best = search(h664, 6, SearchConfig(trials=trials, master_seed=0))
        if best.ratio.sign > 0 and best.ratio.log_abs > target_670:
            break
        assert trials < 1024, best.ratio.value()
        trials *= 2

    c710 = paley_conference(709)
    target_717 = 5 * math.log(0.352)
    trials = 256
    while True:
        best = search(c710, 7, SearchConfig(trials=trials, master_seed=0))
        if best.ratio.sign > 0 and best.ratio.log_abs > target_717:
            break
        assert trials < 1024, best.ratio.value()
        trials *= 2
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(6, "fast exceptional rows n=670, n=717", f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_06s_conference_5758():
    t0 = time.time()
    q = paley_conference(5749)
    target = math.log(0.002115)
    trials = 256
    while True:
        best = search(q, 8, SearchConfig(trials=trials, master_seed=0))
        if best.ratio.sign > 0 and best.ratio.log_abs > target:
            break
        assert trials < 1024, best.ratio.value()
        trials *= 2
    elapsed = time.time() - t0
    assert elapsed < 1800
    _report(6, "slow: conference row n=5758",
            f"ratio={best.ratio.value():.6f}, {elapsed:.0f}s")


def test_criterion_07_sieve_calibration(order_set):
    t0 = time.time()
    deviations = []
    for h, hp, *_ in EXCEPTIONAL_ROWS:
        assert h in order_set, h
        assert hp in order_set, hp
        for x in range(h + 4, hp, 4):
            if x in order_set:
                rule = order_set.rule_of(x)
                deviations.append((h, hp, x, rule))
                assert x in EXPECTED_INTERIOR_MEMBERS, (x, rule)
                assert rule == EXPECTED_INTERIOR_MEMBERS[x], (x, rule)
    if deviations:
        print("DOCUMENTED DEVIATION: fixpoint rule closure generates interior "
              "members the source table treats as gaps:")
        for h, hp, x, rule in deviations:
            print(f"  interval [{h},{hp}]: {x} generated by rule '{rule}' "
                  f"(product of 12 with the Yamada-rule order {x * 2 // 12})")
    assert len(deviations) == len(EXPECTED_INTERIOR_MEMBERS)

    violations = hadregion_violations(order_set, 65536)
    assert max(violations) == 60480
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(7, "sieve calibration at 65536",
            f"max violation 60480; {len(deviations)} documented interior "
            f"members; {elapsed:.1f}s")


def test_criterion_08_schur_direct_consistency():
    t0 = time.time()
    cores = ["unit;double;double", "unit;double;double;double", "paley1(11)",
             "paley1(19)", "paley1(23)", "paley1(31)", "paley1(43)",
             "unit;double;double;double;double",
             "unit;double;double;double;double;double",
             "paley2(5)", "paley2(13)", "conference(5)", "conference(13)",
             "conference(17)", "conference(29)", "conference(37)",
             "conference(41)", "conference(53)"]
    rng = np.random.default_rng(888)
    orders = {recipe: build_recipe(recipe).order for recipe in cores}
    cases = []
    t = 0
    while len(cases) < 100:
        recipe = cores[rng.integers(len(cores))]
        max_d = min(8, 64 - orders[recipe])
        t += 1
        if max_d >= 1:
            cases.append((recipe, int(rng.integers(1, max_d + 1)), t))
    for res in trials_of(cases, 4242):
        verify_witness(res)  # raises unless direct == Schur, exactly
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(8, "Schur vs direct determinants", f"100 cases, {elapsed:.1f}s")


def test_criterion_10_bound_spot_checks():
    val = math.exp(1.5 * math.log(2 / (math.pi * math.e)))
    assert 0.1133 < val < 0.1134
    for n, d, applicable in ((658, 2, False), (657, 1, True)):
        rows = evaluate_bounds(n, 656, d)["bounds"]
        tail = next(row for row in rows if row["name"] == "tail_bound")
        assert tail["applicable"] is applicable
    _report(10, "bound formula spot checks")
