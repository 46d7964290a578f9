"""One timed pass of a benchmark workload, run in a fresh Python process.

    python3 perfbench/passes.py --workload NAME --seed N --trace 0|1 \
        --gate 0|1 [--spans PATH]

The pass runs the workload's maxdet commands through ``maxdet.cli.main``,
with each command's stdout captured and hashed, then checks the outputs.
It prints one JSON object on its last stdout line for ``run.py``.

Timing points, all taken with ``time.perf_counter`` inside this process:

* the pass starts at the top of this file, before numpy or maxdet is
  imported (interpreter start-up itself is not counted);
* set-up ends where the first bordering trial (``border.run_trial``)
  starts: imports, one BLAS warm-up product, sieve build or cache load,
  resolve and plan, the first core build and its float cast;
* trial time is the time spent inside ``border.run_trial`` calls, reported
  per ``border.search`` call;
* the pass ends when the last command returns.

Every pass wraps ``border.search`` (to keep each best result for the
checks) and ``border.run_trial`` (to time trials).  With ``--trace 1`` the
layer functions are wrapped too; see ``tracer.py``.  With ``--gate 1`` every
best result is re-verified from scratch after the timed pass.
"""

import time

PASS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import maxdet  # noqa: E402
from maxdet import border, bounds, cli, sieve  # noqa: E402

from tracer import Tracer  # noqa: E402

WORK = ROOT / "perfbench" / "out" / "work"

# -- workloads ---------------------------------------------------------------
#
# Each workload turns the seed into a list of maxdet command lines.  The
# seed is the master seed of every search, and certify_roundtrip also draws
# its orders from it.

TABLE1_TRIALS = 8
DEEP_RECIPE, DEEP_WIDTH, DEEP_TRIALS = "paley1(5023);double", 22, 2
CERTIFY_TRIALS = 4

# Orders for certify_roundtrip, derived once with maxdet's own sieve and
# planner and fixed here so that the inputs do not depend on the code under
# test.  Within a list every entry has the same border width, so seeds vary
# the cores but not the shape of the work.
#   LARGE: n = p + 5 for a prime p = 1 (mod 4) in [11000, 11120] whose
#          conference core conference(p) leaves border width 4; the band is
#          narrow so that peak memory varies little between seeds;
#   MID:   n in [1000, 1400] that resolve to h + 3 with h planned by
#          plan_recipe(hadamard, h);
#   SMALL: n in [42, 50] that resolve to h + 2 the same way, so verify also
#          runs its direct full-determinant check (n <= 64).
CERTIFY_LARGE = (11062, 11074, 11098, 11122)
CERTIFY_MID = (1003, 1011, 1023, 1027, 1035, 1043, 1047, 1051, 1055, 1059,
               1067, 1083, 1087, 1091, 1095, 1099, 1107, 1115, 1119, 1123,
               1127, 1131, 1139, 1143, 1147, 1155, 1159, 1167, 1175, 1179,
               1187, 1191, 1203, 1207, 1219, 1227, 1231, 1235, 1239, 1243,
               1251, 1259, 1263, 1267, 1275, 1283, 1287, 1291, 1295, 1299,
               1307, 1311, 1315, 1323, 1327, 1331, 1347, 1351, 1355, 1359,
               1371, 1387, 1395)
CERTIFY_SMALL = (42, 46, 50)


def certify_orders(seed: int) -> list[tuple[int, str]]:
    """(n, method) in run order: the large conference core comes first, so
    set-up covers the sieve build and cache write and the largest core."""
    rng = random.Random(seed)
    mids = rng.sample(CERTIFY_MID, 2)
    return [(rng.choice(CERTIFY_LARGE), "conference"), (mids[0], "auto"),
            (mids[1], "auto"), (rng.choice(CERTIFY_SMALL), "auto")]


def commands(workload: str, seed: int) -> list[list[str]]:
    s = str(seed)
    if workload == "table1_fast":
        return [["table1", "--trials", str(TABLE1_TRIALS), "--seed", s]]
    if workload == "deep_corner":
        return [["search", "--recipe", DEEP_RECIPE, "--d", str(DEEP_WIDTH),
                 "--trials", str(DEEP_TRIALS), "--seed", s]]
    if workload == "certify_roundtrip":
        cache = str(WORK.relative_to(ROOT) / "orders.sieve")
        out = []
        for i, (n, method) in enumerate(certify_orders(seed)):
            witness = str(WORK.relative_to(ROOT) / f"witness{i}.json")
            out.append(["bound", str(n), "--method", method,
                        "--trials", str(CERTIFY_TRIALS), "--seed", s,
                        "--cache", cache, "--out", witness])
            out.append(["verify", witness])
        return out
    raise ValueError(f"unknown workload {workload!r}")


# -- hooks and tracing -------------------------------------------------------


def install(tracer: Tracer, best: list, full: bool) -> None:
    """Wrap the functions the pass needs; with ``full`` every layer too."""

    def keep_best(args, kwargs, result):
        best.append(result)

    def trial_info(args, kwargs, result):
        return {"d": result.d, "sign": result.ratio.sign,
                "log": result.ratio.log_abs}

    tracer.wrap(border, "search", "border.search", keep_best)
    tracer.wrap(border, "run_trial", "border.trial", trial_info)
    if not full:
        return

    def product(q_index, d_index, d_axis):
        def flop(args, kwargs, result):
            m, d = args[q_index].shape[0], args[d_index].shape[d_axis]
            return {"m": m, "d": d, "flop": 2 * m * m * d}
        return flop

    tracer.wrap(border, "_qf", "border.core_cast",
                lambda a, k, r: {"mb": r.nbytes / 2 ** 20})
    tracer.wrap(border, "sample_border_columns", "border.sample")
    tracer.wrap(border, "_sign_completion", "border.sign_completion",
                product(1, 0, 1))
    tracer.wrap(border, "_gram_block", "border.gram",
                product(0, 2, 0))
    tracer.wrap(border, "greedy_complete", "border.greedy")
    tracer.wrap(border, "det_exact", "exact.det")
    tracer.wrap(border, "verify_witness", "border.verify")
    tracer.wrap(border, "build_recipe", "constructions.build_recipe")
    tracer.wrap(cli, "build_recipe", "constructions.build_recipe")
    tracer.wrap(bounds, "evaluate_bounds", "bounds.evaluate")
    tracer.wrap(sieve, "build_order_set", "sieve.build")
    tracer.wrap(sieve.OrderSet, "save", "sieve.cache_save")
    tracer.wrap(sieve.OrderSet, "load", "sieve.cache_load")


# Self-time shares are reported for these spans, plus "untraced" for the
# pass time no wrapped function covers (imports, argument parsing, JSON).
SHARE_LAYERS = ("sieve.build", "sieve.cache_save", "sieve.cache_load",
                "constructions.build_recipe", "border.core_cast",
                "border.sample", "border.sign_completion", "border.gram",
                "border.greedy", "exact.det", "border.trial", "border.search",
                "border.verify", "bounds.evaluate")

UNIFORM_FLOOR_LOG = (math.log(0.07), math.log(0.352))  # 0.07 * 0.352^d


def floor_log(d: int) -> float:
    return UNIFORM_FLOOR_LOG[0] + d * UNIFORM_FLOOR_LOG[1]


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    self_t = tracer.self_times()
    trials = tracer.of("border.trial")
    dets = [i for i, s in enumerate(tracer.spans) if s[0] == "exact.det"]
    det_in_trials = sum(tracer.has_ancestor(i, "border.trial") for i in dets)
    flop = sum(s[4]["flop"] for name in ("border.sign_completion", "border.gram")
               for s in tracer.of(name) if s[4])
    product_s = tracer.total("border.sign_completion") + tracer.total("border.gram")
    over = sum(1 for s in trials
               if s[4]["sign"] > 0 and s[4]["log"] > floor_log(s[4]["d"]))
    debug_midpoint = 1 if __debug__ else 0
    expected_dets = sum(2 * s[4]["d"] * (s[4]["d"] - 1) + 1 + debug_midpoint
                        for s in trials if s[4]["d"] > 0)
    out = {
        "border.sign_completion_s": tracer.total("border.sign_completion"),
        "border.gram_s": tracer.total("border.gram"),
        "border.products_gflop": flop / 1e9,
        "border.products_gflops": flop / 1e9 / product_s if product_s else 0.0,
        "exact.det_s": tracer.total("exact.det"),
        "exact.det_calls": len(dets),
        "exact.det_calls_per_trial": det_in_trials / len(trials) if trials else 0.0,
        "border.greedy_self_s": self_t.get("border.greedy", 0.0),
        "border.core_cast_s": tracer.total("border.core_cast"),
        "border.q_float_mb": max((s[4]["mb"] for s in tracer.of("border.core_cast")
                                  if s[4]), default=0.0),
        "constructions.build_recipe_s": tracer.total("constructions.build_recipe"),
        "constructions.build_recipe_calls": len(tracer.of("constructions.build_recipe")),
        "sieve.build_s": tracer.total("sieve.build"),
        "sieve.cache_save_s": tracer.total("sieve.cache_save"),
        "sieve.cache_load_s": tracer.total("sieve.cache_load"),
        "border.verify_s": tracer.total("border.verify"),
        "bounds.evaluate_s": tracer.total("bounds.evaluate"),
        "border.sample_s": tracer.total("border.sample"),
        "border.trials": len(trials),
        "border.trials_over_floor_frac": over / len(trials) if trials else 0.0,
    }
    for name in SHARE_LAYERS:
        out[f"{name}.share"] = self_t.get(name, 0.0) / wall
    out["untraced.share"] = self_t["pass"] / wall
    selftest = {"det_calls_in_trials": det_in_trials,
                "expected": expected_dets,
                "match": det_in_trials == expected_dets}
    return out, selftest


def search_trial_times(tracer: Tracer) -> list[float]:
    """Per border.search call, the time spent inside its trials."""
    index = {i: k for k, i in enumerate(
        i for i, s in enumerate(tracer.spans) if s[0] == "border.search")}
    out = [0.0] * len(index)
    for name, start, end, parent, _ in tracer.spans:
        if name == "border.trial" and parent in index:
            out[index[parent]] += end - start
    return out


# -- running and checking ----------------------------------------------------


def run_command(argv: list[str]) -> dict:
    buf = io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a crash of the pass
        error = " | ".join(traceback.format_exc(limit=-1).strip().splitlines())
    text = buf.getvalue()
    try:
        parsed = json.loads(text)
    except ValueError:
        parsed = None
    return {"argv": argv, "rc": rc, "error": error, "parsed": parsed,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


class Checker:
    """Counts operations and failures; keeps a reason for each failure."""

    def __init__(self):
        self.ops = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.errors.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def check_table1(res: dict, best: list, ck: Checker) -> float:
    """Each fast-row cell against its search result and its uniform floor."""
    out = res["parsed"] or {}
    cells = [(row["h"], c) for row in out.get("rows", [])
             if row.get("status") != "skipped" for c in row.get("checks", [])]
    fast_cells = sum(len(ds) for h, _, ds, _, _ in cli.EXCEPTIONAL_ROWS
                     if h <= cli.EXCEPTIONAL_FAST_CORE_MAX)
    if res["rc"] != 0 or not out.get("ok") or len(cells) != fast_cells \
            or len(best) != fast_cells:
        for _ in range(fast_cells):
            ck.op(False, f"table1 rc={res['rc']} error={res['error']} "
                         f"cells={len(cells)} searches={len(best)}")
        return 0.0
    total = 0.0
    for (h, cell), result in zip(cells, best):
        d, log = cell["d"], cell["ratio_log"]
        floor_ok = (cell["passes_uniform_floor"] and cell["ratio_decimal"] > 0
                    and log > floor_log(d)
                    and math.isclose(cell["uniform_floor"],
                                     math.exp(floor_log(d)), rel_tol=1e-12))
        ck.op(floor_ok and result.d == cell["border_width"]
              and close(result.ratio.log_abs, log),
              f"table1 cell h={h} d={d}: ratio_log {log} vs floor and search")
        total += log
    return -total


def check_search(res: dict, best: list, ck: Checker) -> float:
    out = res["parsed"] or {}
    ok = (res["rc"] == 0 and len(best) == 1 and out.get("d") == DEEP_WIDTH
          and out.get("ratio_decimal", 0) > 0
          and out.get("ratio_log", -math.inf) > floor_log(DEEP_WIDTH))
    ok = ok and close(best[0].ratio.log_abs, out["ratio_log"]) \
        and out["det_schur"] == str(best[0].det_n)
    ck.op(ok, f"search rc={res['rc']} error={res['error']}")
    return -out["ratio_log"] if ok else 0.0


def check_certify(results: list[dict], best: list, ck: Checker) -> float:
    total = 0.0
    bound_results = results[0::2]
    for i, (b, v) in enumerate(zip(bound_results, results[1::2])):
        bo, vo = b["parsed"] or {}, v["parsed"] or {}
        cons = bo.get("constructive", {})
        d = cons.get("border_width", -1)
        ok = (b["rc"] == 0 and i < len(best) and cons.get("ratio_decimal", 0) > 0
              and cons["ratio_log"] > floor_log(d)
              and close(best[i].ratio.log_abs, cons["ratio_log"]))
        ck.op(ok, f"bound {b['argv'][1]} rc={b['rc']} error={b['error']}")
        ck.op(v["rc"] == 0 and vo.get("ok") is True and ok
              and close(vo["ratio_log"], cons["ratio_log"]),
              f"verify of bound {b['argv'][1]} rc={v['rc']} error={v['error']}")
        if ok:
            total += cons["ratio_log"]
    if len(best) != len(bound_results):
        ck.op(False, f"{len(best)} searches for {len(bound_results)} bound calls")
    return -total


CHECKS = {"table1_fast": lambda r, b, c: check_table1(r[0], b, c),
          "deep_corner": lambda r, b, c: check_search(r[0], b, c),
          "certify_roundtrip": check_certify}


def gate(best: list, ck: Checker) -> None:
    """Re-verify every best witness: rebuild the core, recompute C, the
    Gram block and the exact Schur determinant."""
    for result in best:
        try:
            ratio = border.verify_witness(result)
            ok = ratio.sign == result.ratio.sign and close(ratio.log_abs,
                                                           result.ratio.log_abs)
            why = f"recomputed ratio_log {ratio.log_abs}"
        except (border.WitnessError, border.SchurConsistencyError, ValueError) as exc:
            ok, why = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            ck.errors.append(f"gate: witness n={result.n} d={result.d}: {why}")


def warm_blas() -> None:
    """The first BLAS product of the process, so set-up pays for it."""
    for dtype in (np.float64, np.float32):
        a = np.ones((256, 256), dtype)
        a[:, :8].T @ a


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=CHECKS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=str, default=None)
    args = ap.parse_args()
    src = (ROOT / "src").resolve()
    if Path(maxdet.__file__).resolve().parent.parent != src:
        print(f"maxdet imported from {maxdet.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = Tracer()
    tracer.begin("pass", PASS_START)
    warm_blas()
    best: list = []
    install(tracer, best, full=bool(args.trace))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    results = [run_command(argv) for argv in commands(args.workload, args.seed)]
    tracer.end()
    wall = time.perf_counter() - PASS_START
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ck = Checker()
    deficit = CHECKS[args.workload](results, best, ck)
    if args.gate:
        gate(best, ck)
    trials = tracer.of("border.trial")
    if not trials:
        ck.errors.append("no bordering trial ran")
    out = {
        "wall_s": wall,
        "setup_s": (trials[0][1] if trials else time.perf_counter()) - PASS_START,
        "search_trial_s": search_trial_times(tracer),
        "trials": len(trials),
        "peak_rss_mb": peak_rss_mb,
        "bound_log_deficit": deficit,
        "ops": ck.ops,
        "errors": ck.errors,
        "commands": [{"argv": r["argv"], "rc": r["rc"], "sha256": r["sha256"]}
                     for r in results],
    }
    if args.trace:
        out["layers"], out["selftest"] = layer_metrics(tracer, wall)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
