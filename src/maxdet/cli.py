"""Command-line interface: sieve, gaps, resolve, bound, search, verify and
table1 subcommands.

Machine-readable JSON goes to stdout; human logs go to stderr.  Runs with
identical flags and seed produce byte-identical JSON.  Exit code 0 means
every requested check passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from operator import itemgetter
from pathlib import Path

from . import __version__
from . import bounds as bounds_mod
from . import border as border_mod
from . import sieve as sieve_mod
from .constructions import (CONFERENCE, HADAMARD, ExactnessError,
                            build_recipe, plan_recipe)

DEFAULT_LIMIT = 65536
DEFAULT_TRIALS = 256

# Exceptional bordering cases: (h, h', d values, prime, method).
EXCEPTIONAL_ROWS = (
    (664, 672, (5, 6), 331, "paley1"),
    (712, 720, (5, 6), 709, "conference"),
    (888, 896, (6,), 443, "paley1"),
    (1000, 1008, (6,), 499, "paley1"),
    (1128, 1136, (6,), 563, "paley1"),
    (1240, 1248, (6,), 619, "paley1"),
    (2868, 2880, (8, 9, 10), 1433, "paley2"),
    (5744, 5760, (10, 11, 12, 13, 14), 5749, "conference"),
    (10048, 10064, (12, 13, 14), 5023, "paley1"),
    (23980, 24000, (16, 17, 18), 23993, "conference"),
    (47964, 47988, (20, 21, 22), 47963, "paley1"),
    (53732, 53760, (21, 22, 23, 24, 25, 26), 53731, "paley1"),
    (60456, 60480, (22,), 60457, "conference"),
)
EXCEPTIONAL_FAST_CORE_MAX = 6000


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _meta(args, oset=None) -> dict:
    meta = {"version": __version__}
    if hasattr(args, "seed"):
        meta["master_seed"] = args.seed
    if oset is not None:
        meta["sieve_limit"] = oset.limit
        meta["rule_set"] = sorted(sieve_mod.ALL_RULES)
    return meta


def _load_sieve(args, need_limit: int | None = None) -> sieve_mod.OrderSet:
    limit = max(args.max, need_limit or 0)
    cache = getattr(args, "cache", None)
    if cache is not None and Path(cache).exists():
        try:
            oset = sieve_mod.OrderSet.load(cache)
        except ValueError as exc:
            _log(f"unusable sieve cache {cache} ({exc}); rebuilding")
        else:
            if oset.limit < limit:
                _log(f"cache limit {oset.limit} below required {limit}; "
                     "rebuilding")
            else:
                _log(f"loaded sieve cache {cache} (limit {oset.limit})")
                return oset.restricted(limit)
    _log(f"building order sieve to {limit}")
    oset = sieve_mod.build_order_set(limit)
    if cache is not None:
        oset.save(cache)
        _log(f"wrote sieve cache {cache}")
    return oset


# ---------------------------------------------------------------------------


def cmd_sieve(args) -> int:
    oset = _load_sieve(args)
    members = oset.members()
    out = {
        "meta": _meta(args, oset),
        "limit": oset.limit,
        "count": oset.count(),
        "largest_member": int(members[-1]),
        "first_members": [int(x) for x in members[:12]],
    }
    if args.out:
        oset.save(args.out)
        out["exported"] = str(args.out)
        _log(f"exported cache to {args.out}")
    _emit(out)
    return 0


def cmd_gaps(args) -> int:
    # gamma(x) needs the successor of the last member <= x: pad the limit
    oset = _load_sieve(args, need_limit=args.x + 4096)
    rep = sieve_mod.gap_function(args.x, oset)
    _emit({
        "meta": _meta(args, oset),
        "x": rep.x,
        "gamma": rep.gamma,
        "witness_pair": list(rep.witness_pair) if rep.witness_pair else None,
    })
    return 0


def cmd_resolve(args) -> int:
    oset = _load_sieve(args, need_limit=args.n)
    res = sieve_mod.resolve(args.n, oset)
    _emit({"meta": _meta(args, oset), "n": res.n, "h": res.h, "d": res.d})
    return 0


def _plan(kind: str, order: int) -> str:
    recipe = plan_recipe(kind, order)
    if recipe is None:
        raise ValueError(f"no recipe realizes {kind} order {order}")
    return recipe


def _select_core(args, oset, n: int):
    """Choose the core matrix per --method; returns (recipe, resolution)."""
    res = sieve_mod.resolve(n, oset)
    if args.method == "conference":
        for order in range(n, 5, -1):
            recipe = plan_recipe(CONFERENCE, order)
            if recipe is not None:
                return recipe, res
        raise ValueError(f"no conference order available at or below {n}")
    return _plan(HADAMARD, res.h), res


def cmd_bound(args) -> int:
    oset = _load_sieve(args, need_limit=args.n)
    recipe, res = _select_core(args, oset, args.n)
    q = build_recipe(recipe)
    width = args.n - q.order
    config = border_mod.SearchConfig(trials=args.trials, master_seed=args.seed)
    _log(f"n={args.n}: resolve h={res.h} d={res.d}; core {recipe} "
         f"(order {q.order}, border {width}); {args.trials} trials")
    best = border_mod.search(q, width, config)
    report = bounds_mod.evaluate_bounds(args.n, res.h, res.d)

    constructive = best.ratio
    top = max((row for row in report["bounds"]
               if row["applicable"] and row["target"] == "Dbar(n)"),
              key=itemgetter("value_log"), default=None)
    # the formula wins when the constructive ratio is 0 or has a smaller log
    if top is not None and (constructive.sign == 0
                            or top["value_log"] > constructive.log_abs):
        winner = {"source": "formula", "value_log": top["value_log"],
                  "value_decimal": top["value_decimal"]}
    else:
        winner = {"source": "constructive",
                  "value_log": constructive.log_abs,
                  "value_decimal": constructive.value()}
    out = {
        "meta": _meta(args, oset),
        "n": args.n,
        "resolution": {"h": res.h, "d": res.d},
        "recipe": recipe,
        "witness_kind": ("conference-witness" if q.kind == CONFERENCE
                         else "hadamard"),
        "constructive": {
            "ratio_log": constructive.log_abs,
            "ratio_decimal": constructive.value(),
            "trial_index": best.trial_index,
            "border_width": width,
        },
        "formula_bounds": report,
        "best_lower_bound": winner,
    }
    if args.out:
        border_mod.save_witness(args.out, best)
        out["witness_file"] = str(args.out)
        _log(f"wrote witness to {args.out}")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, bounds_mod.BOUND_COLUMNS,
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(report["bounds"])
        sys.stdout.write(buf.getvalue())
    else:
        _emit(out)
    return 0


def cmd_search(args) -> int:
    if args.recipe:
        q = build_recipe(args.recipe)
    elif args.order is not None:
        q = build_recipe(_plan(args.kind, args.order))
    else:
        raise ValueError("search needs --recipe or --order")
    config = border_mod.SearchConfig(trials=args.trials, master_seed=args.seed)
    best = border_mod.search(q, args.d, config)
    out = {
        "meta": _meta(args),
        "recipe": q.recipe,
        "n": best.n, "m": best.m, "d": best.d,
        "ratio_log": best.ratio.log_abs,
        "ratio_decimal": best.ratio.value(),
        "trial_index": best.trial_index,
        "det_schur": str(best.det_n),
    }
    if args.out:
        border_mod.save_witness(args.out, best)
        out["witness_file"] = str(args.out)
    _emit(out)
    return 0


def cmd_verify(args) -> int:
    try:
        ratio = border_mod.verify_witness(args.witness)
    except (ValueError, OSError, ExactnessError,
            border_mod.SchurConsistencyError) as exc:
        _emit({"meta": _meta(args), "ok": False, "error": str(exc)})
        return 1
    _emit({
        "meta": _meta(args),
        "ok": True,
        "ratio_log": ratio.log_abs,
        "ratio_decimal": ratio.value(),
    })
    return 0


def _table1_core(h: int, p: int, method: str) -> str:
    """A row's core: paley1(p) doubled up to order h, paley2(p) or
    conference(p)."""
    doublings = (h // (p + 1)).bit_length() - 1 if method == "paley1" else 0
    return f"{method}({p})" + ";double" * doublings


def cmd_table1(args) -> int:
    valid = [row[0] for row in EXCEPTIONAL_ROWS]
    unknown = sorted(set(args.rows or ()) - set(valid))
    if unknown:
        raise ValueError(f"--rows {unknown} are not Table 1 rows; "
                         f"valid h values: {valid}")
    need = max(hp for _, hp, *_ in EXCEPTIONAL_ROWS)
    oset = _load_sieve(args, need_limit=need)
    rows_out = []
    all_ok = True
    only = set(args.rows) if args.rows else None
    for row in EXCEPTIONAL_ROWS:
        h, hp, ds, p, method = row
        if only is not None and h not in only:
            continue
        entry = {"h": h, "h_prime": hp, "p": p, "method": method,
                 "d_values": list(ds)}
        interior = [x for x in range(h + 4, hp, 4) if x in oset]
        entry["endpoints_member"] = (h in oset) and (hp in oset)
        entry["interior_members"] = [
            {"order": x, "rule": oset.rule_of(x)} for x in interior]
        if not entry["endpoints_member"]:
            entry["status"] = "fail"
            rows_out.append(entry)
            all_ok = False
            continue
        if h > EXCEPTIONAL_FAST_CORE_MAX and not args.slow:
            entry["status"] = "skipped"
            rows_out.append(entry)
            continue
        recipe = _table1_core(h, p, method)
        q = build_recipe(recipe)
        entry["recipe"] = recipe
        checks = []
        row_ok = True
        widths = [h + d - q.order for d in ds]
        config = border_mod.SearchConfig(trials=args.trials,
                                         master_seed=args.seed)
        _log(f"table1 row h={h}: borders {widths}, {args.trials} trials "
             f"each, products by the chunk of trials")
        found = border_mod.search_widths(q, widths, config)
        for d, width, best in zip(ds, widths, found):
            n = h + d
            ok = bounds_mod.passes_uniform_floor(best.det_n, q.order,
                                                 q.weight, width, d)
            row_ok &= ok
            checks.append({
                "d": d, "n": n, "border_width": width,
                "ratio_log": best.ratio.log_abs,
                "ratio_decimal": best.ratio.value(),
                "uniform_floor": math.exp(bounds_mod.uniform_floor_log(d)),
                "passes_uniform_floor": ok,
                "passes_small_border_floor":
                    bounds_mod.passes_small_border_floor(
                        best.det_n, q.order, q.weight, width, d),
            })
        entry["checks"] = checks
        entry["status"] = "pass" if row_ok else "fail"
        all_ok &= row_ok
        rows_out.append(entry)
        del q  # release this row's core before the next one is built
    _emit({"meta": _meta(args, oset), "rows": rows_out, "ok": all_ok})
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def _add_sieve_flags(p):
    p.add_argument("--max", type=int, default=DEFAULT_LIMIT,
                   help="sieve limit (default %(default)s)")
    p.add_argument("--cache", type=str, default=None,
                   help="sieve cache file (HADSIEVE2 format)")


@functools.cache  # one parser per process, built by the first main()
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maxdet",
        description="Lower bounds on maximal determinants of sign matrices "
                    "via randomized bordering of Hadamard and conference "
                    "matrices.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build the achievable-order sieve")
    _add_sieve_flags(p)
    p.add_argument("--out", type=str, default=None, help="export cache path")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("gaps", help="max gap between achievable orders")
    p.add_argument("x", type=int)
    _add_sieve_flags(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("resolve", help="split n = h + d against the sieve")
    p.add_argument("n", type=int)
    _add_sieve_flags(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("bound", help="formula and constructive bounds at n")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("auto", "conference"),
                   default="auto")
    p.add_argument("--out", type=str, default=None, help="witness file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_sieve_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("search", help="randomized border search on one core")
    p.add_argument("--recipe", type=str, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--kind", choices=(HADAMARD, CONFERENCE), default=HADAMARD)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="witness file path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="recheck a witness file")
    p.add_argument("witness", type=str)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table1", help="re-run the exceptional bordering cases")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slow", action="store_true",
                   help="include rows with core order above 6000")
    p.add_argument("--rows", type=int, nargs="+", default=None,
                   help="restrict to rows with these h values")
    _add_sieve_flags(p)
    p.set_defaults(func=cmd_table1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ExactnessError) as exc:
        _log(f"error: {exc}")
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError is one
        _log(f"error: out of memory ({exc})" if str(exc) else
             "error: out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
