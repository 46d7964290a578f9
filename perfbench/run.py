"""maxdet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a maxdet checkout; the package is imported from its
``src/``.  Each pass of the workload runs in a fresh Python process
(``passes.py``).  The first pass re-verifies every best witness from
scratch and is not timed; timed passes then repeat until ``--seconds``
have elapsed (at least three, or two traced and two untraced with
``--trace 1``).

With ``--trace 0`` the end-to-end metrics are the medians over passes.
With ``--trace 1`` traced and untraced passes alternate; the per-layer
metrics are medians over the traced passes, and ``trace.overhead_frac``
compares their median wall time with that of the untraced passes.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it name every metric with
its unit, plus ``failed_frac`` and the provenance of the run.  A JSON
record of every pass goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170  # every run ends within this, whatever a pass does
# counts that must repeat exactly between traced passes of one run
EXACT_COUNTERS = ("border.trials", "exact.det_calls",
                  "constructions.build_recipe_calls", "border.products_gflop")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit from BENCHMARK.json, per_layer when tracing."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def provenance() -> dict:
    """Machine, interpreter, BLAS and source facts recorded with each run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "machine_note": "2-core, 7 GB sandbox",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "MAXDET_THREADS": "unset",
        "python_optimize": sys.flags.optimize,
        "git_commit": git_commit(),
        "src_lines": sum(len(Path(p).read_text().splitlines())
                         for p in glob.glob(str(ROOT / "src/maxdet/*.py"))),
    }
    try:
        with open("/proc/meminfo") as fh:
            info["mem_total_mb"] = int(fh.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        pass
    return info


def blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() or "unknown"


def run_pass(workload: str, seed: int, trace: int, gate: int, index: int,
             timeout: float) -> dict:
    argv = [sys.executable] + (["-" + "O" * sys.flags.optimize]
                               if sys.flags.optimize else [])
    argv += [str(HERE / "passes.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--gate", str(gate)]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{workload}-seed{seed}-pass{index}.jsonl")]
    env = {k: v for k, v in os.environ.items() if k != "MAXDET_THREADS"}
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"errors": [f"pass {index} timed out after {timeout:.0f} s"],
                "ops": 1, "traced": trace}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"errors": [f"pass {index} exited {proc.returncode}: {tail}"],
                "ops": 1, "traced": trace}
    out["traced"] = trace
    return out


def run_passes(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """The gate pass, then timed passes until the time is up.

    The gate pass re-verifies every witness and also warms the machine
    (page cache, CPU clocks); its timings are kept out of the metrics.
    With tracing, timed passes alternate untraced and traced.
    """
    limit = time.monotonic() + RUN_LIMIT_S
    passes = [run_pass(workload, seed, 0, 1, 0, limit - time.monotonic())]
    deadline = time.monotonic() + seconds
    minimum = 1 + (4 if trace else 3)
    while "wall_s" in passes[-1] and (len(passes) < minimum
                                      or time.monotonic() < deadline):
        traced = trace if len(passes) % 2 == 0 else 0
        passes.append(run_pass(workload, seed, traced, 0, len(passes),
                               limit - time.monotonic()))
    return passes


def summarize(passes: list[dict], trace: int, units: dict) -> tuple[dict, list[str]]:
    """Metrics (name -> (value, unit)) and the list of errors found."""
    errors = [e for p in passes for e in p.get("errors", [])]
    if any("wall_s" not in p or not p["trials"] for p in passes):
        return {}, errors
    if len({json.dumps(p["commands"]) for p in passes}) != 1:
        errors.append("a command's stdout or exit code differed between passes")
    plain = [p for p in passes[1:] if not p["traced"]]
    traced = [p for p in passes[1:] if p["traced"]]
    med = statistics.median
    if trace:
        for name in EXACT_COUNTERS:
            if len({p["layers"][name] for p in traced}) != 1:
                errors.append(f"{name} differs between traced passes")
        metrics = {name: med(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = (med(p["wall_s"] for p in traced)
                                          / med(p["wall_s"] for p in plain) - 1)
    else:
        metrics = {
            "setup_s": med(p["setup_s"] for p in plain),
            # per search call, the median over passes of its trial time
            "trials_per_s": plain[0]["trials"] / sum(
                map(med, zip(*(p["search_trial_s"] for p in plain)))),
            "wall_s": med(p["wall_s"] for p in plain),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
            "bound_log_deficit": med(p["bound_log_deficit"] for p in plain),
        }
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                      f"match BENCHMARK.json")
        return {}, errors
    return {k: (v, units[k]) for k, v in metrics.items()}, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or deep_corner")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "maxdet" / "__init__.py").is_file():
        print(f"no maxdet package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
    metrics, errors = summarize(passes, args.trace, declared_units(args.trace))
    attempted = max(1, sum(p.get("ops", 0) for p in passes))
    # without metrics nothing was measured, so every operation counts as failed
    failed = min(attempted, len(errors)) if metrics else attempted
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": provenance(),
              "passes": passes, "errors": errors}
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    for c in passes[0].get("commands", []):
        print(f"# stdout sha256 {c['sha256']} exit {c['rc']}: "
              f"maxdet {' '.join(c['argv'])}")
    for p in passes:
        if p.get("selftest"):
            print(f"# selftest: exact.det calls inside trials vs 2d(d-1)+1 "
                  f"plus the debug midpoint: {p['selftest']}")
    for e in errors:
        print(f"# error: {e}")
    print(f"# passes: {len(passes)}")
    print(f"failed_frac = {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not errors and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
