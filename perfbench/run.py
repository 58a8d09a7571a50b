"""sixj benchmark: cold passes over fixed workloads, checked, one JSON line.

usage (from the root of a checkout):
    python3 perfbench/run.py --workload grid_small --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Every pass runs in a fresh interpreter (perfbench/worker.py), one at a
time, so no cache, table or import state carries from one pass into the
next: a user who tabulates a grid or runs a scan pays those costs on every
run.  A run keeps starting passes while the next one fits in --seconds
(at least MIN_PASSES), checks every pass's outputs after the clock stops,
and reports medians.  --trace 0 prints the end-to-end metrics, --trace 1
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import checks, inputs  # noqa: E402

WORKLOADS = ("grid_small", "large_k", "scan_cli", "asym_grid")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_ONLY_SPAWNS = 12
WORKER_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no pass starts that would end later, whatever the minimum
LAYER_MS = {
    "triangles.self_ms": "triangles", "halfint.parse_ms": "halfint.parse",
    "symbols.self_ms": "symbols", "exact.canon_ms": "exact.canon",
    "exact.to_scaled_ms": "exact.to_scaled", "geometry.self_ms": "geometry",
    "asymptotics.self_ms": "asymptotics", "scan.self_ms": "scan.self",
    "scan.write_ms": "scan.write", "scan.read_ms": "scan.read", "scan.fit_ms": "scan.fit",
    "cli.self_ms": "cli",
}
LAYER_CALLS = {
    "triangles.calls": "triangles", "halfint.calls": "halfint.parse",
    "symbols.calls": "symbols", "geometry.calls": "geometry",
    "asymptotics.calls": "asymptotics",
}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, a worker crashed)."""


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _spawn(root: str, workload: str, mode: str, job_text: str) -> tuple[dict, int]:
    """Run one worker; returns its result and the spawn timestamp."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), workload, mode]
    spawned = _clock_ns()
    try:
        proc = subprocess.run(cmd, input=job_text, capture_output=True, text=True,
                              cwd=root, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {workload} {mode} ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {workload} {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout), spawned


def _setup_s(result: dict, spawned: int) -> float:
    return (result["ready_ns"] - spawned) / 1e9


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = inputs.build(workload, seed)
    workdir = os.path.join(HERE, "_work", workload)
    os.makedirs(workdir, exist_ok=True)
    job_text = json.dumps({"items": items, "workdir": workdir})
    checker = checks.RunChecker(workload, items)

    setups = []
    for _ in range(0 if trace else SETUP_ONLY_SPAWNS):
        result, spawned = _spawn(root, workload, "setup", "")
        setups.append(_setup_s(result, spawned))

    plain, traced, failures = [], [], []
    attempted = failed = 0
    started = time.monotonic()
    while True:
        n = len(plain) + len(traced)
        want_traced = trace and n % 2 == 1
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        result, spawned = _spawn(root, workload, "1" if want_traced else "0", job_text)
        setups.append(_setup_s(result, spawned))
        (traced if want_traced else plain).append(result)
        attempted += result["attempted"]
        failed += len(result["errors"])
        for err in result["errors"][:5]:
            print(f"  failed operation: {err}", file=sys.stderr)
        failures += checker.add_pass(result.pop("outputs"))
        n += 1
        print(f"  {workload} pass {n}{' traced' if want_traced else ''}: "
              f"setup {setups[-1]:.4f} s, pass {result['pass_s']:.4f} s, "
              f"rss {result['peak_rss_mb']:.1f} MB", file=sys.stderr)
        elapsed = time.monotonic() - started
        typical = statistics.median(r["pass_s"] for r in plain + traced)
        enough = (len(plain) >= MIN_TRACED_PAIRS and len(traced) >= MIN_TRACED_PAIRS
                  if trace else n >= MIN_PASSES)
        over_budget = elapsed + typical > RUN_BUDGET_S and (traced or not trace)
        if (enough and elapsed + typical > seconds) or over_budget:
            break
    failures += checker.check_first()
    for msg in failures:
        print(f"  check failed: {msg}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(workload, items, plain, traced)
        _write_trace(workload, seed, metrics, traced)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(r["pass_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(workload: str, items: list, plain: list, traced: list) -> dict:
    """Per-layer medians over the traced passes."""
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def count(fn):  # counts repeat exactly from pass to pass
        return statistics.median_low(fn(r) for r in traced)

    out = {}
    for metric, group in LAYER_MS.items():
        out[metric] = (med(lambda r: r["trace"]["self_ns"][group] / 1e6), "ms")
    for metric, group in LAYER_CALLS.items():
        out[metric] = (count(lambda r: r["trace"]["calls"][group]), "count")
    terms = inputs.pass_sum_terms(workload, items)
    out["symbols.sum_terms"] = (terms, "count")
    out["symbols.ns_per_term"] = (out["symbols.self_ms"][0] * 1e6 / terms if terms else 0.0, "ns")
    out["exact.coeff_bits"] = (count(lambda r: r["trace"]["coeff_bits"]), "count")
    out["outside.self_ms"] = (med(lambda r: r["trace"]["outside_ns"] / 1e6), "ms")
    traced_pass = med(lambda r: r["pass_s"])
    out["trace.pass_s"] = (traced_pass, "s")
    out["trace.overhead_s"] = (traced_pass - statistics.median(r["pass_s"] for r in plain), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def _write_trace(workload: str, seed: int, metrics: dict, traced: list) -> None:
    """Keep the traced run's per-layer figures and call edges for reading later."""
    path = os.path.join(HERE, "_work", f"trace-{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "passes": [{"pass_s": r["pass_s"], **r["trace"]} for r in traced]},
                  fh, indent=1)


def _check_checkout(root: str) -> None:
    package = os.path.join(root, "src", "sixj")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError(f"no sixj package under {os.path.join(root, 'src')}; "
                         "run from the root of a checkout")
    # byte-compile once so every pass imports the same cached bytecode
    if not compileall.compile_dir(package, quiet=1):
        raise BenchError("sixj sources do not compile")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    sys.set_int_max_str_digits(0)
    try:
        _check_checkout(root)
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
            shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                              for k, m in result["metrics"].items())
            print(f"{workload}: {shown}; attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            print(json.dumps(result))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
