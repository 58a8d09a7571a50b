"""One pass of one workload in a fresh interpreter (spawned by run.py).

usage: python -I perfbench/worker.py WORKLOAD TRACE|setup
Run from the checkout root.  The job (inputs and work directory) arrives as
JSON on stdin; one JSON result goes to stdout.  The set-up clock stops as
soon as the package (and its CLI module, for scan_cli) is imported, before
anything of the benchmark's own is loaded.
"""

import os
import sys
import time


def main() -> int:
    workload, mode = sys.argv[1], sys.argv[2]
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sixj

    if workload == "scan_cli":
        import sixj.cli  # noqa: F401
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    import json
    import resource

    if not os.path.abspath(sixj.__file__).startswith(src + os.sep):
        print(f"sixj imported from {sixj.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        json.dump({"ready_ns": ready_ns}, sys.stdout)
        return 0

    sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.set_int_max_str_digits(0)
    from perfbench import passes
    from perfbench import tracer as tracing

    job = json.load(sys.stdin)
    items = [tuple(tuple(x) if isinstance(x, list) else x for x in item) for item in job["items"]]
    prepared = passes.prepare(workload, items, job["workdir"])
    tracer = None
    if mode == "1":
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[passes])
    start = time.perf_counter_ns()
    results, errors = passes.run(workload, prepared)
    pass_ns = time.perf_counter_ns() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "ready_ns": ready_ns,
        "pass_s": pass_ns / 1e9,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": passes.operations(workload, prepared),
        "errors": errors,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary(pass_ns)
    out["outputs"] = passes.serialize(workload, prepared, results)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
