"""One job in a fresh interpreter: set up a workload, run its requests, check.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SCALE

A job is the same seeded request list every time, so every job of a run
does the same work and fills the package's caches the same way. TRACE 1
installs the tracer before set-up. Prints one JSON object; run.py reads it.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    name, seed, trace, scale = argv
    sys.path[:0] = [SRC, HERE]
    import weylorbits

    module_file = os.path.abspath(weylorbits.__file__)
    if not module_file.startswith(SRC + os.sep):
        raise SystemExit(f"weylorbits imported from {module_file}, not from {SRC}")
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](scale, int(seed))
    clock = time.perf_counter
    start = clock()
    sizes = workload.setup()
    ready = time.monotonic()

    results, latencies, raised = [], [], []
    batch_s = 0.0
    for req in workload.requests():
        t0 = clock()
        try:
            out = req.thunk()
        except Exception:  # a failing request is counted, the job goes on
            raised.append(f"{req.kind} {req.key}: {traceback.format_exc(limit=-1).strip()}")
            out = None
        dt = clock() - t0
        if req.kind in workload.latency_kinds:
            latencies.append(dt * 1e3)
        if req.batch:
            batch_s += dt
        if out is not None:
            results.append((req.kind, req.key, out))
    work_s = clock() - start
    raw = tracer.raw() if tracer else None

    errors = raised + workload.check(results)
    for line in errors[:5]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "work_s": work_s,
        "batch_s": batch_s,
        "attempted": len(results) + len(raised),
        "failed": len(errors),
        "latencies_ms": latencies,
        "sizes": sizes,
        "module_file": module_file,
        "trace": raw,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
