"""Benchmark of the weylorbits toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload library --seed 1 --seconds 35 --trace 0

The package is imported from this checkout's src/ (it need not be
installed). The workloads, and why each was chosen, are listed in
BENCHMARK.json; their requests are in workloads.py (in-process) and
clicold.py (one CLI command per child process).

A run repeats one job until the jobs have taken --seconds. A job starts a
fresh interpreter, sets the workload up and runs a request list fixed by the
seed (cli-cold: one pass over its commands, each in a fresh interpreter).
So every job does the same work from cold caches, and no cache carries over
between jobs or runs. Outputs are checked after each job's requests.

With --trace 0 the last stdout line holds the end-to-end metrics:
  setup_s      time from interpreter start to the first request, median
               over jobs (cli-cold: interpreter start plus
               `import weylorbits`, median of five);
  solve_s      time to solution of a job's batch requests (the poset
               requests; orbit and pattern tables; cascades and the census;
               all CLI commands), median over jobs;
  ops_per_s    small requests (compare requests, order queries,
               classification requests, CLI commands) completed per second
               of the time spent in them;
  op_p50_ms, op_p99_ms
               latency of those small requests over all jobs; for cli-cold
               p99 is interpolated near the slowest command, since a run
               has only a few dozen;
  peak_rss_mb  peak resident memory of the largest child process.
Requests that raise or fail their check count in `failed`; the error rate
is failed / attempted.

With --trace 1 one job runs untraced and then one traced (see tracer.py),
and the last line holds the per-layer metrics: counts and self times over
the traced job's set-up and requests, `<layer>.self_s` summing a layer's
spans, trace.outside_s for the traced job's time outside every span
(benchmark code; for cli-cold also interpreter start-up), and
trace.overhead_ratio, traced job time over untraced. A line starting with
`info ` before the result records the seed, the commit, the Python version,
nproc, input sizes and where weylorbits was imported from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import clicold  # noqa: E402
from tracer import derive, merge_raw  # noqa: E402

WORKLOADS = ("library", "cli-cold")
# interpreter start plus `import weylorbits`, measured this often per cli-cold run
CLI_SETUP_SAMPLES = 5


def _rates(latencies_ms: List[float]) -> Dict[str, float]:
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return {
        "ops_per_s": 1e3 * len(latencies_ms) / sum(latencies_ms),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p99_ms": cuts[98],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _job(env, name: str, seed: int, trace: int, scale: str) -> Dict:
    """One worker.py job; returns its JSON with setup_s added."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), str(trace), scale],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} job exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def run_inprocess(name: str, seed: int, seconds: float, trace: bool, scale: str, env) -> Dict:
    if trace:
        plain = _job(env, name, seed, 0, scale)
        traced = _job(env, name, seed, 1, scale)
        metrics = derive(traced["trace"])
        metrics["trace.overhead_ratio"] = traced["work_s"] / plain["work_s"]
        metrics["trace.outside_s"] = traced["work_s"] - traced["trace"]["inside_s"]
        metrics["cli.import_s"] = metrics["cli.stdout_bytes"] = 0
        jobs = [plain, traced]
    else:
        jobs = []
        while not jobs or sum(j["work_s"] for j in jobs) < seconds:
            jobs.append(_job(env, name, seed, 0, scale))
        metrics = {
            "setup_s": statistics.median(j["setup_s"] for j in jobs),
            "solve_s": statistics.median(j["batch_s"] for j in jobs),
            **_rates([x for j in jobs for x in j["latencies_ms"]]),
            "peak_rss_mb": _peak_rss_mb(),
        }
    return {
        "metrics": metrics,
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "info": {
            "sizes": jobs[0]["sizes"],
            "weylorbits_file": jobs[0]["module_file"],
            "jobs": len(jobs),
            "latency_samples": sum(len(j["latencies_ms"]) for j in jobs),
        },
    }


def run_cli(seed: int, seconds: float, trace: bool, scale: str, env) -> Dict:
    cmds = clicold.commands(scale, seed)
    rng = random.Random(seed)
    if trace:
        plain = clicold.run_pass(cmds, random.Random(seed), env, traced=False)
        traced = clicold.run_pass(cmds, random.Random(seed), env, traced=True)
        # a command that crashed prints no record; check() counts it as failed
        records = [r for r in map(clicold.trace_record, traced) if r is not None]
        metrics = derive(merge_raw([r["trace"] for r in records]))
        traced_s = sum(o.wall_s for o in traced)
        metrics["trace.overhead_ratio"] = traced_s / sum(o.wall_s for o in plain)
        metrics["trace.outside_s"] = traced_s - sum(r["trace"]["inside_s"] for r in records)
        metrics["cli.import_s"] = statistics.median(r["import_s"] for r in records)
        metrics["cli.stdout_bytes"] = sum(len(o.stdout.encode()) for o in traced)
        outcomes = plain + traced
        module_file = None
    else:
        setup = []
        for _ in range(CLI_SETUP_SAMPLES):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-c", "import weylorbits; print(weylorbits.__file__)"],
                env=env, cwd=ROOT, check=True, capture_output=True, text=True,
            )
            setup.append(time.monotonic() - start)
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(clicold.run_pass(cmds, rng, env, traced=False))
        outcomes = [o for p in passes for o in p]
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
            **_rates([o.wall_s * 1e3 for o in outcomes]),
            "peak_rss_mb": _peak_rss_mb(),
        }
        module_file = proc.stdout.strip()
    errors = clicold.check(outcomes)
    for line in errors[:5]:
        print(line, file=sys.stderr)
    return {
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": len(errors),
        "info": {
            "commands": [" ".join(c.args) for c in cmds],
            "weylorbits_file": module_file,
            "latency_samples": len(outcomes),
        },
    }


def _commit() -> Dict[str, str]:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    out = {"src_sha256": digest.hexdigest()}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            out["commit"] = proc.stdout.strip()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylorbits", "__init__.py")):
        print(f"error: no weylorbits package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = clicold.child_env()
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        **_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.workload == "cli-cold":
        result = run_cli(args.seed, args.seconds, bool(args.trace), args.scale, env)
    else:
        result = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, env)
    info.update(result["info"])
    info["error_rate"] = result["failed"] / result["attempted"]
    print("info " + json.dumps(info, sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": min(result["failed"], result["attempted"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
