"""The benchmark's own tests: python3 -m pytest perfbench

Smoke runs use --scale tiny, so the whole file takes under a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from itertools import product

import pytest

from oracle import QuotientOracle, WeylOracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".builds", ".elements", ".stdout_bytes")


def run_bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload,trace", list(product(WORKLOADS, (0, 1))))
def test_smoke_prints_every_metric(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result_of(run_bench(workload, 1, seed=5))["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second[k]["value"] for k in counts}
    assert any(counts.values())


def test_library_trace_covers_every_layer():
    metrics = result_of(run_bench("library", 1))["metrics"]
    for layer in ("roots", "weyl", "quotient", "linkpatterns", "nilpotent"):
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("library", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_oracle_matches_bruhat_order(family, rank):
    from weylorbits.roots import build_root_system
    from weylorbits.weyl import weyl_group

    group = weyl_group(build_root_system(family, rank))
    oracle = WeylOracle(group.system.cartan)
    vectors = [oracle.element(w.reduced_word()) for w in group.elements]
    assert len(set(vectors)) == len(vectors)
    for (u, vu), (w, vw) in product(zip(group.elements, vectors), repeat=2):
        assert oracle.bruhat_leq(vu, vw) == group.bruhat_leq(u, w)


def test_oracle_matches_quotient_order():
    from weylorbits.quotient import IJKDatum, leq_O
    from weylorbits.roots import build_root_system

    datum = IJKDatum(build_root_system("B", 3), [1], [3])
    oracle = QuotientOracle(datum.system.cartan, datum.I, datum.J, datum.K, datum.star_map)
    nodes = datum.quotient_elements()
    words = [n.rep.reduced_word() for n in nodes]
    assert all(oracle.canonical(w) == oracle.weyl.element(w) for w in words)
    for (a, wa), (b, wb) in product(zip(nodes, words), repeat=2):
        assert oracle.leq(wa, wb) == leq_O(a, b)
