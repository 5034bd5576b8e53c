"""Tests of the benchmark itself: output contract and correctness gate.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


# Trace 0 on a held-out seed (checked against the naive kernel at run
# time); trace 1 on a seed with stored references.
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,seed,section", [(0, 1000, "end_to_end"), (1, 2, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, seed, section):
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name
    assert "failed_frac" in proc.stdout


def test_traced_layers_and_residual_add_up_to_the_traced_wall():
    proc = bench(
        "--workload", "parsec-closed-loop", "--seed", "2", "--seconds", "0.5",
        "--trace", "1", "--size", "tiny",
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    layer_self = sum(
        v["value"] for k, v in metrics.items()
        if k.endswith(".self_s")
    )
    total = layer_self - metrics["trace.worker_s"]["value"] + metrics["trace.residual_s"]["value"]
    assert total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-6)
    assert metrics["system.core.calls"]["value"] > 0
    assert 0 < metrics["system.core.idle_frac"]["value"] < 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_the_gate(workload, tmp_path):
    job = workloads.WORKLOADS[workload](2, "tiny", tmp_path)
    stored = refs.Refs.load()
    assert stored.lookup(job) is not None, "tiny references missing for seed 2"
    perturbed = refs.Refs(copy.deepcopy(stored.doc))
    entry = perturbed.doc[f"{workload}/tiny"][refs.seed_slot(job)]
    flipped = "0" if entry["cells"][0] != "0" else "1"
    entry["cells"] = flipped + entry["cells"][1:]

    job.setup()
    job.reset()
    outputs = job.run()
    job.teardown()
    honest = run.Checker(job, stored)
    honest.check(outputs)
    assert honest.failed == 0
    gate = run.Checker(job, perturbed)
    gate.check(outputs)
    assert gate.failed == 1 and gate.failed / gate.attempted > 0


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "fig12-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
