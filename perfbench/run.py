"""End-to-end benchmark of the Power Punch simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload parsec-closed-loop --seed 1 \
        --seconds 50 --trace 0

One process runs one workload: set-up, then repetitions of the
workload's fixed work until ``--seconds`` would be exceeded (at least
one), then a check of every output against its reference.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(measured with nothing installed); ``--trace 1`` runs one untraced and
one traced repetition and reports the per-layer metrics instead.  The
lines before the JSON object are a readable report, including the
workload-specific rates (``sim_cycles_per_s``, ``cells_per_s``, ...)
and ``failed_frac``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working files inside the checkout (ignored by git).
BUILD = ROOT / ".bench_build" / "perfbench"
#: Fresh-interpreter imports timed per run; their median is the import
#: part of ``setup_s``.
IMPORT_SAMPLES = 3
#: Workload set-ups timed per run; their median is the rest of ``setup_s``.
SETUP_SAMPLES = 3
#: Repetitions per run, at least: a single long repetition would leave
#: ``wall_s`` to whichever slow or fast phase of the host it fell into.
MIN_REPETITIONS = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro.campaign, repro.system, repro.core.punch_encoding, repro.power.area; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few small operations per workload, for the benchmark's tests",
    )
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of importing the simulator in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            check=True,
            stdout=subprocess.DEVNULL,
            cwd=str(ROOT),
        )
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checker:
    """Counts operations and mismatches against the references."""

    def __init__(self, workload, refs) -> None:
        self.workload = workload
        self.expected = refs.lookup(workload)
        self.stored = self.expected is not None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, outputs: List[object]) -> None:
        from refs import naive_references
        from workloads import fingerprint, workload_workers

        workload = self.workload
        if self.expected is None:
            self.expected = naive_references(
                workload, workload_workers(), BUILD / "naive-refs"
            )
        bad = set(workload.paper_failures(outputs))
        for index, (key, out, want) in enumerate(
            zip(workload.keys, outputs, self.expected)
        ):
            self.attempted += 1
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            elif want is None:
                reason = "no reference"
            elif fingerprint(out) != want:
                reason = f"fingerprint {fingerprint(out)} != reference {want}"
            elif index in bad:
                reason = "contradicts the paper's Table 1 / Fig. 5"
            else:
                continue
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{key}: {reason}")


def repetition(workload) -> Tuple[List[object], float]:
    gc.collect()
    start = perf_counter()
    outputs = workload.run()
    return outputs, perf_counter() - start


def measure(workload, checker: Checker, seconds: float):
    """Set up (several times), then repeat the fixed work while another
    repetition fits in ``seconds`` (at least :data:`MIN_REPETITIONS`
    times); check every repetition's outputs afterwards."""
    setups: List[float] = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    walls: List[float] = []
    runs: List[List[object]] = []
    try:
        while True:
            workload.reset()
            outputs, wall = repetition(workload)
            walls.append(wall)
            runs.append(outputs)
            elapsed = sum(setups) + sum(walls)
            if len(walls) >= MIN_REPETITIONS and elapsed + statistics.median(walls) > seconds:
                break
    finally:
        workload.teardown()
    for outputs in runs:
        checker.check(outputs)
    return setups, walls, runs[-1]


def end_to_end(workload, checker, seconds, import_s):
    setups, walls, outputs = measure(workload, checker, seconds)
    wall = statistics.median(walls)
    ops = len(workload.keys)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    report = dict(metrics)
    counts = workload.counts(outputs)
    if "sim_cycles" in counts:
        report["sim_cycles_per_s"] = (counts["sim_cycles"] / wall, "1/s")
    if "sim_instructions" in counts:
        report["sim_instructions_per_s"] = (counts["sim_instructions"] / wall, "1/s")
    if "cells" in counts:
        report["cells_per_s"] = (counts["cells"] / wall, "1/s")
    print(f"repetitions: {len(walls)}  walls_s: {' '.join(f'{w:.4f}' for w in walls)}")
    if hasattr(workload, "committed_drift"):
        drift = workload.committed_drift(outputs, ROOT)
        if drift is not None:
            print(f"results/parsec_suite.json drift (informational): {drift}")
    return metrics, report


def per_layer(workload, checker) -> Dict[str, Tuple[float, str]]:
    from layers import Tracer

    worker_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=BUILD))
    tracer = Tracer(worker_dir)
    workload.setup()
    try:
        workload.reset()
        plain, untraced = repetition(workload)
        workload.reset()
        tracer.install()
        try:
            gc.collect()
            outputs, wall, residual = tracer.root(workload.run)
        finally:
            tracer.uninstall()
        tracer.collect_workers()
    finally:
        workload.teardown()
        shutil.rmtree(worker_dir, ignore_errors=True)
    spawn_s = getattr(workload, "spawn_s", None)
    checker.check(plain)
    checker.check(outputs)

    totals = tracer.layer_totals()
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, (calls, parent_s, worker_s) in totals.items():
        metrics[f"{name}.self_s"] = (parent_s + worker_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    counts = workload.counts(outputs)
    cycles = counts.get("sim_cycles", 0)
    routers = workload.cells[0].build_config().num_nodes if cycles else 0
    core_steps = tracer.calls_of("repro.system.cpu.Core.step")
    controller_steps = tracer.calls_of("repro.powergate.controller.PowerGateController.step")
    va_calls = tracer.calls_of("repro.noc.router.Router.do_vc_allocation")
    idle = tracer.counters.get("system.core.idle", 0)
    metrics.update(
        {
            "system.core.idle_frac": (idle / core_steps if core_steps else 0.0, "ratio"),
            "noc.routers_per_cycle": (va_calls / cycles if cycles else 0.0, "1/cycle"),
            "powergate.controller.steps_per_router_cycle": (
                controller_steps / (routers * cycles) if cycles else 0.0,
                "ratio",
            ),
            "campaign.cache.hits": (tracer.counters.get("campaign.cache.hits", 0), "count"),
            "campaign.cache.misses": (
                tracer.counters.get("campaign.cache.misses", 0),
                "count",
            ),
            "campaign.spawn_s": (spawn_s or 0.0, "s"),
            "trace.wall_s": (wall, "s"),
            "trace.untraced_wall_s": (untraced, "s"),
            "trace.overhead_s": (wall - untraced, "s"),
            "trace.residual_s": (residual, "s"),
            "trace.worker_s": (sum(w for _c, _p, w in totals.values()), "s"),
        }
    )
    parent_sum = sum(p for _c, p, _w in totals.values())
    print(
        f"traced wall {wall:.4f} s = layer self {parent_sum:.4f} s "
        f"+ residual {residual:.4f} s; untraced {untraced:.4f} s; "
        f"worker-side layer time {metrics['trace.worker_s'][0]:.4f} s"
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported the simulator from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from refs import Refs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        checker = Checker(workload, Refs.load())
        print(
            f"perfbench {workload.name} seed={args.seed} size={args.size} "
            f"operations={len(workload.keys)} trace={args.trace} "
            f"reference={'stored' if checker.stored else 'naive kernel (run time)'}"
        )
        if args.trace:
            metrics = report = per_layer(workload, checker)
        else:
            metrics, report = end_to_end(workload, checker, args.seconds, import_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in report.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    failed_frac = checker.failed / checker.attempted
    print(f"  {'failed_frac':44s} {failed_frac:>14.6g} ratio "
          f"({checker.failed}/{checker.attempted})")
    for error in checker.errors:
        print(f"  mismatch: {error}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
