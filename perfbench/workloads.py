"""The benchmark's four workloads, driven through the public entry points.

Each workload turns ``--seed`` into its inputs (and nothing else), runs
a fixed amount of work per repetition through ``run_cell``,
``execute_cells`` or ``PunchEncodingAnalysis``, and returns one output
per *operation* — a cell, or an analyzed link — in a stable order so
``refs.py`` can check it.  Why each workload is in the benchmark is
recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.campaign import CellCache, CellSpec, engine, runner
from repro.core.punch_encoding import LinkEncoding, PunchEncodingAnalysis
from repro.experiments.common import CANONICAL_INSTRUCTIONS, SCHEME_ORDER, RunRecord
from repro.noc.topology import Direction, MeshTopology
from repro.power import area
from repro.system.parsec import PARSEC_BENCHMARKS

SIZES = ("full", "tiny")

FIG12_SCHEMES = ("No-PG", "ConvOpt-PG", "PowerPunch-PG")
#: Fig. 12's uniform-random load grid (flits/node/cycle).
FIG12_LOADS = (0.005, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20)
LINK_DIRECTIONS = (Direction.XPOS, Direction.XNEG, Direction.YPOS, Direction.YNEG)


def workload_workers() -> int:
    """Pool size: one worker per CPU this process may use, at most 4."""
    return min(4, len(os.sched_getaffinity(0)))


def digest(doc: object) -> str:
    """Short content hash of a JSON-able document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def fingerprint(output: object) -> str:
    """Fingerprint of one operation's output (a payload or analysis)."""
    if isinstance(output, LinkEncoding):
        return digest(
            {
                "sources": list(output.sources),
                "targets": {
                    str(s): sorted(t) for s, t in output.targets_by_source.items()
                },
                "sets": [sorted(s) for s in output.distinct_sets],
            }
        )
    if dataclasses.is_dataclass(output):
        return digest(dataclasses.asdict(output))
    return digest(output)


class Workload:
    """One named workload: inputs from a seed, work per repetition."""

    name = ""
    #: Whether the inputs depend on ``--seed`` beyond their order;
    #: seed-independent workloads share one stored reference.
    seeded = True

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.keys: List[str] = []

    def setup(self) -> None:
        """Set-up before the timed work, timed into ``setup_s``; may run
        several times, the last one counts."""

    def reset(self) -> None:
        """Restore, untimed, the state :meth:`setup` left, before each
        repetition."""

    def run(self) -> List[object]:
        """The timed work: one output (or exception) per operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Remove what :meth:`setup` and :meth:`reset` created."""

    def naive_spec(self, index: int) -> Optional[CellSpec]:
        """The naive-kernel twin of operation ``index``, if it is a cell."""
        return None

    def counts(self, outputs: List[object]) -> Dict[str, float]:
        """Simulated totals behind the workload-specific rates."""
        return {}

    def paper_failures(self, outputs: List[object]) -> List[int]:
        """Operations contradicting a published figure."""
        return []


class _CellWorkload(Workload):
    """A list of campaign cells, checked against the naive kernel."""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.cells = self.make_cells()
        self.keys = [spec.canonical_json() for spec in self.cells]

    def make_cells(self) -> List[CellSpec]:
        raise NotImplementedError

    def naive_spec(self, index: int) -> CellSpec:
        spec = self.cells[index]
        config = dataclasses.replace(spec.build_config(), kernel="naive")
        return dataclasses.replace(spec, config=config.to_items())

    def run(self) -> List[object]:
        outputs: List[object] = []
        for spec in self.cells:
            try:
                outputs.append(runner.run_cell(spec))
            except Exception as exc:  # a failed operation, not a harness error
                outputs.append(exc)
        return outputs


class ParsecClosedLoop(_CellWorkload):
    """Every PARSEC profile x the paper's four schemes, closed loop."""

    name = "parsec-closed-loop"

    def make_cells(self) -> List[CellSpec]:
        if self.size == "full":
            benchmarks, quota = PARSEC_BENCHMARKS, CANONICAL_INSTRUCTIONS
        else:
            benchmarks, quota = ["blackscholes", "canneal"], 150
        self.quota = quota
        return [
            CellSpec.parsec(benchmark, scheme, instructions=quota, seed=self.seed)
            for benchmark in benchmarks
            for scheme in SCHEME_ORDER
        ]

    def counts(self, outputs: List[object]) -> Dict[str, float]:
        records = [o for o in outputs if not isinstance(o, Exception)]
        cores = self.cells[0].build_config().num_nodes
        return {
            "sim_cycles": sum(r.cycles for r in records),
            "sim_instructions": cores * self.quota * len(records),
        }

    def committed_drift(self, outputs: List[object], root: Path) -> Optional[str]:
        """Compare with ``results/parsec_suite.json`` (seed 1, full size)."""
        path = root / "results" / "parsec_suite.json"
        if self.seed != 1 or self.size != "full" or not path.exists():
            return None
        committed = {(r["workload"], r["scheme"]): r for r in json.loads(path.read_text())}
        differ = [
            f"{spec.workload}/{spec.scheme}"
            for spec, out in zip(self.cells, outputs)
            if isinstance(out, Exception)
            or committed.get((spec.workload, spec.scheme)) != dataclasses.asdict(out)
        ]
        return f"{len(differ)}/{len(self.cells)} cells differ" + (
            f": {', '.join(differ)}" if differ else ""
        )


class Fig12Sweep(_CellWorkload):
    """Fig. 12's uniform-random load sweep as live synthetic cells."""

    name = "fig12-sweep"

    def make_cells(self) -> List[CellSpec]:
        if self.size == "full":
            loads, warmup, measurement = FIG12_LOADS, 200, 400
        else:
            loads, warmup, measurement = (0.01, 0.10), 20, 60
        # Scheme-major order: each scheme's cells share one shape.
        return [
            CellSpec.synthetic(
                "uniform_random",
                load,
                scheme,
                warmup=warmup,
                measurement=measurement,
                seed=self.seed,
                drain=False,
            )
            for scheme in FIG12_SCHEMES
            for load in loads
        ]

    def counts(self, outputs: List[object]) -> Dict[str, float]:
        records = [o for o in outputs if not isinstance(o, Exception)]
        return {"sim_cycles": sum(r.execution_time for r in records)}


class CampaignResume(_CellWorkload):
    """A resumed campaign: half the batch cached in set-up, then resumed."""

    name = "campaign-resume"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.workers = workload_workers()
        # Half of every (load, scheme) group is cached, so the seed
        # changes which replicas run but not how much work they are.
        groups: Dict[tuple, List[int]] = {}
        for index, spec in enumerate(self.cells):
            groups.setdefault((spec.injection_rate, spec.scheme), []).append(index)
        rng = random.Random(self.seed)
        self.cached = sorted(
            index
            for members in groups.values()
            for index in rng.sample(members, len(members) // 2)
        )
        self.template = workdir / "cached-half"
        self.cache: Optional[CellCache] = None
        self.spawn_s: Optional[float] = None

    def make_cells(self) -> List[CellSpec]:
        if self.size == "full":
            loads, replicas, cycles = (0.01, 0.03, 0.06, 0.10), 10, (20, 60)
        else:
            loads, replicas, cycles = (0.02, 0.08), 2, (10, 20)
        cells = [
            CellSpec.synthetic(
                "uniform_random",
                load,
                scheme,
                warmup=cycles[0],
                measurement=cycles[1],
                seed=self.seed * 1000 + replica,
                drain=False,
            )
            for replica in range(replicas)
            for load in loads
            for scheme in FIG12_SCHEMES
        ]
        # Campaigns mix analyses with simulations (``repro.cli run-all``
        # does); this Table 1 cell, never cached, keeps the punch-encoding
        # and area layers measured on a gated workload.
        cells.append(CellSpec.analysis("table1", width=4, hops=3, router=5))
        return cells

    def setup(self) -> None:
        """Cold pass: start a pool and cache half the batch."""
        shutil.rmtree(self.template, ignore_errors=True)
        engine.execute_cells(
            [self.cells[i] for i in self.cached],
            workers=self.workers,
            cache=CellCache(self.template),
            failure_mode="continue",
        )

    def reset(self) -> None:
        """A fresh copy of the half-cached state for the resumed pass."""
        root = self.workdir / "resume"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(self.template, root)
        self.cache = CellCache(root)

    def run(self) -> List[object]:
        failures: Dict[int, BaseException] = {}
        first: List[float] = []

        def on_result(index, spec, payload, was_hit) -> None:
            if not was_hit and not first:
                first.append(perf_counter())

        def on_failure(index, spec, exc, classification) -> None:
            failures[index] = exc

        start = perf_counter()
        payloads, _stats = engine.execute_cells(
            self.cells,
            workers=self.workers,
            cache=self.cache,
            resume=True,
            failure_mode="continue",
            on_result=on_result,
            on_failure=on_failure,
        )
        self.spawn_s = first[0] - start if first else None
        return [
            failures.get(i, RuntimeError("no payload")) if p is None else p
            for i, p in enumerate(payloads)
        ]

    def counts(self, outputs: List[object]) -> Dict[str, float]:
        cached = set(self.cached)
        return {
            "cells": len(outputs),
            "sim_cycles": sum(
                out.execution_time
                for index, out in enumerate(outputs)
                if index not in cached and isinstance(out, RunRecord)
            ),
        }

    def teardown(self) -> None:
        for path in (self.template, self.workdir / "resume"):
            shutil.rmtree(path, ignore_errors=True)
        self.cache = None


class PunchEncoding(Workload):
    """Chip-wide punch-signal encoding analysis plus the area estimate."""

    name = "punch-encoding"
    seeded = False
    #: Paper Table 1 / Fig. 5: 22 distinct target sets on R27's X+ link
    #: of the 8x8 mesh, 5-bit X and 2-bit Y punch signals at 3 hops.
    PAPER = {"r27_xpos_sets": 22, "x_bits": 5, "y_bits": 2}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.meshes = [(8, 8, 3), (5, 5, 4)] if size == "full" else [(4, 4, 3), (4, 4, 4)]
        links = []
        for width, height, hops in self.meshes:
            topology = MeshTopology(width, height)
            for router in range(topology.num_nodes):
                for direction in LINK_DIRECTIONS:
                    if topology.neighbor(router, direction) is not None:
                        links.append((width, height, hops, router, direction))
        # The seed only reorders the links; the set analyzed is fixed.
        random.Random(seed).shuffle(links)
        self.links = links
        self.keys = [f"{w}x{h}@{k}:R{r}:{d.name}" for w, h, k, r, d in links]
        self.keys.append("area:8x8@3")

    def run(self) -> List[object]:
        analyses = {
            (w, h, k): PunchEncodingAnalysis(MeshTopology(w, h), hops=k)
            for w, h, k in self.meshes
        }
        outputs: List[object] = []
        for width, height, hops, router, direction in self.links:
            try:
                outputs.append(
                    analyses[(width, height, hops)].analyze_link(router, direction)
                )
            except Exception as exc:
                outputs.append(exc)
        try:
            estimate = area.estimate_punch_area(MeshTopology(8, 8), hops=3)
            outputs.append(
                {
                    "wiring": estimate.wiring_overhead,
                    "logic": estimate.logic_overhead,
                    "widths": estimate.widths,
                }
            )
        except Exception as exc:
            outputs.append(exc)
        return outputs

    def paper_failures(self, outputs: List[object]) -> List[int]:
        if (8, 8, 3) not in self.meshes:
            return []
        bad = []
        widths = {"x_bits": 0, "y_bits": 0}
        for index, (w, h, hops, router, direction) in enumerate(self.links):
            out = outputs[index]
            if (w, h, hops) != (8, 8, 3) or isinstance(out, Exception):
                continue
            axis = "x_bits" if direction in (Direction.XPOS, Direction.XNEG) else "y_bits"
            widths[axis] = max(widths[axis], out.width_bits)
            if (router, direction) == (27, Direction.XPOS):
                if len(out.distinct_sets) != self.PAPER["r27_xpos_sets"]:
                    bad.append(index)
        estimate = outputs[-1]
        expected = {"x_bits": self.PAPER["x_bits"], "y_bits": self.PAPER["y_bits"]}
        if widths != expected or (
            not isinstance(estimate, Exception) and estimate["widths"] != expected
        ):
            bad.append(len(outputs) - 1)
        return bad


WORKLOADS = {
    cls.name: cls for cls in (ParsecClosedLoop, Fig12Sweep, CampaignResume, PunchEncoding)
}
