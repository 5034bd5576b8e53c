"""Outside-in layer tracing for the benchmark's traced run.

Every layer is a set of public methods that :class:`Tracer.install`
replaces, at class (or module) level, with a timing wrapper.  Nothing
inside ``src/`` knows about the tracer: the untraced run installs
nothing and measures the unmodified program.

Spans are kept in memory as per-method aggregates (calls, self time);
a span's self time is its duration minus the durations of the traced
spans it encloses, so the layer self times plus the root's own self
time (``trace.residual_s``) add up to the traced wall time exactly.

Pool workers forked by ``execute_cells`` inherit the installed
wrappers.  The worker entry point ``repro.campaign.engine.run_cell``
is wrapped too: in a worker it drops the state inherited from the
parent and, after each cell, writes the worker's cumulative
aggregates to ``worker-<pid>.json`` so the parent can fold them in
(:meth:`Tracer.collect_workers`).  Worker time runs in parallel with
the parent's wall, so it is reported beside it (``trace.worker_s``),
not inside the residual identity.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> (module, class or None for a module function, method).
#: Each layer should move the end-to-end metric and workload named in
#: ``perfbench/README.md``; the layer names are the ``per_layer``
#: metric prefixes in ``BENCHMARK.json``.
LAYERS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "system.core": [("repro.system.cpu", "Core", "step")],
    "system.l1": [
        ("repro.system.l1", "L1Controller", "access"),
        ("repro.system.l1", "L1Controller", "handle"),
    ],
    "system.directory": [("repro.system.directory", "DirectoryController", "handle")],
    "system.memctrl": [
        ("repro.system.memctrl", "MemoryController", "handle"),
        ("repro.system.memctrl", "MemoryController", "step"),
    ],
    "system.chip": [
        ("repro.system.chip", "Chip", "run"),
        ("repro.system.chip", "Chip", "step"),
    ],
    "system.setup": [("repro.system.chip", "Chip", "__init__")],
    "noc.setup": [("repro.noc.network", "Network", "__init__")],
    "noc.network": [("repro.noc.network", "Network", "step")],
    "noc.ni": [("repro.noc.network_interface", "NetworkInterface", "step")],
    "noc.router.va": [("repro.noc.router", "Router", "do_vc_allocation")],
    "noc.router.sa": [("repro.noc.router", "Router", "do_switch_allocation")],
    "noc.router.receive": [("repro.noc.router", "Router", "receive_flit")],
    # Filled in at install time with every PowerPolicy subclass that
    # defines its own begin_cycle/end_cycle.
    "powergate.policy": [],
    "powergate.controller": [
        ("repro.powergate.controller", "PowerGateController", "step"),
        ("repro.powergate.controller", "PowerGateController", "request_wakeup"),
    ],
    "core.fabric": [
        ("repro.core.punch_fabric", "PunchFabric", "send_local"),
        ("repro.core.punch_fabric", "PunchFabric", "deliver"),
    ],
    "traffic.generator": [("repro.traffic.generator", "SyntheticTraffic", "step")],
    "core.punch_encoding": [
        ("repro.core.punch_encoding", "PunchEncodingAnalysis", "analyze_link")
    ],
    # Callers reach the estimate through the package re-export as well.
    "power.area": [
        ("repro.power.area", None, "estimate_punch_area"),
        ("repro.power", None, "estimate_punch_area"),
    ],
    "power.energy": [("repro.power.model", "EnergyModel", "account")],
    "campaign.cache.get": [("repro.campaign.cache", "CellCache", "get")],
    "campaign.cache.put": [("repro.campaign.cache", "CellCache", "put")],
    "campaign.engine": [("repro.campaign.engine", None, "execute_cells")],
}

_WORKER_ENTRY = ("repro.campaign.engine", None, "run_cell")


def _policy_hooks() -> List[Tuple[str, Optional[str], str]]:
    """Every policy class that defines its own per-cycle hooks."""
    importlib.import_module("repro.core.schemes")
    importlib.import_module("repro.baselines.nord")
    base = importlib.import_module("repro.noc.policy").PowerPolicy
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for method in ("begin_cycle", "end_cycle"):
            if method in vars(cls):
                found.append((cls.__module__, cls.__qualname__, method))
    return sorted(set(found))


def method_key(target: Tuple[str, Optional[str], str]) -> str:
    module, owner, method = target
    return f"{module}.{owner}.{method}" if owner else f"{module}.{method}"


class Tracer:
    """Class-level wrappers plus in-memory per-method span aggregates."""

    def __init__(self, worker_dir: Optional[Path] = None) -> None:
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        #: method key -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Per-span child-time accumulators of the open spans.
        self.stack: List[List[float]] = []
        self.counters: Dict[str, int] = {}
        self.worker_stats: Dict[str, List[float]] = {}
        self._saved: List[Tuple[object, str, object]] = []
        self._in_worker = False
        self.layers: Dict[str, List[Tuple[str, Optional[str], str]]] = {}

    # ------------------------------------------------------------------
    def _wrap(self, key: str, fn: Callable, before=None, after=None) -> Callable:
        stats = self.stats.setdefault(key, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration - frame[0]
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def _core_idle(self, args) -> None:
        core = args[0]
        if core.done or core.is_stalled:
            self._count("system.core.idle")

    def _cache_outcome(self, payload) -> None:
        self._count("campaign.cache.misses" if payload is None else "campaign.cache.hits")

    def _patch(self, target, wrapper_factory) -> None:
        module_name, owner_name, method = target
        module = importlib.import_module(module_name)
        owner = module
        if owner_name:
            for part in owner_name.split("."):
                owner = getattr(owner, part)
        original = vars(owner)[method]
        self._saved.append((owner, method, original))
        setattr(owner, method, wrapper_factory(original))

    def install(self) -> None:
        """Wrap every layer's methods once; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.layers = {name: list(targets) for name, targets in LAYERS.items()}
        self.layers["powergate.policy"] = _policy_hooks()
        hooks = {
            "repro.system.cpu.Core.step": {"before": self._core_idle},
            "repro.campaign.cache.CellCache.get": {"after": self._cache_outcome},
        }
        for targets in self.layers.values():
            for target in targets:
                key = method_key(target)
                self._patch(
                    target,
                    lambda fn, key=key: self._wrap(key, fn, **hooks.get(key, {})),
                )
        self._patch(_WORKER_ENTRY, self._worker_entry)

    def uninstall(self) -> None:
        while self._saved:
            owner, method, original = self._saved.pop()
            setattr(owner, method, original)

    # ------------------------------------------------------------------
    def _worker_entry(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run_cell(spec):
            if os.getpid() == self.pid:
                return fn(spec)  # inline execution: spans land here
            if not self._in_worker:
                # First cell in a forked worker: forget the parent's
                # aggregates and open spans inherited through fork.
                self._in_worker = True
                self.stack.clear()
                for stats in self.stats.values():
                    stats[0], stats[1] = 0, 0.0
                self.counters.clear()
            try:
                return fn(spec)
            finally:
                self._dump_worker()

        return run_cell

    def _dump_worker(self) -> None:
        if self.worker_dir is None:
            return
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "counters": self.counters}))
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        """Fold the worker dumps written since the last call into
        :attr:`worker_stats` and the shared counters."""
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            for key, (calls, self_s) in doc["stats"].items():
                slot = self.worker_stats.setdefault(key, [0, 0.0])
                slot[0] += calls
                slot[1] += self_s
            for name, count in doc["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + count
            path.unlink()

    # ------------------------------------------------------------------
    def root(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``fn`` as the root span; return ``(result, wall, self)``."""
        frame = [0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0
            self.stack.pop()
        return result, wall, wall - frame[0]

    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Layer -> (calls, parent-process self s, worker self s)."""
        totals = {}
        for name, targets in self.layers.items():
            calls, parent, worker = 0, 0.0, 0.0
            for target in targets:
                key = method_key(target)
                own = self.stats.get(key, (0, 0.0))
                far = self.worker_stats.get(key, (0, 0.0))
                calls += own[0] + far[0]
                parent += own[1]
                worker += far[1]
            totals[name] = (int(calls), parent, worker)
        return totals

    def calls_of(self, key: str) -> int:
        own = self.stats.get(key, (0, 0.0))[0]
        far = self.worker_stats.get(key, (0, 0.0))[0]
        return int(own + far)
