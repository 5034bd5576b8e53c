"""Reference fingerprints the benchmark checks every output against.

``refs.json`` stores, per workload, size and seed, the fingerprint of
every operation's output as produced by the reference: the naive cycle
kernel (``NoCConfig(kernel="naive")``) for simulation cells, and the
exhaustive enumeration itself for the punch-encoding analysis (which
``workloads.PunchEncoding`` also checks against the paper's Table 1 /
Fig. 5 numbers).  An entry holds a digest of the operation keys, so a
changed workload definition reads as "no reference" rather than as a
silent mismatch.

A seed with no stored entry — a held-out seed — is checked against the
naive kernel at run time, after the measurement; those reference
results are cached under ``.bench_build/`` keyed by the simulator's
code salt.

Regenerate the stored entries with::

    python3 perfbench/refs.py --workload fig12-sweep --size full --seeds 0-31
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
DIGEST_LEN = 8


def keys_digest(keys: List[str]) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode("utf-8")).hexdigest()[:16]


def seed_slot(workload) -> str:
    return str(workload.seed) if workload.seeded else "*"


class Refs:
    """Stored reference fingerprints, by workload/size/seed."""

    def __init__(self, doc: Optional[Dict[str, dict]] = None) -> None:
        self.doc: Dict[str, dict] = doc if doc is not None else {}

    @classmethod
    def load(cls, path: Path = REFS_PATH) -> "Refs":
        return cls(json.loads(path.read_text()) if path.exists() else {})

    def save(self, path: Path = REFS_PATH) -> None:
        path.write_text(json.dumps(self.doc, indent=1, sort_keys=True) + "\n")

    def lookup(self, workload) -> Optional[List[str]]:
        """Stored fingerprints in ``workload.keys`` order, or None."""
        entry = self.doc.get(f"{workload.name}/{workload.size}", {}).get(
            seed_slot(workload)
        )
        if entry is None or entry["keys"] != keys_digest(workload.keys):
            return None
        ordered = sorted(workload.keys)
        cells = entry["cells"]
        by_key = {
            key: cells[i * DIGEST_LEN : (i + 1) * DIGEST_LEN]
            for i, key in enumerate(ordered)
        }
        return [by_key[key] for key in workload.keys]

    def store(self, workload, fingerprints: List[str]) -> None:
        by_key = dict(zip(workload.keys, fingerprints))
        self.doc.setdefault(f"{workload.name}/{workload.size}", {})[
            seed_slot(workload)
        ] = {
            "keys": keys_digest(workload.keys),
            "cells": "".join(by_key[key] for key in sorted(workload.keys)),
        }


def naive_references(
    workload, workers: int, cache_root: Optional[Path] = None
) -> List[Optional[str]]:
    """Fingerprints of every cell re-run on the naive kernel.

    Used at run time for a seed with no stored entry (results cached
    under ``cache_root`` per code salt) and by :func:`record`.
    Operations with no naive twin, or whose naive run failed, get
    ``None``: the check counts them as failed.
    """
    from repro.campaign import CellCache, execute_cells
    from workloads import fingerprint

    specs = [workload.naive_spec(i) for i in range(len(workload.keys))]
    cells = [spec for spec in specs if spec is not None]
    payloads, _ = execute_cells(
        cells,
        workers=workers,
        cache=CellCache(cache_root) if cache_root is not None else None,
        failure_mode="continue",
    )
    by_spec = dict(zip(cells, payloads))
    return [
        None if spec is None or by_spec[spec] is None else fingerprint(by_spec[spec])
        for spec in specs
    ]


def _parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload_name: str, size: str, seeds: List[int], workers: int) -> None:
    """Compute and store reference fingerprints (naive kernel for cells)."""
    import tempfile

    from workloads import WORKLOADS, fingerprint

    refs = Refs.load()
    cls = WORKLOADS[workload_name]
    with tempfile.TemporaryDirectory(dir=HERE.parent / ".bench_build") as tmp:
        for seed in seeds if cls.seeded else seeds[:1]:
            workload = cls(seed, size, Path(tmp))
            if workload.naive_spec(0) is not None:
                fingerprints = naive_references(workload, workers)
                if None in fingerprints:
                    raise SystemExit(f"{workload_name}: a naive reference cell failed")
            else:
                outputs = workload.run()
                if workload.paper_failures(outputs):
                    raise SystemExit(f"{workload_name}: output contradicts the paper")
                fingerprints = [fingerprint(o) for o in outputs]
            refs.store(workload, fingerprints)
            print(f"recorded {workload_name}/{size} seed={seed_slot(workload)}", flush=True)
            refs.save()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 1,5,9")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    (root / ".bench_build").mkdir(exist_ok=True)
    record(args.workload, args.size, _parse_seeds(args.seeds), args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
