"""Regression guards for the closed-loop chip.

* Pinned results: small 4x4 closed-loop cells under all four schemes
  must reproduce these ChipResults exactly, so a change to how the
  caches or the directory store their state cannot alter a simulated
  outcome unnoticed.
* Object budget: a warm 8x8 chip must not bring back per-block
  containers.  Every GC-tracked object a chip creates is scanned by
  each full collection, and the closed-loop suite builds one chip per
  cell.
"""

import dataclasses
import gc

import pytest

from repro.experiments.common import SCHEME_ORDER, make_scheme
from repro.noc import NoCConfig
from repro.noc.packet import reset_packet_ids
from repro.system import Chip, get_profile
from repro.system.chip import ChipResult

INSTRUCTIONS = 300
#: (workload, warm caches): two warm paper-style cells, and one cold
#: cell whose misses reach memory and evict from L1 and L2.
CELLS = [("canneal", True), ("dedup", True), ("bodytrack", False)]

#: (workload, scheme) -> the ChipResult fields after benchmark and
#: scheme, in declaration order.
PINNED = {
    ("canneal", "No-PG"): (
        506, 16.35, 19.35, 0.0, 0.0, 0.022480237154150196,
        0.01369047619047619, 60, 506
    ),
    ("canneal", "ConvOpt-PG"): (
        560, 25.016666666666666, 33.78333333333333, 2.533333333333333, 13.7,
        0.0203125, 0.01369047619047619, 60, 560
    ),
    ("canneal", "PowerPunch-Signal"): (
        534, 17.083333333333332, 25.416666666666668, 0.9833333333333333,
        6.016666666666667, 0.021301498127340824, 0.01369047619047619, 60, 534
    ),
    ("canneal", "PowerPunch-PG"): (
        513, 16.866666666666667, 20.966666666666665, 0.9166666666666666, 1.6,
        0.022173489278752435, 0.01369047619047619, 60, 513
    ),
    ("dedup", "No-PG"): (
        506, 16.5, 19.5, 0.0, 0.0, 0.010375494071146246, 0.009192383453709783,
        28, 506
    ),
    ("dedup", "ConvOpt-PG"): (
        569, 27.428571428571427, 36.92857142857143, 3.107142857142857,
        17.107142857142858, 0.00922671353251318, 0.009192383453709783, 28, 569
    ),
    ("dedup", "PowerPunch-Signal"): (
        532, 17.178571428571427, 25.75, 1.0357142857142858, 6.25,
        0.009868421052631578, 0.009192383453709783, 28, 532
    ),
    ("dedup", "PowerPunch-PG"): (
        509, 17.107142857142858, 21.178571428571427, 1.0, 1.6785714285714286,
        0.01031434184675835, 0.009192383453709783, 28, 509
    ),
    ("bodytrack", "No-PG"): (
        5456, 18.627249357326477, 22.53727506426735, 0.0, 0.0,
        0.10692357038123167, 0.8925964546402503, 3112, 5456
    ),
    ("bodytrack", "ConvOpt-PG"): (
        6007, 21.462403598971722, 27.424485861182518, 0.6860539845758354,
        3.2625321336760926, 0.09711586482437157, 0.8925964546402503, 3112,
        6007
    ),
    ("bodytrack", "PowerPunch-Signal"): (
        5691, 19.209511568123393, 24.491323907455012, 0.26767352185089976,
        1.2946658097686374, 0.10250834651203655, 0.8925964546402503, 3112,
        5691
    ),
    ("bodytrack", "PowerPunch-PG"): (
        5486, 18.753856041131105, 22.801092544987146, 0.12853470437017994,
        0.12467866323907455, 0.1063388625592417, 0.8925964546402503, 3112,
        5486
    ),
}

#: Tracked objects a warm 8x8 canneal chip may add (about 47,000
#: today; one container per block or per cache set would exceed it).
OBJECT_BUDGET = 60_000


@pytest.mark.parametrize("scheme", SCHEME_ORDER)
@pytest.mark.parametrize("workload,warm", CELLS)
def test_pinned_closed_loop_results(workload, warm, scheme):
    reset_packet_ids()
    chip = Chip(
        NoCConfig(width=4, height=4),
        make_scheme(scheme),
        get_profile(workload),
        instructions_per_core=INSTRUCTIONS,
        seed=1,
        benchmark=workload,
        warm_caches=warm,
    )
    expected = ChipResult(workload, scheme, *PINNED[workload, scheme])
    assert dataclasses.asdict(chip.run()) == dataclasses.asdict(expected)


def test_warm_chip_object_budget():
    profile = get_profile("canneal")
    gc.collect()
    before = len(gc.get_objects())
    chip = Chip(
        NoCConfig(),
        make_scheme("PowerPunch-PG"),
        profile,
        instructions_per_core=2000,
        benchmark="canneal",
    )
    gc.collect()
    added = len(gc.get_objects()) - before
    assert chip.cores  # keep the chip alive until counted
    assert added <= OBJECT_BUDGET, added
