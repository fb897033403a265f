"""Per-request paths must leave no cyclic garbage behind.

A closure that refers to itself (directly, or through a cell of an
enclosing function) turns every request that creates it into a reference
cycle that only CPython's cyclic collector can free.  On the switch-tree
arbitration path that made the collector a large share of every run's
wall time.  The rule this test holds the simulator to: per-request state
lives in slotted records whose bound methods are the callbacks, so a
finished request is freed by reference counting alone.

Each run below executes with the collector paused.  Afterwards one
``gc.DEBUG_SAVEALL`` collection gathers everything the run left to the
collector, and the function and cell objects in it are counted.  What
remains is the teardown of the finished simulator, a fixed handful of
objects; a per-request or per-control-action cycle would grow with the
run, so the count must not change when the run doubles.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.bench.contention import (
    FOUR_DEVICE_NAMES,
    ContentionParams,
    four_device_mix,
    noisy_neighbour_pair,
    run_contention_benchmark,
)

#: Function and cell objects a finished run may leave to the collector.
MAX_LEFTOVER_CLOSURES = 16


def _tree(victim_packets: int, aggressor_packets: int) -> ContentionParams:
    return ContentionParams(
        devices=four_device_mix(
            victim_packets=victim_packets, aggressor_packets=aggressor_packets
        ),
        names=FOUR_DEVICE_NAMES,
        system="NFP6000-HSW",
        iommu_enabled=True,
        topology="victim=root,aggressor=sw0,bulk2=sw0,streamer=root,sw0=root",
        arbiter="sliced",
        weights=(8.0, 1.0, 1.0, 2.0),
        quantum_ns=16.0,
        ddio_partition=(1.0, 2.0, 1.0, 1.0),
        controller="threshold",
        control_window_ns=50_000.0,
        seed=7,
    )


def _flat_pair() -> ContentionParams:
    return ContentionParams(
        devices=noisy_neighbour_pair(victim_packets=50, aggressor_packets=400),
        names=("victim", "aggressor"),
        system="NFP6000-HSW",
        iommu_enabled=True,
        seed=7,
    )


def _leftover_closures(params: ContentionParams) -> int:
    """Function and cell objects one run leaves to the cyclic collector."""
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.disable()
    try:
        run_contention_benchmark(params)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        return sum(
            isinstance(obj, (types.FunctionType, types.CellType))
            for obj in gc.garbage
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture(scope="module", autouse=True)
def _warm_up():
    # Imports, lazily built tables and caches settle on a first run.
    run_contention_benchmark(_tree(50, 400))


def test_switch_tree_run_leaves_no_per_request_cycles():
    small = _leftover_closures(_tree(50, 400))
    large = _leftover_closures(_tree(100, 800))
    assert small == large
    assert large <= MAX_LEFTOVER_CLOSURES


def test_flat_pair_run_leaves_no_per_request_cycles():
    assert _leftover_closures(_flat_pair()) <= MAX_LEFTOVER_CLOSURES
