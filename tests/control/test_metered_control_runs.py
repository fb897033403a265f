"""A controlled fabric run with a metrics registry ends and simulates the same run.

The control runtime's tick re-arms itself while the event loop has work.
A metrics registry used to install a second tick that did the same, so
after the traffic drained each tick saw the other pending and the run
never returned.  The registry now samples from the control tick.

Each scenario's metered run executes in a subprocess under a wall-clock
bound, so a regression fails here instead of hanging the suite.  Its
record without ``metrics`` must equal the unmetered run's record: the
registry only reads counters and adds no event to the loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.contention import (
    ContentionParams,
    noisy_neighbour_pair,
    run_contention_benchmark,
)

GOLDEN = (
    Path(__file__).parent.parent
    / "golden"
    / "contention_tree_sliced_control_seeded.json"
)

#: Wall-clock bound on one metered run; unmetered, each takes about a
#: second on a 2-core container.
TIMEOUT_S = 60

METERED_RUN = """
import json, sys
from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.obs.metrics import MetricsRegistry

params = ContentionParams.from_dict(json.load(sys.stdin))
print(json.dumps(run_contention_benchmark(params, metrics=MetricsRegistry()).as_dict()))
"""


def _pair() -> ContentionParams:
    """The noisy-neighbour pair with mis-tuned weights and a controller."""
    return ContentionParams(
        devices=noisy_neighbour_pair(),
        names=("victim", "aggressor"),
        system="NFP6000-HSW",
        iommu_enabled=True,
        arbiter="wrr",
        weights=(1.0, 16.0),
        controller="threshold",
        seed=7,
    )


def _tree() -> ContentionParams:
    """The seeded switch-tree golden: sliced grants, DDIO partition, controller."""
    return ContentionParams.from_dict(json.loads(GOLDEN.read_text())["params"])


def _metered(params: ContentionParams) -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    try:
        completed = subprocess.run(
            [sys.executable, "-c", METERED_RUN],
            input=json.dumps(params.as_dict()),
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
            env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"the metered controlled run did not end within {TIMEOUT_S} s")
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize(
    "scenario", [_pair, _tree], ids=["pair-wrr-threshold", "tree-sliced-control"]
)
def test_metered_controlled_run_ends_and_matches_unmetered(scenario):
    params = scenario()
    metered = _metered(params)
    metrics = metered.pop("metrics")
    window = metered["control_window_ns"]
    assert metered["control_actions"], "the controller never acted"
    # One registry row per control tick, on the control windows.
    assert [row["time_ns"] for row in metrics["windows"]] == [
        window * (index + 1) for index in range(len(metrics["windows"]))
    ]
    assert metrics["windows"]

    unmetered = json.loads(json.dumps(run_contention_benchmark(params).as_dict()))
    assert "metrics" not in unmetered
    assert metered == unmetered
