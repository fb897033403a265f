"""Bit-exact goldens for every quick experiment.

``experiments_micro_seeded.json`` holds the quick ``figure-1``,
``figure-2``, ``figure-4`` to ``figure-9``, ``table-1`` and ``table-2``
results: the analytic models and the micro-benchmark sweeps over both
cache models, the IOMMU, NUMA and every host profile.
``experiments_solo_seeded.json`` holds the quick ``figure-1-sim``,
``figure-7-9-sim``, ``figure-8-sim`` and ``figure-8-knee`` results, which
drive single-device NIC datapath runs (decoupled and host-coupled,
bounded and unbounded DMA tags, the analytic cross-validation).
``experiments_contention_seeded.json`` holds the quick
``figure-10-contention``, ``figure-11-topology``, ``figure-12-fleet``,
``figure-13-control`` and ``figure-14-attribution`` results, which drive
shared-host runs (arbiters, switch trees, DDIO partitions, the fleet,
controllers and traced attribution).  Each file records every series
point and table row at full float precision, and each check's
description, pass flag and detail, with the library's default seed.
``scripts/check_goldens.py`` (``experiments_record``) applies the same
exact check and reports a per-field diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import run_experiment

GOLDEN_DIR = Path(__file__).parent.parent / "golden"


def _record(result) -> dict:
    # To regenerate after an intentional behaviour change, write this
    # record per experiment under "result" (check_goldens.py builds the
    # same one in experiment_record).
    return {
        "series": result.series,
        "table_rows": result.table_rows,
        "checks": [
            {
                "description": check.description,
                "passed": check.passed,
                "detail": check.detail,
            }
            for check in result.checks
        ],
    }


def _canonical(record: object) -> str:
    # JSON text compares exactly, NaN table cells included (NaN != NaN).
    return json.dumps(record, sort_keys=True)


MICRO_RECORD = json.loads((GOLDEN_DIR / "experiments_micro_seeded.json").read_text())
GOLDEN_RECORD = json.loads((GOLDEN_DIR / "experiments_solo_seeded.json").read_text())
CONTENTION_RECORD = json.loads(
    (GOLDEN_DIR / "experiments_contention_seeded.json").read_text()
)


@pytest.mark.parametrize(
    "golden, experiment_id",
    [
        pytest.param(golden, experiment_id, id=experiment_id)
        for golden in (MICRO_RECORD, GOLDEN_RECORD, CONTENTION_RECORD)
        for experiment_id in golden["experiments"]
    ],
)
def test_quick_experiment_is_bit_identical(golden, experiment_id):
    fresh = json.loads(json.dumps(_record(run_experiment(experiment_id, quick=True))))
    assert _canonical(fresh) == _canonical(golden["result"][experiment_id])


def _covers_and_all_pass(golden: dict, experiments: list[str]) -> None:
    assert golden["quick"] is True
    assert golden["experiments"] == experiments
    for record in golden["result"].values():
        assert (record["series"] or record["table_rows"]) and record["checks"]
        assert all(check["passed"] for check in record["checks"])


def test_golden_covers_the_micro_experiments_and_all_pass():
    _covers_and_all_pass(
        MICRO_RECORD,
        [
            "figure-1", "figure-2", "figure-4", "figure-5", "figure-6",
            "figure-7", "figure-8", "figure-9", "table-1", "table-2",
        ],
    )


def test_golden_covers_the_solo_experiments_and_all_pass():
    assert all(
        record["series"] and record["table_rows"]
        for record in GOLDEN_RECORD["result"].values()
    )
    _covers_and_all_pass(
        GOLDEN_RECORD,
        ["figure-1-sim", "figure-7-9-sim", "figure-8-sim", "figure-8-knee"],
    )


def test_golden_covers_the_contention_experiments_and_all_pass():
    # Most contention experiments report a table and no plotted series.
    assert all(record["table_rows"] for record in CONTENTION_RECORD["result"].values())
    _covers_and_all_pass(
        CONTENTION_RECORD,
        [
            "figure-10-contention", "figure-11-topology", "figure-12-fleet",
            "figure-13-control", "figure-14-attribution",
        ],
    )
