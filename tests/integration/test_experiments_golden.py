"""Bit-exact golden for the quick solo NIC datapath experiments.

``experiments_solo_seeded.json`` holds the quick ``figure-1-sim``,
``figure-7-9-sim``, ``figure-8-sim`` and ``figure-8-knee`` results: every
series point and table row at full float precision, and each check's
description, pass flag and detail.  All four drive single-device NIC
datapath runs (decoupled and host-coupled, bounded and unbounded DMA
tags, the analytic cross-validation) with the library's default seed.
``scripts/check_goldens.py`` (``experiments_record``) applies the same
exact check and reports a per-field diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import run_experiment

GOLDEN = Path(__file__).parent.parent / "golden" / "experiments_solo_seeded.json"


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


GOLDEN_RECORD = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("experiment_id", GOLDEN_RECORD["experiments"])
def test_quick_experiment_is_bit_identical(experiment_id):
    fresh = json.loads(json.dumps(_record(run_experiment(experiment_id, quick=True))))
    assert _canonical(fresh) == _canonical(GOLDEN_RECORD["result"][experiment_id])


def test_golden_covers_the_solo_experiments_and_all_pass():
    assert GOLDEN_RECORD["quick"] is True
    assert GOLDEN_RECORD["experiments"] == [
        "figure-1-sim", "figure-7-9-sim", "figure-8-sim", "figure-8-knee",
    ]
    for record in GOLDEN_RECORD["result"].values():
        assert record["series"] and record["table_rows"] and record["checks"]
        assert all(check["passed"] for check in record["checks"])
