"""Tests for the experiment registry and the shared result/check helpers."""

import json

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.experiments.base import (
    Check,
    ExperimentResult,
    crossover_x,
    monotonic_increasing,
    value_at,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    get_runner,
    run_experiment,
)


class TestRegistry:
    def test_all_paper_figures_and_tables_registered(self):
        assert experiment_ids() == [
            "figure-1",
            "figure-1-sim",
            "figure-2",
            "figure-4",
            "figure-5",
            "figure-6",
            "figure-7",
            "figure-8",
            "figure-9",
            "figure-7-9-sim",
            "figure-8-sim",
            "figure-8-knee",
            "figure-10-contention",
            "figure-11-topology",
            "figure-12-fleet",
            "figure-13-control",
            "figure-14-attribution",
            "table-1",
            "table-2",
        ]

    def test_every_module_has_metadata(self):
        for experiment_id, module in EXPERIMENTS.items():
            assert module.EXPERIMENT_ID == experiment_id
            assert isinstance(module.TITLE, str) and module.TITLE

    def test_get_runner_unknown_id(self):
        with pytest.raises(ValidationError):
            get_runner("figure-42")

    def test_run_experiment_analytical_figures(self):
        # Figures 1 and 2 are purely analytical, so they are cheap enough to
        # run inside the unit-test suite.
        for experiment_id in ("figure-1", "figure-2"):
            result = run_experiment(experiment_id, quick=True)
            assert result.passed, result.to_text()

    def test_run_experiment_table1(self):
        result = run_experiment("table-1", quick=True)
        assert result.passed
        assert len(result.table_rows) == 6


class TestCheckHelpers:
    def test_check_status(self):
        assert Check("x", True).status() == "PASS"
        assert Check("x", False).status() == "FAIL"

    @pytest.mark.parametrize("verdict", [True, False, np.True_, np.False_])
    def test_passed_is_a_python_bool(self, verdict):
        check = Check("x", verdict)
        assert type(check.passed) is bool
        assert check.passed == bool(verdict)
        assert json.loads(json.dumps({"passed": check.passed})) == {
            "passed": bool(verdict)
        }

    @pytest.mark.parametrize(
        "verdict", [1, 0, None, "yes", 1.0, np.int64(1)],
        ids=["int-1", "int-0", "none", "str", "float", "numpy-int"],
    )
    def test_passed_of_any_other_type_is_refused(self, verdict):
        with pytest.raises(ValidationError):
            Check("x", verdict)

    def test_monotonic_increasing_with_tolerance(self):
        points = [(1, 10.0), (2, 9.9), (3, 11.0)]
        assert monotonic_increasing(points, tolerance=0.2)
        assert not monotonic_increasing(points, tolerance=0.0)

    def test_crossover_x(self):
        a = [(1, 1.0), (2, 5.0), (3, 10.0)]
        b = [(1, 4.0), (2, 4.0), (3, 4.0)]
        assert crossover_x(a, b) == 2

    def test_crossover_none_when_never_reached(self):
        a = [(1, 1.0), (2, 2.0)]
        b = [(1, 10.0), (2, 10.0)]
        assert crossover_x(a, b) is None

    def test_value_at(self):
        assert value_at([(64, 1.5), (128, 2.5)], 128) == 2.5
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            value_at([(64, 1.5)], 65)

    def test_experiment_result_counts(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            checks=[Check("a", True), Check("b", False)],
        )
        assert result.passed_checks == 1
        assert not result.passed
        assert result.check_summary() == "1/2 checks passed"
