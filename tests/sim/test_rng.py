"""Tests for the deterministic RNG wrapper."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sim.rng import DEFAULT_SEED, SimRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SimRng(42).uniform_indices("x", 100, 1000)
        b = SimRng(42).uniform_indices("x", 100, 1000)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = SimRng(1).uniform_indices("x", 100, 1000)
        b = SimRng(2).uniform_indices("x", 100, 1000)
        assert not np.array_equal(a, b)

    def test_named_streams_are_independent(self):
        rng = SimRng(7)
        a = rng.uniform_indices("a", 50, 100)
        rng2 = SimRng(7)
        # Drawing from another stream first must not shift stream "a".
        rng2.uniform_indices("b", 1000, 100)
        b = rng2.uniform_indices("a", 50, 100)
        assert np.array_equal(a, b)

    def test_stream_is_stateful_within_instance(self):
        rng = SimRng(3)
        first = rng.uniform_indices("s", 10, 100)
        second = rng.uniform_indices("s", 10, 100)
        assert not np.array_equal(first, second)

    def test_default_seed_exposed(self):
        assert SimRng().seed == DEFAULT_SEED


class TestDraws:
    def test_uniform_indices_bounds(self):
        draws = SimRng(5).uniform_indices("x", 10_000, 37)
        assert draws.min() >= 0
        assert draws.max() < 37

    def test_exponential_mean(self):
        draws = SimRng(5).exponential("e", 100.0, 50_000)
        assert draws.mean() == pytest.approx(100.0, rel=0.05)

    def test_invalid_arguments(self):
        rng = SimRng(5)
        with pytest.raises(ValidationError):
            rng.uniform_indices("x", 10, 0)
        with pytest.raises(ValidationError):
            rng.uniform_indices("x", -1, 10)
        with pytest.raises(ValidationError):
            SimRng("not-a-seed")  # type: ignore[arg-type]

    def test_negative_seeds_are_rejected_at_every_boundary(self):
        # numpy's seed sequences raise a bare ValueError for a negative
        # seed; SimRng, the fleet's host seeds and every parameter record
        # (and so its from_dict) reject one with a ValidationError.
        from repro.bench import (
            BenchmarkParams,
            ContentionParams,
            FleetParams,
            NicSimParams,
        )
        from repro.fleet import fleet_host_seed

        assert SimRng(np.int64(3)).seed == 3
        message = "seed must be a non-negative integer, got -1"
        with pytest.raises(ValidationError, match=message):
            SimRng(-1)
        with pytest.raises(ValidationError, match=message):
            fleet_host_seed(-1, 0)
        records = (
            BenchmarkParams(kind="LAT_RD", transfer_size=64),
            NicSimParams(),
            ContentionParams(devices=(NicSimParams(),)),
            FleetParams(),
        )
        for params in records:
            with pytest.raises(ValidationError, match=message):
                params.with_(seed=-1)
            with pytest.raises(ValidationError, match=message):
                type(params).from_dict({**params.as_dict(), "seed": -1})


class TestCrossProcessDeterminism:
    def test_named_streams_identical_in_a_fresh_interpreter(self):
        # Sub-stream keys must not depend on Python's salted hash(): the
        # same seed has to yield the same stream in another process (CLI
        # re-invocations, process-pool workers).
        import subprocess
        import sys

        snippet = (
            "from repro.sim.rng import SimRng;"
            "print(int(SimRng(42).spawn('workload.imix.tx').integers(0, 2**31)))"
        )
        draws = {
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        here = int(SimRng(42).spawn("workload.imix.tx").integers(0, 2**31))
        assert draws == {str(here)}
