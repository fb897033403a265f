"""Tests for the vectorised batch engine (``repro.sim.fastpath``).

Covers the mode knob end to end (validation, parameter/record round
trips, rejection of unknown and retired mode names), the batch engine's
eligibility and dynamic fallbacks, its bit-identity contract on
converged runs (results *and* causal traces) and the per-mode engine
profile.
"""

import pytest

from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.cli import main
from repro.errors import ValidationError
from repro.obs import Tracer
from repro.obs.trace import BATCH_PREFIX
from repro.sim.engine import MODES, EngineProfile
from repro.sim.fastpath import BatchFallback, run_batch
from repro.sim.nicsim import NicDatapathSimulator


class TestModeKnob:
    def test_modes_registry(self):
        assert MODES == ("exact", "batch")

    def test_simulator_rejects_unknown_mode(self):
        # The simulator's engine is its record's mode, checked when the
        # record is built.
        for mode in ("warp", "hybrid"):
            with pytest.raises(ValidationError, match="mode must be one of"):
                NicDatapathSimulator(NicSimParams(model="dpdk", mode=mode))

    def test_params_reject_unknown_mode(self):
        for mode in ("warp", "hybrid"):
            with pytest.raises(ValidationError, match="mode must be one of"):
                NicSimParams(mode=mode)
            with pytest.raises(ValidationError, match="mode must be one of"):
                ContentionParams(devices=(NicSimParams(),), mode=mode)

    @pytest.mark.parametrize("command", ["nicsim", "contend"])
    def test_cli_rejects_hybrid_mode(self, command, capsys):
        # argparse's choices reject the flag before any run starts.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--mode", "hybrid"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'hybrid'" in capsys.readouterr().err

    def test_nicsim_params_round_trip_and_label(self):
        params = NicSimParams(mode="batch")
        assert "mode=batch" in params.label()
        assert params.as_dict()["mode"] == "batch"
        rebuilt = NicSimParams.from_dict(params.as_dict())
        assert rebuilt.mode == "batch"

    def test_exact_params_emit_no_mode_key(self):
        # Records written before the mode knob existed must round-trip
        # unchanged, so the default is suppressed.
        record = NicSimParams().as_dict()
        assert "mode" not in record
        assert NicSimParams.from_dict(record).mode == "exact"
        contention = ContentionParams(devices=(NicSimParams(),)).as_dict()
        assert "mode" not in contention
        assert ContentionParams.from_dict(contention).mode == "exact"

    def test_contention_params_round_trip_and_label(self):
        params = ContentionParams(devices=(NicSimParams(),), mode="batch")
        assert "mode=batch" in params.label()
        rebuilt = ContentionParams.from_dict(params.as_dict())
        assert rebuilt.mode == "batch"


def _run(mode, *, model="dpdk", workload="fixed", size=512, load=5.0,
         packets=400, seed=3, profile_sink=None, tracer=None, **fields):
    params = NicSimParams(
        model=model, workload=workload, packet_size=size,
        offered_load_gbps=load, packets=packets, seed=seed, mode=mode,
        **fields,
    )
    return run_nicsim_benchmark(params, profile_sink=profile_sink, tracer=tracer)


class TestBatchEligibilityFallbacks:
    """Interaction points refuse the batch engine before any work."""

    def _raw_batch(self, **fields):
        record = dict(
            model="dpdk", packet_size=512, offered_load_gbps=5.0, packets=50
        )
        record.update(fields)
        return run_batch(NicDatapathSimulator(NicSimParams(**record)))

    def test_host_coupling_falls_back(self):
        with pytest.raises(BatchFallback, match="host coupling"):
            self._raw_batch(system="NFP6000-HSW")

    def test_bounded_tags_fall_back(self):
        with pytest.raises(BatchFallback, match="DMA tag pool"):
            self._raw_batch(dma_tags=8)

    def test_multi_queue_falls_back(self):
        with pytest.raises(BatchFallback, match="multi-queue"):
            self._raw_batch(num_queues=4)

    def test_ring_pressure_falls_back(self):
        # Saturating load against a tiny ring: the precomputed occupancy
        # exceeds the depth, which needs scalar backpressure semantics.
        with pytest.raises(BatchFallback, match="ring would exceed depth"):
            self._raw_batch(
                ring_depth=8,
                packet_size=1500,
                offered_load_gbps=200.0,
                packets=200,
            )

    def test_fallback_reason_is_carried(self):
        with pytest.raises(BatchFallback) as excinfo:
            self._raw_batch(dma_tags=8)
        assert "interaction point" in excinfo.value.reason

    def test_run_nicsim_benchmark_falls_back_silently_to_exact(self):
        # The public entry point absorbs the fallback: a coupled batch
        # run returns the scalar engine's exact result.
        exact = _run("exact", packets=200, system="NFP6000-HSW")
        batch = _run("batch", packets=200, system="NFP6000-HSW")
        assert batch.as_dict() == exact.as_dict()

    def test_fallen_back_profile_reports_exact(self):
        sink = []
        _run("batch", packets=200, system="NFP6000-HSW", profile_sink=sink)
        assert sink[0].mode == "exact"


class TestBatchBitIdentity:
    """Converged (non-saturated) runs replay the scalar engine bit for bit."""

    @pytest.mark.parametrize(
        "model,workload,size,load",
        [
            ("dpdk", "fixed", 512, 5.0),
            ("kernel", "fixed", 256, 4.0),
            ("dpdk", "imix", None, 8.0),
        ],
    )
    def test_results_bit_identical(self, model, workload, size, load):
        kwargs = {} if size is None else {"size": size}
        exact = _run("exact", model=model, workload=workload, load=load,
                     **kwargs)
        batch = _run("batch", model=model, workload=workload, load=load,
                     **kwargs)
        assert batch.as_dict() == exact.as_dict()

    def test_path_traces_bit_identical(self):
        params = NicSimParams(
            model="dpdk",
            packet_size=512,
            offered_load_gbps=5.0,
            packets=300,
            seed=3,
        )
        simulator = NicDatapathSimulator(params)
        simulator.run()
        exact_traces = simulator.last_traces
        simulator = NicDatapathSimulator(params.with_(mode="batch"))
        simulator.run()
        batch_traces = simulator.last_traces
        assert set(batch_traces) == set(exact_traces)
        for direction, exact in exact_traces.items():
            batch = batch_traces[direction]
            assert (batch.arrivals_ns == exact.arrivals_ns).all()
            assert (batch.dones_ns == exact.dones_ns).all()
            assert (batch.notifies_ns == exact.notifies_ns).all()
            assert (batch.sizes == exact.sizes).all()

    def test_streaming_mode_also_identical(self):
        exact = _run("exact", retain_samples=False)
        batch = _run("batch", retain_samples=False)
        assert batch.as_dict() == exact.as_dict()

    def test_profile_reports_batch_mode_and_solve_time(self):
        sink = []
        _run("batch", profile_sink=sink)
        profile = sink[0]
        assert profile.mode == "batch"
        assert profile.solve_s >= 0.0
        assert profile.events > 0

    def test_batch_spans_are_aggregate(self):
        tracer = Tracer()
        _run("batch", tracer=tracer)
        stages = {span.stage for span in tracer.spans}
        assert stages, "batch tracing must emit spans"
        batch_stages = {s for s in stages if s.startswith(BATCH_PREFIX)}
        assert batch_stages, f"expected {BATCH_PREFIX}* spans, got {stages}"
        for span in tracer.spans:
            if span.stage.startswith(BATCH_PREFIX):
                assert span.packet == -1


class TestEngineProfileModes:
    def test_profile_round_trips_mode_fields(self):
        profile = EngineProfile(
            label="x", build_s=0.1, events_s=0.2, stats_s=0.3,
            events=42, mode="batch", solve_s=0.05,
        )
        rebuilt = EngineProfile.from_dict(profile.as_dict())
        assert rebuilt == profile
        assert rebuilt.mode == "batch"
        assert rebuilt.solve_s == 0.05

    def test_default_profile_is_exact(self):
        profile = EngineProfile(
            label="x", build_s=0.0, events_s=0.0, stats_s=0.0, events=0
        )
        assert profile.mode == "exact"
        assert profile.solve_s == 0.0


class TestFabricModes:
    """The fabric mirrors the mode knob; batch is exact by construction."""

    def _params(self, **overrides):
        fields = dict(
            devices=(
                NicSimParams(model="dpdk", workload="fixed",
                             packet_size=512, offered_load_gbps=5.0,
                             packets=300),
                NicSimParams(model="kernel", workload="imix", packets=300),
            ),
            names=("a", "b"),
            seed=5,
        )
        fields.update(overrides)
        return ContentionParams(**fields)

    def test_fabric_rejects_unknown_mode(self):
        # A contention run's engine is its record's mode, checked when the
        # record is built.
        for mode in ("warp", "hybrid"):
            with pytest.raises(ValidationError, match="mode must be one of"):
                self._params(mode=mode)

    def test_fabric_batch_is_bit_identical_to_exact(self):
        exact = run_contention_benchmark(self._params())
        batch = run_contention_benchmark(self._params(mode="batch"))
        assert batch.as_dict() == exact.as_dict()
