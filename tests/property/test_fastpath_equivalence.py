"""Property grid: the batch engine must agree with the exact event loop.

The batch engine's contract has two regimes, both asserted here with
their documented tolerances (see the ``repro.sim.fastpath`` module
docstring):

* **Converged** runs — the waveform relaxation reaches its fixed point,
  so the batch result must be **bit-identical** to the exact engine
  (``as_dict()`` equality, every float included).
* **Saturated** runs — the solver is cut off at its sweep cap and
  polishes only the tail, so aggregate metrics carry a bounded error:
  throughput within 1 %, median latency within 3 %, p99 within 8 %.

The fabric mirrors the knob across every arbiter scheme: host coupling
makes the fabric an interaction point by construction, so fabric batch
must be *exactly* the fabric exact result for all arbiters.
"""

import pytest

from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.sim.engine import ARBITER_SCHEMES

#: Saturated-regime tolerances (relative). Converged runs use none.
THROUGHPUT_RTOL = 0.01
P50_RTOL = 0.03
P99_RTOL = 0.08

#: (model, workload, packet_size, load_gbps, packets, seed) scenarios
#: whose relaxation converges: batch replays exact bit for bit.
CONVERGED_GRID = [
    ("dpdk", "fixed", 512, 5.0, 500, 3),
    ("dpdk", "fixed", 1500, 20.0, 1000, 1),
    ("dpdk", "imix", None, 8.0, 1000, 5),
    ("dpdk", "bursty-imix", None, 6.0, 1000, 2),
    ("kernel", "fixed", 256, 4.0, 800, 11),
    ("kernel", "imix", None, 10.0, 1000, 4),
]

#: Scenarios that saturate the datapath (sweep cap bites): tolerance
#: regime. This is the committed BENCH_eventcore.json scenario.
SATURATED_GRID = [
    ("dpdk", "bursty-imix", None, 24.0, 4000, 7),
]


def _simulate(mode, model, workload, size, load, packets, seed):
    params = NicSimParams(
        model=model, workload=workload, offered_load_gbps=load,
        packets=packets, seed=seed, mode=mode,
    )
    if size is not None:
        params = params.with_(packet_size=size)
    return run_nicsim_benchmark(params)


def _direction_metrics(result):
    for direction in ("tx", "rx"):
        path = getattr(result, direction)
        if path is None:
            continue
        yield direction, path


class TestConvergedBitIdentity:
    @pytest.mark.parametrize(
        "model,workload,size,load,packets,seed",
        CONVERGED_GRID,
        ids=[f"{m}-{w}@{l:g}" for m, w, _s, l, _p, _seed in CONVERGED_GRID],
    )
    def test_batch_replays_exact(self, model, workload, size, load,
                                 packets, seed):
        exact = _simulate("exact", model, workload, size, load, packets, seed)
        batch = _simulate("batch", model, workload, size, load, packets, seed)
        assert batch.as_dict() == exact.as_dict()


class TestSaturatedTolerances:
    @pytest.mark.parametrize(
        "model,workload,size,load,packets,seed",
        SATURATED_GRID,
        ids=[f"{m}-{w}@{l:g}" for m, w, _s, l, _p, _seed in SATURATED_GRID],
    )
    def test_batch_within_documented_bounds(self, model, workload, size,
                                            load, packets, seed):
        exact = _simulate("exact", model, workload, size, load, packets, seed)
        batch = _simulate("batch", model, workload, size, load, packets, seed)
        for direction, exact_path in _direction_metrics(exact):
            batch_path = getattr(batch, direction)
            assert batch_path.throughput_gbps == pytest.approx(
                exact_path.throughput_gbps, rel=THROUGHPUT_RTOL
            ), f"{direction} throughput outside {THROUGHPUT_RTOL:.0%}"
            assert batch_path.latency.median == pytest.approx(
                exact_path.latency.median, rel=P50_RTOL
            ), f"{direction} p50 outside {P50_RTOL:.0%}"
            assert batch_path.latency.p99 == pytest.approx(
                exact_path.latency.p99, rel=P99_RTOL
            ), f"{direction} p99 outside {P99_RTOL:.0%}"


class TestFabricArbiterGrid:
    @pytest.mark.parametrize("arbiter", ARBITER_SCHEMES)
    def test_fabric_batch_is_exact_for_every_arbiter(self, arbiter):
        def params(mode):
            return ContentionParams(
                devices=(
                    NicSimParams(model="dpdk", workload="fixed",
                                 packet_size=512, offered_load_gbps=5.0,
                                 packets=200),
                    NicSimParams(model="kernel", workload="imix",
                                 packets=200),
                ),
                names=("a", "b"),
                arbiter=arbiter,
                seed=5,
                mode=mode,
            )

        exact = run_contention_benchmark(params("exact"))
        batch = run_contention_benchmark(params("batch"))
        assert batch.as_dict() == exact.as_dict()
