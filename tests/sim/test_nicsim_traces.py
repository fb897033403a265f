"""The retained per-packet columns and the traces built from them.

A retained run keeps each queue's arrivals, completions, reports and
sizes as flat ``array`` columns, and ``last_traces`` concatenates them in
queue order through the buffer protocol.  These tests rebuild each trace
the per-element way (one Python value per packet, queue by queue) from
the run's own datapaths and require equal values, dtypes and queue ids.
They also require that no numpy view of a column outlives the run: an
``array`` that exports its buffer refuses ``append``.
"""

import numpy as np
import pytest

from repro.bench.nicsim import NicSimParams
from repro.sim import nicsim
from repro.sim.nicsim import NicDatapathSimulator

SINGLE = NicSimParams(
    model="dpdk", workload="bursty-imix", offered_load_gbps=24.0,
    packets=1500, seed=7,
)
RSS = NicSimParams(
    model="dpdk", workload="imix", offered_load_gbps=20.0, packets=600,
    num_queues=4, rss="zipf", system="NFP6000-BDW", iommu_enabled=True,
    dma_tags=16, ring_depth=256, seed=7,
)


def per_element_trace(queues):
    """The trace one Python value at a time, queue by queue."""
    return {
        "arrivals_ns": np.asarray(
            [t for q in queues for t in q.arrivals], dtype=np.float64
        ),
        "dones_ns": np.asarray(
            [t for q in queues for t in q.dones], dtype=np.float64
        ),
        "notifies_ns": np.asarray(
            [t for q in queues for t in q.notifies], dtype=np.float64
        ),
        "sizes": np.asarray(
            [s for q in queues for s in q.delivered_sizes], dtype=np.int64
        ),
        "queue_ids": np.asarray(
            [q.queue_index for q in queues for _ in q.dones], dtype=np.int64
        ),
    }


@pytest.mark.parametrize("params", [SINGLE, RSS], ids=["one-queue", "rss-4"])
def test_traces_equal_the_per_element_construction(monkeypatch, params):
    devices = []
    finish = nicsim._Device.finish

    def keep(device):
        devices.append(device)
        return finish(device)

    monkeypatch.setattr(nicsim._Device, "finish", keep)
    simulator = NicDatapathSimulator(params)
    simulator.run()
    (device,) = devices
    assert set(simulator.last_traces) == {"tx", "rx"}
    for direction, queues in device.directions:
        assert len(queues) == params.num_queues
        trace = simulator.last_traces[direction]
        for field, expected in per_element_trace(queues).items():
            actual = getattr(trace, field)
            assert actual.dtype == expected.dtype, field
            np.testing.assert_array_equal(actual, expected, err_msg=field)
        if params.num_queues > 1:
            assert set(trace.queue_ids.tolist()) == set(range(4))
        # Neither the statistics nor the traces left a view of a column
        # alive: each still accepts an append.
        for queue in queues:
            for column in (queue.arrivals, queue.dones, queue.notifies):
                column.append(0.0)
            queue.delivered_sizes.append(0)
