"""The paper's analytic model bounds every simulated bandwidth benchmark.

``PCIeModel.effective_bandwidth_gbps`` is the payload rate a Gen3 x8 link
delivers when its TLPs go back to back: the link rate scaled by payload
over wire bytes, per direction (read completions, write TLPs, or the
busier direction of the alternating mix).  The simulated DMA engine
moves the same TLPs over the same link and can only add to their time
(host latency, IOTLB walks, NUMA and cache penalties, the device's issue
spacing and slot limit).  So no ``BW_RD``, ``BW_WR`` or ``BW_RDWR``
result may exceed the model's ``"read"``, ``"write"`` or
``"bidirectional"`` figure for its transfer size, whatever the system,
window, cache state, placement, IOMMU setting, offset, order, seed or
transaction count.  The slack allows float rounding only.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bench.micro import run_micro_benchmark
from repro.bench.params import COMMON_TRANSFER_SIZES, WINDOW_SWEEP, BenchmarkParams
from repro.core.model import PCIeModel
from repro.sim.profiles import get_profile, profile_names

#: The model direction each bandwidth benchmark is bounded by.
DIRECTIONS = {"BW_RD": "read", "BW_WR": "write", "BW_RDWR": "bidirectional"}
MODEL = PCIeModel.gen3_x8()
RELATIVE_SLACK = 1e-9


@st.composite
def bandwidth_params(draw) -> BenchmarkParams:
    system = draw(st.sampled_from(profile_names()))
    remote = get_profile(system).is_numa and draw(st.booleans())
    return BenchmarkParams(
        kind=draw(st.sampled_from(tuple(DIRECTIONS))),
        transfer_size=draw(
            st.one_of(
                st.sampled_from((8, *COMMON_TRANSFER_SIZES)),
                st.integers(min_value=1, max_value=2048),
            )
        ),
        window_size=draw(st.sampled_from(WINDOW_SWEEP)),
        offset=draw(st.sampled_from((0, 0, 8, 32, 63))),
        pattern=draw(st.sampled_from(("random", "sequential"))),
        cache_state=draw(st.sampled_from(("cold", "host_warm", "device_warm"))),
        placement="remote" if remote else "local",
        iommu_enabled=draw(st.booleans()),
        system=system,
        transactions=draw(
            st.one_of(
                st.sampled_from((1, 2, 1000)),
                st.integers(min_value=1, max_value=1000),
            )
        ),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


@given(params=bandwidth_params())
@settings(max_examples=100, deadline=None)
def test_bandwidth_never_exceeds_the_analytic_model(params):
    result = run_micro_benchmark(params)
    bound = MODEL.effective_bandwidth_gbps(
        params.transfer_size, kind=DIRECTIONS[params.kind.value]
    )
    assert result.bandwidth_gbps <= bound * (1.0 + RELATIVE_SLACK), (
        params.label(),
        result.bandwidth_gbps / bound,
    )
