"""Laws of the two run records, over drawn records of either kind.

``NicSimParams`` describes a solo NIC run or one device of a contention
run; ``ContentionParams`` describes a shared-host run.  They are what the
CLI, the runner, perfbench and the goldens hand to the simulators, and
``from_dict`` is how a record comes back from disk.  Four laws:

* **exact round trip** — every record rebuilds from ``as_dict()`` (also
  through JSON) to an equal record with an equal dict;
* **malformed values are rejected** — replacing one value of a record's
  dict, at the top level or inside a device, with a wrong-typed or
  out-of-range one makes ``from_dict`` raise ``ValidationError`` and
  nothing else.  An integer in a real-valued field is not wrong-typed;
* **the one-device contract** — a contention run of one device produces
  exactly the ``NicSimResult`` of that device's solo record
  (``params.solo_params(0)``), on every host profile, IOMMU setting and
  arbiter;
* **a record that constructs, runs** — every drawn record the
  constructor accepts runs to the end, solo (host-coupled or not, on
  either engine) or contended (every fabric knob, both cache models,
  partitions and controllers).  The strategies draw the knobs freely and
  discard what the constructor refuses; they copy none of its rules but
  the control window's floor, which they draw from.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.control import MIN_CONTROL_WINDOW_NS
from repro.errors import ValidationError
from repro.sim.engine import ARBITER_SCHEMES, WEIGHTED_SCHEMES
from repro.sim.iommu import SUPPORTED_PAGE_SIZES
from repro.sim.profiles import get_profile, profile_names
from repro.units import KIB, MIB
from repro.workloads import flow_model_names, workload_names

MODELS = ("simple", "kernel", "dpdk")
CACHE_STATES = ("cold", "host_warm", "device_warm")
WINDOWS = (4 * KIB, 256 * KIB, 4 * MIB, 64 * MIB)

#: Values no ``NicSimParams`` field accepts, whatever the rest of the
#: record holds: wrong types first, then out-of-range values.
NICSIM_BAD = {
    "model": (5, None, ["dpdk"], "quantum"),
    "workload": (5, None, "morse-code"),
    "packet_size": (10.5, "64", True, None, 0, -64),
    "offered_load_gbps": ("5", True, 0.0, -1.0, math.nan, math.inf),
    "packets": (10.5, "10", False, None, 0, -1),
    "ring_depth": (2.5, "8", None, 0),
    "duplex": ("no", 1, None),
    "rx_backpressure": ("false", 0, None),
    "system": (5, ["NFP6000-HSW"], "NoSuchHost"),
    "iommu_enabled": ("yes", 1, None),
    "iommu_page_size": (4096.0, "4K", None, 1000),
    "payload_window": (1.5, "4M", None, 0, -1),
    "payload_cache_state": (5, None, "lukewarm"),
    "payload_placement": (5, None, "mars"),
    "num_queues": (1.5, "2", None, 0, 300),
    "dma_tags": (2.5, "8", 0, -4),
    "rss": (5, None, "chaos"),
    "rss_table": ("012", 5, [1.5], [], [99]),
    "seed": (1.5, "7", True, -1),
    "retain_samples": ("false", 0),
    "mode": (5, None, "warp"),
}

#: What a contention device may not set: the fabric owns the host and
#: the engine, so even a valid value is refused.
FABRIC_OWNED_BAD = {
    "system": ("NFP6000-HSW",),
    "iommu_page_size": (2 * MIB,),
    "mode": ("batch",),
}

#: Values no ``ContentionParams`` field accepts for any 1-4 device run.
#: Five entries is the wrong count for every run.
CONTENTION_BAD = {
    "devices": (5, None, "abc", [], [5], [None]),
    "names": (5, "ab", [1, 2], [None], ["a", "b", "c", "d", "e"]),
    "system": (5, None, "NoSuchHost"),
    "iommu_enabled": ("yes", 1, None),
    "iommu_page_size": (4096.0, "4K", None, 1000),
    "arbiter": (5, None, "lottery"),
    "weights": ("8:1", 5, ["a"], [True], [-1.0], [math.nan], [1.0] * 5),
    "topology": (5, "", "nobody=root", "a=sw9"),
    "quantum_ns": ("16", True, 0.0, -1.0, math.nan, math.inf),
    "ddio_partition": ("1:1", 5, ["a"], [-1.0], [math.inf], [1.0] * 5),
    "cache_model": (5, None, "magic"),
    "controller": (5, None, "pid"),
    "control_window_ns": ("5", True, 0.0, -1.0, 999.0, math.nan),
    "mode": (5, None, "warp"),
    "engine_profile": ("yes", 1, None),
    "seed": (1.5, "7", True, -1),
}


def _built(record_type, **fields):
    """The record, or a discarded example when its constructor refuses it."""
    try:
        return record_type(**fields)
    except ValidationError:
        reject()


@st.composite
def device_records(
    draw, *, packets=st.integers(1, 10_000), windows=st.sampled_from(WINDOWS)
) -> NicSimParams:
    """A contention device: every datapath knob, host half left empty."""
    num_queues = draw(st.integers(1, 4))
    table = (
        st.none()
        if num_queues == 1
        else st.none()
        | st.lists(st.integers(0, num_queues - 1), min_size=1, max_size=8)
    )
    return _built(
        NicSimParams,
        model=draw(st.sampled_from(MODELS)),
        workload=draw(st.sampled_from(workload_names())),
        packet_size=draw(st.integers(64, 9000)),
        offered_load_gbps=draw(
            st.none() | st.integers(1, 60) | st.floats(0.5, 60.0)
        ),
        packets=draw(packets),
        ring_depth=draw(st.integers(1, 1024)),
        duplex=draw(st.booleans()),
        rx_backpressure=draw(st.booleans()),
        payload_window=draw(windows),
        payload_cache_state=draw(st.sampled_from(CACHE_STATES)),
        num_queues=num_queues,
        dma_tags=draw(st.none() | st.integers(1, 64)),
        rss=draw(st.sampled_from(flow_model_names())),
        rss_table=draw(table),
        seed=draw(st.none() | st.integers(0, 2**32)),
        retain_samples=draw(st.booleans()),
    )


@st.composite
def solo_records(draw, devices=device_records()) -> NicSimParams:
    """A solo run: a device record, host-coupled or not, either engine."""
    device = draw(devices)
    mode = draw(st.sampled_from(("exact", "batch")))
    system = draw(st.none() | st.sampled_from(profile_names()))
    if system is None:
        return device.with_(mode=mode)
    two_sockets = get_profile(system).sockets > 1
    return device.with_(
        mode=mode,
        system=system,
        iommu_enabled=draw(st.booleans()),
        iommu_page_size=draw(st.sampled_from(SUPPORTED_PAGE_SIZES)),
        payload_placement=draw(
            st.sampled_from(("local", "remote") if two_sockets else ("local",))
        ),
    )


#: Finite positive reals of the fabric knobs (weights, shares, quanta).
POSITIVE = st.integers(1, 16) | st.floats(0.1, 16.0)

#: Control windows from the records' 1 us floor up to 100 us.
CONTROL_WINDOWS = st.integers(1_000, 100_000) | st.floats(
    MIN_CONTROL_WINDOW_NS, 100_000.0
)


@st.composite
def contention_records(
    draw,
    devices=st.lists(device_records(), min_size=1, max_size=4),
) -> ContentionParams:
    """A shared-host run over 1-4 devices with every fabric knob drawn."""
    devices = draw(devices)
    count = len(devices)
    names = draw(st.none() | st.just(tuple(f"nic{i}" for i in range(count))))
    labels = names or tuple(f"dev{i}" for i in range(count))
    arbiter = draw(st.sampled_from(ARBITER_SCHEMES))
    positive = POSITIVE
    shares = st.lists(positive, min_size=count, max_size=count)
    # The tree puts the first device on the root port and the rest (or
    # a lone device) behind one switch.
    shape = draw(st.sampled_from(("none", "flat", "tree")))
    topology = {
        "none": None,
        "flat": ",".join(f"{label}=root" for label in labels),
        "tree": ",".join(
            [f"{labels[0]}=root"] * (count > 1)
            + [f"{label}=sw0" for label in labels[1:] or labels]
            + ["sw0=root"]
        ),
    }[shape]
    controller = draw(st.sampled_from(("static", "threshold", "aimd")))
    return _built(
        ContentionParams,
        devices=tuple(devices),
        names=names,
        system=draw(st.sampled_from(profile_names())),
        iommu_enabled=draw(st.booleans()),
        iommu_page_size=draw(st.sampled_from(SUPPORTED_PAGE_SIZES)),
        arbiter=arbiter,
        weights=draw(st.none() | shares) if arbiter in WEIGHTED_SCHEMES else None,
        topology=topology,
        quantum_ns=draw(st.none() | positive) if arbiter == "sliced" else None,
        ddio_partition=draw(st.none() | shares),
        cache_model=draw(st.sampled_from(("statistical", "faithful"))),
        controller=controller,
        control_window_ns=(
            None if controller == "static" else draw(st.none() | CONTROL_WINDOWS)
        ),
        mode=draw(st.sampled_from(("exact", "batch"))),
        engine_profile=draw(st.booleans()),
        seed=draw(st.none() | st.integers(0, 2**32)),
    )


RECORDS = solo_records() | contention_records()


@given(record=RECORDS)
@settings(max_examples=200, deadline=None)
def test_records_round_trip_exactly(record):
    data = record.as_dict()
    rebuilt = type(record).from_dict(data)
    assert rebuilt == record
    assert rebuilt.as_dict() == data
    assert type(record).from_dict(json.loads(json.dumps(data))) == record


@given(record=RECORDS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_bad_value_raises_validation_error(record, data):
    record_dict = record.as_dict()
    target, table = record_dict, NICSIM_BAD
    if isinstance(record, ContentionParams):
        table = CONTENTION_BAD
        if data.draw(st.booleans(), label="inside a device"):
            devices = record_dict["devices"]
            target = devices[data.draw(st.integers(0, len(devices) - 1))]
            table = {
                key: NICSIM_BAD[key] + FABRIC_OWNED_BAD.get(key, ())
                for key in NICSIM_BAD
            }
    key = data.draw(st.sampled_from(sorted(table)), label="key")
    target[key] = data.draw(st.sampled_from(table[key]), label="value")
    with pytest.raises(ValidationError):
        type(record).from_dict(record_dict)


@pytest.mark.parametrize("bad", (None, [], ["a"], "record", 5))
def test_anything_but_a_mapping_is_rejected(bad):
    for reader in (NicSimParams.from_dict, ContentionParams.from_dict):
        with pytest.raises(ValidationError, match="expected a mapping"):
            reader(bad)
    pair = ContentionParams(devices=(NicSimParams(), NicSimParams())).as_dict()
    pair["devices"][1] = bad
    with pytest.raises(ValidationError, match="expected a mapping"):
        ContentionParams.from_dict(pair)


@st.composite
def one_device_runs(draw) -> ContentionParams:
    """A one-device run: static control plane, shared statistical cache."""
    device = device_records(packets=st.integers(40, 400))
    params = draw(contention_records(devices=st.tuples(device)))
    return params.with_(
        ddio_partition=None,
        cache_model="statistical",
        controller="static",
        control_window_ns=None,
    )


@given(params=one_device_runs())
@settings(max_examples=60, deadline=None)
def test_one_device_run_equals_its_solo_record(params):
    solo = run_nicsim_benchmark(params.solo_params(0))
    assert run_contention_benchmark(params).devices[0].result == solo


#: Run-sized devices: a few dozen packets (some below two bursts), and
#: windows the faithful cache warms in milliseconds.
RUN_DEVICES = device_records(
    packets=st.integers(1, 60),
    windows=st.sampled_from((4 * KIB, 256 * KIB, 4 * MIB)),
)


@given(record=solo_records(devices=RUN_DEVICES))
@settings(max_examples=150, deadline=None)
def test_a_solo_record_that_constructs_runs(record):
    result = run_nicsim_benchmark(record)
    assert result.tx.offered_packets == record.packets


@given(
    params=contention_records(
        devices=st.lists(RUN_DEVICES, min_size=1, max_size=4)
    )
)
@settings(max_examples=80, deadline=None)
def test_a_contention_record_that_constructs_runs(params):
    result = run_contention_benchmark(params)
    assert [device.result.tx.offered_packets for device in result.devices] == [
        device.packets for device in params.devices
    ]
