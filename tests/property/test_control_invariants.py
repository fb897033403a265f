"""Invariant harness for controlled (closed-loop) contention runs.

Property-style tests over a grid of (policy, workloads, windows, seeds)
asserting the laws a run with a live control plane must obey:

* **conservation survives actuation** — per-device packet and byte
  conservation hold exactly as in the static fabric, no matter how many
  knobs the controller retunes mid-run;
* **the action log is faithful** — actions are time-ordered within the
  run, every action names a known actuator and device, every ``before``
  differs from its ``after``, and consecutive actions on the same knob
  chain (one action's ``after`` is the next one's ``before``);
* **static equivalence** — ``controller="static"`` (the default) builds
  no runtime at all, so its results carry no controller keys and equal a
  run that never mentioned the control plane;
* **determinism** — identical seeds reproduce identical controlled runs,
  action log included.

The ``CONTROL_POLICY`` environment variable pins the policy choice
(e.g. ``CONTROL_POLICY=aimd``), so a CI matrix can run the same grid
once per policy.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench.nicsim import NicSimParams
from repro.control import ACTUATOR_KINDS, CONTROL_POLICIES
from repro.sim.fabric import (
    ContentionParams,
    ContentionResult,
    FabricSimulator,
)
from repro.sim.rng import SimRng
from repro.units import KIB, MIB
from repro.workloads import SingleHotFlow, Workload, build_workload

_POLICY_ENV = os.environ.get("CONTROL_POLICY")
#: Policies the grid samples; a CI matrix pins one via CONTROL_POLICY.
POLICY_CHOICES = (_POLICY_ENV,) if _POLICY_ENV else CONTROL_POLICIES

WORKLOADS = ("fixed", "imix", "bursty")


def _build_devices(
    victim_workload: str, aggressor_workload: str, packets: int
) -> tuple[list[NicSimParams], list[Workload]]:
    """The pair's records and their traffic: the victim hides a hot flow."""
    victim = NicSimParams(
        model="dpdk",
        workload=victim_workload,
        packet_size=512,
        offered_load_gbps=6.0,
        packets=packets,
        ring_depth=64,
        num_queues=2,
        payload_window=256 * KIB,
        dma_tags=12,
    )
    aggressor = NicSimParams(
        model="kernel",
        workload=aggressor_workload,
        packets=3 * packets,
        payload_window=16 * MIB,
    )
    workloads = [
        victim.build_workload().with_(
            flows=SingleHotFlow(flows=16, hot_fraction=0.5)
        ),
        aggressor.build_workload(),
    ]
    return [victim, aggressor], workloads


def _params(devices: list[NicSimParams], seed: int, **fields) -> ContentionParams:
    return ContentionParams(
        devices=devices,
        names=("victim", "aggressor"),
        system="NFP6000-HSW",
        iommu_enabled=True,
        arbiter="wrr",
        weights=(1.0, 8.0),
        seed=seed,
        **fields,
    )


def _run(
    victim_workload: str,
    aggressor_workload: str,
    policy: str,
    window_ns: float,
    packets: int,
    seed: int,
) -> tuple[list[Workload], list[NicSimParams], ContentionResult]:
    devices, workloads = _build_devices(
        victim_workload, aggressor_workload, packets
    )
    params = _params(
        devices,
        seed,
        controller=policy,
        control_window_ns=None if policy == "static" else window_ns,
    )
    result = FabricSimulator(params, workloads=workloads).run()
    return workloads, devices, result


class TestControlInvariants:
    @given(
        victim_workload=st.sampled_from(WORKLOADS),
        aggressor_workload=st.sampled_from(WORKLOADS),
        policy=st.sampled_from(POLICY_CHOICES),
        window_ns=st.sampled_from((10_000.0, 20_000.0, 50_000.0)),
        packets=st.integers(min_value=80, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_conservation_survives_actuation(
        self,
        victim_workload,
        aggressor_workload,
        policy,
        window_ns,
        packets,
        seed,
    ):
        workloads, devices, result = _run(
            victim_workload, aggressor_workload, policy, window_ns,
            packets, seed,
        )
        assert result.controller == policy
        for workload, device, record in zip(workloads, devices, result.devices):
            rng = SimRng(seed)
            nic = record.result
            paths = [nic.tx] + ([nic.rx] if nic.rx is not None else [])
            for path in paths:
                schedule = workload.generate(
                    device.packets, rng, stream=path.direction
                )
                offered_bytes = int(np.asarray(schedule.sizes).sum())
                assert path.offered_packets == schedule.count
                assert (
                    path.delivered_packets + path.drops + path.in_flight
                    == path.offered_packets
                ), (record.name, path.direction, policy)
                assert path.offered_bytes == offered_bytes
                assert (
                    path.payload_bytes + path.dropped_bytes
                    <= path.offered_bytes
                )
                assert path.ring.max_occupancy <= path.ring.depth
        for attribute in ("ingress", "walker"):
            total_busy = sum(
                getattr(record, attribute).busy_ns_total
                for record in result.devices
            )
            assert total_busy <= result.duration_ns + 1e-6

    @given(
        policy=st.sampled_from(POLICY_CHOICES),
        window_ns=st.sampled_from((10_000.0, 20_000.0)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=6, deadline=None)
    def test_action_log_is_faithful(self, policy, window_ns, seed):
        _, _, result = _run("fixed", "imix", policy, window_ns, 150, seed)
        if policy == "static":
            assert result.control_actions == ()
            return
        times = [action.time_ns for action in result.control_actions]
        assert times == sorted(times)
        known_devices = {record.name for record in result.devices} | {"*"}
        last_value: dict[tuple[str, str], tuple] = {}
        for action in result.control_actions:
            assert action.actuator in ACTUATOR_KINDS
            assert action.device in known_devices
            assert action.before != action.after
            assert action.reason
            assert 0.0 < action.time_ns <= result.duration_ns
            # Weights/ddio are fabric-wide vectors: each action chains
            # off the previous one's outcome.
            key = (action.actuator, "" if action.actuator != "rss"
                   else action.device)
            if key in last_value:
                assert action.before == last_value[key]
            last_value[key] = action.after

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=4, deadline=None)
    def test_identical_seeds_reproduce_identical_controlled_runs(self, seed):
        policy = POLICY_CHOICES[-1]
        _, _, first = _run("fixed", "imix", policy, 20_000.0, 120, seed)
        _, _, second = _run("fixed", "imix", policy, 20_000.0, 120, seed)
        assert first == second
        assert first.control_actions == second.control_actions

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=3, deadline=None)
    def test_static_default_carries_no_controller_keys(self, seed):
        devices, workloads = _build_devices("fixed", "imix", 100)
        plain = FabricSimulator(
            _params(devices, seed), workloads=workloads
        ).run()
        static = FabricSimulator(
            _params(devices, seed, controller="static"), workloads=workloads
        ).run()
        assert static == plain
        record = static.as_dict()
        assert "controller" not in record
        assert "control_window_ns" not in record
        assert "control_actions" not in record

    def test_hot_flow_steering_conserves_under_every_policy(self):
        # The RSS actuator rewrites the live dispatch table mid-run;
        # every packet must still land exactly once.
        workload = build_workload(
            "fixed", size=512, load_gbps=42.0
        ).with_(flows=SingleHotFlow(flows=64, hot_fraction=0.75))
        for policy in POLICY_CHOICES:
            params = ContentionParams(
                devices=(
                    NicSimParams(
                        model="dpdk", packets=1200, ring_depth=32, num_queues=2
                    ),
                ),
                controller=policy,
                control_window_ns=None if policy == "static" else 20_000.0,
            )
            result = FabricSimulator(params, workloads=(workload,)).run()
            tx = result.devices[0].result.tx
            assert (
                tx.delivered_packets + tx.drops + tx.in_flight
                == tx.offered_packets
            ), policy
