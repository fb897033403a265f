"""Closed-loop control plane over the fabric's QoS knobs.

The package splits along the classic control-loop seams:

- :mod:`repro.control.observations` — what the policy sees each window
  (immutable per-device telemetry deltas).
- :mod:`repro.control.policies` — the decision logic: a static baseline,
  a threshold-reactive policy with hysteresis, and an AIMD policy.
- :mod:`repro.control.actions` — the audit log of every actuation.
- :mod:`repro.control.runtime` — the tick driver that lives inside the
  shared event loop and wires observers, policies and actuators to a
  live :class:`~repro.sim.fabric.FabricSimulator` run.
"""

from .actions import ACTUATOR_KINDS, ControlAction
from .observations import DeviceWindow
from .policies import (
    CONTROL_POLICIES,
    AimdController,
    Controller,
    StaticController,
    ThresholdController,
    build_controller,
)
from .runtime import (
    BUCKETS_PER_QUEUE,
    DEFAULT_CONTROL_WINDOW_NS,
    MIN_CONTROL_WINDOW_NS,
    Actuators,
    ControlRuntime,
    RssSteering,
    identity_table,
    steering_table_length,
)

__all__ = [
    "ACTUATOR_KINDS",
    "BUCKETS_PER_QUEUE",
    "CONTROL_POLICIES",
    "DEFAULT_CONTROL_WINDOW_NS",
    "MIN_CONTROL_WINDOW_NS",
    "Actuators",
    "AimdController",
    "ControlAction",
    "ControlRuntime",
    "Controller",
    "DeviceWindow",
    "RssSteering",
    "StaticController",
    "ThresholdController",
    "build_controller",
    "identity_table",
    "steering_table_length",
]
