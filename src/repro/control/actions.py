"""The controller action log: what was retuned, when, and why.

Every actuation the control plane performs mid-run is recorded as one
:class:`ControlAction` — the audit trail a production control loop would
emit.  Actions ride along on the run's
:class:`~repro.sim.fabric.ContentionResult`, serialise with it, and feed
``analysis.format_control_summary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ValidationError, record_reader

#: The actuator kinds a controller can drive.
ACTUATOR_KINDS = ("weights", "rss", "ddio")


@dataclass(frozen=True)
class ControlAction:
    """One knob retuned by the control plane.

    Attributes:
        time_ns: simulation time the actuation took effect.
        device: name of the device the action targets (``"*"`` for
            fabric-wide actions such as a full weight vector update).
        actuator: which knob was driven — ``"weights"``, ``"rss"`` or
            ``"ddio"``.
        reason: short human-readable trigger description.
        before / after: the knob's value either side of the actuation
            (JSON-serialisable lists/numbers).
    """

    time_ns: float
    device: str
    actuator: str
    reason: str
    before: tuple[float, ...] | tuple[int, ...]
    after: tuple[float, ...] | tuple[int, ...]

    def __post_init__(self) -> None:
        if self.actuator not in ACTUATOR_KINDS:
            raise ValidationError(
                f"unknown actuator {self.actuator!r}; "
                f"valid: {', '.join(ACTUATOR_KINDS)}"
            )
        object.__setattr__(self, "before", tuple(self.before))
        object.__setattr__(self, "after", tuple(self.after))

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        return {
            "time_ns": self.time_ns,
            "device": self.device,
            "actuator": self.actuator,
            "reason": self.reason,
            "before": list(self.before),
            "after": list(self.after),
        }

    @classmethod
    @record_reader
    def from_dict(cls, record: Mapping[str, object]) -> "ControlAction":
        """Rebuild an action from :meth:`as_dict` output."""
        return cls(
            time_ns=float(record["time_ns"]),  # type: ignore[arg-type]
            device=str(record["device"]),
            actuator=str(record["actuator"]),
            reason=str(record["reason"]),
            before=tuple(record["before"]),  # type: ignore[arg-type]
            after=tuple(record["after"]),  # type: ignore[arg-type]
        )
