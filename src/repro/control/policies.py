"""Control policies: observe a window, decide, drive the actuators.

Three policies ship behind the common :class:`Controller` interface:

* :class:`StaticController` — the do-nothing baseline.  Selecting it is
  contractually identical to running without a control plane at all (the
  fabric installs no hooks for it), so ``controller="static"`` runs stay
  bit-identical to the seeded goldens.
* :class:`ThresholdController` — reactive with hysteresis: multiplicative
  knob moves once a violation persists for ``patience`` windows, decay
  once comfort persists, and a dead band between the violate and clear
  thresholds so the loop cannot chatter.
* :class:`AimdController` — AIMD: gentle additive moves every violating
  window, multiplicative backoff when comfortable — the congestion-
  control shape, trading reaction speed for smoother convergence.

The *signals* are shared.  A device occupying most of the arbitrated
fabric's service time (``fabric_share``) is a saturating bulk source —
its latency is queueing behind its own load, not an SLO.  Ring fill
cannot make that call: a *starved* victim's rings also run full, because
the contended fabric will not drain them.  Every non-bulk device with
traffic is latency-sensitive.  For those:

* **wait dominance** (``wait_fraction``: arbitration wait per packet over
  mean latency) triggers the *weights* actuator — the fabric is the
  bottleneck, so boost the victim's arbitration weight;
* **hot-queue concentration** (one queue carrying most of the window's
  packets while other flows' hash buckets still map onto it) triggers the
  *rss* actuator — isolate the elephant's bucket, move the mice off;
* **descriptor hit-rate collapse** triggers the *ddio* actuator — grow
  the starved device's partition share.

Policies are pure observers of :class:`~repro.control.observations.
DeviceWindow` records and talk back only through the actuator interface,
so they unit-test with hand-built observations and no simulator.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ValidationError
from .observations import DeviceWindow

#: Policy names accepted by ``ContentionParams.controller`` and the CLI.
CONTROL_POLICIES = ("static", "threshold", "aimd")

#: Fabric busy share above which a device is classified as a saturating
#: bulk source (its DMAs occupy most of the arbitrated service time, so
#: its latency is self-inflicted queueing rather than an SLO signal).
BULK_FABRIC_SHARE = 0.5

#: Minimum packets a window must carry before its statistics are trusted.
MIN_WINDOW_COUNT = 8


class Controller:
    """One control policy: ticked every window with fresh observations."""

    #: Registry name (overridden by subclasses).
    name = "abstract"

    def tick(
        self,
        now_ns: float,
        devices: Sequence[DeviceWindow],
        actuators,
    ) -> None:
        """Observe one window and drive actuators (see ``runtime.Actuators``)."""
        raise NotImplementedError


class StaticController(Controller):
    """The baseline: never actuates.  Equivalent to no control plane."""

    name = "static"

    def tick(self, now_ns, devices, actuators) -> None:
        return None


class _ReactiveBase(Controller):
    """Shared signal extraction and per-device state for the live policies."""

    def __init__(
        self,
        *,
        violate_wait_fraction: float = 0.35,
        clear_wait_fraction: float = 0.10,
        hot_queue_share: float = 0.5,
        hit_rate_floor: float = 0.6,
        max_weight: float = 16.0,
        max_share_boost: float = 4.0,
    ) -> None:
        self.violate_wait_fraction = violate_wait_fraction
        self.clear_wait_fraction = clear_wait_fraction
        self.hot_queue_share = hot_queue_share
        self.hit_rate_floor = hit_rate_floor
        self.max_weight = max_weight
        self.max_share_boost = max_share_boost
        self._violating: dict[str, int] = {}
        self._comfortable: dict[str, int] = {}
        self._base_weights: tuple[float, ...] | None = None
        self._base_shares: tuple[float, ...] | None = None

    # -- shared signal extraction ---------------------------------------------

    def _is_bulk(self, device: DeviceWindow) -> bool:
        return device.fabric_share >= BULK_FABRIC_SHARE

    def _update_streaks(self, device: DeviceWindow) -> tuple[int, int]:
        """Track consecutive violating / comfortable windows per device."""
        name = device.device
        if device.count < MIN_WINDOW_COUNT or self._is_bulk(device):
            # No trustworthy signal: freeze both streaks.
            return self._violating.get(name, 0), self._comfortable.get(name, 0)
        fraction = device.wait_fraction
        if fraction > self.violate_wait_fraction:
            self._violating[name] = self._violating.get(name, 0) + 1
            self._comfortable[name] = 0
        elif fraction < self.clear_wait_fraction:
            self._comfortable[name] = self._comfortable.get(name, 0) + 1
            self._violating[name] = 0
        # Inside the dead band both streaks hold (hysteresis).
        return self._violating.get(name, 0), self._comfortable.get(name, 0)

    def _queue_loads(
        self, device: DeviceWindow
    ) -> tuple[list[int], int] | None:
        """Per-queue packet loads from the window's bucket counts."""
        if device.bucket_counts is None or device.rss_table is None:
            return None
        loads = [0] * device.num_queues
        for bucket, count in enumerate(device.bucket_counts):
            loads[device.rss_table[bucket]] += count
        return loads, sum(loads)

    def _hot_queue_pathology(
        self, device: DeviceWindow
    ) -> tuple[int, int, list[int]] | None:
        """Detect the elephant/mice co-location pathology.

        Returns ``(hot_queue, elephant_bucket, movable_buckets)`` when one
        queue carries more than ``hot_queue_share`` of the window's
        packets *and* buckets other than the biggest one still map onto
        it — i.e. mice are trapped behind the elephant and re-steering
        can free them.  ``None`` otherwise.
        """
        queue_view = self._queue_loads(device)
        if queue_view is None:
            return None
        loads, total = queue_view
        if total < MIN_WINDOW_COUNT:
            return None
        hot_queue = max(range(len(loads)), key=lambda q: (loads[q], -q))
        if loads[hot_queue] <= self.hot_queue_share * total:
            return None
        table = device.rss_table
        counts = device.bucket_counts
        on_hot = [b for b in range(len(table)) if table[b] == hot_queue]
        if len(on_hot) <= 1:
            return None  # already isolated
        elephant = max(on_hot, key=lambda b: (counts[b], -b))
        movable = [b for b in on_hot if b != elephant]
        return hot_queue, elephant, movable

    def _spread_buckets(
        self,
        device: DeviceWindow,
        hot_queue: int,
        movable: Sequence[int],
    ) -> list[int]:
        """A new table with ``movable`` buckets spread over the cool queues,
        least-loaded first (deterministic: ties break on queue index)."""
        table = list(device.rss_table)
        counts = device.bucket_counts
        loads, _ = self._queue_loads(device)
        cool = [q for q in range(device.num_queues) if q != hot_queue]
        for bucket in sorted(movable, key=lambda b: (-counts[b], b)):
            target = min(cool, key=lambda q: (loads[q], q))
            table[bucket] = target
            loads[target] += counts[bucket]
        return table

    def _boost_share(
        self, actuators, device: DeviceWindow, factor: float, reason: str
    ) -> None:
        shares = actuators.ddio_shares()
        if shares is None:
            return
        if self._base_shares is None:
            self._base_shares = shares
        base = self._base_shares[device.index]
        cap = base * self.max_share_boost
        current = shares[device.index]
        if current >= cap:
            return
        new_shares = list(shares)
        new_shares[device.index] = min(cap, current * factor)
        actuators.set_ddio_shares(
            tuple(new_shares), device=device.device, reason=reason
        )


class ThresholdController(_ReactiveBase):
    """Reactive policy with hysteresis: act late, act big, back off slowly.

    A violation must persist ``patience`` consecutive windows before the
    knob moves, and every move is multiplicative (``boost``×).  Comfort
    must equally persist before the knob decays back.  The wait-fraction
    dead band between the violate and clear thresholds keeps the loop
    from chattering around one operating point.
    """

    name = "threshold"

    def __init__(self, *, patience: int = 2, boost: float = 2.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if patience < 1:
            raise ValidationError(f"patience must be >= 1, got {patience}")
        if boost <= 1.0:
            raise ValidationError(f"boost must be > 1, got {boost}")
        self.patience = patience
        self.boost = boost

    def tick(self, now_ns, devices, actuators) -> None:
        weights = actuators.weights()
        if weights is not None and self._base_weights is None:
            self._base_weights = weights
        for device in devices:
            violating, comfortable = self._update_streaks(device)
            # RSS: isolate the elephant once the pathology persists.
            pathology = self._hot_queue_pathology(device)
            if pathology is not None:
                hot_queue, elephant, movable = pathology
                streak_key = f"rss:{device.device}"
                streak = self._violating.get(streak_key, 0) + 1
                if streak >= self.patience:
                    self._violating[streak_key] = 0
                    actuators.set_rss_table(
                        device.index,
                        self._spread_buckets(device, hot_queue, movable),
                        reason=(
                            f"queue {hot_queue} carries >"
                            f"{self.hot_queue_share:.0%} of window "
                            f"{device.window_index}; isolating bucket "
                            f"{elephant}, re-steering {len(movable)} buckets"
                        ),
                    )
                else:
                    self._violating[streak_key] = streak
            if self._is_bulk(device) or device.count < MIN_WINDOW_COUNT:
                continue
            # Weights: boost a wait-dominated victim, decay when calm.
            if weights is not None:
                if violating >= self.patience:
                    current = actuators.weights()[device.index]
                    if current < self.max_weight:
                        new = list(actuators.weights())
                        new[device.index] = min(
                            self.max_weight, current * self.boost
                        )
                        actuators.set_weights(
                            tuple(new),
                            device=device.device,
                            reason=(
                                f"wait-dominated for {violating} "
                                f"window(s) (wait fraction now "
                                f"{device.wait_fraction:.2f}, violate > "
                                f"{self.violate_wait_fraction})"
                            ),
                        )
                elif comfortable >= self.patience:
                    base = self._base_weights[device.index]
                    current = actuators.weights()[device.index]
                    if current > base:
                        new = list(actuators.weights())
                        new[device.index] = max(base, current / self.boost)
                        actuators.set_weights(
                            tuple(new),
                            device=device.device,
                            reason=(
                                f"comfortable for {comfortable} "
                                f"window(s) (wait fraction "
                                f"{device.wait_fraction:.2f} < "
                                f"{self.clear_wait_fraction}); decaying"
                            ),
                        )
            # DDIO: grow a starved victim's partition share.
            hit_rate = device.descriptor_hit_rate
            if (
                hit_rate is not None
                and hit_rate < self.hit_rate_floor
                and violating >= self.patience
            ):
                self._boost_share(
                    actuators,
                    device,
                    self.boost,
                    reason=(
                        f"descriptor hit rate {hit_rate:.2f} < "
                        f"{self.hit_rate_floor} while wait-dominated"
                    ),
                )


class AimdController(_ReactiveBase):
    """AIMD policy: additive increase every violating window,
    multiplicative decrease when comfortable.

    The congestion-control shape — small persistent corrections instead
    of the threshold policy's stepped moves.  The RSS actuator moves one
    bucket per window (the heaviest movable one) rather than re-steering
    the whole table at once.
    """

    name = "aimd"

    def __init__(
        self, *, increase: float = 1.0, decrease: float = 0.5, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        if increase <= 0:
            raise ValidationError(f"increase must be positive, got {increase}")
        if not 0.0 < decrease < 1.0:
            raise ValidationError(
                f"decrease must be within (0, 1), got {decrease}"
            )
        self.increase = increase
        self.decrease = decrease

    def tick(self, now_ns, devices, actuators) -> None:
        weights = actuators.weights()
        if weights is not None and self._base_weights is None:
            self._base_weights = weights
        for device in devices:
            violating, comfortable = self._update_streaks(device)
            # RSS: move one bucket per window while the pathology holds.
            pathology = self._hot_queue_pathology(device)
            if pathology is not None:
                hot_queue, elephant, movable = pathology
                counts = device.bucket_counts
                bucket = max(movable, key=lambda b: (counts[b], -b))
                actuators.set_rss_table(
                    device.index,
                    self._spread_buckets(device, hot_queue, [bucket]),
                    reason=(
                        f"queue {hot_queue} hot in window "
                        f"{device.window_index}; moving bucket {bucket}"
                    ),
                )
            if self._is_bulk(device) or device.count < MIN_WINDOW_COUNT:
                continue
            if weights is not None:
                if violating >= 1:
                    current = actuators.weights()[device.index]
                    if current < self.max_weight:
                        new = list(actuators.weights())
                        new[device.index] = min(
                            self.max_weight, current + self.increase
                        )
                        actuators.set_weights(
                            tuple(new),
                            device=device.device,
                            reason=(
                                f"wait-dominated (fraction now "
                                f"{device.wait_fraction:.2f}); additive "
                                f"increase"
                            ),
                        )
                elif comfortable >= 1:
                    base = self._base_weights[device.index]
                    current = actuators.weights()[device.index]
                    if current > base:
                        new = list(actuators.weights())
                        new[device.index] = max(base, current * self.decrease)
                        actuators.set_weights(
                            tuple(new),
                            device=device.device,
                            reason=(
                                f"comfortable (wait fraction "
                                f"{device.wait_fraction:.2f}); "
                                f"multiplicative decrease"
                            ),
                        )
            hit_rate = device.descriptor_hit_rate
            if (
                hit_rate is not None
                and hit_rate < self.hit_rate_floor
                and violating >= 1
            ):
                self._boost_share(
                    actuators,
                    device,
                    1.0 + self.increase / 10.0,
                    reason=(
                        f"descriptor hit rate {hit_rate:.2f} < "
                        f"{self.hit_rate_floor}; additive share increase"
                    ),
                )


def build_controller(name: str) -> Controller:
    """Instantiate a policy by registry name."""
    key = str(name).strip().lower()
    if key == "static":
        return StaticController()
    if key == "threshold":
        return ThresholdController()
    if key == "aimd":
        return AimdController()
    raise ValidationError(
        f"unknown controller {name!r}; valid: {', '.join(CONTROL_POLICIES)}"
    )
