"""Composable fabric topologies: devices → switches → root port.

PR 4's shared-host fabric hard-wires the degenerate topology: every device
hangs directly off one root port, so the only arbitration point is the
root-level :class:`~repro.sim.engine.ArbitratedResource`.  Real PCIe
fabrics are *trees* — devices attach to N-port switches, switches cascade
into other switches, and exactly one link reaches the root port — and
arbitration composes level by level: a TLP first wins its switch's
upstream port, then the next switch up, then the root port.

This module supplies that layer:

* :class:`FabricTopology` is the frozen description — a ``child → parent``
  map over device names, switch names and the distinguished :data:`ROOT`
  node — with a compact textual form (``"victim=root,aggressor=sw0,
  sw0=root"``) used by the CLI and by serialised parameters.

* :func:`compile_topology` turns one topology into a
  :class:`CompiledTopology` for one shared serial resource (the
  root-complex ingress pipeline, the IOMMU page walker): one
  :class:`~repro.sim.engine.ArbitratedResource` per tree node, each
  arbitrating over that node's children with the configured scheme.  A
  request enters at its device's attachment node and ascends
  store-and-forward: each hop's port is occupied for the request's
  service demand, and the request moves one level up when that hop's
  service completes.  Each switch's upstream link is **credit flow
  controlled** (one outstanding request, the credit returned when the
  request's root-level service completes), so a switch cannot flood its
  parent's queues with a backlog the parent has not accepted.  Weights
  compose naturally — a switch competes at its parent with the *sum* of
  its subtree's device weights.

Two consequences the experiments lean on:

* The upstream credit makes a switch *absorb* a bulk aggressor's backlog:
  at most one of its requests is pending at the parent at any time, so a
  victim on its own root port waits behind at most one in-flight
  aggressor grant instead of the whole backlog — topology alone provides
  isolation, even under fcfs.
* A victim *sharing* a switch with the aggressor queues against the full
  per-port backlog at that switch (and pays the extra store-and-forward
  hop), the worst placement.

Degenerate-case contract: the flat topology (every device attached to
:data:`ROOT`) compiles to exactly one root-level arbiter with one client
per device, requests take the same code path as PR 4's flat fabric, and
multi-device runs reproduce the pre-topology results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import ValidationError
from .engine import ArbitratedResource, ArbiterClientStats, EventLoop, TagPool

#: Name of the distinguished root-port node every topology drains into.
ROOT = "root"


@dataclass(frozen=True)
class FabricTopology:
    """A fabric tree as ordered ``(child, parent)`` links.

    Children are device or switch names; parents are switch names or
    :data:`ROOT`.  A name that appears as some link's parent is a switch;
    every other child is a device.  Link order is meaningful: it fixes the
    client order (and therefore the deterministic tie-breaks) of each
    node's arbiter.
    """

    links: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        links = tuple((str(child), str(parent)) for child, parent in self.links)
        object.__setattr__(self, "links", links)
        if not links:
            raise ValidationError("a topology needs at least one link")
        children = [child for child, _ in links]
        if len(set(children)) != len(children):
            raise ValidationError(
                f"every node needs exactly one parent; duplicate children in "
                f"{children}"
            )
        if ROOT in children:
            raise ValidationError(f"{ROOT!r} is the root port; it has no parent")
        parent_map = dict(links)
        for child, parent in links:
            if child == parent:
                raise ValidationError(f"node {child!r} cannot be its own parent")
            if parent != ROOT and parent not in parent_map:
                raise ValidationError(
                    f"node {child!r} attaches to undeclared switch {parent!r}; "
                    f"declare it with {parent}=<parent>"
                )
        # Every node must reach the root without cycles.
        for child, _ in links:
            seen = {child}
            node = child
            while node != ROOT:
                node = parent_map[node]
                if node in seen:
                    raise ValidationError(
                        f"topology cycle through {sorted(seen)}"
                    )
                seen.add(node)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def flat(cls, device_names: Sequence[str]) -> "FabricTopology":
        """The degenerate topology: every device directly on the root port."""
        return cls(tuple((name, ROOT) for name in device_names))

    @classmethod
    def parse(cls, text: str) -> "FabricTopology":
        """Parse the compact ``"a=root,b=sw0,sw0=root"`` form."""
        links = []
        for part in str(text).split(","):
            part = part.strip()
            if not part:
                continue
            child, separator, parent = part.partition("=")
            if not separator or not child.strip() or not parent.strip():
                raise ValidationError(
                    f"topology entry {part!r} is not CHILD=PARENT"
                )
            links.append((child.strip(), parent.strip()))
        if not links:
            raise ValidationError(f"empty topology spec {text!r}")
        return cls(tuple(links))

    # -- inspection ------------------------------------------------------------

    @property
    def switch_names(self) -> tuple[str, ...]:
        """Nodes that are parents of other nodes (in first-seen order)."""
        parents = []
        for _, parent in self.links:
            if parent != ROOT and parent not in parents:
                parents.append(parent)
        return tuple(parents)

    @property
    def device_names(self) -> tuple[str, ...]:
        """Leaf nodes (children that parent nothing), in link order."""
        switches = set(self.switch_names)
        return tuple(
            child for child, _ in self.links if child not in switches
        )

    @property
    def is_flat(self) -> bool:
        """Whether every device attaches directly to the root port."""
        return all(parent == ROOT for _, parent in self.links)

    def parent_of(self, name: str) -> str:
        """The parent node of ``name``."""
        for child, parent in self.links:
            if child == name:
                return parent
        raise ValidationError(f"no node {name!r} in this topology")

    def path_to_root(self, device: str) -> tuple[str, ...]:
        """Nodes a device's requests traverse, attachment first, ROOT last."""
        path = []
        node = self.parent_of(device)
        while True:
            path.append(node)
            if node == ROOT:
                return tuple(path)
            node = self.parent_of(node)

    def depth(self) -> int:
        """Hops of the deepest device (1 for the flat topology)."""
        return max(
            len(self.path_to_root(device)) for device in self.device_names
        )

    def validate_devices(self, device_names: Sequence[str]) -> None:
        """Check the topology's leaves are exactly the fabric's devices."""
        leaves = set(self.device_names)
        wanted = set(device_names)
        if leaves != wanted:
            missing = sorted(wanted - leaves)
            extra = sorted(leaves - wanted)
            detail = []
            if missing:
                detail.append(f"missing devices {missing}")
            if extra:
                detail.append(f"unknown leaves {extra}")
            raise ValidationError(
                "topology leaves must match the fabric's devices: "
                + "; ".join(detail)
            )

    def spec(self) -> str:
        """The canonical compact textual form (``parse`` round-trips it)."""
        return ",".join(f"{child}={parent}" for child, parent in self.links)


class _DeviceAccounting:
    """End-to-end per-device counters of one compiled topology.

    A device attached below a switch pays queueing at several arbiters;
    these counters fold the whole path into one view comparable with the
    flat case: ``busy`` counts the request's service demand once, ``wait``
    is everything beyond arrival plus ``hops * duration`` of
    store-and-forward service.
    """

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = ArbiterClientStats()

    def record(self, asked: float, start: float, duration: float, hops: int) -> None:
        stats = self.stats
        stats.requests += 1
        stats.busy_ns_total += duration
        wait = (start + duration) - asked - hops * duration
        if wait > 0.0:
            stats.waited += 1
            stats.wait_ns_total += wait
            if wait > stats.wait_ns_max:
                stats.wait_ns_max = wait


class _Ascent:
    """One request's store-and-forward climb from its device to the root.

    The request's state lives in this slotted record and its bound methods
    are the callbacks handed to the arbiters, the event loop and the
    switches' upstream credits.  Nothing the record reaches refers back to
    it once its last callback has fired, so a finished request is freed by
    reference counting alone instead of being left to the cyclic garbage
    collector.
    """

    __slots__ = ("topology", "device", "level", "asked", "time", "duration", "grant")

    def __init__(
        self,
        topology: "CompiledTopology",
        device: int,
        now: float,
        duration: float,
        grant: Callable[[float], None],
    ) -> None:
        self.topology = topology
        self.device = device
        #: Index of the current hop on the device's path to the root.
        self.level = 0
        #: When the request entered the fabric (end-to-end accounting).
        self.asked = now
        #: When the request was submitted at the current hop.
        self.time = now
        self.duration = duration
        self.grant = grant

    def submit(self) -> None:
        """Queue the request at the arbiter of its current hop."""
        hops = self.topology._hops[self.device]
        _, arbiter, client = hops[self.level]
        callback = self.at_root if self.level == len(hops) - 1 else self.forward
        arbiter.request(client, self.time, self.duration, callback)

    def forward(self, start: float) -> None:
        """A switch hop granted: wait out its service, then ask for credit."""
        # This hop's service ends at start + duration; the request then
        # waits for the switch's upstream credit before it exists one level
        # up — a switch can neither pre-book its parent nor flood it with a
        # backlog.
        topology = self.topology
        trace = topology._trace
        if trace is not None:
            node = topology._hops[self.device][self.level][0]
            trace(self.device, node, self.time, start, self.duration)
        topology._loop.at(start + self.duration, self.want_credit)

    def want_credit(self, now: float) -> None:
        """The hop's service is over: ask for the switch's upstream credit."""
        credit = self.topology._upstream[self.device][self.level]
        credit.acquire(now, self.with_credit)

    def with_credit(self, granted: float) -> None:
        """Credit held: move one level up."""
        self.level += 1
        self.time = granted
        self.submit()

    def at_root(self, start: float) -> None:
        """The root granted: return the path's credits and grant the caller."""
        # The request's service completes at start + duration (start is
        # virtual under slicing); only then do the switches along the path
        # regain their upstream credit.
        topology = self.topology
        device = self.device
        duration = self.duration
        completion = start + duration
        at = topology._loop.at
        for credit in topology._upstream[device]:
            at(completion, credit.release)
        topology._accounting[device].record(
            self.asked, start, duration, len(topology._hops[device])
        )
        trace = topology._trace
        if trace is not None:
            trace(device, ROOT, self.time, start, duration)
        self.grant(start)


class CompiledTopology:
    """One shared serial resource arbitrated through a topology tree.

    Exposes the same ``request(device_index, now, duration, grant)`` shape
    as a single :class:`~repro.sim.engine.ArbitratedResource`, so the
    datapath's upstream port does not care how deep the fabric is.  For
    the flat topology an untraced request goes straight to the (single)
    root arbiter, and a traced one takes a one-hop ascent so that its
    root grant is traced; per-device statistics are read from the root's
    client counters either way.  For trees, requests ascend
    store-and-forward and per-device statistics are folded end to end.
    """

    def __init__(
        self,
        name: str,
        topology: FabricTopology,
        device_names: Sequence[str],
        loop: EventLoop,
        *,
        scheme: str = "fcfs",
        weights: Sequence[float] | None = None,
        quantum_ns: float | None = None,
        trace: Callable[[int, str, float, float, float], None] | None = None,
    ) -> None:
        topology.validate_devices(device_names)
        self.name = name
        #: Optional per-hop grant observer for the tracing layer:
        #: ``trace(device_index, node, asked, start, duration)`` fires at
        #: every hop grant along a request's ascent (once, at the root,
        #: for the flat topology).  ``None`` keeps the request paths on
        #: the exact historical code — the flat fast path stays a direct
        #: arbiter call.
        self._trace = trace
        self.topology = topology
        self.device_names = tuple(device_names)
        if weights is None:
            weights = (1.0,) * len(self.device_names)
        if len(weights) != len(self.device_names):
            raise ValidationError(
                f"need one weight per device ({len(self.device_names)}), "
                f"got {len(weights)}"
            )
        device_weight = dict(zip(self.device_names, weights))
        self._loop = loop

        # Children per node, in link order (fixes client indices).
        children: dict[str, list[str]] = {ROOT: []}
        for switch in topology.switch_names:
            children[switch] = []
        for child, parent in topology.links:
            children[parent].append(child)
        self._children = {node: tuple(kids) for node, kids in children.items()}

        self._arbiters: dict[str, ArbitratedResource] = {}
        for node, kids in self._children.items():
            label = name if node == ROOT else f"{name}.{node}"
            self._arbiters[node] = ArbitratedResource(
                label,
                len(kids),
                loop,
                scheme=scheme,
                weights=tuple(
                    self._subtree_weight(kid, device_weight) for kid in kids
                ),
                quantum_ns=quantum_ns,
            )
        # One upstream credit per switch: a request may only be submitted
        # to the parent while holding its switch's credit, returned when
        # the request's root-level service completes.  This is the
        # PCIe-style flow control that keeps a bulk backlog inside its own
        # switch instead of flooding the parent's queues.
        credits = {
            switch: TagPool(f"{name}.{switch}.upstream", 1)
            for switch in topology.switch_names
        }
        # Per-device ascent as (node, arbiter, client index) hops,
        # attachment first, and the switch credits the request holds by the
        # time it reaches the root: one per switch on its path, in ascent
        # order (every hop but the root's).
        self._hops: list[tuple[tuple[str, ArbitratedResource, int], ...]] = []
        self._upstream: list[tuple[TagPool, ...]] = []
        for device in self.device_names:
            hops = []
            child = device
            for node in topology.path_to_root(device):
                client = self._children[node].index(child)
                hops.append((node, self._arbiters[node], client))
                child = node
            self._hops.append(tuple(hops))
            self._upstream.append(tuple(credits[node] for node, _, _ in hops[:-1]))
        # Flat attachments resolved once: (root arbiter, client index) per
        # device attached directly to the root port, None below a switch.
        self._direct: list[tuple[ArbitratedResource, int] | None] = [
            (hops[0][1], hops[0][2]) if len(hops) == 1 else None
            for hops in self._hops
        ]
        self._accounting = [
            _DeviceAccounting() for _ in self.device_names
        ]

    def _subtree_weight(self, node: str, device_weight: dict[str, float]) -> float:
        """A device's own weight; for a switch, its subtree's summed weight."""
        if node in device_weight:
            return float(device_weight[node])
        return sum(
            self._subtree_weight(child, device_weight)
            for child in self._children[node]
        )

    @property
    def root(self) -> ArbitratedResource:
        """The root-port arbiter (the resource's true serialisation point)."""
        return self._arbiters[ROOT]

    def arbiter(self, node: str) -> ArbitratedResource:
        """The arbiter of one tree node (``ROOT`` or a switch name)."""
        try:
            return self._arbiters[node]
        except KeyError:
            raise ValidationError(
                f"no node {node!r} in topology {self.name}"
            ) from None

    def set_device_weights(self, weights: Sequence[float]) -> None:
        """Retune per-device weights mid-run (control-plane actuator).

        Recomputes every node's client weights — a switch still competes
        at its parent with its subtree's *summed* device weights — and
        installs them with
        :meth:`~repro.sim.engine.ArbitratedResource.set_weights`, so the
        new weights govern every grant from the next dispatch on without
        disturbing queued or in-flight requests.
        """
        if len(weights) != len(self.device_names):
            raise ValidationError(
                f"need one weight per device ({len(self.device_names)}), "
                f"got {len(weights)}"
            )
        if any(not 0 < weight < math.inf for weight in weights):
            raise ValidationError(
                f"weights must be finite and positive, got {tuple(weights)}"
            )
        device_weight = dict(zip(self.device_names, weights))
        for node, kids in self._children.items():
            self._arbiters[node].set_weights(
                tuple(self._subtree_weight(kid, device_weight) for kid in kids)
            )

    def request(
        self,
        device: int,
        now: float,
        duration: float,
        grant: Callable[[float], None],
    ) -> None:
        """Submit one request for ``duration`` of the shared resource.

        ``grant(start)`` fires with the root-level (possibly virtual, see
        the sliced scheme) start time, so ``start + duration`` is the time
        the resource's service completes — the same contract as a single
        :class:`~repro.sim.engine.ArbitratedResource`.
        """
        direct = self._direct[device]
        if direct is not None and self._trace is None:
            # Untraced flat attachment: straight to the root arbiter.
            arbiter, client = direct
            arbiter.request(client, now, duration, grant)
            return
        _Ascent(self, device, now, duration, grant).submit()

    def client_stats(self, device: int) -> ArbiterClientStats:
        """Per-device end-to-end counters (flat: the root client's own)."""
        direct = self._direct[device]
        if direct is not None:
            arbiter, client = direct
            return arbiter.stats[client]
        return self._accounting[device].stats


def compile_topology(
    name: str,
    topology: FabricTopology | None,
    device_names: Sequence[str],
    loop: EventLoop,
    *,
    scheme: str = "fcfs",
    weights: Sequence[float] | None = None,
    quantum_ns: float | None = None,
    trace: Callable[[int, str, float, float, float], None] | None = None,
) -> CompiledTopology:
    """Compile a topology (``None`` means flat) for one shared resource."""
    if topology is None:
        topology = FabricTopology.flat(device_names)
    return CompiledTopology(
        name,
        topology,
        device_names,
        loop,
        scheme=scheme,
        weights=weights,
        quantum_ns=quantum_ns,
        trace=trace,
    )
