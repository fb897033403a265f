"""NUMA topology model.

On multi-socket servers the PCIe root complex and the memory controllers are
integrated into each CPU package, so a DMA either targets memory local to
the socket the device is plugged into or must traverse the inter-socket
interconnect (QPI/UPI).  The paper measures a roughly constant 100 ns
latency adder for remote buffers and a 10-20 % bandwidth penalty for small
DMA reads (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError

#: Latency added by one interconnect traversal, as measured in §6.4.
DEFAULT_REMOTE_PENALTY_NS = 100.0


@dataclass(frozen=True)
class NumaNode:
    """One socket: an id plus the memory capacity attached to it."""

    node_id: int
    memory_bytes: int = 64 * 1024**3

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValidationError(f"node_id must be >= 0, got {self.node_id}")
        if self.memory_bytes <= 0:
            raise ValidationError(
                f"memory_bytes must be positive, got {self.memory_bytes}"
            )


@dataclass(frozen=True)
class NumaTopology:
    """A host's socket layout and where the PCIe device is attached.

    Attributes:
        nodes: the sockets present in the system (a single-socket host has one).
        device_node: index of the node whose root complex hosts the PCIe device.
        remote_penalty_ns: extra latency for a DMA that targets memory on a
            different node than ``device_node``.
        remote_bandwidth_factor: multiplicative throughput de-rating applied
            to the interconnect path (1.0 means the interconnect itself never
            becomes the bottleneck for a single NIC, which holds for the
            40 Gb/s loads studied in the paper).
    """

    nodes: tuple[NumaNode, ...] = (NumaNode(0), NumaNode(1))
    device_node: int = 0
    remote_penalty_ns: float = DEFAULT_REMOTE_PENALTY_NS
    remote_bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValidationError("a NUMA topology needs at least one node")
        node_ids = [node.node_id for node in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise ValidationError(f"duplicate NUMA node ids: {node_ids}")
        if self.device_node not in node_ids:
            raise ValidationError(
                f"device_node {self.device_node} is not one of {node_ids}"
            )
        if self.remote_penalty_ns < 0:
            raise ValidationError("remote_penalty_ns must be non-negative")
        if not 0.0 < self.remote_bandwidth_factor <= 1.0:
            raise ValidationError(
                "remote_bandwidth_factor must be in (0, 1], got "
                f"{self.remote_bandwidth_factor}"
            )
        # Node ids, built once: every DMA's placement check consults them.
        object.__setattr__(self, "_node_ids", frozenset(node_ids))

    @classmethod
    def single_socket(cls) -> "NumaTopology":
        """Topology of the paper's single-socket systems (HSW, SNB, E3)."""
        return cls(nodes=(NumaNode(0),), device_node=0)

    @classmethod
    def dual_socket(
        cls, remote_penalty_ns: float = DEFAULT_REMOTE_PENALTY_NS
    ) -> "NumaTopology":
        """Topology of the paper's two-socket systems (BDW, IB)."""
        return cls(
            nodes=(NumaNode(0), NumaNode(1)),
            device_node=0,
            remote_penalty_ns=remote_penalty_ns,
        )

    @property
    def node_count(self) -> int:
        """Number of sockets."""
        return len(self.nodes)

    @property
    def is_numa(self) -> bool:
        """Whether remote placement is possible at all."""
        return self.node_count > 1

    def validate_node(self, node_id: int) -> None:
        """Raise if ``node_id`` does not exist in this topology."""
        if node_id not in self._node_ids:
            raise ValidationError(
                f"NUMA node {node_id} does not exist "
                f"(nodes: {[node.node_id for node in self.nodes]})"
            )

    def is_local(self, buffer_node: int) -> bool:
        """Whether a buffer on ``buffer_node`` is local to the device."""
        self.validate_node(buffer_node)
        return buffer_node == self.device_node

    def access_penalty_ns(self, buffer_node: int) -> float:
        """Latency adder for a DMA targeting ``buffer_node``."""
        return 0.0 if self.is_local(buffer_node) else self.remote_penalty_ns

    def remote_node(self) -> int:
        """Some node other than the device's node (for remote placements)."""
        if not self.is_numa:
            raise ValidationError(
                "cannot place a buffer remotely on a single-socket system"
            )
        for node in self.nodes:
            if node.node_id != self.device_node:
                return node.node_id
        raise ValidationError("no remote node found")  # pragma: no cover
