"""Tests for the composable fabric topology layer (repro.sim.topology).

The two load-bearing contracts:

* **Flat passthrough** — the flat topology compiles to a single root
  arbiter and requests take the exact PR 4 code path (same grant times,
  same client statistics objects).
* **Credit flow control** — a switch holds one upstream credit until its
  in-flight request's root service completes, so a bulk backlog stays
  inside its own switch instead of flooding the root queue.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.sim.engine import EventLoop
from repro.sim.topology import (
    ROOT,
    CompiledTopology,
    FabricTopology,
    compile_topology,
)


class TestFabricTopology:
    def test_parse_and_spec_round_trip(self):
        spec = "victim=root,aggressor=sw0,sw0=root"
        topology = FabricTopology.parse(spec)
        assert topology.spec() == spec
        assert topology.switch_names == ("sw0",)
        assert topology.device_names == ("victim", "aggressor")
        assert not topology.is_flat
        assert topology.depth() == 2
        assert topology.path_to_root("aggressor") == ("sw0", ROOT)

    def test_flat_constructor(self):
        topology = FabricTopology.flat(("a", "b"))
        assert topology.is_flat
        assert topology.depth() == 1
        assert topology.device_names == ("a", "b")
        assert topology.switch_names == ()

    def test_cascaded_switches(self):
        topology = FabricTopology.parse("d=sw1,sw1=sw0,sw0=root")
        assert topology.depth() == 3
        assert topology.path_to_root("d") == ("sw1", "sw0", ROOT)

    def test_validation_rejects_malformed_trees(self):
        with pytest.raises(ValidationError):
            FabricTopology.parse("")  # empty
        with pytest.raises(ValidationError):
            FabricTopology.parse("a=root,a=root")  # duplicate child
        with pytest.raises(ValidationError):
            FabricTopology.parse("root=sw0,sw0=root")  # root has no parent
        with pytest.raises(ValidationError):
            FabricTopology.parse("a=sw0")  # undeclared switch
        with pytest.raises(ValidationError):
            FabricTopology.parse("a=a")  # self-parent
        with pytest.raises(ValidationError):
            FabricTopology.parse("a=sw0,sw0=sw1,sw1=sw0")  # cycle
        with pytest.raises(ValidationError):
            FabricTopology.parse("a = ")  # not CHILD=PARENT

    def test_leaves_must_match_devices(self):
        topology = FabricTopology.parse("a=root,b=sw0,sw0=root")
        topology.validate_devices(("a", "b"))
        with pytest.raises(ValidationError):
            topology.validate_devices(("a", "b", "c"))  # missing device
        with pytest.raises(ValidationError):
            topology.validate_devices(("a",))  # unknown leaf b


class TestCompiledTopology:
    def test_flat_topology_is_a_direct_root_arbiter(self):
        loop = EventLoop()
        tree = compile_topology(
            "resource", None, ("a", "b"), loop, scheme="fcfs"
        )
        grants = []
        tree.request(0, 0.0, 10.0, lambda t: grants.append(("a", t)))
        tree.request(1, 1.0, 10.0, lambda t: grants.append(("b", t)))
        loop.run()
        assert grants == [("a", 0.0), ("b", 10.0)]
        # Flat device statistics ARE the root arbiter's client counters.
        assert tree.client_stats(0) is tree.root.stats[0]
        assert tree.client_stats(1) is tree.root.stats[1]
        assert tree.root.name == "resource"

    def test_switch_hop_adds_store_and_forward_latency(self):
        loop = EventLoop()
        tree = compile_topology(
            "resource",
            FabricTopology.parse("a=sw0,sw0=root"),
            ("a",),
            loop,
        )
        grants = []
        tree.request(0, 0.0, 10.0, grants.append)
        loop.run()
        # One hop through sw0 (10 ns) before the root's own 10 ns grant.
        assert grants == [10.0]
        stats = tree.client_stats(0)
        assert stats.requests == 1
        assert stats.busy_ns_total == 10.0  # root service counted once
        assert stats.waited == 0  # pure store-and-forward is not queueing

    def test_upstream_credit_keeps_backlog_inside_the_switch(self):
        # A bulk device floods its switch; a direct device shares the
        # root.  With one upstream credit per switch, at most one bulk
        # request is pending at the root, so under fcfs the direct
        # device's wait is bounded by ~2 services, not the whole backlog.
        loop = EventLoop()
        tree = compile_topology(
            "resource",
            FabricTopology.parse("direct=root,bulk=sw0,sw0=root"),
            ("direct", "bulk"),
            loop,
        )
        for _ in range(50):
            tree.request(1, 0.0, 10.0, lambda t: None)
        tree.request(0, 205.0, 10.0, lambda t: None)
        loop.run()
        direct = tree.client_stats(0)
        assert direct.requests == 1
        assert direct.wait_ns_max <= 2 * 10.0
        # The bulk backlog drains completely all the same.
        assert tree.client_stats(1).busy_ns_total == 50 * 10.0

    def test_switch_weight_is_its_subtree_sum(self):
        loop = EventLoop()
        tree = compile_topology(
            "resource",
            FabricTopology.parse("a=root,b=sw0,c=sw0,sw0=root"),
            ("a", "b", "c"),
            loop,
            scheme="wrr",
            weights=(4.0, 1.0, 3.0),
        )
        assert tree.root.weights == (4.0, 4.0)  # a, sw0 = 1 + 3
        assert tree.arbiter("sw0").weights == (1.0, 3.0)
        with pytest.raises(ValidationError):
            tree.arbiter("nowhere")

    def test_weights_must_match_devices(self):
        loop = EventLoop()
        with pytest.raises(ValidationError):
            compile_topology(
                "resource",
                None,
                ("a", "b"),
                loop,
                scheme="wrr",
                weights=(1.0,),
            )

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), 0.0))
    def test_retuned_weights_must_be_finite_and_positive(self, bad):
        loop = EventLoop()
        tree = compile_topology(
            "resource",
            FabricTopology.parse("a=root,b=sw0,c=sw0,sw0=root"),
            ("a", "b", "c"),
            loop,
            scheme="wrr",
        )
        with pytest.raises(ValidationError, match="finite and positive"):
            tree.set_device_weights((1.0, bad, 1.0))
        assert tree.root.weights == (1.0, 2.0)

    def test_compile_rejects_mismatched_leaves(self):
        loop = EventLoop()
        with pytest.raises(ValidationError):
            CompiledTopology(
                "resource",
                FabricTopology.parse("a=root"),
                ("a", "b"),
                loop,
            )
