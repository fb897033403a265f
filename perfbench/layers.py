"""Outside-in layer timing: wrap each layer's public functions for one run.

:class:`LayerTrace` is a context manager that replaces the public
functions listed in :data:`LAYERS` with counting, timing wrappers at
class or module level, and puts the originals back on exit -- also when
the run inside raises.  Nothing in the simulator knows it is traced.

Self time: each wrapped call's duration minus the time spent in wrapped
calls nested inside it (a stack of open calls carries the nested time up
one level).  Unwrapped code called synchronously from a wrapped function
-- a grant callback fired by ``TagPool.acquire`` or
``ArbitratedResource.request``, the datapath walk dispatched by
``EventLoop.run`` -- counts towards that function's self time.  The
wrapper's own cost (~1 us per call) lands in the caller's self time.
"""

from __future__ import annotations

import importlib
from functools import wraps
from time import perf_counter

#: (metric prefix, module, class name or ``None`` for a module function,
#: function names).  A class entry also wraps every subclass that
#: overrides the function, so ``Controller.tick`` covers each policy.
LAYERS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("engine.loop", "repro.sim.engine", "EventLoop", ("run",)),
    ("engine.serial", "repro.sim.engine", "SerialResource", ("occupy",)),
    ("engine.tags", "repro.sim.engine", "TagPool", ("acquire",)),
    ("host.access", "repro.sim.nichost", "HostCoupling", ("access",)),
    ("host.rc", "repro.sim.root_complex", "RootComplex", ("read", "write")),
    ("host.noise", "repro.sim.noise", "TightNoise", ("sample",)),
    ("host.noise", "repro.sim.noise", "HeavyTailNoise", ("sample",)),
    ("host.cache", "repro.sim.cache", "StatisticalCache", ("read", "write")),
    ("host.iommu", "repro.sim.iommu", "Iommu", ("translate",)),
    ("arb.topology", "repro.sim.topology", "CompiledTopology", ("request",)),
    ("arb.resource", "repro.sim.engine", "ArbitratedResource", ("request",)),
    ("control.tick", "repro.control.policies", "Controller", ("tick",)),
    ("stats.sketch", "repro.stats.sketch", "QuantileSketch", ("add",)),
    ("workloads.generate", "repro.workloads.traffic", "Workload", ("generate",)),
    ("fastpath.batch", "repro.sim.fastpath", None, ("run_batch",)),
)

#: Every layer prefix, in table order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYERS))


def _owners(module: str, owner: str | None, name: str) -> list[object]:
    """The objects whose own namespace defines ``name`` for one table row."""
    target = importlib.import_module(module)
    if owner is None:
        return [target]
    root = getattr(target, owner)
    found, pending = [], [root]
    while pending:
        cls = pending.pop()
        if name in vars(cls) and cls not in found:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _targets() -> list[tuple[str, object, str]]:
    """``(layer, owner, name)`` for every attribute a trace replaces."""
    return [
        (layer, owner, name)
        for layer, module, cls, names in LAYERS
        for name in names
        for owner in _owners(module, cls, name)
    ]


def current_functions() -> list[tuple[object, str, object]]:
    """``(owner, name, function)`` for every attribute a trace replaces."""
    return [(owner, name, vars(owner)[name]) for _, owner, name in _targets()]


class LayerTrace:
    """Calls and self time per layer while the context is open."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s: dict[str, float] = dict.fromkeys(LAYER_NAMES, 0.0)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            nested = [0.0]
            stack.append(nested)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - nested[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def __enter__(self) -> "LayerTrace":
        try:
            for layer, owner, name in _targets():
                original = vars(owner)[name]
                setattr(owner, name, self._wrap(layer, original))
                self._patched.append((owner, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
