"""Deterministic random number helpers for the simulator.

All stochastic behaviour in the simulation (access patterns, latency noise,
power-management stalls) is driven through :class:`SimRng` so that every
benchmark run is reproducible from a single seed, and so sub-components can
derive independent streams without correlating with each other.
"""

from __future__ import annotations

import zlib
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from ..errors import ValidationError

#: Seed used throughout the test-suite and the experiment drivers unless the
#: caller overrides it.
DEFAULT_SEED = 0x9C1E_BE9C

#: Values a block draw takes from its stream at a time (see
#: :func:`block_draws`).
DRAW_BLOCK = 256


def check_seed(seed: object) -> int:
    """``seed`` as an ``int``, if it is a non-negative integer.

    numpy's seed sequences take nothing else, so every seed a run uses —
    :class:`SimRng`'s and each parameter record's — is checked here, where
    a bad one raises :class:`~repro.errors.ValidationError`.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def block_draws(draw: Callable[[int], np.ndarray]) -> Iterator:
    """The values of successive ``draw(DRAW_BLOCK)`` calls, one at a time.

    numpy fills a k-element block exactly as k scalar draws of the same
    kind would: the same values, and the same generator state once the
    block is used up.  A consumer that owns its stream and draws one kind
    of value from it can therefore take those values from blocks, paying
    one numpy call per ``DRAW_BLOCK`` values instead of one per value,
    with bit-identical results.  ``next()`` on the returned iterator is a
    C-level step; the values are Python scalars, as scalar draws return.
    """
    return chain.from_iterable(iter(lambda: draw(DRAW_BLOCK).tolist(), None))


class SimRng:
    """A seeded random source with named, independent sub-streams.

    Wrapping :class:`numpy.random.Generator` keeps the simulator honest about
    where randomness enters, and `spawn(name)` hands out decorrelated child
    generators so, e.g., the access-pattern stream does not perturb the
    latency-noise stream when one component draws more numbers than before.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self._seed = check_seed(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._generator = np.random.Generator(np.random.PCG64(self._root))
        self._children: dict[str, np.random.Generator] = {}
        self._uniforms: dict[str, Iterator[float]] = {}

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The root generator (use sparingly; prefer named sub-streams)."""
        return self._generator

    def spawn(self, name: str) -> np.random.Generator:
        """Return a generator for the named sub-stream, creating it on first use.

        The same name always maps to the same stream for a given seed, so the
        order in which components ask for their streams does not matter.
        """
        if name not in self._children:
            # zlib.crc32 rather than hash(): string hashes are salted per
            # interpreter process (PYTHONHASHSEED), which would make the
            # "same seed, same stream" guarantee false across invocations
            # and across process-pool workers.
            child_seed = np.random.SeedSequence(
                entropy=self._seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")) & 0xFFFF_FFFF,),
            )
            self._children[name] = np.random.Generator(np.random.PCG64(child_seed))
        return self._children[name]

    def uniforms(self, name: str) -> Iterator[float]:
        """The named stream's ``random()`` values, drawn in blocks.

        Every caller asking for one name shares one iterator, so consumers
        that take turns on a stream — a host rebuilding its cache model
        between benchmarks — see exactly the values scalar ``random()``
        calls on :meth:`spawn`'s generator would give them.  A stream read
        this way must not also be drawn from directly.
        """
        uniforms = self._uniforms.get(name)
        if uniforms is None:
            uniforms = self._uniforms[name] = block_draws(self.spawn(name).random)
        return uniforms

    # -- convenience draws -------------------------------------------------------

    def uniform_indices(self, name: str, count: int, upper: int) -> np.ndarray:
        """``count`` uniform integers in ``[0, upper)`` from the named stream."""
        if upper <= 0:
            raise ValidationError(f"upper bound must be positive, got {upper}")
        if count < 0:
            raise ValidationError(f"count must be non-negative, got {count}")
        return self.spawn(name).integers(0, upper, size=count, dtype=np.int64)

    def gaussian(self, name: str, mean: float, sigma: float, count: int) -> np.ndarray:
        """``count`` normal draws, truncated below at zero."""
        draws = self.spawn(name).normal(mean, sigma, size=count)
        return np.clip(draws, 0.0, None)

    def exponential(self, name: str, scale: float, count: int) -> np.ndarray:
        """``count`` exponential draws with the given scale (mean)."""
        return self.spawn(name).exponential(scale, size=count)

    def bernoulli(self, name: str, probability: float, count: int) -> np.ndarray:
        """``count`` boolean draws with the given success probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValidationError(
                f"probability must be within [0, 1], got {probability}"
            )
        return self.spawn(name).random(count) < probability
