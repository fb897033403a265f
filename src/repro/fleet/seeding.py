"""Deterministic per-host RNG substream seeds.

A fleet run shards its hosts across worker processes, so each host must
derive its randomness from the fleet seed *by host index alone* — never
from execution order — for ``jobs=1`` and ``jobs=N`` to be bit-identical.
:func:`fleet_host_seed` does for hosts what :meth:`repro.sim.rng.SimRng.spawn`
does for simulator components: a ``numpy`` :class:`~numpy.random.SeedSequence`
spawn keyed on the host index, so host streams are decorrelated from each
other and from every in-host substream regardless of how many draws any
host makes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..sim.rng import check_seed


def fleet_host_seed(seed: int, host_index: int) -> int:
    """The workload/host seed of one rack host, derived from the fleet seed.

    Pure function of ``(seed, host_index)``: the same fleet seed always
    gives every host the same substream seed, whatever order (or worker
    process) the hosts run in.
    """
    seed = check_seed(seed)
    if not isinstance(host_index, (int, np.integer)) or host_index < 0:
        raise ValidationError(
            f"host_index must be a non-negative integer, got {host_index!r}"
        )
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(int(host_index),)
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0])
