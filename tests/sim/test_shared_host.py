"""Tests for the single host builder (repro.sim.nichost.SharedHost).

Every host-coupled run, solo or fabric, builds its host here from the
devices' host-coupled records; a solo run is a one-device shared host,
whose records the seeded goldens pin.  These tests cover what a shared
host decides on its own: which device records can share one host, and
that a mid-run repartition primes the caches exactly as building the
host with the new shares does.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.sim.nichost import SharedHost
from repro.sim.nicsim import NicSimParams
from repro.units import MIB

#: A host-coupled device record on the default profile.
DEVICE = NicSimParams(system="NFP6000-HSW", ring_depth=64)

#: Two devices whose payload windows overflow their DDIO and LLC slices,
#: so every capacity share moves their residency and write-back figures.
PARTITIONED_DEVICES = [
    DEVICE.with_(payload_window=16 * MIB),
    DEVICE.with_(
        payload_window=64 * MIB,
        payload_cache_state="device_warm",
        ring_depth=512,
    ),
]


def _partition_figures(shared: SharedHost) -> list[tuple]:
    """Per-partition shares, residency and write-back of both caches."""
    return [
        (
            cache._partition_shares,
            cache._partition_resident,
            cache._partition_writeback,
        )
        for cache in (shared.host.root_complex.cache, shared.descriptor_rc.cache)
    ]


class TestHostSettingsAgree:
    @pytest.mark.parametrize(
        "setting",
        [
            {"system": "NFP6000-BDW"},
            {"iommu_enabled": True},
            {"iommu_page_size": 2 * MIB},
        ],
        ids=["profile", "iommu_enabled", "iommu_page_size"],
    )
    def test_disagreeing_device_configs_rejected(self, setting):
        devices = [DEVICE, DEVICE.with_(**setting)]
        with pytest.raises(ValidationError, match="must agree"):
            SharedHost(devices, seed=1)

    def test_host_takes_the_settings_the_devices_agree_on(self):
        device = DEVICE.with_(
            system="NFP6000-BDW", iommu_enabled=True, iommu_page_size=2 * MIB
        )
        shared = SharedHost([device, device], seed=1)
        assert shared.host.profile.name == "NFP6000-BDW"
        assert shared.host.iommu.enabled
        assert shared.host.iommu.config.page_size == 2 * MIB


class TestRepartition:
    def test_repartition_primes_caches_as_building_with_the_shares_does(self):
        resized = SharedHost(
            PARTITIONED_DEVICES, seed=1, ddio_partition=(1, 1)
        )
        before = _partition_figures(resized)
        resized.repartition((3, 1))
        built = SharedHost(
            PARTITIONED_DEVICES, seed=1, ddio_partition=(3, 1)
        )
        assert _partition_figures(resized) == _partition_figures(built)
        # The shares matter for these windows, so the comparison is not
        # between two unchanged states.
        assert _partition_figures(resized) != before

    def test_repartition_needs_one_share_per_device(self):
        shared = SharedHost(
            PARTITIONED_DEVICES, seed=1, ddio_partition=(1, 1)
        )
        with pytest.raises(ValidationError):
            shared.repartition((1, 1, 1))

    def test_unpartitioned_host_cannot_repartition(self):
        shared = SharedHost([DEVICE] * 2, seed=1)
        with pytest.raises(ValidationError):
            shared.repartition((3, 1))
