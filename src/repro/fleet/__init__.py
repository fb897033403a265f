"""Rack-scale fleet modelling: tenants, load curves and host seeding.

This package holds the *model* half of the fleet simulation — who demands
how much traffic, where the scheduler placed them, and what point of the
demand cycle the rack is at.  The *execution* half (building one
:class:`~repro.sim.fabric.ContentionParams` shared-host run per rack
host, sharding them across workers and merging the streamed statistics)
lives in :mod:`repro.bench.fleet`.
"""

from .load import (
    DIURNAL_TROUGH,
    FLASH_FACTOR,
    LOAD_PROFILES,
    canonical_load_profile,
    load_profile_factors,
)
from .seeding import fleet_host_seed
from .tenants import (
    PLACEMENT_POLICIES,
    canonical_placement,
    host_demand_shares,
    place_tenants,
    zipf_tenant_weights,
)

__all__ = [
    "DIURNAL_TROUGH",
    "FLASH_FACTOR",
    "LOAD_PROFILES",
    "canonical_load_profile",
    "load_profile_factors",
    "fleet_host_seed",
    "PLACEMENT_POLICIES",
    "canonical_placement",
    "host_demand_shares",
    "place_tenants",
    "zipf_tenant_weights",
]
