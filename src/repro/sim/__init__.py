"""Simulated substrate: hosts, devices and the components between them.

This subpackage stands in for the hardware the paper uses — programmable
NICs (Netronome NFP-6000, NetFPGA-SUME) and several generations of Intel
Xeon servers — with behavioural models calibrated from the measurements the
paper reports.  See ``DESIGN.md`` for the substitution rationale.
"""

from .cache import (
    CacheAccessResult,
    CacheState,
    SetAssociativeCache,
    StatisticalCache,
)
from .devices import (
    DEVICE_REGISTRY,
    EXANIC,
    NETFPGA,
    NFP6000,
    DeviceModel,
    DmaEngineSpec,
    ExaNicModel,
    get_device,
)
from .dma import BandwidthMeasurement, DmaEngine, DmaOperation, LatencyMeasurement
from .engine import (
    ARBITER_SCHEMES,
    ArbitratedResource,
    SerialResource,
    TagPool,
    WorkerPool,
)
from .fabric import (
    ContentionResult,
    DeviceContentionResult,
    FabricConfig,
    FabricDevice,
    FabricPortStats,
    FabricSimulator,
)
from .nichost import HostCoupling, HostSideStats, NicHostConfig, SharedHost
from .nicsim import (
    LatencySummary,
    NicDatapathSimulator,
    NicSimConfig,
    NicSimResult,
    PathResult,
    PathTrace,
    RingStats,
)
from .host import HostSystem
from .hostbuffer import AccessPattern, HostBuffer
from .iommu import Iommu, IommuConfig, Iotlb, TranslationResult
from .memory import MemoryConfig, MemorySystem
from .noise import HeavyTailNoise, TightNoise
from .numa import NumaNode, NumaTopology
from .profiles import (
    NETFPGA_HSW,
    NFP6000_BDW,
    NFP6000_HSW,
    NFP6000_HSW_E3,
    NFP6000_IB,
    NFP6000_SNB,
    TABLE1_PROFILES,
    SystemProfile,
    get_profile,
    profile_names,
)
from .rng import DEFAULT_SEED, SimRng
from .root_complex import HostAccess, RootComplex, RootComplexConfig

__all__ = [
    "CacheAccessResult",
    "CacheState",
    "SetAssociativeCache",
    "StatisticalCache",
    "DEVICE_REGISTRY",
    "EXANIC",
    "NETFPGA",
    "NFP6000",
    "DeviceModel",
    "DmaEngineSpec",
    "ExaNicModel",
    "get_device",
    "BandwidthMeasurement",
    "DmaEngine",
    "DmaOperation",
    "LatencyMeasurement",
    "ARBITER_SCHEMES",
    "ArbitratedResource",
    "SerialResource",
    "TagPool",
    "WorkerPool",
    "ContentionResult",
    "DeviceContentionResult",
    "FabricConfig",
    "FabricDevice",
    "FabricPortStats",
    "FabricSimulator",
    "SharedHost",
    "HostCoupling",
    "HostSideStats",
    "LatencySummary",
    "NicDatapathSimulator",
    "NicHostConfig",
    "NicSimConfig",
    "NicSimResult",
    "PathResult",
    "PathTrace",
    "RingStats",
    "HostSystem",
    "AccessPattern",
    "HostBuffer",
    "Iommu",
    "IommuConfig",
    "Iotlb",
    "TranslationResult",
    "MemoryConfig",
    "MemorySystem",
    "HeavyTailNoise",
    "TightNoise",
    "NumaNode",
    "NumaTopology",
    "NETFPGA_HSW",
    "NFP6000_BDW",
    "NFP6000_HSW",
    "NFP6000_HSW_E3",
    "NFP6000_IB",
    "NFP6000_SNB",
    "TABLE1_PROFILES",
    "SystemProfile",
    "get_profile",
    "profile_names",
    "DEFAULT_SEED",
    "SimRng",
    "HostAccess",
    "RootComplex",
    "RootComplexConfig",
]
