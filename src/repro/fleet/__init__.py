"""User-sharded async serving tier over the verification service.

``repro.fleet`` scales :mod:`repro.serve` from one service to a fleet
of shards, keyed by *user*: a consistent-hash ring gives each wearer
a home shard (so their calibration profile and phoneme table stay
cached where their requests land), an asyncio front door routes,
fails over, and enforces fleet-wide deadlines, and each shard runs
SLO-driven shedding plus warm-worker autoscaling.  See DESIGN.md §8.
"""

from repro.fleet.frontdoor import (
    FleetConfig,
    FleetFrontDoor,
    FleetRequest,
    FleetResponse,
)
from repro.fleet.hashing import DEFAULT_VNODES, ConsistentHashRing
from repro.fleet.loadgen import (
    FleetLoadgenConfig,
    make_fleet_request,
    run_fleet_loadgen,
)
from repro.fleet.metrics import (
    FleetMetrics,
    ShardStatus,
    format_fleet_metrics,
)
from repro.fleet.profiles import (
    ProfileCache,
    ProfileRecipe,
    UserProfile,
    derive_user_profile,
    registry_profile_loader,
)
from repro.fleet.shard import (
    ScaleEvent,
    ServiceShard,
    service_shard_factory,
)
from repro.fleet.slo import (
    Autoscaler,
    AutoscalerConfig,
    RollingLatencyWindow,
    ShardLoad,
    SheddingPolicy,
    SloConfig,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ConsistentHashRing",
    "DEFAULT_VNODES",
    "FleetConfig",
    "FleetFrontDoor",
    "FleetLoadgenConfig",
    "FleetMetrics",
    "FleetRequest",
    "FleetResponse",
    "ProfileCache",
    "ProfileRecipe",
    "RollingLatencyWindow",
    "ScaleEvent",
    "ServiceShard",
    "ShardLoad",
    "ShardStatus",
    "SheddingPolicy",
    "SloConfig",
    "UserProfile",
    "derive_user_profile",
    "format_fleet_metrics",
    "make_fleet_request",
    "registry_profile_loader",
    "run_fleet_loadgen",
    "service_shard_factory",
]
