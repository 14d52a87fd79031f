"""repro.serve — deadline-aware serving over the filter/LSM stack.

The robustness story's last layer (docs/robustness.md): per-request
deadlines, per-run circuit breakers, queue-delay load shedding, and a
:class:`ServedFilter` facade whose every degraded path answers the
always-safe MAYBE.  CLI surface: ``python -m repro serve-sim``.
"""

from repro.common.clock import (
    Answer,
    Deadline,
    DeadlineExceeded,
    LookupResult,
    SimulatedClock,
)
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
    Priority,
    TenantQuota,
)
from repro.serve.breaker import BreakerDevice, BreakerState, CircuitBreaker
from repro.serve.served import ServedFilter, ServedResponse, ServeOutcome
from repro.serve.sim import (
    CALM_STORM_RECOVERY,
    PhaseReport,
    StormPhase,
    StormReport,
    Traffic,
    build_stack,
    run_storm,
)
from repro.serve.reshard import (
    CRASH_STEPS,
    MigrationState,
    MigrationStep,
    ReshardCoordinator,
    ReshardReport,
    ShardedStore,
    build_sharded_stack,
    run_reshard_storm,
)
from repro.serve.tenant import (
    TENANT_STORM,
    TenantConfig,
    TenantLookup,
    TenantReport,
    TenantRouter,
    TenantStore,
    build_tenant_stack,
    run_tenant_storm,
)
from repro.serve.replica import (
    HANDOFF_STEPS,
    REPAIR_STEPS,
    AntiEntropyRepairer,
    FailureDetector,
    HintedHandoff,
    ReplicaReport,
    ReplicatedStore,
    build_replicated_stack,
    run_replica_storm,
)

__all__ = [
    "Answer",
    "Deadline",
    "DeadlineExceeded",
    "LookupResult",
    "SimulatedClock",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "Priority",
    "BreakerDevice",
    "BreakerState",
    "CircuitBreaker",
    "ServedFilter",
    "ServedResponse",
    "ServeOutcome",
    "CALM_STORM_RECOVERY",
    "PhaseReport",
    "StormPhase",
    "StormReport",
    "Traffic",
    "build_stack",
    "run_storm",
    "CRASH_STEPS",
    "MigrationState",
    "MigrationStep",
    "ReshardCoordinator",
    "ReshardReport",
    "ShardedStore",
    "build_sharded_stack",
    "run_reshard_storm",
    "HANDOFF_STEPS",
    "REPAIR_STEPS",
    "AntiEntropyRepairer",
    "FailureDetector",
    "HintedHandoff",
    "ReplicaReport",
    "ReplicatedStore",
    "build_replicated_stack",
    "run_replica_storm",
    "TENANT_STORM",
    "TenantConfig",
    "TenantLookup",
    "TenantQuota",
    "TenantReport",
    "TenantRouter",
    "TenantStore",
    "build_tenant_stack",
    "run_tenant_storm",
]
