"""Open-loop load scenarios: the million-user elasticity benchmark.

ROADMAP item 3 realized: a reusable open-loop engine
(:mod:`repro.scenarios.engine`) drives arrival-rate-determined load —
virtual-time accurate on the simulation kernel, wall-clock accurate in
live mode — through a seeded, replayable scenario matrix
(:mod:`repro.scenarios.catalog`): diurnal cycle, flash crowd,
thundering-herd reconnect, zipfian hot-key skew on sharded pools, and
mixed multi-app tenancy on one cluster.  Each run emits a
``repro.obs/v1`` summary with tail-latency, agility, and QoS sections
(:mod:`repro.scenarios.runner`).  The committed
``SCENARIO_<name>.json`` files are those summaries at the catalogue's
seeds; CI replays the matrix and compares them byte for byte.

Entry point: ``python -m repro scenario <name>`` (``all --summary-dir .``
regenerates the committed files).
"""

from repro.scenarios.catalog import (
    SCENARIOS,
    FaultSpec,
    KeySpec,
    PoolSpec,
    QoSSpec,
    ScenarioSpec,
    ServiceSpec,
    TenantSpec,
    get_scenario,
    zipf_sampler,
)
from repro.scenarios.engine import (
    EngineStats,
    LiveLoadDriver,
    OpenLoopEngine,
    ServiceModel,
)
from repro.scenarios.runner import (
    ScenarioError,
    ScenarioResult,
    TenantResult,
    run_scenario,
)

__all__ = [
    "EngineStats",
    "FaultSpec",
    "KeySpec",
    "LiveLoadDriver",
    "OpenLoopEngine",
    "PoolSpec",
    "QoSSpec",
    "SCENARIOS",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "ServiceModel",
    "ServiceSpec",
    "TenantResult",
    "TenantSpec",
    "get_scenario",
    "run_scenario",
    "zipf_sampler",
]
