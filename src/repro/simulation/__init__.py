"""Discrete-event simulator for priority-type clusters.

Built from scratch (binary-heap event list, split-stream RNG,
preemptive/non-preemptive multi-server priority stations, tandem
routing, energy metering, warmup-aware statistics) to validate every
analytic quantity in :mod:`repro.core` — the methodology the paper uses
to demonstrate its approaches are "efficient and accurate".

High-level entry points:

* :func:`simulate` — one replication of a cluster + workload.
* :func:`simulate_replications` — independent replications with
  aggregate means and confidence intervals; ``n_jobs`` parallelizes
  over a process pool and ``cache_dir`` memoizes finished replications
  on disk (results bit-identical either way).
* :func:`simulate_replications_adaptive` — the same engine under a
  sequential stopping rule: replicate in rounds until a
  :class:`PrecisionTarget` (relative CI half-widths per metric) is met.
* :func:`compare_scenarios` — two scenarios under common random
  numbers with paired-t difference intervals.
* :func:`run_fleet` — fleet-scale (scenario × replication) sweeps
  through a work-stealing process pool into a columnar
  :class:`FleetStore`.
* :class:`SimulationCache` — the content-addressed replication cache.
"""

from repro.simulation.rng import AntitheticSeed, BlockCursor, CoupledGenerator, RngStreams
from repro.simulation.stats import Welford, batch_means_ci, confidence_halfwidth
from repro.simulation.simulator import SimulationResult, simulate
from repro.simulation.cache import CacheUnsupportedError, SimulationCache, simulation_fingerprint
from repro.simulation.parallel import ReplicationTiming, WorkerPool, resolve_n_jobs
from repro.simulation.replications import ReplicatedResult, simulate_replications
from repro.simulation.vrt import (
    VrEstimate,
    antithetic_estimate,
    control_variate_estimate,
    independent_difference,
    jackknife_cv_coefficients,
    naive_estimate,
    paired_difference,
    variance_reduction_factor,
)
from repro.simulation.adaptive import (
    PrecisionTarget,
    Scenario,
    ScenarioComparison,
    compare_scenarios,
    simulate_replications_adaptive,
)
from repro.simulation.fleet import FleetScenario, FleetSummary, fleet_columns, run_fleet
from repro.simulation.results_store import FleetStore

__all__ = [
    "AntitheticSeed",
    "BlockCursor",
    "CoupledGenerator",
    "RngStreams",
    "Welford",
    "confidence_halfwidth",
    "batch_means_ci",
    "SimulationResult",
    "simulate",
    "ReplicatedResult",
    "simulate_replications",
    "simulate_replications_adaptive",
    "PrecisionTarget",
    "Scenario",
    "ScenarioComparison",
    "compare_scenarios",
    "VrEstimate",
    "naive_estimate",
    "antithetic_estimate",
    "control_variate_estimate",
    "jackknife_cv_coefficients",
    "paired_difference",
    "independent_difference",
    "variance_reduction_factor",
    "SimulationCache",
    "CacheUnsupportedError",
    "simulation_fingerprint",
    "ReplicationTiming",
    "WorkerPool",
    "resolve_n_jobs",
    "FleetScenario",
    "FleetSummary",
    "FleetStore",
    "fleet_columns",
    "run_fleet",
]
