"""Average end-to-end delay of multi-class priority clusters.

Abstract claim 1 (performance half): "a development of computing an
average end-to-end delay ... for multiple class customers". A class-k
request's end-to-end delay is its total sojourn across the tandem of
priority tiers:

    T_k(s, c) = Σ_i v_{ik} · T_{ik},

where ``T_{ik}`` comes from the sharpest applicable priority-queue
formula (see :func:`repro.queueing.networks.station_delays`) with
class-k service time ``D_{ik} / s_i`` at tier speed ``s_i``. The
aggregate objective used in P1/P2a is the arrival-weighted mean

    T̄ = Σ_k (λ_k / Λ) T_k.

The optimizers probe this model at many speed vectors; under the
tandem decomposition tier ``i``'s delays and power depend only on
``s_i``, so :class:`SpeedModel` memoizes each tier's solve by its exact
speed, through the same tier kernel
:class:`repro.core.batch_eval.BatchEvaluator` runs on many rows. Each
tier solve also solves the speed SLSQP's finite-difference probe will
ask for next, so a probe that moves one coordinate is a memo hit.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cluster.model import ClusterModel
from repro.core.batch_eval import TierKernel
from repro.exceptions import ModelValidationError
from repro.queueing.networks import (
    StationDelays,
    arrival_weighted_mean,
    check_visit_ratios,
    tandem_delays,
)
from repro.queueing.stability import check_stability
from repro.workload.classes import Workload

__all__ = [
    "end_to_end_delays",
    "mean_end_to_end_delay",
    "per_tier_delays",
    "SpeedModel",
    "count_tier_work",
]

# SLSQP differentiates the objective and constraints by forward
# differences with this absolute step (SciPy's ``_epsilon``), stepping
# backward where the forward probe would pass the box's upper bound.
_FD_STEP = float(np.sqrt(np.finfo(float).eps))


def _check(cluster: ClusterModel, workload: Workload) -> None:
    if cluster.num_classes != workload.num_classes:
        raise ModelValidationError(
            f"cluster is parameterized for {cluster.num_classes} classes "
            f"but workload has {workload.num_classes}"
        )


def end_to_end_delays(cluster: ClusterModel, workload: Workload) -> np.ndarray:
    """Per-class mean end-to-end delay ``T_k`` (highest priority first).

    Raises :class:`UnstableSystemError` if any tier is saturated.
    """
    _check(cluster, workload)
    return cluster.network().end_to_end_delays(workload.arrival_rates)


def mean_end_to_end_delay(cluster: ClusterModel, workload: Workload) -> float:
    """Arrival-weighted average end-to-end delay ``T̄`` over all classes."""
    _check(cluster, workload)
    return cluster.network().mean_delay(workload.arrival_rates)


def per_tier_delays(cluster: ClusterModel, workload: Workload) -> list[StationDelays]:
    """Per-tier, per-class delay decomposition (for reports and the
    validation experiments)."""
    _check(cluster, workload)
    return cluster.network().per_station_delays(workload.arrival_rates)


class SpeedModel:
    """The cluster's delay and power as functions of the tier speeds,
    memoized per tier for the length of one solve.

    ``end_to_end_delays(s)``, ``mean_delay(s)`` and ``average_power(s)``
    return exactly (bit for bit) what
    ``end_to_end_delays(cluster.with_speeds(s), workload)``,
    ``mean_end_to_end_delay(...)`` and
    ``cluster.with_speeds(s).average_power(λ)`` return, and raise the
    same exception types. A tier's delays come from its
    :class:`~repro.core.batch_eval.TierKernel`, so no scaled
    distribution or station spec is built; each tier's per-class
    sojourns and power term are kept per exact float speed. A tier
    solved at a new speed ``x`` is solved in the same kernel call at
    SLSQP's finite-difference probe, ``x + h`` (``x - h`` where that
    passes the tier's maximum speed), so a probe that moves one speed
    is a memo hit. A tier that raises (unstable, out of its DVFS range,
    finite buffer) is not memoized: it raises again at every call, and
    a probe row is memoized only where every check passes.

    ``tier_solves`` and ``tier_hits`` count the kernel runs and memo
    hits of delay calls; ``probe_rows`` and ``probe_hits`` count the
    probe rows solved and those later hit. Build one per solve and let
    it go with the solve; the memo grows with every distinct speed
    seen.
    """

    def __init__(self, cluster: ClusterModel, workload: Workload):
        _check(cluster, workload)
        self._tiers = cluster.tiers
        self._lam = workload.arrival_rates
        self._visits = cluster.visit_ratios
        # TandemNetwork's visit check runs at every scalar delay
        # evaluation (after the per-tier spec checks), so a failure is
        # replayed at each delay call rather than raised here.
        try:
            check_visit_ratios(self._visits, cluster.num_classes, cluster.num_tiers)
            self._visit_error: str | None = None
        except ModelValidationError as exc:
            self._visit_error = str(exc)
        rates = self._visits * self._lam[:, None]
        self._kernels = [TierKernel(tier, rates[:, i]) for i, tier in enumerate(self._tiers)]
        self._work = cluster.work_rates(self._lam)
        self._sojourns: list[dict[float, np.ndarray]] = [{} for _ in self._tiers]
        self._powers: list[dict[float, float]] = [{} for _ in self._tiers]
        self._unhit_probes: list[set[float]] = [set() for _ in self._tiers]
        self.tier_solves = 0
        self.tier_hits = 0
        self.probe_rows = 0
        self.probe_hits = 0

    def _keys(self, speeds) -> list[float]:
        speeds_arr = np.asarray(speeds, dtype=float)
        if speeds_arr.shape != (len(self._tiers),):
            raise ModelValidationError(
                f"expected {len(self._tiers)} speeds, got shape {speeds_arr.shape}"
            )
        return [float(x) for x in speeds_arr]

    def _probe(self, i: int, key: float) -> float | None:
        """The speed SLSQP probes tier ``i`` at after ``key``, or ``None``
        when it needs no row (already memoized, equal to ``key``, or out
        of the tier's DVFS range)."""
        tier = self._tiers[i]
        probe = key + _FD_STEP
        if probe > tier.spec.max_speed:
            probe = key - _FD_STEP
        if probe == key or probe in self._sojourns[i]:
            return None
        try:
            tier.check_speed(probe)
        except ModelValidationError:
            return None
        return probe

    def _stations(self, speeds) -> list[np.ndarray]:
        keys = self._keys(speeds)
        found = [memo.get(key) for memo, key in zip(self._sojourns, keys)]
        missing = []
        for i, hit in enumerate(found):
            if hit is None:
                missing.append(i)
            elif keys[i] in self._unhit_probes[i]:
                self._unhit_probes[i].remove(keys[i])
                self.probe_hits += 1
        self.tier_hits += len(keys) - len(missing)
        # Same check order as the scalar path: every tier's spec (DVFS
        # range, finite buffer), then the visit ratios, then stability
        # and the formulas tier by tier.
        for i in missing:
            self._tiers[i].check_speed(keys[i])
            self._tiers[i].require_infinite_buffer()
        if self._visit_error is not None:
            raise ModelValidationError(self._visit_error)
        for i in missing:
            kernel = self._kernels[i]
            if kernel.total <= 0.0:
                raise ModelValidationError("total arrival rate at a station must be positive")
            self.tier_solves += 1
            probe = self._probe(i, keys[i])
            rows = [keys[i]] if probe is None else [keys[i], probe]
            sojourns, failed = kernel.sojourns(np.array(rows), kernel.servers)
            if failed is not None and not np.isnan(failed[0]):
                check_stability(float(failed[0]), where=kernel.name or f"station {i}")
            found[i] = self._sojourns[i][keys[i]] = sojourns[0]
            if probe is not None:
                self.probe_rows += 1
                if failed is None or np.isnan(failed[1]):
                    self._sojourns[i][probe] = sojourns[1]
                    self._unhit_probes[i].add(probe)
        return found

    def end_to_end_delays(self, speeds) -> np.ndarray:
        """Per-class mean end-to-end delay ``T_k`` at ``speeds``."""
        return tandem_delays(self._visits, self._stations(speeds))

    def mean_delay(self, speeds) -> float:
        """Arrival-weighted mean end-to-end delay ``T̄`` at ``speeds``."""
        return arrival_weighted_mean(self._lam, self.end_to_end_delays(speeds))

    def average_power(self, speeds) -> float:
        """Mean cluster power draw (watts) at ``speeds``."""
        terms = []
        for tier, key, memo, work in zip(self._tiers, self._keys(speeds), self._powers, self._work):
            if key not in memo:
                tier.check_speed(key)
                memo[key] = tier.spec.power.average_power(key, float(work), tier.servers)
            terms.append(memo[key])
        return float(sum(terms))


def count_tier_work(model) -> None:
    """Add one solve's tier solves, memo hits, probe rows and probe hits
    to the ``opt.tier_solves`` / ``opt.tier_hits`` / ``opt.probe_rows``
    / ``opt.probe_hits`` counters (a model other than
    :class:`SpeedModel` has no memo and adds nothing)."""
    if isinstance(model, SpeedModel):
        for name in ("tier_solves", "tier_hits", "probe_rows", "probe_hits"):
            obs.counter(f"opt.{name}").add(getattr(model, name))
