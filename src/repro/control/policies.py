"""Epoch speed policies: the decision rules the control harness runs.

Every policy implements the same tiny protocol — ``decide(t,
queue_counts, speeds)`` called at each epoch boundary with the
``(num_tiers, num_classes)`` matrix of jobs in system and the current
per-tier speeds, returning the next speed vector (or ``None`` to hold)
— so planned schedules, static baselines and the online
drift-plus-penalty controller are interchangeable inside one
trace-driven simulation.

The drift-plus-penalty controller is the tentpole: a queue-reactive
rule needing **no arrival-rate knowledge at all**. Each tier's speed
minimizes the Lyapunov drift-plus-penalty bound

    V * kappa_i * s^alpha  -  Q_i * s

over the DVFS box, where ``Q_i`` is the tier's work backlog (queue
counts weighted by mean service demands at speed 1) and ``V >= 0``
prices energy against backlog. The objective is separable per tier
and convex in ``s`` for ``alpha > 1``, so the minimizer is the
stationary point ``(Q_i / (V kappa_i alpha))^(1/(alpha-1))`` clipped
to the box. Sweeping ``V`` traces the power/delay frontier: ``V -> 0``
recovers max-speed (pure delay), large ``V`` rides the minimum speed
(pure energy). This is the classic Lyapunov-optimization speed-scaling
rule specialized to the paper's ``kappa s^alpha`` power curves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.cluster.model import ClusterModel
from repro.core.controller import EpochPlan
from repro.exceptions import ModelValidationError

__all__ = [
    "EpochPolicy",
    "StaticSpeedPolicy",
    "PlannedSpeedPolicy",
    "DriftPlusPenaltyController",
]


class EpochPolicy(ABC):
    """Decision rule invoked at every epoch boundary."""

    #: Display name used in experiment tables.
    name: str = "policy"

    @abstractmethod
    def decide(
        self, t: float, queue_counts: np.ndarray, speeds: np.ndarray
    ) -> np.ndarray | None:
        """Next per-tier speed vector, or ``None`` to keep ``speeds``."""

    def fresh(self) -> "EpochPolicy":
        """A pristine instance for an independent run (stateless
        policies may return themselves)."""
        return self


class StaticSpeedPolicy(EpochPolicy):
    """Holds one fixed speed vector (max-speed and provisioned-static
    baselines)."""

    def __init__(self, speeds: Sequence[float], name: str = "static"):
        arr = np.asarray(speeds, dtype=float)
        if arr.ndim != 1 or arr.size == 0 or np.any(arr <= 0.0):
            raise ModelValidationError("speeds must be a non-empty vector of positives")
        self.speeds = arr
        self.name = name

    def decide(self, t, queue_counts, speeds):
        return self.speeds


class PlannedSpeedPolicy(EpochPolicy):
    """Replays a pre-solved schedule (the oracle / forecast plans).

    The plan is a list of :class:`~repro.core.controller.EpochPlan`
    rows (from :func:`~repro.core.controller.plan_speed_schedule`);
    at decision time the policy looks up the epoch containing ``t``
    and returns its speeds. Decision instants need not coincide with
    plan boundaries — the last plan epoch at or before ``t`` wins.
    """

    def __init__(self, plans: Sequence[EpochPlan], name: str = "planned"):
        if len(plans) == 0:
            raise ModelValidationError("empty plan")
        starts = [p.start for p in plans]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ModelValidationError("plan epochs must have increasing starts")
        self._starts = starts
        self._speeds = [np.asarray(p.speeds, dtype=float) for p in plans]
        self.name = name

    def decide(self, t, queue_counts, speeds):
        idx = bisect_right(self._starts, t) - 1
        if idx < 0:
            idx = 0
        return self._speeds[idx]


class DriftPlusPenaltyController(EpochPolicy):
    """Online queue-reactive speed scaling (drift-plus-penalty).

    Parameters
    ----------
    cluster:
        Supplies the per-tier power curves (``kappa``, ``alpha``), the
        DVFS boxes and the mean service demands at speed 1 used to
        convert queue counts into work backlogs. Only *means* are
        consulted — no arrival rates, no distributions.
    v_param:
        The Lyapunov trade-off knob ``V >= 0``. Small V chases the
        backlog (speeds pinned high); large V chases energy (speeds
        pinned low). Sweeping it traces the power/delay frontier.
    class_weights:
        Optional per-class backlog weights (defaults to 1). Raising a
        class's weight makes its queued work push speeds harder —
        the knob for priority-aware control.
    """

    def __init__(
        self,
        cluster: ClusterModel,
        v_param: float,
        class_weights: Sequence[float] | None = None,
    ):
        if v_param < 0.0 or not np.isfinite(v_param):
            raise ModelValidationError(f"v_param must be finite and >= 0, got {v_param}")
        k_classes = cluster.num_classes
        if class_weights is None:
            weights = np.ones(k_classes)
        else:
            weights = np.asarray(class_weights, dtype=float)
            if weights.shape != (k_classes,) or np.any(weights <= 0.0):
                raise ModelValidationError(
                    f"class_weights must be {k_classes} positive values"
                )
        self._cluster = cluster
        self._weights = weights
        self.v_param = float(v_param)
        self.name = f"dpp(V={v_param:g})"
        # Mean demand at speed 1 per (tier, class): the queue-count ->
        # work-backlog conversion matrix.
        self._demand_means = np.array(
            [[d.mean for d in tier.demands] for tier in cluster.tiers]
        )
        self._kappa = np.array([t.spec.power.kappa for t in cluster.tiers])
        self._alpha = np.array([t.spec.power.alpha for t in cluster.tiers])
        if np.any(self._alpha <= 1.0):
            raise ModelValidationError(
                "drift-plus-penalty needs power exponents alpha > 1 "
                "(the per-tier objective must be convex in the speed)"
            )
        self._lo = np.array([t.spec.min_speed for t in cluster.tiers])
        self._hi = np.array([t.spec.max_speed for t in cluster.tiers])
        # The stationary point's per-tier constants, computed once. A
        # positive denominator cannot divide by zero, so only one that
        # underflowed to 0 (a tiny V) needs the warning silenced.
        self._denominator = self.v_param * self._kappa * self._alpha
        self._exponent = 1.0 / (self._alpha - 1.0)
        self._silence = bool(np.any(self._denominator == 0.0))

    def decide(self, t, queue_counts, speeds):
        # Work backlog per tier: queued jobs weighted by class weight
        # and mean demand (seconds of work at speed 1).
        q = np.add.reduce(queue_counts * self._weights * self._demand_means, axis=1)
        return self.speeds_for_backlog(q)

    def speeds_for_backlog(self, backlog: np.ndarray) -> np.ndarray:
        """The drift-plus-penalty minimizer for a work-backlog vector
        (exposed separately for tests and the perf benchmark)."""
        if self.v_param == 0.0:
            # Pure drift minimization: any backlog pins the tier at max
            # speed; an empty tier idles at the floor.
            return np.where(backlog > 0.0, self._hi, self._lo)
        if self._silence:
            with np.errstate(divide="ignore"):
                s_star = (backlog / self._denominator) ** self._exponent
        else:
            s_star = (backlog / self._denominator) ** self._exponent
        return np.minimum(np.maximum(s_star, self._lo), self._hi)

    def fresh(self) -> "DriftPlusPenaltyController":
        return DriftPlusPenaltyController(self._cluster, self.v_param, self._weights)
