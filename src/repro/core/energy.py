"""Average energy consumption of multi-class priority clusters.

Abstract claim 1 (power half): "... and an average energy consumption
for multiple class customers". Three metrics, all derived from the
DVFS power model ``P_busy(s) = P_idle + κ s^α``:

* :func:`average_power` — mean cluster power draw (watts)

      P(s, c) = Σ_i [ c_i P_idle,i + R_i κ_i s_i^{α_i − 1} ],

  with ``R_i`` the tier's total work arrival rate. This is the P1
  budget quantity and the P2 objective: a power budget over a charging
  period *is* an energy budget.

* :func:`energy_per_request` — amortized energy per request,
  ``P / Λ`` (joules/request), i.e. the provider's energy bill divided
  over the customers served.

* :func:`per_class_energy_per_request` — class-resolved end-to-end
  energy: the *marginal* dynamic energy class k's own service burns,

      E_k^dyn = Σ_i v_{ik} κ_i s_i^{α_i − 1} E[D_{ik}],

  optionally plus a share of idle energy apportioned per request
  (``idle="equal"``) or in proportion to the class's work
  (``idle="work"``).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.model import ClusterModel
from repro.exceptions import ModelValidationError
from repro.workload.classes import Workload

__all__ = [
    "average_power",
    "energy_per_request",
    "per_class_energy_per_request",
]

_IDLE_MODES = ("none", "equal", "work")


def _check(cluster: ClusterModel, workload: Workload) -> None:
    if cluster.num_classes != workload.num_classes:
        raise ModelValidationError(
            f"cluster is parameterized for {cluster.num_classes} classes "
            f"but workload has {workload.num_classes}"
        )


def average_power(cluster: ClusterModel, workload: Workload) -> float:
    """Mean cluster power draw, watts."""
    _check(cluster, workload)
    return cluster.average_power(workload.arrival_rates)


def energy_per_request(cluster: ClusterModel, workload: Workload) -> float:
    """Amortized energy per request: ``P / Λ`` (joules per request)."""
    return average_power(cluster, workload) / workload.total_rate


def per_class_energy_per_request(
    cluster: ClusterModel, workload: Workload, idle: str = "equal"
) -> np.ndarray:
    """Per-class average end-to-end energy per request (joules).

    Parameters
    ----------
    idle:
        How tier idle power is apportioned to classes:
        ``"none"``  — marginal dynamic energy only;
        ``"equal"`` — idle energy split equally over all requests;
        ``"work"``  — idle energy split in proportion to each class's
        share of the cluster's total work.

    Returns
    -------
    numpy.ndarray
        ``E_k`` per class, highest priority first. For any mode the
        identity ``Σ_k λ_k E_k = P − unattributed idle`` holds, with
        zero unattributed idle for the ``"equal"`` and ``"work"``
        modes (conservation checked by the property tests).
    """
    _check(cluster, workload)
    if idle not in _IDLE_MODES:
        raise ModelValidationError(f"idle mode must be one of {_IDLE_MODES}, got {idle!r}")
    lam = workload.arrival_rates
    dynamic = np.zeros(workload.num_classes)
    for i, tier in enumerate(cluster.tiers):
        e_per_work = tier.spec.power.dynamic_energy_per_work(tier.speed)
        demands = np.array([d.mean for d in tier.demands])
        dynamic += cluster.visit_ratios[:, i] * e_per_work * demands
    if idle == "none":
        return dynamic
    total_idle_power = float(sum(t.servers * t.spec.power.idle for t in cluster.tiers))
    if idle == "equal":
        return dynamic + total_idle_power / workload.total_rate
    # idle == "work": share by each class's work arrival rate.
    work_by_class = np.zeros(workload.num_classes)
    for i, tier in enumerate(cluster.tiers):
        demands = np.array([d.mean for d in tier.demands])
        work_by_class += cluster.visit_ratios[:, i] * lam * demands
    shares = work_by_class / work_by_class.sum()
    return dynamic + total_idle_power * shares / lam
