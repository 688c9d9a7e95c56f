"""Open tandem networks of multi-class priority stations.

The cluster delay model: class-``k`` requests arrive Poisson at rate
``λ_k`` and traverse stations ``1..M`` in order (optionally with
per-class visit ratios ``v_{ik}`` — the mean number of visits a class-k
request pays to station ``i``, modeling e.g. repeated database
round-trips). The per-class **end-to-end delay** is

    T_k = Σ_i v_{ik} · T_{ik},

with ``T_{ik}`` the class-``k`` mean sojourn at station ``i`` from the
appropriate queueing formula.

Decomposition assumption: each station sees Poisson arrivals at rate
``v_{ik} λ_k`` per class. For FCFS exponential stations this is exact
(Burke's theorem); under priority scheduling departures are not Poisson
and the decomposition is an approximation — precisely the approximation
the paper validates by simulation, reproduced in experiment T1.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.exponential import Exponential
from repro.exceptions import ModelValidationError
from repro.queueing.mg1 import MG1
from repro.queueing.mgc import MGc
from repro.queueing.priority import (
    ClassLoad,
    nonpreemptive_priority_mg1,
    preemptive_resume_priority_mg1,
)
from repro.queueing.priority_multiserver import (
    bondi_buzen_priority_waits,
    nonpreemptive_priority_mmc_common_mu,
)
from repro.queueing.stability import check_stability

__all__ = ["StationSpec", "StationDelays", "TandemNetwork", "DISCIPLINES"]

DISCIPLINES = ("fcfs", "priority_np", "priority_pr", "ps", "loss")


@dataclass(frozen=True)
class StationSpec:
    """One station (tier) of the tandem network.

    Attributes
    ----------
    services:
        Per-class service-time distributions at this station, highest
        priority first — already at the station's actual speed.
    servers:
        Number of identical parallel servers.
    discipline:
        ``"fcfs"``, ``"priority_np"`` (non-preemptive head-of-line),
        ``"priority_pr"`` (preemptive-resume) or ``"ps"`` (egalitarian
        processor sharing).
    name:
        Optional label used in reports.
    """

    services: tuple[Distribution, ...]
    servers: int = 1
    discipline: str = "priority_np"
    name: str = ""

    def __post_init__(self) -> None:
        if len(self.services) == 0:
            raise ModelValidationError("station needs at least one class service distribution")
        if not all(isinstance(s, Distribution) for s in self.services):
            raise ModelValidationError("services must be Distribution instances")
        if self.servers < 1 or int(self.servers) != self.servers:
            raise ModelValidationError(f"server count must be a positive integer, got {self.servers}")
        if self.discipline not in DISCIPLINES:
            raise ModelValidationError(
                f"unknown discipline {self.discipline!r}; expected one of {DISCIPLINES}"
            )

    @property
    def num_classes(self) -> int:
        """Number of customer classes the station is parameterized for."""
        return len(self.services)


@dataclass(frozen=True)
class StationDelays:
    """Per-class delay decomposition at one station."""

    name: str
    mean_waits: np.ndarray
    mean_sojourns: np.ndarray
    utilization: float


def _common_exponential_rate(services: Sequence[Distribution]) -> float | None:
    """Return the shared rate if all services are Exponential with equal
    rates (within 1e-12 relative), else None."""
    if not all(isinstance(s, Exponential) for s in services):
        return None
    rates = [s.rate for s in services]  # type: ignore[attr-defined]
    first = rates[0]
    if all(abs(r - first) <= 1e-12 * first for r in rates):
        return first
    return None


def station_delays(spec: StationSpec, arrival_rates: Sequence[float]) -> StationDelays:
    """Per-class mean waits and sojourns at a single station.

    Dispatches to the sharpest available formula:

    * FCFS: aggregate M/G/1 (exact) or M/G/c (Lee–Longton).
    * Non-preemptive priority, 1 server: Cobham (exact).
    * Non-preemptive priority, c servers, identical exponential
      service: Kella–Yechiali (exact).
    * Non-preemptive priority, c servers, general service:
      Bondi–Buzen scaling (approximation).
    * Preemptive-resume, 1 server: exact M/G/1 PR formula.
    * Preemptive-resume, c servers: Bondi–Buzen scaling of the PR
      single-fast-server waits.
    * Processor sharing: exact insensitive M/G/1-PS sojourns (``c = 1``)
      or the standard insensitive multi-server approximation.
    """
    lam = np.asarray(arrival_rates, dtype=float)
    if lam.ndim != 1 or lam.size != spec.num_classes:
        raise ModelValidationError(
            f"expected {spec.num_classes} arrival rates, got shape {lam.shape}"
        )
    if np.any(lam < 0.0):
        raise ModelValidationError(f"arrival rates must be non-negative, got {lam}")
    total = float(lam.sum())
    if total <= 0.0:
        raise ModelValidationError("total arrival rate at a station must be positive")
    services = spec.services
    c = spec.servers

    if spec.discipline == "fcfs":
        probs = lam / total
        agg_mean = float(np.dot(probs, [s.mean for s in services]))
        agg_m2 = float(np.dot(probs, [s.second_moment for s in services]))
        scv = max(agg_m2 / agg_mean**2 - 1.0, 0.0)
        from repro.distributions.fitting import fit_two_moments

        agg = fit_two_moments(agg_mean, scv)
        wq = MG1(total, agg).mean_wait if c == 1 else MGc(total, agg, c).mean_wait
        waits = np.full(lam.size, wq)
        sojourns = waits + np.array([s.mean for s in services])
        rho = total * agg_mean / c
        return StationDelays(spec.name, waits, sojourns, rho)

    if spec.discipline == "loss":
        # M/G/c/c: accepted requests never wait; blocking is the
        # station's defining metric and lives on repro.queueing.loss
        # (the tandem delay model only describes *accepted* flow).
        means = np.array([s.mean for s in services])
        a = float(np.dot(lam, means))
        from repro.queueing.mmc import erlang_b

        b = erlang_b(c, a)
        rho = a * (1.0 - b) / c
        return StationDelays(spec.name, np.zeros(lam.size), means, rho)

    if spec.discipline == "ps":
        from repro.queueing.ps import ps_sojourn_times

        sojourns = ps_sojourn_times(lam, services, c)
        means = np.array([s.mean for s in services])
        rho = float(np.dot(lam, means)) / c
        return StationDelays(spec.name, sojourns - means, sojourns, rho)

    loads = [ClassLoad(l, s) for l, s in zip(lam, services)]

    if spec.discipline == "priority_np":
        if c == 1:
            pw = nonpreemptive_priority_mg1(loads)
        else:
            mu = _common_exponential_rate(services)
            if mu is not None:
                pw = nonpreemptive_priority_mmc_common_mu(lam, mu, c)
            else:
                pw = bondi_buzen_priority_waits(loads, c)
        return StationDelays(spec.name, pw.mean_waits, pw.mean_sojourns, pw.total_utilization)

    # preemptive-resume
    if c == 1:
        pw = preemptive_resume_priority_mg1(loads)
        return StationDelays(spec.name, pw.mean_waits, pw.mean_sojourns, pw.total_utilization)
    # Multi-server PR: Bondi-Buzen scaling applied to the PR fast-server waits.
    fast = [ClassLoad(l.arrival_rate, l.service.scaled(1.0 / c)) for l in loads]
    pw_fast = preemptive_resume_priority_mg1(fast)
    np_fast = nonpreemptive_priority_mg1(fast)
    np_multi = bondi_buzen_priority_waits(loads, c)
    # Scale each class's PR fast wait by the NP multi/fast ratio.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(np_fast.mean_waits > 0.0, np_multi.mean_waits / np_fast.mean_waits, 1.0)
    waits = pw_fast.mean_waits * ratios
    services_mean = np.array([s.mean for s in services])
    return StationDelays(spec.name, waits, waits + services_mean, np_multi.total_utilization)


def checked_station_delays(
    spec: StationSpec, arrival_rates: np.ndarray, index: int
) -> StationDelays:
    """:func:`station_delays` behind the tandem's stability check.

    Raises :class:`UnstableSystemError` if the station (the
    ``index``-th of its network) is saturated; loss stations cannot
    saturate and are not checked.
    """
    if spec.discipline != "loss":
        check_stability(
            float(np.dot(arrival_rates, [s.mean for s in spec.services])) / spec.servers,
            where=spec.name or f"station {index}",
        )
    return station_delays(spec, arrival_rates)


def tandem_delays(visit_ratios: np.ndarray, per_station: Sequence[np.ndarray]) -> np.ndarray:
    """Per-class end-to-end delays ``T_k = Σ_i v_{ik} T_{ik}`` from each
    station's per-class mean sojourns."""
    sojourns = np.stack(per_station, axis=1)  # (K, M)
    return (visit_ratios * sojourns).sum(axis=1)


def arrival_weighted_mean(arrival_rates: np.ndarray, delays: np.ndarray) -> float:
    """``Σ_k λ_k T_k / Λ`` — the aggregate mean delay."""
    return float(np.dot(arrival_rates, delays) / arrival_rates.sum())


def check_visit_ratios(visit_ratios, num_classes: int, num_stations: int) -> np.ndarray:
    """Validate a ``(num_classes, num_stations)`` visit-ratio matrix;
    returns it as a float array."""
    visit_ratios = np.asarray(visit_ratios, dtype=float)
    if visit_ratios.shape != (num_classes, num_stations):
        raise ModelValidationError(
            f"visit_ratios must have shape ({num_classes}, {num_stations}), "
            f"got {visit_ratios.shape}"
        )
    if np.any(visit_ratios < 0.0):
        raise ModelValidationError("visit ratios must be non-negative")
    if np.any(visit_ratios.sum(axis=1) <= 0.0):
        raise ModelValidationError("every class must visit at least one station")
    return visit_ratios


class TandemNetwork:
    """A tandem of priority stations with per-class visit ratios.

    Parameters
    ----------
    stations:
        Ordered station specs; all must declare the same number of
        classes.
    visit_ratios:
        Optional ``(num_classes, num_stations)`` array of mean visit
        counts; defaults to all-ones (pure tandem).
    """

    def __init__(
        self,
        stations: Sequence[StationSpec],
        visit_ratios: np.ndarray | None = None,
    ):
        if len(stations) == 0:
            raise ModelValidationError("network needs at least one station")
        k = stations[0].num_classes
        if any(s.num_classes != k for s in stations):
            raise ModelValidationError("all stations must declare the same number of classes")
        self.stations = list(stations)
        self.num_classes = k
        self.num_stations = len(stations)
        if visit_ratios is None:
            visit_ratios = np.ones((k, self.num_stations))
        self.visit_ratios = check_visit_ratios(visit_ratios, k, self.num_stations)

    def station_arrival_rates(self, arrival_rates: Sequence[float]) -> np.ndarray:
        """Effective per-class arrival rate at each station:
        ``λ_{ik} = v_{ik} λ_k``. Shape ``(num_classes, num_stations)``.
        """
        lam = np.asarray(arrival_rates, dtype=float)
        if lam.shape != (self.num_classes,):
            raise ModelValidationError(
                f"expected {self.num_classes} arrival rates, got shape {lam.shape}"
            )
        return self.visit_ratios * lam[:, None]

    def utilizations(self, arrival_rates: Sequence[float]) -> np.ndarray:
        """Total utilization of each station (len ``num_stations``)."""
        rates = self.station_arrival_rates(arrival_rates)
        out = np.empty(self.num_stations)
        for i, spec in enumerate(self.stations):
            means = np.array([s.mean for s in spec.services])
            out[i] = float(np.dot(rates[:, i], means)) / spec.servers
        return out

    def is_stable(self, arrival_rates: Sequence[float]) -> bool:
        """True iff every *queueing* station's utilization is strictly
        below 1 (loss stations have no queue to grow)."""
        rho = self.utilizations(arrival_rates)
        queueing = np.array([s.discipline != "loss" for s in self.stations])
        return bool(np.all(rho[queueing] < 1.0))

    def per_station_delays(self, arrival_rates: Sequence[float]) -> list[StationDelays]:
        """Per-class delay decomposition at every station.

        Raises :class:`UnstableSystemError` at the first saturated
        station.
        """
        rates = self.station_arrival_rates(arrival_rates)
        return [
            checked_station_delays(spec, rates[:, i], i) for i, spec in enumerate(self.stations)
        ]

    def end_to_end_delays(self, arrival_rates: Sequence[float]) -> np.ndarray:
        """Per-class mean end-to-end delay ``T_k = Σ_i v_{ik} T_{ik}``."""
        return tandem_delays(
            self.visit_ratios, [d.mean_sojourns for d in self.per_station_delays(arrival_rates)]
        )

    def mean_delay(self, arrival_rates: Sequence[float]) -> float:
        """Arrival-weighted average end-to-end delay over all classes —
        the objective of problem P1 and the aggregate constraint of
        P2a."""
        lam = np.asarray(arrival_rates, dtype=float)
        return arrival_weighted_mean(lam, self.end_to_end_delays(arrival_rates))
