"""A cluster tier: homogeneous speed-scalable servers behind one queue."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.server import ServerSpec
from repro.distributions.base import Distribution
from repro.exceptions import ModelValidationError
from repro.queueing.networks import DISCIPLINES, StationSpec

__all__ = ["Tier"]


@dataclass(frozen=True)
class Tier:
    """One tier of the cluster.

    Attributes
    ----------
    name:
        Tier label ("web", "app", "db", ...).
    demands:
        Per-class service-*demand* distributions in work units, highest
        priority first. A demand ``D`` served at speed ``s`` takes
        ``D / s`` seconds.
    spec:
        Hardware :class:`ServerSpec` deployed at this tier.
    servers:
        Number of servers, ``>= 1``.
    speed:
        Current normalized speed, within ``spec``'s DVFS range.
    discipline:
        Queueing discipline (see :data:`repro.queueing.networks.DISCIPLINES`).
    capacity:
        Optional finite buffer: at most this many requests in the tier
        (in service + waiting); arrivals beyond are rejected. Only the
        simulator honors it (see :class:`repro.queueing.finite.MMcK`
        for the single-station analysis); the analytic tandem model
        refuses capacity-limited tiers rather than silently ignoring
        the buffer.
    """

    name: str
    demands: tuple[Distribution, ...]
    spec: ServerSpec
    servers: int = 1
    speed: float = 1.0
    discipline: str = "priority_np"
    capacity: int | None = None

    def __post_init__(self) -> None:
        if len(self.demands) == 0:
            raise ModelValidationError(f"tier {self.name!r} needs at least one class demand")
        if not all(isinstance(d, Distribution) for d in self.demands):
            raise ModelValidationError(f"tier {self.name!r}: demands must be Distribution instances")
        if self.servers < 1 or int(self.servers) != self.servers:
            raise ModelValidationError(
                f"tier {self.name!r}: server count must be a positive integer, got {self.servers}"
            )
        self.check_speed(self.speed)
        if self.discipline not in DISCIPLINES:
            raise ModelValidationError(
                f"tier {self.name!r}: unknown discipline {self.discipline!r}"
            )
        if self.capacity is not None:
            if int(self.capacity) != self.capacity or self.capacity < self.servers:
                raise ModelValidationError(
                    f"tier {self.name!r}: capacity must be an integer >= servers "
                    f"({self.servers}), got {self.capacity}"
                )

    @property
    def num_classes(self) -> int:
        """Number of customer classes the tier is parameterized for."""
        return len(self.demands)

    def service_times(self) -> tuple[Distribution, ...]:
        """Per-class service-*time* distributions at the current speed."""
        return tuple(d.scaled(1.0 / self.speed) for d in self.demands)

    def check_speed(self, speed: float) -> None:
        """Raise unless ``speed`` lies in the spec's DVFS range (the check
        :meth:`with_speed` runs, without building the copy)."""
        if not (self.spec.min_speed - 1e-12 <= speed <= self.spec.max_speed + 1e-12):
            raise ModelValidationError(
                f"tier {self.name!r}: speed {speed} outside DVFS range "
                f"[{self.spec.min_speed}, {self.spec.max_speed}]"
            )

    def require_infinite_buffer(self) -> None:
        """Raise for capacity-limited tiers: the tandem delay formulas
        assume infinite buffers, and silently dropping the limit would
        misreport both delay and loss."""
        if self.capacity is not None:
            raise ModelValidationError(
                f"tier {self.name!r} has a finite buffer (capacity={self.capacity}); "
                "the analytic tandem model does not support finite buffers — "
                "analyze the station with repro.queueing.MMcK or simulate it"
            )

    def station_spec(self) -> StationSpec:
        """The queueing-station view of this tier (raises for
        capacity-limited tiers, see :meth:`require_infinite_buffer`)."""
        self.require_infinite_buffer()
        return StationSpec(
            services=self.service_times(),
            servers=self.servers,
            discipline=self.discipline,
            name=self.name,
        )

    def with_speed(self, speed: float) -> "Tier":
        """Copy with a new speed (validated against the DVFS range)."""
        return replace(self, speed=float(speed))

    def with_servers(self, servers: int) -> "Tier":
        """Copy with a new server count."""
        return replace(self, servers=int(servers))

    def work_rate(self, arrival_rates: np.ndarray, visit_ratios: np.ndarray) -> float:
        """Total work arrival rate (work units / second) at this tier:
        ``R = Σ_k v_k λ_k E[D_k]``.

        Parameters
        ----------
        arrival_rates:
            Per-class arrival rates ``λ_k``.
        visit_ratios:
            Per-class visit counts ``v_k`` at this tier.
        """
        means = np.array([d.mean for d in self.demands])
        return float(np.dot(np.asarray(visit_ratios) * np.asarray(arrival_rates), means))

    def cost(self) -> float:
        """Provider cost of the tier: ``servers × spec.cost``."""
        return self.servers * self.spec.cost
