"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the package throws with a single ``except`` clause while
still being able to discriminate the common failure modes: an unstable
queueing system (:class:`UnstableSystemError`), an infeasible
optimization problem (:class:`InfeasibleProblemError`) and malformed
model inputs (:class:`ModelValidationError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ModelValidationError(ReproError, ValueError):
    """An input model (cluster, workload, distribution) is malformed.

    Raised eagerly at construction time wherever possible so invalid
    configurations fail loudly instead of producing nonsense metrics.
    """


class UnstableSystemError(ReproError, ValueError):
    """A queueing system was evaluated outside its stability region.

    Analytical formulas for mean waiting time diverge as utilization
    approaches one; evaluating them at ``rho >= 1`` would silently
    return negative or infinite garbage, so the library raises instead.

    Attributes
    ----------
    utilization:
        The offending utilization value, when known.
    """

    def __init__(self, message: str, utilization: float | None = None):
        super().__init__(message)
        self.utilization = utilization


class InfeasibleProblemError(ReproError, ValueError):
    """A constrained optimization problem has an empty feasible set.

    For example: a delay bound tighter than the zero-queueing service
    time achievable at maximum speed, or an energy budget below idle
    power. The message explains which constraint cannot be met.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge to a feasible point."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class ReproWarning(UserWarning):
    """Base class for all warnings issued by the :mod:`repro` package."""


class CompiledFallbackWarning(ReproWarning):
    """The compiled simulation backend was requested but not used.

    Issued (once per process and reason) when the ``compiled`` backend
    is requested but the C kernel cannot be built/loaded or a tier's
    discipline is one the kernel does not model; a pooled run warns in
    its parent. The run transparently degrades to the pure-Python
    engine, which produces bit-identical results.
    """


class WarmupDiscardWarning(ReproWarning):
    """A simulation's warmup window discarded most of its data.

    Issued when more than half of the jobs that completed during a
    replication arrived before the warmup cutoff and were therefore
    excluded from the statistics: the surviving tail is small and the
    reported delays are correspondingly noisy. Lengthen the horizon or
    shrink ``warmup_fraction``.
    """
