"""Generic optimization machinery shared by the paper's three problems.

* ``result``      — a uniform :class:`OptimizationResult` record.
* ``constrained`` — multistart nonlinear constrained minimization on a
                    box (SciPy SLSQP under the hood).
* ``integer``     — greedy + local-search integer allocation used by
                    the P3 cost minimizer.
* ``scalar``      — monotone bisection for one-dimensional feasibility
                    thresholds.
* ``sweep``       — warm-start continuation over constraint grids plus
                    parallel execution of independent series (the
                    frontier engine behind F3–F6/F9/A4/T4).
"""

from repro.optimize.result import OptimizationResult
from repro.optimize.constrained import Constraint, minimize_box_constrained, multistart_points
from repro.optimize.integer import greedy_integer_allocation, integer_local_search
from repro.optimize.scalar import bisect_threshold
from repro.optimize.sweep import ContinuationSweep, SweepPoint, continuation_sweep, run_series

__all__ = [
    "OptimizationResult",
    "Constraint",
    "minimize_box_constrained",
    "multistart_points",
    "greedy_integer_allocation",
    "integer_local_search",
    "bisect_threshold",
    "ContinuationSweep",
    "SweepPoint",
    "continuation_sweep",
    "run_series",
]
