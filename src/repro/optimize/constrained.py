"""Multistart box-constrained nonlinear minimization.

The paper's P1 and P2b programs (P2b also inside P3 and the TCO
problem) are smooth, low-dimensional (one speed per tier) and mildly
nonconvex, so the workhorse is SciPy's SLSQP run from several
deterministic starting points across the box, keeping the best
feasible outcome. P2a is solved by tier decomposition instead
(:mod:`repro.core.tier_decomposition`); SLSQP is its fallback and its
test oracle. Objectives are wrapped so that any
:class:`UnstableSystemError` escaping from the queueing formulas turns
into a large finite penalty instead of crashing the line search.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro import obs
from repro.exceptions import ModelValidationError, UnstableSystemError
from repro.optimize.result import OptimizationResult

__all__ = ["Constraint", "minimize_box_constrained", "multistart_points"]

# Finite stand-in objective for points where the queueing model
# diverges; large enough to dominate any realistic delay/power value,
# small enough not to wreck SLSQP's internal scaling.
_PENALTY = 1e9

# Iteration budget of the warm-start attempt. An x0_hint taken from the
# neighboring point of a continuation sweep converges well inside this;
# a hint that needs more was a bad hint, and truncating it just routes
# the solve through the cold multistart fallback.
_WARM_MAXITER = 25

# The local solver every start runs, and the absolute slack below which
# a constraint counts as satisfied.
_METHOD = "SLSQP"
_FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class Constraint:
    """Inequality constraint ``fun(x) >= 0`` with a label for reports."""

    fun: Callable[[np.ndarray], float]
    name: str = "constraint"


def multistart_points(bounds: Sequence[tuple[float, float]], n_starts: int) -> np.ndarray:
    """Deterministic multistart seeds across a box.

    Returns the box midpoint, the near-lower and near-upper corners,
    and a low-discrepancy fill (scrambled-free Halton-like pattern from
    a fixed-seed generator) up to ``n_starts`` points. Deterministic so
    optimization results are reproducible run-to-run.
    """
    if n_starts < 1:
        raise ModelValidationError(f"n_starts must be >= 1, got {n_starts}")
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if np.any(hi < lo):
        raise ModelValidationError(f"empty box: lower {lo} exceeds upper {hi}")
    anchors = [0.5 * (lo + hi), lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)]
    points = anchors[:n_starts]
    if n_starts > len(anchors):
        rng = np.random.default_rng(20110516)  # paper publication date
        extra = rng.uniform(lo, hi, size=(n_starts - len(anchors), lo.size))
        points = anchors + list(extra)
    return np.array(points)


def _safe(fun: Callable[[np.ndarray], float], counter: list[int] | None = None) -> Callable[[np.ndarray], float]:
    """Wrap a model evaluation so instability becomes a finite penalty."""

    def wrapped(x: np.ndarray) -> float:
        if counter is not None:
            counter[0] += 1
        try:
            v = float(fun(np.asarray(x, dtype=float)))
        except UnstableSystemError:
            return _PENALTY
        if not np.isfinite(v):
            return _PENALTY
        return v

    return wrapped


def minimize_box_constrained(
    objective: Callable[[np.ndarray], float],
    bounds: Sequence[tuple[float, float]],
    constraints: Sequence[Constraint] = (),
    n_starts: int = 5,
    label: str = "",
    objective_batch: Callable[[np.ndarray], np.ndarray] | None = None,
    x0_hint: Sequence[float] | np.ndarray | None = None,
    constraint_batch: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimizationResult:
    """Minimize ``objective`` over a box subject to ``g_j(x) >= 0``.

    Parameters
    ----------
    objective:
        Smooth objective; may raise :class:`UnstableSystemError` (turned
        into a penalty).
    bounds:
        Per-coordinate ``(low, high)`` box.
    constraints:
        Inequality constraints, each satisfied when ``fun(x) >= 0``.
    n_starts:
        Number of deterministic multistart seeds.
    label:
        Telemetry label for the solve (e.g. ``"p1"``); shows up in the
        ``optimize.solve`` span and the ``solver.result`` event.
    objective_batch:
        Optional vectorized objective: maps an ``(n, d)`` matrix of
        points to ``n`` objective values in one call (``inf`` allowed
        for divergent points). When given, all multistart seeds are
        evaluated in a single batched call and the local solver starts
        from the most promising seed first — the same starts are still
        all run, so the optimum found does not change, but the best
        incumbent is established early. See
        :class:`repro.core.batch_eval.BatchEvaluator`.
    x0_hint:
        Optional warm start (e.g. the optimum of the neighboring point
        on a constraint sweep — see :mod:`repro.optimize.sweep`).
        Clipped into the box and solved *first*; the warm solve is
        accepted — skipping the multistart loop entirely — only when it
        converged to a feasible point that beats every batch-scored
        multistart seed, so a failed warm start can never do worse than
        the cold solve (the warm candidate is merged into the
        multistart fallback). ``meta["warm_start"]`` records the
        outcome.
    constraint_batch:
        Optional vectorized constraint slack: maps an ``(n, d)`` matrix
        of points to the ``n`` *minimum* slacks ``min_j g_j(x_i)``
        (negative = infeasible). Used to exclude infeasible seeds from
        the warm-start acceptance guard; never used to decide final
        feasibility.

    Returns
    -------
    OptimizationResult
        Best point across starts; ``success`` requires feasibility at
        tolerance (``1e-6`` absolute slack) and solver convergence on
        at least one start. SciPy's per-start diagnostics (``nit``,
        ``nfev``, ``status``, ``message``) of the winning start are
        surfaced on the result, and ``meta["constraint_residuals"]``
        maps each constraint name to its final slack ``g_j(x)``
        (negative = violated).
    """
    from scipy.optimize import minimize

    evals = [0]
    safe_obj = _safe(objective, evals)
    scipy_constraints = [
        {"type": "ineq", "fun": _safe(c.fun)} for c in constraints
    ]
    # Clip bounds as ndarrays, built once per solve (not per start).
    lo_arr = np.array([b[0] for b in bounds], dtype=float)
    hi_arr = np.array([b[1] for b in bounds], dtype=float)

    starts = multistart_points(bounds, n_starts)
    seed_values: np.ndarray | None = None
    if objective_batch is not None and len(starts) > 1:
        # One vectorized call ranks every seed; SLSQP then runs
        # best-seed-first so the incumbent is strong from start one.
        seed_values = np.asarray(objective_batch(starts), dtype=float)
        if seed_values.shape != (len(starts),):
            raise ModelValidationError(
                f"objective_batch must return {len(starts)} values, "
                f"got shape {seed_values.shape}"
            )
        evals[0] += len(starts)
        obs.event(
            "optimize.batch_seeds",
            label=label,
            n_seeds=len(starts),
            best_seed_value=float(np.min(seed_values)),
        )

    # The warm-start acceptance bar: the best objective among *feasible*
    # multistart seeds. A converged cold start launched from that seed
    # can only land at or below its raw value, so a warm result beating
    # it is safe to accept without running the cold starts at all.
    guard_value: float | None = None
    if seed_values is not None:
        feasible_seeds = np.isfinite(seed_values)
        if constraint_batch is not None:
            slacks = np.asarray(constraint_batch(starts), dtype=float)
            if slacks.shape != (len(starts),):
                raise ModelValidationError(
                    f"constraint_batch must return {len(starts)} slacks, "
                    f"got shape {slacks.shape}"
                )
            feasible_seeds &= slacks >= -_FEASIBILITY_TOL
        if np.any(feasible_seeds):
            guard_value = float(np.min(seed_values[feasible_seeds]))
    if seed_values is not None:
        starts = starts[np.argsort(seed_values, kind="stable")]

    def violation(x: np.ndarray) -> float:
        worst = 0.0
        for c in constraints:
            try:
                g = float(c.fun(x))
            except UnstableSystemError:
                g = -_PENALTY
            worst = max(worst, -g)
        return worst

    def residuals(x: np.ndarray) -> dict[str, float]:
        out: dict[str, float] = {}
        for c in constraints:
            try:
                out[c.name] = float(c.fun(x))
            except UnstableSystemError:
                out[c.name] = -_PENALTY
        return out

    def attempt(x0: np.ndarray, maxiter: int = 200) -> OptimizationResult:
        """One local solve from ``x0``, clipped back into the box."""
        try:
            res = minimize(
                safe_obj,
                x0,
                method=_METHOD,
                bounds=bounds,
                constraints=scipy_constraints,
                options={"maxiter": maxiter, "ftol": 1e-10},
            )
        except Exception as exc:  # pragma: no cover - scipy internal failures
            return OptimizationResult(
                x=x0, fun=_PENALTY, success=False, message=f"solver error: {exc}",
                n_evaluations=evals[0],
            )
        x = np.clip(res.x, lo_arr, hi_arr)
        viol = violation(x)
        return OptimizationResult(
            x=x,
            fun=safe_obj(x),
            success=bool(viol <= _FEASIBILITY_TOL and safe_obj(x) < _PENALTY),
            message=str(res.message),
            n_evaluations=evals[0],
            constraint_violation=viol,
            nit=int(getattr(res, "nit", 0) or 0),
            nfev=int(getattr(res, "nfev", 0) or 0),
            status=int(res.status) if getattr(res, "status", None) is not None else None,
        )

    best: OptimizationResult | None = None
    warm_info: dict[str, object] | None = None
    with obs.span(
        "optimize.solve",
        label=label,
        method=_METHOD,
        n_starts=n_starts,
        n_constraints=len(constraints),
        warm=x0_hint is not None,
    ) as sp:
        if x0_hint is not None:
            hint = np.asarray(x0_hint, dtype=float).ravel()
            if hint.shape != lo_arr.shape:
                raise ModelValidationError(
                    f"x0_hint must have {lo_arr.size} coordinates, got {hint.size}"
                )
            hint = np.clip(hint, lo_arr, hi_arr)
            # A genuine continuation step converges in a handful of
            # iterations; the cap bounds the cost of a bad hint. A
            # truncated attempt fails the convergence check and falls
            # back to the cold multistart — values unchanged.
            warm = attempt(hint, maxiter=_WARM_MAXITER)
            converged = bool(warm.success and warm.status == 0)
            accepted = converged and (
                guard_value is None or warm.fun <= guard_value + _FEASIBILITY_TOL
            )
            warm_info = {
                "accepted": accepted,
                "converged": converged,
                "fun": warm.fun,
                "guard_value": guard_value,
            }
            if accepted:
                best = warm
            elif warm.better_than(best):
                # Failed warm start: keep it as a candidate and fall
                # through to the full cold multistart loop below.
                best = warm
        if warm_info is None or not warm_info["accepted"]:
            for x0 in starts:
                candidate = attempt(x0)
                if candidate.better_than(best):
                    best = candidate
    assert best is not None  # n_starts >= 1 guarantees at least one candidate
    best.n_evaluations = evals[0]
    best.meta["constraint_residuals"] = residuals(best.x)
    if warm_info is not None:
        best.meta["warm_start"] = warm_info
    obs.event(
        "solver.result",
        label=label,
        method=_METHOD,
        success=best.success,
        fun=best.fun,
        nit=best.nit,
        nfev=best.nfev,
        status=best.status,
        message=best.message,
        n_evaluations=best.n_evaluations,
        constraint_violation=best.constraint_violation,
        warm_accepted=None if warm_info is None else warm_info["accepted"],
        wall_s=sp.wall_s,
    )
    obs.counter("opt.solves").inc()
    obs.counter("opt.evaluations").add(best.n_evaluations)
    return best
