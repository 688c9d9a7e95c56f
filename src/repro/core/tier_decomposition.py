"""P2a by tier decomposition: one multiplier, one 1-D problem per tier.

P2a minimizes average power ``P(s) = Σ_i p_i(s_i)`` subject to the
aggregate mean delay ``T̄(s) <= D``. Under the tandem decomposition
tier ``i``'s sojourns depend only on its own speed, so the mean delay
is a per-tier sum too:

    T̄(s) = Σ_i f_i(s_i),    f_i(s) = Σ_k (λ_k / Λ) v_ik T_ik(s).

One Lagrange multiplier ``μ`` on the bound splits the Lagrangian

    L(μ) = Σ_i min_{s_i} [p_i(s_i) + μ f_i(s_i)] − μ D

into independent one-dimensional problems, one per tier (the per-queue
decomposition Li & Neely use for the M/G/1 priority queue).
:func:`solve_p2a` evaluates every tier's ``p_i`` and ``f_i`` on a grid
of speeds over its box, one :meth:`TierKernel.sojourns` call per tier,
and finds the smallest ``μ`` whose per-tier argmins meet the bound.
Each step of that search tries a vector of multipliers at once, one
argmin over an ``(n_μ, G)`` matrix per tier. It then re-grids around
each tier's choice and repeats until the grid step is below
``2**-26`` (√ε) of every speed. A finer grid would not help: each
tier's ``p_i + μ f_i`` is flat to second order at its minimum, so below
that step its rounding, not its shape, would pick the argmin.

A candidate meets the bound only if its mean delay, summed from the
kernel rows in the order :meth:`SpeedModel.mean_delay` uses, does: the
returned speeds meet the bound on the scalar path's bits, with no
tolerance. Power rises with speed (``α > 1``) and the sojourns fall,
so each tier's argmin moves up as ``μ`` grows. By weak duality the
gap ``P(s) − L(μ)``, with ``L`` read on the grids of the pass that
chose ``s``, bounds how far ``P(s)`` can be above any point of those
grids that meets the bound; it is ``μ`` times the slack ``s`` leaves
under the bound.

:func:`solve_p2a` solves many such problems in lockstep, one per rate
row of its evaluator, each with its own box and bound (a speed
schedule's epochs): each grid pass is one kernel call per tier over
every problem's grid, and each search step one argmin over every
problem's tiers and multipliers. Grid rows, argmins and mean delays
are computed row by row, so a problem gets the grids, multipliers,
stop and result it gets when solved alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch_eval import BatchEvaluator

__all__ = ["TierDecomposition", "solve_p2a"]

# Speeds per tier on the first pass, over the whole box, and on each
# zoom pass, over ± _ZOOM steps of the previous grid around its choice.
_GRID = 201
_ZOOM_GRID = 101
_ZOOM = 2
_OFFSETS = np.arange(-(_ZOOM_GRID // 2), _ZOOM_GRID // 2 + 1)
# The last pass's step, relative to each speed.
_RESOLUTION = 2.0**-26
# Multipliers tried per search step (geometric between the bracket's
# ends), and the caps on search steps per pass and on passes per solve.
_MULTIPLIERS = 32
_LADDER = np.linspace(0.0, 1.0, _MULTIPLIERS + 2)[1:-1]
_MAX_STEPS = 40
_MAX_PASSES = 40
# How far the search's first bracket reaches past the multipliers at
# which every tier leaves its bottom row or reaches its top row.
_MARGIN = 1e-3


@dataclass
class TierDecomposition:
    """Outcome of one problem of :func:`solve_p2a`.

    ``x`` meets the bound on the scalar path's bits; ``sojourns`` are
    each tier's per-class sojourns there, ``(M, K)`` kernel rows;
    ``multiplier`` is the ``μ`` it is the per-tier argmin at,
    ``duality_gap`` ``P(x) − L(μ)`` in watts, ``rows`` the kernel rows
    evaluated and ``passes`` the grid passes run.
    """

    x: np.ndarray
    sojourns: np.ndarray
    multiplier: float
    duality_gap: float
    rows: int
    passes: int


class _Pass:
    """One grid pass over the problems ``problems`` (rate rows of the
    evaluator), in ``(problem, tier, row)`` arrays. Each tier's stable
    grid rows come first, in order, padded to a common length with rows
    no argmin picks (infinite power, zero delay): ``grids``, ``counts``
    (stable rows, ``(problem, tier)``), ``sojourns`` (a last axis of
    classes), ``power`` (``p_i``) and ``delay`` (``f_i``)."""

    def __init__(self, batch, weights, problems, grids, counts):
        self.batch = batch.rows(problems)
        n, m, width = grids.shape
        self.grids, self.counts = grids.copy(), counts.copy()
        self.sojourns = np.zeros((n, m, width, batch.num_classes))
        self.power = np.full((n, m, width), np.inf)
        self.delay = np.zeros((n, m, width))
        self.rows = counts.sum(axis=1)
        for i, kernel in enumerate(self.batch.kernels):
            grid, count, sojourns = self.grids[:, i], self.counts[:, i], self.sojourns[:, i]
            valid = np.arange(width) < count[:, None]
            if valid.all():  # the usual case: no padding to skip
                owner = np.repeat(np.arange(n), width)
                found, failed = kernel.rows(owner).sojourns(grid.ravel(), kernel.servers)
                sojourns[...] = found.reshape(sojourns.shape)
            else:
                owner = np.nonzero(valid)[0]
                found, failed = kernel.rows(owner).sojourns(grid[valid], kernel.servers)
                sojourns[valid] = found
            if failed is not None:
                # Drop the unstable rows and close up each problem's grid.
                valid[valid] = np.isnan(failed)
                order = np.argsort(~valid, axis=1, kind="stable")
                grid[...] = np.take_along_axis(grid, order, axis=1)
                sojourns[...] = np.take_along_axis(sojourns, order[:, :, None], axis=1)
                count[...] = valid.sum(axis=1)
                valid = np.arange(width) < count[:, None]
                sojourns[~valid] = 0.0
            # NumPy's power may round a strided array apart from a
            # contiguous one, and a problem alone has a contiguous grid.
            speeds = np.ascontiguousarray(grid)
            with np.errstate(invalid="ignore", over="ignore"):
                power = kernel.servers * kernel.idle + np.reshape(
                    kernel.work_rate, (-1, 1)
                ) * kernel.kappa * speeds ** (kernel.alpha - 1.0)
            self.power[:, i][valid] = power[valid]
            for row, (rows, w) in enumerate(zip(count, weights[problems])):
                self.delay[row, i, :rows] = sojourns[row, :rows] @ w[:, i]
        self._buffer = np.empty(n * _MULTIPLIERS * width)

    def choose(self, act: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Per-tier grid argmins of ``p_i + μ f_i`` for the problems
        ``act`` at their multipliers ``mu`` ``(a, J)``: ``(a, J, M)``."""
        power, delay = self.power.take(act, axis=0), self.delay.take(act, axis=0)
        idx = np.empty(mu.shape + power.shape[1:2], dtype=np.intp)
        # One buffer per pass, one tier at a time: fresh pages for each
        # product cost more than the arithmetic, and a buffer for all
        # tiers at once is most of the process's peak memory growth.
        out = self._buffer[: mu.size * power.shape[2]].reshape(mu.shape + power.shape[2:])
        for i in range(power.shape[1]):
            np.multiply(mu[:, :, None], delay[:, None, i], out=out)
            out += power[:, None, i]
            idx[:, :, i] = out.argmin(axis=2)
        return idx

    def mean_delay(self, act: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The scalar path's mean delay at each of the problems ``act``'s
        rows of grid indices ``idx`` ``(a, J, M)``: ``(a, J)``."""
        owner = np.repeat(act, idx.shape[1])
        sojourns = self.at(self.sojourns, owner, idx.reshape(-1, idx.shape[2]))
        return self.batch.rows(owner).mean_delay_of(sojourns).reshape(idx.shape[:2])

    def at(self, values: np.ndarray, owner: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Per-tier ``values`` (grids, power, sojourns) of the problems
        ``owner`` at their rows of grid indices ``idx`` ``(n, M)``."""
        n, m, width = values.shape[:3]
        flat = (owner[:, None] * m + np.arange(m)) * width + idx
        return values.reshape((n * m * width,) + values.shape[3:]).take(flat, axis=0)

    def lagrangian(self, mu: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Each problem's ``L(μ)`` over these grids."""
        lowest = np.min(self.power + mu[:, None, None] * self.delay, axis=2)
        total = 0
        for tier in lowest.T:  # tier by tier, as Python's sum() adds them
            total = total + tier
        return total - mu * bounds

    def search(self, bounds: np.ndarray):
        """Per problem, the per-tier argmins at the smallest multiplier
        that meets its bound, and that multiplier: ``(solved, idx,
        mu)``, with ``solved`` false where no multiplier does."""
        n, m = self.counts.shape
        idx_b = np.zeros((n, m), dtype=int)
        mu_b = np.zeros(n)
        everyone = np.arange(n)
        # A tier with no stable row leaves nothing to choose.
        viable = np.all(self.counts > 0, axis=1)
        solved = viable & (self.mean_delay(everyone, idx_b[:, None, :])[:, 0] <= bounds)
        # Below every tier's cheapest move up from its bottom row, all
        # tiers stay there; above every tier's dearest move to its top
        # row, all go there.
        p, f = self.power, self.delay
        cols = np.arange(p.shape[2] - 1)
        last = self.counts[:, :, None] - 1
        p_top = np.take_along_axis(p, np.maximum(last, 0), axis=2)
        f_top = np.take_along_axis(f, np.maximum(last, 0), axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            cheapest = np.min(
                (p[:, :, 1:] - p[:, :, :1]) / (f[:, :, :1] - f[:, :, 1:]),
                axis=2,
                initial=np.inf,
                where=(f[:, :, :1] > f[:, :, 1:]) & (cols < last),
            )
            dearest = np.max(
                (p_top - p[:, :, :-1]) / (f[:, :, :-1] - f_top),
                axis=2,
                initial=0.0,
                where=(f[:, :, :-1] > f_top) & (cols < last),
            )
        # The problems still searching, with their bracket's ends
        # (multipliers lo < hi and the argmins there) and bounds.
        lo = (1.0 - _MARGIN) * np.min(cheapest, axis=1)
        hi = (1.0 + _MARGIN) * np.max(dearest, axis=1)
        act = everyone[viable & ~solved & (0.0 < lo) & (lo < hi) & (hi < np.inf)]
        lo, hi, bound = lo[act], hi[act], bounds[act]
        idx_lo, idx_hi = np.moveaxis(self.choose(act, np.stack([lo, hi], axis=1)), 1, 0)
        meets = self.mean_delay(act, idx_hi[:, None, :])[:, 0] <= bound
        act, lo, hi, bound, idx_lo, idx_hi = (
            x[meets] for x in (act, lo, hi, bound, idx_lo, idx_hi)
        )
        solved[act] = True
        for _ in range(_MAX_STEPS):
            mu = lo[:, None] * (hi / lo)[:, None] ** _LADDER
            inside = (mu > lo[:, None]) & (mu < hi[:, None])
            # Done: one breakpoint left between the ends (idx_hi is the
            # answer), or no multiplier left inside the bracket.
            going = (np.abs(idx_hi - idx_lo).sum(axis=1) > 1) & inside.any(axis=1)
            if not going.all():
                idx_b[act[~going]], mu_b[act[~going]] = idx_hi[~going], hi[~going]
                act, lo, hi, bound, idx_lo, idx_hi, mu, inside = (
                    x[going] for x in (act, lo, hi, bound, idx_lo, idx_hi, mu, inside)
                )
            if act.size == 0:
                break
            idx = self.choose(act, mu)
            meets = (self.mean_delay(act, idx) <= bound[:, None]) & inside
            # The first multiplier inside the bracket that meets the bound
            # becomes its top, the one inside before it its bottom.
            rows = np.arange(act.size)
            top = np.where(meets.any(axis=1), np.argmax(meets, axis=1), _MULTIPLIERS)
            last_inside = np.maximum.accumulate(
                np.where(inside, np.arange(_MULTIPLIERS), -1), axis=1
            )
            bottom = np.where(top > 0, last_inside[rows, np.maximum(top - 1, 0)], -1)
            up, down = rows[top < _MULTIPLIERS], rows[bottom >= 0]
            hi[up], idx_hi[up] = mu[up, top[up]], idx[up, top[up]]
            lo[down], idx_lo[down] = mu[down, bottom[down]], idx[down, bottom[down]]
        idx_b[act], mu_b[act] = idx_hi, hi
        return solved, idx_b, mu_b


def _zoom(grid, count, j, lo, hi, step):
    """Each problem's next grid of one tier around ``grid[j]``: ±
    ``_ZOOM`` of the current steps at a finer step, or the same step
    re-centred when the choice sat on an edge of the grid that is not
    the box's. Returns the padded grids, their lengths and the steps."""
    centre = grid[np.arange(j.size), j]
    at_edge = ((j == 0) & (centre > lo)) | ((j == count - 1) & (centre < hi))
    step = np.where(at_edge, step, 2.0 * _ZOOM * step / (_ZOOM_GRID - 1))
    points = centre[:, None] + step[:, None] * _OFFSETS
    lo, hi = lo[:, None], hi[:, None]
    # The centre stays exactly representable, and a box edge the window
    # crosses joins the grid.
    points = np.concatenate(
        [
            np.where((points > lo) & (points < hi), points, np.inf),
            centre[:, None],
            np.where(points[:, :1] <= lo, lo, np.inf),
            np.where(points[:, -1:] >= hi, hi, np.inf),
        ],
        axis=1,
    )
    points.sort(axis=1)
    # Sorted, a repeat follows its first copy: keep only the first.
    keep = np.isfinite(points)
    keep[:, 1:] &= points[:, 1:] != points[:, :-1]
    count = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    return np.take_along_axis(points, order, axis=1)[:, : count.max()], count, step


def solve_p2a(
    batch: BatchEvaluator, boxes: np.ndarray, bounds: np.ndarray
) -> list[TierDecomposition | None]:
    """Solve P2a on ``batch``'s cluster for each of its rate rows (one
    problem; a single workload is one problem), over its box
    ``boxes[p]`` (``(M, 2)``, as :func:`stability_speed_bounds` gives)
    and its bound ``bounds[p]``.

    Each bound must hold at its box's upper corner (the caller's
    certificate). A problem's entry is ``None`` when no multiplier
    meets its bound on the first pass's grids.
    """
    boxes = np.asarray(boxes, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = boxes[..., 0], boxes[..., 1]
    n, m = lo.shape
    lam = np.atleast_2d(batch.arrival_rates)
    weights = np.array([batch.visit_ratios * (r / r.sum())[:, None] for r in lam])  # (n, K, M)
    grids = np.linspace(lo, hi, _GRID, axis=2)
    counts = np.full((n, m), _GRID)
    steps = (hi - lo) / (_GRID - 1)
    rows, passes = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    best = np.zeros(n, dtype=bool)
    best_power, best_mu, best_gap = np.zeros(n), np.zeros(n), np.zeros(n)
    best_x = np.zeros((n, m))
    best_sojourns = np.zeros((n, m, batch.num_classes))
    live = np.arange(n)
    for n_pass in range(1, _MAX_PASSES + 1):
        grid_pass = _Pass(batch, weights, live, grids, counts)
        rows[live] += grid_pass.rows
        passes[live] = n_pass
        solved, idx, mu = grid_pass.search(bounds[live])
        here = np.arange(live.size)
        power = 0
        for tier in grid_pass.at(grid_pass.power, here, idx).T:  # as Python's sum() adds
            power = power + tier
        speeds = grid_pass.at(grid_pass.grids, here, idx)
        better = solved & (~best[live] | (power < best_power[live]))
        chosen = live[better]
        best[chosen] = True
        best_power[chosen], best_mu[chosen] = power[better], mu[better]
        best_x[chosen] = speeds[better]
        best_sojourns[chosen] = grid_pass.at(grid_pass.sojourns, here, idx)[better]
        # Weak duality puts the gap at or above zero; below is rounding.
        gap = np.maximum(power - grid_pass.lagrangian(mu, bounds[live]), 0.0)
        best_gap[chosen] = gap[better]
        # Stop at the lower corner (the bound holds where power is
        # least), or once the step is under _RESOLUTION of every speed.
        go = solved & ~((n_pass == 1) & (mu == 0.0))
        go &= ~np.all(steps[live] <= _RESOLUTION * speeds, axis=1)
        if not go.any():
            break
        live = live[go]
        grid, count, step = _zoom(
            grid_pass.grids[go].reshape(-1, grid_pass.grids.shape[2]),
            grid_pass.counts[go].ravel(), idx[go].ravel(),
            lo[live].ravel(), hi[live].ravel(), steps[live].ravel(),
        )
        grids, counts = grid.reshape(live.size, m, -1), count.reshape(live.size, m)
        steps[live] = step.reshape(live.size, m)
    return [
        TierDecomposition(
            best_x[p], best_sojourns[p], float(best_mu[p]), float(best_gap[p]),
            int(rows[p]), int(passes[p]),
        )
        if best[p]
        else None
        for p in range(n)
    ]
