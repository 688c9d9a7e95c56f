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
    """Outcome of :func:`solve_p2a`.

    ``x`` meets the bound on the scalar path's bits; ``multiplier`` is
    the ``μ`` it is the per-tier argmin at, ``duality_gap``
    ``P(x) − L(μ)`` in watts, ``rows`` the kernel rows evaluated and
    ``passes`` the grid passes run.
    """

    x: np.ndarray
    multiplier: float
    duality_gap: float
    rows: int
    passes: int


class _Pass:
    """Every tier's grid, its stable rows' sojourns, ``p_i`` and ``f_i``."""

    def __init__(self, batch: BatchEvaluator, grids: list[np.ndarray]):
        lam = batch.arrival_rates
        weights = batch.visit_ratios * (lam / lam.sum())[:, None]  # (K, M)
        self.batch = batch
        self.grids, self.sojourns, self.power, self.delay = [], [], [], []
        self.rows = 0
        for i, (kernel, grid) in enumerate(zip(batch.kernels, grids)):
            sojourns, failed = kernel.sojourns(grid, kernel.servers)
            self.rows += grid.size
            if failed is not None:
                stable = np.isnan(failed)
                grid, sojourns = grid[stable], sojourns[stable]
            self.grids.append(grid)
            self.sojourns.append(sojourns)
            self.power.append(
                kernel.servers * kernel.idle
                + kernel.work_rate * kernel.kappa * grid ** (kernel.alpha - 1.0)
            )
            self.delay.append(sojourns @ weights[:, i])

    def choose(self, mu: np.ndarray) -> np.ndarray:
        """Per-tier grid argmins of ``p_i + μ f_i``, ``(n_μ, M)``."""
        return np.stack(
            [
                np.argmin(p[None, :] + mu[:, None] * f[None, :], axis=1)
                for p, f in zip(self.power, self.delay)
            ],
            axis=1,
        )

    def mean_delay(self, idx: np.ndarray) -> np.ndarray:
        """The scalar path's mean delay of each row of grid indices."""
        sojourns = np.stack([s[idx[:, i]] for i, s in enumerate(self.sojourns)], axis=1)
        return self.batch.mean_delay_of(sojourns)

    def speeds(self, idx: np.ndarray) -> np.ndarray:
        """The speeds at one row of grid indices."""
        return np.array([g[j] for g, j in zip(self.grids, idx)])

    def lagrangian(self, mu: float, bound: float) -> float:
        """``L(μ)`` over these grids."""
        return float(sum(np.min(p + mu * f) for p, f in zip(self.power, self.delay))) - mu * bound

    def search(self, bound: float) -> tuple[np.ndarray, float] | None:
        """The per-tier argmins at the smallest multiplier that meets
        ``bound``, and that multiplier; ``None`` when no multiplier does."""
        bottom = np.zeros((1, len(self.grids)), dtype=int)
        if self.mean_delay(bottom)[0] <= bound:
            return bottom[0], 0.0
        # Below every tier's cheapest move up from its bottom row, all
        # tiers stay there; above every tier's dearest move to its top
        # row, all go there.
        with np.errstate(divide="ignore", invalid="ignore"):
            cheapest = [
                np.min(((p[1:] - p[0]) / (f[0] - f[1:]))[f[0] > f[1:]], initial=np.inf)
                for p, f in zip(self.power, self.delay)
            ]
            dearest = [
                np.max(((p[-1] - p[:-1]) / (f[:-1] - f[-1]))[f[:-1] > f[-1]], initial=0.0)
                for p, f in zip(self.power, self.delay)
            ]
        mu_a, mu_b = (1.0 - _MARGIN) * min(cheapest), (1.0 + _MARGIN) * max(dearest)
        if not (0.0 < mu_a < mu_b < np.inf):
            return None
        (idx_a, idx_b) = self.choose(np.array([mu_a, mu_b]))
        if self.mean_delay(idx_b[None, :])[0] > bound:
            return None
        for _ in range(_MAX_STEPS):
            # One breakpoint left between the ends: idx_b is the answer.
            if np.abs(idx_b - idx_a).sum() <= 1:
                break
            mu = mu_a * (mu_b / mu_a) ** _LADDER
            mu = mu[(mu > mu_a) & (mu < mu_b)]
            if mu.size == 0:
                break
            idx = self.choose(mu)
            meets = self.mean_delay(idx) <= bound
            j = int(np.argmax(meets)) if meets.any() else mu.size
            if j < mu.size:
                mu_b, idx_b = float(mu[j]), idx[j]
            if j > 0:
                mu_a, idx_a = float(mu[j - 1]), idx[j - 1]
        return idx_b, mu_b


def _zoom(grid: np.ndarray, j: int, lo: float, hi: float, step: float) -> tuple[np.ndarray, float]:
    """The next grid around ``grid[j]``: ± ``_ZOOM`` of the current steps
    at a finer step, or the same step re-centred when the choice sat on
    an edge of the grid that is not the box's."""
    at_edge = (j == 0 and grid[0] > lo) or (j == grid.size - 1 and grid[-1] < hi)
    if not at_edge:
        step = 2.0 * _ZOOM * step / (_ZOOM_GRID - 1)
    half = (_ZOOM_GRID - 1) // 2
    points = grid[j] + step * np.arange(-half, half + 1)
    inside = points[(points > lo) & (points < hi)]
    # The centre stays exactly representable, and a box edge the window
    # crosses joins the grid.
    return np.unique(np.concatenate([inside, [grid[j]], [lo] if points[0] <= lo else [],
                                     [hi] if points[-1] >= hi else []])), step


def solve_p2a(
    batch: BatchEvaluator, box: list[tuple[float, float]], bound: float
) -> TierDecomposition | None:
    """Solve P2a on ``batch``'s cluster and workload over ``box``.

    The bound must hold at the box's upper corner (the caller's
    certificate). Returns ``None`` when no multiplier meets the bound
    on the first pass's grids.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    grids = [np.linspace(a, b, _GRID) for a, b in zip(lo, hi)]
    steps = (hi - lo) / (_GRID - 1)
    rows, best = 0, None
    for passes in range(1, _MAX_PASSES + 1):
        grid_pass = _Pass(batch, grids)
        rows += grid_pass.rows
        found = grid_pass.search(bound)
        if found is None:
            break
        idx, mu = found
        power = float(sum(p[j] for p, j in zip(grid_pass.power, idx)))
        if best is None or power < best[0]:
            best = power, grid_pass, idx, mu
        # Stop at the lower corner (the bound holds where power is
        # least), or once the step is under _RESOLUTION of every speed.
        if (passes == 1 and mu == 0.0) or np.all(steps <= _RESOLUTION * grid_pass.speeds(idx)):
            break
        grids, steps = zip(*map(_zoom, grid_pass.grids, idx, lo, hi, steps))
        steps = np.array(steps)
    if best is None:
        return None
    power, grid_pass, idx, mu = best
    return TierDecomposition(
        x=grid_pass.speeds(idx),
        multiplier=mu,
        duality_gap=power - grid_pass.lagrangian(mu, bound),
        rows=rows,
        passes=passes,
    )
