"""The analytic model's tier kernels, evaluated at many configurations.

The P1–P3 optimizers and the exhaustive certification baseline all
probe the *same* analytic model at many candidate configurations —
SLSQP probes, multistart seeds, speed grids, server-count grids. Under
the tandem decomposition each tier's delays depend only on its *own*
speed and server count, so the model factorizes into one kernel per
tier, evaluated over rows of candidate speeds. The kernel is the only
formula code the solvers run: :class:`repro.core.delay.SpeedModel`
calls it on one row per tier solve, :class:`BatchEvaluator` on ``n``.

Row by row the kernel reproduces
``checked_station_delays(tier.with_speed(s).station_spec(), λ_i, i)``
**bit for bit** (Pollaczek–Khinchine, Lee–Longton, Cobham,
Kella–Yechiali, Bondi–Buzen, exact M/G/1 preemptive-resume, insensitive
PS), including the dispatch rules, without building a scaled
distribution or a queue object. That takes the scalar path's operation
order, not just its algebra:

* scaled service moments come from each demand family's
  :meth:`~repro.distributions.base.Distribution.moment_scaler`, and the
  fitted aggregate's from :func:`repro.distributions.fitting.fitted_moments`
  (the Bondi–Buzen and FCFS formulas read moments back from the fitted
  object, not the raw SCV);
* a scalar ``x**2`` on a float is the C library's ``pow``
  (:func:`~repro.distributions.base.float_square`), an array ``x**2``
  is ``x*x``;
* ``np.dot`` of two short vectors is BLAS ``ddot`` (an FMA chain), which
  a stacked ``matmul`` reproduces for up to three classes
  (:func:`_dot_rows`); Python's ``sum()`` and ``np.cumsum`` add left to
  right;
* the Kella–Yechiali gate is decided per row on the speed-scaled rates;
* every ``check_stability`` the scalar dispatch reaches is a per-row
  guard, and a row is unstable iff one of them would raise.

Candidates that are unstable at any queueing tier get ``inf`` delays
instead of the scalar path's :class:`UnstableSystemError` — a
vector-friendly infeasibility signal the optimizers translate to their
penalty value.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.cluster.model import ClusterModel
from repro.distributions.base import float_square
from repro.distributions.exponential import Exponential
from repro.distributions.fitting import fitted_moments
from repro.exceptions import ModelValidationError
from repro.queueing.stability import DEFAULT_RHO_MAX
from repro.workload.classes import Workload

__all__ = ["BatchEvaluator", "TierKernel", "erlang_b_vec", "erlang_c_vec"]


def erlang_b_vec(c, a: np.ndarray) -> np.ndarray:
    """Vectorized Erlang-B ``B(c_j, a_j)`` via the stable recurrence.

    Runs the scalar recurrence ``b = a b / (k + a b)`` to each
    candidate's own server count (candidates with ``c_j < k`` keep
    their converged value), so each element matches
    :func:`repro.queueing.mmc.erlang_b` exactly. ``c`` is one server
    count for every candidate or per-candidate counts.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=int)
    b = np.ones_like(a)
    if c.ndim == 0:
        for k in range(1, int(c) + 1):
            ab = a * b
            b = ab / (k + ab)
    else:
        for k in range(1, int(c.max()) + 1):
            ab = a * b
            b = np.where(k <= c, ab / (k + ab), b)
    return b


def erlang_c_vec(c, a: np.ndarray) -> np.ndarray:
    """Vectorized Erlang-C ``C(c_j, a_j)`` on ``c_j >= 1`` servers,
    elementwise :func:`repro.queueing.mmc.erlang_c` (``inf``-safe:
    saturated candidates, ``a >= c``, return ``nan`` and are masked by
    callers)."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=int)
    b = erlang_b_vec(c, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return c * b / (c - a * (1.0 - b))


def _dot_rows(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.dot(v, x[j])`` for every row ``j`` (``np.dot(v[j], x[j])``
    when ``v`` has a row per row of ``x``), bit for bit.

    ``np.dot`` goes through BLAS ``ddot``; a stacked ``matmul`` of
    ``(1, K) @ (K, 1)`` products runs the same ``ddot`` for ``K <= 3``
    but not for longer rows, which fall back to one ``np.dot`` per row.
    """
    if x.shape[1] <= 3:
        return (x[:, None, :] @ v[..., None])[:, 0, 0]
    return np.array([np.dot(vj, row) for vj, row in zip(np.broadcast_to(v, x.shape), x)])


def _pick(values: np.ndarray, index) -> np.ndarray:
    """``values[index]`` for a slice, a mask or indices; ``take`` copies
    indexed rows several times faster than fancy indexing does."""
    if isinstance(index, np.ndarray) and index.dtype != bool:
        return values.take(index, axis=0)
    return values[index]


def _strided_like(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``values`` copied into rows with ``like``'s element stride: BLAS
    ``ddot`` rounds strided rows of four or more elements differently
    from contiguous ones."""
    step = like.strides[-1] // like.itemsize
    out = np.empty(values.shape[:-1] + (values.shape[-1] * step,))[..., ::step]
    out[...] = values
    return out


def _first_failure(guards: list[np.ndarray]) -> np.ndarray | None:
    """Per row, the first guard value ``check_stability`` would reject
    (``nan`` where none would); ``None`` when every row passes."""
    g = np.stack(guards)
    fail = g >= DEFAULT_RHO_MAX
    if not fail.any():
        return None
    first = g[fail.argmax(axis=0), np.arange(g.shape[1])]
    return np.where(fail.any(axis=0), first, np.nan)


def _agg_scv(agg_mean: np.ndarray, agg_m2: np.ndarray) -> np.ndarray:
    """``max(agg_m2 / agg_mean**2 - 1.0, 0.0)`` on floats, row-wise."""
    scv = agg_m2 / float_square(agg_mean) - 1.0
    return np.where(0.0 > scv, 0.0, scv)


def _cobham(lam: np.ndarray, m: np.ndarray, m2: np.ndarray):
    """The pieces of the M/G/1 priority formulas (Cobham, preemptive-
    resume) for per-class service moments ``m``, ``m2`` of shape
    ``(n, K)``: ``σ_K`` (the stability guard), the cumulative residual
    work ``Σ_{j<=k} λ_j E[S_j²]/2``, ``1 - σ_{k-1}`` and
    ``(1 - σ_{k-1})(1 - σ_k)``."""
    sigma = np.cumsum(lam * m, axis=1)
    residuals = np.cumsum(0.5 * lam * m2, axis=1)
    return (sigma[:, -1], residuals) + _priority_terms(sigma)


def _priority_terms(sigma: np.ndarray):
    """``1 - σ_{k-1}`` and ``(1 - σ_{k-1})(1 - σ_k)`` from the cumulative
    loads ``σ_k`` (``σ_0 = 0``), shape ``(n, K)``."""
    after = 1.0 - sigma
    before = np.concatenate([np.ones((sigma.shape[0], 1)), after[:, :-1]], axis=1)
    return before, before * after


class TierKernel:
    """One tier's formulas over rows of speeds, with the speed-
    independent data precomputed.

    ``lam_station`` is the station's per-class arrival rates: ``(K,)``
    for every row, or ``(n, K)``, one rate row per kernel row, which
    :meth:`rows` re-indexes for a call. Either way each row's results
    are the bits one kernel on that row's rates gives.
    """

    __slots__ = (
        "name",
        "discipline",
        "lam",
        "lam_column",
        "total",
        "probs",
        "exp_rates",
        "_groups",
        "_scalers",
        "idle",
        "kappa",
        "alpha",
        "servers",
        "work_rate",
    )

    def __init__(self, tier, lam_station: np.ndarray):
        self.name = tier.name
        self.discipline = tier.discipline
        demands = tier.demands
        dmean = np.array([d.mean for d in demands])
        # The scalar path sums and dots the station's rate column as
        # handed in, a strided view when there are several tiers, and
        # BLAS ddot rounds strided vectors of four or more elements
        # differently; so the column is kept as well as a copy.
        self.lam_column = lam_station
        self.lam = np.array(lam_station, dtype=float)
        if self.lam.ndim == 1:
            self.total = float(lam_station.sum())
            self.work_rate = float(np.dot(lam_station, dmean))
            total = self.total
        else:
            self.total = np.array([float(r.sum()) for r in lam_station])
            self.work_rate = np.array([float(np.dot(r, dmean)) for r in lam_station])
            total = self.total[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.probs = self.lam / total
        # The Kella–Yechiali gate needs all-exponential demands; whether
        # their scaled rates tie is decided per row.
        self.exp_rates = (
            np.array([d.rate for d in demands])
            if all(isinstance(d, Exponential) for d in demands)
            else None
        )
        # Classes grouped by distribution family, one moment scaler per
        # family and scaling depth (1: service at speed s; 2: the
        # Bondi–Buzen fast server, scaled again by 1/c).
        families: dict[type, list[int]] = {}
        for k, d in enumerate(demands):
            families.setdefault(type(d), []).append(k)
        self._groups = [np.array(ks) for ks in families.values()]
        self._scalers = {
            depth: [fam.moment_scaler([demands[k] for k in ks], depth) for fam, ks in families.items()]
            for depth in (1, 2)
        }
        self.idle = tier.spec.power.idle
        self.kappa = tier.spec.power.kappa
        self.alpha = tier.spec.power.alpha
        self.servers = tier.servers

    def rows(self, index) -> "TierKernel":
        """This kernel on its rate rows ``index`` (indices or a mask),
        one for each row of the next :meth:`sojourns` call; a kernel with
        one rate vector for every row is returned as it is."""
        if self.lam.ndim == 1:
            return self
        kernel = object.__new__(TierKernel)
        for name in self.__slots__:
            setattr(kernel, name, getattr(self, name))
        kernel.lam, kernel.total = _pick(self.lam, index), _pick(self.total, index)
        kernel.probs, kernel.work_rate = _pick(self.probs, index), _pick(self.work_rate, index)
        # Only the one-ddot-per-row path (four or more classes) sees
        # the rate rows' strides.
        kernel.lam_column = (
            kernel.lam
            if self.lam.shape[1] <= 3
            else _strided_like(_pick(self.lam_column, index), self.lam_column)
        )
        return kernel

    def _moments(self, *factors) -> tuple[np.ndarray, np.ndarray]:
        """Per-class moments ``(n, K)`` of ``d.scaled(f_1)...`` rows."""
        scalers = self._scalers[len(factors)]
        if len(scalers) == 1:
            return scalers[0](*factors)
        m = np.empty((factors[0].shape[0], self.lam.shape[-1]))
        m2 = np.empty_like(m)
        for ks, scaler in zip(self._groups, scalers):
            m[:, ks], m2[:, ks] = scaler(*factors)
        return m, m2

    # ------------------------------------------------------------------
    def sojourns(self, s: np.ndarray, c):
        """Per-class mean sojourns ``(n, K)`` at speeds ``s`` (``(n,)``)
        on ``c`` servers, and per row the utilization of the first
        stability check the scalar path would fail (``nan`` where it
        would not; ``None`` when no row fails). Rows that fail hold
        meaningless values.

        ``c`` is one server count, or per-row counts ``(n,)`` that are
        all above one (the single-server formulas are other branches).
        """
        with np.errstate(all="ignore"):
            f = 1.0 / s
            m, m2 = self._moments(f)
            if self.discipline == "loss":
                return m, None
            guards = [_dot_rows(m, self.lam_column) / c]
            single = not isinstance(c, np.ndarray) and c == 1
            if self.discipline == "fcfs":
                out = self._fcfs(m, m2, c, single, guards)
            elif self.discipline == "ps":
                out = self._ps(m, c, single, guards)
            elif single:
                sigma, residuals, before, both = _cobham(self.lam, m, m2)
                guards.append(sigma)
                if self.discipline == "priority_np":
                    out = residuals[:, -1:] / both + m
                else:
                    out = m / before + residuals / both
            elif self.discipline == "priority_np":
                return self._np_multi(f, m, m2, c, guards)
            else:
                out = self._pr_multi(f, m, m2, c, guards)
            return out, _first_failure(guards)

    def _fcfs(self, m, m2, c, single, guards):
        agg_mean = _dot_rows(m, self.probs)
        agg_m2 = _dot_rows(m2, self.probs)
        fit_mean, fit_m2, fit_scv, _, _ = fitted_moments(agg_mean, _agg_scv(agg_mean, agg_m2))
        if single:  # M/G/1
            rho = self.total * fit_mean
            guards.append(rho)
            wq = 0.5 * self.total * fit_m2 / (1.0 - rho)
        else:
            wq = self._mgc_wait(fit_mean, fit_scv, c, guards)
        return wq[:, None] + m

    def _mgc_wait(self, mean, scv, c, guards):
        """Lee–Longton M/G/c wait of the fitted aggregate (``MGc``)."""
        total = self.total
        guards.append(total * mean / c)
        mu = 1.0 / mean
        a = total / mu
        guards.append(a / c)
        return 0.5 * (1.0 + scv) * (erlang_c_vec(c, a) / (c * mu - total))

    def _ps(self, m, c, single, guards):
        total = self.total
        agg_mean = _dot_rows(m, self.lam_column) / total
        rho = total * agg_mean / c
        guards.append(rho)
        if single:
            stretch = 1.0 / (1.0 - rho)
        else:
            a = total * agg_mean
            guards.append(a / c)
            stretch = 1.0 + erlang_c_vec(c, a) / (c * (1.0 - rho))
        return m * stretch[:, None]

    def _np_multi(self, f, m, m2, c, guards):
        """Non-preemptive priority on ``c > 1`` servers: Kella–Yechiali
        on rows whose scaled rates tie, Bondi–Buzen on the rest."""
        if self.exp_rates is None:
            return self._bondi_buzen(f, m, m2, c, guards)
        rates = self.exp_rates / f[:, None]
        first = rates[:, :1]
        tie = (np.abs(rates - first) <= 1e-12 * first).all(axis=1)
        if tie.all():
            return self._kella_yechiali(rates[:, 0], c, guards)
        if not tie.any():
            return self._bondi_buzen(f, m, m2, c, guards)
        out = np.empty_like(m)
        fails = np.full(m.shape[0], np.nan)
        cs = np.broadcast_to(c, tie.shape)
        kella, bondi = self.rows(tie), self.rows(~tie)
        for rows, (part, failed) in (
            (tie, kella._kella_yechiali(rates[tie, 0], cs[tie], [guards[0][tie]])),
            (~tie, bondi._bondi_buzen(f[~tie], m[~tie], m2[~tie], cs[~tie], [guards[0][~tie]])),
        ):
            out[rows] = part
            if failed is not None:
                fails[rows] = failed
        return out, (None if np.isnan(fails).all() else fails)

    def _kella_yechiali(self, mu, c, guards):
        a = self.total / mu
        sigma = np.cumsum(self.lam / (c * mu)[:, None], axis=1)
        guards.append(sigma[:, -1])
        guards.append(a / c)
        w0 = erlang_c_vec(c, a) / (c * mu)
        both = _priority_terms(sigma)[1]
        return w0[:, None] / both + (1.0 / mu)[:, None], _first_failure(guards)

    def _bondi_buzen(self, f, m, m2, c, guards):
        fast = _cobham(self.lam, *self._moments(f, 1.0 / c))
        guards.append(fast[0])
        waits = fast[1][:, -1:] / fast[3] * self._bb_ratio(m, m2, c, guards)[:, None]
        return waits + m, _first_failure(guards)

    def _bb_ratio(self, m, m2, c, guards):
        """Bondi–Buzen's FCFS ratio ``W(M/G/c) / W(M/G/1, fast)`` of the
        fitted aggregate."""
        total = self.total
        agg_mean = _dot_rows(m, self.probs)
        agg_m2 = _dot_rows(m2, self.probs)
        scv = _agg_scv(agg_mean, agg_m2)
        guards.append(total * agg_mean / c)
        fit_mean, _, fit_scv, fast_mean, fast_m2 = fitted_moments(agg_mean, scv, 1.0 / c)
        w_multi = self._mgc_wait(fit_mean, fit_scv, c, guards)
        rho = total * fast_mean
        guards.append(rho)
        w_fast = 0.5 * total * fast_m2 / (1.0 - rho)
        return np.where(w_fast > 0.0, w_multi / w_fast, 1.0)

    def _pr_multi(self, f, m, m2, c, guards):
        """Preemptive-resume on ``c > 1`` servers: the fast server's PR
        waits scaled by Bondi–Buzen's NP multi/fast ratio."""
        fm = self._moments(f, 1.0 / c)
        sigma, residuals, before, both = _cobham(self.lam, *fm)
        guards.append(sigma)
        pr_fast = (fm[0] / before + residuals / both) - fm[0]
        np_fast = residuals[:, -1:] / both
        np_multi = np_fast * self._bb_ratio(m, m2, c, guards)[:, None]
        ratios = np.where(np_fast > 0.0, np_multi / np_fast, 1.0)
        return pr_fast * ratios + m


def _server_groups(counts: np.ndarray):
    """One tier's rows split for :meth:`TierKernel.sojourns`: ``(rows,
    count)`` pairs, single-server rows apart from the rest, and one
    integer count where all rows share it."""
    if (counts == counts[0]).all():
        return [(slice(None), int(counts[0]))]
    single = counts == 1
    groups = [(single, 1)] if single.any() else []
    return groups + [(~single, counts[~single])]


class BatchEvaluator:
    """Evaluates the analytic model at many configurations in one call.

    Parameters
    ----------
    cluster:
        The template configuration — tier order, demands, disciplines,
        power curves and visit ratios are taken from it; speeds (and
        optionally server counts) are the batched decision variables.
    workload:
        The offered multi-class workload, or an ``(n, K)`` array of
        per-class arrival rates, one row for each candidate row.

    Notes
    -----
    All methods accept ``speeds`` of shape ``(n, M)`` (or ``(M,)`` for
    a single candidate) and an optional integer ``servers`` of the same
    shape; server counts default to the template's. With per-row rates
    the candidates are the rate rows, in order (:meth:`rows` picks
    them). Delays are bit-identical to the scalar path at each row's
    configuration and rates; unstable candidates yield ``inf`` delays
    (finite power — power needs no stability).
    """

    def __init__(self, cluster: ClusterModel, workload: Workload | np.ndarray):
        lam = (
            workload.arrival_rates
            if isinstance(workload, Workload)
            else np.asarray(workload, dtype=float)
        )
        if cluster.num_classes != lam.shape[-1]:
            raise ModelValidationError(
                f"cluster is parameterized for {cluster.num_classes} classes "
                f"but workload has {lam.shape[-1]}"
            )
        self.num_tiers = cluster.num_tiers
        self.num_classes = cluster.num_classes
        self.visit_ratios = cluster.visit_ratios
        self.arrival_rates = lam
        self._rate_totals = lam.sum() if lam.ndim == 1 else np.array([r.sum() for r in lam])
        # Per-tier effective arrival rates λ_{ik} = v_{ik} λ_k.
        station_rates = cluster.visit_ratios * lam[..., :, None]  # ([n,] K, M)
        self.kernels = [
            TierKernel(tier, station_rates[..., i]) for i, tier in enumerate(cluster.tiers)
        ]
        for tk in self.kernels:
            if np.any(tk.total <= 0.0):
                raise ModelValidationError(
                    f"tier {tk.name!r}: total arrival rate must be positive"
                )
        self.default_servers = cluster.server_counts

    def rows(self, index) -> "BatchEvaluator":
        """This evaluator on its rate rows ``index`` (indices or a
        mask); one with a single workload is returned as it is. Its
        kernels are re-indexed when first used."""
        if self.arrival_rates.ndim == 1:
            return self
        batch = object.__new__(BatchEvaluator)
        batch.__dict__.update(self.__dict__)
        batch.__dict__.pop("kernels", None)
        batch._source, batch._index = self, index
        batch.arrival_rates = _pick(self.arrival_rates, index)
        batch._rate_totals = _pick(self._rate_totals, index)
        return batch

    @cached_property
    def kernels(self) -> list[TierKernel]:
        """One :class:`TierKernel` per tier (set directly unless this
        evaluator is :meth:`rows` of another)."""
        return [tk.rows(self._index) for tk in self._source.kernels]

    # ------------------------------------------------------------------
    def _canon_inputs(self, speeds, servers):
        s = np.asarray(speeds, dtype=float)
        if s.ndim == 1:
            s = s[None, :]
        if s.ndim != 2 or s.shape[1] != self.num_tiers:
            raise ModelValidationError(
                f"speeds must have shape (n, {self.num_tiers}), got {np.shape(speeds)}"
            )
        if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise ModelValidationError("speeds must be positive and finite")
        if servers is None:
            c = np.broadcast_to(self.default_servers, s.shape)
        else:
            c = np.asarray(servers, dtype=int)
            if c.ndim == 1:
                c = c[None, :]
            c = np.broadcast_to(c, s.shape)
            if np.any(c < 1):
                raise ModelValidationError("server counts must be >= 1")
        return s, c

    # ------------------------------------------------------------------
    def per_tier_sojourns(self, speeds, servers=None) -> np.ndarray:
        """Per-candidate, per-tier, per-class mean sojourns,
        shape ``(n, M, K)`` (``inf`` rows for unstable candidates)."""
        s, c = self._canon_inputs(speeds, servers)
        n = s.shape[0]
        out = np.empty((n, self.num_tiers, self.num_classes))
        bad = np.zeros(n, dtype=bool)
        for i, tk in enumerate(self.kernels):
            for rows, count in _server_groups(c[:, i]):
                out[rows, i, :], first_failure = tk.rows(rows).sojourns(s[rows, i], count)
                if first_failure is not None:
                    bad[rows] |= ~np.isnan(first_failure)
        out[bad] = np.inf
        return out

    def end_to_end_delays(self, speeds, servers=None) -> np.ndarray:
        """Per-class delays ``T_k = Σ_i v_{ik} T_{ik}``, shape ``(n, K)``;
        ``inf`` for unstable candidates."""
        return self._delays_of(self.per_tier_sojourns(speeds, servers))

    def _delays_of(self, sojourns: np.ndarray) -> np.ndarray:
        # As tandem_delays: a row sum over the tiers of v_{ik} T_{ik}.
        weighted = np.ascontiguousarray(self.visit_ratios * np.swapaxes(sojourns, 1, 2))
        return weighted.sum(axis=2)

    def mean_delay(self, speeds, servers=None) -> np.ndarray:
        """Arrival-weighted mean end-to-end delay per candidate,
        shape ``(n,)``."""
        return self.mean_delay_of(self.per_tier_sojourns(speeds, servers))

    def mean_delay_of(self, sojourns: np.ndarray) -> np.ndarray:
        """:meth:`mean_delay` from per-tier sojourns ``(n, M, K)`` (rows
        of :meth:`TierKernel.sojourns`), with the same bits."""
        return _dot_rows(self._delays_of(sojourns), self.arrival_rates) / self._rate_totals

    def average_power(self, speeds, servers=None) -> np.ndarray:
        """Mean cluster power per candidate, shape ``(n,)``:
        ``Σ_i [c_i P_idle,i + R_i κ_i s_i^{α_i − 1}]`` — the work
        arrival rates ``R_i`` are configuration-independent, so power
        is a closed form in the decision variables."""
        s, c = self._canon_inputs(speeds, servers)
        idle = np.array([tk.idle for tk in self.kernels])
        kappa = np.array([tk.kappa for tk in self.kernels])
        alpha = np.array([tk.alpha for tk in self.kernels])
        work = np.atleast_2d(np.stack([tk.work_rate for tk in self.kernels], axis=-1))
        return (c * idle[None, :]).sum(axis=1) + (
            work * kappa[None, :] * s ** (alpha[None, :] - 1.0)
        ).sum(axis=1)
