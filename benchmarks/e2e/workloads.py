"""The benchmark's workloads: the ``repro`` command each runs and how its output is checked.

Every workload is one CLI command a user runs; why each one is in the
benchmark is recorded in ``BENCHMARK.json`` and ``README.md``. The
benchmark makes the command's inputs from the workload seed; commands
that take no seed get the same inputs for every seed. Checks read only
what the command leaves behind (stdout and, for fleets, the store
directory), so they work the same on any commit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = json.loads((HERE / "expected.json").read_text())

FLEET_LOADS = (0.6, 0.8, 1.0, 1.2)
#: Fleet units re-simulated with the Python engine after timing.
RESIM_UNITS = 4
#: Largest relative gap allowed between the simulated and analytic
#: mean delay of the adaptive workload.
ANALYTIC_TOLERANCE = 0.03


@dataclass
class Outcome:
    """What one command did, as its output checks see it."""

    attempted: int
    failed: int
    units_done: int
    problems: list[str] = field(default_factory=list)
    #: Fingerprint of the output; repeats of one seed must agree.
    digest: str | None = None
    #: Layer counts read from the output (fleet store size and chunks).
    info: dict[str, float] = field(default_factory=dict)
    #: Fleet rows kept for re-simulation, by unit id.
    rows: dict[int, dict[str, Any]] = field(default_factory=dict)


def _use_source_tree() -> None:
    """Let the checks import the package under test in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _pin(name: str, seed: int) -> Any:
    pins = EXPECTED[name]
    return pins.get(str(seed), pins.get("*"))


class Workload:
    """Base: a named command run with one simulation backend."""

    name: str
    backend: str

    @property
    def compiled(self) -> bool:
        return self.backend == "compiled"

    def argv(self, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, seed: int, code: int, stdout: str, out: Path) -> Outcome:
        raise NotImplementedError

    def post_check(self, seed: int, outcomes: list[Outcome]) -> list[str]:
        """Checks run once after timing; returns problems found."""
        return []


@dataclass(frozen=True)
class Fleet(Workload):
    name: str
    replications: int
    horizon: float
    jobs: int
    backend: str = "compiled"

    @property
    def units(self) -> int:
        return len(FLEET_LOADS) * self.replications

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "fleet",
            "--load-factors", ",".join(f"{f:g}" for f in FLEET_LOADS),
            "--replications", str(self.replications),
            "--horizon", f"{self.horizon:g}",
            "--backend", "compiled",
            "--format", "npz",
            "--jobs", str(self.jobs),
            "--seed", str(seed),
            "--out", str(out / "store"),
        ]

    def check(self, seed: int, code: int, stdout: str, out: Path) -> Outcome:
        store = out / "store"
        if not (store / "manifest.json").exists():
            return Outcome(self.units, self.units, 0, [f"exit {code}, no fleet store written"])
        manifest = json.loads((store / "manifest.json").read_text())
        meta = manifest["meta"]
        cols = read_store(store, manifest)
        n_done = int(meta.get("n_done", 0))
        failed = int(meta.get("n_failed", self.units))
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if not manifest["final"]:
            problems.append("store manifest not finalized")
        if failed:
            problems.append(f"{failed} unit(s) failed: {meta.get('failures')}")
        order = np.argsort(cols["unit"], kind="stable")
        if not np.array_equal(cols["unit"][order], np.arange(self.units)):
            problems.append(f"store holds {len(order)} rows, not units 0..{self.units - 1}")
            return Outcome(self.units, max(failed, self.units - n_done), n_done, problems)
        cols = {c: v[order] for c, v in cols.items()}
        digest = rows_digest(cols)
        pin = _pin(self.name, seed)
        if pin is not None and digest != pin:
            problems.append(f"store digest {digest} != pinned {pin}")
        picks = np.random.default_rng(seed).choice(self.units, RESIM_UNITS, replace=False)
        rows = {int(u): {c: v[u] for c, v in cols.items()} for u in picks}
        batch = int(meta["batch_size"])
        info = {
            "fleet.chunks": len(FLEET_LOADS) * math.ceil(self.replications / batch),
            "results_store.bytes": sum(p.stat().st_size for p in store.iterdir()),
        }
        return Outcome(self.units, failed, n_done, problems, digest, info, rows)

    def post_check(self, seed: int, outcomes: list[Outcome]) -> list[str]:
        """Re-simulate sampled units with the Python engine, bit for bit."""
        rows = next((o.rows for o in outcomes if o.rows), {})
        if not rows:
            return []
        _use_source_tree()
        from repro.experiments.common import canonical_cluster, canonical_workload
        from repro.simulation import simulate

        os.environ["REPRO_SIM_BACKEND"] = "python"
        problems = []
        for unit, row in sorted(rows.items()):
            s, r = divmod(unit, self.replications)
            res = simulate(
                canonical_cluster(),
                canonical_workload(FLEET_LOADS[s]),
                horizon=self.horizon,
                warmup_fraction=0.1,
                seed=np.random.SeedSequence(seed, spawn_key=(s, r)),
            )
            expect = {
                "n_events": res.meta["n_events"],
                "n_completed": int(res.n_completed.sum()),
                "mean_delay": float(res.mean_delay),
                "average_power": float(res.average_power),
                "energy_per_request": float(res.energy_per_request),
                **{f"delay_c{k}": float(d) for k, d in enumerate(res.delays)},
            }
            diff = {k: (row[k], v) for k, v in expect.items() if row[k] != v}
            if diff:
                problems.append(f"unit {unit} differs from the Python engine: {diff}")
        return problems


def read_store(store: Path, manifest: dict) -> dict[str, np.ndarray]:
    """Every column of an npz fleet store, row groups concatenated."""
    parts: dict[str, list[np.ndarray]] = {c: [] for c in manifest["columns"]}
    for group in manifest["row_groups"]:
        with np.load(store / group["file"]) as npz:
            for c in parts:
                parts[c].append(npz[c])
    return {c: np.concatenate(p) if p else np.empty(0) for c, p in parts.items()}


def rows_digest(cols: dict[str, np.ndarray]) -> str:
    """SHA-256 of store rows (already sorted by unit), without ``wall_s``."""
    h = hashlib.sha256()
    for c in sorted(cols):
        if c == "wall_s":
            continue
        arr = cols[c]
        h.update(c.encode())
        h.update(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


_MEAN_DELAY = re.compile(r"^mean delay (\S+) s \| power .*$", re.M)
_ADAPTIVE = re.compile(r"^adaptive: target met=(\w+) rounds=\d+ used=\d+/(\d+) simulated.*$", re.M)


@dataclass(frozen=True)
class Adaptive(Workload):
    name: str
    horizon: float
    target_rel_ci: float
    max_reps: int
    backend: str = "python"

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "simulate",
            "--horizon", f"{self.horizon:g}",
            "--target-rel-ci", f"{self.target_rel_ci:g}",
            "--max-reps", str(self.max_reps),
            "--jobs", "1",
            "--seed", str(seed),
        ]

    def check(self, seed: int, code: int, stdout: str, out: Path) -> Outcome:
        delay, adaptive = _MEAN_DELAY.search(stdout), _ADAPTIVE.search(stdout)
        if code != 0 or delay is None or adaptive is None:
            return Outcome(1, 1, 0, [f"exit code {code}, summary lines missing"])
        problems = []
        if adaptive.group(1) != "True":
            problems.append(f"precision target not met: {adaptive.group(0)}")
        analytic = analytic_mean_delay()
        gap = abs(float(delay.group(1)) - analytic) / analytic
        if gap > ANALYTIC_TOLERANCE:
            problems.append(
                f"mean delay {delay.group(1)} s is {gap:.1%} from the analytic {analytic:.4f} s"
            )
        digest = delay.group(0) + "\n" + adaptive.group(0)
        pin = _pin(self.name, seed)
        if pin is not None and digest != pin:
            problems.append(f"summary {digest!r} != pinned {pin!r}")
        return Outcome(1, 1 if problems else 0, int(adaptive.group(2)), problems, digest)


@functools.cache
def analytic_mean_delay() -> float:
    """The analytic mean delay of the canonical cluster at load 1."""
    _use_source_tree()
    from repro.core.perf_model import ClusterPerformanceModel
    from repro.experiments.common import canonical_cluster, canonical_workload

    model = ClusterPerformanceModel(canonical_cluster(), canonical_workload(1.0))
    return float(model.report().mean_delay)


@dataclass(frozen=True)
class Stdout(Workload):
    """A command whose whole stdout is pinned (it takes no seed)."""

    name: str
    args: tuple[str, ...]
    backend: str

    def argv(self, seed: int, out: Path) -> list[str]:
        return list(self.args)

    def check(self, seed: int, code: int, stdout: str, out: Path) -> Outcome:
        problems = [] if code == 0 else [f"exit code {code}"]
        if stdout != _pin(self.name, seed):
            problems.append("stdout differs from the pinned output")
        ok = not problems
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return Outcome(1, 0 if ok else 1, 1 if ok else 0, problems, digest)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Fleet("fleet_serial", replications=500, horizon=200, jobs=1),
        Fleet("fleet_pool", replications=5000, horizon=5, jobs=2),
        # A target met in the first round: where the adaptive engine stops
        # depends on the seed (4.6 to 10.3 s for seeds 0-5 at a 0.3%
        # target), which would swamp every bound across seeds.
        Adaptive("adaptive_python", horizon=3000, target_rel_ci=0.05, max_reps=8),
        Stdout("online_control", args=("run", "A7", "--quick"), backend="compiled"),
        Stdout("report_cli", args=("report",), backend="python"),
    )
}
