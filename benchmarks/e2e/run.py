"""End-to-end benchmark of the ``repro`` command line.

Each workload is a ``repro`` command run in a fresh process through
``driver.py``, timed from the outside and checked for correct output.
Metric names, units, directions and regression bounds come from
``BENCHMARK.json`` at the repository root.

Run a set (every workload, round-robin, five timed commands each)::

    python benchmarks/e2e/run.py --seed 0 --runs 5 --out A.json

Run one workload for a fixed time, optionally traced::

    python benchmarks/e2e/run.py --workload fleet_pool --seed 3 --seconds 12 --trace 1

Compare two sets (parent first)::

    python benchmarks/e2e/run.py --compare A.json B.json

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the medians in ``metrics`` (end-to-end metrics, or with
``--trace 1`` the per-layer ones). With ``--trace 1`` every timed
command is paired with a traced one, in alternating order.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import trace as span_trace
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DRIVER = HERE / "driver.py"
#: Everything a run writes: kernel cache, temp dirs, per-command output.
WORK = HERE / ".work"
COMMAND_TIMEOUT_S = 60


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Status of one metric between two sets, and how much worse the change is.

    ``worse`` is the change's median against the parent's, as a share of
    the parent's, positive when worse. A pair whose relative quartile
    spread exceeds ``bound`` on either side is unresolved, unless every
    change sample beats every parent sample.
    """
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    lower = better == "lower"
    worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(cmd: list[str], out: Path, env: dict[str, str]):
    """Run ``cmd`` to completion; ``(spawn_ns, exit_ns, exit code, rusage)``.

    ``os.wait4`` gives the rusage of the child and the descendants it
    waited for. A command past the timeout is killed with its whole
    process group.
    """
    with open(out / "stdout", "wb") as so, open(out / "stderr", "wb") as se:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(
            cmd, stdout=so, stderr=se, cwd=out, env=env, start_new_session=True
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        exit_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawn, exit_ns, proc.returncode, usage


class Runner:
    """Runs commands of one set with a shared environment and scratch area."""

    def __init__(self, seed: int):
        self.seed = seed
        for sub in ("kernels", "tmp", "cmd"):
            (WORK / sub).mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        env["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
        env["TMPDIR"] = str(WORK / "tmp")
        self.env = env

    def _driver(self, w, out: Path) -> tuple[list[str], dict[str, str]]:
        cmd = [sys.executable, str(DRIVER), str(out / "stamp.json")]
        if w.compiled:
            cmd.append("--compiled")
        return cmd, {**self.env, "REPRO_SIM_BACKEND": w.backend}

    def ready_only(self, w, kernel_cache: Path | None = None) -> dict:
        """Start the driver without a command (warm-up, or a cold build)."""
        out = Path(tempfile.mkdtemp(dir=WORK / "cmd"))
        try:
            cmd, env = self._driver(w, out)
            if kernel_cache is not None:
                env["REPRO_KERNEL_CACHE"] = str(kernel_cache)
            _, _, code, _ = _spawn(cmd, out, env)
            if code != 0:
                raise RuntimeError(
                    f"{w.name}: driver failed to start (exit {code}):\n"
                    + (out / "stderr").read_text(errors="replace")[-2000:]
                )
            return json.loads((out / "stamp.json").read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def command(self, w, traced: bool):
        """One timed command: ``(end-to-end sample, layer metrics, outcome)``."""
        out = Path(tempfile.mkdtemp(dir=WORK / "cmd"))
        try:
            cmd, env = self._driver(w, out)
            if traced:
                (out / "trace").mkdir()
                cmd += ["--trace", str(out / "trace"), out.name]
            cmd += ["--", *w.argv(self.seed, out)]
            spawn, exit_ns, code, usage = _spawn(cmd, out, env)
            stdout = (out / "stdout").read_text(errors="replace")
            outcome = w.check(self.seed, code, stdout, out)
            stamp_path = out / "stamp.json"
            if not stamp_path.exists():
                outcome.problems.append("the driver wrote no stamp")
                outcome.failed = outcome.attempted
                return None, None, outcome
            tail = (out / "stderr").read_text(errors="replace")[-2000:]
            if outcome.problems and tail.strip():
                outcome.problems.append(f"stderr tail: {tail}")
            stamp = json.loads(stamp_path.read_text())
            wall = (exit_ns - spawn) / 1e9
            sample = {
                "wall_s": wall,
                "setup_s": (stamp["ready_ns"] - spawn) / 1e9,
                "units_per_s": outcome.units_done / wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024,
            }
            layers = None
            if traced:
                spans = span_trace.load_spans(out / "trace")
                layers = span_trace.layer_metrics(spans, stamp["pid"], spawn, exit_ns, stamp)
                layers.update({"fleet.chunks": 0, "results_store.bytes": 0, **outcome.info})
            return sample, layers, outcome
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Record:
    """Everything one workload produced in a set."""

    def __init__(self) -> None:
        self.e2e: dict[str, list[float]] = {}
        self.layers: dict[str, list[float]] = {}
        self.outcomes: list = []
        self.problems: list[str] = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def add(self, outcome, values: dict[str, float] | None, traced: bool) -> None:
        self.outcomes.append(outcome)
        self.problems.extend(outcome.problems)
        target = self.layers if traced else self.e2e
        for k, v in (values or {}).items():
            target.setdefault(k, []).append(v)


def run_set(names: list[str], seed: int, runs: int | None, seconds: float | None,
            trace: bool) -> dict[str, Record]:
    """Warm up, then time the workloads round-robin; checks run after timing."""
    runner = Runner(seed)
    selected = [WORKLOADS[n] for n in names]
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    build_s = {}
    for w in selected:
        runner.ready_only(w)
        if trace and w.compiled:
            cold = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
            try:
                stamp = runner.ready_only(w, kernel_cache=cold)
            finally:
                shutil.rmtree(cold, ignore_errors=True)
            build_s[w.name] = (stamp["ready_ns"] - stamp["imported_ns"]) / 1e9

    records = {w.name: Record() for w in selected}

    def more(w) -> bool:
        rec = records[w.name]
        if runs is not None:
            # A failed command leaves no sample; give up after 2 * runs commands.
            return len(rec.e2e.get("wall_s", ())) < runs and len(rec.outcomes) < 2 * runs
        return rec.elapsed < seconds

    rnd = 0
    while any(more(w) for w in selected):
        for w in selected:
            if not more(w):
                continue
            rec = records[w.name]
            order = ((False, True) if rnd % 2 == 0 else (True, False)) if trace else (False,)
            walls = {}
            for traced in order:
                start = time.monotonic()
                sample, layers, outcome = runner.command(w, traced)
                rec.elapsed += time.monotonic() - start
                if layers is not None:
                    layers["compiled.build_s"] = build_s.get(w.name, 0.0)
                rec.add(outcome, layers if traced else sample, traced)
                if sample is not None:
                    walls[traced] = sample["wall_s"]
                wall = f"{sample['wall_s']:.3f} s" if sample else "no sample"
                status = "ok" if not outcome.problems else "FAILED"
                print(f"  {w.name}{' traced' if traced else ''}: {wall} {status}",
                      file=sys.stderr)
            if len(walls) == 2:
                # Adjacent commands share the machine's state, so the
                # per-pair ratio cancels drift that a ratio of medians keeps.
                rec.layers.setdefault("trace.overhead_frac", []).append(
                    walls[True] / walls[False] - 1.0)
        rnd += 1

    for w in selected:
        rec = records[w.name]
        problems = w.post_check(seed, rec.outcomes)
        digests = {o.digest for o in rec.outcomes if o.digest is not None}
        if len(digests) > 1:
            problems.append(f"outputs differ between repeats of seed {seed}")
        if problems:
            rec.problems.extend(problems)
            for o in rec.outcomes:
                o.failed = o.attempted
    return records


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report(records: dict[str, Record], spec: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the result object."""
    sections = [("end-to-end", "e2e", spec["end_to_end"])]
    if trace:
        sections.append(("per-layer (traced)", "layers", spec["per_layer"]))
    metrics = {}
    for name, rec in records.items():
        print(f"\n{name}: fail_frac {rec.failed / max(rec.attempted, 1):.6g} "
              f"({rec.failed} of {rec.attempted} attempted)")
        for problem in rec.problems:
            print(f"  CHECK FAILED: {problem}")
        for title, attr, specs in sections:
            samples = getattr(rec, attr)
            missing = {m["name"] for m in specs} - set(samples)
            if missing:
                raise RuntimeError(f"{name}: no samples for {sorted(missing)}")
            print(f"  {title}:")
            for m in specs:
                values = samples[m["name"]]
                q1, med, q3 = quartiles(values)
                print(f"    {m['name']:28s} {med:14.6g} {m['unit']:8s} median of "
                      f"n={len(values)}  [min {min(values):.6g}, q1 {q1:.6g}, "
                      f"q3 {q3:.6g}, max {max(values):.6g}]")
                if attr == sections[-1][1]:
                    key = m["name"] if len(records) == 1 else f"{name}/{m['name']}"
                    metrics[key] = {"value": med, "unit": m["unit"]}
    return {
        "correct": not any(rec.problems for rec in records.values()),
        "attempted": sum(rec.attempted for rec in records.values()),
        "failed": sum(rec.failed for rec in records.values()),
        "metrics": metrics,
    }


def _median_and_quartiles(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """Print both sides' medians and quartiles; 1 on any regression or unresolved pair."""
    parent = json.loads(Path(parent_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    statuses = []
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>8s} {'bound':>6s}  status")
    for name in [n for n in parent if n in change]:
        fail = [s[name]["failed"] / max(s[name]["attempted"], 1) for s in (parent, change)]
        statuses.append("regression" if fail[1] > fail[0] else "ok")
        print(f"{name:16s} {'fail_frac':12s} {fail[0]:>32.6g} {fail[1]:>32.6g} "
              f"{'':>8s} {'any':>6s}  {statuses[-1]}")
        for m in spec["end_to_end"]:
            a, b = parent[name]["e2e"][m["name"]], change[name]["e2e"][m["name"]]
            status, worse = judge(a, b, m["better"], m["bound"])
            statuses.append(status)
            print(f"{name:16s} {m['name']:12s} {_median_and_quartiles(a):>32s} "
                  f"{_median_and_quartiles(b):>32s} {worse:>+8.1%} {m['bound']:>6.0%}  {status}")
    agree = all(s == "ok" for s in statuses)
    print(f"\nsets agree within every bound: {'yes' if agree else 'no'} "
          f"({statuses.count('regression')} regression, {statuses.count('unresolved')} "
          f"unresolved, {statuses.count('improved')} improved)")
    return 1 if {"regression", "unresolved"} & set(statuses) else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all, round-robin)")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--runs", type=int, help="timed commands per workload (default 5)")
    p.add_argument("--seconds", type=float,
                   help="time each workload until its commands add up to this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: pair every timed command with a traced one")
    p.add_argument("--out", help="write every sample of the set to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two --out files instead of running")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running command's process group
    # is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        p.error(f"unknown workload(s) {sorted(unknown)}")
    runs = args.runs if args.runs is not None or args.seconds is not None else 5
    records = run_set(names, args.seed, runs, args.seconds, bool(args.trace))
    result = report(records, spec, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed,
            "trace": bool(args.trace),
            "workloads": {
                name: {"attempted": rec.attempted, "failed": rec.failed,
                       "problems": rec.problems, "e2e": rec.e2e, "layers": rec.layers}
                for name, rec in records.items()
            },
        }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
