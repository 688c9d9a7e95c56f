"""Span recorder for the end-to-end benchmark's traced runs.

The recorder wraps the public function at each layer boundary of
``repro`` from outside the package: no file under ``src/`` carries a
timer. :func:`install` rebinds every target in each module namespace
that holds it, and patches modules that are not imported yet as soon as
they load, so a ``from x import f`` that runs later still gets the
wrapped ``f`` and a command never imports a module only because it is
traced.

A span is ``[name, start_ns, end_ns, id, parent, pid, run, attrs]``.
``id`` and ``parent`` are unique within one ``pid``, and ``attrs`` holds
counts read from the call's result (units, events, rounds, ...). The
clock is ``time.monotonic_ns``, which is one system-wide clock on
Linux, so spans from forked workers and the parent's spawn and exit
stamps share one time axis.

Spans stay in memory and :meth:`Recorder.write` saves them when the
command ends. A forked worker (a ``fleet --jobs N`` pool process)
leaves through ``os._exit`` and never reaches that point, so it appends
each span to ``spans-<pid>.jsonl`` in the trace directory as the span
closes. :func:`load_spans` merges the files and :func:`layer_metrics`
turns them into the per-layer metrics, with self times and the
``unattributed_s`` remainder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

FIELDS = ("name", "start", "end", "id", "parent", "pid", "run", "attrs")


def _seeds_and_events(args, kwargs, result):
    seeds = args[5] if len(args) > 5 else kwargs["seeds"]
    rows = result[0]
    return {
        "units": len(seeds),
        "events": sum(int(r["n_events"]) for r in rows if r is not None),
    }


def _sim_events(args, kwargs, result):
    return {"events": int(result.meta.get("n_events", 0))}


def _adaptive_counts(args, kwargs, result):
    ad = result.meta["adaptive"]
    return {"rounds": ad["n_rounds"], "simulated": ad["n_simulated"], "used": ad["n_used"]}


#: (span name, module, attribute, counts read from the result or None).
#: The attribute is a module-level function or ``Class.method``.
TARGETS: tuple[tuple[str, str, str, Callable[..., dict] | None], ...] = (
    ("compiled.batch", "repro.simulation.compiled", "maybe_simulate_fleet_batch",
     _seeds_and_events),
    ("compiled.single", "repro.simulation.compiled", "maybe_simulate_compiled", _sim_events),
    ("simulator.simulate", "repro.simulation.simulator", "simulate", _sim_events),
    ("fleet.run", "repro.simulation.fleet", "run_fleet",
     lambda a, k, r: {"workers": r.n_workers}),
    ("results_store.append", "repro.simulation.results_store", "FleetStore.append_columns",
     None),
    ("results_store.close", "repro.simulation.results_store", "FleetStore.close", None),
    ("results_store.read", "repro.simulation.results_store", "FleetStore.scenario_table", None),
    ("results_store.read", "repro.simulation.results_store", "FleetStore.aggregate", None),
    ("adaptive.run", "repro.simulation.adaptive", "simulate_replications_adaptive",
     _adaptive_counts),
    ("control.run", "repro.control.harness", "run_controlled",
     lambda a, k, r: {"epochs": len(r.result.meta.get("epoch_trace", ()))}),
    ("control.decide", "repro.control.policies", "StaticSpeedPolicy.decide", None),
    ("control.decide", "repro.control.policies", "PlannedSpeedPolicy.decide", None),
    ("control.decide", "repro.control.policies", "DriftPlusPenaltyController.decide", None),
    ("optimize.solve", "repro.core.opt_delay", "minimize_delay",
     lambda a, k, r: {"nfev": r.n_evaluations}),
    ("optimize.solve", "repro.core.opt_energy", "minimize_energy",
     lambda a, k, r: {"nfev": r.n_evaluations}),
    ("optimize.solve", "repro.core.opt_energy", "minimize_energy_robust",
     lambda a, k, r: {"nfev": r.n_evaluations}),
    ("optimize.solve", "repro.core.opt_cost", "minimize_cost", None),
    ("optimize.solve", "repro.core.opt_tco", "minimize_tco", None),
    ("optimize.plan", "repro.core.controller", "plan_speed_schedule", None),
    ("queueing.model_eval", "repro.queueing.networks", "TandemNetwork.end_to_end_delays",
     None),
    ("experiments.run", "repro.experiments.registry", "Experiment.run", None),
    ("experiments.render", "repro.experiments.registry", "Experiment.render", None),
)


class Recorder:
    """Collects the spans of one command (``run`` names it)."""

    def __init__(self, out_dir: str | os.PathLike, run: str):
        self.out_dir = Path(out_dir)
        self.run = run
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._stream = None
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A worker starts its own span tree: its spans run beside the
        # parent's, not inside them, so they never count against a
        # parent span's self time.
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._stream = None
        self._forked = True

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, name, start, end, sid, parent, attrs) -> None:
        self._stack.pop()
        span = [name, start, end, sid, parent, self._pid, self.run, attrs]
        if self._forked:
            if self._stream is None:
                self._stream = open(self.out_dir / f"spans-{self._pid}.jsonl", "a")
            self._stream.write(json.dumps(span) + "\n")
            self._stream.flush()
        else:
            self.spans.append(span)

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record a root span measured before the recorder existed."""
        sid = self._next_id
        self._next_id += 1
        self.spans.append([name, start, end, sid, None, self._pid, self.run, None])

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid, parent = self._open()
        start = time.monotonic_ns()
        try:
            yield
        finally:
            self._close(name, start, time.monotonic_ns(), sid, parent, None)

    def wrap(self, name: str, fn: Callable, counts: Callable[..., dict] | None) -> Callable:
        """``fn`` inside a span; ``counts(args, kwargs, result)`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                attrs = counts(args, kwargs, result) if counts and result is not None else None
                self._close(name, start, end, sid, parent, attrs)

        return traced

    def write(self) -> None:
        """Save this process's spans (the parent's, in a traced command)."""
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in self.spans))


def _patch(rec: Recorder, module, items) -> None:
    """Wrap ``items`` of a freshly executed (or already loaded) module."""
    top = module.__name__.split(".")[0]
    namespaces = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == top or name.startswith(top + "."))
    ]
    for span_name, attr, counts in items:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            setattr(owner, meth, rec.wrap(span_name, owner.__dict__[meth], counts))
            continue
        original = getattr(module, attr)
        traced = rec.wrap(span_name, original, counts)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, traced)


class _PatchOnImport:
    """Meta-path hook: patch a target module right after it executes."""

    def __init__(self, rec: Recorder, pending: dict[str, list]):
        self.rec = rec
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        items = self.pending.pop(fullname, None)
        if items is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(self.rec, module, items)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(rec: Recorder, targets=TARGETS) -> None:
    """Wrap every target now or, for modules not loaded yet, on import."""
    pending: dict[str, list] = defaultdict(list)
    for span_name, module, attr, counts in targets:
        pending[module].append((span_name, attr, counts))
    for module in [m for m in pending if m in sys.modules]:
        _patch(rec, sys.modules[module], pending.pop(module))
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(rec, dict(pending)))


# ---------------------------------------------------------------------------
# reading a trace back
# ---------------------------------------------------------------------------


def load_spans(trace_dir: str | os.PathLike) -> list[dict[str, Any]]:
    """Every span of one traced command, workers included."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(dict(zip(FIELDS, json.loads(line))) for line in fh if line.strip())
    return spans


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[tuple[int, int], int]:
    """``(pid, id) -> ns`` a span ran minus what its children cover.

    Children are spans of the same process that name it as parent, so a
    pool worker's time never counts against the parent's span.
    """
    children: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append((s["start"], s["end"]))
    return {
        (s["pid"], s["id"]): (s["end"] - s["start"])
        - covered_ns(children[(s["pid"], s["id"])], s["start"], s["end"])
        for s in spans
    }


def layer_metrics(
    spans: list[dict[str, Any]], main_pid: int, spawn_ns: int, exit_ns: int, stamp: dict
) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    ``spawn_ns``/``exit_ns`` are the parent's stamps around the child
    process and ``stamp`` is what the driver wrote. A span nested in a
    span of the same name (a solver calling a solver) counts once.
    """
    index = {(s["pid"], s["id"]): s for s in spans}
    selfs = self_times(spans)
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for s in spans:
        parent = index.get((s["pid"], s["parent"]))
        if parent is None or parent["name"] != s["name"]:
            by_name[s["name"]].append(s)

    def count(name: str) -> int:
        return len(by_name[name])

    def seconds(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name]) / 1e9

    def self_seconds(name: str) -> float:
        return sum(selfs[(s["pid"], s["id"])] for s in by_name[name]) / 1e9

    def attr(name: str, key: str) -> int:
        return sum((s["attrs"] or {}).get(key, 0) for s in by_name[name])

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    exit_s = (exit_ns - stamp["returned_ns"]) / 1e9
    roots = [
        (s["start"], s["end"]) for s in spans if s["pid"] == main_pid and s["parent"] is None
    ]
    roots.append((stamp["returned_ns"], exit_ns))
    batch_s, single_s = seconds("compiled.batch"), seconds("compiled.single")
    sim_s, eval_s = seconds("simulator.simulate"), seconds("queueing.model_eval")
    simulated = attr("adaptive.run", "simulated")
    return {
        "cli.import_s": seconds("cli.import"),
        "cli.modules_loaded": stamp["modules"],
        "cli.scipy_modules": stamp["scipy_modules"],
        "cli.exit_s": exit_s,
        "compiled.load_s": seconds("compiled.load"),
        "compiled.batch_calls": count("compiled.batch"),
        "compiled.batch_units": attr("compiled.batch", "units"),
        "compiled.batch_s": batch_s,
        "compiled.us_per_unit": ratio(batch_s, attr("compiled.batch", "units"), 1e6),
        "compiled.ns_per_event": ratio(batch_s, attr("compiled.batch", "events"), 1e9),
        "compiled.single_calls": count("compiled.single"),
        "compiled.single_s": single_s,
        "simulator.calls": count("simulator.simulate"),
        "simulator.s": sim_s,
        "simulator.events": attr("simulator.simulate", "events"),
        "simulator.ns_per_event": ratio(sim_s, attr("simulator.simulate", "events"), 1e9),
        "fleet.run_s": seconds("fleet.run"),
        "fleet.self_s": self_seconds("fleet.run"),
        "fleet.workers": attr("fleet.run", "workers"),
        "results_store.append_calls": count("results_store.append"),
        "results_store.append_s": seconds("results_store.append"),
        "results_store.close_s": seconds("results_store.close"),
        "results_store.read_s": seconds("results_store.read"),
        "adaptive.rounds": attr("adaptive.run", "rounds"),
        "adaptive.reps_simulated": simulated,
        "adaptive.reps_used": attr("adaptive.run", "used"),
        "adaptive.useful_ratio": ratio(attr("adaptive.run", "used"), simulated),
        "adaptive.self_s": self_seconds("adaptive.run"),
        "control.runs": count("control.run"),
        "control.run_s": seconds("control.run"),
        "control.epochs": attr("control.run", "epochs"),
        "control.decide_calls": count("control.decide"),
        "control.decide_s": seconds("control.decide"),
        "optimize.solves": count("optimize.solve"),
        "optimize.solve_s": seconds("optimize.solve"),
        "optimize.nfev": attr("optimize.solve", "nfev"),
        "optimize.plan_s": seconds("optimize.plan"),
        "queueing.model_evals": count("queueing.model_eval"),
        "queueing.model_eval_s": eval_s,
        "queueing.us_per_eval": ratio(eval_s, count("queueing.model_eval"), 1e6),
        "experiments.run_s": seconds("experiments.run"),
        "experiments.render_s": seconds("experiments.render"),
        "unattributed_s": ((exit_ns - spawn_ns) - covered_ns(roots, spawn_ns, exit_ns)) / 1e9,
    }
