"""Run one ``repro`` command in a fresh process, the way ``python -m repro`` does.

Usage::

    python driver.py STAMP [--compiled] [--trace DIR RUN] [-- REPRO_ARGS...]

The driver imports ``repro.cli``, warms the compiled kernel when
``--compiled`` is given, and calls ``repro.cli.main(REPRO_ARGS)``.
After ``main`` returns it writes ``STAMP``, a JSON object of
``time.monotonic_ns`` stamps (``start_ns``, ``imported_ns``,
``ready_ns``, ``returned_ns``), the module counts taken right after
``import repro.cli``, and the exit code. The parent compares them with
its own spawn and exit stamps, on the same system-wide clock. With no
``REPRO_ARGS`` the driver stops once it is ready.

``--trace DIR RUN`` installs the span recorder of ``trace.py`` and
writes the spans to ``DIR`` when the command ends.
"""

import json
import os
import sys
import time

START_NS = time.monotonic_ns()


def main(argv: list[str]) -> int:
    stamp_path, *rest = argv
    repro_args = rest[rest.index("--") + 1:] if "--" in rest else []
    options = rest[: rest.index("--")] if "--" in rest else rest
    here = os.path.dirname(os.path.abspath(__file__))
    # The command must see the same module search path as `python -m
    # repro`, not this directory (whose trace.py would shadow the
    # standard library's).
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]

    import repro.cli

    imported = time.monotonic_ns()
    modules = len(sys.modules)
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    rec = None
    if "--trace" in options:
        import importlib.util

        i = options.index("--trace")
        spec = importlib.util.spec_from_file_location("e2e_trace", os.path.join(here, "trace.py"))
        span_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(span_trace)
        rec = span_trace.Recorder(options[i + 1], options[i + 2])
        rec.add_span("cli.import", START_NS, imported)
        with rec.span("trace.install"):
            span_trace.install(rec)

    if "--compiled" in options:
        start = time.monotonic_ns()
        from repro.simulation.compiled import warm_kernel

        available = warm_kernel()
        if rec is not None:
            rec.add_span("compiled.load", start, time.monotonic_ns())
        if not available:
            print("error: the compiled kernel could not be built or loaded", file=sys.stderr)
            return 3
    ready = time.monotonic_ns()

    code = 0
    if repro_args:
        if rec is None:
            code = repro.cli.main(repro_args)
        else:
            with rec.span("cli.main"):
                code = repro.cli.main(repro_args)
    returned = time.monotonic_ns()
    sys.stdout.flush()
    if rec is not None:
        rec.write()
    with open(stamp_path, "w") as fh:
        json.dump(
            {
                "pid": os.getpid(),
                "start_ns": START_NS,
                "imported_ns": imported,
                "ready_ns": ready,
                "returned_ns": returned,
                "modules": modules,
                "scipy_modules": scipy_modules,
                "exit_code": code,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
