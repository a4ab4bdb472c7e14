"""Run a workload's argv list through ``symwalk.cli.main`` in one process.

    python3 perfbench/inproc.py < request.json

The request is ``{"invocations": [{"argv": [...], "env": {...}}, ...],
"trace": true|false}``; ``symwalk`` must be importable (``PYTHONPATH``).
One JSON object goes to stdout: import time, whether numpy was loaded
after the first invocation, wall time of the invocations, each one's exit
code and output, and with tracing on the spans and counters.

Every functools cache in symwalk is cleared before each invocation, so
each starts cold, as it does in its own CLI process.

Tracing replaces each traced function under every name it is bound to
in a symwalk module: callers bind library functions when they import
them (``from .walk_spectrum import spectrum``), so a span has to replace
the name in the module that makes the call.  A span records name, start,
end, parent span and run id (the invocation's index); spans stay in
memory and are written out at the end.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from time import perf_counter

from checkers import partitions

# (module, function, span name)
SPAN_POINTS = (
    ("symwalk.partitions", "enumerate_partitions", "partitions.enumerate"),
    ("symwalk.characters", "character_table", "characters.table"),
    ("symwalk.characters", "character", "characters.character"),
    ("symwalk.walk_spectrum", "spectrum", "walk_spectrum.spectrum"),
    ("symwalk.walk_spectrum", "class_distribution", "walk_spectrum.quantum"),
    ("symwalk.walk_spectrum", "classical_class_distribution", "walk_spectrum.classical"),
    ("symwalk.limiting", "limiting_class_distribution", "limiting.exact"),
    ("symwalk.limiting", "table_ncycle_case", "limiting.table"),
    ("symwalk.limiting", "tv_distance", "limiting.tv"),
    ("symwalk.oracle", "build_cayley", "oracle.build"),
    ("symwalk.oracle", "evolve_quantum", "oracle.evolve"),
    ("symwalk.oracle", "evolve_classical", "oracle.evolve"),
    ("symwalk.oracle", "limiting_distribution", "oracle.limit"),
    ("symwalk.oracle", "class_aggregate", "oracle.aggregate"),
    ("symwalk.oracle", "class_sums", "oracle.aggregate"),
    ("numpy.linalg", "eigh", "oracle.eigh"),
    ("symwalk.verify", "run_suite", "verify.suite"),
)


def _first_arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = -1
        self.counters: dict[str, float] = {}
        self.seen: set = set()
        self.missing: list[str] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def first_in_run(self, key) -> bool:
        """True the first time ``key`` shows up in the current invocation."""
        key = (self.run, key)
        fresh = key not in self.seen
        self.seen.add(key)
        return fresh

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counted(self, counter: str, fn, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(counter, amount(result))
            return result

        return wrapper

    # ---- per-point bookkeeping ------------------------------------------

    def _after_table(self, args, kwargs, result) -> None:
        # Caches start cold in each invocation, so the first request for a
        # given n in an invocation is the one that builds the table.
        n = _first_arg(args, kwargs, "n")
        if self.first_in_run(("table", n)):
            self.add("characters.table_entries", len(partitions(n)) ** 2)

    def _after_build(self, args, kwargs, result) -> None:
        n = _first_arg(args, kwargs, "n")
        gamma = args[1] if len(args) > 1 else kwargs["gamma"]
        if self.first_in_run(("graph", n, gamma)):
            self.add("oracle.graphs", 1)
        self.add("oracle.dense_mb_computed", factorial(n) ** 2 * 8 / 1e6)

    def install(self) -> None:
        after = {"characters.table": self._after_table, "oracle.build": self._after_build}
        for module, attr, name in SPAN_POINTS:
            self._rebind(module, attr, lambda fn, name=name: self.span(name, fn, after.get(name)))
        self._rebind("symwalk.walk_spectrum", "class_amplitude",
                     lambda fn: self.counted("walk_spectrum.amplitude_calls", fn, lambda r: 1))
        self._rebind("symwalk.limiting", "eigenvalue_groups",
                     lambda fn: self.counted("limiting.groups", fn, lambda r: len(r.groups)))
        verify = sys.modules.get("symwalk.verify")
        for attr, value in sorted(vars(verify).items()) if verify else ():
            if attr.startswith("check_") and getattr(value, "__module__", None) == verify.__name__:
                self._rebind(verify.__name__, attr,
                             lambda fn, name=f"verify.check.{attr[6:]}": self.span(name, fn))

    def _rebind(self, module: str, attr: str, make) -> None:
        try:
            home = importlib.import_module(module)
            original = getattr(home, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        replacement = make(original)
        for mod in [home, *_symwalk_modules()]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)


def _symwalk_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "symwalk" or name.startswith("symwalk."))]


def _run(main, argv: list[str], env: dict[str, str]) -> tuple[int, str, str, float]:
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # a traceback is a failed invocation, not a crash of the run
            traceback.print_exc()
            rc = -1
    elapsed = perf_counter() - start
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    return rc, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    request = json.load(sys.stdin)
    start = perf_counter()
    import symwalk.cli
    import_s = perf_counter() - start

    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    caches = {id(v): v for m in _symwalk_modules() for v in vars(m).values()
              if callable(getattr(v, "cache_clear", None))}
    cli_main = symwalk.cli.main
    if tracer is not None:
        cli_main = tracer.span("cli.main", cli_main)

    results, wall, numpy_loaded = [], 0.0, False
    for run, inv in enumerate(request["invocations"]):
        for cached in caches.values():
            cached.cache_clear()
        if tracer is not None:
            tracer.run = run
        rc, out, err, elapsed = _run(cli_main, inv["argv"], inv["env"])
        wall += elapsed
        if run == 0:
            numpy_loaded = "numpy" in sys.modules
        results.append({"rc": rc, "out": out, "err": err[-2000:]})

    json.dump({
        "import_s": import_s,
        "numpy_loaded": numpy_loaded,
        "wall_s": wall,
        "results": results,
        "spans": tracer.spans if tracer else [],
        "counters": tracer.counters if tracer else {},
        "points_missing": tracer.missing if tracer else [],
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
