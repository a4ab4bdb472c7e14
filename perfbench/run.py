"""symwalk benchmark: drive the ``symwalk`` CLI as a closed loop.

    python3 perfbench/run.py --workload walk-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is
``src/symwalk`` of that checkout, imported through ``PYTHONPATH``.

One client runs one child process at a time, and each invocation starts
only after the previous one exits.  The seed generates only the argv
lists (see ``workloads.py``); every output is checked against an
independent reference (``checkers.py``).

With ``--trace 0`` the run repeats the workload's invocation list (a
round) for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it runs the same argv through ``symwalk.cli.main`` in fresh
processes, one untraced and one traced per pass, and reports the
per-layer metrics and how much slower tracing makes a pass.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the machine context
and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checkers
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INPROC = Path(__file__).resolve().parent / "inproc.py"

SETUP_SAMPLES = 15     # fresh-interpreter imports per run; setup_s is their median
CHILD_TIMEOUT = 100    # seconds; the longest child today takes under 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("wall_s", "s"),        # sum over a round's invocations of each one's median wall time
    ("setup_s", "s"),       # median time for a fresh interpreter to import symwalk
    ("peak_rss_mb", "MB"),  # largest RSS of any child process in the run
]

CONTEXT_PROBE = """
import json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


def child_env() -> dict[str, str]:
    """The environment of every child: this checkout's ``src`` on the path
    and BLAS threads pinned to at most the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(threads)
    return env


def run_child(args: list[str], env: dict[str, str], stdin: str | None = None):
    """Run ``python3 <args>`` to completion; return (exit code, stdout, stderr, wall s)."""
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return -1, "", f"timed out after {exc.timeout} s", perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - start


def prepare(env: dict[str, str]) -> dict:
    """Check that this checkout's symwalk imports, warm the bytecode cache,
    and collect the machine context."""
    if not (SRC / "symwalk" / "__init__.py").is_file():
        raise SetupError(f"no symwalk package under {SRC}")
    rc, out, err, _ = run_child(["-c", "import symwalk; print(symwalk.__file__)"], env)
    if rc != 0:
        raise SetupError(f"import symwalk failed: {err.strip()[-500:]}")
    if not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"symwalk imported from {out.strip()}, not from {SRC}")
    rc, out, err, _ = run_child(["-c", CONTEXT_PROBE], env)
    context = json.loads(out) if rc == 0 else {"probe_error": err.strip()[-300:]}
    context.update(nproc=len(os.sched_getaffinity(0)), loadavg=os.getloadavg(),
                   blas_threads=env[BLAS_THREAD_VARS[0]])
    return context


class Tally:
    """Verdicts of every invocation in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, inv, rc: int, out: str, err: str, memo: dict) -> float:
        """Count one invocation, which fails on a nonzero exit or a failed
        check; return the check's largest float error (0 on failure)."""
        self.attempted += 1
        if rc != 0:
            message = f"exit code {rc}: {err.strip()[-300:]}"
        else:
            try:
                return inv.check(out, memo)
            except checkers.MALFORMED as exc:
                message = f"{type(exc).__name__}: {exc}"
        self.failed += 1
        print(f"FAILED symwalk {' '.join(inv.argv)}: {message}", file=sys.stderr)
        return 0.0


def end_to_end(invocations, seconds: float, env: dict[str, str]) -> tuple[Tally, dict]:
    """Repeat rounds for ``seconds``; fresh-interpreter imports are sampled
    between invocations, spread evenly over the run."""
    setup: list[float] = []

    def sample_setup(due: int) -> None:
        while len(setup) < due:
            rc, _, err, elapsed = run_child(["-c", "import symwalk"], env)
            if rc != 0:
                raise SetupError(f"import symwalk failed: {err.strip()[-500:]}")
            setup.append(elapsed)

    tally = Tally()
    times: list[list[float]] = [[] for _ in invocations]
    start = perf_counter()
    while not times[-1] or perf_counter() - start < seconds:
        memo: dict = {}
        for inv, inv_times in zip(invocations, times):
            done = (perf_counter() - start) / seconds
            sample_setup(min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * done)))
            rc, out, err, elapsed = run_child(["-m", "symwalk", *inv.argv],
                                              {**env, **dict(inv.env)})
            inv_times.append(elapsed)
            tally.record(inv, rc, out, err, memo)
    sample_setup(SETUP_SAMPLES)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"rounds {len(times[-1])}; setup samples {len(setup)}")
    return tally, {
        "wall_s": sum(statistics.median(t) for t in times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }


def in_process(invocations, trace: bool, env: dict[str, str], tally: Tally) -> tuple[dict, float]:
    """One pass of the argv list in a fresh process; the report and the
    largest float error its checks saw."""
    request = {"trace": trace,
               "invocations": [{"argv": list(inv.argv), "env": dict(inv.env)}
                               for inv in invocations]}
    rc, out, err, _ = run_child([str(INPROC)], env, stdin=json.dumps(request))
    try:
        report = json.loads(out)
    except ValueError:
        raise SetupError(f"in-process runner failed ({rc}): {err.strip()[-500:]}") from None
    memo: dict = {}
    worst = max(tally.record(inv, res["rc"], res["out"], res["err"], memo)
                for inv, res in zip(invocations, report["results"], strict=True))
    return report, worst


def traced(invocations, seconds: float, env: dict[str, str]) -> tuple[Tally, dict]:
    tally, passes = Tally(), []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        # Alternate which process goes first, so drift in machine speed
        # does not bias the tracing overhead.
        order = (False, True) if len(passes) % 2 == 0 else (True, False)
        reports = {tracing: in_process(invocations, tracing, env, tally) for tracing in order}
        (base, _), (trace, worst) = reports[False], reports[True]
        metrics = spans.layer_metrics(trace["spans"], trace["counters"])
        metrics.update({
            "cli.import_s": base["import_s"],
            "cli.numpy_loaded": int(base["numpy_loaded"]),
            "walk_spectrum.max_abs_err": worst,
            "trace.untraced_s": base["wall_s"],
            "trace.traced_s": trace["wall_s"],
            "trace.overhead_pct": 100 * (trace["wall_s"] / base["wall_s"] - 1),
            "trace.points_missing": len(trace["points_missing"]),
        })
        for point in trace["points_missing"]:
            print(f"trace point {point} not found", file=sys.stderr)
        passes.append(metrics)
    print(f"traced passes {len(passes)}")
    return tally, {name: statistics.median(p[name] for p in passes)
                   for name, _, _ in spans.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    invocations = WORKLOADS[args.workload](args.seed)
    env = child_env()
    try:
        context = prepare(env)
        print("context " + json.dumps({"workload": args.workload, "seed": args.seed,
                                       "trace": args.trace, **context}))
        for inv in invocations:
            print("argv " + json.dumps([f"{k}={v}" for k, v in inv.env] + list(inv.argv)))
        if args.trace:
            tally, values = traced(invocations, args.seconds, env)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            tally, values = end_to_end(invocations, args.seconds, env)
            units = dict(END_TO_END)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"ops_total {tally.attempted} count")
    print(f"ops_failed {tally.failed} count")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
