"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They cover the seeded argv generation, the self-time arithmetic, the
output checks (a corrupted output must count as failed), the tracer's
rebinding, and the refusal to run without the program's sources.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checkers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, Tally  # noqa: E402
from symwalk.cli import main as symwalk_main  # noqa: E402


def cli_output(inv: workloads.Invocation) -> str:
    saved = {key: os.environ.get(key) for key, _ in inv.env}
    os.environ.update(dict(inv.env))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            assert symwalk_main(list(inv.argv)) == 0
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return out.getvalue()


def to_csv(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def failures(inv: workloads.Invocation, out: str, rc: int = 0, memo=None) -> int:
    tally = Tally()
    tally.record(inv, rc, out, "", {} if memo is None else memo)
    assert tally.attempted == 1
    return tally.failed


# ------------------------------------------------------------------ seeding

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_argv(name):
    make = workloads.WORKLOADS[name]
    for seed in (0, 1, 12345):
        first = json.dumps([[inv.argv, inv.env] for inv in make(seed)])
        second = json.dumps([[inv.argv, inv.env] for inv in make(seed)])
        assert first == second


def test_seed_varies_only_cost_neutral_inputs():
    sweeps = {json.dumps([inv.argv for inv in workloads.walk_sweep(s)]) for s in range(20)}
    queries = {json.dumps([inv.argv for inv in workloads.exact_queries(s)]) for s in range(20)}
    assert len(sweeps) > 1 and len(queries) > 1
    assert [inv.argv for inv in workloads.oracle_verify(1)] == \
        [inv.argv for inv in workloads.oracle_verify(2)]
    for seed in range(50):
        quantum, classical = workloads.walk_sweep(seed)
        assert quantum.argv[-1].endswith(f",{workloads.SWEEP_STEPS}")
        start = tuple(int(p) for p in classical.argv[-1].split(","))
        assert start in workloads.CLASSICAL_STARTS
        queries = workloads.exact_queries(seed)
        assert [inv.argv[0] for inv in queries] == ["limit"] * 4 + ["table", "characters"]


# ---------------------------------------------------------------- self time

def test_self_time_on_nested_spans():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 9.0, 0, 0],
        ["other_root", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(spans.self_times(tree)) == 11.0


def test_self_time_counts_overlapping_children_once():
    tree = [["p", 0.0, 10.0, -1, 0], ["a", 1.0, 5.0, 0, 0], ["b", 3.0, 7.0, 0, 0],
            ["c", 9.0, 12.0, 0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_layer_metrics_use_self_time_and_counts():
    tree = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["walk_spectrum.spectrum", 1.0, 4.0, 0, 0],
        ["characters.table", 1.5, 3.5, 1, 0],
        ["walk_spectrum.quantum", 5.0, 6.0, 0, 0],
        ["walk_spectrum.quantum", 6.0, 8.0, 0, 0],
    ]
    m = spans.layer_metrics(tree, {"walk_spectrum.amplitude_calls": 270})
    assert m["cli.self_s"] == 4.0
    assert m["walk_spectrum.spectrum_s"] == 1.0
    assert m["characters.table_s"] == 2.0
    assert m["walk_spectrum.quantum_calls"] == 2
    assert m["walk_spectrum.point_ms"] == 1500.0
    assert m["walk_spectrum.amplitude_calls"] == 270
    assert m["oracle.build_reuse"] == 0.0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ------------------------------------------------------------- output checks

def test_references_agree_with_known_values():
    assert len(checkers.partitions(14)) == 135
    assert checkers.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert checkers.hook_dimension((3, 2)) == 5
    assert checkers.transposition_character((3, 2)) == 1
    assert sum(checkers.class_size(p) for p in checkers.partitions(7)) == 5040


def test_sweep_checks_pass_and_catch_corruption():
    inv = workloads.quantum_sweep(5, 0.3, 8)
    out = cli_output(inv)
    assert failures(inv, out) == 0
    rows = list(csv.reader(io.StringIO(out)))
    rows[3][2] = repr(float(rows[3][2]) + 0.1)   # that time point now sums to 1.1
    assert failures(inv, to_csv(rows)) == 1
    assert failures(inv, to_csv(rows[:-1])) == 1   # a row missing
    assert failures(inv, out, rc=2) == 1


def test_classical_sweep_checks_sign_and_limits():
    inv = workloads.classical_sweep(5, (2, 2, 1), 8)
    out = cli_output(inv)
    assert failures(inv, out) == 0
    rows = list(csv.reader(io.StringIO(out)))
    rows[-1][2] = "-1e-3"
    assert failures(inv, to_csv(rows)) == 1


def test_character_table_check_catches_off_by_one_and_sign_errors():
    inv = workloads.characters_query(7)
    out = cli_output(inv)
    assert failures(inv, out) == 0
    rows = list(csv.reader(io.StringIO(out)))
    for i, j in ((1, 1), (5, 7), (9, 4), (15, 15), (8, 12)):
        for delta in (1, -1):
            bad = [row[:] for row in rows]
            bad[i][j] = str(int(bad[i][j]) + delta)
            assert failures(inv, to_csv(bad)) == 1
    for i, j in ((2, 3), (6, 8), (12, 10)):          # nonzero entries with the wrong sign
        bad = [row[:] for row in rows]
        assert int(bad[i][j]) != 0
        bad[i][j] = str(-int(bad[i][j]))
        assert failures(inv, to_csv(bad)) == 1


def test_limit_and_table_checks_catch_corruption():
    memo: dict = {}
    limit = workloads.limit_query(6, 3)
    table = workloads.table_query(6)
    limit_out, table_out = cli_output(limit), cli_output(table)
    assert failures(limit, limit_out, memo=memo) == 0
    assert failures(table, table_out, memo=memo) == 0

    payload = json.loads(limit_out)
    payload["classes"][-1]["exact"] = "1/2"
    assert failures(limit, json.dumps(payload)) == 1
    rows = table_out.splitlines()
    row = json.loads(rows[1])
    row["exact"] = "1/3"
    rows[1] = json.dumps(row)
    assert failures(table, "\n".join(rows) + "\n") == 1
    # A table row that matches no limit of the same round fails too.
    assert failures(table, table_out, memo={"ncycle": {3: Fraction(1, 7)}}) == 1


def test_verify_check_catches_failed_or_malformed_output():
    inv = workloads.verify_query(3)
    out = cli_output(inv)
    assert failures(inv, out) == 0
    payload = json.loads(out)
    payload["checks"][0]["passed"] = False
    assert failures(inv, json.dumps(payload)) == 1
    payload = json.loads(out)
    payload["checks"] = payload["checks"][1:]
    assert failures(inv, json.dumps(payload)) == 1
    for garbage in ("", "not json", out[: len(out) // 2]):
        assert failures(inv, garbage) == 1


# -------------------------------------------------------------- the tracer

def test_tracer_spans_the_calls_each_module_makes():
    invs = [workloads.limit_query(6, 4), workloads.verify_query(3)]
    request = {"trace": True,
               "invocations": [{"argv": list(i.argv), "env": dict(i.env)} for i in invs]}
    proc = subprocess.run([sys.executable, str(BENCH / "inproc.py")], input=json.dumps(request),
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["points_missing"] == []
    for inv, res in zip(invs, report["results"]):
        assert failures(inv, res["out"], res["rc"]) == 0
    tree = report["spans"]
    names = [s[0] for s in tree]
    assert names.count("cli.main") == 2
    for name in ("walk_spectrum.spectrum", "characters.table", "limiting.exact", "limiting.tv",
                 "oracle.build", "oracle.eigh", "oracle.evolve", "verify.suite",
                 "verify.check.quantum_vs_oracle", "partitions.enumerate"):
        assert name in names, name
    # The verify module's own binding of ``spectrum`` is traced: a spectrum
    # span sits inside a verify check.
    assert any(s[0] == "walk_spectrum.spectrum" and tree[s[3]][0].startswith("verify.check.")
               for s in tree)
    roots = sum(s[2] - s[1] for s in tree if s[3] < 0)
    assert sum(spans.self_times(tree)) == pytest.approx(roots)
    m = spans.layer_metrics(tree, report["counters"])
    assert m["oracle.builds"] == 3 * 2            # two generator classes of S_3, three checks
    assert m["oracle.build_reuse"] == pytest.approx(1 / 3)
    assert m["limiting.groups"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
