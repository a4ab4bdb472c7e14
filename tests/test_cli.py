import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import symwalk
from symwalk.cli import main, run
from symwalk.errors import DomainError, ResourceLimitError, SymwalkError
from symwalk.limiting import limiting_class_distribution, tv_distance
from symwalk.partitions import Partition, enumerate_partitions, hook, identity_partition
from symwalk.walk_spectrum import (
    ClassFunction,
    class_amplitude,
    ncycle_amplitude_closed_form,
    spectrum,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_limit_reports_exact_rational(capsys):
    code, out, err = run_cli(capsys, "limit", "--n", "3", "--generator", "2,1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    by_class = {tuple(c["partition"]): c for c in payload["classes"]}
    assert by_class[(3,)]["per_element_exact"] == "1/6"
    assert by_class[(3,)]["exact"] == "1/3"
    assert payload["tv"][0]["support"] == "symmetric_group"
    assert payload["tv"][0]["exact"] == "1/3"


def test_limit_reports_alternating_tv_when_supported(capsys):
    code, out, _ = run_cli(capsys, "limit", "--n", "3", "--generator", "3")
    payload = json.loads(out)
    supports = [t["support"] for t in payload["tv"]]
    assert supports == ["symmetric_group", "alternating_group"]


def test_distribution_single_time(capsys):
    code, out, _ = run_cli(
        capsys, "distribution", "--n", "3", "--generator", "2,1",
        "--t", "1.0471975512",
    )
    assert code == 0
    payload = json.loads(out)
    by_class = {tuple(c["partition"]): c for c in payload["classes"]}
    assert abs(by_class[(3,)]["probability"] - 0.8889) < 1e-3
    assert by_class[(3,)]["class_size"] == "2"
    assert payload["start"] == [1, 1, 1]


def test_distribution_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "distribution", "--n", "3", "--generator", "2,1",
        "--t-grid", "0,6.283185307179586,8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,class,probability"
    assert len(lines) == 1 + 8 * 3


def test_distribution_classical(capsys):
    code, out, _ = run_cli(
        capsys, "distribution", "--n", "4", "--generator", "2,1,1",
        "--t", "50", "--classical",
    )
    payload = json.loads(out)
    for entry in payload["classes"]:
        assert abs(entry["per_element"] - 1 / 24) < 1e-8


def test_characters_csv(capsys):
    code, out, _ = run_cli(capsys, "characters", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ',3,"2,1","1,1,1"'


def test_characters_json_strings(capsys):
    code, out, _ = run_cli(capsys, "characters", "--n", "4")
    payload = json.loads(out)
    assert payload["entries"][0] == ["1", "1", "1", "1", "1"]


def test_spectrum_exact_fields(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--generator", "2,1")
    payload = json.loads(out)
    eigs = {tuple(e["rep"]): e for e in payload["eigenvalues"]}
    assert eigs[(3,)]["exact"] == "3"
    assert eigs[(1, 1, 1)]["exact"] == "-3"
    assert eigs[(2, 1)]["value"] == 0.0


def test_spectrum_weighted_generators(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--n", "4",
        "--generator", "2,1,1", "--weight", "1/3",
        "--generator", "2,2", "--weight", "1/2",
    )
    assert code == 0
    payload = json.loads(out)
    eigs = {tuple(e["rep"]): e for e in payload["eigenvalues"]}
    assert eigs[(4,)]["exact"] == "7/2"  # 6*(1/3) + 3*(1/2)


def test_amplitude_t0(capsys):
    code, out, _ = run_cli(
        capsys, "amplitude", "--n", "4", "--generator", "2,1,1",
        "--target", "1,1,1,1", "--t", "0",
    )
    payload = json.loads(out)
    assert abs(payload["amplitude"]["re"] - 1) < 1e-12
    assert abs(payload["amplitude"]["im"]) < 1e-12
    assert abs(payload["probability"] - 1) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_amplitude_probability_is_the_distributions_float(capsys, n):
    # One probability, one formula: amplitude prints, bit for bit, the
    # float that distribution prints for the target, at one time and on
    # a one-point grid.
    for gamma in enumerate_partitions(n)[:-1]:
        for start in (f"{n}", ",".join("1" * n)):
            for t in ("0.3", "0.7", "1.9", "3.3"):
                walk = ("--n", str(n), "--generator", str(gamma), "--start", start)
                _, out, _ = run_cli(capsys, "distribution", *walk, "--t", t)
                at_t = {tuple(row["partition"]): row["probability"]
                        for row in json.loads(out)["classes"]}
                _, out, _ = run_cli(capsys, "distribution", *walk, "--t-grid", f"{t},{t},1")
                on_grid = {tuple(map(int, lam.split(","))): float(p)
                           for _, lam, p in csv.reader(out.splitlines()[1:])}
                for target in enumerate_partitions(n):
                    _, out, _ = run_cli(capsys, "amplitude", *walk, "--target", str(target),
                                        "--t", t)
                    probability = json.loads(out)["probability"]
                    assert probability == at_t[target.parts] == on_grid[target.parts]


def test_table_records(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "6")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["p"] for r in records] == [2, 3, 4, 5, 6]
    by_p = {r["p"]: r for r in records}
    assert by_p[3]["exact"] == "0"
    assert by_p[3]["row"] == "even_n_odd_p"
    assert by_p[2]["row"] == "even_p_low"
    assert by_p[6]["row"] == "even_p_full_cycle"
    assert by_p[2]["exact"] == by_p[6]["exact"]
    # 20 significant digits on request
    assert len(by_p[2]["decimal"].replace("0.", "").lstrip("0")) >= 20


def test_verify_n3_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"]) > 5


def test_oracle_dump_adjacency(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--n", "2", "--generator", "2", "--dump-adjacency"
    )
    assert code == 0
    assert out.splitlines() == ["perm_g,perm_h", '"1 2","2 1"']


def test_oracle_evolve(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--n", "3", "--generator", "2,1",
        "--t", str(math.pi / 3),
    )
    payload = json.loads(out)
    by_class = {tuple(c["partition"]): c for c in payload["classes"]}
    assert abs(by_class[(3,)]["probability"] - 8 / 9) < 1e-9
    assert payload["max_class_deviation"] < 1e-10


def test_usage_error_bad_partition(capsys):
    code, out, err = run_cli(capsys, "limit", "--n", "3", "--generator", "2,2")
    assert code == 1
    assert out == ""
    assert json.loads(err.strip()) == {
        "error": "generator '2,2' is not a partition of n=3",
        "code": 1,
    }


def test_usage_error_missing_generator(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "3")
    assert code == 1
    assert json.loads(err.strip())["code"] == 1


def test_resource_limit_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--n", "8", "--generator", "2,1,1,1,1,1,1",
        "--dump-adjacency",
    )
    assert code == 3
    assert json.loads(err.strip())["code"] == 3


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMWALK_MAX_N", "5")
    code, _, err = run_cli(capsys, "characters", "--n", "6")
    assert code == 3
    monkeypatch.setenv("SYMWALK_MAX_N", "16")
    code, out, _ = run_cli(capsys, "characters", "--n", "6")
    assert code == 0


def test_byte_identical_reruns(capsys):
    args = ("limit", "--n", "4", "--generator", "2,1,1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "limit", "--n", "3", "--generator", "2,1", "-o", str(path)
    )
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["n"] == 3


def _subprocess_env():
    """This environment with the imported symwalk's directory on PYTHONPATH,
    so a child process finds the package without an install."""
    src = os.path.dirname(os.path.dirname(symwalk.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symwalk", "table", "--n", "3"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert records[0]["exact"] == "1/6"


def test_limit_with_numeric_average(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--n", "3", "--generator", "2,1",
        "--average", "6.283185307179586,512",
    )
    payload = json.loads(out)
    assert payload["time_average"]["max_abs_gap"] < 1e-6


def _assert_json_error(code, out, err, want_code):
    assert code == want_code
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == want_code


@pytest.mark.parametrize("argv", [
    ("distribution", "--n", "4", "--generator", "2,1,1", "--t", "nan"),
    ("distribution", "--n", "4", "--generator", "2,1,1", "--t", "inf"),
    ("amplitude", "--n", "4", "--generator", "2,1,1", "--target", "4", "--t", "-inf"),
    ("distribution", "--n", "4", "--generator", "2,1,1", "--t-grid", "0,inf,2"),
    ("distribution", "--n", "4", "--generator", "2,1,1", "--t-grid", "nan,1,2"),
    ("limit", "--n", "4", "--generator", "2,1,1", "--average", "inf,4"),
    # The grid's last point overflows to inf although both ends are finite.
    ("distribution", "--n", "3", "--generator", "2,1", "--t-grid", "0,1e308,3", "--classical"),
])
def test_non_finite_times_are_refused(capsys, argv):
    _assert_json_error(*run_cli(capsys, *argv), 1)


@pytest.mark.parametrize("argv", [
    ("limit", "--n", "4", "--generator", "1,1,1,1"),
    ("limit", "--n", "4", "--generator", "1,1,1,1", "--weight", "2"),
    ("limit", "--n", "4", "--generator", "2,1,1", "--weight", "0"),
    ("spectrum", "--n", "4", "--generator", "2,1,1", "--generator", "3,1", "--weight", "0",
     "--weight", "0"),
])
def test_generators_that_cannot_move_the_walk_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    _assert_json_error(code, out, err, 1)
    assert json.loads(err)["error"] == "a walk needs a nonzero generator weight off the identity class"


def test_identity_beside_a_moving_generator_is_a_walk(capsys):
    code, out, err = run_cli(capsys, "limit", "--n", "4", "--generator", "1,1,1,1",
                             "--generator", "2,1,1")
    assert code == 0 and err == "" and json.loads(out)["classes"]


def test_grid_step_count_is_capped(capsys):
    from symwalk.caps import TIME_POINTS_CAP

    steps = str(TIME_POINTS_CAP + 1)
    _assert_json_error(*run_cli(capsys, "distribution", "--n", "4", "--generator", "2,1,1",
                                "--t-grid", f"0,1,{steps}"), 3)
    _assert_json_error(*run_cli(capsys, "distribution", "--n", "4", "--generator", "2,1,1",
                                "--t-grid", "0,1,100000000000"), 3)


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    _assert_json_error(*run_cli(capsys, "distribution", "--n", "3", "--generator", "2,1",
                                "--t", "0.5", "-o", str(target)), 1)


def _assert_failed_stdout_write(code, err, reason):
    # One JSON line, and nothing from a second flush of the same stdout at exit.
    assert "Exception ignored" not in err
    _assert_json_error(code, "", err, 1)
    assert json.loads(err)["error"] == f"cannot write 'stdout': {reason}"


def test_a_closed_stdout_pipe_is_a_usage_error():
    # 2 MB of CSV, far more than a pipe holds, so the writes after the
    # first line meet the closed pipe.
    argv = ["distribution", "--n", "8", "--generator", "2,1,1,1,1,1,1", "--t-grid", "2000"]
    with subprocess.Popen([sys.executable, "-m", "symwalk", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=_subprocess_env()) as proc:
        assert proc.stdout.readline() == "t,class,probability\n"
        proc.stdout.close()
        err = proc.stderr.read()
    _assert_failed_stdout_write(proc.returncode, err, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_is_a_usage_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "symwalk", "table", "--n", "5"],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=_subprocess_env())
    _assert_failed_stdout_write(proc.returncode, proc.stderr, "No space left on device")


def test_table_too_large_to_print_is_a_resource_refusal(capsys):
    _assert_json_error(*run_cli(capsys, "table", "--n", "3000"), 3)


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_refuses_empty_time_sample(capsys, samples):
    _assert_json_error(*run_cli(capsys, "verify", "--n", "3", "--t-samples", samples), 1)


@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_refuses_n_without_a_walk(capsys, n):
    _assert_json_error(*run_cli(capsys, "verify", "--n", n), 1)


# Every command but verify and oracle, which evaluate the dense n!-vertex graph.
NUMPY_FREE_ARGVS = (
    ["limit", "--n", "4", "--generator", "2,1,1"],
    ["limit", "--n", "4", "--generator", "2,1,1", "--average", "6.283185307179586,16"],
    ["table", "--n", "4"],
    ["spectrum", "--n", "4", "--generator", "3,1"],
    ["characters", "--n", "4"],
    ["distribution", "--n", "4", "--generator", "2,1,1", "--t", "0.7"],
    ["distribution", "--n", "4", "--generator", "2,1,1", "--t-grid", "8"],
    ["distribution", "--n", "4", "--generator", "3,1", "--t", "0.7", "--classical"],
    ["amplitude", "--n", "4", "--generator", "2,1,1", "--target", "4", "--t", "0.7"],
)


def test_exact_commands_do_not_load_numpy():
    script = (
        "import sys\n"
        "from symwalk.cli import main\n"
        f"for argv in {NUMPY_FREE_ARGVS!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_import_symwalk_loads_no_engine_until_a_name_is_used():
    script = (
        "import sys, symwalk\n"
        "assert not [m for m in sys.modules if m.startswith('symwalk.')], sorted(sys.modules)\n"
        "assert set(symwalk.__all__) <= set(dir(symwalk))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert len(set(symwalk.__all__)) == len(symwalk.__all__) == 33
    for name in symwalk.__all__:  # each the same object as in its home submodule
        value = getattr(symwalk, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"symwalk.{name}"]
        else:
            assert value.__module__.startswith("symwalk."), name
            assert value is getattr(sys.modules[value.__module__], name), name
    namespace = {}
    exec("from symwalk import *", namespace)
    assert all(namespace[name] is getattr(symwalk, name) for name in symwalk.__all__)
    with pytest.raises(AttributeError):
        symwalk.no_such_name


def test_float_commands_without_numpy_exit_3_with_one_json_line(capsys):
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from symwalk.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def run(*argv):
        return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=_subprocess_env())

    for argv in (["verify", "--n", "3"], ["oracle", "--n", "3", "--generator", "2,1", "--t", "1"]):
        proc = run(*argv)
        _assert_json_error(proc.returncode, proc.stdout, proc.stderr, 3)
        assert json.loads(proc.stderr)["error"] == f"{argv[0]} needs numpy, which is not installed"
    # Above the oracle cap both commands refuse before they need numpy.
    for argv in (["verify", "--n", "7"], ["verify", "--n", "31"],
                 ["oracle", "--n", "7", "--generator", "7", "--t", "0.7"]):
        proc = run(*argv)
        _assert_json_error(proc.returncode, proc.stdout, proc.stderr, 3)
        want = f"dense Cayley graph for n={argv[2]} exceeds the cap of 6"
        assert json.loads(proc.stderr)["error"] == want
    for argv in NUMPY_FREE_ARGVS:  # the same bytes as a run with numpy at hand
        proc = run(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert proc.stdout == run_cli(capsys, *argv)[1], argv


def test_symwalk_max_n_overrides_the_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("SYMWALK_MAX_N", "3")
    _assert_json_error(*run_cli(capsys, "oracle", "--n", "4", "--generator", "2,1,1",
                                "--dump-adjacency"), 3)


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "3", "--oracle-cap", "5"),
    ("oracle", "--n", "3", "--generator", "2,1", "--dump-adjacency", "--oracle-cap", "5"),
    ("distribution", "--n", "3", "--generator", "2,1", "--t", "0.5", "--format", "csv"),
    ("amplitude", "--n", "3", "--generator", "2,1", "--target", "3", "--t", "0.5",
     "--format", "json"),
])
def test_removed_flags_are_usage_errors(capsys, argv):
    _assert_json_error(*run_cli(capsys, *argv), 1)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", "3", "--generator", "2,1", "--weight", "1e400"),
    ("distribution", "--n", "3", "--generator", "2,1", "--weight", "1e400", "--t", "1"),
    ("amplitude", "--n", "3", "--generator", "2,1", "--weight", "1e400", "--target", "3",
     "--t", "1"),
    ("limit", "--n", "3", "--generator", "2,1", "--weight", "1e400", "--average", "6.3,8"),
    ("oracle", "--n", "3", "--generator", "2,1", "--t", "1e308"),
])
def test_values_past_the_float_range_are_refused(capsys, argv):
    _assert_json_error(*run_cli(capsys, *argv), 1)


@pytest.mark.parametrize("argv", [
    ("limit", "--n", "3", "--generator", "2,1", "--weight", "1e400"),
    ("spectrum", "--n", "3", "--generator", "2,1", "--weight", "1e400", "--format", "csv"),
])
def test_exact_output_survives_huge_weights(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and "0" * 400 in out


@pytest.mark.parametrize("weight", ["1e100000000", "1e-5000", "1e4300"])
def test_weight_exponents_past_the_digit_limit_are_refused(capsys, weight):
    # Fraction would build 10**exponent before any cap: 2.1 s for 1e3000000.
    from time import perf_counter

    start = perf_counter()
    _assert_json_error(*run_cli(capsys, "limit", "--n", "3", "--generator", "2,1",
                                "--weight", weight), 1)
    assert perf_counter() - start < 0.5


@pytest.mark.parametrize("argv", [
    ("distribution", "--n", "3", "--generator", "2,1", "--t", "0.5", "--t-grid", "2"),
    ("oracle", "--n", "3", "--generator", "2,1", "--t", "0.5", "--dump-adjacency"),
    ("oracle", "--n", "3", "--generator", "2,1", "--dump-adjacency", "--classical"),
    ("oracle", "--n", "3", "--generator", "2,1", "--dump-adjacency", "--start", "3"),
])
def test_conflicting_flags_are_usage_errors(capsys, argv):
    _assert_json_error(*run_cli(capsys, *argv), 1)


@pytest.mark.parametrize("argv", [
    ("distribution", "--n", "3", "--generator", "2,1"),
    ("oracle", "--n", "3", "--generator", "2,1"),
])
def test_missing_time_is_a_usage_error(capsys, argv):
    _assert_json_error(*run_cli(capsys, *argv), 1)


def test_oracle_classical_at_large_time_is_finite(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "4", "--generator", "3,1", "--t", "1e300",
                           "--classical")
    payload = json.loads(out, parse_constant=lambda token: pytest.fail(token))
    assert code == 0
    assert abs(sum(c["probability"] for c in payload["classes"]) - 1) < 1e-12


def test_table_is_capped_before_any_row(capsys, monkeypatch):
    from symwalk.caps import TABLE_CAP

    _assert_json_error(*run_cli(capsys, "table", "--n", str(TABLE_CAP + 1)), 3)
    _assert_json_error(*run_cli(capsys, "table", "--n", "2000000"), 3)
    monkeypatch.setenv("SYMWALK_MAX_N", "5")
    _assert_json_error(*run_cli(capsys, "table", "--n", "6"), 3)


def test_verify_time_samples_are_capped(capsys):
    from symwalk.caps import TIME_POINTS_CAP

    _assert_json_error(*run_cli(capsys, "verify", "--n", "3", "--t-samples",
                                str(TIME_POINTS_CAP + 1)), 3)


def test_spectrum_reads_columns_past_the_table_cap(capsys):
    # The transposition eigenvalue of nu is the content sum of its cells
    # (Diaconis-Shahshahani), here far above the character-table cap.
    n = 20
    code, out, err = run_cli(capsys, "spectrum", "--n", str(n), "--generator",
                             ",".join(["2"] + ["1"] * (n - 2)))
    assert code == 0 and err == ""
    for row in json.loads(out)["eigenvalues"]:
        contents = sum(j - i for i, part in enumerate(row["rep"]) for j in range(part))
        assert row["exact"] == str(contents)


def test_table_backed_commands_keep_the_table_cap(capsys):
    code, out, err = run_cli(capsys, "limit", "--n", "15", "--generator",
                             ",".join(["2"] + ["1"] * 13))
    _assert_json_error(code, out, err, 3)
    assert json.loads(err)["error"] == "character table for n=15 exceeds the cap of 14"


@pytest.mark.parametrize("n", [15, 31])
def test_characters_names_the_table_cap_not_the_partition_cap(capsys, n):
    # Past both caps (n = 31 > 30), the table's own refusal must come first.
    code, out, err = run_cli(capsys, "characters", "--n", str(n))
    _assert_json_error(code, out, err, 3)
    assert json.loads(err)["error"] == f"character table for n={n} exceeds the cap of 14"


@pytest.mark.parametrize("argv", [
    ("limit",),
    ("distribution", "--t", "1"),
    ("amplitude", "--target", "30", "--t", "1"),
])
def test_table_cap_refuses_before_any_column_is_folded(capsys, argv):
    # Folding these twenty columns at n = 30 takes seconds; the refusal
    # must come before the spectrum is built.
    gens = [arg for lam in enumerate_partitions(30)[-21:-1] for arg in ("--generator", str(lam))]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--n", "30", *argv[1:], *gens)
    assert time.perf_counter() - start < 0.5
    _assert_json_error(code, out, err, 3)
    assert json.loads(err)["error"] == "character table for n=30 exceeds the cap of 14"


HUGE_N = "10000000"


@pytest.mark.parametrize("argv", [
    ["limit", "--n", HUGE_N, "--generator", HUGE_N],
    ["amplitude", "--n", HUGE_N, "--generator", HUGE_N, "--target", HUGE_N, "--t", "1"],
    ["distribution", "--n", HUGE_N, "--generator", HUGE_N, "--t", "1"],
    ["oracle", "--n", HUGE_N, "--generator", HUGE_N, "--t", "1"],
    ["verify", "--n", HUGE_N],
    ["spectrum", "--n", "30000", "--generator", "30000"],
    ["spectrum", "--n", "48", "--generator", ",".join(["2"] + ["1"] * 46)],
], ids=lambda argv: " ".join(argv[:3]))
def test_caps_refuse_before_work_that_grows_with_n(capsys, argv):
    # The identity start alone is n parts (80 MB at n = 10^7), the class
    # size of a 30,000-cycle has 120,000 digits, and the transposition
    # column's fold grows exponentially: none may be built before the
    # cap refuses n.
    import symwalk.verify  # noqa: F401  (numpy's import is not work sized by n)

    tracemalloc.start()
    try:
        result = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_json_error(*result, 3)
    assert peak < 5_000_000


def _transposition_walk(n):
    return spectrum(ClassFunction.indicator(hook(n, 2)))


@pytest.mark.parametrize("env, call, error, message", [
    ("abc", lambda: run(["limit", "--n", "4", "--generator", "2,1,1"]),
     ResourceLimitError, "SYMWALK_MAX_N must be an integer, got 'abc'"),
    (None, lambda: tv_distance(limiting_class_distribution(_transposition_walk(4),
                                                           identity_partition(4)), "cyclic"),
     DomainError, "unknown support 'cyclic'"),
    (None, lambda: class_amplitude(_transposition_walk(4), Partition((3,)), identity_partition(4),
                                   0.7),
     DomainError, "start and target classes must partition the walk's n"),
    (None, lambda: ncycle_amplitude_closed_form(1, 0.7), DomainError, "closed form needs n >= 2"),
    (None, lambda: hook(3, 4), DomainError, "hook needs 1 <= k <= n, got k=4, n=3"),
    (None, lambda: enumerate_partitions(-1), DomainError, "n must be nonnegative"),
    (None, lambda: run(["limit", "--n", "4", "--generator", "2,1,1", "--average", "0,4"]),
     DomainError, "averaging horizon must be positive"),
    (None, lambda: run(["limit", "--n", "4", "--generator", "2,1,1", "--average", "6.28,0"]),
     DomainError, "need at least one sample"),
    (None, lambda: run(["oracle", "--n", "4", "--generator", "2,1,1", "--t=-1", "--classical"]),
     DomainError, "classical walk time must be nonnegative"),
])
def test_library_refusals_raise_their_error(monkeypatch, env, call, error, message):
    # Each refusal raises its own error class with its own message; the
    # CLI exits with the class's code (3 for a cap, 1 for a domain error).
    if env is None:
        monkeypatch.delenv("SYMWALK_MAX_N", raising=False)
    else:
        monkeypatch.setenv("SYMWALK_MAX_N", env)
    with pytest.raises(SymwalkError) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_the_benchmark_tracer_finds_every_span_point():
    # perfbench/inproc.py rebinds symwalk functions by name; a rename in
    # symwalk would silently drop its spans from the benchmark's report.
    root = Path(__file__).resolve().parent.parent
    argvs = [
        ["limit", "--n", "4", "--generator", "2,1,1"],
        ["distribution", "--n", "4", "--generator", "2,1,1", "--t-grid", "8"],
        ["verify", "--n", "3"],
        ["oracle", "--n", "3", "--generator", "2,1", "--t", "0.7"],
    ]
    request = {"trace": True, "invocations": [{"argv": argv, "env": {}} for argv in argvs]}
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "inproc.py")],
                          input=json.dumps(request), capture_output=True, text=True,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["points_missing"] == []
    assert [result["rc"] for result in report["results"]] == [0, 0, 0, 0]
    names = {span[0] for span in report["spans"]}
    assert {"verify.suite", "oracle.limit", "oracle.aggregate"} <= names
