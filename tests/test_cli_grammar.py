"""Property test over the CLI grammar: every argv either succeeds with
valid output or fails with one JSON line on stderr, and nothing escapes
``main``."""

import contextlib
import csv
import io
import json
import math
import re
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symwalk.cli import main
from symwalk.partitions import enumerate_partitions

# Each value list is (well formed, malformed or over a cap).
TIMES = (("0", "0.7", "3.1", "-0.5", "1e17", "1e300", "1e308", "-1e308"),
         ("nan", "inf", "-inf", "x"))
WEIGHTS = (("1", "1/3", "2", "0", "1e400"), ("-1", "1/0", "nan", "x"))
GRIDS = (("1", "5", "0,1,3", "1,0,2", "0,1e308,2", "0,1e308,3"),
         ("0,inf,2", "nan,1,2", "0,1,0", "0,1,10001", "10001", "0,1", "a,b,c"))
AVERAGES = (("6.28", "0.5", "7.3", "1e-300"), ("6.28,16", "inf", "nan", "0", "-1", "1e308", "x"))
SAMPLES = (("1", "3"), ("0", "-2", "10001", "20000"))
MALFORMED = ("", "2,x", "1,2", "0", "-1", "2,,1")
EXACT = re.compile(r"-?\d+(/\d+)?")


def _mostly(common, rare):
    """Draw from ``common`` nine times in ten, else from ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


def _partition(n):
    """Mostly a partition of n; else one of another n, or a malformed one."""
    ours = [str(lam) for lam in enumerate_partitions(max(n, 0))]
    others = [str(lam) for m in (2, 3, 6) if m != n for lam in enumerate_partitions(m)]
    return _mostly(st.sampled_from(ours), st.sampled_from(others + list(MALFORMED)))


def _value(values):
    good, bad = values
    return _mostly(st.sampled_from(good), st.sampled_from(bad))


def _option(flag, values):
    return st.one_of(st.just([]), _value(values).map(lambda v: [f"{flag}={v}"]))


def _required(flag, values):
    return _mostly(_value(values).map(lambda v: [f"{flag}={v}"]), st.just([]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("characters", "spectrum", "amplitude", "distribution",
                                    "limit", "table", "verify", "oracle")))
    top = {"table": 12, "verify": 4, "oracle": 4}.get(command, 5)
    n = draw(_mostly(st.integers(2, top), st.integers(-1, 1)))
    argv = [command, "--n", str(n)]
    if command in ("spectrum", "amplitude", "distribution", "limit", "oracle"):
        gens = draw(_mostly(st.lists(_partition(n), min_size=1, max_size=1),
                            st.lists(_partition(n), max_size=2)))
        argv += [token for g in gens for token in ("--generator", g)]
        if command != "oracle" and draw(st.integers(0, 2)) == 0:
            count = draw(st.sampled_from((len(gens), 1)))
            argv += [token for _ in range(count)
                     for token in ("--weight", draw(_value(WEIGHTS)))]
    if command in ("amplitude", "distribution", "limit", "oracle"):
        argv += draw(st.one_of(st.just([]), _partition(n).map(lambda s: [f"--start={s}"])))
    if command in ("characters", "spectrum"):
        argv += draw(_option("--format", (("json", "csv"), ("tsv",))))
    if command == "amplitude":
        argv += [f"--target={draw(_partition(n))}", f"--t={draw(_value(TIMES))}"]
    if command == "distribution":
        argv += draw(st.one_of(_required("--t", TIMES), _required("--t-grid", GRIDS)))
    if command in ("distribution", "oracle"):
        argv += draw(_flag("--classical"))
    if command == "limit":
        argv += draw(_option("--average", AVERAGES))
    if command == "table" and draw(st.booleans()):
        argv[2] = draw(st.sampled_from(("860", "2000000")))
    if command == "verify":
        argv += draw(_option("--t-samples", SAMPLES)) + draw(_flag("--detailed"))
    if command == "oracle":
        argv += draw(st.one_of(_required("--t", TIMES), st.just(["--dump-adjacency"])))
    return argv


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON token {token}")


def _check_output(out):
    if out.startswith("{\n"):
        json.loads(out, parse_constant=_reject_constant)
    elif out.startswith("{"):  # JSON lines
        for line in out.splitlines():
            json.loads(line, parse_constant=_reject_constant)
    else:
        for row in csv.reader(io.StringIO(out)):
            for field in row:
                if EXACT.fullmatch(field):
                    continue
                try:
                    value = float(field)
                except ValueError:
                    continue
                assert math.isfinite(value), field


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_gets_an_answer_or_one_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 3), (code, err)
    if code == 0:
        assert err == ""
        _check_output(out)
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["code"] == code
