"""Command-line surface: every engine behind one ``symwalk`` command.

Subcommands: characters, spectrum, amplitude, distribution, limit,
table, verify, oracle.  Output is JSON or CSV on stdout (or a file via
``-o``); errors go to stderr as one-line JSON.  Exit codes: 0 success,
1 usage error, 2 verification failure, 3 resource-limit refusal.

Partitions are written as comma-separated descending parts (``2,1,1``);
angles are radians.  ``SYMWALK_MAX_N`` overrides the resource caps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .caps import (CHARACTER_TABLE_CAP, ORACLE_CAP, ORACLE_WHAT, TABLE_CAP, check_cap,
                   check_time_points)
from .characters import character_table
from .errors import DegenerateGeneratorError, ResourceLimitError, SupportMismatchError, SymwalkError
from .limiting import (
    eigenvalue_groups,
    limiting_class_distribution,
    table_ncycle_case,
    time_averaged_distribution,
    tv_distance,
)
from .partitions import Partition, class_size, enumerate_partitions, identity_partition
from .walk_spectrum import (
    ClassFunction,
    WalkSpectrum,
    class_amplitude,
    class_distribution,
    classical_class_distribution,
    eigenvalue_float,
    spectrum,
)

DECIMAL_DIGITS = 20  # significant digits of the ``decimal`` field of ``table`` rows


class UsageError(SymwalkError):
    """A command line the CLI cannot run."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_partition(text: str, n: int, what: str) -> Partition:
    lam = Partition.parse(text)
    if lam.n != n:
        raise UsageError(f"{what} {text!r} is not a partition of n={n}")
    return lam


def _parse_fraction(text: str) -> Fraction:
    try:
        # Fraction("1e3000000") builds 10**3000000 before anything can cap
        # it.  A number spelled out in more digits than Python's int-to-str
        # limit already fails to parse; its exponent spelling fails here.
        exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", text)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) >= limit:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational weight {text!r}") from None


def _parse_time(text: str) -> float:
    try:
        t = float(text)
    except ValueError:
        t = math.nan
    if not math.isfinite(t):
        raise UsageError(f"time must be a finite number, got {text!r}")
    return t


def exact_str(value: Fraction) -> str:
    try:
        return str(Fraction(value))
    except ValueError:  # Python's limit on int-to-str digits
        raise ResourceLimitError("exact value has too many digits to print") from None


def decimal_str(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def build_parser() -> _Parser:
    parser = _Parser(prog="symwalk", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, *, generator=False, start=False, fmt=False):
        p.add_argument("--n", type=int, required=True, help="size of the symmetric group")
        if generator:
            p.add_argument("--generator", action="append", default=[],
                           help="generator class as comma-separated parts; repeatable")
            p.add_argument("--weight", action="append", default=[],
                           help="rational weight p/q paired with each --generator")
        if start:
            p.add_argument("--start", default=None,
                           help="starting class (default: identity)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="output format (default: json)")
        p.add_argument("-o", "--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("characters", help="character table of S_n")
    add_common(p, fmt=True)

    p = sub.add_parser("spectrum", help="exact walk eigenvalues per irrep")
    add_common(p, generator=True, fmt=True)

    p = sub.add_parser("amplitude", help="class-to-class amplitude at time t (JSON)")
    add_common(p, generator=True, start=True)
    p.add_argument("--target", required=True, help="target class")
    p.add_argument("--t", type=_parse_time, required=True, help="time in radians")

    p = sub.add_parser("distribution", help="class distribution: JSON at one t, CSV over a grid")
    add_common(p, generator=True, start=True)
    when = p.add_mutually_exclusive_group(required=True)
    when.add_argument("--t", type=_parse_time, default=None, help="single time in radians")
    when.add_argument("--t-grid", default=None, metavar="MIN,MAX,STEPS",
                      help="sweep; emits CSV rows t,class,probability; a bare "
                           "STEPS count sweeps [0, 2*pi], one full period of a "
                           "0/1 generator set (other weights may need explicit "
                           "ends)")
    p.add_argument("--classical", action="store_true", help="e^{-tL} instead of e^{itA}")

    p = sub.add_parser("limit", help="exact limiting distribution and TV distances")
    add_common(p, generator=True, start=True)
    p.add_argument("--average", default=None, metavar="T,SAMPLES",
                   help="also report a numeric time average for cross-checking")

    p = sub.add_parser("table", help="closed-form n-cycle limiting probabilities, all p")
    add_common(p)

    p = sub.add_parser("verify", help="oracle-vs-spectral and closed-form-vs-abacus suite")
    add_common(p)
    p.add_argument("--t-samples", type=int, default=16,
                   help="time samples over [0, 2*pi) for the quantum oracle check")
    p.add_argument("--detailed", action="store_true",
                   help="include per (t, class) error rows")

    p = sub.add_parser("oracle", help="literal Cayley-graph oracle")
    add_common(p, start=True)
    p.add_argument("--generator", action="append", default=[], help="generator class")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--dump-adjacency", action="store_true",
                      help="emit the edge list as CSV perm_g,perm_h")
    what.add_argument("--t", type=_parse_time, default=None,
                      help="evolve and report per-class sums")
    p.add_argument("--classical", action="store_true", help="e^{-tL} instead of e^{itA}")

    return parser


def _parse_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments and turn the raw strings into values."""
    n = args.n
    if n < 0:
        raise UsageError("--n must be nonnegative")
    if getattr(args, "t_samples", 1) < 1:
        raise UsageError("--t-samples must be at least 1")
    check_time_points(getattr(args, "t_samples", 0), "--t-samples")

    raw_gens = getattr(args, "generator", [])
    raw_weights = getattr(args, "weight", [])
    if raw_weights and len(raw_weights) != len(raw_gens):
        raise UsageError("--weight must be given once per --generator")
    gens = []
    for i, text in enumerate(raw_gens):
        lam = _parse_partition(text, n, "generator")
        w = _parse_fraction(raw_weights[i]) if raw_weights else Fraction(1)
        if w < 0:
            raise UsageError("generator weights must be nonnegative")
        gens.append((lam, w))
    args.generators = tuple(gens)

    if getattr(args, "dump_adjacency", False) and (args.classical or args.start is not None):
        raise UsageError("--dump-adjacency takes neither --classical nor --start")
    if getattr(args, "start", None) is not None:  # the identity default waits for a cap check
        args.start = _parse_partition(args.start, n, "start class")
    if getattr(args, "target", None) is not None:
        args.target = _parse_partition(args.target, n, "target class")

    if getattr(args, "t_grid", None) is not None:
        try:
            tokens = args.t_grid.split(",")
            if len(tokens) == 1:
                # One period covers the whole walk: e^{itH} is 2*pi-periodic
                # for integer spectra, so [0, 2*pi] is the default sweep.
                lo, hi, steps = 0.0, 2 * math.pi, int(tokens[0])
            else:
                lo, hi, steps = tokens
                lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            raise UsageError("--t-grid must be MIN,MAX,STEPS or STEPS") from None
        if not math.isfinite(hi - lo):  # also rules out non-finite ends
            raise UsageError("--t-grid ends and span must be finite")
        if steps < 1:
            raise UsageError("--t-grid needs at least one step")
        check_time_points(steps, "--t-grid")
        args.t_grid = (lo, hi, steps)

    if getattr(args, "average", None) is not None:
        try:
            horizon, samples = args.average.split(",")
            horizon, samples = _parse_time(horizon), int(samples)
        except ValueError:
            raise UsageError("--average must be T,SAMPLES") from None
        check_time_points(samples, "--average")
        args.average = (horizon, samples)
    return args


def _class_function(cfg: argparse.Namespace) -> ClassFunction:
    if not cfg.generators:
        raise UsageError("at least one --generator is required")
    weights: dict[Partition, Fraction] = {}
    for lam, w in cfg.generators:
        weights[lam] = weights.get(lam, Fraction(0)) + w
    f = ClassFunction(cfg.n, weights)  # keeps only the nonzero weights
    if all(len(lam.parts) == cfg.n for lam in f.weights):  # all fixed points: H is c*I
        raise DegenerateGeneratorError
    return f


def _walk_spectrum(cfg: argparse.Namespace) -> WalkSpectrum:
    """The spectrum for a command that evaluates the walk, which needs the
    full character table: its cap is checked before any column is folded."""
    f = _class_function(cfg)
    check_cap(cfg.n, CHARACTER_TABLE_CAP, "character table")
    cfg.start = cfg.start or identity_partition(cfg.n)  # n parts, so only once n is capped
    return spectrum(f)


def _generator_json(cfg: argparse.Namespace):
    if len(cfg.generators) == 1 and cfg.generators[0][1] == 1:
        return list(cfg.generators[0][0].parts)
    return [
        {"partition": list(lam.parts), "weight": exact_str(w)}
        for lam, w in cfg.generators
    ]


def _class_row(lam: Partition, **fields) -> dict:
    return {"partition": list(lam.parts), "class_size": str(class_size(lam)), **fields}


def _emit(cfg: argparse.Namespace, *texts: str) -> None:
    try:
        with open(cfg.output, "w") if cfg.output else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(texts)
            fh.flush()
    except OSError as exc:
        if not cfg.output:  # else the flush at exit fails on the same stdout again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {cfg.output or 'stdout'!r}: {exc.strerror}") from None


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_characters(cfg: argparse.Namespace) -> int:
    rows = list(zip(*character_table(cfg.n)))  # one row per irrep, in the order of the classes
    classes = enumerate_partitions(cfg.n)  # after the table, so its cap is the one named
    if cfg.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([""] + [str(lam) for lam in classes])
        writer.writerows([str(nu), *row] for nu, row in zip(classes, rows))
        _emit(cfg, out.getvalue())
        return 0
    # Integers as decimal strings so consumers without bigints survive.
    parts = [list(lam.parts) for lam in classes]
    _emit(cfg, _json({"n": cfg.n, "classes": parts, "reps": parts,
                      "entries": [[str(v) for v in row] for row in rows]}))
    return 0


def _cmd_spectrum(cfg: argparse.Namespace) -> int:
    spec = spectrum(_class_function(cfg))
    if cfg.format == "csv":
        lines = ["rep,dim,eigenvalue"]
        for rec in spec.records:
            lines.append(f"\"{rec.rep}\",{rec.dim},{exact_str(rec.eigenvalue)}")
        _emit(cfg, "\n".join(lines) + "\n")
        return 0
    payload = {
        "n": cfg.n,
        "generator": _generator_json(cfg),
        "eigenvalues": [
            {
                "rep": list(rec.rep.parts),
                "dim": str(rec.dim),
                "exact": exact_str(rec.eigenvalue),
                "value": eigenvalue_float(rec.eigenvalue),
            }
            for rec in spec.records
        ],
    }
    _emit(cfg, _json(payload))
    return 0


def _cmd_amplitude(cfg: argparse.Namespace) -> int:
    spec = _walk_spectrum(cfg)
    amp = class_amplitude(spec, cfg.target, cfg.start, cfg.t)
    payload = {
        "n": cfg.n,
        "generator": _generator_json(cfg),
        "start": list(cfg.start.parts),
        "target": list(cfg.target.parts),
        "t": cfg.t,
        "amplitude": {"re": amp.real, "im": amp.imag},
        "probability": class_distribution(spec, cfg.start, cfg.t)[cfg.target],
    }
    _emit(cfg, _json(payload))
    return 0


def _distribution_json(cfg: argparse.Namespace, dist) -> dict:
    return {
        "n": cfg.n,
        "generator": _generator_json(cfg),
        "t": cfg.t,
        "start": list(cfg.start.parts),
        "classes": [
            _class_row(lam, probability=p, per_element=p / class_size(lam))
            for lam, p in dist.items()
        ],
    }


def _cmd_distribution(cfg: argparse.Namespace) -> int:
    spec = _walk_spectrum(cfg)
    if cfg.t_grid is not None:
        lo, hi, steps = cfg.t_grid
        kernel = spec.kernel(cfg.start)
        probs = kernel.classical_probabilities if cfg.classical else kernel.quantum_probabilities
        points = ["t,class,probability\n"]  # one string per time point, written at the end
        labels = [f",\"{lam}\"," for lam in spec.classes]
        for j in range(steps):
            t = lo + (hi - lo) * j / max(steps - 1, 1)
            head = repr(t)
            points.append("".join([f"{head}{label}{p!r}\n" for label, p in zip(labels, probs(t))]))
        _emit(cfg, *points)
        return 0
    engine = classical_class_distribution if cfg.classical else class_distribution
    dist = engine(spec, cfg.start, cfg.t)
    _emit(cfg, _json(_distribution_json(cfg, dist)))
    return 0


def _cmd_limit(cfg: argparse.Namespace) -> int:
    spec = _walk_spectrum(cfg)
    exact = limiting_class_distribution(spec, cfg.start)
    groups = eigenvalue_groups(spec)
    classes = []
    for lam, p in exact.items():
        per = p / class_size(lam)
        classes.append(_class_row(lam, probability=float(p), exact=exact_str(p),
                                  per_element=float(per), per_element_exact=exact_str(per)))
    tv = []
    for support in ("symmetric_group", "alternating_group"):
        try:
            distance = tv_distance(exact, support)
        except SupportMismatchError:  # odd classes carry mass
            continue
        tv.append({"support": support, "distance": float(distance), "exact": exact_str(distance)})
    payload = {
        "n": cfg.n,
        "generator": _generator_json(cfg),
        "start": list(cfg.start.parts),
        "classes": classes,
        "eigenvalue_groups": [
            [list(nu.parts) for nu in group] for group in groups.groups
        ],
        "tv": tv,
    }
    if cfg.average is not None:
        horizon, samples = cfg.average
        avg = time_averaged_distribution(spec, cfg.start, horizon, samples)
        payload["time_average"] = {
            "horizon": horizon,
            "samples": samples,
            "max_abs_gap": max(
                abs(avg[lam] - float(p)) for lam, p in exact.items()
            ),
        }
    _emit(cfg, _json(payload))
    return 0


def _cmd_table(cfg: argparse.Namespace) -> int:
    if cfg.n < 2:
        raise UsageError("table needs n >= 2")
    check_cap(cfg.n, TABLE_CAP, "n-cycle table")
    lines = []
    for p in range(2, cfg.n + 1):
        row, value = table_ncycle_case(cfg.n, p)
        lines.append(json.dumps({
            "n": cfg.n,
            "p": p,
            "row": row,
            "exact": exact_str(value),
            "decimal": decimal_str(value),
        }))
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    check_cap(cfg.n, ORACLE_CAP, ORACLE_WHAT)  # before numpy loads
    from .verify import run_suite  # loads numpy, which only the oracle needs

    results = run_suite(cfg.n, t_samples=cfg.t_samples, detailed=cfg.detailed)
    # CheckResult's fields in declaration order, leaving out the None ones.
    checks = [{key: value for key, value in vars(res).items() if value is not None}
              for res in results]
    failed = sum(1 for r in results if not r.passed)
    payload = {
        "n": cfg.n,
        "checks": checks,
        "passed": len(results) - failed,
        "failed": failed,
    }
    _emit(cfg, _json(payload))
    return 0 if failed == 0 else 2


def _cmd_oracle(cfg: argparse.Namespace) -> int:
    if len(cfg.generators) != 1:
        raise UsageError("oracle needs exactly one --generator")
    check_cap(cfg.n, ORACLE_CAP, ORACLE_WHAT)  # before numpy loads
    from . import oracle as oracle_mod  # loads numpy, as in _cmd_verify
    gamma = cfg.generators[0][0]
    walk = oracle_mod.build_cayley(cfg.n, gamma)
    cfg.start = cfg.start or identity_partition(cfg.n)  # as in _walk_spectrum
    if cfg.dump_adjacency:
        lines = ["perm_g,perm_h", *(f"\"{g}\",\"{h}\"" for g, h in walk.edges())]
        _emit(cfg, "\n".join(lines) + "\n")
        return 0
    if cfg.classical:
        sums = oracle_mod.class_sums(walk, oracle_mod.evolve_classical(walk, cfg.start, cfg.t))
    else:
        agg = oracle_mod.class_aggregate(walk, oracle_mod.evolve_quantum(walk, cfg.start, cfg.t))
        sums = agg.sums
    payload = {
        "n": cfg.n,
        "generator": list(gamma.parts),
        "t": cfg.t,
        "start": list(cfg.start.parts),
        "classical": cfg.classical,
        "classes": [_class_row(lam, probability=sums[lam]) for lam in walk.classes],
    }
    if not cfg.classical:
        payload["max_class_deviation"] = agg.max_class_deviation
    _emit(cfg, _json(payload))
    return 0


_COMMANDS = {
    "characters": _cmd_characters,
    "spectrum": _cmd_spectrum,
    "amplitude": _cmd_amplitude,
    "distribution": _cmd_distribution,
    "limit": _cmd_limit,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = _parse_args(parser.parse_args(argv))
    try:
        return _COMMANDS[args.subcommand](args)
    except ModuleNotFoundError as exc:  # verify and oracle import numpy when they run
        if exc.name != "numpy":
            raise
        raise ResourceLimitError(f"{args.subcommand} needs numpy, which is not installed") from None


def main(argv=None) -> int:
    try:
        return run(argv)
    except SymwalkError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "code": exc.exit_code}) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
