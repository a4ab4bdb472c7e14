"""Span arithmetic for the traced run: self times and per-layer metrics.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``run`` numbers
the CLI invocation it belongs to.  A span's self time is its duration
minus the part of it that its child spans cover, so self times over all
spans add up to the time spent inside root spans.
"""

from __future__ import annotations

# (metric, unit, better) for every per-layer metric, in report order.
# ``*_s`` metrics are self times, except the ``verify.*`` battery times,
# which are span durations (a check's work sits in its child spans).
VERIFY_CHECKS = (
    "quantum_vs_oracle", "classical_vs_oracle", "transposition_closed_form",
    "hook_ncycle_characters", "hook_pcycle_characters", "orthogonality_relations",
    "eigenvalue_integrality", "dimension_agreement", "sine_closed_form",
    "limiting_table", "limiting_vs_oracle",
)

PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.numpy_loaded", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("partitions.enumerate_s", "s", "lower"),
    ("partitions.enumerate_calls", "count", "lower"),
    ("characters.table_s", "s", "lower"),
    ("characters.table_calls", "count", "lower"),
    ("characters.table_entries", "count", "lower"),
    ("characters.character_s", "s", "lower"),
    ("characters.character_calls", "count", "lower"),
    ("walk_spectrum.spectrum_s", "s", "lower"),
    ("walk_spectrum.spectrum_calls", "count", "lower"),
    ("walk_spectrum.quantum_s", "s", "lower"),
    ("walk_spectrum.quantum_calls", "count", "lower"),
    ("walk_spectrum.classical_s", "s", "lower"),
    ("walk_spectrum.classical_calls", "count", "lower"),
    ("walk_spectrum.amplitude_calls", "count", "lower"),
    ("walk_spectrum.point_ms", "ms", "lower"),
    ("walk_spectrum.max_abs_err", "prob", "lower"),
    ("limiting.exact_s", "s", "lower"),
    ("limiting.exact_calls", "count", "lower"),
    ("limiting.groups", "count", "lower"),
    ("limiting.table_s", "s", "lower"),
    ("limiting.tv_s", "s", "lower"),
    ("oracle.build_s", "s", "lower"),
    ("oracle.builds", "count", "lower"),
    ("oracle.build_reuse", "ratio", "higher"),
    ("oracle.eigh_s", "s", "lower"),
    ("oracle.eigh_calls", "count", "lower"),
    ("oracle.evolve_s", "s", "lower"),
    ("oracle.evolve_calls", "count", "lower"),
    ("oracle.limit_s", "s", "lower"),
    ("oracle.aggregate_s", "s", "lower"),
    ("oracle.dense_mb_computed", "MB", "lower"),
    ("verify.suite_s", "s", "lower"),
    *((f"verify.check.{name}_s", "s", "lower") for name in VERIFY_CHECKS),
    ("verify.self_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.points_missing", "count", "lower"),
]

# metric -> span name, for self times and call counts.
SELF_TIME = {
    "cli.self_s": "cli.main",
    "partitions.enumerate_s": "partitions.enumerate",
    "characters.table_s": "characters.table",
    "characters.character_s": "characters.character",
    "walk_spectrum.spectrum_s": "walk_spectrum.spectrum",
    "walk_spectrum.quantum_s": "walk_spectrum.quantum",
    "walk_spectrum.classical_s": "walk_spectrum.classical",
    "limiting.exact_s": "limiting.exact",
    "limiting.table_s": "limiting.table",
    "limiting.tv_s": "limiting.tv",
    "oracle.build_s": "oracle.build",
    "oracle.eigh_s": "oracle.eigh",
    "oracle.evolve_s": "oracle.evolve",
    "oracle.limit_s": "oracle.limit",
    "oracle.aggregate_s": "oracle.aggregate",
}
CALLS = {
    "partitions.enumerate_calls": "partitions.enumerate",
    "characters.table_calls": "characters.table",
    "characters.character_calls": "characters.character",
    "walk_spectrum.spectrum_calls": "walk_spectrum.spectrum",
    "walk_spectrum.quantum_calls": "walk_spectrum.quantum",
    "walk_spectrum.classical_calls": "walk_spectrum.classical",
    "limiting.exact_calls": "limiting.exact",
    "oracle.builds": "oracle.build",
    "oracle.eigh_calls": "oracle.eigh",
    "oracle.evolve_calls": "oracle.evolve",
}
DURATION = {
    "verify.suite_s": "verify.suite",
    **{f"verify.check.{name}_s": f"verify.check.{name}" for name in VERIFY_CHECKS},
}
COUNTERS = ("walk_spectrum.amplitude_calls", "characters.table_entries",
            "limiting.groups", "oracle.dense_mb_computed")


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, run), kids in zip(spans, children):
        covered, reach = 0.0, start
        for kid_start, kid_end in sorted(kids):
            lo, hi = max(kid_start, reach), min(kid_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list, counters: dict) -> dict[str, float]:
    """Per-layer metrics that come from one traced pass's spans and counters."""
    selfs = self_times(spans)
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    duration_by_name: dict[str, float] = {}
    verify_self = 0.0
    for span, own in zip(spans, selfs):
        name = span[0]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        duration_by_name[name] = duration_by_name.get(name, 0.0) + span[2] - span[1]
        if name.startswith("verify."):
            verify_self += own
    out: dict[str, float] = {}
    out.update({m: self_by_name.get(s, 0.0) for m, s in SELF_TIME.items()})
    out.update({m: calls_by_name.get(s, 0) for m, s in CALLS.items()})
    out.update({m: duration_by_name.get(s, 0.0) for m, s in DURATION.items()})
    out.update({m: counters.get(m, 0) for m in COUNTERS})
    out["verify.self_s"] = verify_self
    points = out["walk_spectrum.quantum_calls"] + out["walk_spectrum.classical_calls"]
    point_s = out["walk_spectrum.quantum_s"] + out["walk_spectrum.classical_s"]
    out["walk_spectrum.point_ms"] = 1e3 * point_s / points if points else 0.0
    builds = out["oracle.builds"]
    out["oracle.build_reuse"] = counters.get("oracle.graphs", 0) / builds if builds else 0.0
    out["trace.spans"] = len(spans)
    return out
