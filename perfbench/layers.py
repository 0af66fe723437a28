"""Metric names and units, and the per-layer metrics derived from spans.

``BENCHMARK.json`` must list exactly ``END_TO_END`` and ``per_layer_metrics()``;
``run.py`` refuses to run when they differ.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Self time per op (median over the traced ops) of the named spans.
SELF_TIMES = {
    "learner.simulate_states.s": ("learner.simulate_states",),
    "learner.write_csv.s": ("learner.write_csv",),
    "analysis.metrics_over_time.s": ("analysis.metrics_over_time",),
    "analysis.write_csv.s": ("analysis.write_csv",),
    "analysis.error_report.s": (
        "analysis.compute_discounted_errors",
        "analysis.compute_average_errors",
    ),
    "chain.validate_chain.s": ("chain.validate_chain",),
    "chain.stationary_distribution.s": ("chain.stationary_distribution",),
    "chain.value_solves.s": (
        "chain.discounted_value",
        "chain.basic_differential_value",
        "chain.average_cost",
    ),
    "augmented.build_augmented.s": ("augmented.build_augmented",),
    "augmented.solve_fixed_point.s": (
        "augmented.solve_discounted_fixed_point",
        "augmented.solve_average_fixed_point",
        "augmented.check_a6",
    ),
    "gossip.validate_gossip.s": ("gossip.validate_gossip",),
    "harness.prepare.self_s": ("harness.prepare",),
    "cli.load_config.s": ("cli.load_config",),
}
MODES = ("distributed", "uncoupled")

# Measured under both BLAS settings; the single-thread copy is "blas1.<name>".
TIMED = (
    tuple(f"learner.us_per_step.{mode}" for mode in MODES)
    + tuple(SELF_TIMES)
    + ("augmented.verify_lifted_chain.total_s", "features.s", "trace.op_s", "trace.first_op_s")
)
PROBES = (("chain.selfloop_invariance_err", "abs"), ("chain.stationary_max_cap", "states"))
COUNTS = (
    ("learner.td_steps", "count"),
    ("analysis.records", "count"),
    ("chain.validate_chain.calls", "count"),
    ("augmented.lifted_bytes", "bytes"),
    ("harness.artifact_bytes", "bytes"),
)


def _unit(name):
    return "us" if ".us_per_step." in name else "s"


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints."""
    timed = [(name, _unit(name)) for name in TIMED]
    return (
        timed
        + list(COUNTS)
        + [(f"{layer}.share", "fraction") for layer in LAYERS]
        + [("trace.coverage", "fraction"), ("trace.overhead_s", "s")]
        + list(PROBES)
        + [(f"blas1.{name}", unit) for name, unit in timed + list(PROBES)]
    )


def derive(self_times, counts, walls, plain_walls, artifact_bytes):
    """Per-layer metrics of one traced run.

    ``self_times`` maps op -> span name -> (self s, inclusive s, calls) and
    ``counts`` maps op -> counter -> amount, both from ``Tracer``.
    """
    ops = sorted(walls)
    n = len(ops)

    def median_per_op(fn):
        return statistics.median(fn(self_times.get(op, {})) for op in ops)

    def self_of(names):
        return lambda spans: sum(spans[s][0] for s in names if s in spans)

    out = {name: median_per_op(self_of(spans)) for name, spans in SELF_TIMES.items()}
    for mode in MODES:
        busy = sum(self_of((f"learner.run.{mode}",))(self_times.get(op, {})) for op in ops)
        steps = sum(counts.get(op, {}).get(f"steps.{mode}", 0) for op in ops)
        out[f"learner.us_per_step.{mode}"] = 1e6 * busy / steps if steps else 0.0
    out["augmented.verify_lifted_chain.total_s"] = median_per_op(
        lambda spans: spans.get("augmented.verify_lifted_chain", (0, 0, 0))[1]
    )
    out["trace.op_s"] = statistics.median(walls.values())

    def layer_self(layer):
        return lambda spans: sum(v[0] for k, v in spans.items() if k.split(".")[0] == layer)

    out["features.s"] = median_per_op(layer_self("features"))
    total_wall = sum(walls.values())
    for layer in LAYERS:
        share = sum(layer_self(layer)(self_times.get(op, {})) for op in ops)
        out[f"{layer}.share"] = share / total_wall
    out["trace.coverage"] = (
        sum(v[0] for op in ops for v in self_times.get(op, {}).values()) / total_wall
    )
    out["trace.overhead_s"] = out["trace.op_s"] - statistics.median(plain_walls)

    def count_mean(fn):
        return sum(fn(op) for op in ops) / n

    out["learner.td_steps"] = count_mean(
        lambda op: sum(counts.get(op, {}).get(f"steps.{m}", 0) for m in MODES)
    )
    out["analysis.records"] = count_mean(lambda op: counts.get(op, {}).get("records", 0))
    out["augmented.lifted_bytes"] = count_mean(
        lambda op: counts.get(op, {}).get("lifted_bytes", 0)
    )
    out["chain.validate_chain.calls"] = count_mean(
        lambda op: self_times.get(op, {}).get("chain.validate_chain", (0, 0, 0))[2]
    )
    out["harness.artifact_bytes"] = sum(artifact_bytes) / n
    return out
