"""Per-layer metrics: which spans and counts each one reads, and its unit.

Every metric is measured on every workload; a layer the workload never
reaches reads 0. Counts repeat exactly for a given seed, times do not.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

LAYERS = ("stream", "model", "losses", "scores", "metrics", "trainer", "theory", "config", "cli")

UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s"}
TIME_FIELDS = ("s", "self_s")


@dataclass(frozen=True)
class SpanMetric:
    """Metrics `<label>.<field>` read from the spans of one function.

    `site` keeps only calls made through that layer's namespace.
    `skip_parent` drops calls made directly by that function, whose time
    and rows are reported under its own metric.
    """

    span: str
    fields: tuple[str, ...]
    site: str | None = None
    skip_parent: str | None = None
    label: str | None = None

    @property
    def prefix(self) -> str:
        return self.label or self.span


SPAN_METRICS = (
    # Minibatch and probe passes; the passes inside model.forward count there.
    SpanMetric("model.forward_cached", ("calls", "rows", "s"), skip_parent="model.forward"),
    SpanMetric("model.backward_from_logits", ("calls", "rows", "s")),
    SpanMetric("model.sgd_step", ("calls", "s")),
    SpanMetric("trainer.run_stream", ("self_s",)),
    SpanMetric("trainer.train_timestep", ("self_s",)),
    SpanMetric("model.forward", ("calls", "rows", "s")),
    SpanMetric("model.cross_entropy", ("s",)),
    SpanMetric("model.energy", ("s",)),
    SpanMetric("model.softmax", ("s",)),
    SpanMetric("scores.diff_atc_grad_logits", ("calls", "s")),
    SpanMetric("scores.diff_ac_grad_logits", ("calls", "s")),
    SpanMetric("scores.atc_threshold", ("calls", "s")),
    SpanMetric("losses.loss_in_grad", ("s",)),
    SpanMetric("losses.loss_out_grad", ("s",)),
    SpanMetric("losses.total_loss", ("s",)),
    SpanMetric("losses.update_multipliers", ("calls",)),
    SpanMetric("losses.temporal_loss_grad", ("calls",)),
    SpanMetric("stream.make_timestep_splits", ("calls", "rows", "s")),
    SpanMetric("trainer.mix_batches", ("s",)),
    SpanMetric("metrics.evaluate_timestep", ("calls", "s", "self_s")),
    SpanMetric("trainer.run_stream", ("calls",), site="cli", label="cli.run_stream"),
    SpanMetric("cli.cmd_compare", ("s", "self_s")),
    SpanMetric("config.parse_config", ("s",)),
    SpanMetric("config.serialize_spec", ("s",)),
    SpanMetric("theory.run_verification_sweep", ("s", "self_s")),
    *(
        SpanMetric(f"theory.{fn}", ("calls", "s"))
        for fn in ("lemma1_check", "two_point_entropy", "kl", "tv", "chi2", "score_dist_tv")
    ),
)

# Metrics not read from span durations: (name, unit, better).
OTHER_METRICS = (
    ("model.matmul_flops", "flop", "lower"),
    ("losses.temporal_active_ratio", "ratio", "higher"),
    ("cli.bytes_written", "B", "lower"),
    ("metrics.fpr95_mean", "ratio", "lower"),
    ("metrics.id_acc_mean", "ratio", "higher"),
    ("metrics.cov_acc_mean", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in output order."""
    out = {}
    for spec in SPAN_METRICS:
        for field in spec.fields:
            out[f"{spec.prefix}.{field}"] = (UNITS[field], "lower")
    for name, unit, better in OTHER_METRICS:
        out[name] = (unit, better)
    return out


def _flops_per_row(params) -> int:
    return 2 * sum(w.shape[0] * w.shape[1] for w in params.layer_weights)


def _forward_rows(tracer, args, result) -> int:
    params, features = args[0], args[1]
    rows = len(features)
    tracer.add("model.matmul_flops", rows * _flops_per_row(params))
    return rows


def _backward_rows(tracer, args, result) -> int:
    params, dlogits = args[0], args[2]
    rows = len(dlogits)
    # One weight-gradient product per layer, one delta product per hidden layer.
    first = params.layer_weights[0]
    tracer.add(
        "model.matmul_flops",
        rows * (2 * _flops_per_row(params) - 2 * first.shape[0] * first.shape[1]),
    )
    return rows


def _forward_only_rows(tracer, args, result) -> int:
    return len(args[1])


def _split_rows(tracer, args, result) -> int:
    arrays = (
        result.train_x,
        result.wild.features,
        result.probe_in,
        result.probe_cov,
        result.val_x,
        result.test_id_x,
        result.test_cov_x,
        result.test_sem_x,
    )
    return sum(len(a) for a in arrays)


def _temporal_active(tracer, args, result) -> int:
    tracer.add("losses.temporal_active", float(result[0] > 0.0))
    return 0


HOOKS = {
    "model.forward_cached": _forward_rows,
    "model.backward_from_logits": _backward_rows,
    "model.forward": _forward_only_rows,
    "stream.make_timestep_splits": _split_rows,
    "losses.temporal_loss_grad": _temporal_active,
}


def span_metrics(tracer, run: int) -> dict[str, float]:
    """SPAN_METRICS and the span-derived counts of one traced execution."""
    span_range = tracer.run_range(run)
    name_ids = {name: i for i, name in enumerate(tracer.names)}
    by_name: dict[int, list[int]] = {}
    for i in span_range:
        by_name.setdefault(tracer.name[i], []).append(i)
    children = None
    out: dict[str, float] = {}
    for spec in SPAN_METRICS:
        picked = by_name.get(name_ids.get(spec.span, -1), [])
        if spec.site is not None:
            site = name_ids.get(spec.site, -1)
            picked = [i for i in picked if tracer.site[i] == site]
        if spec.skip_parent is not None:
            skip = name_ids.get(spec.skip_parent, -1)
            picked = [
                i for i in picked if tracer.parent[i] < 0 or tracer.name[tracer.parent[i]] != skip
            ]
        for field in spec.fields:
            if field == "calls":
                value = float(len(picked))
            elif field == "rows":
                value = float(sum(tracer.rows[i] for i in picked))
            elif field == "s":
                value = sum(tracer.end[i] - tracer.start[i] for i in picked)
            else:
                if children is None:
                    children = tracer.children(span_range)
                value = sum(tracer.self_time(i, children) for i in picked)
            out[f"{spec.prefix}.{field}"] = value
    counters = tracer.counters[run]
    out["model.matmul_flops"] = counters.get("model.matmul_flops", 0.0)
    calls = out["losses.temporal_loss_grad.calls"]
    out["losses.temporal_active_ratio"] = (
        counters.get("losses.temporal_active", 0.0) / calls if calls else 0.0
    )
    out["trace.spans"] = float(len(span_range))
    return out


def combine(per_run: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median times over executions; counts must agree across executions.

    Returns the combined metrics and the names of counts that differed.
    """
    combined, unsteady = {}, []
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if name.rsplit(".", 1)[-1] in TIME_FIELDS:
            combined[name] = statistics.median(values)
        else:
            combined[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return combined, unsteady
