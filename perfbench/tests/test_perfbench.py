"""Tests of the benchmark's own code: span arithmetic, wrapper restoration,
output checks, the metric lists in BENCHMARK.json, and tiny-config smoke
runs of every workload."""

import importlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

import sconelab  # noqa: E402

TINY_GRID = """
[experiment]
methods = scone, temp_scone_atc, temp_scone_ac
emit = both

[stream]
num_timesteps = 2
samples_per_split = 128

[run]
epochs_per_timestep = 1
probe_size = 32
val_size = 32
test_size = 32
"""


def _layer_modules():
    return [importlib.import_module(f"sconelab.{layer}") for layer in layers.LAYERS]


def _tiny(tmp_path, name, text):
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    workload = replace(workloads.WORKLOADS[name], config=path)
    return workload, workload.load()


def _add_span(tracer, name, parent, start, end, rows=0):
    tracer.name.append(tracer._intern(name))
    tracer.site.append(tracer._intern(name.split(".")[0]))
    tracer.parent.append(parent)
    tracer.run.append(len(tracer.run_starts) - 1)
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.rows.append(rows)
    return len(tracer.name) - 1


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    tracer.begin_run()
    root = _add_span(tracer, "trainer.run_stream", -1, 0.0, 10.0)
    a = _add_span(tracer, "model.forward", root, 1.0, 4.0)
    _add_span(tracer, "model.forward_cached", a, 2.0, 3.0)
    _add_span(tracer, "model.energy", root, 3.0, 6.0)  # overlaps a
    _add_span(tracer, "model.softmax", root, 8.0, 12.0)  # runs past root
    children = tracer.children(tracer.run_range(0))
    assert tracer.self_time(root, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert tracer.self_time(a, children) == pytest.approx(2.0)


def test_span_metrics_select_by_parent_and_site():
    tracer = Tracer()
    tracer.begin_run()
    fwd = _add_span(tracer, "model.forward", -1, 0.0, 2.0, rows=100)
    _add_span(tracer, "model.forward_cached", fwd, 0.5, 1.5, rows=100)
    _add_span(tracer, "model.forward_cached", -1, 3.0, 3.25, rows=8)
    tracer.begin_run()
    _add_span(tracer, "model.forward_cached", -1, 5.0, 5.5, rows=8)
    first, second = layers.span_metrics(tracer, 0), layers.span_metrics(tracer, 1)
    assert first["model.forward_cached.calls"] == 1
    assert first["model.forward_cached.rows"] == 8
    assert first["model.forward_cached.s"] == pytest.approx(0.25)
    assert first["model.forward.rows"] == 100
    assert first["trace.spans"] == 3 and second["trace.spans"] == 1
    assert first["cli.run_stream.calls"] == 0
    combined, unsteady = layers.combine([first, second])
    assert combined["model.forward_cached.s"] == pytest.approx(0.375)
    assert "model.forward.calls" in unsteady and "model.forward_cached.calls" not in unsteady


def test_traced_grid_restores_names_and_records(tmp_path):
    workload, spec = _tiny(tmp_path, "compare_grid", TINY_GRID)
    tracer = Tracer()
    executions = run.measure(
        workload, spec, 5, 0.0, 2, tmp_path, tracer=tracer, modules=_layer_modules()
    )
    assert [e.traced for e in executions] == [False, True]
    assert all(not e.problems for e in executions)
    assert executions[0].outcome.digest == executions[1].outcome.digest
    assert sconelab.trainer.forward_cached is sconelab.model.forward_cached
    assert sconelab.metrics.forward is sconelab.model.forward
    for module in _layer_modules():
        assert not any(hasattr(obj, "__wrapped__") for obj in vars(module).values())
    metrics = run.per_layer(executions[:1], executions[1:], tracer)
    assert set(metrics) == set(layers.metric_units())
    assert metrics["model.forward_cached.calls"]["value"] > 0
    assert metrics["model.matmul_flops"]["value"] > 0
    assert metrics["cli.run_stream.calls"]["value"] == 3 * workloads.GRID_SEEDS
    assert metrics["stream.make_timestep_splits.calls"]["value"] > 0


def test_compare_grid_smoke(tmp_path):
    workload, spec = _tiny(tmp_path, "compare_grid", TINY_GRID)
    first = workload.execute(workload.config, spec, 7, tmp_path)
    again = workload.execute(workload.config, spec, 7, tmp_path)
    assert first.problems == []
    assert first.digest == again.digest
    assert first.bytes_written > 0
    assert not (tmp_path / "compare_grid").exists()


def test_theory_sweep_smoke(tmp_path):
    outcome = workloads.WORKLOADS["theory_sweep"].execute(None, None, 0, tmp_path)
    assert outcome.problems == []
    assert outcome.samples == sum(workloads.THEORY_TRIALS.values())


def test_check_records_flags_bad_rows():
    good = [[t] + [0.5] * (len(workloads.CSV_COLUMNS) - 1) for t in range(2)]
    assert workloads.check_records(good, 2) == []
    assert workloads.check_records(good[:1], 2)
    fpr = workloads.CSV_COLUMNS.index("fpr95")
    bad_rate = [row[:] for row in good]
    bad_rate[1][fpr] = 1.5
    assert workloads.check_records(bad_rate, 2)
    non_finite = [row[:] for row in good]
    non_finite[0][-1] = math.nan
    assert workloads.check_records(non_finite, 2)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.metric_units()


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    ignore = shutil.ignore_patterns("tests", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theory_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
