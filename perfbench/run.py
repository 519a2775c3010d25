"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compare_grid --seed 1 --seconds 60 --trace 0

With --trace 0 the run measures set-up time in fresh processes, then repeats
the workload for --seconds and reports end-to-end metrics (medians over the
executions). With --trace 1 its executions alternate between plain ones and
ones with every public function of sconelab's layers wrapped; it reports
per-layer metrics from the traced ones plus the tracing overhead, and saves
the spans to .perfbench_out/spans-<workload>.npz.

Every execution's outputs are checked. The lines before the last one are a
machine block and a report with every metric and the record digests; the
last line is the result object. The exit code is 1 when any check failed and
2 when sconelab's sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy
import scipy
from layers import HOOKS, LAYERS, combine, metric_units, span_metrics
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("compare_grid", "theory_sweep")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
QUALITY_UNITS = {"fpr95_mean": "ratio", "id_acc_mean": "ratio", "cov_acc_mean": "ratio"}

SETUP_REPEATS = 3
MIN_EXECUTIONS = 3

# Imports every layer and parses the configs named after the source path.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import sconelab.cli; "
    "from sconelab.config import parse_config; [parse_config(p) for p in sys.argv[2:]]"
)


@dataclass
class Execution:
    wall_s: float
    cpu_s: float
    outcome: object | None  # workloads.Outcome; None when the execution raised
    problems: list[str]
    traced: bool = False


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(config_path: Path | None, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing sconelab and parsing the config."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    if config_path is not None:
        cmd.append(str(config_path))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(workload, spec, seed, seconds, min_runs, out_dir=OUT_DIR, tracer=None, modules=()):
    """Repeat the workload until another execution would overrun `seconds`.

    With a tracer, executions alternate plain and traced, starting plain, so
    that drift in machine load reaches both sides alike.
    """
    executions: list[Execution] = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(executions) % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                tracer.begin_run()
                stack.enter_context(tracer.instrument(modules, HOOKS))
            c0, t0 = process_time(), perf_counter()
            try:
                outcome = workload.execute(workload.config, spec, seed, out_dir)
                problems = list(outcome.problems)
            except Exception:
                traceback.print_exc()
                outcome, problems = None, ["raised " + traceback.format_exc(limit=1).strip()]
            wall, cpu = perf_counter() - t0, process_time() - c0
        if traced and not tracer.restored():
            problems.append("a wrapped sconelab name was not restored")
        executions.append(Execution(wall, cpu, outcome, problems, traced))
        elapsed = perf_counter() - t_start
        typical = statistics.median(e.wall_s for e in executions)
        if len(executions) >= min_runs and elapsed + typical > seconds and not (
            tracer is not None and len(executions) % 2
        ):
            return executions


def check_digests(executions):
    """Every execution of one seed must reproduce the first one's records bitwise."""
    reference = None
    for e in executions:
        if e.outcome is None:
            continue
        if reference is None:
            reference = e.outcome.digest
        elif e.outcome.digest != reference:
            e.problems.append(f"records digest {e.outcome.digest} differs from {reference}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(spec) -> dict:
    from sconelab.config import serialize_spec

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "config_sha256": hashlib.sha256(serialize_spec(spec).encode()).hexdigest()
        if spec is not None
        else None,
        "git_commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(executions, setup_s: float) -> dict:
    run_s = statistics.median(e.wall_s for e in executions)
    samples = next((e.outcome.samples for e in executions if e.outcome), 0)
    values = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": statistics.median(e.cpu_s for e in executions),
        "samples_per_s": samples / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(plain, traced, tracer) -> dict:
    per_run = [span_metrics(tracer, run) for run in range(len(traced))]
    combined, unsteady = combine(per_run)
    for name in unsteady:
        for e, values in zip(traced, per_run):
            if values[name] != per_run[0][name]:
                e.problems.append(f"{name}={values[name]} differs from {per_run[0][name]}")
    first = next((e.outcome for e in traced if e.outcome), None)
    quality = (first.quality if first else None) or {}
    combined["cli.bytes_written"] = float(first.bytes_written if first else 0)
    for name in QUALITY_UNITS:
        combined[f"metrics.{name}"] = quality.get(name, 0.0)
    combined["trace.overhead_s"] = statistics.median(e.wall_s for e in traced) - statistics.median(
        e.wall_s for e in plain
    )
    return {name: metric(combined[name], unit) for name, (unit, _) in metric_units().items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sconelab" / "__init__.py").is_file():
        print(f"error: no sconelab sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # sconelab is imported from this checkout only, after the check above.
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    spec = workload.load()
    print(json.dumps({"machine": machine_info(spec)}), flush=True)

    if args.trace:
        modules = [importlib.import_module(f"sconelab.{layer}") for layer in LAYERS]
        tracer = Tracer()
        executions = measure(
            workload, spec, args.seed, args.seconds, 2, tracer=tracer, modules=modules
        )
        check_digests(executions)
        plain = [e for e in executions if not e.traced]
        traced = [e for e in executions if e.traced]
        metrics = per_layer(plain, traced, tracer)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    else:
        setup_s = measure_setup(workload.config)
        executions = measure(workload, spec, args.seed, args.seconds, MIN_EXECUTIONS)
        check_digests(executions)
        metrics = end_to_end(executions, setup_s)

    failed = sum(1 for e in executions if e.problems)
    report = dict(metrics)
    first = next((e.outcome for e in executions if e.outcome), None)
    if not args.trace and first is not None and first.quality:
        for name, unit in QUALITY_UNITS.items():
            report[name] = metric(first.quality[name], unit)
    report["error_rate"] = metric(failed / len(executions), "ratio")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "executions": len(executions),
        "run_s_all": [e.wall_s for e in executions],
        "cpu_s_all": [e.cpu_s for e in executions],
        "digests": sorted({e.outcome.digest for e in executions if e.outcome}),
        "problems": [p for e in executions for p in e.problems],
        "report": report,
    }), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
