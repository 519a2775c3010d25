"""Command-line entry point.

Subcommands:
  run            execute one method over the configured seeds
  compare        execute every configured method over every seed
  verify-theory  run the divergence/inequality sweep and emit its table

`run` and `compare` take --config PATH, --out DIR and --seeds LIST; `run`
also takes --method NAME. `verify-theory` takes --out DIR. All outputs are
deterministic functions of the config: metrics.csv (one row per
method/seed/timestep), summary.csv (per-timestep seed means), a config
echo, and one JSON-lines record stream per run. `run` and `compare` both
go through one grid loop, _run_grid, which trains each seed's timestep 0
once and starts every method of that seed from it. Every CSV cell is
printed by the config's INI value formatter, so a float cell is its repr
and parses back to the same bits.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    ExperimentSpec,
    _fmt,
    _parse_value,
    parse_config,
    serialize_spec,
)
from .metrics import CSV_COLUMNS
from .theory import SWEEP_COLUMNS, run_verification_sweep
from .trainer import METHODS, initialize, run_stream

METRICS_HEADER = ("method", "seed") + CSV_COLUMNS
SUMMARY_HEADER = ("method", "t") + CSV_COLUMNS[1:]


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _run_grid(spec: ExperimentSpec):
    """Run the spec's (method, seed) grid and write its outputs, method-major,
    once every run has finished. Runs go seed by seed: timestep 0 reads no
    method field, so each seed's is trained once and every method starts
    from it. summary.csv is the mean over seeds of the metrics.csv rows of
    each (method, t)."""
    by_seed = {}
    for s in spec.seeds:
        init = initialize(spec.run_config(spec.methods[0], s))
        for m in spec.methods:
            by_seed[m, s] = run_stream(spec.run_config(m, s), init=init)
        del init  # one seed's timestep 0 alive at a time
    runs = {(m, s): by_seed[m, s] for m in spec.methods for s in spec.seeds}
    files = {}
    if spec.emit in ("csv", "both"):
        rows = [[m, s, *r.to_row()] for (m, s), records in runs.items() for r in records]
        per_cell: dict = {}
        for method, _, t, *values in rows:
            per_cell.setdefault((method, t), []).append(values)
        summary = [[m, t, *np.mean(values, axis=0)] for (m, t), values in per_cell.items()]
        files["metrics.csv"] = _csv_text(METRICS_HEADER, rows)
        files["summary.csv"] = _csv_text(SUMMARY_HEADER, summary)
    if spec.emit in ("json", "both"):
        for (m, s), records in runs.items():
            files[f"run-{m}-seed{s}.jsonl"] = "\n".join(r.to_json() for r in records) + "\n"
    files["config_echo.ini"] = serialize_spec(spec)
    for name, text in files.items():
        _write_atomic(os.path.join(spec.out_dir, name), text)


def _out_flag(args) -> str | None:
    if args.out == "":  # it would write into the working directory
        raise ConfigError("--out: empty path; name a directory")
    return args.out


def _load_spec(args) -> ExperimentSpec:
    spec = ExperimentSpec() if args.config is None else parse_config(args.config)
    updates = {} if _out_flag(args) is None else {"out_dir": args.out}
    if args.seeds is not None:
        try:
            updates["seeds"] = _parse_value(args.seeds, tuple[int, ...])
        except ValueError as exc:
            raise ConfigError(f"--seeds: {exc}") from None
    return replace(spec, **updates)


def cmd_run(args) -> int:
    spec = _load_spec(args)
    method = spec.methods[0] if args.method is None else args.method
    # ExperimentSpec rejects an unknown method before any run starts, and the
    # echo then names the one method run, so a rerun from it runs that method
    _run_grid(replace(spec, methods=(method,)))
    print(f"run complete: method={method} seeds={list(spec.seeds)} -> {spec.out_dir}")
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args)
    _run_grid(spec)
    print(
        f"compare complete: methods={list(spec.methods)} seeds={list(spec.seeds)} "
        f"-> {spec.out_dir}"
    )
    return 0


def cmd_verify_theory(args) -> int:
    out_dir = _out_flag(args)
    checks = run_verification_sweep()
    rows = [check.to_row() for check in checks]
    text = _csv_text(SWEEP_COLUMNS, rows)
    if out_dir is not None:
        _write_atomic(os.path.join(out_dir, "theory_checks.csv"), text)
    for check in checks:
        status = "ok" if check.passed else "FAIL"
        print(
            f"{status:4s} {check.name:32s} trials={check.trials:<7d} "
            f"violations={check.violations:<4d} max_violation={check.max_violation:.3e}"
        )
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} properties hold")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sconelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to an INI experiment config")
    common.add_argument("--out", help="output directory (overrides the config)")
    common.add_argument("--seeds", help="comma-separated seed list (overrides the config)")

    p_run = sub.add_parser("run", parents=[common], help="run a single method")
    p_run.add_argument("--method", help=f"method override, one of {METHODS}")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", parents=[common], help="run all configured methods")
    p_cmp.set_defaults(func=cmd_compare)

    p_thy = sub.add_parser("verify-theory", help="run the inequality sweep")
    p_thy.add_argument("--out", help="directory for theory_checks.csv")
    p_thy.set_defaults(func=cmd_verify_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
