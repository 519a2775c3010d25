"""The benchmark's workloads: what one execution runs and how it is checked.

Each execution returns an `Outcome`: a sha256 digest of its records, the
correctness problems found (empty when every check passes), the work it did
as a row count, and the result-quality means of training workloads. The
workload seed is the only input that does not come from the INI file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sconelab import cli, config, theory
from sconelab.metrics import CSV_COLUMNS

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

RATE_COLUMNS = ("id_acc", "ood_acc", "fpr95", "atc_in", "atc_cov", "ac_in", "ac_cov")
GRID_SEEDS = 3

# Trials per property of run_verification_sweep; a faster sweep must keep them.
THEORY_TRIALS = {
    "two_point_entropy_monotone": 149985,
    "chi2_moment_identity": 1000,
    "kl_tv_chi2_bound": 1000,
    "two_mass_entropy_confidence": 100000,
    "chi2_fisher_small_shift": 1,
    "chi2_fisher_ratio_monotone": 3,
    "chi2_gaussian_quadrature": 3,
    "score_dist_tv_gaussian": 1,
}


@dataclass
class Outcome:
    digest: str
    problems: list[str]
    samples: int
    quality: dict[str, float] | None = None
    bytes_written: int = 0


def digest_rows(rows) -> str:
    """sha256 of the rows' JSON text; float repr round-trips, so equal
    digests mean bitwise-equal values."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_records(rows, num_timesteps: int) -> list[str]:
    """Problems in one run's to_row() records: one per timestep in order,
    every value finite, every rate in [0, 1]."""
    problems = []
    ts = [row[0] for row in rows]
    if ts != list(range(num_timesteps)):
        problems.append(f"timesteps {ts}, expected 0..{num_timesteps - 1}")
    rate_idx = [CSV_COLUMNS.index(c) for c in RATE_COLUMNS]
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            problems.append(f"t={row[0]}: non-finite value in {row}")
        for i in rate_idx:
            if not 0.0 <= row[i] <= 1.0:
                problems.append(f"t={row[0]}: {CSV_COLUMNS[i]}={row[i]} outside [0, 1]")
    return problems


def quality_means(runs) -> dict[str, float]:
    """fpr95, ID accuracy and covariate accuracy, averaged over t >= 1 and runs."""
    late = [row for rows in runs for row in rows if row[0] >= 1]
    if not late:
        return {"fpr95_mean": 0.0, "id_acc_mean": 0.0, "cov_acc_mean": 0.0}

    def mean(column):
        i = CSV_COLUMNS.index(column)
        return sum(row[i] for row in late) / len(late)

    return {
        "fpr95_mean": mean("fpr95"),
        "id_acc_mean": mean("id_acc"),
        "cov_acc_mean": mean("ood_acc"),
    }


def training_rows(run_cfg) -> int:
    """ID train rows plus wild rows, times epochs, times timesteps."""
    stream = run_cfg.stream
    return 2 * stream.samples_per_split * run_cfg.epochs_per_timestep * stream.num_timesteps


def _parse_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_grid(config_path: Path, spec, seed: int, out_dir: Path) -> Outcome:
    """`sconelab compare` over every configured method and GRID_SEEDS seeds."""
    seeds = [seed + i for i in range(GRID_SEEDS)]
    out = out_dir / "compare_grid"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["compare", "--config", str(config_path), "--out", str(out)]
    argv += ["--seeds", ",".join(str(s) for s in seeds)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        files = sorted(p for p in out.iterdir() if p.is_file())
        bytes_written = sum(p.stat().st_size for p in files)
        problems = [] if code == 0 else [f"sconelab compare exited with {code}"]
        num_t = spec.base_run.stream.num_timesteps
        metrics = _parse_csv(out / "metrics.csv")
        summary = _parse_csv(out / "summary.csv")
        expected = len(spec.methods) * len(seeds) * num_t
        if len(metrics) - 1 != expected:
            problems.append(f"metrics.csv has {len(metrics) - 1} rows, expected {expected}")
        if len(summary) - 1 != len(spec.methods) * num_t:
            problems.append(
                f"summary.csv has {len(summary) - 1} rows, expected {len(spec.methods) * num_t}"
            )
        runs = {}
        for row in metrics[1:]:
            values = [int(row[2])] + [float(v) for v in row[3:]]
            runs.setdefault((row[0], int(row[1])), []).append(values)
        for method in spec.methods:
            for s in seeds:
                found = check_records(runs.get((method, s), []), num_t)
                problems += [f"{method} seed {s}: {p}" for p in found]
        jsonl = [p for p in files if p.suffix == ".jsonl"]
        if len(jsonl) != len(spec.methods) * len(seeds):
            problems.append(f"{len(jsonl)} .jsonl files, expected {len(spec.methods) * len(seeds)}")
        for path in jsonl:
            for line_no, line in enumerate(path.read_text().splitlines(), start=1):
                try:
                    json.loads(line)
                except json.JSONDecodeError as exc:
                    problems.append(f"{path.name}:{line_no}: {exc}")
        digest = hashlib.sha256()
        for path in files:
            if path.name != "config_echo.ini":  # echoes the output path
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    per_run = training_rows(spec.base_run)
    return Outcome(
        digest=digest.hexdigest(),
        problems=problems,
        samples=per_run * len(spec.methods) * len(seeds),
        quality=quality_means(list(runs.values())),
        bytes_written=bytes_written,
    )


def run_theory(config_path, spec, seed: int, out_dir: Path) -> Outcome:
    """`run_verification_sweep` at the workload seed."""
    checks = theory.run_verification_sweep(seed)
    rows = [check.to_row() for check in checks]
    problems = [f"{c.name} failed: {c.to_row()}" for c in checks if not c.passed]
    trials = {c.name: c.trials for c in checks}
    if trials != THEORY_TRIALS:
        problems.append(f"trials {trials}, expected {THEORY_TRIALS}")
    return Outcome(
        digest=digest_rows(rows),
        problems=problems,
        samples=sum(trials.values()),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Path | None  # INI file; None when the workload has no config
    execute: Callable[..., Outcome]

    def load(self):
        """Parse the workload's INI file with sconelab's own parser."""
        return config.parse_config(self.config) if self.config else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare_grid",
            "sconelab compare, 3 methods x 3 seeds: every training layer plus cli, config and the per-run loop",
            CONFIG_DIR / "compare_grid.ini",
            run_grid,
        ),
        Workload(
            "theory_sweep",
            "the theory layer alone; no training layer runs",
            None,
            run_theory,
        ),
    )
}
