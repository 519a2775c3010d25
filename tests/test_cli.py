import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sconelab.cli import main
from sconelab.config import (
    ConfigError,
    default_spec,
    parse_config,
    parse_config_text,
    serialize_spec,
)

MINIMAL = """
[experiment]
methods = scone
"""

SMALL_RUN = """
[experiment]
methods = scone, temp_scone_atc
seeds = 0, 1
emit = both

[stream]
num_timesteps = 2
num_classes = 4
input_dim = 5
samples_per_split = 384

[optimizer]
batch_size = 128

[run]
epochs_per_timestep = 2
probe_size = 96
val_size = 96
test_size = 256
hidden_sizes = 12, 12
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_bytes(path):
    return Path(path).read_bytes()


def test_minimal_config_populates_documented_defaults():
    spec = parse_config_text(MINIMAL)
    assert spec.methods == ("scone",)
    assert spec.seeds == (0,)
    assert spec.emit == "both"
    run = spec.base_run
    assert run.stream.num_timesteps == 10
    assert run.stream.pi_cov_schedule == (0.3,) * 10
    assert run.hyper.eta == -5.0
    assert run.epochs_per_timestep == 10
    assert run.optimizer.momentum == 0.9
    assert run.optimizer.weight_decay == 0.0005
    assert run.optimizer.batch_size == 128


def test_config_eta_must_be_negative():
    with pytest.raises(ConfigError, match="eta must be negative"):
        parse_config_text(MINIMAL + "\n[hyper]\neta = 1.0\n")


def test_config_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown key \[hyper\] bogus"):
        parse_config_text(MINIMAL + "\n[hyper]\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[mystery\]"):
        parse_config_text(MINIMAL + "\n[mystery]\nx = 1\n")


def test_config_type_mismatch_names_key_path():
    with pytest.raises(ConfigError, match=r"\[stream\] num_timesteps"):
        parse_config_text(MINIMAL + "\n[stream]\nnum_timesteps = soon\n")


def test_config_round_trip_identity():
    spec = parse_config_text(SMALL_RUN)
    again = parse_config_text(serialize_spec(spec))
    assert again == spec
    assert serialize_spec(again) == serialize_spec(spec)


def test_config_lambda_alias():
    spec = parse_config_text(MINIMAL + "\n[hyper]\nlambda_temp = 0.25\n")
    assert spec.base_run.hyper.lambda_base == 0.25
    with pytest.raises(ConfigError, match="alias"):
        parse_config_text(MINIMAL + "\n[hyper]\nlambda_temp = 0.25\nlambda_base = 0.5\n")


def test_config_unknown_method():
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config_text("[experiment]\nmethods = warp_drive\n")


def test_default_spec_serializes():
    text = serialize_spec(default_spec())
    assert parse_config_text(text) == default_spec()


def test_cli_run_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), "--method", "scone", "--seeds", "0"])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "config_echo.ini").exists()
    assert (out / "run-scone-seed0.jsonl").exists()
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["method", "seed", "t"]
    assert len(rows) == 1 + 2  # header + T=2 timesteps


def test_cli_compare_scone_reduction_tables_match(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN + "\n[hyper]\nlambda_base = 0.0\n")
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--seeds", "0"]) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    by_method = {}
    for row in rows[1:]:
        by_method.setdefault(row[0], []).append(row[2:])
    assert by_method["scone"] == by_method["temp_scone_atc"]


def test_cli_outputs_byte_identical_across_invocations(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("metrics.csv", "summary.csv", "run-scone-seed1.jsonl"):
        assert read_bytes(out_a / name) == read_bytes(out_b / name), name
    # the echo records the resolved output directory; everything else matches
    echo_a = (out_a / "config_echo.ini").read_text().replace(str(out_a), "OUT")
    echo_b = (out_b / "config_echo.ini").read_text().replace(str(out_b), "OUT")
    assert echo_a == echo_b


def test_cli_repeated_seed_runs_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a), "--seeds", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b), "--seeds", "1"]) == 0
    assert read_bytes(out_a / "run-scone-seed1.jsonl") == read_bytes(out_b / "run-scone-seed1.jsonl")


def test_cli_json_records_parse(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seeds", "0"]) == 0
    lines = (out / "run-scone-seed0.jsonl").read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["t"] for r in records] == [0, 1]
    assert all(0.0 <= r["fpr95"] <= 1.0 for r in records)


def test_cli_verify_theory_flag_and_subcommand(tmp_path, capsys):
    out = tmp_path / "thy"
    assert main(["verify-theory", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "properties hold" in printed
    with open(out / "theory_checks.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["property", "trials", "violations", "max_violation", "passed"]
    assert all(row[4] == "true" for row in rows[1:])
    assert all(row[2] == "0" for row in rows[1:])
    assert main(["--verify-theory"]) == 0


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, "[experiment]\nmethods = nope\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown method" in capsys.readouterr().err


def test_cli_import_defers_scipy_integrate():
    # only verify-theory's quadrature needs scipy.integrate; every CLI start
    # would pay for importing it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, sconelab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
