import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from sconelab import trainer
from sconelab.cli import main
from sconelab.config import (
    KEYS,
    SECTIONS,
    ConfigError,
    ExperimentSpec,
    _fmt,
    parse_config,
    parse_config_text,
    serialize_spec,
)
from sconelab.knobs import intervals
from sconelab.metrics import CSV_COLUMNS
from sconelab.scores import ScoreKind

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
    assert run.stream.schedule("pi_cov") == (0.3,) * 10
    assert (run.hyper.m_in, run.hyper.m_out) == (-7.0, -3.0)
    assert run.epochs_per_timestep == 10
    assert run.optimizer.momentum == 0.9
    assert run.optimizer.weight_decay == 0.0005
    assert run.optimizer.batch_size == 128


def test_config_margins_must_be_ordered():
    for key, value, got in (("m_in", -3.0, "-3.0 and -3.0"), ("m_out", -8.0, "-7.0 and -8.0")):
        with pytest.raises(ConfigError, match=rf"\[hyper\]: m_in must be below m_out, got {got}"):
            parse_config_text(MINIMAL + f"\n[hyper]\n{key} = {value}\n")


def test_config_unknown_key_and_section_rejected():
    for key in ("bogus", "alpha", "tau", "lambda_temp", "ce_tol", "delta", "fpr_cutoff", "lr_lambda"):
        with pytest.raises(ConfigError, match=rf"unknown key \[hyper\] {key}"):
            parse_config_text(MINIMAL + f"\n[hyper]\n{key} = 1\n")
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


# (section, key) -> a valid non-default value, as INI text and as parsed
NON_DEFAULT = {
    ("experiment", "methods"): ("scone, temp_scone_ac", ("scone", "temp_scone_ac")),
    ("experiment", "seeds"): ("3, 4", (3, 4)),
    ("experiment", "emit"): ("csv", "csv"),
    ("experiment", "out_dir"): ("elsewhere", "elsewhere"),
    ("stream", "num_timesteps"): ("4", 4),
    ("stream", "num_classes"): ("3", 3),
    ("stream", "input_dim"): ("3", 3),
    ("stream", "regime"): ("distinct", "distinct"),
    ("stream", "pi_cov"): ("0.1", 0.1),
    ("stream", "pi_sem"): (", ".join(["0.1"] * 9 + ["0.25"]), (0.1,) * 9 + (0.25,)),
    ("stream", "corruption_sigma"): ("0.25", 0.25),
    ("stream", "drift_angle_per_step"): ("0.2", 0.2),
    ("stream", "samples_per_split"): ("100", 100),
    ("stream", "class_cov_scale"): ("0.5", 0.5),
    ("optimizer", "base_lr"): ("0.02", 0.02),
    ("optimizer", "momentum"): ("0.8", 0.8),
    ("optimizer", "weight_decay"): ("0.001", 0.001),
    ("optimizer", "batch_size"): ("64", 64),
    ("optimizer", "decay_milestones"): ("0.3, 0.6", (0.3, 0.6)),
    ("optimizer", "decay_factor"): ("0.25", 0.25),
    ("hyper", "m_in"): ("-8.0", -8.0),
    ("hyper", "m_out"): ("-2.0", -2.0),
    ("hyper", "lambda_out"): ("2.0", 2.0),
    ("hyper", "lambda_in"): ("0.5", 0.5),
    ("hyper", "lambda_base"): ("0.5", 0.5),
    ("hyper", "delta_max"): ("0.3", 0.3),
    ("hyper", "epsilon"): ("0.01", 0.01),
    ("hyper", "omega"): ("0.1", 0.1),
    ("run", "epochs_per_timestep"): ("2", 2),
    ("run", "probe_size"): ("64", 64),
    ("run", "score_kind"): ("neg_entropy", ScoreKind.NEG_ENTROPY),
    ("run", "refit_delta"): ("true", True),
    ("run", "val_size"): ("100", 100),
    ("run", "test_size"): ("200", 200),
    ("run", "hidden_sizes"): ("8, 8", (8, 8)),
}


def section_of(spec, section):
    if section == "experiment":
        return spec
    return spec.base_run if section == "run" else getattr(spec.base_run, section)


@pytest.mark.parametrize("section,key", [(s, k) for s, keys in KEYS.items() for k in keys])
def test_config_key_lands_in_its_field_and_round_trips(section, key):
    raw, expected = NON_DEFAULT[(section, key)]
    assert getattr(section_of(ExperimentSpec(), section), key) != expected
    spec = parse_config_text(f"[{section}]\n{key} = {raw}\n")
    assert getattr(section_of(spec, section), key) == expected
    assert parse_config_text(serialize_spec(spec)) == spec


def test_config_unknown_method():
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config_text("[experiment]\nmethods = warp_drive\n")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("methods", "scone, temp_scone_atc, scone", "duplicate method 'scone'"),
        ("seeds", "1, 1, 2", "duplicate seed 1"),
    ],
)
def test_config_duplicate_methods_and_seeds_rejected(key, value, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(f"[experiment]\n{key} = {value}\n")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("experiment", "seeds", "1,,2"),
        ("experiment", "seeds", "1,2,"),
        ("run", "hidden_sizes", "12,,12"),
        ("stream", "pi_cov", "0.3, , 0.2"),
    ],
)
def test_config_empty_list_item_rejected(section, key, value):
    # a mistyped list must not run a different grid or model
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: empty item"):
        parse_config_text(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize(
    "section, key", [("run", "hidden_sizes"), ("optimizer", "decay_milestones")]
)
def test_config_empty_tuple_round_trips(section, key):
    # a linear model and a schedule without decay are valid specs
    spec = parse_config_text(f"[{section}]\n{key} =\n")
    assert getattr(section_of(spec, section), key) == ()
    text = serialize_spec(spec)
    assert f"\n{key} = \n" in text
    assert parse_config_text(text) == spec


def test_config_empty_schedule_rejected():
    with pytest.raises(ConfigError, match=r"\[stream\]: pi_cov"):
        parse_config_text("[stream]\npi_cov =\n")


@pytest.mark.parametrize("key", ["methods", "seeds"])
def test_config_empty_methods_or_seeds_rejected(key):
    with pytest.raises(ConfigError, match=rf"\[experiment\]: at least one {key[:-1]}"):
        parse_config_text(f"[experiment]\n{key} =\n")


def entry_type(kind):
    """int or float: the type of a knob's value, or of each of its entries."""
    while kind not in (int, float):
        kind = get_args(kind)[0]
    return kind


def declared_range_cases():
    """(section, key, value, accepted) for every interval a key declares:
    NaN, each open bound and the nearest value outside each closed finite
    bound are rejected, and each closed bound is accepted. Bounds at
    infinity, like NaN, apply to float knobs only; ints cannot spell them."""
    cases = []
    for section, cls in SECTIONS.items():
        for key, interval in intervals(cls).items():
            if key not in KEYS[section]:
                continue  # [run] seed: [experiment] seeds sets it
            kind = entry_type(KEYS[section][key])
            if kind is float:
                cases.append((section, key, "nan", False))
            for bound, closed, outward in (
                (interval.lo, interval.lo_closed, -1),
                (interval.hi, interval.hi_closed, 1),
            ):
                if kind is int and not np.isfinite(bound):
                    continue
                text = repr(kind(bound)) if np.isfinite(bound) else str(bound)
                cases.append((section, key, text, closed))
                if closed and np.isfinite(bound):
                    outside = bound + outward if kind is int else np.nextafter(bound, outward * np.inf)
                    cases.append((section, key, repr(kind(outside)), False))
    return cases


BAD_VALUES = [
    ("optimizer", "base_lr", "-0.01"),
    ("optimizer", "base_lr", "0"),
    ("optimizer", "base_lr", "nan"),
    ("optimizer", "base_lr", "inf"),
    ("optimizer", "momentum", "1.5"),
    ("optimizer", "momentum", "-0.1"),
    ("optimizer", "momentum", "nan"),
    ("optimizer", "weight_decay", "-1"),
    ("optimizer", "weight_decay", "nan"),
    ("run", "hidden_sizes", "0"),
    ("run", "hidden_sizes", "-2"),
    ("run", "hidden_sizes", "8, 0"),
    *(("hyper", key, "nan") for key in KEYS["hyper"]),
    ("hyper", "m_in", "-inf"),
    ("hyper", "m_out", "inf"),
    ("hyper", "lambda_out", "inf"),
    ("hyper", "lambda_in", "inf"),
    ("hyper", "lambda_base", "inf"),
    ("hyper", "omega", "inf"),
    ("stream", "class_cov_scale", "nan"),
    ("stream", "class_cov_scale", "inf"),
    ("stream", "drift_angle_per_step", "nan"),
    ("stream", "drift_angle_per_step", "inf"),
    ("stream", "drift_angle_per_step", "-inf"),
    ("stream", "corruption_sigma", "nan"),
    ("stream", "corruption_sigma", "inf"),
    ("stream", "pi_cov", "nan"),
    ("stream", "pi_sem", "nan"),
]


@pytest.mark.parametrize(
    "section, key, value",
    BAD_VALUES
    + [
        (section, key, value)
        for section, key, value, accepted in declared_range_cases()
        if not accepted and (section, key, value) not in BAD_VALUES
    ],
)
def test_config_rejects_bad_optimizer_and_architecture(section, key, value):
    # the message names the key, which is the field, and its declared interval
    interval = re.escape(str(intervals(SECTIONS[section])[key]))
    with pytest.raises(ConfigError, match=rf"\[{section}\]: {key} must be in {interval}, got "):
        parse_config_text(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize(
    "section, key, value",
    [(s, k, v) for s, k, v, accepted in declared_range_cases() if accepted],
)
def test_config_accepts_closed_bounds(section, key, value):
    spec = parse_config_text(f"[{section}]\n{key} = {value}\n")
    assert np.ravel(getattr(section_of(spec, section), key))[0] == float(value)
    assert parse_config_text(serialize_spec(spec)) == spec


def test_config_accepts_unbounded_drift_cap_and_tolerance():
    spec = parse_config_text("[hyper]\ndelta_max = inf\nepsilon = inf\n")
    assert spec.base_run.hyper.delta_max == spec.base_run.hyper.epsilon == np.inf


def test_default_spec_serializes():
    text = serialize_spec(ExperimentSpec())
    assert parse_config_text(text) == ExperimentSpec()


def test_config_echo_leaves_out_unset_schedules():
    # a schedule left to its default is written as no key, so it parses back
    # to None and resolves for the regime and length the echo names
    text = serialize_spec(ExperimentSpec())
    for key in ("pi_cov", "pi_sem", "corruption_sigma"):
        assert f"\n{key} =" not in text
    assert "\npi_cov = 0.1\n" in serialize_spec(parse_config_text("[stream]\npi_cov = 0.1\n"))
    edited = parse_config_text(text.replace("regime = dynamic", "regime = distinct"))
    assert edited.base_run.stream.schedule("corruption_sigma") == (0.5,) * 10


def test_default_ini_text_pinned():
    # every key's name, order and default value as the config echo writes them
    digest = hashlib.sha256(serialize_spec(ExperimentSpec()).encode()).hexdigest()
    assert digest == "890278a09311007fb1ba7c75dc5de9b11d9d4367508ddcbfe8c512a9d4fcf482"


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


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_cli_outputs_follow_umask(tmp_path, umask):
    # the outputs get the mode a plain open() would give them, not 0600
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        code = main(["run", "--config", cfg, "--out", str(out), "--seeds", "0"])
    finally:
        os.umask(previous)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "metrics.csv" in names and not any(n.endswith(".tmp") for n in names)
    for name in names:
        assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


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


def test_cli_compare_from_config_echo_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--config", cfg, "--out", str(out_a)]) == 0
    echo = str(out_a / "config_echo.ini")
    assert main(["compare", "--config", echo, "--out", str(out_b)]) == 0
    names = ["metrics.csv", "summary.csv"] + [
        f"run-{m}-seed{s}.jsonl" for m in ("scone", "temp_scone_atc") for s in (0, 1)
    ]
    for name in names:
        assert read_bytes(out_a / name) == read_bytes(out_b / name), name


# sha256 of every file `compare` writes for SMALL_RUN (2 methods x 2 seeds)
# except the config echo, which records the output directory. A changed
# record value, column, cell format or file name shows up here.
SMALL_RUN_DIGESTS = {
    "metrics.csv": "5a2d1308fb435f9160ff153593eea07b4faa456b94d9d3e7e6c9f1efd1b74780",
    "summary.csv": "4f3139a0817eaa9150056d3f209196cbedaa0755b0b899fb846ce83f332abcac",
    "run-scone-seed0.jsonl": "0e62a154747110f5347f8233231328e21433dfdfb8e482a33e5e4ddab6301688",
    "run-scone-seed1.jsonl": "7ada284938db50081d9bc47c3d75b18e6c52f64460665bec4960f3c3d3c64bb1",
    "run-temp_scone_atc-seed0.jsonl": "1748f32bc08dbf60f42a501d1c890301e0e8c43f9751a494a36486659a46013f",
    "run-temp_scone_atc-seed1.jsonl": "23a74c5c811ca81c77ddaf0cad2f67fda56690fdc217d7440d27555d9ff6b5c3",
}


@pytest.fixture(scope="module")
def small_compare(tmp_path_factory):
    """Output directory of one `compare` over SMALL_RUN."""
    root = tmp_path_factory.mktemp("small_compare")
    out = root / "out"
    assert main(["compare", "--config", write_config(root, SMALL_RUN), "--out", str(out)]) == 0
    return out


def test_cli_compare_outputs_pinned(small_compare):
    assert sorted(p.name for p in small_compare.iterdir()) == sorted(
        [*SMALL_RUN_DIGESTS, "config_echo.ini"]
    )
    digests = {
        name: hashlib.sha256(read_bytes(small_compare / name)).hexdigest()
        for name in SMALL_RUN_DIGESTS
    }
    assert digests == SMALL_RUN_DIGESTS


def test_cli_summary_is_seed_mean_of_metrics(small_compare):
    with open(small_compare / "metrics.csv") as fh:
        metrics = list(csv.reader(fh))
    with open(small_compare / "summary.csv") as fh:
        summary = list(csv.reader(fh))
    assert metrics[0] == ["method", "seed", *CSV_COLUMNS]
    assert summary[0] == ["method", "t", *CSV_COLUMNS[1:]]
    per_cell = {}
    for row in metrics[1:]:
        per_cell.setdefault((row[0], int(row[2])), []).append([float(v) for v in row[3:]])
    assert all(len(rows) == 2 for rows in per_cell.values())
    assert [(row[0], int(row[1])) for row in summary[1:]] == list(per_cell)
    for row in summary[1:]:
        expected = np.array(per_cell[(row[0], int(row[1]))]).mean(axis=0)
        assert [float(v) for v in row[2:]] == expected.tolist(), row[:2]


@pytest.mark.parametrize(
    "emit, written, absent", [("csv", ".csv", ".jsonl"), ("json", ".jsonl", ".csv")]
)
def test_cli_emit_mode_writes_only_its_format(tmp_path, emit, written, absent):
    cfg = write_config(tmp_path, SMALL_RUN.replace("emit = both", f"emit = {emit}"))
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--seeds", "0"]) == 0
    suffixes = [p.suffix for p in out.iterdir()]
    assert written in suffixes
    assert absent not in suffixes
    assert (out / "config_echo.ini").exists()


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "true"),
        (np.bool_(False), "false"),
        (0.1, "0.1"),
        (np.float64(0.1), "0.1"),
        (np.float32(0.1), repr(float(np.float32(0.1)))),
        (np.int64(3), "3"),
        ((0.5, 2), "0.5, 2"),
        (ScoreKind.NEG_ENTROPY, "neg_entropy"),
    ],
)
def test_one_formatter_for_ini_values_and_csv_cells(value, text):
    assert _fmt(value) == text


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


def test_cli_verify_theory_subcommand(tmp_path, capsys):
    out = tmp_path / "thy"
    assert main(["verify-theory", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "properties hold" in printed
    with open(out / "theory_checks.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["property", "trials", "violations", "max_violation", "passed"]
    assert all(row[4] == "true" for row in rows[1:])
    assert all(row[2] == "0" for row in rows[1:])


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, "[experiment]\nmethods = nope\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown method" in capsys.readouterr().err


def test_cli_run_unknown_method_flag_exits_nonzero(tmp_path, capsys, monkeypatch):
    def no_run(cfg, init=None):
        raise AssertionError(f"trained {cfg.method} at seed {cfg.seed}")

    monkeypatch.setattr("sconelab.cli.initialize", no_run)
    monkeypatch.setattr("sconelab.cli.run_stream", no_run)
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--method", "nope"]) == 1
    assert "error: unknown method 'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_duplicate_seeds_exit_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out), "--seeds", "1,1,2"]) == 1
    assert "error: duplicate seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_empty_seed_list_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out), "--seeds", ","]) == 1
    assert "error: at least one seed is required" in capsys.readouterr().err
    assert not out.exists()


def test_cli_seeds_flag_empty_item_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out), "--seeds", "1,,2"]) == 1
    assert "error: --seeds: empty item" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "seeds_line, flag, message",
    [
        ("seeds = 0, -3", [], r"error: \[experiment\]: seeds must be in \[0, inf\), got \(0, -3\)"),
        ("seeds = 0", ["--seeds", "0,-1"], r"error: seeds must be in \[0, inf\), got \(0, -1\)"),
    ],
    ids=["ini_key", "seeds_flag"],
)
def test_cli_negative_seed_rejected_before_any_run(
    tmp_path, capsys, monkeypatch, seeds_line, flag, message
):
    # from the INI key and from --seeds alike, seed 0 must not train first
    def no_run(cfg, init=None):
        raise AssertionError(f"trained {cfg.method} at seed {cfg.seed}")

    monkeypatch.setattr("sconelab.cli.initialize", no_run)
    monkeypatch.setattr("sconelab.cli.run_stream", no_run)
    cfg = write_config(tmp_path, SMALL_RUN.replace("seeds = 0, 1", seeds_line))
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out), *flag]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--seeds", ""], "error: at least one seed is required"),
        (["compare", "--out", ""], "error: --out: empty path"),
        (["run", "--method", ""], "error: unknown method ''"),
        (["verify-theory", "--out", ""], "error: --out: empty path"),
        (["compare", "--config", ""], "error: [Errno 2] No such file or directory: ''"),
    ],
    ids=["compare_seeds", "compare_out", "run_method", "verify_theory_out", "compare_config"],
)
def test_cli_empty_flag_rejected_before_any_run(tmp_path, capsys, monkeypatch, argv, message):
    # an empty flag is an error, not a fall-back to the config's value
    def no_run(*args, **kwargs):
        raise AssertionError("ran")

    for name in ("initialize", "run_stream", "run_verification_sweep"):
        monkeypatch.setattr(f"sconelab.cli.{name}", no_run)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, SMALL_RUN)  # out_dir is the default, results
    config = [] if argv[0] == "verify-theory" or "--config" in argv else ["--config", cfg]
    assert main([*argv, *config]) == 1
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["exp.ini"]


def test_cli_grid_trains_timestep_zero_once_per_seed(tmp_path, monkeypatch):
    # every method of a seed starts from that seed's one initialization
    inits, starts = [], []

    def initialize(cfg):
        inits.append(trainer.initialize(cfg))
        return inits[-1]

    def run_stream(cfg, init=None):
        starts.append((cfg.method, cfg.seed, inits.index(init)))
        return trainer.run_stream(cfg, init=init)

    monkeypatch.setattr("sconelab.cli.initialize", initialize)
    monkeypatch.setattr("sconelab.cli.run_stream", run_stream)
    cfg = write_config(tmp_path, SMALL_RUN.replace("seeds = 0, 1", "seeds = 2, 0, 1"))
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert [init.cfg.seed for init in inits] == [2, 0, 1]
    assert starts == [
        (m, s, i) for i, s in enumerate((2, 0, 1)) for m in ("scone", "temp_scone_atc")
    ]


def test_cli_grid_leaves_initialization_unchanged(tmp_path, monkeypatch):
    # every method of a seed trains from the same, unwritten timestep 0
    def snapshot(init):
        return init.state.params.vec.tobytes(), init.state.momentum.vec.tobytes()

    inits, starts = [], []

    def initialize(cfg):
        init = trainer.initialize(cfg)
        inits.append((init, snapshot(init)))
        return init

    def run_stream(cfg, init=None):
        starts.append((cfg.method, init))
        return trainer.run_stream(cfg, init=init)

    monkeypatch.setattr("sconelab.cli.initialize", initialize)
    monkeypatch.setattr("sconelab.cli.run_stream", run_stream)
    methods = "methods = " + ", ".join(trainer.METHODS)
    text = SMALL_RUN.replace("methods = scone, temp_scone_atc", methods)
    cfg = write_config(tmp_path, text.replace("seeds = 0, 1", "seeds = 0"))
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    [(init, before)] = inits
    assert starts == [(m, init) for m in trainer.METHODS]
    assert snapshot(init) == before


def test_cli_run_method_reruns_from_config_echo(tmp_path):
    # the echo names the method run, not the configured list it was picked from
    cfg = write_config(tmp_path, SMALL_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["run", "--config", cfg, "--out", str(out_a), "--method", "temp_scone_atc"]
    assert main(argv + ["--seeds", "1"]) == 0
    echo = out_a / "config_echo.ini"
    assert "\nmethods = temp_scone_atc\n" in echo.read_text()
    assert main(["run", "--config", str(echo), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir() if p.name != "config_echo.ini")
    assert names == ["metrics.csv", "run-temp_scone_atc-seed1.jsonl", "summary.csv"]
    assert sorted(p.name for p in out_b.iterdir()) == sorted(names + ["config_echo.ini"])
    for name in names:
        assert read_bytes(out_a / name) == read_bytes(out_b / name), name


def test_cli_linear_model_reruns_from_config_echo(tmp_path):
    # no hidden layer and no learning-rate decay: both empty tuples
    text = SMALL_RUN.replace("hidden_sizes = 12, 12", "hidden_sizes =")
    text = text.replace("batch_size = 128", "batch_size = 128\ndecay_milestones =")
    cfg = write_config(tmp_path, text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a), "--seeds", "0"]) == 0
    echo = str(out_a / "config_echo.ini")
    assert main(["run", "--config", echo, "--out", str(out_b)]) == 0
    for name in ("metrics.csv", "summary.csv", "run-scone-seed0.jsonl"):
        assert read_bytes(out_a / name) == read_bytes(out_b / name), name


NO_SCIPY_RUN = """
import sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
import sconelab.cli
loaded = [scipy_modules()]
out = sys.argv[3]
assert sconelab.cli.main(["compare", "--config", sys.argv[2], "--seeds", "0", "--out", out]) == 0
assert sconelab.cli.main(["verify-theory", "--out", out]) == 0
print(loaded + [scipy_modules()])
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("mode", ["block", "plain"])
def test_cli_runs_without_scipy(tmp_path, mode):
    # numpy is the only runtime dependency: with scipy blocked, importing the
    # CLI, a 2-timestep compare and verify-theory all succeed; unblocked,
    # none of them loads a scipy module. Neither loads numpy.ma, whose import
    # np.unique triggers on first call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "o"
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, mode, cfg, str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-2:] == ["[[], []]", "False"]
    assert (out / "metrics.csv").is_file() and (out / "theory_checks.csv").is_file()
