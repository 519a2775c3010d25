"""Golden trajectories: run_stream records and parameter traces, pinned bit
for bit, so that a rewrite of the training step that claims to keep the
arithmetic can be checked against the values it produced before.

Each run covers one path of the trainer: the three methods on the dynamic
regime, and one distinct-regime run with the negative-entropy score. The
test split of 300 rows is not a multiple of 128, so blocked forward passes
end on a partial block.

The pinned values are the float64 results of the NumPy and BLAS kernels
the package is tested with; a BLAS that orders a matmul's sums
differently rounds differently and fails these tests with no change to
the code.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sconelab.losses import Hyperparams
from sconelab.model import OptimizerConfig
from sconelab.scores import ScoreKind
from sconelab.stream import REGIME_DISTINCT, REGIME_DYNAMIC, StreamConfig
from sconelab.trainer import METHODS, RunConfig, initialize, run_stream


def golden_cfg(name):
    distinct = name == "distinct"
    stream = StreamConfig(
        num_timesteps=3,
        num_classes=4,
        input_dim=5,
        samples_per_split=384,
        regime=REGIME_DISTINCT if distinct else REGIME_DYNAMIC,
    )
    return RunConfig(
        stream=stream,
        optimizer=OptimizerConfig(base_lr=0.01, batch_size=128),
        hyper=Hyperparams(),
        method="temp_scone_atc" if distinct else name,
        epochs_per_timestep=3,
        probe_size=96,
        seed=3,
        hidden_sizes=(16, 16),
        score_kind=ScoreKind.NEG_ENTROPY if distinct else ScoreKind.MAX_CONFIDENCE,
        val_size=96,
        test_size=300,
    )


def trace_digest(trace) -> str:
    """sha256 over every parameter's float64 bytes, timestep by timestep."""
    h = hashlib.sha256()
    for p in trace:
        for a in [*p.layer_weights, *p.layer_biases]:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# name -> (to_row() of every record, sha256 of the param_trace)
TRAJECTORY_GOLDEN = {
    "scone": (
        [
            [
                0, 0.6766666666666666, 0.6766666666666666, 0.95, 1.2964102280426268, 0.35, 0.35,
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0, 0.0,
                0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.5, 0.5, 0.61, 6.419064228010992, 0.5133333333333333, 0.5066666666666667,
                0.8205829634062471, 0.8181089352080053, 0.4449416487473278, 0.0, 1.1823847321397716,
                0.16523706249080428, 16.851911781964645, 0.0, 0.0, 18.530007701576828,
            ],
            [
                2, 0.5, 0.49, 0.48, 5.675534600987067, 0.5166666666666667, 0.5833333333333334,
                0.9036569950516903, 0.8861737123314785, 0.2961608779649234, 0.0, 1.147891370447604,
                0.9563137031071814, 8.62817904805671, 0.0, 0.0, 12.645011527825858,
            ],
        ],
        "90e7060668b637f22fc3e14bd5ca3439588b5e87e4939a163c04185e5e619c21",
    ),
    "temp_scone_atc": (
        [
            [
                0, 0.6766666666666666, 0.6766666666666666, 0.95, 1.2964102280426268, 0.35, 0.35,
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0, 0.0,
                0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.5, 0.5, 0.6066666666666667, 6.410212086541029, 0.5133333333333333,
                0.5066666666666667, 0.824208722529049, 0.8217351446158144, 0.44494334907429633, 0.0,
                1.1960294635592508, 0.16578062485860257, 16.880103306889772, 0.8898866981485926,
                2.0, 19.463361343173425,
            ],
            [
                2, 0.5, 0.49, 0.48333333333333334, 5.664388367421874, 0.5133333333333333,
                0.5766666666666667, 0.903013818081446, 0.8854626890781248, 0.2971782741403137, 0.0,
                1.1576602950528863, 0.8883895796361676, 8.839996548050975, 0.5943565482806275, 2.0,
                13.25718213029299,
            ],
        ],
        "d759cd3dee675086bb987ac7ab732a31babe2e983edae26f53591ea7ffd65260",
    ),
    "temp_scone_ac": (
        [
            [
                0, 0.6766666666666666, 0.6766666666666666, 0.95, 1.2964102280426268, 0.35, 0.35,
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0, 0.0,
                0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.5, 0.5, 0.61, 6.406494502438064, 0.5133333333333333, 0.5066666666666667,
                0.8097304297011324, 0.8073152767126356, 0.0, 0.5437648721306081, 1.1562475831584509,
                0.1695073519673931, 16.677845287172275, 1.0875297442612162, 2.0, 19.430144670494123,
            ],
            [
                2, 0.5, 0.49, 0.4766666666666667, 5.657289159338736, 0.5066666666666667,
                0.5633333333333334, 0.9072269668795631, 0.8899471530646518, 0.0, 0.0803218179292935,
                1.1711295782406685, 0.9633050061901657, 8.604980472854365, 0.11257979010662637,
                1.4016090896464675, 12.778604859772155,
            ],
        ],
        "4abb413b4172b115ff471b1e06ecd510fb523a8ac2fa3489e913db60d3bd8ed2",
    ),
    "distinct": (
        [
            [
                0, 0.5833333333333334, 0.58, 0.9733333333333334, 1.259430842835212, 0.35, 0.35,
                0.3206319769868294, 0.3205997561693152, 0.0, 0.0, 1.246791830759166, 0.0, 0.0, 0.0,
                0.0, 1.246791830759166,
            ],
            [
                1, 0.5066666666666667, 0.52, 0.6833333333333333, 5.6476392382351195,
                0.5066666666666667, 0.5, 0.7720600454174706,
                0.7717383469320602, 0.4906411144153632, 0.0, 1.5559746438258406,
                1.2431357261022786, 10.78030184515139, 0.9812822288307265, 2.0, 17.04696589611479,
            ],
            [
                2, 0.38666666666666666, 0.37333333333333335, 0.9866666666666667, 5.598328477446425,
                0.6033333333333334, 0.6033333333333334, 0.6925285318845776, 0.6913842282988539, 0.0,
                0.17877730091112093, 2.632892764825534, 0.7350382658696494, 10.538781300160732,
                0.3385839175164483, 1.8938865045556046, 15.715372780111663,
            ],
        ],
        "f404af6ce87eacf4e15487c3366aecfdb15387e8e2f936e36814da1bf5d7e85e",
    ),
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_GOLDEN))
def test_run_stream_trajectory_golden(name):
    trace = []
    records = run_stream(golden_cfg(name), param_trace=trace)
    rows, digest = TRAJECTORY_GOLDEN[name]
    # repr compares the floats bit for bit
    assert repr([r.to_row() for r in records]) == repr(rows)
    assert trace_digest(trace) == digest


@pytest.mark.parametrize("golden", ["temp_scone_atc", "distinct"])
@pytest.mark.parametrize("i", range(len(METHODS)))
def test_run_stream_from_another_methods_initialization(golden, i):
    # timestep 0 reads no method field: a run started from another method's
    # initialization is bit for bit the run that trains its own
    base = golden_cfg(golden)
    cfg = replace(base, method=METHODS[i])
    init = initialize(replace(base, method=METHODS[(i + 1) % len(METHODS)]))
    shared_trace, own_trace = [], []
    shared = run_stream(cfg, param_trace=shared_trace, init=init)
    own = run_stream(cfg, param_trace=own_trace)
    assert repr([r.to_row() for r in shared]) == repr([r.to_row() for r in own])
    assert trace_digest(shared_trace) == trace_digest(own_trace)
