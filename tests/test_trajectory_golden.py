"""Golden trajectories: run_stream records and parameter traces, pinned bit
for bit, so that a rewrite of the training step that claims to keep the
arithmetic can be checked against the values it produced before.

Each run covers one path of the trainer: the three methods on the dynamic
regime, and one distinct-regime run with the negative-entropy score and a
refit ATC threshold. The test split of 300 rows is not a multiple of 128,
so blocked forward passes end on a partial block.

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
        refit_delta=distinct,
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
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0,
                0.0, 0.0, 0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.6533333333333333, 0.6466666666666666, 0.7766666666666666,
                7.293111585993586, 0.0, 0.0, 0.614676525053402, 0.6143381509767135,
                0.4383172355537749, 0.0, 0.564191675665924, 0.00046462270525736774,
                29.300373583560685, 0.001226969682592602, 0.0, 0.0, 29.8657922289092,
            ],
            [
                2, 0.12, 0.15333333333333332, 0.9866666666666667, 4.884347093205799,
                0.006666666666666667, 0.0, 0.49014308427227227, 0.496895140715603, 0.0,
                0.04818298173140462, 2.8507599906357246, 2.151413088521349, 7.717457557389121,
                2.8369730504730994, 0.0, 0.0, 13.405190598497946,
            ],
        ],
        "2b82d2226a2cd08fc999db5bcd240fa0784488e145fd612694975511b05685a8",
    ),
    "temp_scone_atc": (
        [
            [
                0, 0.6766666666666666, 0.6766666666666666, 0.95, 1.2964102280426268, 0.35, 0.35,
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0,
                0.0, 0.0, 0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.6466666666666666, 0.6433333333333333, 0.7766666666666666,
                7.288799657595032, 0.0, 0.0033333333333333335, 0.6144007530582676,
                0.6140448718360018, 0.438273290595442, 0.0, 0.5663351499784953,
                0.0004498292972651477, 29.267580735097283, 0.0012276955854261514,
                0.876546581190884, 2.0, 30.71169016185209,
            ],
            [
                2, 0.13, 0.16333333333333333, 0.9933333333333333, 4.883288586181132,
                0.013333333333333334, 0.0033333333333333335, 0.4998699873614394,
                0.5043555539238566, 0.0, 0.045355344774133347, 2.8523348289635053,
                2.139753494615651, 7.778732979548759, 2.806424186890558, 0.05564088127203587,
                1.2267767238706666, 13.493132876674858,
            ],
        ],
        "66e6166feca51391231b6a5d13c0852cedfb5c5184158f8304f00162e3ea0157",
    ),
    "temp_scone_ac": (
        [
            [
                0, 0.6766666666666666, 0.6766666666666666, 0.95, 1.2964102280426268, 0.35, 0.35,
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0,
                0.0, 0.0, 0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.6533333333333333, 0.6466666666666666, 0.7733333333333333,
                7.291427583575868, 0.0, 0.0, 0.6171329472097036, 0.6167776774905501, 0.0,
                0.2793622017885246, 0.5659842338912148, 0.00046287806495319696,
                29.313954222049176, 0.0012270561390437579, 0.5587244035770492, 2.0,
                30.439889915656483,
            ],
            [
                2, 0.15, 0.16666666666666666, 0.9933333333333333, 4.884364964014337,
                0.0033333333333333335, 0.0, 0.5112760995293282, 0.513570074617935,
                0.122282790262151, 0.0, 2.853230927027516, 2.1305171908910006,
                7.809132217059127, 2.7832235933153773, 0.19704819423363704, 1.6114139513107546,
                13.642634931635659,
            ],
        ],
        "ccbe55a5bfbcc45a65e99895efe5b42b3200775fd0cdcb42d2e82c5ba6286f59",
    ),
    "distinct": (
        [
            [
                0, 0.5833333333333334, 0.58, 0.9733333333333334, 1.259430842835212, 0.35, 0.35,
                0.3206319769868294, 0.3205997561693152, 0.0, 0.0, 1.246791830759166, 0.0, 0.0,
                0.0, 0.0, 0.0, 1.246791830759166,
            ],
            [
                1, 0.65, 0.6366666666666667, 0.75, 6.9489342194141095, 0.0, 0.0,
                0.5214101832230904, 0.5238356684310137, 0.4748390500750471, 0.0,
                1.053148668313671, 0.0, 27.52817571554458, 0.0012500000000000002,
                0.9496781001500944, 2.0, 29.532252484008346,
            ],
            [
                2, 0.5166666666666667, 0.5033333333333333, 1.0, 5.376625017107227,
                0.41333333333333333, 0.4, 0.4256698941596086, 0.42671395907144793, 0.0,
                0.3536329217157217, 1.4839365586804492, 0.6665519455655569, 11.613536994797533,
                0.23431590539520805, 0.7072658434314434, 2.0, 14.039055302304634,
            ],
        ],
        "eb2b2bb06f26aa85ad9d12c5cfdc8e988cd619c99dbc27cb228deaa551201cf9",
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
