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
        h.update(np.array([p.g_weight, p.g_bias], dtype=np.float64).tobytes())
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
                1, 0.9133333333333333, 0.9, 0.7933333333333333, 1.3881156697696202,
                0.006666666666666667, 0.023333333333333334, 0.4162226105175847,
                0.4124050103388824, 0.2664799250990515, 0.0, 0.9098292552326047,
                0.9701544659265671, 0.02988462441624024, 0.5928358159808987, 0.0, 0.0,
                1.5325496956297437,
            ],
            [
                2, 0.9633333333333334, 0.9133333333333333, 0.7633333333333333,
                1.5093415709168814, 0.0, 0.013333333333333334, 0.5146082671300082,
                0.497495393269122, 0.10115174635321075, 0.0, 0.6976421631458282,
                0.9647990557775193, 0.03513869078220876, 0.8387564605508375, 0.0, 0.0,
                1.5715373144788745,
            ],
        ],
        "63d393aa080dc5dcf12779bf7e39643013e7030e38de2d073043974cae624ac4",
    ),
    "temp_scone_atc": (
        [
            [
                0, 0.6766666666666666, 0.6766666666666666, 0.95, 1.2964102280426268, 0.35, 0.35,
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0,
                0.0, 0.0, 0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.89, 0.8833333333333333, 0.84, 1.3584802405960397, 0.016666666666666666,
                0.04, 0.397450406345028, 0.3941288641776396, 0.2268007809922543, 0.0,
                0.9496240631500495, 0.9707194701740104, 0.02927625501843087, 0.5935001626544486,
                0.4536015619845086, 2.0, 2.0260020428074377,
            ],
            [
                2, 0.9366666666666666, 0.8666666666666667, 0.76, 1.4306986870260994,
                0.0033333333333333335, 0.023333333333333334, 0.4714064172082239,
                0.45854436588871467, 0.10551451728045694, 0.0, 0.7870568955992869,
                0.9673914935877156, 0.0325460968185843, 0.8427880665558156, 0.16118108406509615,
                1.5275725864022849, 1.823572143038783,
            ],
        ],
        "ce22880247d04f57a7da056ab376ff3f11c753df476377d39e087705be0dd03d",
    ),
    "temp_scone_ac": (
        [
            [
                0, 0.6766666666666666, 0.6766666666666666, 0.95, 1.2964102280426268, 0.35, 0.35,
                0.33633258824766427, 0.33633258824766427, 0.0, 0.0, 1.1448543155762578, 0.0,
                0.0, 0.0, 0.0, 0.0, 1.1448543155762578,
            ],
            [
                1, 0.9166666666666666, 0.9, 0.7966666666666666, 1.3856657698922954,
                0.006666666666666667, 0.023333333333333334, 0.41308876233191844,
                0.40930466629950246, 0.0, 0.06144566055136741, 0.9150421879505547,
                0.9702523541997298, 0.029781583028777273, 0.5929504937982899,
                0.08032350655433675, 1.307228302756837, 1.6180977713319586,
            ],
            [
                2, 0.9633333333333334, 0.9133333333333333, 0.7666666666666667,
                1.4887633463742687, 0.0, 0.016666666666666666, 0.5023969124281655,
                0.48616360193869335, 0.0, 0.05885758465883717, 0.7188539018202892,
                0.9655878665601282, 0.03434811283931004, 0.8399594030224673,
                0.07617866101819809, 1.2942879232941857, 1.6693400787002646,
            ],
        ],
        "f145cf1024e75799c01ad6cd7a6360921e2ae5b45afcf4b275c874b6962e1d4f",
    ),
    "distinct": (
        [
            [
                0, 0.5833333333333334, 0.58, 0.9733333333333334, 1.259430842835212, 0.35, 0.35,
                0.3206319769868294, 0.3205997561693152, 0.0, 0.0, 1.246791830759166, 0.0, 0.0,
                0.0, 0.0, 0.0, 1.246791830759166,
            ],
            [
                1, 0.9133333333333333, 0.8966666666666666, 0.9533333333333334,
                1.3003061280965214, 0.02666666666666667, 0.03666666666666667,
                0.3738175647889241, 0.3717619535293608, 0.13963275218689186, 0.0,
                1.003302584260128, 0.9717606990395385, 0.028171595765634688, 0.5948212617693844,
                0.2371192796033216, 1.6981637609344593, 1.8634147213984689,
            ],
            [
                2, 0.5733333333333334, 0.5466666666666666, 1.0, 1.3185386825316598,
                0.02666666666666667, 0.05, 0.4048278303434947, 0.40256881588595667, 0.0,
                0.03253842046580724, 1.1708399747814797, 0.9707779585746709,
                0.029287521098689717, 0.8481639646028106, 0.03783216449785556,
                1.1626921023290362, 2.0861236249808357,
            ],
        ],
        "0520d5cd2d4655d7570a14a217769228252e0ee0674ea6f8b9768181e224b013",
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
