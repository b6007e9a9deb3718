"""Golden trajectories: the seeded training run must not change.

Trial 0 of each config at the config's own seed, as ``softdag run`` trains
it, stopped after 50 epochs.  The SHA-256 of its final weight blocks was
recorded before the population evaluator replaced the per-graph loop; a
change that moves any weight by one bit changes the digest.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from softdag import build_network, train
from softdag.cli import parse_config
from softdag.rng import TRIAL_STREAM, derive_seed

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EPOCHS = 50

GOLDEN = {
    # multi-output: 4 outputs on bit inputs
    "lfsr4": "eacc11a7478c8f6ce477d30b4c01cdd7b59654d523e49fe7e7a2a91fac25710a",
    # recurrent: self-composition to depth 4
    "recurrent_halfsquare": "fadc08a07ab8dc8627b36a442ce7d5e6da293826fca8078e28ca494871e6917b",
    "poly_2x2_3x": "f77c45e91b8efdd6aef931a5ca94132d1501f6e7280beee46a4f4e1636e085d2",
    # configs whose identities (x * 1, x / 1, if_leq with a decided condition
    # or one branch) the plan resolves without a basis call; recorded before
    # it did
    "recurrent_step": "3d447ca653f9956318fad0b72f56bb367101e0a7513291c2a6a52b0f90252c76",
    "sort3": "90d2f2f433891cc214d7ca4ea19dd06d60cc72d003076af62f1e9c76f8bd0297",
    "piecewise_3x": "a8ba2487be097c3703c0fa8cac47e52d56abfbc1cd336609b898fbda048aa3a3",
    "rational_poly": "6351aafdf5fd5777a23ec412ad78716106e8537fcfc94d5f33a1591084293ab2",
}


def weights_digest(network) -> str:
    h = hashlib.sha256()
    for block in network.blocks():
        h.update(repr(block.shape).encode())
        h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name):
    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    seed = derive_seed(exp.training.seed, TRIAL_STREAM, 0)
    training = replace(exp.training, seed=seed, max_epochs=EPOCHS, patience=EPOCHS + 1)
    network = build_network(exp.network)
    run = train(network, exp.target, training)
    assert run.epoch == EPOCHS
    assert weights_digest(network) == GOLDEN[name]
