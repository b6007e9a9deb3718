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
    # the other non-image configs, recorded after the ones above
    "sin_3x_plus_2": "b14693dc48110284e23e8cd20c22cf55b2f0391ec5d8c12a69a5f5f86de81332",
    "sum_of_sines": "d324bfab15f500479176f197a0e6c65b6be137db6d216d9b793ae076f7b0a955",
    "piecewise_square_neg": "05d8e5b4aecb9d49c4fd54a25519333ea526f01b33e8cbf6181fbcc41c1c2ed5",
    "piecewise_sin": "c2a4502684412c91521b1581ff8019a72033b3320814805facdeb050b638a98f",
    "half_squares": "9fca856a6017d1b9d8d514eb601f0463763edcdef6990d75812ec99747b0ea19",
    "hyperbola_implicit": "cfc196026473556d25b8c410fad89c5acc92f2bb97c1e2ed19c05e1246d996de",
    "pair_piecewise": "fdfc11fe5a427a25e18f1fce4e5bf550d119ba56cfafdffe0599182d0dea6de4",
    "ratio_power": "496a272baf5faa72b8887a60dc4a1f66a7d31d6e08bf56f0e990d77fa02e28b8",
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
