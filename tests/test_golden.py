"""Golden trajectories: the seeded training run must not change.

Trial 0 of each config at the config's own seed, as ``softdag run`` trains
it, stopped after 50 epochs.  The SHA-256 of its final weight blocks was
recorded before the population evaluator replaced the per-graph loop; a
change that moves any weight by one bit changes the digest.

Row digests pin what a run reports from those weights: trial 0's
``run_trial`` row (verdict, epochs, expression, equivalent) at a capped
``max_epochs``, so extraction, simplification and the equivalence checks
are pinned too.

The classification digests pin the image path: ``mnist_binary``'s and
``mnist_trinary``'s networks and training on generated IDX files of their
classes, split as ``softdag run`` splits them, and the accuracy that a row
reports on images whose classes overlap.
"""

import hashlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from softdag import build_network, train
from softdag import cli
from softdag.cli import parse_config, run_trial
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


# config -> (max_epochs, SHA-256 of the row's repr), recorded before
# derive_rng seeded blocks of keys and a coded source kept a target table
ROWS = {
    # ('converged', 215, 'x1 | x2 | x3 | xor(x0, x1)', True)
    "lfsr4": (400, "e6914d51c87151dd17e35621faf2deae9bdbc262cf3ca38386ffb5f70d8fae96"),
    # ('converged', 115, '(((x0 + x0) + x0) + ((x0 + x0) * x0))', True)
    "poly_2x2_3x": (150, "3009c9d30ff3dda3e131e2e1b9b2840fc4f676c482b42dcb808d543c3347bae5"),
    # ('max-epochs-exhausted', 60, '(x0 * x0)', False)
    "recurrent_halfsquare": (60, "a520476dc7d6427fcf872ac7c9c1714b1ef6b036073d0bbc0fd63e351176124b"),
    # the configs whose values share their first lanes most often; recorded
    # while values that shared them were compared with every such live value
    # ('max-epochs-exhausted', 100, 'min(x0, x1) | x1 | max(x2, x0)', False)
    "sort3": (100, "2acd4c56183a6a339bee56bac6cd41a55ac0762968ba185b2088dff9f58b42a5"),
    # ('max-epochs-exhausted', 100, '(x0 + x0)', False)
    "recurrent_step": (100, "bd217b3d6defbe9231e46780f3ebf0c0a178dfdb3eeb9955d86da2bdd224eed2"),
    # the other non-image configs, recorded before ufunc basis calls
    # wrote into the value buffer in place
    # ('max-epochs-exhausted', 200, '(x1 * x1)', False)
    "half_squares": (200, "fb7f7f37dce6c5da08e672d3c94fd213f182e165df3b8bc1d1c4b08c0d9e3590"),
    # ('converged', 51, '(x0 * x1)', True)
    "hyperbola_implicit": (100, "95455796328cb2d0a25cb1bc7d2ac04e977a51452c92fc3bdc02a29d740e565e"),
    # ('max-epochs-exhausted', 200, 'x1 | x0', False)
    "pair_piecewise": (200, "8114841d95f76c70db6b00a66954ee665f2dd6ab617cda25042fedd1530142d5"),
    # ('max-epochs-exhausted', 200, 'if_leq(1, (x0 + x0), x0, x0)', False)
    "piecewise_3x": (200, "ab820d72e946ce1ad0ad8d5349ba14f51451e092b371cf88057a343e0432b283"),
    # ('max-epochs-exhausted', 200, 'if_leq(x0, 1, x0, x0)', False)
    "piecewise_sin": (200, "8e9218fe7a775362eaf6ddef11354f88957b6887f36141096ac0441097b578f6"),
    # ('max-epochs-exhausted', 200, '(x0 * x0)', False)
    "piecewise_square_neg": (200, "e3b0f91d9b669ef7a232e94c559d3097774cf7fe88279a10c6dd61ce49a3c40b"),
    # ('max-epochs-exhausted', 200, '4', False)
    "rational_poly": (200, "7474877cbbc8511cef8a770f8ec5717fcee9cfd6ccc37a7db9c1a892ce04bcbe"),
    # ('max-epochs-exhausted', 200, '((x0 / ((x0 * x0) + (x0 + 1))) * (x0 * x0))', False)
    "ratio_power": (200, "e067044bcde050a49eca395ef8a8bcb285ba5d97e4c7780ba2f6635ffd8e80c1"),
    # ('max-epochs-exhausted', 200, '1', False)
    "sin_3x_plus_2": (200, "7d5b57b08b1425539cdaaeae96ad7d55ea356cbf639d69faa98dc1d0254a56a9"),
    # ('max-epochs-exhausted', 200, 'sin((x0 + x0))', False)
    "sum_of_sines": (200, "69136b2bf222a1019dd50c405a770a15ec4ee111c03a561b53849649de36a9ab"),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_golden_row(name):
    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    max_epochs, digest = ROWS[name]
    row = run_trial(replace(exp, training=replace(exp.training, max_epochs=max_epochs)), 0)
    fields = (row["verdict"], row["epochs"], row["expression"], row["equivalent"])
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest, fields


# SHA-256 of the final weights of 50 epochs of a classification config's
# network and training on ``_ring_and_bar``'s images of its classes;
# mnist_binary's was recorded with the rows above, mnist_trinary's before
# ufunc basis calls wrote into the value buffer in place
CLASSIFICATION = {
    "mnist_binary": "ecd7d34625ae2cd6214f308909b1db12849b86421c5f00a6b54fd7681f6184e2",
    "mnist_trinary": "e5630c1dc9641c4fe3458341dbb27ec25c78d717aed3aac4afe6f74e8f6af134",
}


def _ring_and_bar(tmp_path, n=1200, classes=(0, 7), overlap=0.0):
    """A seeded 28x28 IDX pair over uniform noise whose rows take
    ``classes`` in turn: the first class is a ring, the second a vertical
    bar and a third, if given, a horizontal bar.  The first ``overlap``
    share of rows carries every class's mark, whatever its label."""
    rng = np.random.default_rng(7)
    labels = np.array(classes, dtype=np.uint8)[np.arange(n) % len(classes)]
    images = rng.integers(0, 100, size=(n, 28, 28), dtype=np.uint8)
    both = np.arange(n) < overlap * n
    r = np.hypot(*np.mgrid[-13.5:14.5, -13.5:14.5])
    images[(labels == classes[0]) | both] |= np.where((r >= 7) & (r <= 10), 255, 0).astype(np.uint8)
    images[(labels == classes[1]) | both, :, 12:16] = 255
    if len(classes) > 2:
        images[(labels == classes[2]) | both, 12:16, :] = 255
    img_path, lab_path = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    img_path.write_bytes(struct.pack(">iiii", 2051, n, 28, 28) + images.tobytes())
    lab_path.write_bytes(struct.pack(">ii", 2049, n) + labels.tobytes())
    return img_path, lab_path


def _on_ring_and_bar(tmp_path, name, overlap=0.0):
    """The config ``name`` read with its IDX paths on ``_ring_and_bar``'s
    images of its classes, ``overlap`` of them with every class's mark."""
    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    img_path, lab_path = _ring_and_bar(tmp_path, classes=exp.classes, overlap=overlap)
    return replace(exp, idx_images=str(img_path), idx_labels=str(lab_path))


def _classification_digest(tmp_path, name) -> str:
    exp = _on_ring_and_bar(tmp_path, name)
    train_set, _ = cli._load_classification(exp)
    seed = derive_seed(exp.training.seed, TRIAL_STREAM, 0)
    training = replace(exp.training, seed=seed, max_epochs=EPOCHS, patience=EPOCHS + 1)
    network = build_network(exp.network)
    run = train(network, train_set, training)
    assert run.epoch == EPOCHS
    return weights_digest(network)


def test_golden_classification(tmp_path):
    assert _classification_digest(tmp_path, "mnist_binary") == CLASSIFICATION["mnist_binary"]


def test_golden_classification_trinary(tmp_path):
    # its ADD, MIN and MAX nodes on 1000-lane batches write in place
    assert _classification_digest(tmp_path, "mnist_trinary") == CLASSIFICATION["mnist_trinary"]


# case -> (config, overlap, max_epochs, SHA-256 of the row's repr) of trial
# 0's ``run_trial`` row on ``_ring_and_bar``'s images, ``overlap`` of them
# with every class's mark, split as ``softdag run`` splits them.  The row
# reports the accuracy on the test split.  On images of one mark each it is
# 1.0 from epoch 5 on, so those digests mostly pin the chosen pixels; where
# the classes overlap no pixel tells every row apart, the accuracy is below
# 1.0, and the digest pins it too.
CLASSIFICATION_ROWS = {
    # ('max-epochs-exhausted', 60, 'x206 | x320', 1.0)
    "mnist_binary": ("mnist_binary", 0.0, 60, "8073e1458d47aa577b612c62e9861512a14ed34fe46a811cedeb3af442254e10"),
    # ('max-epochs-exhausted', 60, 'x206 | x404', 0.8)
    "mnist_binary_overlapping": ("mnist_binary", 0.2, 60, "a5c0614ddc1c1ce856871a31a4656096cdd22442ab9f7cecf20e7f3a03462c40"),
    # ('max-epochs-exhausted', 60, 'x245 | x545 | x399', 1.0)
    "mnist_trinary": ("mnist_trinary", 0.0, 60, "64699c7ac389321af77679ab5d841e6e541a75324a01889383fab0bdef6073da"),
}


@pytest.mark.parametrize("case", sorted(CLASSIFICATION_ROWS))
def test_golden_classification_row(tmp_path, case):
    name, overlap, max_epochs, digest = CLASSIFICATION_ROWS[case]
    exp = _on_ring_and_bar(tmp_path, name, overlap)
    exp = replace(exp, training=replace(exp.training, max_epochs=max_epochs))
    row = run_trial(exp, 0, class_split=cli._load_classification(exp))
    fields = (row["verdict"], row["epochs"], row["expression"], row["accuracy"])
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest, fields
