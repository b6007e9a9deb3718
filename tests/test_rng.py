"""``derive_rng`` seeds a block of last keys at once: every generator must
still be the one ``SeedSequence`` would give, state and draws alike."""

import numpy as np
import pytest

from softdag import rng
from softdag.rng import derive_rng

# a uint32 product that wraps through a numpy scalar warns; none may
pytestmark = pytest.mark.filterwarnings("error")

EDGE = (1 << 32) - rng._BLOCK  # the first last key that takes the plain path


def seed_sequence_rng(*keys):
    seq = np.random.SeedSequence([int(k) & ((1 << 64) - 1) for k in keys])
    return np.random.Generator(np.random.PCG64(seq))


def assert_same(keys):
    got, want = derive_rng(*keys), seed_sequence_rng(*keys)
    assert got.bit_generator.state == want.bit_generator.state, keys
    assert np.array_equal(got.random(5), want.random(5)), keys
    assert np.array_equal(got.integers(0, 1000, 7), want.integers(0, 1000, 7)), keys


@pytest.mark.parametrize("keys", [
    (0,), (7,), (-1,), (0, 0, 0),
    (3, 2, 5),                      # a one-word seed
    ((1 << 40) + 9, 1, 5),          # a two-word seed
    (-12, 2, 5), (4, -3, 5), (5, 2, 3, 1, 1 << 35, 7),
    (5, 2, 63), (5, 2, 64), (5, 2, 65), (5, 2, 127), (5, 2, 128),
    (1, EDGE - 1), (1, EDGE), (1, EDGE + 1), (1, (1 << 32) - 1), (1, 1 << 32),
    (1, 1 << 40), (1, -5), (),
])
def test_the_generator_is_the_seed_sequences(keys):
    assert_same(keys)


def test_random_keys():
    draw = np.random.default_rng(2024)
    for _ in range(200):
        keys = [int(k) for k in draw.integers(-(1 << 62), 1 << 62, draw.integers(0, 4))]
        keys.append(int(draw.choice([draw.integers(0, 300), draw.integers(0, 1 << 32), draw.integers(-(1 << 62), 1 << 62)])))
        assert_same(keys)


def test_calls_out_of_order_and_more_prefixes_than_kept():
    prefixes = [(seed, stream) for seed in range(rng._PREFIXES + 3) for stream in (1, 2)]
    lasts = [70, 3, 200, 64, 63, 0, 71, 129, 2]
    for last in lasts:
        for prefix in prefixes:
            assert_same((*prefix, last))
    for prefix in reversed(prefixes):
        for last in reversed(lasts):
            assert_same((*prefix, last))


def test_equal_keys_give_independent_generators():
    a, b = derive_rng(9, 1, 4), derive_rng(9, 1, 4)
    assert a.bit_generator is not b.bit_generator
    first = a.random(10)
    assert np.array_equal(b.random(10), first)
    assert b.bit_generator.state == a.bit_generator.state
