import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from softdag import (
    ConfigError,
    NetworkConfig,
    WeightsFormatError,
    build_network,
    load_network,
    parameter_count,
    save_network,
    softmax_rows,
    train,
)
from softdag.cli import parse_config

from conftest import fig1_network, random_tiny_network

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# the config line of configs/pair_piecewise.ini's weights file, as written
PAIR_PIECEWISE_HEADER = (
    '{"bases": ["IF_LEQ", "IF_LEQ", "NEG", "SQUARE"], "constants": [1.0, 2.0], "depth": 3,'
    ' "input_count": 2, "last_layer_temperature": 3.0, "output_count": 2,'
    ' "skip_connections": true, "temperature": 1.0}'
)


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(bases=(), input_count=1)
    with pytest.raises(ConfigError):
        NetworkConfig(bases=("SIN",), input_count=1, depth=0)
    with pytest.raises(ConfigError):
        NetworkConfig(bases=("SIN",), input_count=0)
    with pytest.raises(ConfigError):
        NetworkConfig(bases=("SIN",), input_count=1, temperature=0.0)
    with pytest.raises(ValueError):
        build_network(NetworkConfig(bases=("NOPE",), input_count=1))


def test_fig1_layout():
    net = fig1_network()
    assert net.M == 6 and net.N == 4 and net.u == 4
    assert net.levels == 3
    # row lengths: levels see u + level*N sources, outputs see everything
    assert [w.shape for w in net.weights] == [(6, 4), (6, 8), (6, 12)]
    assert net.output_weights.shape == (2, 16)
    assert net.weight_count() == parameter_count(net.config) == 176


def test_tiny_chain_hand_count():
    # one unary basis, one input, depth 1: rows of length 1, 2 and 3
    cfg = NetworkConfig(bases=("SIN",), input_count=1, depth=1)
    net = build_network(cfg)
    assert [w.shape for w in net.weights] == [(1, 1), (1, 2)]
    assert net.output_weights.shape == (1, 3)
    assert parameter_count(cfg) == net.weight_count() == 6


def test_parameter_count_matches_build(rng):
    for _ in range(50):
        net = random_tiny_network(rng, max_classes=10**9)
        assert parameter_count(net.config) == net.weight_count()


def test_parameter_count_scaling():
    base = dict(bases=("ADD", "SIN"), input_count=2, output_count=1)
    shallow = parameter_count(NetworkConfig(depth=25, **base))
    deep = parameter_count(NetworkConfig(depth=50, **base))
    # quadratic growth in depth: doubling L roughly quadruples the count
    assert 3.0 < deep / shallow < 4.5


def test_uniform_rows_at_init():
    net = fig1_network()
    for level in range(net.levels):
        probs = net.level_probs(level)
        assert np.allclose(probs, 1.0 / probs.shape[1], atol=1e-12)
    out = net.output_probs()
    assert np.allclose(out, 1.0 / out.shape[1], atol=1e-12)


def test_wiring_is_pure_function_of_config():
    a, b = fig1_network(), fig1_network()
    assert a.slot_offset == b.slot_offset
    assert [w.shape for w in a.weights] == [w.shape for w in b.weights]
    # with skip connections level p sees codes 0..u + p * N - 1 (u = 4, N = 4)
    for net in (a, b):
        assert [c.tolist() for c in net.arg_codes] == [
            list(range(4)), list(range(8)), list(range(12))
        ]
        assert net.output_codes.tolist() == list(range(16))


def test_source_resolution_no_skip():
    cfg = NetworkConfig(
        bases=("SIN", "ADD"), input_count=2, depth=2, skip_connections=False
    )
    net = build_network(cfg)
    assert [w.shape[1] for w in net.weights] == [2, 2, 2]
    assert net.output_weights.shape[1] == 2
    # codes: inputs 0-1, then image (q, i) at u + q * N + i with u = N = 2
    u, N = 2, 2
    assert net.arg_codes[0].tolist() == [0, 1]
    assert net.arg_codes[1].tolist() == [u + 0, u + 1]
    assert net.arg_codes[2].tolist() == [u + N + 0, u + N + 1]
    assert net.output_codes.tolist() == [u + 2 * N + 0, u + 2 * N + 1]
    assert parameter_count(cfg) == net.weight_count()


def _softmax_row(w, t):
    return softmax_rows(np.array([w], dtype=np.float64), t)[0]


def test_softmax_values():
    assert np.allclose(_softmax_row([1, 1, 1, 1], 1.0), 0.25, atol=1e-15)
    p = _softmax_row([2.0, 0.0], 1.0)
    assert p[0] == pytest.approx(0.8807970779778823, abs=1e-12)
    assert p[1] == pytest.approx(0.11920292202211756, abs=1e-12)
    sharp = _softmax_row([2.0, 0.0], 0.01)
    assert sharp[0] == pytest.approx(1.0, abs=1e-12)
    assert sharp[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_properties(rng):
    for _ in range(100):
        w = rng.normal(0, 5, size=int(rng.integers(2, 9)))
        t = float(rng.uniform(0.1, 5))
        p = _softmax_row(w, t)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12
        shifted = _softmax_row(w + rng.normal(0, 10), t)
        assert np.allclose(p, shifted, atol=1e-12)
    extreme = _softmax_row([1e8, -1e8, 0.0], 1.0)
    assert np.isfinite(extreme).all()


def _copying_softmax(matrix, temperature):
    """``softmax_rows`` with a new array at every step."""
    z = np.asarray(matrix, dtype=np.float64) / float(temperature)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def test_softmax_in_place_equals_the_copying_form(rng):
    net = random_tiny_network(rng)
    cfg = net.config
    for scale in (1.0, 40.0, 1e3, 1e8):
        net.params[:] = rng.normal(0.0, scale, net.params.shape)
        # rows far below zero, and rows whose exp underflows in most places
        net.params[::5] = -abs(net.params[::5]) - 1e6
        probs = net.block_probs()
        temperatures = [cfg.temperature] * net.levels + [cfg.last_layer_temperature]
        for block, t, p in zip(net.blocks(), temperatures, probs):
            for temperature in (t, 0.3, 7.0):
                got = softmax_rows(block, temperature)
                assert got.tobytes() == _copying_softmax(block, temperature).tobytes()
                assert not np.shares_memory(got, net.params)
            assert p.tobytes() == _copying_softmax(block, t).tobytes()
            assert not np.shares_memory(p, net.params)


def test_save_load_round_trip(tmp_path, rng):
    net = random_tiny_network(rng)
    path = tmp_path / "weights.txt"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.config == net.config
    for a, b in zip(loaded.blocks(), net.blocks()):
        assert np.array_equal(a, b)


def test_weights_header_round_trips_every_config(tmp_path):
    path = tmp_path / "weights.txt"
    for config in sorted(CONFIG_DIR.glob("*.ini")):
        network = parse_config(config).network
        for cfg in (network, replace(network, skip_connections=False)):
            save_network(build_network(cfg), path)
            assert load_network(path).config == cfg, config.name


def test_weights_header_is_pinned_and_lists_every_field(tmp_path):
    path = tmp_path / "weights.txt"
    save_network(build_network(parse_config(CONFIG_DIR / "pair_piecewise.ini").network), path)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["softdag-weights 1", PAIR_PIECEWISE_HEADER]
    # every field is required, the defaulted ones too
    for field in fields(NetworkConfig):
        header = json.loads(PAIR_PIECEWISE_HEADER)
        del header[field.name]
        path.write_text("\n".join([lines[0], json.dumps(header), *lines[2:]]) + "\n")
        with pytest.raises(WeightsFormatError, match="bad config header"):
            load_network(path)


def _blocks_view_params(net) -> bool:
    """Every block is a view of ``params``, laid end to end in order."""
    blocks = net.blocks()
    return (
        all(a is b for a, b in zip(blocks, [*net.weights, net.output_weights]))
        and all(np.shares_memory(b, net.params) for b in blocks)
        and np.array_equal(np.concatenate([b.ravel() for b in blocks]), net.params)
    )


def test_blocks_are_views_of_one_vector(tmp_path, rng):
    exp = parse_config(CONFIG_DIR / "poly_2x2_3x.ini")
    net = build_network(exp.network)
    assert _blocks_view_params(net) and net.params.size == net.weight_count()
    train(net, exp.target, replace(exp.training, max_epochs=3, patience=4))
    assert _blocks_view_params(net) and not np.all(net.params == 1.0)
    for network in (net, random_tiny_network(rng)):
        path = tmp_path / "weights.txt"
        save_network(network, path)
        loaded = load_network(path)
        assert _blocks_view_params(loaded)
        assert loaded.params.tobytes() == network.params.tobytes()
    # the same views of another vector laid out like params
    other = np.arange(net.params.size, dtype=float)
    views = net.blocks(other)
    assert [v.shape for v in views] == [b.shape for b in net.blocks()]
    assert all(np.shares_memory(v, other) for v in views)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), other)


def test_load_errors(tmp_path, rng):
    net = random_tiny_network(rng)
    path = tmp_path / "weights.txt"
    save_network(net, path)

    truncated = tmp_path / "truncated.txt"
    truncated.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(WeightsFormatError):
        load_network(truncated)

    bad_magic = tmp_path / "bad_magic.txt"
    bad_magic.write_text("not-a-weights-file 1\n")
    with pytest.raises(WeightsFormatError):
        load_network(bad_magic)

    lines = path.read_text().splitlines()
    lines[2] = lines[2] + " 0.5"
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("\n".join(lines) + "\n")
    with pytest.raises(WeightsFormatError):
        load_network(ragged)
