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
)

from conftest import fig1_network, random_tiny_network


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


def test_save_load_round_trip(tmp_path, rng):
    net = random_tiny_network(rng)
    path = tmp_path / "weights.txt"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.config == net.config
    for a, b in zip(loaded.blocks(), net.blocks()):
        assert np.array_equal(a, b)


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
