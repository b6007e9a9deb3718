"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 8-13 retrain
the shipped benchmark configs with ten seeded trials each and take a few
minutes; criterion 14 needs local MNIST IDX files and is skipped when they
are absent (point SOFTDAG_MNIST_DIR at a directory holding
train-images-idx3-ubyte and train-labels-idx1-ubyte).
"""

import math
import os
import statistics
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from softdag import (
    NetworkConfig,
    build_network,
    dag_to_expression,
    evaluate,
    evaluate_recurrent,
    evaluate_tree,
    log_probability,
    loss_gradient,
    parameter_count,
    sample,
    sample_many,
)
from softdag.cli import parse_config, run_experiment

from conftest import (
    dag_from_assignment,
    enumerate_classes,
    random_tiny_network,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FIG1_CONFIG = NetworkConfig(
    bases=("ADD", "SIN", "SQUARE", "MUL"),
    input_count=2,
    constants=(1.0, math.pi),
    output_count=2,
    depth=2,
)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"{marker} {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_gradient_oracle(rng):
    """Analytic gradient of -K log q matches central finite differences."""
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        net = random_tiny_network(rng, max_classes=10**9)
        dag = sample(net, rng)
        K = float(rng.uniform(0.05, 10.0))
        j = int(rng.integers(net.config.output_count))
        analytic = loss_gradient(net, dag, K, j)
        for block, grad in zip(net.blocks(), analytic):
            it = np.nditer(block, flags=["multi_index"])
            numeric = np.zeros_like(block)
            while not it.finished:
                idx = it.multi_index
                keep = block[idx]
                block[idx] = keep + h
                up = -K * log_probability(net, dag, (j,))
                block[idx] = keep - h
                down = -K * log_probability(net, dag, (j,))
                block[idx] = keep
                numeric[idx] = (up - down) / (2 * h)
                it.iternext()
            scale = max(np.abs(numeric).max(), 1e-8)
            worst = max(worst, float(np.abs(grad - numeric).max() / scale))
    _report("criterion 1: gradient oracle", worst < 1e-5, f"max rel err {worst:.2e}")


def test_criterion_02_probability_normalization(rng):
    """Brute-force enumeration of reachable configurations sums to one."""
    worst = 0.0
    checked = 0
    for skip in (True, False):
        for _ in range(10):
            net = random_tiny_network(rng, max_classes=60_000, skip=skip)
            total = 0.0
            for oracle_prob, assignment in enumerate_classes(net):
                dag = dag_from_assignment(net, assignment)
                impl = math.exp(log_probability(net, dag))
                assert abs(impl - oracle_prob) <= 1e-9 * max(oracle_prob, 1e-12)
                total += impl
            worst = max(worst, abs(total - 1.0))
            checked += 1
    _report(
        "criterion 2: probability normalization",
        checked == 20 and worst < 1e-9,
        f"max |sum - 1| = {worst:.2e} over {checked} networks",
    )


def test_criterion_03_sampling_statistics():
    """Empirical edge frequencies match softmax probabilities (chi-square)."""
    net = build_network(
        NetworkConfig(
            bases=("ADD", "SIN", "MUL"), input_count=2, constants=(1.0,),
            output_count=2, depth=2,
        )
    )
    gen = np.random.default_rng(2024)
    for block in net.blocks():
        block += gen.normal(0, 0.6, block.shape)
    n = 100_000
    dags = sample_many(net, np.random.default_rng(99), n)
    min_p = 1.0
    rows_checked = 0
    for level in range(net.levels):
        probs = net.level_probs(level)
        for row in range(net.M):
            picks = np.array([d.choices[level][row] for d in dags])
            observed = np.bincount(picks, minlength=probs.shape[1])
            _, p = stats.chisquare(observed, probs[row] * n)
            min_p = min(min_p, float(p))
            rows_checked += 1
    out_probs = net.output_probs()
    for j in range(net.config.output_count):
        picks = np.array([d.output_choices[j] for d in dags])
        observed = np.bincount(picks, minlength=out_probs.shape[1])
        _, p = stats.chisquare(observed, out_probs[j] * n)
        min_p = min(min_p, float(p))
        rows_checked += 1
    _report(
        "criterion 3: sampling statistics",
        rows_checked >= 17 and math.isfinite(min_p) and min_p > 0.001,
        f"min p = {min_p:.4f} over {rows_checked} rows",
    )


def test_criterion_04_parameter_count_formula(rng):
    """Closed-form weight count equals the built network's, exactly."""
    mismatches = 0
    for _ in range(50):
        net = random_tiny_network(rng, max_classes=10**9)
        if parameter_count(net.config) != net.weight_count():
            mismatches += 1
    fig1 = parameter_count(FIG1_CONFIG)
    built = build_network(FIG1_CONFIG).weight_count()
    _report(
        "criterion 4: parameter-count formula",
        mismatches == 0 and fig1 == built,
        f"50 random configs exact; two-input example network = {fig1} weights",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the quoted closed form omits the first selection level's"
    " input-facing weights (M*u); the example network carries 176, not 152",
)
def test_criterion_04_literal_example_anchor():
    assert parameter_count(FIG1_CONFIG) == 152


def test_criterion_05_evaluation_oracle(rng):
    """Sparse forward evaluation equals an independent tree interpreter."""
    worst = 0.0
    for _ in range(100):
        net = random_tiny_network(rng, max_classes=10**9)
        dag = sample(net, rng)
        X = rng.uniform(-10, 10, (1000, net.config.input_count))
        got = evaluate(net, dag, X)
        for j in range(net.config.output_count):
            expr = dag_to_expression(net, dag, j)
            for k in range(0, 1000, 37):
                want = evaluate_tree(expr, X[k])
                if math.isnan(want) or math.isinf(want):
                    assert not np.isfinite(got[k, j])
                else:
                    denom = max(abs(want), 1.0)
                    worst = max(worst, abs(got[k, j] - want) / denom)
    _report("criterion 5: evaluation oracle", worst < 1e-12, f"max rel err {worst:.2e}")


def test_criterion_06_negative_sampling_direction(rng):
    """A single fitness-weighted gradient step raises the graph's probability."""
    ok = True
    for _ in range(50):
        net = random_tiny_network(rng, max_classes=10**9)
        dag = sample(net, rng)
        before = log_probability(net, dag)
        grads = loss_gradient(net, dag, float(rng.uniform(0.1, 5.0)), 0)
        alpha = float(rng.uniform(0.005, 0.1))
        for block, grad in zip(net.blocks(), grads):
            block -= alpha * grad
        ok = ok and log_probability(net, dag) > before
    _report("criterion 6: negative-sampling direction", ok)


def test_criterion_07_recurrence_composition(rng):
    """Depth d+1 outputs equal the function applied to depth-d outputs."""
    ok = True
    for _ in range(30):
        u = int(rng.integers(1, 3))
        net = build_network(
            NetworkConfig(
                bases=("ADD", "SIN", "MUL"), input_count=u, output_count=u,
                depth=int(rng.integers(1, 3)),
            )
        )
        for block in net.blocks():
            block += rng.normal(0, 0.5, block.shape)
        dag = sample(net, rng)
        X = rng.uniform(-3, 3, (64, u))
        outs = evaluate_recurrent(net, dag, X, 5)
        for d in range(4):
            redo = evaluate(net, dag, outs[d])
            same = (redo == outs[d + 1]) | (np.isnan(redo) & np.isnan(outs[d + 1]))
            ok = ok and bool(np.all(same))
    _report("criterion 7: recurrence composition", ok)


# ---------------------------------------------------------------------------
# benchmark reproduction (stochastic, seeded)


def _run_benchmark(config_name: str) -> dict:
    # trials are independent and seeded per trial, so two workers give
    # the rows that one gives
    report = run_experiment(CONFIG_DIR / f"{config_name}.ini", workers=2)
    errors = [r["error"] for r in report["trial_rows"] if r["verdict"] == "error"]
    assert not errors, f"{config_name}: trials raised: {errors}"
    return report


@pytest.mark.slow
def test_criterion_08_quadratic():
    report = _run_benchmark("poly_2x2_3x")
    eta = report["eta"]
    _report(
        "criterion 8: 2x^2 + 3x",
        eta >= 0.8,
        f"eta = {eta:.1f}, median epochs = {report['median_convergence_epochs']}",
    )


@pytest.mark.slow
def test_criterion_09_piecewise_square():
    report = _run_benchmark("piecewise_square_neg")
    eta = report["eta"]
    _report(
        "criterion 9: x^2 if x>0 else -x",
        eta >= 0.8,
        f"eta = {eta:.1f}, median epochs = {report['median_convergence_epochs']}",
    )


@pytest.mark.slow
def test_criterion_10_lfsr():
    report = _run_benchmark("lfsr4")
    eta = report["eta"]
    _report(
        "criterion 10: 4-bit LFSR",
        eta >= 0.8,
        f"eta = {eta:.1f}, median epochs = {report['median_convergence_epochs']}",
    )


@pytest.mark.slow
def test_criterion_11_recurrent_step():
    report = _run_benchmark("recurrent_step")
    rows = report["trial_rows"]
    good = [
        r for r in rows
        if r["verdict"] == "converged" and r["equivalent"] is True and r["depth"] == 2
    ]
    eta = len(good) / report["trials"]
    _report(
        "criterion 11: recurrent conditional step",
        eta >= 0.7,
        f"eta = {eta:.1f} with recurrence depth 2 identified",
    )


@pytest.mark.slow
def test_criterion_12_sine():
    report = _run_benchmark("sin_3x_plus_2")
    eta = report["eta"]
    _report(
        "criterion 12: sin(3x + 2)",
        eta >= 0.5,
        f"eta = {eta:.1f}, median epochs = {report['median_convergence_epochs']}",
    )


@pytest.mark.slow
def test_criterion_13_hyperbola_trap():
    report = _run_benchmark("hyperbola_implicit")
    trapped = [r for r in report["trial_rows"] if r["trapped"] is True]
    _report(
        "criterion 13: implicit hyperbola avoids the constant trap",
        len(trapped) == 0,
        f"eta = {report['eta']:.1f} (informational), trapped = {len(trapped)}/10",
    )


def _mnist_dir() -> Path | None:
    candidates = [
        Path(os.environ.get("SOFTDAG_MNIST_DIR", "")),
        Path(__file__).resolve().parent.parent / "data" / "mnist",
    ]
    for d in candidates:
        if d and (d / "train-images-idx3-ubyte").exists():
            return d
    return None


def test_criterion_14_mnist_binary():
    mnist = _mnist_dir()
    if mnist is None:
        pytest.skip(
            "MNIST IDX files not available; set SOFTDAG_MNIST_DIR and rerun"
            " (long-running, normally via `softdag bench --extended`)"
        )
    exp = parse_config(CONFIG_DIR / "mnist_binary.ini")
    from dataclasses import replace

    exp = replace(exp, idx_images=str(mnist / "train-images-idx3-ubyte"),
                  idx_labels=str(mnist / "train-labels-idx1-ubyte"))
    from softdag.cli import run_trial, _load_classification

    split_data = _load_classification(exp)
    accuracies = []
    for t in range(exp.trials):
        row = run_trial(exp, t, class_split=split_data)
        accuracies.append(row["accuracy"])
    median = statistics.median(accuracies)
    _report(
        "criterion 14: MNIST binary 0 vs 7",
        median >= 0.85,
        f"median test accuracy = {median:.3f} over {exp.trials} trials",
    )


def test_criterion_15_excluded_configurations():
    # Deep-feature experiments (large-scale image classification through
    # pretrained extractors and backprop-trained selection heads) are out of
    # scope by design: they need GPU pipelines and pretrained models.  No
    # substitute assertion exists beyond criterion 14.
    _report("criterion 15: out-of-scope experiments documented", True, "no assertion")
