import concurrent.futures
import configparser
import csv
import functools
import gc
import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from softdag import cli
from softdag.cli import build_parser, main, parse_config, run_experiment
from softdag.network import ConfigError

from conftest import cyclic_garbage

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_CONFIG = """
[network]
bases = SIN, ADD
constants =
depth = 1
temperature = 1.0
last_layer_temperature = 1.0

[training]
samples = 10
select = 2
variance = 0.1
learning_rate = 0.05
max_epochs = 400
patience = 30
batch_size = 128
seed = 5

[target]
kind = explicit
expression = sin(x0)
inputs = 1
ranges = -3..3

[experiment]
name = fast_sine
trials = 2
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast_sine.ini"
    path.write_text(FAST_CONFIG)
    return path


def test_parse_shipped_config():
    exp = parse_config(CONFIG_DIR / "poly_2x2_3x.ini")
    assert exp.name == "poly_2x2_3x"
    assert exp.network.bases == ("MUL", "MUL", "ADD", "ADD")
    assert exp.network.depth == 2
    assert exp.network.constants == ()
    assert exp.training.sample_count == 50
    assert exp.training.select_count == 5
    assert exp.training.variance == 0.01
    assert exp.trials == 10
    assert not exp.extended


def test_all_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.ini"))
    assert len(paths) >= 12
    for path in paths:
        exp = parse_config(path)
        assert exp.trials >= 1


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_CONFIG.replace("SIN, ADD", "SIN, NOPE"))
    with pytest.raises(ValueError, match="NOPE"):
        run_experiment(bad)
    missing = tmp_path / "missing.ini"
    with pytest.raises(ConfigError):
        parse_config(missing)
    no_expr = tmp_path / "no_expr.ini"
    no_expr.write_text(FAST_CONFIG.replace("expression = sin(x0)", ""))
    with pytest.raises(ConfigError):
        parse_config(no_expr)


def _assert_no_errors(report):
    errors = [r["error"] for r in report["trial_rows"] if r["verdict"] == "error"]
    assert not errors, f"trials raised: {errors}"


def test_run_experiment_report(fast_config, tmp_path):
    out = tmp_path / "out"
    report = run_experiment(fast_config, out_dir=out)
    _assert_no_errors(report)
    assert report["trials"] == 2
    assert report["eta"] == 1.0
    assert report["median_convergence_epochs"] is not None

    with open(out / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert rows[0]["verdict"] == "converged"
    assert rows[0]["equivalent"] == "True"
    assert "sin" in rows[0]["expression"]

    summary = json.loads((out / "summary.json").read_text())
    assert summary["eta"] == 1.0
    assert "generated_at" in summary
    env = summary["environment"]
    assert set(env) == {"python", "numpy", "scipy", "platform", "cpu_count"}
    assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
    assert all(isinstance(env[k], str) and env[k] for k in ("python", "numpy", "scipy", "platform"))
    assert env["cpu_count"] is None or env["cpu_count"] >= 1
    for key, value in summary.items():
        if key not in ("generated_at", "environment", "trials_detail", "name"):
            assert np.isfinite(value)

    # a run of no trials still writes both reports
    empty = tmp_path / "empty"
    run_experiment(fast_config, out_dir=empty, overrides={"trials": 0})
    assert (empty / "report.csv").read_text().splitlines() == [",".join(cli.REPORT_COLUMNS)]
    assert json.loads((empty / "summary.json").read_text())["trials_detail"] == []


def test_reports_reproduce_byte_identically(fast_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _assert_no_errors(run_experiment(fast_config, out_dir=out_a))
    run_experiment(fast_config, out_dir=out_b)
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("generated_at"), sb.pop("generated_at")
    assert sa == sb


def test_write_report_leaves_no_cyclic_garbage(fast_config, tmp_path):
    report = run_experiment(fast_config, out_dir=tmp_path)
    _assert_no_errors(report)
    exp, rows = parse_config(fast_config), report["trial_rows"]
    assert cyclic_garbage(lambda: cli._write_report(tmp_path, exp, rows)) == 0
    # the summary is one line
    assert (tmp_path / "summary.json").read_text().count("\n") == 1


def test_forced_non_convergence(fast_config):
    report = run_experiment(fast_config, overrides={"max_epochs": 1, "trials": 2})
    _assert_no_errors(report)
    assert report["eta"] == 0.0
    assert all(r["verdict"] == "max-epochs-exhausted" for r in report["trial_rows"])


def test_main_run_and_extract(fast_config, tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = main(["run", str(fast_config), "--trials", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "eta=" in printed
    weights = out / "trial_0_weights.txt"
    assert weights.exists()
    with open(out / "trial_0_log.csv", newline="") as f:
        log_rows = list(csv.reader(f))
    assert log_rows[0] == ["epoch", "best_fitness_0", "mean_selected_fitness", "expression"]
    assert len(log_rows) > 10

    assert main(["extract", str(weights)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("y0 = ")

    truncated = tmp_path / "broken.txt"
    truncated.write_text(weights.read_text().rsplit("\n", 3)[0])
    assert main(["extract", str(truncated)]) == 1


def test_extract_fresh_network_is_first_source(tmp_path, capsys):
    from softdag import NetworkConfig, build_network, save_network

    net = build_network(NetworkConfig(bases=("SIN",), input_count=2, depth=1))
    path = tmp_path / "fresh.txt"
    save_network(net, path)
    assert main(["extract", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "y0 = x0"


def test_extract_malformed_weights_exit_code(tmp_path, capsys):
    from softdag import NetworkConfig, build_network, save_network

    path = tmp_path / "fresh.txt"
    save_network(build_network(NetworkConfig(bases=("SIN",), input_count=2, depth=1)), path)
    lines = path.read_text().splitlines()
    bad_version = tmp_path / "bad_version.txt"
    bad_version.write_text("\n".join(["softdag-weights x"] + lines[1:]) + "\n")
    bad_row = tmp_path / "bad_row.txt"
    bad_row.write_text("\n".join(lines[:2] + ["1.0 oops"] + lines[3:]) + "\n")
    bad_basis = tmp_path / "bad_basis.txt"
    assert lines[1].count('"SIN"') == 1
    bad_basis.write_text("\n".join([lines[0], lines[1].replace('"SIN"', '"NOPE"')] + lines[2:]))
    not_utf8 = tmp_path / "not_utf8.txt"
    not_utf8.write_bytes(b"\xff" + path.read_bytes())
    for broken in (bad_version, bad_row, bad_basis, not_utf8, tmp_path):
        assert main(["extract", str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err and str(broken) in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_extract_non_finite_weight_exits_1(tmp_path, capsys, bad):
    from softdag import NetworkConfig, build_network, load_network, save_network
    from softdag.network import WeightsFormatError

    path = tmp_path / "fresh.txt"
    save_network(build_network(NetworkConfig(bases=("SIN",), input_count=2, depth=1)), path)
    lines = path.read_text().splitlines()
    # the first level-0 weight row
    lines[2] = " ".join([bad, *lines[2].split()[1:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(WeightsFormatError, match=r"fresh\.txt: row 1: non-finite"):
        load_network(path)
    assert main(["extract", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "row 1" in err


def test_main_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_CONFIG.replace("SIN, ADD", "SIN, NOPE"))
    assert main(["run", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_misspelt_boolean_is_rejected(tmp_path, capsys):
    # a typo must not build a network without skip connections in silence
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_CONFIG.replace("depth = 1", "depth = 1\nskip_connections = ture"))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "[network] skip_connections" in err
    for word in ("On", "FALSE", "0"):
        good = tmp_path / "good.ini"
        good.write_text(FAST_CONFIG.replace("depth = 1", f"depth = 1\nskip_connections = {word}"))
        assert parse_config(good).network.skip_connections is (word == "On")


@pytest.mark.parametrize("line", ["reference = x0 +"])
def test_bad_experiment_settings_are_rejected(tmp_path, line):
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_CONFIG.replace("trials = 2", f"trials = 2\n{line}"))
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert str(bad) in str(info.value)


@pytest.mark.parametrize("config, old, new, argv", [
    ("poly_2x2_3x", "constants =", "constants = 1, two", ["run"]),
    ("poly_2x2_3x", "ranges = -10..10", "ranges = -3..x", ["run"]),
    ("poly_2x2_3x", "ranges = -10..10", "ranges = {0, x}", ["run"]),
    ("poly_2x2_3x", "ranges = -10..10", "ranges = 5..1", ["run"]),
    ("poly_2x2_3x", "ranges = -10..10", "ranges = {}", ["run"]),
    ("poly_2x2_3x", "ranges = -10..10", "ranges = -10", ["run"]),
    ("poly_2x2_3x", "trials = 10", "trials = 0", ["run"]),
    ("lfsr4", "expression = x1 | x2 | x3 | xor(x0, x1)", "expression = x1 | x2 | x3 | xor(x0)", ["run"]),
    ("hyperbola_implicit", "reference_ranges = 0.5..2", "reference_ranges = 0.5..y", ["run"]),
    ("mnist_binary", "classes = 0, 7", "classes = 3, x", ["run"]),
    ("poly_2x2_3x", "", "", ["run", "--trials", "-1", "--max-epochs", "1"]),
    ("poly_2x2_3x", "", "", ["run", "--trials", "1", "--max-epochs", "1", "--parallel-trials", "0"]),
    ("poly_2x2_3x", "", "", ["gen-data", "--count", "0"]),
    ("poly_2x2_3x", "samples = 50", "samples = 0", ["run"]),
    ("poly_2x2_3x", "select = 5", "select = 60", ["run"]),
    ("poly_2x2_3x", "depth = 2", "depth = 0", ["run"]),
    ("poly_2x2_3x", "temperature = 1.0\nlast", "temperature = 0\nlast", ["run"]),
    ("poly_2x2_3x", "# benchmark: 2x^2 + 3x", "text before any section", ["run"]),
    ("poly_2x2_3x", "samples = 50", "samples = 50\nsamples = 60", ["run"]),
    ("poly_2x2_3x", "[target]", "[target]\n[target]", ["run"]),
    ("mnist_binary", "classes = 0, 7", "classes = 0, 7\nexpression = x0", ["run"]),
    ("lfsr4", "kind = explicit", "kind = explicit\nbuiltin = lfsr4", ["run"]),
    ("poly_2x2_3x", "", "", ["run", "--max-epochs", "0"]),
    # NaN passes a check written as ``x <= 0``, and nothing else checks for
    # an infinity
    ("poly_2x2_3x", "variance = 0.01", "variance = nan", ["run"]),
    ("poly_2x2_3x", "variance = 0.01", "variance = inf", ["run"]),
    ("poly_2x2_3x", "learning_rate = 0.05", "learning_rate = inf", ["run"]),
    ("poly_2x2_3x", "temperature = 1.0\nlast", "temperature = inf\nlast", ["run"]),
    ("poly_2x2_3x", "constants =", "constants = nan", ["run"]),
    ("mnist_binary", "test_fraction = 0.1", "test_fraction = 0", ["run"]),
    ("mnist_binary", "test_fraction = 0.1", "test_fraction = 1.5", ["run"]),
    ("poly_2x2_3x", "ranges = -10..10", "ranges = {nan, 1}", ["run"]),
    ("poly_2x2_3x", "ranges = -10..10", "ranges = -inf..5", ["run"]),
    ("hyperbola_implicit", "constant = 1.0", "constant = nan", ["run"]),
    ("hyperbola_implicit", "constant = 1.0", "constant = inf", ["run"]),
    ("mnist_binary", "test_fraction = 0.1", "test_fraction = nan", ["run"]),
    # an implicit input that the ranges do not give
    ("hyperbola_implicit", "derived = 1 / x0", "derived = 1 / x1",
     ["run", "--trials", "1", "--max-epochs", "1"]),
    ("hyperbola_implicit", "reference_ranges = 0.5..2; 0.5..2", "reference_ranges = 0.5..2",
     ["run", "--trials", "1", "--max-epochs", "1"]),
])
def test_bad_input_exits_1_and_names_the_file(tmp_path, capsys, config, old, new, argv):
    path = tmp_path / f"{config}.ini"
    text = (CONFIG_DIR / f"{config}.ini").read_text()
    assert text.count(old) == 1 or not old
    path.write_text(text.replace(old, new) if old else text)
    out = tmp_path / "out"
    assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "poly_2x2_3x.ini"
    path.write_bytes((CONFIG_DIR / "poly_2x2_3x.ini").read_bytes().replace(b"2x^2", b"2x\xff2"))
    out = tmp_path / "out"
    for argv in (["run", str(path)], ["bench", str(tmp_path)]):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key", ["rank_reweight", "rank_reweight_increasing", "depth_scales_logprob"]
)
def test_removed_training_keys_are_rejected(tmp_path, capsys, key):
    # a config written for the removed options must not train differently
    # in silence
    old = tmp_path / "old.ini"
    old.write_text(FAST_CONFIG.replace("seed = 5", f"seed = 5\n{key} = false"))
    with pytest.raises(ConfigError, match=key):
        parse_config(old)
    assert main(["run", str(old), "--out", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, old, new, named", [
    ("poly_2x2_3x", "samples = 50", "sampels = 7", ["[training] sampels"]),
    ("poly_2x2_3x", "trials = 10", "trails = 3", ["[experiment] trails"]),
    ("poly_2x2_3x", "[experiment]", "[trainng]\nlearning_rate = 5\n[experiment]",
     ["[trainng] learning_rate"]),
    ("poly_2x2_3x", "inputs = 1", "inputs = 1\nderived = x0", ["[target] derived"]),
    ("mnist_binary", "pixels = 784", "pixels = 784\nranges = 0..1", ["[target] ranges"]),
    ("poly_2x2_3x", "inputs = 1", "inputs = 1\ntarget_depth = 2", ["[target] target_depth"]),
    ("lfsr4", "kind = explicit", "kind = explicit\nbuiltin = lfsr4", ["[target] builtin"]),
    ("poly_2x2_3x", "expression = 2 * x0^2 + 3 * x0\n", "", ["missing [target] expression"]),
    # the expressions, the classes or the pixels give the counts
    ("poly_2x2_3x", "inputs = 1", "inputs = 1\noutputs = 1", ["[target] outputs"]),
    ("lfsr4", "inputs = 4", "inputs = 4\noutputs = 4", ["[target] outputs"]),
    ("mnist_binary", "classes = 0, 7", "classes = 0, 7\noutputs = 2", ["[target] outputs"]),
    ("mnist_binary", "classes = 0, 7", "classes = 0, 7\ninputs = 784", ["[target] inputs"]),
    # removed keys: every check is numeric at EQ_TOLERANCE, and a recurrent
    # target composes itself recurrence_depth times
    ("lfsr4", "name = lfsr4", "name = lfsr4\nequivalence = exact", ["[experiment] equivalence"]),
    ("poly_2x2_3x", "name = poly_2x2_3x", "name = poly_2x2_3x\ntolerance = 1e-6", ["[experiment] tolerance"]),
    ("recurrent_step", "inputs = 1", "inputs = 1\ntarget_depth = 2", ["[target] target_depth"]),
    ("poly_2x2_3x", "patience = 30", "patience = 30\nrecurrence_depth = 2", ["[training] recurrence_depth"]),
    ("hyperbola_implicit", "reference_ranges = 0.5..2; 0.5..2\n", "",
     ["missing [experiment] reference_ranges"]),
    # the values the removed tolerance check used to refuse are refused as
    # an unknown key too
    ("poly_2x2_3x", "trials = 10", "tolerance = nan\ntrials = 10", ["[experiment] tolerance"]),
    ("poly_2x2_3x", "[experiment]", "[experiment]\ntolerance = -1", ["[experiment] tolerance"]),
])
def test_unknown_and_unread_keys_exit_1_and_name_the_key(tmp_path, capsys, config, old, new, named):
    # a typo, a key the target kind never reads, or a required key left
    # out must not run the defaults in silence
    path = tmp_path / f"{config}.ini"
    text = (CONFIG_DIR / f"{config}.ini").read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main(["run", str(path), "--trials", "1", "--max-epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert all(name in err for name in named), err
    assert not out.exists()


def test_readme_names_every_config_key():
    # the README's INI block and its list of other keys, against the table
    # parse_config reads
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    section = readme.split("## Benchmark configs")[1].split("\n## ")[0]
    block = section.split("```ini\n")[1].split("```")[0]
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.read_string(block)
    in_block = {(s, k) for s in cp.sections() for k in cp[s]}
    in_list = set(re.findall(r"`\[(\w+)\] (\w+)`", section))
    assert in_block | in_list == set(cli.SCHEMA)


PROGRAM_CONFIGS = [p.stem for p in sorted(CONFIG_DIR.glob("*.ini")) if "\nexpression = " in p.read_text()]


@pytest.mark.parametrize("config", PROGRAM_CONFIGS)
def test_program_check_accepts_the_targets_own_trees(config):
    # the verdict of a trial that reports the target itself, and of one
    # that reports it with one constant off (or one added, if it has none)
    path = CONFIG_DIR / f"{config}.ini"
    exp = parse_config(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path)
    raw = cp["target"]["expression"]
    depth = exp.training.recurrence_depth
    assert depth == (1 if exp.target.kind == "explicit" else exp.target.target_depth)
    assert cli._check_program(exp, cli._parse_targets(raw)) == (True, depth)
    off, n = re.subn(r"(?<![\w.^])\d+(\.\d+)?", lambda m: str(float(m.group()) + 0.5), raw, count=1)
    off = off if n else f"0.5 + {raw}"
    assert cli._check_program(exp, cli._parse_targets(off)) == (False, None), off


def test_parallel_trials_option(capsys):
    parser = build_parser()
    assert parser.parse_args(["run", "x.ini", "--parallel-trials", "2"]).parallel_trials == 2
    assert parser.parse_args(["bench", "configs"]).parallel_trials is None
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "x.ini", "--threads", "2"])
    assert "--threads" in capsys.readouterr().err


def test_gen_data(fast_config, tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["gen-data", str(fast_config), "--count", "50", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["x0", "y0"]
    assert len(rows) == 51
    x, y = (float(v) for v in rows[1])
    assert y == pytest.approx(np.sin(x), abs=1e-12)
    again = tmp_path / "data2.csv"
    assert main(["gen-data", str(fast_config), "--count", "50", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_a_percent_sign_in_a_value_is_read_as_written(tmp_path):
    # values are not interpolated: a lone % is one more character
    path = tmp_path / "poly.ini"
    text = (CONFIG_DIR / "poly_2x2_3x.ini").read_text()
    assert text.count("name = poly_2x2_3x") == 1
    path.write_text(text.replace("name = poly_2x2_3x", "name = poly 100%"))
    assert parse_config(path).name == "poly 100%"
    out = tmp_path / "data.csv"
    assert main(["gen-data", str(path), "--count", "5", "--out", str(out)]) == 0
    assert out.exists()


def test_bench_directory(fast_config, tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "fast_sine.ini").write_text(FAST_CONFIG)
    extended = FAST_CONFIG.replace("name = fast_sine", "name = slow_one")
    extended = extended.replace("[experiment]", "[experiment]\nextended = true")
    (cfg_dir / "slow_one.ini").write_text(extended)
    out = tmp_path / "bench_out"
    assert main(["bench", str(cfg_dir), "--trials", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "skipping slow_one" in printed
    assert "fast_sine" in printed
    with open(out / "benchmarks.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "name"
    assert [r[0] for r in rows[1:]] == ["fast_sine"]

    # a bad config sorted last fails the bench before any trial runs
    (cfg_dir / "zz_bad.ini").write_text(FAST_CONFIG.replace("SIN, ADD", "SIN, NOPE"))
    again = tmp_path / "bench_again"
    assert main(["bench", str(cfg_dir), "--trials", "1", "--out", str(again)]) == 1
    assert "NOPE" in capsys.readouterr().err
    assert not again.exists()


def test_bench_announces_the_trials_it_runs(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "fast_sine.ini").write_text(FAST_CONFIG)
    assert main(["bench", str(cfg_dir), "--trials", "1", "--max-epochs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "running fast_sine (1 trials)"
    assert [line.split(":")[0] for line in lines if line.startswith("  trial")] == ["  trial 0"]


def test_a_run_leaves_little_for_the_cycle_collector(fast_config, tmp_path, monkeypatch):
    # a benchmark's clocked logger sits in a reference cycle, so only the
    # cycle collector frees it; a closed logger must hold almost nothing by
    # then (its csv writer's record buffer alone is 128 KiB), and no trial
    # may leave a parsed config behind
    class Cycled(cli.CsvTrainLogger):
        def __init__(self, path, network):
            super().__init__(path, network)
            self.me = self

    monkeypatch.setattr(cli, "CsvTrainLogger", Cycled)
    trials = 3
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        report = run_experiment(fast_config, out_dir=tmp_path / "out", write_logs=True,
                                overrides={"trials": trials})
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    _assert_no_errors(report)
    assert freed < trials * 64 * 1024, freed


def _serial_and_parallel(config, out_root):
    """Run ``config`` with 1 and 2 workers; the rows, echoed lines (which
    a pool echoes as its trials finish) and every output file must match
    byte for byte.  Returns the serial report and the names of its output
    files."""
    runs = []
    for workers in (1, 2):
        out, lines = out_root / f"workers_{workers}", []
        report = run_experiment(
            config, out_dir=out, workers=workers, write_logs=True, echo=lines.append
        )
        runs.append((report, lines, out))
    (serial, serial_lines, a), (parallel, parallel_lines, b) = runs
    assert serial["trial_rows"] == parallel["trial_rows"]
    assert len(serial_lines) == 2 and serial_lines == sorted(parallel_lines)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        if name != "summary.json":  # it carries the time it was written
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return serial, set(files)


def test_parallel_trials_match_serial(fast_config, tmp_path):
    report, files = _serial_and_parallel(fast_config, tmp_path / "sine")
    _assert_no_errors(report)
    for trial in (0, 1):
        assert {f"trial_{trial}_weights.txt", f"trial_{trial}_log.csv"} <= files

    # every worker gets the classification split the parent loaded
    report, _ = _serial_and_parallel(_classify_config(tmp_path), tmp_path / "classify")
    _assert_no_errors(report)
    assert all(r["accuracy"] != "" for r in report["trial_rows"])


# The pool's workers see the patched ``cli.run_trial`` only when they are
# forked from this process; other start methods import a fresh module.
@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="pool workers are not forked")
def test_raising_trial_is_an_error_row(fast_config, tmp_path, monkeypatch, capsys):
    run_trial = cli.run_trial

    def failing(exp, trial, **kwargs):
        if trial == 1:
            raise RuntimeError("injected failure")
        return run_trial(exp, trial, **kwargs)

    monkeypatch.setattr(cli, "run_trial", failing)
    report, files = _serial_and_parallel(fast_config, tmp_path / "raising")
    ok, bad = report["trial_rows"]
    assert ok["verdict"] == "converged" and ok["error"] == ""
    assert bad["verdict"] == "error" and bad["error"] == "RuntimeError: injected failure"
    assert bad["epochs"] == bad["expression"] == ""
    assert report["eta"] == 0.5 and report["median_convergence_epochs"] == ok["epochs"]
    assert {"trial_0_weights.txt", "trial_0_log.csv"} <= files
    assert not any(name.startswith("trial_1") for name in files)
    for workers in ("1", "2"):
        out = tmp_path / f"main_{workers}"
        assert main(["run", str(fast_config), "--out", str(out), "--parallel-trials", workers]) == 2
        with open(out / "report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["verdict"] for r in rows] == ["converged", "error"]
        assert rows[1]["error"] == "RuntimeError: injected failure"
        summary = json.loads((out / "summary.json").read_text())
        assert [r["verdict"] for r in summary["trials_detail"]] == ["converged", "error"]
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "fast_sine.ini").write_text(FAST_CONFIG)
    assert main(["bench", str(cfg_dir), "--out", str(tmp_path / "bench")]) == 2
    assert (tmp_path / "bench" / "benchmarks.csv").exists()
    assert "trial 1: error: RuntimeError: injected failure" in capsys.readouterr().out


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="pool workers are not forked")
def test_pooled_trials_are_echoed_as_they_finish(fast_config, tmp_path, monkeypatch):
    # trial 0 waits until the parent has echoed trial 1, or 10 s if it is
    # never echoed before trial 0's own row
    echoed = tmp_path / "echoed"
    run_trial = cli.run_trial

    def slow_first(exp, trial, **kwargs):
        deadline = time.monotonic() + 10.0
        while trial == 0 and not echoed.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return run_trial(exp, trial, **kwargs)

    lines = []

    def echo(line):
        lines.append(line)
        echoed.touch()

    monkeypatch.setattr(cli, "run_trial", slow_first)
    out = tmp_path / "out"
    report = run_experiment(fast_config, out_dir=out, workers=2, echo=echo)
    assert [line.split(":")[0] for line in lines] == ["  trial 1", "  trial 0"]
    assert [r["trial"] for r in report["trial_rows"]] == [0, 1]
    with open(out / "report.csv", newline="") as f:
        assert [r["trial"] for r in csv.DictReader(f)] == ["0", "1"]
    summary = json.loads((out / "summary.json").read_text())
    assert [r["trial"] for r in summary["trials_detail"]] == [0, 1]


def test_dead_worker_leaves_error_rows(fast_config, tmp_path, monkeypatch, capsys):
    # a worker that dies breaks the pool: every trial without a row becomes
    # an error row naming the cause, the reports are still written, and
    # bench goes on to its next config
    run_trial = cli.run_trial

    def dying(exp, trial, **kwargs):
        if trial == 1:
            os._exit(3)
        return run_trial(exp, trial, **kwargs)

    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(cli, "run_trial", dying)
    # the pool is imported from concurrent.futures when a run starts one
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork),
    )
    argv = ["--trials", "4", "--parallel-trials", "2", "--max-epochs", "20"]

    def check(out):
        with open(out / "report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["trial"] for r in rows] == ["0", "1", "2", "3"]
        assert rows[1]["verdict"] == "error"
        for row in rows:
            assert (row["verdict"] == "error") == row["error"].startswith("BrokenProcessPool: ")
        summary = json.loads((out / "summary.json").read_text())
        assert [r["verdict"] for r in summary["trials_detail"]] == [r["verdict"] for r in rows]

    assert main(["run", str(fast_config), "--out", str(tmp_path / "run"), *argv]) == 2
    check(tmp_path / "run")
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name in ("a_sine", "b_sine"):
        (cfg_dir / f"{name}.ini").write_text(FAST_CONFIG.replace("fast_sine", name))
    assert main(["bench", str(cfg_dir), "--out", str(tmp_path / "bench"), *argv]) == 2
    for name in ("a_sine", "b_sine"):
        check(tmp_path / "bench" / name)
    with open(tmp_path / "bench" / "benchmarks.csv", newline="") as f:
        assert [r["name"] for r in csv.DictReader(f)] == ["a_sine", "b_sine"]
    assert "trial 1: error: BrokenProcessPool: " in capsys.readouterr().out


CLASSIFY_CONFIG = """
[network]
bases = SIGMOID10, TANH10, ADD, MIN, MAX
constants = -1, 0, 1
depth = 1
temperature = 1.0
last_layer_temperature = 2.0

[training]
samples = 30
select = 5
variance = 0.05
learning_rate = 0.05
max_epochs = 150
patience = 20
batch_size = 100
seed = 1

[target]
kind = classification
images = {images}
labels = {labels}
classes = 0, 7
test_fraction = 0.1
pixels = 16

[experiment]
name = tiny_classify
trials = 2
"""


def _classify_config(tmp_path, label_count=120):
    """The tiny classification config over a generated IDX pair of 120
    images; ``label_count`` below that makes the labels file short."""
    import struct

    rng = np.random.default_rng(0)
    n = 120
    labels = np.where(np.arange(n) % 2 == 0, 0, 7).astype(np.uint8)
    images = rng.integers(0, 40, size=(n, 4, 4), dtype=np.uint8)
    images[labels == 0, 0, 2] = 255  # pixel 2 marks class 0
    images[labels == 0, 2, 1] = 0
    images[labels == 7, 0, 2] = 0
    images[labels == 7, 2, 1] = 255  # pixel 9 marks class 7
    img_path = tmp_path / "images-idx3-ubyte"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, 4, 4))
        f.write(images.tobytes())
    lab_path = tmp_path / "labels-idx1-ubyte"
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, label_count))
        f.write(labels[:label_count].tobytes())

    cfg = tmp_path / "classify.ini"
    cfg.write_text(CLASSIFY_CONFIG.format(images=img_path, labels=lab_path))
    return cfg


def test_classification_experiment_end_to_end(tmp_path):
    report = run_experiment(_classify_config(tmp_path))
    _assert_no_errors(report)
    assert "median_accuracy" in report
    assert report["median_accuracy"] >= 0.9
    assert all(r["accuracy"] != "" for r in report["trial_rows"])


def test_main_mismatched_idx_pair_exit_code(tmp_path, capsys):
    cfg = _classify_config(tmp_path, label_count=119)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "120 images vs 119 labels" in err and "Traceback" not in err
    assert not (out / "report.csv").exists()


def test_listed_class_with_no_rows_exits_1(tmp_path, capsys):
    # the labels are 0 and 7: class 9's target column would be all zeros
    cfg = _classify_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("classes = 0, 7", "classes = 0, 9"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "no rows of class 9" in err and "labels-idx1-ubyte" in err and "Traceback" not in err
    assert not (out / "report.csv").exists()


def test_an_empty_test_split_exits_1_before_any_trial(tmp_path, capsys, monkeypatch):
    # 120 rows at test_fraction = 0.005 leave floor(0.6) = 0 test rows, and
    # an accuracy over no rows would be NaN
    cfg = _classify_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("test_fraction = 0.1", "test_fraction = 0.005"))

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[target] test_fraction = 0.005" in err and "120 rows" in err
    assert "images-idx3-ubyte" in err and "Traceback" not in err
    assert not (out / "report.csv").exists()


def test_a_repeated_class_exits_1(tmp_path, capsys):
    # a repeated class would train two outputs on one class's column
    cfg = _classify_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("classes = 0, 7", "classes = 0, 7, 7"))
    with pytest.raises(ConfigError, match="class 7 is listed more than once"):
        parse_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and "class 7" in err and "Traceback" not in err
    assert not (out / "report.csv").exists()


def test_pixels_that_differ_from_the_images_exit_1_before_any_trial(tmp_path, capsys, monkeypatch):
    cfg = _classify_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("pixels = 16", "pixels = 784"))
    with pytest.raises(ConfigError, match="pixels = 784.* 16 pixels"):
        cli._load_classification(parse_config(cfg))

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "pixels = 784" in err and "images-idx3-ubyte" in err and "Traceback" not in err
    assert not (out / "report.csv").exists()


_NO_SCIPY_RUN = textwrap.dedent("""
    import sys

    import numpy as np

    import softdag
    from softdag import cli

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    exp = cli.parse_config(sys.argv[1])
    # difflib is only for naming the key nearest a misspelled one
    assert "difflib" not in sys.modules
    softdag.build_network(exp.network)
    assert not scipy_modules(), scipy_modules()
    # setting up a run loads no numpy.random either: it loads on first draw
    random = sorted(m for m in sys.modules if m.startswith("numpy.random"))
    assert not random, random
    # one trial in this process, as `softdag run` runs it with one worker
    report = cli.run_experiment(sys.argv[1], overrides={"trials": 1, "max_epochs": 3})
    row = report["trial_rows"][0]
    assert row["equivalent"] in (True, False), row
    assert not {"scipy.stats", "scipy.special"} & set(sys.modules), scipy_modules()
    # a depth-4 self-composition whose later depths compute again values
    # that a sweep freed (this graph does)
    net = softdag.build_network(cli.parse_config(sys.argv[2]).network)
    dag = softdag.sample(net, np.random.default_rng(10))
    softdag.evaluate_recurrent(net, dag, np.linspace(-8.0, 8.0, 64)[:, None], 4)
    # np.unique imports numpy.ma; a pool imports multiprocessing
    loaded = {"numpy.ma", "multiprocessing", "concurrent.futures"} & set(sys.modules)
    assert not loaded, loaded
""")


def test_a_trial_and_its_check_load_no_scipy_submodule():
    # a fresh interpreter: the test session itself has imported scipy.
    # lfsr4 has several outputs, poly_2x2_3x one.
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    recurrent = str(CONFIG_DIR / "recurrent_halfsquare.ini")
    for config in ("poly_2x2_3x.ini", "lfsr4.ini"):
        done = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_RUN, str(CONFIG_DIR / config), recurrent],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, (config, done.stderr)
