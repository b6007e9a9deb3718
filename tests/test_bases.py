import math

import numpy as np
import pytest

from softdag import DIV_GUARD, ArityError, builtin_registry, eval_basis, parse, to_string
from softdag.expression import Apply, Input

from conftest import same_bits

REG = builtin_registry()

REQUIRED_ARITIES = {
    "ADD": 2, "SUB": 2, "MUL": 2, "DIV": 2, "SIN": 1, "SQUARE": 1, "NEG": 1,
    "ID": 1, "IF_LEQ": 4, "MIN": 2, "MAX": 2, "XOR": 2, "SIGMOID": 1,
    "TANH": 1, "SIGMOID10": 1, "TANH10": 1, "ADD4": 4, "ADD9": 9,
    "MIN4": 4, "MAX4": 4, "MIN9": 9, "MAX9": 9,
}


def test_registry_contents():
    for name, arity in REQUIRED_ARITIES.items():
        assert name in REG, name
        assert REG[name].arity == arity


def test_eval_examples():
    assert eval_basis(REG["ADD"], (2, 3)) == 5
    assert eval_basis(REG["SIN"], (0,)) == 0
    assert math.isnan(eval_basis(REG["DIV"], (1, 0)))
    assert eval_basis(REG["IF_LEQ"], (1, 2, 10, 20)) == 10
    assert eval_basis(REG["TANH10"], (0.2,)) == pytest.approx(0.9640275800758169, abs=1e-12)


def test_if_leq_truth_table_oracle(rng):
    # reference semantics: c when a <= b, else d
    basis = REG["IF_LEQ"]
    for _ in range(500):
        a, b, c, d = rng.uniform(-10, 10, 4)
        want = c if a <= b else d
        assert eval_basis(basis, (a, b, c, d)) == want
    assert eval_basis(basis, (3, 3, 1, 2)) == 1  # ties take the first branch


def test_xor_truth_table():
    basis = REG["XOR"]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    for (a, b), want in table.items():
        assert eval_basis(basis, (float(a), float(b))) == float(want)


def test_div_guard():
    div = REG["DIV"]
    assert math.isnan(eval_basis(div, (1.0, 0.0)))
    assert math.isnan(eval_basis(div, (1.0, 1e-13)))
    assert eval_basis(div, (1.0, 2.0)) == 0.5


def test_if_leq_nan_is_strict():
    basis = REG["IF_LEQ"]
    assert math.isnan(eval_basis(basis, (0.0, 1.0, 5.0, float("nan"))))
    assert math.isnan(eval_basis(basis, (float("nan"), 1.0, 5.0, 6.0)))


def test_arity_mismatch_raises():
    with pytest.raises(ArityError):
        eval_basis(REG["ADD"], (1.0,))
    with pytest.raises(ArityError):
        eval_basis(REG["SIN"], (1.0, 2.0))


def test_fuzz_never_raises(rng):
    # finite-or-sentinel over wide random inputs, scalar and vectorized
    per_basis = 100_000 // len(REG)
    for basis in REG.values():
        args = [
            rng.uniform(-1e6, 1e6, per_basis) * rng.choice([1e-12, 1.0, 1e12], per_basis)
            for _ in range(basis.arity)
        ]
        with np.errstate(all="ignore"):
            out = np.asarray(basis.fn(*args), dtype=np.float64)
        assert out.shape == (per_basis,)
        for _ in range(20):
            scalars = tuple(rng.uniform(-1e9, 1e9) for _ in range(basis.arity))
            eval_basis(basis, scalars)  # must not raise


def test_render_parse_round_trip():
    for basis in REG.values():
        expr = Apply(basis, tuple(Input(i) for i in range(basis.arity)))
        assert parse(to_string(expr)) == expr


def test_render_nested_square():
    sq = REG["SQUARE"]
    nested = Apply(sq, (Apply(sq, (Input(0),)),))
    s = to_string(nested)
    assert parse(s) == nested


def test_basis_equality_by_name_and_arity():
    assert REG["ADD"] == builtin_registry()["ADD"]
    assert REG["ADD"] != REG["SUB"]
    assert hash(REG["MUL"]) == hash(builtin_registry()["MUL"])


_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    np.uint64(0x7FF8_0000_0000_0123).view(np.float64),  # NaNs with payloads
    np.uint64(0xFFF0_0000_0000_0001).view(np.float64),
    DIV_GUARD, -DIV_GUARD, np.nextafter(DIV_GUARD, 0.0), -np.nextafter(DIV_GUARD, 0.0),
    5e-324, 1e-300, 1e300, -1e300, 1.0, -1.0, 2.0, 0.5, 710.0, -746.0, 40.0,
])


@pytest.mark.parametrize("rows, n", [(1, 1), (3, 7), (2, 35), (8, 1000), (5, 1003)])
@pytest.mark.parametrize("edge_share", [0.3, 0.9])
def test_bases_on_blocks_equal_row_calls(rows, n, edge_share):
    """A block of stacked rows gives every row the bits of a call on that
    row alone, whether the row is contiguous or a strided batch column.

    The exception is the payload of a NaN result.  Where an addition or a
    multiplication meets two NaNs (ADD, MUL and the sums built from them),
    numpy's loops take the result's payload from either operand, depending
    on where the lane falls in the vector loop.  The lane is NaN either
    way, and fitness scores every NaN alike, so no score depends on it.
    """
    rng = np.random.default_rng(rows * 7919 + n)
    for basis in REG.values():
        args = []
        for _ in range(basis.arity):
            block = rng.normal(0.0, 3.0, size=(rows, n))
            spots = rng.random(block.shape) < edge_share
            block[spots] = rng.choice(_EDGES, size=int(spots.sum()))
            args.append(block)
        with np.errstate(all="ignore"):
            got = basis.fn(*args)
            for r in range(rows):
                row = [a[r].copy() for a in args]
                column = [np.asfortranarray(a)[r] for a in args]
                for want in (basis.fn(*row), basis.fn(*column)):
                    nan = np.isnan(want)
                    assert np.array_equal(np.isnan(got[r]), nan), basis.name
                    assert same_bits(got[r][~nan], want[~nan]), basis.name


def test_sigmoids_equal_scipys_expit():
    from scipy.special import expit

    x = np.concatenate([
        [np.inf, -np.inf, np.nan, 0.0, -0.0, 745.0, -745.0],
        np.random.default_rng(11).normal(0.0, 30.0, size=500),
    ])
    for name, want in (("SIGMOID", expit(x)), ("SIGMOID10", expit(10.0 * x))):
        basis = REG[name]
        assert same_bits(basis.fn(x), want), name
        assert same_bits([eval_basis(basis, (v,)) for v in x], want), name


def _guarded_div(a, b):
    """DIV with its guard applied to every lane."""
    den = np.where(np.abs(b) < DIV_GUARD, np.nan, b)
    return np.divide(a, den)


def _masked_if_leq(a, b, c, d):
    """IF_LEQ with every lane masked by its arguments' NaNs."""
    out = np.asarray(np.where(np.less_equal(a, b), c, d), dtype=np.float64)
    low = np.minimum(a, b, out=np.empty_like(out))
    np.minimum(low, c, out=low)
    np.minimum(low, d, out=low)
    np.putmask(out, np.isnan(low), np.nan)
    return out


_MASKED = {"DIV": _guarded_div, "IF_LEQ": _masked_if_leq}


def _same_call(name, args):
    with np.errstate(all="ignore"):
        got, want = REG[name].fn(*args), _MASKED[name](*args)
    assert type(got) is type(want), name
    assert same_bits(got, want), name


@pytest.mark.parametrize("name", sorted(_MASKED))
@pytest.mark.parametrize("edge_share", [0.0, 0.01, 0.3, 0.9])
def test_masking_bases_equal_their_guarded_forms(name, edge_share):
    # the fast paths skip the guard and the mask only when no lane needs
    # them; blocks with few, some or many edge values, clean blocks, their
    # strided columns, scalars, empty arrays and broadcast arguments
    rng = np.random.default_rng(int(edge_share * 100) + len(name))
    arity = REG[name].arity
    for rows, n in [(1, 1), (3, 7), (8, 1000), (5, 1003)]:
        args = []
        for _ in range(arity):
            block = rng.normal(0.0, 3.0, size=(rows, n))
            spots = rng.random(block.shape) < edge_share
            block[spots] = rng.choice(_EDGES, size=int(spots.sum()))
            args.append(block)
        _same_call(name, args)
        _same_call(name, [np.asfortranarray(a)[:, 0] for a in args])
        _same_call(name, [a[0] for a in args])
    for _ in range(300):
        _same_call(name, [np.float64(x) for x in rng.choice(_EDGES, size=arity)])
        _same_call(name, [float(x) for x in rng.normal(0.0, 1.0, size=arity)])
    _same_call(name, [np.empty((0, 4))] * arity)
    _same_call(name, [np.full(5, 2.0), *[np.float64(x) for x in rng.choice(_EDGES, arity - 1)]])
    _same_call(name, [np.full((3, 5), 1e300), np.full((3, 5), -1e300)] * (arity // 2))
