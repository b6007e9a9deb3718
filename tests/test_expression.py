import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softdag import (
    Apply,
    Choices,
    Const,
    Input,
    Interval,
    builtin_registry,
    dag_to_expression,
    evaluate_tree,
    evaluate_tree_batch,
    input_indices,
    numeric_equivalent,
    parse,
    sample_domain,
    simplify,
    to_string,
)
from softdag.expression import ParseError, compile_trees

from conftest import cyclic_garbage, fig1_network, fig1b_dag, same_bits

REG = builtin_registry()


def _apply(name, *children):
    return Apply(REG[name], tuple(children))


def test_fig1b_expressions():
    net = fig1_network()
    dag = fig1b_dag(net)
    e0 = dag_to_expression(net, dag, 0)
    assert e0 == _apply("SQUARE", _apply("SIN", _apply("ADD", Input(0), Const(1.0))))
    assert to_string(e0) == "sin((x0 + 1))^2"
    e1 = dag_to_expression(net, dag, 1)
    want = _apply(
        "SIN",
        _apply("MUL", _apply("SQUARE", Const(math.pi)), _apply("SIN", Input(1))),
    )
    assert e1 == want


def test_output_pointing_at_input_is_leaf():
    net = fig1_network()
    dag = fig1b_dag(net)
    dag.output_choices[0] = 0
    assert dag_to_expression(net, dag, 0) == Input(0)


def test_parse_examples():
    e = parse("2 * x0^2 + 3 * x0")
    want = _apply(
        "ADD",
        _apply("MUL", Const(2.0), _apply("SQUARE", Input(0))),
        _apply("MUL", Const(3.0), Input(0)),
    )
    assert e == want
    assert parse("if_leq(x0, 0, neg(x0), x0^2)").basis.name == "IF_LEQ"
    assert parse("-3") == Const(-3.0)
    assert parse("-x0") == _apply("NEG", Input(0))
    assert parse("(-1)^2") == _apply("SQUARE", Const(-1.0))


def test_parse_errors():
    for bad in ("foo(1)", "x0 +", "sin(x0", "min(x0)", "y1", "1 ? 2"):
        with pytest.raises(ParseError):
            parse(bad)


def _random_expr(rng, n_inputs, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Input(int(rng.integers(0, n_inputs)))
        return Const(float(np.round(rng.uniform(-5, 5), 3)))
    basis = REG[str(rng.choice(list(REG)))]
    return Apply(
        basis, tuple(_random_expr(rng, n_inputs, depth - 1) for _ in range(basis.arity))
    )


def test_round_trip_random_trees(rng):
    for _ in range(200):
        expr = _random_expr(rng, 3, int(rng.integers(1, 4)))
        assert parse(to_string(expr)) == expr


def _apply_of(children):
    """An ``Apply`` of any registry basis over trees drawn from ``children``."""
    return st.sampled_from(sorted(REG)).flatmap(
        lambda name: st.tuples(*[children] * REG[name].arity).map(lambda kids: Apply(REG[name], kids))
    )


# every finite double, negative, zero and subnormal ones included
_leaves = st.one_of(
    st.builds(Input, st.integers(0, 12)),
    st.builds(Const, st.floats(allow_nan=False, allow_infinity=False)),
)
_trees = st.recursive(_leaves, _apply_of, max_leaves=12)


@pytest.mark.parametrize("name", sorted(REG))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_property(name, data):
    # each basis at the root once per parameter, any basis below it
    kids = tuple(data.draw(_trees) for _ in range(REG[name].arity))
    expr = Apply(REG[name], kids)
    assert parse(to_string(expr)) == expr


def _matches_scalar_oracle(batch, expr, X) -> bool:
    """Whether ``batch`` holds ``evaluate_tree``'s value of ``expr`` on
    every row of ``X``: NaN where it is NaN, else within 1e-12."""
    for k in range(len(X)):
        scalar = evaluate_tree(expr, X[k])
        if math.isnan(scalar) != math.isnan(batch[k]):
            return False
        if not math.isnan(scalar) and scalar != pytest.approx(batch[k], rel=1e-12, abs=1e-12):
            return False
    return True


def test_tree_eval_matches_batch_eval(rng):
    for _ in range(50):
        expr = _random_expr(rng, 2, 3)
        X = rng.uniform(-3, 3, (20, 2))
        assert _matches_scalar_oracle(evaluate_tree_batch(expr, X), expr, X)


def test_simplify_rules():
    x = Input(0)
    assert simplify(_apply("ADD", _apply("MUL", x, Const(1.0)), Const(0.0))) == x
    assert simplify(_apply("MUL", Const(2.0), _apply("SQUARE", Const(2.0)))) == Const(8.0)
    untouched = _apply("SIN", _apply("ADD", x, Const(1.0)))
    assert simplify(untouched) == untouched
    assert simplify(_apply("NEG", _apply("NEG", x))) == x
    assert simplify(_apply("ID", _apply("ID", x))) == x
    # non-finite folds are left alone
    division = _apply("DIV", Const(1.0), Const(0.0))
    assert isinstance(simplify(division), Apply)


def test_simplify_preserves_values(rng):
    box = (Interval(-5.0, 5.0), Interval(-5.0, 5.0))
    for _ in range(50):
        expr = _random_expr(rng, 2, 3)
        assert numeric_equivalent(expr, simplify(expr), box, tol=1e-9, n=256)


def test_numeric_equivalent_examples():
    box = (Interval(-10.0, 10.0),)
    assert numeric_equivalent(
        _apply("ADD", Input(0), Const(1.0)), _apply("ADD", Const(1.0), Input(0)), box
    )
    assert numeric_equivalent(
        _apply("SQUARE", Input(0)), _apply("MUL", Input(0), Input(0)), box
    )
    near = parse("(x0^2 + x0) / (x0 + 2)")
    linear = parse("x0 + 1")
    assert not numeric_equivalent(linear, near, (Interval(-6.0, 6.0),), tol=1e-6)


def test_numeric_equivalent_empty_domain():
    with pytest.raises(ValueError):
        numeric_equivalent(Input(0), Input(0), ())
    with pytest.raises(ValueError):
        Interval(2.0, 2.0)


def test_sample_domain_discrete_enumeration():
    bit = Choices((0.0, 1.0))
    pts = sample_domain((bit, bit, bit, bit), 512)
    assert pts.shape == (16, 4)
    assert len({tuple(p) for p in pts}) == 16


def _scipy_sample_domain(dims, n, seed):
    """``sample_domain`` as it was written on scipy's Halton sampler."""
    from scipy.stats import qmc

    discrete = [d for d in dims if isinstance(d, Choices)]
    if len(discrete) == len(dims) and math.prod(len(d.values) for d in dims) <= max(n, 1):
        return np.asarray(list(itertools.product(*(d.values for d in dims))), dtype=np.float64)
    out = np.empty((n, len(dims)))
    cont_axes = [k for k, d in enumerate(dims) if isinstance(d, Interval)]
    if cont_axes:
        unit = qmc.Halton(d=len(cont_axes), seed=seed).random(n)
        for col, k in enumerate(cont_axes):
            out[:, k] = dims[k].lo + (dims[k].hi - dims[k].lo) * unit[:, col]
    rng = np.random.default_rng(seed + 1)
    for k, d in enumerate(dims):
        if isinstance(d, Choices):
            out[:, k] = rng.choice(np.asarray(d.values), size=n)
    return out


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_sample_domain_draws_scipys_scrambled_halton(d, seed):
    from scipy.stats import qmc

    for n in (1, 7, 512):
        want = qmc.Halton(d=d, seed=seed).random(n)
        assert same_bits(sample_domain([Interval(0.0, 1.0)] * d, n, seed), want)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("dims", [
    (Interval(-10.0, 10.0), Choices((0.0, 1.0)), Interval(0.5, 2.0), Choices((-1.0, 2.0, 5.0))),
    (Choices((0.0, 1.0)), Interval(-3.0, 3.0)),
    (Choices((0.0, 1.0)),) * 4,  # a 16-point grid: enumerated when n reaches 16
    (Choices((0.0, 1.0, 2.0)),) * 3,
])
def test_sample_domain_equals_its_scipy_form(dims, seed):
    for n in (1, 7, 16, 512):
        assert same_bits(sample_domain(dims, n, seed), _scipy_sample_domain(dims, n, seed))


def test_input_indices():
    expr = parse("x0 + sin(x2) * 4")
    assert input_indices(expr) == {0, 2}
    assert input_indices(Const(1.0)) == set()


_specials = (0.0, -0.0, 1.0, -2.5, 1e-310, 1e300, np.inf, -np.inf, np.nan)


@settings(max_examples=150, deadline=None)
@given(
    trees=st.lists(_trees, min_size=1, max_size=3),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_trees_match_the_interpreter(trees, rows, seed):
    # a subtree shared as one object, within a tree and across trees
    trees.append(_apply("ADD", trees[0], _apply("MUL", trees[0], trees[-1])))
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 3.0, size=(rows, 13))
    X.flat[rng.integers(0, X.size, size=rows)] = rng.choice(_specials, size=rows)
    got = compile_trees(trees)(X)
    assert len(got) == len(trees)
    assert all(_matches_scalar_oracle(g, t, X) for g, t in zip(got, trees))
    # sharing a subtree across trees makes the calls of each tree alone:
    # every bit, NaN payloads included
    assert all(same_bits(g, evaluate_tree_batch(t, X)) for g, t in zip(got, trees))


def test_compiled_trees_leave_no_cyclic_garbage():
    program = compile_trees([parse("if_leq(2, x0, x0 / 2, x0^2) + sin(x0) * x0")])
    X = np.linspace(-8.0, 8.0, 1000)[:, None]
    assert cyclic_garbage(lambda: program(X)) == 0
    assert cyclic_garbage(lambda: compile_trees([parse("x0 * 2 + x0")])) == 0


def test_evaluate_tree_batch_leaves_no_cyclic_garbage():
    expr = parse("if_leq(2, x0, x0 / 2, x0^2) + sin(x0) * x0")
    X = np.linspace(-8.0, 8.0, 1000)[:, None]
    assert cyclic_garbage(lambda: evaluate_tree_batch(expr, X)) == 0


def test_dag_to_expression_leaves_no_cyclic_garbage():
    from softdag import NetworkConfig, build_network, sample_many

    net = build_network(NetworkConfig(bases=("ADD", "SIN", "MUL"), input_count=1, depth=2))
    dag = sample_many(net, np.random.default_rng(0), 1)[0]
    assert cyclic_garbage(lambda: dag_to_expression(net, dag, 0)) == 0
