import math

import numpy as np
import pytest

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
from softdag.expression import ParseError

from conftest import cyclic_garbage, fig1_network, fig1b_dag

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


def test_tree_eval_matches_batch_eval(rng):
    for _ in range(50):
        expr = _random_expr(rng, 2, 3)
        X = rng.uniform(-3, 3, (20, 2))
        batch = evaluate_tree_batch(expr, X)
        for k in range(20):
            scalar = evaluate_tree(expr, X[k])
            if math.isnan(scalar):
                assert math.isnan(batch[k])
            else:
                assert scalar == pytest.approx(batch[k], rel=1e-12, abs=1e-12)


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


def test_input_indices():
    expr = parse("x0 + sin(x2) * 4")
    assert input_indices(expr) == {0, 2}
    assert input_indices(Const(1.0)) == set()


def test_evaluate_tree_batch_leaves_no_cyclic_garbage():
    expr = parse("if_leq(2, x0, x0 / 2, x0^2) + sin(x0) * x0")
    X = np.linspace(-8.0, 8.0, 1000)[:, None]
    assert cyclic_garbage(lambda: evaluate_tree_batch(expr, X)) == 0
