"""Expression trees: printing, parsing, simplification, numeric equivalence.

The string form is a small infix grammar with explicit parentheses and
named function calls:

    expr     := sum
    sum      := product (("+" | "-") product)*
    product  := factor (("*" | "/") factor)*
    factor   := "-" factor | postfix
    postfix  := primary ["^2"]
    primary  := NUMBER | NAME "(" expr ("," expr)* ")" | VAR | "(" expr ")"
    VAR      := "x" DIGITS

``+ - * /`` and ``^2`` map to the ADD, SUB, MUL, DIV and SQUARE bases;
every other basis renders as a lowercase named call.  A unary minus on a
numeric literal folds into a negative constant.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np
from scipy.stats import qmc

from .bases import ArityError, BasisFunction, builtin_registry, eval_basis
from .network import Network
from .sampler import SampledDAG

__all__ = [
    "Input",
    "Const",
    "Apply",
    "Expr",
    "Interval",
    "Choices",
    "ParseError",
    "to_string",
    "parse",
    "evaluate_tree",
    "evaluate_tree_batch",
    "simplify",
    "input_indices",
    "sample_domain",
    "numeric_equivalent",
    "values_equivalent",
    "dag_to_expression",
]


@dataclass(frozen=True)
class Input:
    index: int


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Apply:
    basis: BasisFunction
    children: tuple

    def __post_init__(self) -> None:
        if len(self.children) != self.basis.arity:
            raise ArityError(
                f"{self.basis.name} takes {self.basis.arity} children,"
                f" got {len(self.children)}"
            )


Expr = Union[Input, Const, Apply]


@dataclass(frozen=True)
class Interval:
    """A continuous per-dimension range [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Choices:
    """A discrete per-dimension value set."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("empty choice set")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


# ---------------------------------------------------------------------------
# printing


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(expr: Expr) -> str:
    if isinstance(expr, Input):
        return f"x{expr.index}"
    if isinstance(expr, Const):
        return _format_number(expr.value)
    return expr.basis.render(tuple(to_string(c) for c in expr.children))


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<pow2>\^2)"
    r"|(?P<op>[-+*/(),]))"
)

_VAR_RE = re.compile(r"x(\d+)$")


class _Parser:
    def __init__(self, text: str, registry: Mapping[str, BasisFunction]):
        self.registry = registry
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
                break
            pos = m.end()
            for kind in ("num", "name", "pow2", "op"):
                tok = m.group(kind)
                if tok is not None:
                    self.tokens.append((kind, tok))
                    break
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("eof", "")

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, tok = self.take()
        if tok != value:
            raise ParseError(f"expected {value!r}, got {tok!r}")

    def parse(self) -> Expr:
        expr = self.sum()
        if self.peek()[0] != "eof":
            raise ParseError(f"trailing input at {self.peek()[1]!r}")
        return expr

    def sum(self) -> Expr:
        left = self.product()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            right = self.product()
            name = "ADD" if op == "+" else "SUB"
            left = Apply(self.registry[name], (left, right))
        return left

    def product(self) -> Expr:
        left = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            right = self.factor()
            name = "MUL" if op == "*" else "DIV"
            left = Apply(self.registry[name], (left, right))
        return left

    def factor(self) -> Expr:
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Apply(self.registry["NEG"], (inner,))
        return self.postfix()

    def postfix(self) -> Expr:
        node = self.primary()
        while self.peek()[0] == "pow2":
            self.take()
            node = Apply(self.registry["SQUARE"], (node,))
        return node

    def primary(self) -> Expr:
        kind, tok = self.take()
        if kind == "num":
            return Const(float(tok))
        if kind == "name":
            if self.peek() == ("op", "("):
                self.take()
                args = [self.sum()]
                while self.peek() == ("op", ","):
                    self.take()
                    args.append(self.sum())
                self.expect(")")
                key = tok.upper()
                basis = self.registry.get(key)
                if basis is None:
                    raise ParseError(f"unknown function {tok!r}")
                if len(args) != basis.arity:
                    raise ParseError(
                        f"{tok} takes {basis.arity} argument(s), got {len(args)}"
                    )
                return Apply(basis, tuple(args))
            m = _VAR_RE.fullmatch(tok)
            if m:
                return Input(int(m.group(1)))
            raise ParseError(f"unknown identifier {tok!r}")
        if (kind, tok) == ("op", "("):
            inner = self.sum()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}")


def parse(text: str, registry: Mapping[str, BasisFunction] | None = None) -> Expr:
    """Parse an expression string back into a tree."""
    reg = builtin_registry() if registry is None else dict(registry)
    return _Parser(text, reg).parse()


# ---------------------------------------------------------------------------
# evaluation


def evaluate_tree(expr: Expr, x) -> float:
    """Scalar tree-walk evaluation; sentinel values propagate."""
    if isinstance(expr, Input):
        return float(x[expr.index])
    if isinstance(expr, Const):
        return expr.value
    return eval_basis(expr.basis, tuple(evaluate_tree(c, x) for c in expr.children))


def evaluate_tree_batch(expr: Expr, X) -> np.ndarray:
    """Vectorized tree evaluation over a batch of input rows."""
    return _evaluate_node(expr, np.asarray(X, dtype=np.float64), {})


def _evaluate_node(node: Expr, X: np.ndarray, cache: dict[int, np.ndarray]) -> np.ndarray:
    # a module-level recursion, not a closure: a closure that calls itself
    # is a reference cycle, which would keep ``cache`` alive until the
    # garbage collector runs
    key = id(node)
    found = cache.get(key)
    if found is not None:
        return found
    if isinstance(node, Input):
        out = X[:, node.index]
    elif isinstance(node, Const):
        out = np.full(X.shape[0], node.value)
    else:
        with np.errstate(all="ignore"):
            out = np.asarray(
                node.basis.fn(*(_evaluate_node(c, X, cache) for c in node.children)),
                dtype=np.float64,
            )
    cache[key] = out
    return out


def input_indices(expr: Expr) -> set[int]:
    if isinstance(expr, Input):
        return {expr.index}
    if isinstance(expr, Const):
        return set()
    out: set[int] = set()
    for c in expr.children:
        out |= input_indices(c)
    return out


# ---------------------------------------------------------------------------
# simplification


def simplify(expr: Expr) -> Expr:
    """Apply value-preserving local rewrites bottom-up.

    Constant folding (kept only when the folded value is finite), the
    identities ``e + 0 -> e`` and ``e * 1 -> e`` on either side,
    ``neg(neg(e)) -> e`` and ``id(e) -> e``.
    """
    if not isinstance(expr, Apply):
        return expr
    kids = tuple(simplify(c) for c in expr.children)
    node = Apply(expr.basis, kids)
    if all(isinstance(c, Const) for c in kids):
        value = eval_basis(node.basis, tuple(c.value for c in kids))
        if np.isfinite(value):
            return Const(value)
    name = node.basis.name
    if name == "ADD":
        a, b = kids
        if isinstance(a, Const) and a.value == 0.0:
            return b
        if isinstance(b, Const) and b.value == 0.0:
            return a
    elif name == "MUL":
        a, b = kids
        if isinstance(a, Const) and a.value == 1.0:
            return b
        if isinstance(b, Const) and b.value == 1.0:
            return a
    elif name == "NEG":
        (a,) = kids
        if isinstance(a, Apply) and a.basis.name == "NEG":
            return a.children[0]
    elif name == "ID":
        return kids[0]
    return node


# ---------------------------------------------------------------------------
# numeric equivalence


def sample_domain(domain, n: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform sample points in a box of Interval/Choices dimensions.

    When every dimension is discrete and the full grid fits within ``n``
    points, the grid is enumerated exhaustively instead.
    """
    dims = list(domain)
    if not dims:
        raise ValueError("empty domain")
    discrete = [d for d in dims if isinstance(d, Choices)]
    if len(discrete) == len(dims):
        grid_size = 1
        for d in discrete:
            grid_size *= len(d.values)
        if grid_size <= max(n, 1):
            rows = list(itertools.product(*(d.values for d in dims)))
            return np.asarray(rows, dtype=np.float64)
    cont_axes = [k for k, d in enumerate(dims) if isinstance(d, Interval)]
    out = np.empty((n, len(dims)), dtype=np.float64)
    if cont_axes:
        halton = qmc.Halton(d=len(cont_axes), seed=seed)
        unit = halton.random(n)
        for col, k in enumerate(cont_axes):
            lo, hi = dims[k].lo, dims[k].hi
            out[:, k] = lo + (hi - lo) * unit[:, col]
    rng = np.random.default_rng(seed + 1)
    for k, d in enumerate(dims):
        if isinstance(d, Choices):
            out[:, k] = rng.choice(np.asarray(d.values), size=n)
    return out


def values_equivalent(va, vb, tol: float) -> bool:
    """Equivalence on precomputed value arrays.

    Requires the finite/sentinel masks to agree on at least 99% of points
    and ``|a - b| <= tol * max(1, |b|)`` wherever both sides are finite.
    """
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)
    fa = np.isfinite(va)
    fb = np.isfinite(vb)
    if np.mean(fa == fb) < 0.99:
        return False
    both = fa & fb
    if not both.any():
        return True
    diff = np.abs(va[both] - vb[both])
    bound = tol * np.maximum(1.0, np.abs(vb[both]))
    return bool(np.all(diff <= bound))


def numeric_equivalent(
    a: Expr, b: Expr, domain, tol: float = 1e-6, n: int = 512, seed: int = 0
) -> bool:
    """Decide equivalence of two expressions on a sampled domain."""
    pts = sample_domain(domain, n, seed)
    return values_equivalent(
        evaluate_tree_batch(a, pts), evaluate_tree_batch(b, pts), tol
    )


# ---------------------------------------------------------------------------
# graphs to trees


def dag_to_expression(network: Network, dag: SampledDAG, output_index: int) -> Expr:
    """Backtrack one output into a tree; shared subgraphs are duplicated."""
    cfg = network.config
    cache: dict[tuple[int, int], Expr] = {}

    def from_source(res) -> Expr:
        if res[0] == "input":
            return Input(res[1])
        if res[0] == "const":
            return Const(cfg.constants[res[1]])
        return image(res[1], res[2])

    def image(q: int, i: int) -> Expr:
        found = cache.get((q, i))
        if found is None:
            kids = tuple(
                from_source(network.arg_source(q, int(dag.choices[q][row])))
                for row in network.image_rows(i)
            )
            found = Apply(network.bases[i], kids)
            cache[(q, i)] = found
        return found

    return from_source(network.output_source(int(dag.output_choices[output_index])))
