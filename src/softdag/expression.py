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
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bases import ArityError, BasisFunction, builtin_registry, eval_basis
from .network import Network
from .sampler import SampledDAG

__all__ = [
    "EQ_POINTS",
    "EQ_TOLERANCE",
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
    "compile_trees",
    "simplify",
    "input_indices",
    "sample_domain",
    "numeric_equivalent",
    "values_equivalent",
    "dag_to_expression",
]

EQ_POINTS = 512  # samples for numeric equivalence checks
EQ_TOLERANCE = 1e-6  # relative tolerance of numeric equivalence checks


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
        # a draw needs a finite width as well as finite bounds
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"interval [{self.lo}, {self.hi}] is not finite")
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
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"choice values must be finite, not {self.values}")


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

_BASES = builtin_registry()


class _Parser:
    def __init__(self, text: str):
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
            left = Apply(_BASES[name], (left, right))
        return left

    def product(self) -> Expr:
        left = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            right = self.factor()
            name = "MUL" if op == "*" else "DIV"
            left = Apply(_BASES[name], (left, right))
        return left

    def factor(self) -> Expr:
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Apply(_BASES["NEG"], (inner,))
        return self.postfix()

    def postfix(self) -> Expr:
        node = self.primary()
        while self.peek()[0] == "pow2":
            self.take()
            node = Apply(_BASES["SQUARE"], (node,))
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
                basis = _BASES.get(key)
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


def parse(text: str) -> Expr:
    """Parse an expression string back into a tree."""
    return _Parser(text).parse()


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
    """Vectorized tree evaluation over a batch of input rows: the program
    of :func:`compile_trees` for this one tree."""
    return compile_trees((expr,))(X)[0]


def compile_trees(exprs):
    """``exprs`` compiled once into a flat program of basis calls: a
    function of a batch ``X`` that returns each tree's values.

    Each call reads whole columns: an input is a column view of ``X``, a
    constant a full column, and a subtree shared as one object is computed
    once.
    """
    steps: list[tuple] = []
    slots: dict[int, int] = {}
    outs = [_compile_node(e, steps, slots) for e in exprs]

    def run(X) -> list[np.ndarray]:
        X = np.asarray(X, dtype=np.float64)
        values = []
        with np.errstate(all="ignore"):
            for fn, args in steps:
                if fn is Input:
                    values.append(X[:, args])
                elif fn is Const:
                    values.append(np.full(X.shape[0], args))
                else:
                    values.append(np.asarray(fn(*[values[i] for i in args]), dtype=np.float64))
        return [values[s] for s in outs]

    return run


def _compile_node(node: Expr, steps: list, slots: dict[int, int]) -> int:
    """Append the steps of ``node``'s subtree not in ``slots``, children
    first, to ``steps``; return the slot of ``node``'s value."""
    # a module-level recursion, not a closure: a closure that calls itself
    # is a reference cycle, which would keep ``slots`` alive until the
    # garbage collector runs
    key = id(node)
    if key not in slots:
        if isinstance(node, Input):
            step = (Input, node.index)
        elif isinstance(node, Const):
            step = (Const, node.value)
        else:
            step = (node.basis.fn, [_compile_node(c, steps, slots) for c in node.children])
        slots[key] = len(steps)
        steps.append(step)
    return slots[key]


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

    The Interval dimensions take the first ``n`` points of the scrambled
    Halton sequence that ``scipy.stats.qmc.Halton(d, seed=seed)`` draws, bit
    for bit, scaled to their ranges; the Choices dimensions draw their
    values from ``np.random.default_rng(seed + 1)``.  When every dimension
    is discrete and the full grid fits within ``n`` points, the grid is
    enumerated exhaustively instead.
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
        unit = _scrambled_halton(len(cont_axes), n, seed)
        for col, k in enumerate(cont_axes):
            lo, hi = dims[k].lo, dims[k].hi
            out[:, k] = lo + (hi - lo) * unit[:, col]
    rng = np.random.default_rng(seed + 1)
    for k, d in enumerate(dims):
        if isinstance(d, Choices):
            out[:, k] = rng.choice(np.asarray(d.values), size=n)
    return out


def _scrambled_halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first ``n`` points of Owen's scrambled Halton sequence in ``d``
    dimensions, as scipy's ``qmc.Halton(d, seed=seed).random(n)`` draws
    them.  Dimension ``j`` is the van der Corput sequence in the ``j``-th
    prime base ``b``, whose ``k``-th digit goes through its own random
    permutation of ``0..b-1``: one per digit that a float64 resolves, each
    shuffled in turn by ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    unit = np.empty((n, d))
    for j, base in enumerate(_primes(d)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        index, point, scale = np.arange(n), np.zeros(n), 1.0 / base
        for perm in perms:
            index, digit = np.divmod(index, base)
            point += perm[digit] * scale
            scale /= base
        unit[:, j] = point
    return unit


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


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
    a: Expr, b: Expr, domain, tol: float = EQ_TOLERANCE, n: int = EQ_POINTS, seed: int = 0
) -> bool:
    """Decide equivalence of two expressions on a sampled domain."""
    pts = sample_domain(domain, n, seed)
    return values_equivalent(
        evaluate_tree_batch(a, pts), evaluate_tree_batch(b, pts), tol
    )


# ---------------------------------------------------------------------------
# graphs to trees


def dag_to_expression(network: Network, dag: SampledDAG, output_index: int) -> Expr:
    """Backtrack one output into a tree; shared subgraphs are duplicated.

    Sources are read as global codes (``Network.arg_codes``): a code below
    ``input_count`` is an input, one below ``u`` a constant, and code
    ``u + q * N + i`` is image ``i`` of level ``q``.
    """
    codes = [network.arg_codes[q][c].tolist() for q, c in enumerate(dag.choices)]
    code = int(network.output_codes[dag.output_choices[output_index]])
    return _tree_of_code(network, codes, code, {})


def _tree_of_code(network: Network, codes: list, code: int, cache: dict[int, Expr]) -> Expr:
    # module-level, as ``_compile_node`` is: a closure that calls itself is a reference cycle
    inputs = network.config.input_count
    if code < inputs:
        return Input(code)
    if code < network.u:
        return Const(network.config.constants[code - inputs])
    found = cache.get(code)
    if found is None:
        q, i = divmod(code - network.u, network.N)
        kids = tuple(_tree_of_code(network, codes, codes[q][row], cache)
                     for row in network.image_rows(i))
        found = Apply(network.bases[i], kids)
        cache[code] = found
    return found
