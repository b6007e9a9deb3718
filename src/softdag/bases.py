"""Primitive operator vocabulary.

Every primitive is a :class:`BasisFunction`: a named operator with a fixed
arity, a vectorized numeric implementation and a rule for rendering itself
as part of an expression string.  Primitives never raise on numeric edge
cases; undefined results (division by ~0, overflow, invalid arguments)
come back as a non-finite sentinel (NaN or +/-inf) which downstream code
treats as "this sample failed here".

Names are stable identifiers: they are what configuration files use to
spell out a vocabulary, and what expression strings use (lowercased) for
function calls.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DIV_GUARD",
    "ArityError",
    "BasisFunction",
    "builtin_registry",
    "eval_basis",
    "resolve_bases",
]

# |denominator| below this yields the NaN sentinel instead of a quotient.
DIV_GUARD = 1e-12


class ArityError(ValueError):
    """A basis was applied to the wrong number of arguments."""


@dataclass(frozen=True, eq=False)
class BasisFunction:
    """A named primitive operator.

    ``fn`` is vectorized: it accepts ``arity`` numpy arrays (or scalars)
    and returns an array of the broadcast shape.  ``render`` maps a tuple
    of already-rendered child strings to this node's string form.
    """

    name: str
    arity: int
    fn: Callable[..., np.ndarray]
    render: Callable[[tuple[str, ...]], str]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"basis {self.name!r}: arity must be >= 1")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasisFunction):
            return NotImplemented
        return (self.name, self.arity) == (other.name, other.arity)

    def __hash__(self) -> int:
        return hash((self.name, self.arity))

    def __repr__(self) -> str:
        return f"BasisFunction({self.name}/{self.arity})"


def eval_basis(basis: BasisFunction, args: tuple) -> float:
    """Apply ``basis`` to a tuple of scalars.

    Returns the value, or a non-finite sentinel for domain violations.
    Raises :class:`ArityError` when the argument count is wrong.
    """
    if len(args) != basis.arity:
        raise ArityError(
            f"{basis.name} takes {basis.arity} argument(s), got {len(args)}"
        )
    with np.errstate(all="ignore"):
        out = basis.fn(*(np.float64(a) for a in args))
    return float(out)


# ---------------------------------------------------------------------------
# numeric implementations


def _same_shape(*args) -> bool:
    """True when the arguments share one shape that holds some element."""
    for x in args:
        if not isinstance(x, np.ndarray):
            shape = np.shape(args[0])
            return all(np.shape(x) == shape for x in args) and np.size(args[0]) > 0
    # arrays, as the population plan passes them, skip np.shape's dispatch
    shape = args[0].shape
    for x in args:
        if x.shape != shape:
            return False
    return args[0].size > 0


def _div(a, b):
    # no denominator to guard (a NaN fails the test too): a plain division
    if _same_shape(a, b) and np.abs(b).min() >= DIV_GUARD:
        return np.divide(a, b)
    den = np.where(np.abs(b) < DIV_GUARD, np.nan, b)
    return np.divide(a, den)


def _if_leq(a, b, c, d):
    out = np.asarray(np.where(np.less_equal(a, b), c, d), dtype=np.float64)
    # a NaN anywhere makes these sums NaN, and an inf or an overflow only
    # takes the path below, so a finite sum means no argument holds a NaN
    if _same_shape(a, b, c, d) and math.isfinite(float(np.vdot(a, b)) + float(np.vdot(c, d))):
        return out
    # strict sentinel semantics: any NaN argument poisons the result, and
    # minimum carries a NaN through, so one isnan finds them all
    low = np.minimum(a, b, out=np.empty_like(out))
    np.minimum(low, c, out=low)
    np.minimum(low, d, out=low)
    np.putmask(out, np.isnan(low), np.nan)
    return out


def _xor(a, b):
    # exact on {0, 1} inputs, continuous elsewhere
    return np.abs(np.subtract(a, b))


def _min4(a, b, c, d):
    return np.minimum(np.minimum(a, b), np.minimum(c, d))


def _max4(a, b, c, d):
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def _min9(*args):
    out = args[0]
    for x in args[1:]:
        out = np.minimum(out, x)
    return out


def _max9(*args):
    out = args[0]
    for x in args[1:]:
        out = np.maximum(out, x)
    return out


def _sigmoid(a):
    # scipy.special is slow to import and only these two bases use it, so
    # it loads on their first call
    from scipy.special import expit

    return expit(a)


def _sigmoid10(a):
    return _sigmoid(np.multiply(10.0, a))


def _add4(a, b, c, d):
    return np.add(np.add(a, b), np.add(c, d))


def _add9(*args):
    out = args[0]
    for x in args[1:]:
        out = np.add(out, x)
    return out


# ---------------------------------------------------------------------------
# rendering helpers

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def _self_delimited(s: str) -> bool:
    """True when appending ``^2`` to ``s`` cannot change how it parses."""
    if _IDENT_RE.fullmatch(s) or _NUM_RE.fullmatch(s):
        return True
    if not s.endswith(")"):
        return False
    if s.startswith("("):
        head = 0
    else:
        m = _IDENT_RE.match(s)
        if not m or m.end() >= len(s) or s[m.end()] != "(":
            return False
        head = m.end()
    depth = 0
    for i in range(head, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth == 0:
                return i == len(s) - 1
    return False


def _infix(symbol: str):
    return lambda s: f"({s[0]} {symbol} {s[1]})"


def _call(fname: str):
    return lambda s: f"{fname}({', '.join(s)})"


def _pow2(s):
    inner = s[0]
    return f"{inner}^2" if _self_delimited(inner) else f"({inner})^2"


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, BasisFunction] = {}


def _register(name, arity, fn, render):
    _REGISTRY[name] = BasisFunction(name, arity, fn, render)


_register("ADD", 2, np.add, _infix("+"))
_register("SUB", 2, np.subtract, _infix("-"))
_register("MUL", 2, np.multiply, _infix("*"))
_register("DIV", 2, _div, _infix("/"))
_register("SIN", 1, np.sin, _call("sin"))
_register("SQUARE", 1, lambda a: np.multiply(a, a), _pow2)
_register("NEG", 1, np.negative, _call("neg"))
_register("ID", 1, lambda a: np.positive(a), _call("id"))
_register("IF_LEQ", 4, _if_leq, _call("if_leq"))
_register("MIN", 2, np.minimum, _call("min"))
_register("MAX", 2, np.maximum, _call("max"))
_register("XOR", 2, _xor, _call("xor"))
_register("SIGMOID", 1, _sigmoid, _call("sigmoid"))
_register("TANH", 1, np.tanh, _call("tanh"))
_register("SIGMOID10", 1, _sigmoid10, _call("sigmoid10"))
_register("TANH10", 1, lambda a: np.tanh(np.multiply(10.0, a)), _call("tanh10"))
_register("ADD4", 4, _add4, _call("add4"))
_register("ADD9", 9, _add9, _call("add9"))
_register("MIN4", 4, _min4, _call("min4"))
_register("MAX4", 4, _max4, _call("max4"))
_register("MIN9", 9, _min9, _call("min9"))
_register("MAX9", 9, _max9, _call("max9"))


def builtin_registry() -> dict[str, BasisFunction]:
    """Mapping from stable name to basis prototype (shared singletons)."""
    return dict(_REGISTRY)


def resolve_bases(names) -> tuple[BasisFunction, ...]:
    """Resolve a sequence of basis names, preserving order and repeats."""
    out = []
    for name in names:
        key = str(name).upper()
        if key not in _REGISTRY:
            raise ValueError(f"unknown basis {name!r}")
        out.append(_REGISTRY[key])
    return tuple(out)
