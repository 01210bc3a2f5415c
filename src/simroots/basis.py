"""Chebyshev-system basis functions with exact derivative evaluation.

A basis function is either one of a small closed-form catalog (constant,
integer power, sine, cosine, exponential, and the inverse quadratic
1/(1+x^2)) or an expression tree built from numbers, x, the operators
+ - * / ^ (integer exponent), and the functions sin, cos, exp.

Catalog kinds differentiate through closed formulas.  Expression trees
differentiate through truncated Taylor series (jets), so no numerical
differencing is involved anywhere in the evaluation path.

BasisSystem.rows gives every member's derivatives of orders 0 .. top at
a point, one pass of each member's formula; eval reads one entry of it.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionBySingularJet,
    DomainError,
    ExpressionParseError,
    InvalidConfiguration,
    OrderExceedsCap,
)

UNBOUNDED = (-math.inf, math.inf)

# Catalog kinds have closed forms valid at any order; the cap only bounds
# what callers may request before factorial growth overflows doubles.
CATALOG_CAP = 100
EXPRESSION_CAP = 8


# ----------------------------------------------------------------------
# Taylor jets
# ----------------------------------------------------------------------

class Jet:
    """Truncated Taylor series of a function at a point.

    Parameters
    ----------
    coefficients : sequence of float
        Taylor coefficients c_0 .. c_p, so the derivative of order q
        equals coefficients[q] * q!.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = list(coefficients)

    def derivative(self, q):
        """Return the derivative of order q encoded by this jet."""
        return self.coefficients[q] * math.factorial(q)

    @classmethod
    def constant(cls, value, p):
        return cls([float(value)] + [0.0] * p)

    @classmethod
    def variable(cls, x, p):
        c = [float(x)] + [0.0] * p
        if p >= 1:
            c[1] = 1.0
        return cls(c)

    def __neg__(self):
        return Jet([-c for c in self.coefficients])

    def __add__(self, other):
        return Jet([a + b for a, b in zip(self.coefficients, other.coefficients)])

    def __sub__(self, other):
        return Jet([a - b for a, b in zip(self.coefficients, other.coefficients)])

    def __mul__(self, other):
        a, b = self.coefficients, other.coefficients
        out = []
        for k in range(len(a)):
            out.append(math.fsum(a[j] * b[k - j] for j in range(k + 1)))
        return Jet(out)

    def __truediv__(self, other):
        a, b = self.coefficients, other.coefficients
        if abs(b[0]) < 1e-300:
            raise DivisionBySingularJet(
                "series division needs a nonzero constant term"
            )
        out = [a[0] / b[0]]
        for k in range(1, len(a)):
            acc = a[k] - math.fsum(b[j] * out[k - j] for j in range(1, k + 1))
            out.append(acc / b[0])
        return Jet(out)

    def __repr__(self):
        return "Jet(%r)" % (self.coefficients,)


def _jet_sin_cos(u):
    # joint recurrence: k*s_k = sum j*u_j*c_{k-j}, k*c_k = -sum j*u_j*s_{k-j}
    uc = u.coefficients
    p = len(uc) - 1
    s = [math.sin(uc[0])] + [0.0] * p
    c = [math.cos(uc[0])] + [0.0] * p
    for k in range(1, p + 1):
        s[k] = math.fsum(j * uc[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -math.fsum(j * uc[j] * s[k - j] for j in range(1, k + 1)) / k
    return Jet(s), Jet(c)


def _jet_exp(u):
    uc = u.coefficients
    p = len(uc) - 1
    e = [math.exp(uc[0])] + [0.0] * p
    for k in range(1, p + 1):
        e[k] = math.fsum(j * uc[j] * e[k - j] for j in range(1, k + 1)) / k
    return Jet(e)


def _jet_pow(u, k, p):
    if k < 0:
        return Jet.constant(1.0, p) / _jet_pow(u, -k, p)
    out = Jet.constant(1.0, p)
    base = u
    e = k
    while e > 0:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


# ----------------------------------------------------------------------
# Expression grammar
# ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

_FUNCTIONS = ("sin", "cos", "exp")


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            if source[pos:].strip() == "":
                break
            raise ExpressionParseError(
                "unexpected character %r at position %d" % (source[pos], pos)
            )
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive-descent parser for the minimal infix grammar."""

    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value = self.advance()
        if kind != "op" or value != symbol:
            raise ExpressionParseError(
                "expected %r in %r, got %r" % (symbol, self.source, value)
            )

    def parse(self):
        tree = self.expr()
        kind, value = self.peek()
        if kind != "end":
            raise ExpressionParseError(
                "trailing input %r in %r" % (value, self.source)
            )
        return tree

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.advance()
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.advance()
            sign = 1
            if self.peek() == ("op", "-"):
                self.advance()
                sign = -1
            kind, value = self.advance()
            if kind != "num" or not float(value).is_integer():
                raise ExpressionParseError(
                    "exponent must be an integer in %r" % (self.source,)
                )
            node = ("pow", node, sign * int(value))
        return node

    def atom(self):
        kind, value = self.advance()
        if kind == "num":
            return ("num", value)
        if kind == "name":
            if value == "x":
                return ("x",)
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return (value, arg)
            raise ExpressionParseError(
                "unknown name %r in %r" % (value, self.source)
            )
        if (kind, value) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionParseError("unexpected token %r in %r" % (value, self.source))


def parse_expression(source):
    """Parse an infix expression string into a tree of nested tuples."""
    return _Parser(source).parse()


def _propagate(node, x, p):
    kind = node[0]
    if kind == "num":
        return Jet.constant(node[1], p)
    if kind == "x":
        return Jet.variable(x, p)
    if kind == "neg":
        return -_propagate(node[1], x, p)
    if kind == "add":
        return _propagate(node[1], x, p) + _propagate(node[2], x, p)
    if kind == "sub":
        return _propagate(node[1], x, p) - _propagate(node[2], x, p)
    if kind == "mul":
        return _propagate(node[1], x, p) * _propagate(node[2], x, p)
    if kind == "div":
        return _propagate(node[1], x, p) / _propagate(node[2], x, p)
    if kind == "pow":
        return _jet_pow(_propagate(node[1], x, p), node[2], p)
    if kind == "sin":
        return _jet_sin_cos(_propagate(node[1], x, p))[0]
    if kind == "cos":
        return _jet_sin_cos(_propagate(node[1], x, p))[1]
    if kind == "exp":
        return _jet_exp(_propagate(node[1], x, p))
    raise ExpressionParseError("unknown node kind %r" % (kind,))


def jet_propagate(tree, x, p):
    """Propagate a Taylor jet of the given order through an expression.

    Parameters
    ----------
    tree : str or tuple
        Expression source text, or an already parsed tree.
    x : float
        Expansion point.
    p : int
        Truncation order; the result carries coefficients c_0 .. c_p.

    Returns
    -------
    Jet

    Raises OverflowError for math's ValueError at an overflowed value:
    sin or cos of inf, or inf - inf in a compensated sum.
    """
    if isinstance(tree, str):
        tree = parse_expression(tree)
    try:
        return _propagate(tree, float(x), int(p))
    except ValueError as exc:
        raise OverflowError("jet at x=%r: %s" % (x, exc)) from None


# ----------------------------------------------------------------------
# Basis functions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFunction:
    """One member of a Chebyshev system.

    Fields
    ------
    kind : str
        One of "constant", "power", "sine", "cosine", "exponential",
        "inverse-quadratic", "expression".
    s : int
        Exponent for the power kind.
    omega : float
        Angular frequency for sine and cosine.
    rate : float
        Exponent rate for the exponential kind.
    tree : tuple or None
        Parsed expression tree for the expression kind.
    source : str or None
        Original expression text, kept for serialization.
    derivative_cap : int
        Highest derivative order guaranteed accurate.
    """

    kind: str
    s: int = 0
    omega: float = 0.0
    rate: float = 0.0
    tree: tuple | None = None
    source: str | None = None
    derivative_cap: int = CATALOG_CAP


def constant():
    return BasisFunction("constant")


def power(s):
    if s < 0:
        raise InvalidConfiguration("power exponent must be nonnegative, got %r" % (s,))
    return BasisFunction("power", s=int(s))


def sine(omega):
    return BasisFunction("sine", omega=float(omega))


def cosine(omega):
    return BasisFunction("cosine", omega=float(omega))


def exponential(rate):
    return BasisFunction("exponential", rate=float(rate))


def inverse_quadratic():
    return BasisFunction("inverse-quadratic")


def expression(source, derivative_cap=EXPRESSION_CAP):
    """Build an expression-kind basis function from infix source text."""
    if isinstance(source, str):
        tree = parse_expression(source)
        text = source
    else:
        tree = source
        text = None
    return BasisFunction(
        "expression", tree=tree, source=text, derivative_cap=int(derivative_cap)
    )


def _column(b, x, top):
    """Derivatives of orders 0 .. top of one basis function at x: closed
    forms for catalog kinds, one jet of order top for expressions.  A
    truncated jet is prefix-stable (coefficient k depends only on orders
    <= k), so entry p equals the top coefficient of the jet of order p.
    Raises OrderExceedsCap if top exceeds the function's derivative cap.
    """
    if top > b.derivative_cap:
        raise OrderExceedsCap(
            "derivative order %d exceeds cap %d" % (top, b.derivative_cap)
        )
    orders = range(top + 1)
    if b.kind == "constant":
        return [1.0] + [0.0] * top
    if b.kind == "power":
        return [math.perm(b.s, p) * x ** (b.s - p) if p <= b.s else 0.0
                for p in orders]
    if b.kind in ("sine", "cosine"):
        trig = math.sin if b.kind == "sine" else math.cos
        phase = b.omega * x
        if math.isinf(phase):  # where math.sin would raise ValueError
            raise OverflowError("%s(%g x) overflows at %g" % (b.kind, b.omega, x))
        return [b.omega ** p * trig(phase + p * math.pi / 2.0)
                for p in orders]
    if b.kind == "exponential":
        e = math.exp(b.rate * x)
        return [b.rate ** p * e for p in orders]
    if b.kind == "inverse-quadratic":
        # polar form of (x - i): 1/(1+x^2) is the imaginary part of 1/(x - i),
        # so the p-th derivative is (-1)^(p+1) p! sin((p+1) theta) / r^(p+1)
        r = math.hypot(x, 1.0)
        theta = math.atan2(-1.0, x)
        return [(-1.0) ** (p + 1) * math.factorial(p) * math.sin((p + 1) * theta)
                / r ** (p + 1) for p in orders]
    if b.kind == "expression":
        jet = jet_propagate(b.tree, x, top)
        return [jet.derivative(p) for p in orders]
    raise ExpressionParseError("unknown basis kind %r" % (b.kind,))


# ----------------------------------------------------------------------
# Basis systems
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSystem:
    """Ordered family of n+1 basis functions on an open interval.

    The family is assumed to form a Chebyshev system on the interval;
    nonsingularity is verified only at concrete node sets, when confluent
    matrices are built from them.
    """

    functions: tuple
    domain: tuple = UNBOUNDED

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        if len(self.functions) < 2:
            raise DimensionMismatch(
                "a basis system needs at least 2 functions, got %d"
                % len(self.functions)
            )
        lo, hi = self.domain
        if not lo < hi:
            raise DomainError("empty domain (%g, %g)" % (lo, hi))

    def __len__(self):
        return len(self.functions)

    @property
    def derivative_cap(self):
        return min(b.derivative_cap for b in self.functions)

    def contains(self, x):
        lo, hi = self.domain
        return math.isfinite(x) and lo < x < hi

    def _check_domain(self, x):
        if not self.contains(x):
            lo, hi = self.domain
            raise DomainError(
                "x=%r outside open interval (%g, %g)" % (x, lo, hi)
            )

    def eval(self, j, x, p=0):
        """Evaluate the p-th derivative of member j at x: entry p of its
        derivative column, so OrderExceedsCap if p exceeds its cap."""
        self._check_domain(x)
        return _column(self.functions[j], x, p)[p]

    def rows(self, x, top):
        """(top+1) x (n+1) array whose row p holds phi_j^(p)(x), entry for
        entry equal to eval(j, x, p).  Raises DomainError outside the
        domain and OrderExceedsCap when top exceeds the system's cap."""
        self._check_domain(x)
        x = float(x)
        return np.array([_column(b, x, top) for b in self.functions]).T


def make_reference_basis():
    """Return the five-function system {1, x^2, sin 3x, exp(-x), 1/(1+x^2)}.

    This is the system used by the worked double-root example in the test
    suite and the shipped demo problem.
    """
    return BasisSystem(
        (
            constant(),
            power(2),
            sine(3.0),
            exponential(-1.0),
            inverse_quadratic(),
        )
    )
