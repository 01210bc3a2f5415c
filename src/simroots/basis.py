"""Chebyshev-system basis functions with exact derivative evaluation.

A basis function is either one of a small closed-form catalog (constant,
integer power, sine, cosine, exponential, and the inverse quadratic
1/(1+x^2)) or an expression.  parse_expression reads an expression with
Python's ast into a tree of tuples.  Its grammar: decimal literals with
an optional exponent, and x; + - * /, unary -, and ^ with an integer
literal exponent; sin, cos and exp of one argument; parentheses and any
whitespace; at most MAX_DEPTH = 200 levels of nesting, so that every
tree evaluates within the default recursion limit.

Catalog kinds differentiate through closed formulas.  Expression trees
differentiate through truncated Taylor series (jets): a jet is a plain
list of coefficients c_0 .. c_p at a point, and jet_propagate walks the
tree once and returns the derivatives c_q * q!, so no numerical
differencing is involved anywhere in the evaluation path.

BasisSystem.tensor gives every member's derivatives of orders 0 .. top at
a batch of points.  Power members (and the constant, the power x^0) read
one np.float_power table of libm powers x^k, scaled by falling factorials
in one numpy product; every other member runs its scalar formula once per
point.  rows is the tensor of one point, and eval one entry of rows.
"""

import ast
import functools
import math
import numbers
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .confluent import checked_index, finite_real, real_sequence
from .errors import (
    DimensionMismatch,
    DivisionBySingularJet,
    DomainError,
    ExpressionParseError,
    InvalidConfiguration,
)

UNBOUNDED = (-math.inf, math.inf)

# Beyond this, x^s leaves the float range for every |x| >= 2, and the
# power table tensor builds per point would grow with s.
MAX_EXPONENT = 1024
# The highest derivative order tensor and jet_propagate take: it bounds
# the tables and jets they build, and claims nothing about accuracy.
MAX_ORDER = 100
_KINDS = ("constant", "power", "sine", "cosine", "exponential",
          "inverse-quadratic", "expression")


# ----------------------------------------------------------------------
# Taylor jets: lists of coefficients c_0 .. c_p, c_q = f^(q)(x) / q!
# ----------------------------------------------------------------------

def _mul(a, b):
    return [math.fsum(a[j] * b[k - j] for j in range(k + 1))
            for k in range(len(a))]


def _div(a, b):
    if abs(b[0]) < 1e-300:
        raise DivisionBySingularJet("series division needs a nonzero "
                                    "constant term")
    out = [a[0] / b[0]]
    for k in range(1, len(a)):
        acc = a[k] - math.fsum(b[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc / b[0])
    return out


def _sin_cos(u):
    # joint recurrence: k*s_k = sum j*u_j*c_{k-j}, k*c_k = -sum j*u_j*s_{k-j}
    p = len(u) - 1
    s = [math.sin(u[0])] + [0.0] * p
    c = [math.cos(u[0])] + [0.0] * p
    for k in range(1, p + 1):
        s[k] = math.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -math.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
    return s, c


def _exp(u):
    p = len(u) - 1
    e = [math.exp(u[0])] + [0.0] * p
    for k in range(1, p + 1):
        e[k] = math.fsum(j * u[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


def _pow(u, k):
    """u^k by binary powering.  Its last squaring is unused, but it stays:
    where it overflows, fsum raises, and jet_propagate reports that."""
    out = [1.0] + [0.0] * (len(u) - 1)
    if k < 0:
        return _div(out, _pow(u, -k))
    while k > 0:
        if k & 1:
            out = _mul(out, u)
        u = _mul(u, u)
        k >>= 1
    return out


# ----------------------------------------------------------------------
# Expression grammar
# ----------------------------------------------------------------------

# Python refuses parentheses nested deeper than this, and every tree up to
# this depth evaluates well inside the default recursion limit.
MAX_DEPTH = 200

_OPERATORS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}
# the decimal literals; Python's own also take 0x10, 1_0, 1j and True
_LITERAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# what a source may hold once its whitespace is single spaces
_ALPHABET = re.compile(r"[0-9A-Za-z_. +\-*/^()]*")


def _walk(node, text, depth):
    """The tuple tree of an ast node at the given nesting depth."""
    if depth > MAX_DEPTH:
        raise ExpressionParseError("nested deeper than %d levels" % MAX_DEPTH)
    # text is one line of ASCII, so column offsets index its characters
    segment = text[node.col_offset:node.end_col_offset]
    match node:
        case (ast.BinOp(left, ast.Pow(), ast.Constant() as power)
              | ast.BinOp(left, ast.Pow(),
                          ast.UnaryOp(ast.USub(), ast.Constant() as power))
              ) if (value := _walk(power, text, depth + 1)[1]).is_integer():
            sign = 1 if power is node.right else -1
            return ("pow", _walk(left, text, depth + 1), sign * int(value))
        case ast.BinOp(left, op, right) if type(op) in _OPERATORS:
            return (_OPERATORS[type(op)], _walk(left, text, depth + 1),
                    _walk(right, text, depth + 1))
        case ast.UnaryOp(ast.USub(), operand):
            return ("neg", _walk(operand, text, depth + 1))
        case ast.Name("x"):
            return ("x",)
        case ast.Call(ast.Name("sin" | "cos" | "exp" as name), [arg], []):
            return (name, _walk(arg, text, depth + 1))
        case ast.Constant() if _LITERAL.fullmatch(segment):
            return ("num", float(segment))
    raise ExpressionParseError("unexpected %r in an expression" % segment)


def parse_expression(source):
    """Parse an infix expression string into a tree of nested tuples.

    The grammar: decimal literals with an optional exponent, and x;
    + - * /, unary -, and ^ with an integer literal exponent, optionally
    negated; sin, cos and exp of one argument; parentheses and any
    whitespace; at most MAX_DEPTH levels of nesting.  -x^2 is
    ("neg", ("pow", ("x",), 2)).  Anything else raises ExpressionParseError.
    Python's ast parses the text once its digits are ASCII, its integers
    floats (ast refuses 007), and each ^ before a literal **; any other ^
    stays a xor, which the walk refuses.
    """
    if not isinstance(source, str):
        raise ExpressionParseError("expected a string, got %r" % (source,))
    text = re.sub(r"\d", lambda m: str(int(m[0])), " ".join(source.split()))
    text = re.sub(r"(?<![\w.])(?<![eE][+-])(\d+)(?![\w.])", r"\1.", text)
    if "**" in text or not _ALPHABET.fullmatch(text):
        raise ExpressionParseError("unexpected character in %r" % (source,))
    text = re.sub(r"\^(?=\s*-?\s*[\d.])", "**", text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ast warns of 1if x, refused
            tree = ast.parse(text, mode="eval").body
    # CPython reports too deep a source as MemoryError or RecursionError
    except (SyntaxError, MemoryError, RecursionError) as exc:
        raise ExpressionParseError("cannot parse %r: %s" % (
            source, str(exc) or type(exc).__name__)) from None
    return _walk(tree, text, 0)


def _propagate(node, x, p):
    """The jet of order p at x of an expression tree."""
    match node:
        case ("num", value):
            return [float(value)] + [0.0] * p
        case ("x",):
            return [x] + [1.0] * min(p, 1) + [0.0] * (p - 1)
        case ("neg", u):
            return [-c for c in _propagate(u, x, p)]
        case ("add", u, v):
            return [a + b for a, b in zip(_propagate(u, x, p),
                                          _propagate(v, x, p))]
        case ("sub", u, v):
            return [a - b for a, b in zip(_propagate(u, x, p),
                                          _propagate(v, x, p))]
        case ("mul", u, v):
            return _mul(_propagate(u, x, p), _propagate(v, x, p))
        case ("div", u, v):
            return _div(_propagate(u, x, p), _propagate(v, x, p))
        case ("pow", u, k):
            return _pow(_propagate(u, x, p), k)
        case ("sin", u):
            return _sin_cos(_propagate(u, x, p))[0]
        case ("cos", u):
            return _sin_cos(_propagate(u, x, p))[1]
        case ("exp", u):
            return _exp(_propagate(u, x, p))
    raise ExpressionParseError("unknown node kind %r" % (node[0],))


def jet_propagate(tree, x, p):
    """The derivatives of orders 0 .. p at x of a tree that parse_expression
    returns: c_q * q! from its Taylor coefficients c_q.  Raises
    InvalidConfiguration, before any work, unless p is an integer from 0
    to MAX_ORDER (_exponent), and OverflowError for math's ValueError at
    an overflowed value: sin or cos of inf, or inf - inf in a compensated
    sum.
    """
    p = _exponent(p, "derivative order", MAX_ORDER)
    try:
        jet = _propagate(tree, float(x), p)
    except ValueError as exc:
        raise OverflowError("jet at x=%r: %s" % (x, exc)) from None
    return [c * math.factorial(q) for q, c in enumerate(jet)]


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
    """

    kind: str
    s: int = 0
    omega: float = 0.0
    rate: float = 0.0
    tree: tuple | None = None


def constant():
    return BasisFunction("constant")


def _exponent(s, name="power exponent", top=MAX_EXPONENT):
    """s as an int.  Raises InvalidConfiguration unless s is an integer
    from 0 to top: integral floats such as 2.0 and numpy integers pass,
    bools and strings do not."""
    if isinstance(s, bool) or not isinstance(s, numbers.Real) or not (
            0 <= s <= top and s % 1 == 0):
        raise InvalidConfiguration("%s must be an integer from 0 to %s, "
                                   "got %r" % (name, top, s))
    return int(s)


def power(s):
    """x^s, for s an integer from 0 to MAX_EXPONENT (InvalidConfiguration
    otherwise), stored as an int."""
    return BasisFunction("power", s=_exponent(s))


# the sine, cosine and exponential parameters follow confluent.finite_real
def sine(omega):
    return BasisFunction("sine", omega=finite_real(omega, "omega"))


def cosine(omega):
    return BasisFunction("cosine", omega=finite_real(omega, "omega"))


def exponential(rate):
    return BasisFunction("exponential", rate=finite_real(rate, "rate"))


def inverse_quadratic():
    return BasisFunction("inverse-quadratic")


def expression(source):
    """Build an expression-kind basis function from infix source text."""
    return BasisFunction("expression", tree=parse_expression(source))


def _column(b, x, top):
    """Derivatives of orders 0 .. top at x of one member that is neither a
    power nor the constant: closed forms for catalog kinds, one jet of
    order top for expressions.  A truncated jet is prefix-stable
    (coefficient k depends only on orders <= k), so entry p equals the top
    derivative jet_propagate gives at order p.
    """
    orders = range(top + 1)
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
    return jet_propagate(b.tree, x, top)


# ----------------------------------------------------------------------
# Basis systems
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _gather(exponents, table_size, top):
    """(I, F), both (top+1) x (n+1) and read-only, for the members'
    exponents (None for a member that is no power).  tensor lists per
    point x^k for k < table_size, then each other member's column of
    orders 0 .. top; entry [p, j] of the tensor is F[p, j] * values[I[p, j]]:
    F = perm(s, p), 0 for p > s, and I = max(s - p, 0) for a power of
    exponent s, F = 1.0 for another member.  Systems with equal exponents
    share the cached tables."""
    index, factor = [], []
    for p in range(top + 1):
        start = table_size + p
        index_row, factor_row = [], []
        for s in exponents:
            if s is None:
                index_row.append(start)
                factor_row.append(1.0)
                start += top + 1
            else:
                index_row.append(max(s - p, 0))
                factor_row.append(float(math.perm(s, p)))
        index.append(index_row)
        factor.append(factor_row)
    tables = np.array(index, dtype=np.intp), np.array(factor)
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class BasisSystem:
    """Ordered family of n+1 basis functions on an open interval.

    The family is assumed to form a Chebyshev system on the interval;
    nonsingularity is verified only at concrete node sets, when confluent
    matrices are built from them.

    __post_init__ refuses a domain other than two real numbers
    (confluent.real_sequence), a member of unknown kind, or a parameter
    that power(), sine(), cosine() or exponential() would refuse, with
    InvalidConfiguration, and an empty domain (a NaN bound too) with
    DomainError.  It stores the bounds as floats
    and plans tensor: each power member's exponent as an int (the constant
    is x^0) and the other members.  Each order's gather tables come from
    _gather, whose cache systems of equal exponents share.
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
        if not (real_sequence(self.domain) and len(self.domain) == 2):
            raise InvalidConfiguration("domain must be two real numbers, "
                                       "got %r" % (self.domain,))
        lo, hi = map(float, self.domain)
        if not lo < hi:
            raise DomainError("empty domain (%g, %g)" % (lo, hi))
        object.__setattr__(self, "domain", (lo, hi))
        for b in self.functions:
            if b.kind not in _KINDS:
                raise InvalidConfiguration("unknown basis kind %r" % (b.kind,))
            if b.kind in ("sine", "cosine"):
                finite_real(b.omega, "omega")
            elif b.kind == "exponential":
                finite_real(b.rate, "rate")
        exponents = tuple(_exponent(b.s) if b.kind == "power"
                          else 0 if b.kind == "constant" else None
                          for b in self.functions)
        table_size = max((s for s in exponents if s is not None), default=0) + 1
        for name, value in (
                ("_exponents", exponents),
                ("_table_size", table_size),
                ("_orders", np.arange(table_size, dtype=float)),
                ("_others", [b for b, s in zip(self.functions, exponents)
                             if s is None])):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.functions)

    def contains(self, x):
        """lo < x < hi: NaN and the infinities fail it with any bounds,
        since __post_init__ refuses a NaN bound."""
        lo, hi = self.domain
        return lo < x < hi

    def eval(self, j, x, p=0):
        """The p-th derivative of member j at x: entry (p, j) of rows(x, p),
        which raises wherever rows does, and InvalidConfiguration unless j
        is a member index (confluent.checked_index)."""
        return float(self.rows(x, p)[-1, checked_index(j, len(self),
                                                       "member index")])

    def rows(self, x, top):
        """tensor([x], top)[0]: the (top+1) x (n+1) array whose row p
        holds phi_j^(p)(x)."""
        return self.tensor([x], top)[0]

    def tensor(self, xs, top):
        """(m, top+1, n+1) array whose entry [i, p, j] is phi_j^(p)(xs[i]).

        Each entry is bit for bit what member j's formula gives at xs[i]
        alone: x^(s-p) is one libm pow call, as Python's float ** int in
        perm(s, p) * x ** (s - p) makes it, from one np.float_power (not
        np.power, which need not call pow), and every other member runs
        its scalar formula once per point.  Raises DomainError for a point
        outside the domain, InvalidConfiguration unless top is an integer
        from 0 to MAX_ORDER (_exponent; 2.0 is 2), and OverflowError where
        a power or a member's formula leaves the float range, point by
        point: x's highest power, then its other members.  A system of
        powers only checks the highest power of the largest |x| alone,
        which overflows if any point's does.
        """
        points = np.asarray(xs, dtype=float)
        xs = points.tolist()
        lo, hi = self.domain
        for x in xs:  # contains(x), without a method call per point
            if not lo < x < hi:
                raise DomainError(
                    "x=%r outside open interval (%g, %g)" % (x, lo, hi))
        if type(top) is not int or not 0 <= top <= MAX_ORDER:
            top = _exponent(top, "derivative order", MAX_ORDER)
        index, factor = _gather(self._exponents, self._table_size, top)
        table = self._table_size
        values = np.empty((len(xs), table + len(self._others) * (top + 1)))
        if self._others:
            others = []
            for x in xs:
                x ** (table - 1)  # raises if a power of x overflows
                point = []
                for b in self._others:
                    point += _column(b, x, top)
                others.append(point)
            values[:, table:] = others
        else:  # |x| ** k grows with |x|: the largest overflows if any does
            max(map(abs, xs), default=0.0) ** (table - 1)
        np.float_power(points[:, None], self._orders, out=values[:, :table])
        with np.errstate(over="ignore"):  # inf, as int * float gives it
            return factor * values.take(index, axis=1)


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
