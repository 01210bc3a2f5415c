"""jet_propagate against a 50-digit Taylor oracle.

Seeded random expression trees of depth at most 4 cover every node kind,
negative powers included.  At a point x drawn from [-2, 2], the
derivatives of orders 0 .. 8 that jet_propagate returns must agree with
mpmath.taylor of the same tree at 50 digits (times q!) within a relative
1e-8; an exact 0 must come out as 0.

Filter: rounding perturbs every coefficient of every node by about 1e-16,
and some trees amplify that far beyond 1e-8, say 1/(1/cos x) near a zero
of cos.  So the same recurrences run at 50 digits with every coefficient
of every node moved by a random relative amount of at most 2^-40.  An
order whose derivative then moves by more than 1e-6 of its oracle value
is ill-conditioned there and skipped, as is every order of a point where
an oracle value leaves the float range.  At an exact pole (a divisor
that is 0 at 50 digits) jet_propagate must raise DivisionBySingularJet.
"""

import math
import random

import pytest

from simroots import DivisionBySingularJet, jet_propagate

mp = pytest.importorskip("mpmath")

KINDS = ("num", "x", "neg", "add", "sub", "mul", "div", "pow", "sin", "cos",
         "exp")
ORDER = 8


def _random_tree(rng, depth):
    kind = rng.choice(KINDS[:2] if depth == 0 else KINDS)
    if kind == "num":
        return ("num", rng.choice((0.25, 0.5, 1.25, 1.5, 2.0, 3.0)))
    if kind == "x":
        return ("x",)
    if kind == "pow":
        return ("pow", _random_tree(rng, depth - 1),
                rng.choice((-3, -2, -1, 2, 3)))
    if kind in ("neg", "sin", "cos", "exp"):
        return (kind, _random_tree(rng, depth - 1))
    return (kind, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _value(node, y):
    """The tree's value at the mpf y."""
    match node:
        case ("num", value):
            return mp.mpf(value)
        case ("x",):
            return y
        case ("neg", u):
            return -_value(u, y)
        case ("pow", u, k):
            return _value(u, y) ** k
        case ("sin" | "cos" | "exp" as name, u):
            return getattr(mp, name)(_value(u, y))
        case ("add", u, v):
            return _value(u, y) + _value(v, y)
        case ("sub", u, v):
            return _value(u, y) - _value(v, y)
        case ("mul", u, v):
            return _value(u, y) * _value(v, y)
        case ("div", u, v):
            return _value(u, y) / _value(v, y)


def _mul(a, b):
    return [mp.fsum(a[j] * b[k - j] for j in range(k + 1))
            for k in range(ORDER + 1)]


def _div(a, b):
    out = []
    for k in range(ORDER + 1):
        out.append((a[k] - mp.fsum(b[j] * out[k - j]
                                   for j in range(1, k + 1))) / b[0])
    return out


def _chain(u, v, k):
    """(1/k) sum_j j u_j v_(k-j): coefficient k of the integral of u' v."""
    return mp.fsum(j * u[j] * v[k - j] for j in range(1, k + 1)) / k


def _coefficients(node, x, move):
    """The tree's Taylor coefficients at x through the usual recurrences,
    each coefficient of each node times 1 + move()."""
    zeros = [mp.mpf(0)] * ORDER
    match node:
        case ("num", value):
            c = [mp.mpf(value)] + zeros
        case ("x",):
            c = [mp.mpf(x), mp.mpf(1)] + zeros[1:]
        case ("pow", u, k):
            u = _coefficients(u, x, move)
            c = [mp.mpf(1)] + zeros
            for _ in range(abs(k)):
                c = _mul(c, u)
            if k < 0:
                c = _div([mp.mpf(1)] + zeros, c)
        case ("neg", u):
            c = [-v for v in _coefficients(u, x, move)]
        case ("exp", u):
            u = _coefficients(u, x, move)
            c = [mp.exp(u[0])] + zeros
            for k in range(1, ORDER + 1):
                c[k] = _chain(u, c, k)
        case ("sin" | "cos" as kind, u):
            u = _coefficients(u, x, move)
            s, co = [mp.sin(u[0])] + zeros, [mp.cos(u[0])] + zeros
            for k in range(1, ORDER + 1):
                s[k], co[k] = _chain(u, co, k), -_chain(u, s, k)
            c = s if kind == "sin" else co
        case ("add", u, v):
            c = [a + b for a, b in zip(_coefficients(u, x, move),
                                       _coefficients(v, x, move))]
        case ("sub", u, v):
            c = [a - b for a, b in zip(_coefficients(u, x, move),
                                       _coefficients(v, x, move))]
        case ("mul", u, v):
            c = _mul(_coefficients(u, x, move), _coefficients(v, x, move))
        case ("div", u, v):
            c = _div(_coefficients(u, x, move), _coefficients(v, x, move))
    return [v * (1 + move()) for v in c]


def _nodes(tree):
    yield tree
    for child in tree[1:]:
        if isinstance(child, tuple):
            yield from _nodes(child)


def test_jets_match_a_50_digit_taylor_oracle():
    rng = random.Random(1)
    kinds, powers, checked, skipped = set(), set(), 0, 0
    for _ in range(150):
        tree = _random_tree(rng, rng.randint(1, 4))
        x = rng.uniform(-2.0, 2.0)
        kinds.update(node[0] for node in _nodes(tree))
        powers.update(node[2] for node in _nodes(tree) if node[0] == "pow")
        with mp.workdps(50):
            try:
                oracle = [c * math.factorial(q) for q, c in enumerate(
                    mp.taylor(lambda y: _value(tree, y), mp.mpf(x), ORDER))]
            except ZeroDivisionError:
                with pytest.raises(DivisionBySingularJet):
                    jet_propagate(tree, x, ORDER)
                continue
            if any(abs(d) > 1e300 for d in oracle):
                skipped += ORDER + 1
                continue
            moved = _coefficients(
                tree, x, lambda: rng.uniform(-1.0, 1.0) * 2.0 ** -40)
        derivatives = jet_propagate(tree, x, ORDER)
        for q, (got, want) in enumerate(zip(derivatives, oracle)):
            if abs(moved[q] * math.factorial(q) - want) > 1e-6 * abs(want):
                skipped += 1
                continue
            checked += 1
            assert abs(got - want) <= 1e-8 * abs(want), (tree, x, q, got, want)
    assert kinds == set(KINDS) and min(powers) < 0
    # the filter leaves most of the entries
    assert checked > 9 * skipped, (checked, skipped)

