"""Smooth benchmark objectives with analytic gradients.

A small self-contained suite of classical unconstrained test functions,
each with a documented start point, used as the objective half of the
constrained benchmark instances.  Dimensions span n = 2 up to n = 1000.

The problems with n <= 4 (rosenbrock2, beale2, wood4, chnrosnb4) are closed
forms evaluated on Python floats (`_on_floats`), bit for bit the values of
their numpy reference.  The others keep numpy's vector formulas, whose bits
a scalar rewrite would not keep: numpy sums 8 or more entries pairwise, not
left to right (chnrosnb100's sums have 99 terms), and an array's ** 3 and
** 4 may round unlike libm's pow (powell20).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError

Vector = np.ndarray

#: `a.sum()` for 1-D a, without the Python frame of numpy's method wrapper
_sum = np.add.reduce


@dataclass(frozen=True)
class SmoothProblem:
    """A differentiable objective f with gradient oracle and start point.

    `f` and `grad` raise ValueError for a point not of shape (dim,)."""

    name: str
    dim: int
    eval_f: Callable[[Vector], float] = field(repr=False)
    eval_grad: Callable[[Vector], Vector] = field(repr=False)
    start: Vector = field(repr=False)

    def f(self, x: Vector) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point for {self.name} has shape {x.shape}")
        return float(self.eval_f(x))

    def grad(self, x: Vector) -> Vector:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point for {self.name} has shape {x.shape}")
        g = np.asarray(self.eval_grad(x), dtype=float)
        if g.shape != (self.dim,):
            raise ValueError(f"gradient of {self.name} has shape {g.shape}")
        return g


# ---------------------------------------------------------------------------
# objective definitions


def _on_floats(body):
    """The oracle `x -> body(x0, x1, ...)`, run on x's entries as Python floats.

    Only for formulas that do not divide.  A Python float rounds + - * / as
    a numpy float64 scalar does, and both take ** from libm, so the result
    is bit for bit the one on numpy's scalars, without numpy's cost per
    scalar operation.  Python raises where numpy returns inf or nan in two
    places: a power that overflows, and division by zero.  On OverflowError
    the body runs again on numpy's scalars, which return inf with a
    RuntimeWarning.

    A square is written as its reference computes it, since `t * t` rounds
    unlike `t ** 2` at about one value in a thousand.  Where the reference
    squares a numpy scalar, it stays `t ** 2` (libm's pow).  Where the
    reference squares an array, it is `t * t`: an array's ** 2 is
    np.square, a product, and a product never raises OverflowError.  numpy
    sums fewer than 8 entries left to right, so such a sum is written
    `a + b + c`, never `sum()`, which from Python 3.12 on compensates.
    """

    def oracle(x):
        try:
            return body(*x.tolist())
        except OverflowError:
            return body(*x)

    return oracle


@_on_floats
def _rosenbrock_f(x0, x1):
    return 100.0 * (x1 - x0**2) ** 2 + (1.0 - x0) ** 2


@_on_floats
def _rosenbrock_grad(x0, x1):
    return np.array(
        [
            -400.0 * x0 * (x1 - x0**2) - 2.0 * (1.0 - x0),
            200.0 * (x1 - x0**2),
        ]
    )


def _chained_rosenbrock(scale):
    def f(x):
        head = x[:-1]
        r = x[1:] - head**2
        return scale * float(100.0 * _sum(r**2) + _sum((1.0 - head) ** 2))

    def grad(x):
        head = x[:-1]
        r = x[1:] - head**2
        g = np.zeros(x.shape)
        g[:-1] += -400.0 * head * r - 2.0 * (1.0 - head)
        g[1:] += 200.0 * r
        return scale * g

    return f, grad


@_on_floats
def _beale_f(x0, x1):
    t1 = 1.5 - x0 + x0 * x1
    t2 = 2.25 - x0 + x0 * x1**2
    t3 = 2.625 - x0 + x0 * x1**3
    return t1**2 + t2**2 + t3**2


@_on_floats
def _beale_grad(x0, x1):
    t1 = 1.5 - x0 + x0 * x1
    t2 = 2.25 - x0 + x0 * x1**2
    t3 = 2.625 - x0 + x0 * x1**3
    g0 = 2.0 * t1 * (x1 - 1.0) + 2.0 * t2 * (x1**2 - 1.0) + 2.0 * t3 * (x1**3 - 1.0)
    g1 = 2.0 * t1 * x0 + 2.0 * t2 * 2.0 * x0 * x1 + 2.0 * t3 * 3.0 * x0 * x1**2
    return np.array([g0, g1])


@_on_floats
def _wood_f(x0, x1, x2, x3):
    return (
        100.0 * (x1 - x0**2) ** 2
        + (1.0 - x0) ** 2
        + 90.0 * (x3 - x2**2) ** 2
        + (1.0 - x2) ** 2
        + 10.0 * (x1 + x3 - 2.0) ** 2
        + 0.1 * (x1 - x3) ** 2
    )


@_on_floats
def _wood_grad(x0, x1, x2, x3):
    return np.array(
        [
            -400.0 * x0 * (x1 - x0**2) - 2.0 * (1.0 - x0),
            200.0 * (x1 - x0**2) + 20.0 * (x1 + x3 - 2.0) + 0.2 * (x1 - x3),
            -360.0 * x2 * (x3 - x2**2) - 2.0 * (1.0 - x2),
            180.0 * (x3 - x2**2) + 20.0 * (x1 + x3 - 2.0) - 0.2 * (x1 - x3),
        ]
    )


# chnrosnb4: _chained_rosenbrock(1.0) at n = 4, whose array ** 2 is a
# product and whose 3-entry sums run left to right
@_on_floats
def _chnrosnb4_f(x0, x1, x2, x3):
    r0 = x1 - x0 * x0
    r1 = x2 - x1 * x1
    r2 = x3 - x2 * x2
    u0 = 1.0 - x0
    u1 = 1.0 - x1
    u2 = 1.0 - x2
    return 100.0 * (r0 * r0 + r1 * r1 + r2 * r2) + (u0 * u0 + u1 * u1 + u2 * u2)


@_on_floats
def _chnrosnb4_grad(x0, x1, x2, x3):
    r0 = x1 - x0 * x0
    r1 = x2 - x1 * x1
    r2 = x3 - x2 * x2
    # each entry starts at the 0.0 of np.zeros, which turns -0.0 into +0.0
    return np.array(
        [
            0.0 + (-400.0 * x0 * r0 - 2.0 * (1.0 - x0)),
            0.0 + (-400.0 * x1 * r1 - 2.0 * (1.0 - x1)) + 200.0 * r0,
            0.0 + (-400.0 * x2 * r2 - 2.0 * (1.0 - x2)) + 200.0 * r1,
            0.0 + 200.0 * r2,
        ]
    )


def _diag_quadratic(n, center=None, scale=1.0):
    w = scale * np.arange(1, n + 1, dtype=float)
    two_w = 2.0 * w
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)

    def f(x):
        return float(_sum(w * (x - c) ** 2))

    def grad(x):
        return two_w * (x - c)

    return f, grad


def _extended_powell(n):
    assert n % 4 == 0

    def f(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(
            _sum((x1 + 10.0 * x2) ** 2)
            + 5.0 * _sum((x3 - x4) ** 2)
            + _sum((x2 - 2.0 * x3) ** 4)
            + 10.0 * _sum((x1 - x4) ** 4)
        )

    def grad(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        g = np.zeros(x.shape)
        a = x1 + 10.0 * x2
        b = x3 - x4
        c = x2 - 2.0 * x3
        d = x1 - x4
        c3 = c**3
        d3 = d**3
        g[0::4] = 2.0 * a + 40.0 * d3
        g[1::4] = 20.0 * a + 4.0 * c3
        g[2::4] = 10.0 * b - 8.0 * c3
        g[3::4] = -10.0 * b - 40.0 * d3
        return g

    return f, grad


def _trigonometric(n):
    idx = np.arange(1, n + 1, dtype=float)

    def residuals(cos, sin):
        return n - _sum(cos) + idx * (1.0 - cos) - sin

    def f(x):
        return float(_sum(residuals(np.cos(x), np.sin(x)) ** 2))

    def grad(x):
        cos = np.cos(x)
        sin = np.sin(x)
        r = residuals(cos, sin)
        # dr_i/dx_j = sin(x_j) + [i == j] (idx_i sin(x_i) - cos(x_i)); grad = 2 J'r
        g = 2.0 * _sum(r) * sin
        g += 2.0 * r * (idx * sin - cos)
        return g

    return f, grad


def _engval1(n):
    def f(x):
        return float(_sum((x[:-1] ** 2 + x[1:] ** 2) ** 2) + _sum(-4.0 * x[:-1] + 3.0))

    def grad(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros(x.shape)
        g[:-1] += 4.0 * x[:-1] * t - 4.0
        g[1:] += 4.0 * x[1:] * t
        return g

    return f, grad


def _arwhead(n):
    def f(x):
        return float(_sum((x[:-1] ** 2 + x[-1] ** 2) ** 2 - 4.0 * x[:-1] + 3.0))

    def grad(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        g = np.zeros(x.shape)
        g[:-1] = 4.0 * x[:-1] * t - 4.0
        g[-1] += _sum(4.0 * x[-1] * t)
        return g

    return f, grad


def _tridiagonal(n, scale):
    # f = scale * [ (x_1 - 1)^2 + sum_{i=2}^n i (2 x_i - x_{i-1})^2 ]
    idx = np.arange(2, n + 1, dtype=float)
    four_idx = 4.0 * idx
    minus_two_idx = -2.0 * idx

    def f(x):
        r = 2.0 * x[1:] - x[:-1]
        return scale * float((x[0] - 1.0) ** 2 + _sum(idx * r**2))

    def grad(x):
        r = 2.0 * x[1:] - x[:-1]
        g = np.zeros(x.shape)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += four_idx * r
        g[:-1] += minus_two_idx * r
        return scale * g

    return f, grad


def _tile(pattern, n):
    reps = -(-n // len(pattern))
    return np.tile(np.asarray(pattern, dtype=float), reps)[:n]


def _build_suite() -> list[SmoothProblem]:
    out = []

    out.append(
        SmoothProblem("rosenbrock2", 2, _rosenbrock_f, _rosenbrock_grad, np.array([-1.2, 1.0]))
    )
    out.append(SmoothProblem("beale2", 2, _beale_f, _beale_grad, np.array([1.0, 1.0])))
    out.append(SmoothProblem("wood4", 4, _wood_f, _wood_grad, np.array([-3.0, -1.0, -3.0, -1.0])))

    # chained Rosenbrock; the n = 100 instance is scaled by 1/n to keep
    # objective magnitudes compatible with finite-difference validation
    out.append(
        SmoothProblem("chnrosnb4", 4, _chnrosnb4_f, _chnrosnb4_grad, _tile([-1.2, 1.0], 4))
    )
    f, g = _chained_rosenbrock(1.0 / 100.0)
    out.append(SmoothProblem("chnrosnb100", 100, f, g, _tile([-1.2, 1.0], 100)))

    # strictly convex diagonal quadratics, centered at the origin; the
    # n = 500 instance is scaled by 1/n to keep objective magnitudes
    # compatible with finite-difference validation
    for n, scale in ((50, 1.0), (500, 1.0 / 500.0)):
        f, g = _diag_quadratic(n, scale=scale)
        out.append(SmoothProblem(f"quad_diag{n}", n, f, g, np.ones(n)))

    # shifted diagonal quadratic: center alternates +/-2, so box-constrained
    # minima lie on the boundary with a per-coordinate closed form
    center = _tile([2.0, -2.0], 50)
    f, g = _diag_quadratic(50, center)
    out.append(SmoothProblem("quad_shift50", 50, f, g, np.zeros(50)))

    f, g = _extended_powell(20)
    out.append(SmoothProblem("powell20", 20, f, g, _tile([3.0, -1.0, 0.0, 1.0], 20)))

    f, g = _trigonometric(10)
    out.append(SmoothProblem("trigls10", 10, f, g, np.full(10, 0.1)))

    f, g = _engval1(50)
    out.append(SmoothProblem("engval50", 50, f, g, np.full(50, 2.0)))

    f, g = _arwhead(100)
    out.append(SmoothProblem("arwhead100", 100, f, g, np.ones(100)))

    # scaled by 1/n for the same reason as chnrosnb100
    f, g = _tridiagonal(1000, 1.0 / 1000.0)
    out.append(SmoothProblem("tridia1000", 1000, f, g, np.ones(1000)))

    return out


_SUITE = _build_suite()
_REGISTRY = {p.name: p for p in _SUITE}


def list_problems() -> list[SmoothProblem]:
    """All suite problems, in registry order."""
    return list(_SUITE)


def get_problem(name: str) -> SmoothProblem:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(_REGISTRY)}") from None


def check_gradient(p: SmoothProblem, x: Vector, h: float) -> float:
    """Max relative error between the analytic gradient and central differences.

    The relative denominator is max(1, |analytic component|) so the measure
    stays meaningful near stationary points.  A step h outside (0, inf)
    raises ValueError; a non-finite analytic gradient entry or objective
    value raises EvaluationError.
    """
    if not 0.0 < h < np.inf:  # NaN fails too
        raise ValueError(f"step h must be positive and finite, not {h!r}")
    x = np.asarray(x, dtype=float)
    analytic = p.grad(x)
    bad = np.flatnonzero(~np.isfinite(analytic))
    if bad.size:
        i = int(bad[0])
        raise EvaluationError(f"{p.name}: analytic gradient entry {i} is {float(analytic[i])}")
    worst = 0.0
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        fp = p.f(x + e)
        fm = p.f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"{p.name}: non-finite objective near coordinate {i}")
        fd = (fp - fm) / (2.0 * h)
        err = abs(fd - analytic[i]) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst
