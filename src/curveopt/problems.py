"""Smooth benchmark objectives with analytic gradients.

A small self-contained suite of classical unconstrained test functions,
each with a documented start point, used as the objective half of the
constrained benchmark instances.  Dimensions span n = 2 up to n = 1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError

Vector = np.ndarray


@dataclass(frozen=True)
class SmoothProblem:
    """A differentiable objective f with gradient oracle and start point."""

    name: str
    dim: int
    eval_f: Callable[[Vector], float] = field(repr=False)
    eval_grad: Callable[[Vector], Vector] = field(repr=False)
    start: Vector = field(repr=False)

    def f(self, x: Vector) -> float:
        return float(self.eval_f(np.asarray(x, dtype=float)))

    def grad(self, x: Vector) -> Vector:
        g = np.asarray(self.eval_grad(np.asarray(x, dtype=float)), dtype=float)
        if g.shape != (self.dim,):
            raise ValueError(f"gradient of {self.name} has shape {g.shape}")
        return g


# ---------------------------------------------------------------------------
# objective definitions


def _rosenbrock_f(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def _rosenbrock_grad(x):
    return np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )


def _chained_rosenbrock(scale):
    def f(x):
        r = x[1:] - x[:-1] ** 2
        return scale * float(100.0 * (r**2).sum() + ((1.0 - x[:-1]) ** 2).sum())

    def grad(x):
        r = x[1:] - x[:-1] ** 2
        g = np.zeros(x.shape)
        g[:-1] += -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * r
        return scale * g

    return f, grad


def _beale_f(x):
    t1 = 1.5 - x[0] + x[0] * x[1]
    t2 = 2.25 - x[0] + x[0] * x[1] ** 2
    t3 = 2.625 - x[0] + x[0] * x[1] ** 3
    return t1**2 + t2**2 + t3**2


def _beale_grad(x):
    t1 = 1.5 - x[0] + x[0] * x[1]
    t2 = 2.25 - x[0] + x[0] * x[1] ** 2
    t3 = 2.625 - x[0] + x[0] * x[1] ** 3
    g0 = 2.0 * t1 * (x[1] - 1.0) + 2.0 * t2 * (x[1] ** 2 - 1.0) + 2.0 * t3 * (x[1] ** 3 - 1.0)
    g1 = 2.0 * t1 * x[0] + 2.0 * t2 * 2.0 * x[0] * x[1] + 2.0 * t3 * 3.0 * x[0] * x[1] ** 2
    return np.array([g0, g1])


def _wood_f(x):
    return (
        100.0 * (x[1] - x[0] ** 2) ** 2
        + (1.0 - x[0]) ** 2
        + 90.0 * (x[3] - x[2] ** 2) ** 2
        + (1.0 - x[2]) ** 2
        + 10.0 * (x[1] + x[3] - 2.0) ** 2
        + 0.1 * (x[1] - x[3]) ** 2
    )


def _wood_grad(x):
    g = np.zeros(4)
    g[0] = -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0])
    g[1] = 200.0 * (x[1] - x[0] ** 2) + 20.0 * (x[1] + x[3] - 2.0) + 0.2 * (x[1] - x[3])
    g[2] = -360.0 * x[2] * (x[3] - x[2] ** 2) - 2.0 * (1.0 - x[2])
    g[3] = 180.0 * (x[3] - x[2] ** 2) + 20.0 * (x[1] + x[3] - 2.0) - 0.2 * (x[1] - x[3])
    return g


def _diag_quadratic(n, center=None, scale=1.0):
    w = scale * np.arange(1, n + 1, dtype=float)
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)

    def f(x):
        return float((w * (x - c) ** 2).sum())

    def grad(x):
        return 2.0 * w * (x - c)

    return f, grad, w, c


def _extended_powell(n):
    assert n % 4 == 0

    def f(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(
            ((x1 + 10.0 * x2) ** 2).sum()
            + 5.0 * ((x3 - x4) ** 2).sum()
            + ((x2 - 2.0 * x3) ** 4).sum()
            + 10.0 * ((x1 - x4) ** 4).sum()
        )

    def grad(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        g = np.zeros(x.shape)
        a = x1 + 10.0 * x2
        b = x3 - x4
        c = x2 - 2.0 * x3
        d = x1 - x4
        g[0::4] = 2.0 * a + 40.0 * d**3
        g[1::4] = 20.0 * a + 4.0 * c**3
        g[2::4] = 10.0 * b - 8.0 * c**3
        g[3::4] = -10.0 * b - 40.0 * d**3
        return g

    return f, grad


def _trigonometric(n):
    idx = np.arange(1, n + 1, dtype=float)

    def residuals(x):
        return n - np.cos(x).sum() + idx * (1.0 - np.cos(x)) - np.sin(x)

    def f(x):
        return float((residuals(x) ** 2).sum())

    def grad(x):
        r = residuals(x)
        # J[i, j] = sin(x_j) for j != i; diagonal adds (i+1) sin(x_i) - cos(x_i) - ... see residual
        s = np.sin(x)
        g = 2.0 * r.sum() * s
        g += 2.0 * r * (idx * s - np.cos(x))
        return g

    return f, grad


def _engval1(n):
    def f(x):
        return float(((x[:-1] ** 2 + x[1:] ** 2) ** 2).sum() + (-4.0 * x[:-1] + 3.0).sum())

    def grad(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros(x.shape)
        g[:-1] += 4.0 * x[:-1] * t - 4.0
        g[1:] += 4.0 * x[1:] * t
        return g

    return f, grad


def _arwhead(n):
    def f(x):
        return float(((x[:-1] ** 2 + x[-1] ** 2) ** 2 - 4.0 * x[:-1] + 3.0).sum())

    def grad(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        g = np.zeros(x.shape)
        g[:-1] = 4.0 * x[:-1] * t - 4.0
        g[-1] += (4.0 * x[-1] * t).sum()
        return g

    return f, grad


def _tridiagonal(n, scale):
    # f = scale * [ (x_1 - 1)^2 + sum_{i=2}^n i (2 x_i - x_{i-1})^2 ]
    idx = np.arange(2, n + 1, dtype=float)

    def f(x):
        r = 2.0 * x[1:] - x[:-1]
        return scale * float((x[0] - 1.0) ** 2 + (idx * r**2).sum())

    def grad(x):
        r = 2.0 * x[1:] - x[:-1]
        g = np.zeros(x.shape)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 4.0 * idx * r
        g[:-1] += -2.0 * idx * r
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
    f, g = _chained_rosenbrock(1.0)
    out.append(SmoothProblem("chnrosnb4", 4, f, g, _tile([-1.2, 1.0], 4)))
    f, g = _chained_rosenbrock(1.0 / 100.0)
    out.append(SmoothProblem("chnrosnb100", 100, f, g, _tile([-1.2, 1.0], 100)))

    # strictly convex diagonal quadratics, centered at the origin; the
    # n = 500 instance is scaled by 1/n to keep objective magnitudes
    # compatible with finite-difference validation
    for n, scale in ((50, 1.0), (500, 1.0 / 500.0)):
        f, g, _, _ = _diag_quadratic(n, scale=scale)
        out.append(SmoothProblem(f"quad_diag{n}", n, f, g, np.ones(n)))

    # shifted diagonal quadratic: center alternates +/-2, so box-constrained
    # minima lie on the boundary with a per-coordinate closed form
    center = _tile([2.0, -2.0], 50)
    f, g, _, _ = _diag_quadratic(50, center)
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


def problem_names() -> list[str]:
    return [p.name for p in _SUITE]


def check_gradient(p: SmoothProblem, x: Vector, h: float) -> float:
    """Max relative error between the analytic gradient and central differences.

    The relative denominator is max(1, |analytic component|) so the measure
    stays meaningful near stationary points.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    analytic = p.grad(x)
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
