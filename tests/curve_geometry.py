"""Bernstein-form geometry of a `QuadraticCurve`, kept as test oracles.

The library's curve holds only what an SCS step uses: `eval`, the endpoint
`p2` and `is_straight_line`.  These helpers restate it as a quadratic
Bezier curve with control points P0 = x, P1 = x + d/2 and P2 = x + s, and
give the convex combination behind its hull property: once P0, P1 and P2
are feasible, so is every point of the curve, which is what lets the SCS
step skip the certificate when its endpoint is feasible.  `halfspace_x1`
is the half-plane the curve and solver tests share.
"""

from dataclasses import dataclass

import numpy as np

from curveopt.curves import QuadraticCurve
from curveopt.errors import ContractError, DomainError
from curveopt.sets import FEAS_TOL, ConvexFeasibleSet


def _check_t(t):
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"curve parameter t = {t} outside [0, 1]")


def p0(c: QuadraticCurve):
    return c.x


def p1(c: QuadraticCurve):
    return c.x + 0.5 * c.d


def eval_bernstein(c: QuadraticCurve, t: float):
    _check_t(t)
    u = 1.0 - t
    return (u * u) * p0(c) + (2.0 * t * u) * p1(c) + (t * t) * c.p2


def velocity(c: QuadraticCurve, t: float):
    _check_t(t)
    return c.d + (2.0 * t) * (c.s - c.d)


@dataclass(frozen=True)
class HullCoefficients:
    """Convex combination expressing gamma(t) in terms of (P0, P1, gamma(t_hat))."""

    a0: float
    a1: float
    a2: float
    t: float
    t_hat: float


def hull_coefficients(t: float, t_hat: float) -> HullCoefficients:
    """Coefficients valid for any quadratic Bezier curve, 0 <= t <= t_hat <= 1."""
    if not 0.0 < t_hat <= 1.0:
        raise DomainError(f"t_hat = {t_hat} outside (0, 1]")
    if not 0.0 <= t <= t_hat:
        raise DomainError(f"t = {t} outside [0, {t_hat}]")
    q = t / t_hat
    a2 = q * q
    a0 = (1.0 - t) ** 2 - a2 * (1.0 - t_hat) ** 2
    a1 = 2.0 * t * (1.0 - t) - 2.0 * q * t * (1.0 - t_hat)
    return HullCoefficients(a0=a0, a1=a1, a2=a2, t=t, t_hat=t_hat)


def reconstruct_from_hull(c: QuadraticCurve, h: HullCoefficients):
    return h.a0 * p0(c) + h.a1 * p1(c) + h.a2 * c.eval(h.t_hat)


def infeasibility_propagates(
    c: QuadraticCurve, fset: ConvexFeasibleSet, t_hat: float, i: int
) -> bool:
    """Whether constraint i is violated at gamma(t_hat).

    Requires P0 and P1 feasible for constraint i; under that precondition a
    violation anywhere on (0, 1] implies a violation at the endpoint P2,
    which is what property tests check through this oracle.
    """
    _check_t(t_hat)
    if fset.g(p0(c))[i] > FEAS_TOL or fset.g(p1(c))[i] > FEAS_TOL:
        raise ContractError("P0 and P1 must be feasible for constraint i")
    return bool(fset.g(c.eval(t_hat))[i] > 0.0)


def halfspace_x1(n=2):
    """Test-only set {x : x^1 <= 0} with closed-form projection."""

    def g(x):
        return np.array([x[0]])

    def project(x):
        out = np.array(x, dtype=float)
        out[0] = min(out[0], 0.0)
        return out

    return ConvexFeasibleSet("half", n, g, project)
