"""Quadratic search curves and their feasibility machinery.

A curve is stored as (x, d, s): base point, primary direction and secondary
direction.  In monomial form it is x + t d + t^2 (s - d); the equivalent
Bernstein form has control points P0 = x, P1 = x + d/2, P2 = x + s.  When
s = d the quadratic term vanishes exactly and the curve is the straight
line x + t d.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .sets import FEAS_TOL, ConvexFeasibleSet

Vector = np.ndarray


def _check_t(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"curve parameter t = {t} outside [0, 1]")


@dataclass(frozen=True)
class QuadraticCurve:
    """Quadratic Bezier search curve through x with initial velocity d."""

    x: Vector
    d: Vector
    s: Vector

    @property
    def p0(self) -> Vector:
        return self.x

    @property
    def p1(self) -> Vector:
        return self.x + 0.5 * self.d

    @property
    def p2(self) -> Vector:
        return self.x + self.s

    def eval(self, t: float) -> Vector:
        _check_t(t)
        return self.x + t * self.d + (t * t) * (self.s - self.d)

    def eval_bernstein(self, t: float) -> Vector:
        _check_t(t)
        u = 1.0 - t
        return (u * u) * self.p0 + (2.0 * t * u) * self.p1 + (t * t) * self.p2

    def velocity(self, t: float) -> Vector:
        _check_t(t)
        return self.d + (2.0 * t) * (self.s - self.d)

    def is_straight_line(self) -> bool:
        return self.s.shape == self.d.shape and bool((self.s == self.d).all())


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


def reconstruct_from_hull(c: QuadraticCurve, h: HullCoefficients) -> Vector:
    return h.a0 * c.p0 + h.a1 * c.p1 + h.a2 * c.eval(h.t_hat)


def infeasibility_propagates(
    c: QuadraticCurve, fset: ConvexFeasibleSet, t_hat: float, i: int
) -> bool:
    """Whether constraint i is violated at gamma(t_hat).

    Requires P0 and P1 feasible for constraint i; under that precondition a
    violation anywhere on (0, 1] implies a violation at the endpoint P2,
    which is what property tests check through this oracle.
    """
    _check_t(t_hat)
    if fset.g(c.p0)[i] > FEAS_TOL or fset.g(c.p1)[i] > FEAS_TOL:
        raise ContractError("P0 and P1 must be feasible for constraint i")
    return bool(fset.g(c.eval(t_hat))[i] > 0.0)


class CurveDecision(enum.Enum):
    CURVE_OK = "curve_ok"
    FALL_BACK = "fall_back"


def feasibility_certificate(
    c: QuadraticCurve,
    fset: ConvexFeasibleSet,
    t_tilde: float,
    eps: float,
    feas_tol: float = FEAS_TOL,
) -> CurveDecision:
    """Decide curve vs. straight-line fallback.

    Probes the active constraints at x + t_tilde * d (relaxed by eps) and
    falls back iff the curve endpoint x + s violates any of them.  Only two
    constraint evaluations are performed.
    """
    if not 0.0 < t_tilde < 1.0:
        raise DomainError(f"t_tilde = {t_tilde} outside (0, 1)")
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    if not fset.contains(c.x, feas_tol):
        raise ContractError("base point x is infeasible")
    if not fset.contains(c.x + c.d, feas_tol):
        raise ContractError("x + d is infeasible; d must be a feasible direction")

    active = fset.g(c.x + t_tilde * c.d) >= -eps
    if not active.any():
        return CurveDecision.CURVE_OK
    if (fset.g(c.p2)[active] > feas_tol).any():
        return CurveDecision.FALL_BACK
    return CurveDecision.CURVE_OK
