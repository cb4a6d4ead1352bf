"""Quadratic search curves and their feasibility machinery.

A curve is stored as (x, d, s): base point, primary direction and secondary
direction.  In monomial form it is x + t d + t^2 (s - d); the equivalent
Bernstein form has control points P0 = x, P1 = x + d/2, P2 = x + s, so
gamma(t) lies in their convex hull for every t in [0, 1], and s = d gives
the straight line x + t d exactly.  The SCS step hands only an infeasible P2
to `feasibility_certificate` and the momentum reduction, which then tries
smaller weights only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .sets import FEAS_TOL, ConvexFeasibleSet

Vector = np.ndarray


@dataclass(frozen=True)
class QuadraticCurve:
    """Quadratic Bezier search curve through x with initial velocity d."""

    x: Vector
    d: Vector
    s: Vector

    @property
    def p2(self) -> Vector:
        return self.x + self.s

    def eval(self, t: float) -> Vector:
        if t == 1.0:  # every search's first trial; 1.0 * v is v, bit for bit
            return self.x + self.d + (self.s - self.d)
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"curve parameter t = {t} outside [0, 1]")
        return self.x + t * self.d + (t * t) * (self.s - self.d)

    def is_straight_line(self) -> bool:
        return self.s.shape == self.d.shape and bool((self.s == self.d).all())


class CurveDecision(enum.Enum):
    CURVE_OK = "curve_ok"
    FALL_BACK = "fall_back"


def feasibility_certificate(
    c: QuadraticCurve,
    fset: ConvexFeasibleSet,
    t_tilde: float,
    eps: float,
) -> CurveDecision:
    """Decide curve vs. straight-line fallback.

    The SCS step asks only when the endpoint x + s is infeasible: a feasible
    one makes the whole curve feasible, and this answers CURVE_OK for it.
    Probes the active constraints at x + t_tilde * d (relaxed by eps) and
    falls back iff the curve endpoint x + s violates any of them.  It makes
    at most four `fset.g` calls: the contract re-checks of x and x + d, the
    probe, and the endpoint, which is evaluated only when a constraint is
    active at the probe.
    """
    if not 0.0 < t_tilde < 1.0:
        raise DomainError(f"t_tilde = {t_tilde} outside (0, 1)")
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    if not fset.max_violation(c.x) <= FEAS_TOL:  # NaN fails too
        raise ContractError("base point x is infeasible")
    if not fset.max_violation(c.x + c.d) <= FEAS_TOL:
        raise ContractError("x + d is infeasible; d must be a feasible direction")

    active = fset.g(c.x + t_tilde * c.d) >= -eps
    if not active.any():
        return CurveDecision.CURVE_OK
    if (fset.g(c.p2)[active] > FEAS_TOL).any():
        return CurveDecision.FALL_BACK
    return CurveDecision.CURVE_OK
