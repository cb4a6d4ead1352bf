"""Quadratic search curves and their feasibility machinery.

A curve is stored as (x, d, s): base point, primary direction and secondary
direction.  In monomial form it is x + t d + t^2 (s - d); the equivalent
Bernstein form has control points P0 = x, P1 = x + d/2, P2 = x + s, so
gamma(t) lies in their convex hull for every t in [0, 1], and s = d gives
the straight line x + t d exactly.  A curve builds s - d once, and its
endpoint P2 once, as x + d + (s - d), the monomial form at t = 1;
`eval(1.0)` returns that array, every check of the endpoint tests it, and
every trial t < 1 reuses that s - d.  The SCS step hands only an
infeasible P2 to `feasibility_certificate` and the momentum reduction, which
then tries smaller weights only.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ContractError, DomainError
from .sets import FEAS_TOL, ConvexFeasibleSet

Vector = np.ndarray


class QuadraticCurve:
    """Quadratic Bezier search curve through x with initial velocity d."""

    __slots__ = ("x", "d", "s", "p2", "_s_minus_d")

    def __init__(self, x: Vector, d: Vector, s: Vector):
        self.x = x
        self.d = d
        self.s = s
        self._s_minus_d = s - d
        #: the endpoint gamma(1), the monomial form at t = 1, since 1.0 * v is v
        self.p2 = x + d + self._s_minus_d

    def __repr__(self) -> str:
        return f"QuadraticCurve(x={self.x!r}, d={self.d!r}, s={self.s!r})"

    def eval(self, t: float) -> Vector:
        if t == 1.0:  # every search's first trial
            return self.p2
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"curve parameter t = {t} outside [0, 1]")
        return self.x + t * self.d + (t * t) * self._s_minus_d

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
    if not eps >= 0.0:  # NaN fails too
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
