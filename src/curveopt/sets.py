"""Convex feasible sets: constraint values, gradients and Euclidean projection.

Four shipped configurations, addressable by short name:

  sph  -- hyper-sphere          ||x||^2 - 100 <= 0
  ell  -- hyper-ellipsoid       (x-c)^T P^-1 (x-c) - 25 <= 0, c = ones,
                                P a seeded positive definite diagonal matrix
  com  -- sphere + halfspace + box intersection
  box  -- coordinate bounds     lo <= x_i <= hi (default [-1, 1])

Every projection is exact: sph/box are closed form; ell uses 1-D root
finding on the KKT multiplier; com nests two 1-D multiplier searches, one
for the ball and one for the halfspace, with the box handled by clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProjectionError

Vector = np.ndarray

#: slack for every floating-point "g_i <= 0" feasibility check
FEAS_TOL = 1e-8

_ELL_ROOT_TOL = 1e-10
_ELL_MAX_ITERS = 200
_COM_ROOT_TOL = 1e-11
_COM_MAX_ITERS = 200


@dataclass(frozen=True)
class ConvexFeasibleSet:
    """Constraint oracle plus Euclidean projection for a convex set."""

    name: str
    dim: int
    num_constraints: int
    eval_g: Callable[[Vector], Vector] = field(repr=False)
    eval_g_grad: Callable[[Vector, int], Vector] = field(repr=False)
    project: Callable[[Vector], Vector] = field(repr=False)

    def g(self, x: Vector) -> Vector:
        return np.asarray(self.eval_g(np.asarray(x, dtype=float)), dtype=float)

    def g_grad(self, x: Vector, i: int) -> Vector:
        return np.asarray(self.eval_g_grad(np.asarray(x, dtype=float), i), dtype=float)

    def max_violation(self, x: Vector) -> float:
        return float(self.g(x).max())

    def contains(self, x: Vector, tol: float = FEAS_TOL) -> bool:
        return self.max_violation(x) <= tol


@dataclass(frozen=True)
class ActiveSetQuery:
    """Indices of constraints within eps of being tight at a point."""

    point: Vector
    tolerance: float
    result: frozenset[int]


def active_set(fset: ConvexFeasibleSet, x: Vector, eps: float) -> ActiveSetQuery:
    """Constraints with g_i(x) >= -eps."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    g = fset.g(x)
    idx = frozenset(int(i) for i in np.flatnonzero(g >= -eps))
    return ActiveSetQuery(point=np.array(x, dtype=float), tolerance=eps, result=idx)


# ---------------------------------------------------------------------------
# sphere


def make_sphere(n: int, center: Vector | None = None, radius: float = 10.0) -> ConvexFeasibleSet:
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    r2 = radius * radius

    def g(x):
        d = x - c
        return np.array([float(d.dot(d)) - r2])

    def g_grad(x, i):
        return 2.0 * (x - c)

    def project(x):
        d = x - c
        nrm = math.sqrt(d.dot(d))
        if nrm <= radius:
            return np.array(x, dtype=float)
        return c + (radius / nrm) * d

    return ConvexFeasibleSet("sph", n, 1, g, g_grad, project)


# ---------------------------------------------------------------------------
# box


def _clip(a: Vector, lo: float, hi: float) -> Vector:
    """np.clip(a, lo, hi), same values at about half the call overhead."""
    return np.minimum(np.maximum(a, lo), hi)


def make_box(n: int, lo: float = -1.0, hi: float = 1.0) -> ConvexFeasibleSet:
    """Bounds as 2n affine constraints: x_i - hi <= 0, then lo - x_i <= 0."""
    if lo >= hi:
        raise ValueError("lo must be < hi")

    def g(x):
        return np.concatenate([x - hi, lo - x])

    def g_grad(x, i):
        e = np.zeros(n)
        if i < n:
            e[i] = 1.0
        else:
            e[i - n] = -1.0
        return e

    def project(x):
        return _clip(x, lo, hi)

    return ConvexFeasibleSet("box", n, 2 * n, g, g_grad, project)


# ---------------------------------------------------------------------------
# ellipsoid


def make_ellipsoid(
    n: int,
    center: Vector | None = None,
    p_diag: Vector | None = None,
    seed: int = 0,
    rhs: float = 25.0,
) -> ConvexFeasibleSet:
    """{x : sum_i (x_i - c_i)^2 / p_i <= rhs}, with c = ones by default.

    When p_diag is omitted, the diagonal entries are drawn uniformly from
    [0.5, 2.0] using the given seed, so the same (n, seed) pair always
    yields the same set.
    """
    c = np.ones(n) if center is None else np.asarray(center, dtype=float)
    if p_diag is None:
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.5, 2.0, size=n)
    else:
        p = np.asarray(p_diag, dtype=float)
    if np.any(p <= 0):
        raise ValueError("p_diag entries must be positive")

    def g(x):
        d = x - c
        return np.array([float((d * d / p).sum()) - rhs])

    def g_grad(x, i):
        return 2.0 * (x - c) / p

    def project(z):
        z = np.asarray(z, dtype=float)
        if g(z)[0] <= 0.0:
            return np.array(z)
        d = z - c
        # KKT of min ||x - z||^2 s.t. g(x) <= 0:  x(lam) = c + p d / (p + 2 lam)
        def phi(lam):
            w = p * d / (p + 2.0 * lam)
            return float((w * w / p).sum()) - rhs

        lo, hi = 0.0, 1.0
        it = 0
        while phi(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
            it += 1
            if it > _ELL_MAX_ITERS:
                raise ProjectionError("ellipsoid projection: bracketing failed")
        lam = 0.5 * (lo + hi)
        for it in range(_ELL_MAX_ITERS):
            val = phi(lam)
            if abs(val) <= _ELL_ROOT_TOL:
                break
            if val > 0.0:
                lo = lam
            else:
                hi = lam
            # Newton step on phi, safeguarded by the bracket
            w = p + 2.0 * lam
            dphi = float((-4.0 * p * d * d / w**3).sum())
            lam_newton = lam - val / dphi if dphi != 0.0 else lam
            if lo < lam_newton < hi:
                lam = lam_newton
            else:
                lam = 0.5 * (lo + hi)
        else:
            raise ProjectionError("ellipsoid projection: root finder did not converge")
        return c + p * d / (p + 2.0 * lam)

    return ConvexFeasibleSet("ell", n, 1, g, g_grad, project)


# ---------------------------------------------------------------------------
# composite: sphere + halfspace + box, projected by nested multiplier searches


def make_composite(n: int) -> ConvexFeasibleSet:
    """||x - c||^2 <= 100 (c = 4*ones), w^T x <= 5 (w = ones/n), -5 <= x_i <= 10."""
    c = np.full(n, 4.0)
    w = np.full(n, 1.0 / n)
    lo, hi = -5.0, 10.0
    radius = 10.0

    def g(x):
        d = x - c
        head = np.array([float(d.dot(d)) - 100.0, float(np.dot(w, x)) - 5.0])
        return np.concatenate([head, x - hi, lo - x])

    def g_grad(x, i):
        if i == 0:
            return 2.0 * (x - c)
        if i == 1:
            return np.array(w)
        e = np.zeros(n)
        if i < 2 + n:
            e[i - 2] = 1.0
        else:
            e[i - 2 - n] = -1.0
        return e

    r2 = radius * radius
    # KKT of min ||x - z||^2 over the set, with multiplier lam >= 0 for the
    # ball:  x(lam) = P(a), a = c + (z - c) / (1 + lam), where
    # P(a) = clip(a - nu w, lo, hi) projects onto the halfspace and the box
    # with nu >= 0 the (scaled) halfspace multiplier.  The search for lam
    # aims at radius rt, the middle of its acceptance window, so that
    # rounding at the root cannot keep every trial out of the window.
    rt = math.sqrt(r2 - 0.5 * _COM_ROOT_TOL)

    def psi(d2):
        """1/rt - 1/||x - c|| for d2 = ||x - c||^2."""
        return 1.0 / rt - 1.0 / math.sqrt(d2) if d2 > 0.0 else -math.inf

    def x_of(a, nu):
        return _clip(a - nu * w, lo, hi)

    def h(x):
        return float(np.dot(w, x)) - 5.0

    def project_halfspace_box(a):
        x_i = _clip(a, lo, hi)
        h_i = h(x_i)
        if h_i <= 0.0:
            return x_i
        # h(x_of(a, nu)) is nonincreasing in nu and x_of(a, nu) is affine
        # between consecutive breakpoints, where a coordinate leaves hi or
        # reaches lo; at the last one every coordinate is at lo and
        # h = w^T lo - 5 < 0.  Bisect for the piece that holds the root, then
        # interpolate x on it, which keeps x in the box with h = 0 even when
        # a is too large for nu to be resolved.
        nodes = np.sort(np.concatenate(((a - hi) / w, (a - lo) / w)))
        nodes = nodes[nodes > 0.0]
        i = -1  # index -1 stands for nu = 0
        j = len(nodes) - 1
        x_j = x_of(a, nodes[j])
        h_j = h(x_j)
        while j - i > 1:
            m = (i + j) // 2
            x_m = x_of(a, nodes[m])
            h_m = h(x_m)
            if h_m > 0.0:
                i, x_i, h_i = m, x_m, h_m
            else:
                j, x_j, h_j = m, x_m, h_m
        return x_i + (h_i / (h_i - h_j)) * (x_j - x_i)

    def project(z):
        z = np.asarray(z, dtype=float)
        v = z - c
        dz2 = float(np.dot(v, v))
        if not math.isfinite(dz2):
            raise ProjectionError("composite projection: ||z - c|| is not finite")
        # P does not move points away from c, which lies in the set.  So
        # inside the ball lam = 0, and at the radial lam_hi, where
        # ||a - c|| = rt, ||x - c|| <= rt < r and the root lies in [0, lam_hi].
        if dz2 <= r2:
            return project_halfspace_box(z)
        lam_hi = math.sqrt(dz2) / rt - 1.0
        x_hi = project_halfspace_box(c + v / (1.0 + lam_hi))
        d2_hi = float(np.dot(x_hi - c, x_hi - c))
        if d2_hi >= r2 - _COM_ROOT_TOL:
            return x_hi
        x = project_halfspace_box(z)
        d2 = float(np.dot(x - c, x - c))
        if d2 <= r2:
            return x
        # d2(lam) = ||x(lam) - c||^2 is nonincreasing; return the first x(lam)
        # with r2 - _COM_ROOT_TOL <= d2 <= r2.  Secant steps on psi, which is
        # linear in lam while neither the halfspace nor a bound is active,
        # safeguarded by bisection of the bracket (lam_lo, lam_hi).
        lam_lo, lam_prev, psi_prev = 0.0, 0.0, psi(d2)
        lam, psi_lam = lam_hi, psi(d2_hi)
        for _ in range(_COM_MAX_ITERS):
            if lam_hi - lam_lo <= 4.0 * math.ulp(lam_hi):
                return x_hi
            step = (
                lam - psi_lam * (lam - lam_prev) / (psi_lam - psi_prev)
                if psi_lam != psi_prev
                else math.nan
            )
            lam_prev, psi_prev = lam, psi_lam
            lam = step if lam_lo < step < lam_hi else 0.5 * (lam_lo + lam_hi)
            x = project_halfspace_box(c + v / (1.0 + lam))
            d2 = float(np.dot(x - c, x - c))
            if d2 > r2:
                lam_lo = lam
            elif d2 >= r2 - _COM_ROOT_TOL:
                return x
            else:
                lam_hi, x_hi = lam, x
            psi_lam = psi(d2)
        raise ProjectionError("composite projection: multiplier search did not converge")

    return ConvexFeasibleSet("com", n, 2 * n + 2, g, g_grad, project)


# ---------------------------------------------------------------------------
# registry

SET_NAMES = ("sph", "ell", "com", "box")


def make_set(name: str, n: int, ell_seed: int = 0) -> ConvexFeasibleSet:
    """Build one of the four shipped sets for ambient dimension n."""
    if name == "sph":
        return make_sphere(n)
    if name == "ell":
        return make_ellipsoid(n, seed=ell_seed)
    if name == "com":
        return make_composite(n)
    if name == "box":
        return make_box(n)
    raise KeyError(f"unknown set {name!r}; known: {SET_NAMES}")
