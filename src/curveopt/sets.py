"""Convex feasible sets: constraint values and Euclidean projection.

Four shipped configurations, addressable by short name:

  sph  -- hyper-sphere          ||x||^2 - 100 <= 0
  ell  -- hyper-ellipsoid       (x-c)^T P^-1 (x-c) - 25 <= 0, c = ones,
                                P a seeded positive definite diagonal matrix
  com  -- sphere + halfspace + box intersection
  box  -- coordinate bounds     lo <= x_i <= hi (default [-1, 1])

Every projection is exact: sph/box are closed form; ell runs Newton's
method on the secular equation of its KKT multiplier, which climbs to the
root from 0 with no bracket, since 1/||x(lam) - c||_P is concave and
increasing in lam as for a trust-region step (More & Sorensen 1983,
"Computing a trust region step"), so every z with a finite g(z) projects;
com nests two 1-D multiplier searches, one for the ball and one for the
halfspace, with the box handled by clipping.
The halfspace's search bisects its breakpoints.  The ball's steps to the
root of the piece of ||x(lam) - c||^2 that holds its last trial, which has
a closed form because the halfspace's normal is uniform, and bisects its
bracket where that root falls outside it.

ell's seeded diagonal is drawn by the standard library's `random.Random`,
whose `random()` sequence for an integer seed Python keeps the same on
every version, so an `ell` instance does not depend on the Python or numpy
version, and building one does not import numpy's random module (and
hashlib with it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProjectionError, as_integer

Vector = np.ndarray

#: `a.sum()` for 1-D a, without the Python frame of numpy's method wrapper
_sum = np.add.reduce


def _max(a: Vector):
    """The largest entry of a nonempty 1-D float array, as `np.maximum.reduce(a)`
    gives it in two to three times the time: NaN where an entry is NaN, since
    `argmax` takes the first NaN, and on a tie of +0.0 with -0.0 the first of
    the two, where the reduce may give either."""
    return a[a.argmax()]

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
    eval_g: Callable[[Vector], Vector] = field(repr=False)
    project: Callable[[Vector], Vector] = field(repr=False)

    def g(self, x: Vector) -> Vector:
        """The constraint values at x; raises ValueError for an x not of
        shape (dim,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point for {self.name} has shape {x.shape}")
        return np.asarray(self.eval_g(x), dtype=float)

    def max_violation(self, x: Vector) -> float:
        """The largest constraint value at x; NaN, which fails every
        `<= FEAS_TOL` test, where g(x) has a NaN entry."""
        return float(_max(self.g(x)))


# ---------------------------------------------------------------------------
# sphere


def make_sphere(n: int) -> ConvexFeasibleSet:
    n = as_integer(n, "n", least=1)
    radius = 10.0

    def g(x):
        try:
            xx = float(x.dot(x))
        except RuntimeWarning:  # x'x overflows, with warnings turned into errors
            xx = math.inf
        return np.array([xx - 100.0])

    def project(x):
        x = np.asarray(x, dtype=float)
        try:
            nrm = math.sqrt(x.dot(x))
        except RuntimeWarning:  # x'x overflows, with warnings turned into errors
            nrm = math.inf
        if nrm <= radius:
            return np.array(x)
        if not math.isfinite(nrm):  # NaN too, which fails the test above
            raise ProjectionError("sphere projection: ||z|| is not finite")
        return (radius / nrm) * x

    return ConvexFeasibleSet("sph", n, g, project)


# ---------------------------------------------------------------------------
# box


def _clip(a: Vector, lo: float, hi: float) -> Vector:
    """np.clip(a, lo, hi) as float64, same values at about half the call overhead."""
    return np.minimum(np.maximum(a, lo, dtype=float), hi)


def make_box(n: int, lo: float = -1.0, hi: float = 1.0) -> ConvexFeasibleSet:
    """Bounds as 2n affine constraints: x_i - hi <= 0, then lo - x_i <= 0.

    Raises ValueError unless lo < hi, so a NaN bound is rejected too.
    """
    n = as_integer(n, "n", least=1)
    if not lo < hi:
        raise ValueError(f"need lo < hi, not lo = {lo!r} and hi = {hi!r}")

    def g(x):
        out = np.empty(2 * n)
        np.subtract(x, hi, out=out[:n])
        np.subtract(lo, x, out=out[n:])
        return out

    def project(x):
        return _clip(x, lo, hi)

    return ConvexFeasibleSet("box", n, g, project)


# ---------------------------------------------------------------------------
# ellipsoid


def make_ellipsoid(n: int, p_diag: Vector | None = None, seed: int = 0) -> ConvexFeasibleSet:
    """{x : sum_i (x_i - c_i)^2 / p_i <= rhs}, with c = ones and rhs = 25.

    When p_diag is omitted, the diagonal entries are drawn uniformly from
    [0.5, 2.0] using the given seed, so the same (n, seed) pair always
    yields the same set: entry i is 0.5 + 1.5 * u_i, where u_0, u_1, ... are
    the first n draws of `random.Random(seed).random()`, a sequence Python
    keeps the same on every version.
    A p_diag not of shape (n,) or with a non-finite or nonpositive entry, and
    a seed that is negative, a bool or not an integer, raise ValueError.
    """
    n = as_integer(n, "n", least=1)
    seed = as_integer(seed, "seed")
    c = np.ones(n)
    rhs = 25.0
    if p_diag is None:
        rng = random.Random(seed)
        p = np.array([0.5 + (2.0 - 0.5) * rng.random() for _ in range(n)])
    else:
        p = np.asarray(p_diag, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"p_diag has shape {p.shape} but the set needs ({n},)")
    if not np.isfinite(p).all():
        raise ValueError("p_diag entries must be finite")
    if np.any(p <= 0):
        raise ValueError("p_diag entries must be positive")

    def q(d):
        """The constraint value at c + d; inf where d * d overflows."""
        try:
            return float(_sum(d * d / p)) - rhs
        except RuntimeWarning:  # d * d overflows, with warnings turned into errors
            return math.inf

    def g(x):
        return np.array([q(x - c)])

    def project(z):
        z = np.asarray(z, dtype=float)
        d = z - c
        gz = q(d)
        if gz <= 0.0:
            return np.array(z)
        if not math.isfinite(gz):
            raise ProjectionError("ellipsoid projection: g(z) is not finite")
        pd = p * d
        # KKT of min ||x - z||^2 s.t. g(x) <= 0:  x(lam) = c + w with
        # w = p d / s, s = p + 2 lam, and r2(lam) = sum(w^2 / p) = g + rhs.
        # 1/sqrt(r2) is concave and increasing in lam, so Newton on
        # 1/sqrt(r2) - 1/sqrt(rhs) from lam = 0 climbs to the root without a
        # safeguard; its step is grouped so that it does not overflow.
        lam, s, w = 0.0, p, d
        for _ in range(_ELL_MAX_ITERS):
            ww_p = w * w / p
            r2 = float(_sum(ww_p))
            if r2 - rhs <= _ELL_ROOT_TOL:
                return c + w
            lam += (math.sqrt(r2 / rhs) - 1.0) * (r2 / (2.0 * float(_sum(ww_p / s))))
            s = p + 2.0 * lam
            w = pd / s
        raise ProjectionError("ellipsoid projection: root finder did not converge")

    return ConvexFeasibleSet("ell", n, g, project)


# ---------------------------------------------------------------------------
# composite: sphere + halfspace + box, projected by nested multiplier searches


def make_composite(n: int) -> ConvexFeasibleSet:
    """||x - c||^2 <= 100 (c = 4*ones), w^T x <= 5 (w = ones/n), -5 <= x_i <= 10."""
    n = as_integer(n, "n", least=1)
    c = np.full(n, 4.0)
    w = np.full(n, 1.0 / n)
    lo, hi = -5.0, 10.0
    radius = 10.0

    def g(x):
        out = np.empty(2 * n + 2)
        d = x - c
        try:
            out[0] = float(d.dot(d)) - 100.0
        except RuntimeWarning:  # d'd overflows, with warnings turned into errors
            out[0] = math.inf
        out[1] = float(w.dot(x)) - 5.0
        np.subtract(x, hi, out=out[2 : n + 2])
        np.subtract(lo, x, out=out[n + 2 :])
        return out

    r2 = radius * radius
    # KKT of min ||x - z||^2 over the set, with multiplier lam >= 0 for the
    # ball:  x(lam) = P(a), a = c + (z - c) / (1 + lam), where
    # P(a) = clip(a - nu w, lo, hi) projects onto the halfspace and the box
    # with nu >= 0 the (scaled) halfspace multiplier.  The search for lam
    # aims at ||x - c||^2 = rt2, the middle of its acceptance window, so that
    # rounding at the root cannot keep every trial out of the window.
    rt2 = r2 - 0.5 * _COM_ROOT_TOL
    rt = math.sqrt(rt2)

    def d2_of(x):
        """||x - c||^2."""
        u = x - c
        return float(u.dot(u))

    def x_of(a, nu):
        return _clip(a - nu * w, lo, hi)

    def h(x):
        return float(w.dot(x)) - 5.0

    def project_halfspace_box(a):
        """(P(a), whether the halfspace is active at it)."""
        x_i = _clip(a, lo, hi)
        h_i = h(x_i)
        if h_i <= 0.0:
            return x_i, False
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
        if h_j > 0.0:
            # a - nu w cancels to within an ulp of a, which for a far a
            # (entries near 1e21) leaves a coordinate off lo; take lo itself
            x_j = np.full_like(a, lo)
            h_j = h(x_j)
        while j - i > 1:
            m = (i + j) // 2
            x_m = x_of(a, nodes[m])
            h_m = h(x_m)
            if h_m > 0.0:
                i, x_i, h_i = m, x_m, h_m
            else:
                j, x_j, h_j = m, x_m, h_m
        return x_i + (h_i / (h_i - h_j)) * (x_j - x_i), True

    def piece_root(v, x, on_halfspace):
        """The lam at which ||x(lam) - c||^2 = rt2 would hold if the bounds
        and the halfspace active at the trial x stayed active, or NaN.

        With s = 1/(1 + lam), F the coordinates strictly inside (lo, hi) at
        x and C the sum of (x_i - c_i)^2 off F:  while the halfspace is
        inactive, x_F - c_F = v_F s and ||x - c||^2 = s^2 sum(v_F^2) + C.
        While it is active, sum(x) = 5n, so x_F - c_F = (v_F - m) s + kappa
        with m the mean of v_F and kappa the mean of x_F - c_F,
        (5n - sum_{i not in F} x_i) / |F| - 4 = (n - sum_{i not in F}
        (x_i - c_i)) / |F|; the cross term vanishes, and
        ||x - c||^2 = s^2 sum((v_F - m)^2) + |F| kappa^2 + C.
        """
        free = (lo < x) & (x < hi)
        u = (x - c)[~free]
        v_f = v[free]
        k = len(v_f)
        rest = rt2 - float(u.dot(u))
        if on_halfspace and k:
            kappa = (n - float(_sum(u))) / k
            v_f = v_f - float(_sum(v_f)) / k
            rest -= k * kappa * kappa
        den = float(v_f.dot(v_f))
        s = math.sqrt(rest / den) if rest > 0.0 and den > 0.0 else 0.0
        return 1.0 / s - 1.0 if s > 0.0 else math.nan

    def project(z):
        z = np.asarray(z, dtype=float)
        v = z - c
        try:
            dz2 = float(v.dot(v))
        except RuntimeWarning:  # v'v overflows, with warnings turned into errors
            dz2 = math.inf
        if not math.isfinite(dz2):
            raise ProjectionError("composite projection: ||z - c|| is not finite")
        # P does not move points away from c, which lies in the set.  So
        # inside the ball lam = 0, and at the radial lam_hi, where
        # ||a - c|| = rt, ||x - c|| <= rt < r and the root lies in [0, lam_hi].
        if dz2 <= r2:
            return project_halfspace_box(z)[0]
        lam_hi = math.sqrt(dz2) / rt - 1.0
        x_hi, on_halfspace = project_halfspace_box(c + v / (1.0 + lam_hi))
        if d2_of(x_hi) >= r2 - _COM_ROOT_TOL:
            return x_hi
        x_0 = project_halfspace_box(z)[0]
        if d2_of(x_0) <= r2:
            return x_0
        # d2(lam) = ||x(lam) - c||^2 is nonincreasing; return the first x(lam)
        # with r2 - _COM_ROOT_TOL <= d2 <= r2.  Each step goes to the root of
        # the piece of d2 that holds the last trial x, in closed form, and
        # falls back to bisection of the bracket (lam_lo, lam_hi) when that
        # root leaves it or does not exist.  The first step starts from the
        # radial trial, whose active set is nearer the root's than z's is.
        lam_lo, x = 0.0, x_hi
        for _ in range(_COM_MAX_ITERS):
            if lam_hi - lam_lo <= 4.0 * math.ulp(lam_hi):
                return x_hi
            lam = piece_root(v, x, on_halfspace)
            if not lam_lo < lam < lam_hi:  # NaN too
                lam = 0.5 * (lam_lo + lam_hi)
            x, on_halfspace = project_halfspace_box(c + v / (1.0 + lam))
            d2 = d2_of(x)
            if d2 > r2:
                lam_lo = lam
            elif d2 >= r2 - _COM_ROOT_TOL:
                return x
            else:
                lam_hi, x_hi = lam, x
        raise ProjectionError("composite projection: multiplier search did not converge")

    return ConvexFeasibleSet("com", n, g, project)


# ---------------------------------------------------------------------------
# registry

SET_NAMES = ("sph", "ell", "com", "box")


def make_set(name: str, n: int, ell_seed: int = 0) -> ConvexFeasibleSet:
    """Build one of the four shipped sets for ambient dimension n.

    Every builder raises ValueError for an n that is not a positive integer.
    """
    if name == "sph":
        return make_sphere(n)
    if name == "ell":
        return make_ellipsoid(n, seed=ell_seed)
    if name == "com":
        return make_composite(n)
    if name == "box":
        return make_box(n)
    raise KeyError(f"unknown set {name!r}; known: {SET_NAMES}")
