"""Convex feasible sets: constraint values and Euclidean projection.

Four shipped configurations, addressable by short name:

  sph  -- hyper-sphere          ||x||^2 - 100 <= 0
  ell  -- hyper-ellipsoid       (x-c)^T P^-1 (x-c) - 25 <= 0, c = ones,
                                P a seeded positive definite diagonal matrix
  com  -- sphere + halfspace + box intersection
  box  -- coordinate bounds     lo <= x_i <= hi (default [-1, 1])

Every projection is exact: sph/box are closed form; ell uses 1-D root
finding on the KKT multiplier; com nests two 1-D multiplier searches, one
for the ball and one for the halfspace, with the box handled by clipping.

ell's seeded diagonal is drawn by an in-repo PCG64 (`_uniform`) that
reproduces numpy's `default_rng(seed).uniform` stream bit for bit, so an
`ell` instance does not depend on the installed numpy version and building
one does not import numpy's random module (and hashlib with it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProjectionError, as_integer

Vector = np.ndarray

#: `a.sum()` and `a.max()` for 1-D a, without the Python frame of numpy's
#: method wrappers
_sum = np.add.reduce
_max = np.maximum.reduce

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
        return np.asarray(self.eval_g(np.asarray(x, dtype=float)), dtype=float)

    def max_violation(self, x: Vector) -> float:
        return float(_max(self.g(x)))


# ---------------------------------------------------------------------------
# sphere


def make_sphere(n: int) -> ConvexFeasibleSet:
    n = as_integer(n, "n", least=1)
    radius = 10.0

    def g(x):
        return np.array([float(x.dot(x)) - 100.0])

    def project(x):
        nrm = math.sqrt(np.dot(x, x))
        if nrm <= radius:
            return np.array(x, dtype=float)
        if not math.isfinite(nrm):  # NaN too, which fails the test above
            raise ProjectionError("sphere projection: ||z|| is not finite")
        return (radius / nrm) * np.asarray(x)

    return ConvexFeasibleSet("sph", n, g, project)


# ---------------------------------------------------------------------------
# box


def _clip(a: Vector, lo: float, hi: float) -> Vector:
    """np.clip(a, lo, hi), same values at about half the call overhead."""
    return np.minimum(np.maximum(a, lo), hi)


def make_box(n: int, lo: float = -1.0, hi: float = 1.0) -> ConvexFeasibleSet:
    """Bounds as 2n affine constraints: x_i - hi <= 0, then lo - x_i <= 0.

    Raises ValueError unless lo < hi, so a NaN bound is rejected too.
    """
    n = as_integer(n, "n", least=1)
    if not lo < hi:
        raise ValueError(f"need lo < hi, not lo = {lo!r} and hi = {hi!r}")

    def g(x):
        return np.concatenate([x - hi, lo - x])

    def project(x):
        return _clip(x, lo, hi)

    return ConvexFeasibleSet("box", n, g, project)


# ---------------------------------------------------------------------------
# ellipsoid


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform(seed: int, lo: float, hi: float, n: int) -> list[float]:
    """numpy's `default_rng(seed).uniform(lo, hi, size=n)` for seed >= 0, bit for bit.

    SeedSequence(seed) mixes the seed's 32-bit words into a 4-word pool and
    expands it to 4 uint64 words; PCG64 seeds its 128-bit state and stream
    from them; each draw steps the LCG, takes the XSL-RR output x and returns
    lo + (hi - lo) * (x >> 11) * 2**-53.
    """
    words = []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32

    mult_a = 0x43B0D7E5  # SeedSequence's hashmix constant, advanced per call

    def hashmix(value):
        nonlocal mult_a
        value ^= mult_a
        mult_a = (mult_a * 0x931E8875) & _MASK32
        value = (value * mult_a) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    mult_b = 0x8B51F9DD
    state32 = []
    for i in range(8):
        value = pool[i % 4] ^ mult_b
        mult_b = (mult_b * 0x58F38DED) & _MASK32
        value = (value * mult_b) & _MASK32
        state32.append(value ^ (value >> 16))
    w = [state32[2 * i] | state32[2 * i + 1] << 32 for i in range(4)]

    # pcg_setseq_128_srandom_r: state 0, step, add the initial state, step
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG64_MULT + inc) & _MASK128
    out = []
    for _ in range(n):
        state = (state * _PCG64_MULT + inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _MASK64
        out.append(lo + (hi - lo) * ((x >> 11) * (1.0 / 9007199254740992.0)))
    return out


def make_ellipsoid(n: int, p_diag: Vector | None = None, seed: int = 0) -> ConvexFeasibleSet:
    """{x : sum_i (x_i - c_i)^2 / p_i <= rhs}, with c = ones and rhs = 25.

    When p_diag is omitted, the diagonal entries are drawn uniformly from
    [0.5, 2.0] using the given seed, so the same (n, seed) pair always
    yields the same set.  The draw is the in-repo PCG64 of `_uniform`, which
    reproduces numpy's `default_rng(seed).uniform(0.5, 2.0, size=n)` stream.
    A p_diag not of shape (n,) or with a non-finite or nonpositive entry, and
    a seed that is negative, a bool or not an integer, raise ValueError.
    """
    n = as_integer(n, "n", least=1)
    seed = as_integer(seed, "seed")
    c = np.ones(n)
    rhs = 25.0
    if p_diag is None:
        p = np.array(_uniform(seed, 0.5, 2.0, n))
    else:
        p = np.asarray(p_diag, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"p_diag has shape {p.shape} but the set needs ({n},)")
    if not np.isfinite(p).all():
        raise ValueError("p_diag entries must be finite")
    if np.any(p <= 0):
        raise ValueError("p_diag entries must be positive")

    def q(d):
        """The constraint value at c + d."""
        return float(_sum(d * d / p)) - rhs

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
        dphi_num = -4.0 * p * d * d
        # KKT of min ||x - z||^2 s.t. g(x) <= 0:  x(lam) = c + p d / (p + 2 lam)
        def phi(lam):
            w = pd / (p + 2.0 * lam)
            return float(_sum(w * w / p)) - rhs

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
            dphi = float(_sum(dphi_num / w**3))
            lam_newton = lam - val / dphi if dphi != 0.0 else lam
            if lo < lam_newton < hi:
                lam = lam_newton
            else:
                lam = 0.5 * (lo + hi)
        else:
            raise ProjectionError("ellipsoid projection: root finder did not converge")
        return c + pd / (p + 2.0 * lam)

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
        d = x - c
        head = np.array([float(d.dot(d)) - 100.0, float(w.dot(x)) - 5.0])
        return np.concatenate([head, x - hi, lo - x])

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

    def d2_of(x):
        """||x - c||^2."""
        u = x - c
        return float(u.dot(u))

    def x_of(a, nu):
        return _clip(a - nu * w, lo, hi)

    def h(x):
        return float(w.dot(x)) - 5.0

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
        dz2 = float(v.dot(v))
        if not math.isfinite(dz2):
            raise ProjectionError("composite projection: ||z - c|| is not finite")
        # P does not move points away from c, which lies in the set.  So
        # inside the ball lam = 0, and at the radial lam_hi, where
        # ||a - c|| = rt, ||x - c|| <= rt < r and the root lies in [0, lam_hi].
        if dz2 <= r2:
            return project_halfspace_box(z)
        lam_hi = math.sqrt(dz2) / rt - 1.0
        x_hi = project_halfspace_box(c + v / (1.0 + lam_hi))
        d2_hi = d2_of(x_hi)
        if d2_hi >= r2 - _COM_ROOT_TOL:
            return x_hi
        x = project_halfspace_box(z)
        d2 = d2_of(x)
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
            d2 = d2_of(x)
            if d2 > r2:
                lam_lo = lam
            elif d2 >= r2 - _COM_ROOT_TOL:
                return x
            else:
                lam_hi, x_hi = lam, x
            psi_lam = psi(d2)
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
