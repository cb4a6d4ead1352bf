import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import curveopt
from curveopt.errors import ProjectionError
from curveopt.sets import (
    FEAS_TOL,
    SET_NAMES,
    _uniform,
    make_box,
    make_composite,
    make_ellipsoid,
    make_set,
    make_sphere,
)


def sample_feasible(fset, rng, count, scale=15.0):
    """Random feasible points obtained by projecting random ambient points."""
    pts = []
    for _ in range(count):
        z = rng.uniform(-scale, scale, fset.dim)
        pts.append(fset.project(z))
    return pts


# ---------------------------------------------------------------------------
# sphere


def test_sphere_projection_closed_form():
    s = make_sphere(2)
    assert np.allclose(s.project(np.array([20.0, 0.0])), [10.0, 0.0])


def test_sphere_interior_point_unchanged():
    s = make_sphere(2)
    x = np.array([3.0, 4.0])
    assert np.array_equal(s.project(x), x)


def test_sphere_boundary_point_fixed():
    s = make_sphere(2)
    x = np.array([6.0, 8.0])
    assert np.array_equal(s.project(x), x)
    assert s.g(x)[0] == pytest.approx(0.0, abs=1e-12)


def centred_sphere(n):
    """g and project of the radius-10 ball written about an explicit centre
    c = 0, the reference for make_sphere's formulas in x alone."""
    c = np.zeros(n)
    radius = 10.0

    def g(x):
        d = x - c
        return np.array([float(d.dot(d)) - radius * radius])

    def project(x):
        d = x - c
        nrm = math.sqrt(d.dot(d))
        if nrm <= radius:
            return np.array(x, dtype=float)
        return c + (radius / nrm) * d

    return g, project


@pytest.mark.parametrize("n", (1, 2, 50))
def test_sphere_matches_the_centred_formulas(n):
    s = make_sphere(n)
    g, project = centred_sphere(n)
    rng = np.random.default_rng(n)
    on_ball = [10.0 * np.eye(n)[0], -10.0 * np.eye(n)[-1], np.full(n, 10.0 / math.sqrt(n))]
    points = on_ball + [np.zeros(n), np.full(n, -0.0)]
    for norm in (0.5, 9.999, 10.0, 10.001, 1e3, 1e150, 1e200):  # 1e200 overflows x'x
        for _ in range(10):
            u = rng.standard_normal(n)
            points.append(norm * u / np.linalg.norm(u))
    with np.errstate(over="ignore"):
        for x in points:
            assert np.array_equal(s.g(x), g(x))
            for z in (x, x.tolist()):
                if math.isfinite(x.dot(x)):
                    assert np.array_equal(s.project(z), project(z))
                else:  # the norm of an exterior point must be finite
                    with pytest.raises(ProjectionError, match=SPHERE_NOT_FINITE):
                        s.project(z)


SPHERE_NOT_FINITE = r"^sphere projection: \|\|z\|\| is not finite$"


@pytest.mark.parametrize("bad", (1e200, -1e200, np.inf, -np.inf, np.nan))
@pytest.mark.parametrize("name", ("sph", "ell", "com"))
def test_projection_of_a_point_whose_norm_is_not_finite_raises(name, bad):
    # 1e200 is finite, but its square overflows, so the norm is inf too
    fset = make_set(name, 2)
    with np.errstate(over="ignore"), pytest.raises(ProjectionError) as raised:
        fset.project([bad, 0.0])
    if name == "sph":
        assert raised.match(SPHERE_NOT_FINITE)


# ---------------------------------------------------------------------------
# box


def test_box_projection_clamps():
    b = make_box(3)
    assert np.allclose(b.project(np.array([2.0, 0.5, -7.0])), [1.0, 0.5, -1.0])


def test_box_interior_unchanged():
    b = make_box(3)
    x = np.array([0.2, -0.4, 0.0])
    assert np.array_equal(b.project(x), x)


def test_box_single_active_constraint_at_face():
    b = make_box(3)
    g = b.g(np.array([1.0, 0.0, 0.0]))
    assert g[0] == 0.0
    assert (np.delete(g, 0) < 0.0).all()


def test_box_constraint_layout():
    b = make_box(2, lo=-1.0, hi=1.0)
    g = b.g(np.array([0.5, -0.25]))
    assert np.allclose(g, [0.5 - 1.0, -0.25 - 1.0, -1.0 - 0.5, -1.0 + 0.25])


def test_box_rejects_bad_bounds():
    with pytest.raises(ValueError):
        make_box(2, lo=1.0, hi=1.0)


@pytest.mark.parametrize(
    "bounds",
    [{"lo": np.nan}, {"hi": np.nan}, {"lo": np.nan, "hi": np.nan}],
    ids=["lo", "hi", "both"],
)
def test_box_rejects_nan_bounds(bounds):
    with pytest.raises(ValueError, match="need lo < hi"):
        make_box(2, **bounds)


# ---------------------------------------------------------------------------
# ellipsoid


def test_ellipsoid_center_unchanged():
    e = make_ellipsoid(2, p_diag=np.ones(2))
    x = np.array([1.0, 1.0])
    assert np.array_equal(e.project(x), x)


def test_ellipsoid_identity_metric_is_radial():
    # with P = I the set is a sphere of radius 5 about [1, 1]
    e = make_ellipsoid(2, p_diag=np.ones(2))
    assert np.allclose(e.project(np.array([11.0, 1.0])), [6.0, 1.0], atol=1e-9)


def test_ellipsoid_axis_aligned_case():
    # semi-axis along coordinate 0 is sqrt(25 * 4) = 10 from the center
    e = make_ellipsoid(2, p_diag=np.array([4.0, 1.0]))
    p = e.project(np.array([100.0, 1.0]))
    assert np.allclose(p, [11.0, 1.0], atol=1e-8)
    # brute-force oracle: nearest feasible point on a dense grid
    xs = np.linspace(-9.5, 11.0, 411)
    ys = np.linspace(-4.5, 6.5, 221)
    gx, gy = np.meshgrid(xs, ys)
    feas = (gx - 1.0) ** 2 / 4.0 + (gy - 1.0) ** 2 <= 25.0
    d2 = (gx - 100.0) ** 2 + (gy - 1.0) ** 2
    d2[~feas] = np.inf
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    assert np.allclose(p, [gx[i, j], gy[i, j]], atol=0.1)


def test_ellipsoid_seed_reproducible():
    a = make_ellipsoid(5, seed=7)
    b = make_ellipsoid(5, seed=7)
    z = np.full(5, 30.0)
    assert np.array_equal(a.project(z), b.project(z))


def test_ellipsoid_rejects_bad_diag():
    with pytest.raises(ValueError):
        make_ellipsoid(2, p_diag=np.array([1.0, -1.0]))


def test_ellipsoid_rejects_diag_of_wrong_shape():
    with pytest.raises(ValueError, match=r"p_diag has shape \(2,\) but the set needs \(3,\)"):
        make_ellipsoid(3, p_diag=np.ones(2))


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_ellipsoid_rejects_non_finite_diag(bad):
    with pytest.raises(ValueError, match="p_diag entries must be finite"):
        make_ellipsoid(2, p_diag=np.array([1.0, bad]))


# True is an int to Python, but no seed
@pytest.mark.parametrize("seed", (-1, 1.5, True))
def test_ellipsoid_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, not {seed}$"):
        make_ellipsoid(2, seed=seed)


def test_ellipsoid_takes_a_numpy_integer_seed():
    a = make_ellipsoid(3, seed=5)
    b = make_ellipsoid(3, seed=np.int64(5))
    z = np.full(3, 30.0)
    assert a.g(z).tobytes() == b.g(z).tobytes()
    assert a.project(z).tobytes() == b.project(z).tobytes()


def test_uniform_matches_numpy_bitwise():
    # 2**128 + 5 has a fifth 32-bit word, past SeedSequence's pool of four
    seeds = [*range(1101), 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**128 + 5]
    for seed in seeds:
        for n in (0, 1, 2, 7, 1000):
            ours = np.array(_uniform(seed, 0.5, 2.0, n), dtype=float)
            theirs = np.random.default_rng(seed).uniform(0.5, 2.0, size=n)
            assert ours.shape == theirs.shape
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), (seed, n)


def test_building_the_sets_loads_neither_numpy_random_nor_hashlib():
    # numpy.random, and hashlib with it, add about 5 MiB to a process; what
    # `import numpy` loads itself (numpy.random under numpy 1.x) is not counted
    code = """
import sys
import numpy
before = set(sys.modules)
from curveopt.sets import SET_NAMES, make_set
for name in SET_NAMES:
    make_set(name, 5)
print(sorted({"numpy.random", "hashlib"} & (set(sys.modules) - before)))
"""
    src = str(pathlib.Path(curveopt.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# composite


def test_composite_feasible_point_unchanged():
    c = make_composite(2)
    x = np.array([4.0, 4.0])  # w^T x = 4 <= 5, at the sphere center
    assert np.allclose(c.project(x), x, atol=1e-10)


def test_composite_projection_variational_inequality():
    c = make_composite(2)
    z = np.array([30.0, 4.0])
    p = c.project(z)
    assert c.max_violation(p) <= 1e-8
    rng = np.random.default_rng(3)
    for y in sample_feasible(c, rng, 1000, scale=12.0):
        assert float(np.dot(z - p, y - p)) <= 1e-6


def test_composite_constraint_layout():
    c = make_composite(2)
    x = np.array([0.0, 0.0])
    g = c.g(x)
    assert g.shape == (6,)
    assert g[0] == pytest.approx(32.0 - 100.0)
    assert g[1] == pytest.approx(-5.0)
    assert np.allclose(g[2:4], [-10.0, -10.0])
    assert np.allclose(g[4:6], [-5.0, -5.0])


@pytest.mark.parametrize("n", [2, 4, 10])
def test_composite_projection_exact_on_ball_and_halfspace(n):
    # each of the ball and halfspace constraints is either clearly slack or
    # tight to rounding at the projection, never left a little inside
    c = make_composite(n)
    rng = np.random.default_rng(12)
    for _ in range(300):
        g = c.g(c.project(rng.uniform(-30.0, 30.0, n)))
        for gi in g[:2]:
            assert gi < -1e-6 or abs(gi) <= 1e-10


def dykstra_composite(z, n, tol=1e-10, max_sweeps=100000):
    """Reference oracle: Dykstra's alternating projections onto the composite set."""
    c = np.full(n, 4.0)
    w = np.full(n, 1.0 / n)

    def proj_sphere(x):
        nrm = float(np.linalg.norm(x - c))
        return x if nrm <= 10.0 else c + (10.0 / nrm) * (x - c)

    def proj_halfspace(x):
        viol = float(np.dot(w, x)) - 5.0
        return x if viol <= 0.0 else x - (viol / float(np.dot(w, w))) * w

    def proj_box(x):
        return np.clip(x, -5.0, 10.0)

    pieces = (proj_sphere, proj_halfspace, proj_box)
    x = np.array(z, dtype=float)
    incs = [np.zeros(n) for _ in pieces]
    for _ in range(max_sweeps):
        x_old = x
        for j, proj in enumerate(pieces):
            y = x + incs[j]
            x = proj(y)
            incs[j] = y - x
        if float(np.linalg.norm(x - x_old)) <= tol:
            return x
    raise AssertionError("Dykstra sweep cap reached")


@pytest.mark.parametrize("n", [2, 4, 10, 100])
def test_composite_projection_matches_dykstra(n):
    c = make_composite(n)
    rng = np.random.default_rng(40 + n)
    for _ in range(100):
        z = rng.uniform(-30.0, 30.0, n)
        assert np.max(np.abs(c.project(z) - dykstra_composite(z, n))) <= 1e-7


@pytest.mark.parametrize("n", [2, 4])
def test_composite_projection_far_points(n):
    # far from the set, P(z) must still be feasible and satisfy the
    # variational inequality, measured along the unit vector (z - p)/||z - p||
    c = make_composite(n)
    rng = np.random.default_rng(9)
    ys = sample_feasible(c, rng, 200)
    for scale in (1e3, 1e6, 1e12, 1e100):
        for _ in range(20):
            z = scale * rng.standard_normal(n)
            p = c.project(z)
            assert c.max_violation(p) <= FEAS_TOL
            u = (z - p) / np.linalg.norm(z - p)
            assert max(float(np.dot(u, y - p)) for y in ys) <= 1e-9


def test_composite_rejects_non_finite_point():
    c = make_composite(3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ProjectionError):
            c.project(np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_ellipsoid_rejects_non_finite_point_at_once(bad):
    # neither the bracketing nor the root finder can converge from here
    e = make_ellipsoid(3, seed=2)
    with pytest.raises(ProjectionError, match=r"^ellipsoid projection: g\(z\) is not finite$"):
        e.project(np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize(
    "offset, message",
    (
        # phi(1) = (100 / 3)^2 - 25 > 0: the bracket must grow past lam = 1
        (100.0, "bracketing failed"),
        # phi(1) = (5.1 / 3)^2 - 25 <= 0: the bracket [0, 1] holds the root
        (5.1, "root finder did not converge"),
    ),
)
def test_ellipsoid_projection_without_iterations_raises(monkeypatch, offset, message):
    monkeypatch.setattr(curveopt.sets, "_ELL_MAX_ITERS", 0)
    e = make_ellipsoid(3, p_diag=np.ones(3))  # the ball of radius 5 about ones
    z = np.array([1.0 + offset, 1.0, 1.0])
    assert e.max_violation(z) > 0.0
    with pytest.raises(ProjectionError, match=f"^ellipsoid projection: {message}$"):
        e.project(z)


def test_composite_projection_without_iterations_raises(monkeypatch):
    monkeypatch.setattr(curveopt.sets, "_COM_MAX_ITERS", 0)
    c = make_composite(3)
    with pytest.raises(
        ProjectionError, match="^composite projection: multiplier search did not converge$"
    ):
        c.project(np.array([30.0, -20.0, 4.0]))


# ---------------------------------------------------------------------------
# ellipsoid and composite, against their formulas written out plainly


def plain_ellipsoid(p):
    """g and project of the ellipsoid of diagonal p, with each expression
    written where it is used: the reference for make_ellipsoid's shared
    constraint value."""
    n = len(p)
    c = np.ones(n)
    rhs = 25.0

    def g(x):
        d = x - c
        return np.array([float((d * d / p).sum()) - rhs])

    def project(z):
        z = np.asarray(z, dtype=float)
        gz = g(z)[0]
        if gz <= 0.0:
            return np.array(z)
        d = z - c
        pd = p * d
        dphi_num = -4.0 * p * d * d

        def phi(lam):
            w = pd / (p + 2.0 * lam)
            return float((w * w / p).sum()) - rhs

        lo, hi = 0.0, 1.0
        while phi(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
        lam = 0.5 * (lo + hi)
        for _ in range(200):
            val = phi(lam)
            if abs(val) <= 1e-10:
                break
            if val > 0.0:
                lo = lam
            else:
                hi = lam
            w = p + 2.0 * lam
            dphi = float((dphi_num / w**3).sum())
            lam_newton = lam - val / dphi if dphi != 0.0 else lam
            lam = lam_newton if lo < lam_newton < hi else 0.5 * (lo + hi)
        return c + pd / (p + 2.0 * lam)

    return g, project


def plain_composite_projection(n):
    """make_composite's projection with ||x - c||^2 written out at each use:
    the reference for its shared squared distance."""
    c = np.full(n, 4.0)
    w = np.full(n, 1.0 / n)
    lo, hi = -5.0, 10.0
    r2 = 100.0
    tol = 1e-11
    rt = math.sqrt(r2 - 0.5 * tol)

    def psi(d2):
        return 1.0 / rt - 1.0 / math.sqrt(d2) if d2 > 0.0 else -math.inf

    def x_of(a, nu):
        return np.minimum(np.maximum(a - nu * w, lo), hi)

    def h(x):
        return float(np.dot(w, x)) - 5.0

    def project_halfspace_box(a):
        x_i = np.minimum(np.maximum(a, lo), hi)
        h_i = h(x_i)
        if h_i <= 0.0:
            return x_i
        nodes = np.sort(np.concatenate(((a - hi) / w, (a - lo) / w)))
        nodes = nodes[nodes > 0.0]
        i, j = -1, len(nodes) - 1
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
        if dz2 <= r2:
            return project_halfspace_box(z)
        lam_hi = math.sqrt(dz2) / rt - 1.0
        x_hi = project_halfspace_box(c + v / (1.0 + lam_hi))
        d2_hi = float(np.dot(x_hi - c, x_hi - c))
        if d2_hi >= r2 - tol:
            return x_hi
        x = project_halfspace_box(z)
        d2 = float(np.dot(x - c, x - c))
        if d2 <= r2:
            return x
        lam_lo, lam_prev, psi_prev = 0.0, 0.0, psi(d2)
        lam, psi_lam = lam_hi, psi(d2_hi)
        while True:
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
            elif d2 >= r2 - tol:
                return x
            else:
                lam_hi, x_hi = lam, x
            psi_lam = psi(d2)

    return project


def probe_points(fset, centre, n, rng):
    """Points inside the set, on its boundary (projections of far points)
    and outside it at several distances from `centre`."""
    inside = [centre, centre + rng.uniform(-0.5, 0.5, n)]
    outside = [centre + scale * rng.standard_normal(n) for scale in (5.0, 8.0, 30.0, 1e3)
               for _ in range(5)]
    boundary = [fset.project(z) for z in outside]
    return inside + boundary + outside


@pytest.mark.parametrize("n", (1, 2, 10, 50))
def test_ellipsoid_matches_the_plain_formulas(n):
    p = np.array(_uniform(n, 0.5, 2.0, n))
    e = make_ellipsoid(n, p_diag=p)
    g, project = plain_ellipsoid(p)
    for x in probe_points(e, np.ones(n), n, np.random.default_rng(n)):
        assert e.g(x).tobytes() == g(x).tobytes()
        assert e.g(x.tolist()).tobytes() == g(x).tobytes()
        assert e.project(x).tobytes() == project(x).tobytes()
        assert e.project(x.tolist()).tobytes() == project(x.tolist()).tobytes()


@pytest.mark.parametrize("n", (1, 2, 10, 50))
def test_composite_matches_the_plain_formulas(n):
    com = make_composite(n)
    project = plain_composite_projection(n)
    for x in probe_points(com, np.full(n, 4.0), n, np.random.default_rng(n)):
        assert com.project(x).tobytes() == project(x).tobytes()
        assert com.project(x.tolist()).tobytes() == project(x.tolist()).tobytes()


# ---------------------------------------------------------------------------
# shared invariants over all four shipped sets


@pytest.mark.parametrize("name", SET_NAMES)
def test_projection_feasibility_and_idempotence(name):
    fset = make_set(name, 6, ell_seed=11)
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = rng.uniform(-20.0, 20.0, 6)
        p = fset.project(z)
        assert fset.max_violation(p) <= 1e-8
        assert np.linalg.norm(fset.project(p) - p) <= 1e-8


@pytest.mark.parametrize("name", SET_NAMES)
def test_projection_optimality(name):
    fset = make_set(name, 4, ell_seed=11)
    rng = np.random.default_rng(6)
    ys = sample_feasible(fset, rng, 100)
    for _ in range(50):
        z = rng.uniform(-20.0, 20.0, 4)
        p = fset.project(z)
        bound = 1e-6 * (1.0 + float(np.linalg.norm(z)))
        for y in ys:
            assert float(np.dot(z - p, y - p)) <= bound


@pytest.mark.parametrize("name", SET_NAMES)
def test_projection_nonexpansive(name):
    fset = make_set(name, 5, ell_seed=11)
    rng = np.random.default_rng(7)
    for _ in range(100):
        z1 = rng.uniform(-20.0, 20.0, 5)
        z2 = rng.uniform(-20.0, 20.0, 5)
        lhs = np.linalg.norm(fset.project(z1) - fset.project(z2))
        assert lhs <= np.linalg.norm(z1 - z2) + 1e-8


@pytest.mark.parametrize("name", SET_NAMES)
def test_constraint_convexity_witness(name):
    fset = make_set(name, 5, ell_seed=11)
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = fset.project(rng.uniform(-15.0, 15.0, 5))
        y = fset.project(rng.uniform(-15.0, 15.0, 5))
        t = rng.uniform()
        mid = fset.g(t * x + (1.0 - t) * y)
        assert np.all(mid <= t * fset.g(x) + (1.0 - t) * fset.g(y) + 1e-10)


@pytest.mark.parametrize("n", (0, -1, 2.5, True))
@pytest.mark.parametrize("name", SET_NAMES)
def test_builders_reject_a_dimension_that_is_not_a_positive_integer(name, n):
    with pytest.raises(ValueError, match=rf"^n must be a positive integer, not {n}$"):
        make_set(name, n)


@pytest.mark.parametrize("name", SET_NAMES)
def test_builders_take_a_numpy_integer_dimension(name):
    fset = make_set(name, np.int64(3))
    assert type(fset.dim) is int and fset.dim == 3


def test_registry():
    for name in SET_NAMES:
        assert make_set(name, 3, ell_seed=1).name == name
    with pytest.raises(KeyError):
        make_set("cone", 3)
