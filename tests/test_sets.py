import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curveopt
from curveopt.errors import ProjectionError
from curveopt.sets import (
    FEAS_TOL,
    SET_NAMES,
    make_box,
    make_composite,
    make_ellipsoid,
    make_set,
    make_sphere,
)
from curveopt.solvers import stationarity_measure


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


@pytest.mark.parametrize("name", ("sph", "ell", "com"))
def test_a_square_that_overflows_raises_projection_error_with_warnings_as_errors(name):
    # under `python -W error::RuntimeWarning` numpy raises the overflow of
    # 1e300**2 as a RuntimeWarning, which the projection turns into its own
    # ProjectionError, as without the filter
    fset = make_set(name, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ProjectionError):
            fset.project([1e300, 0.0])


@pytest.mark.parametrize("name", ("sph", "ell", "com"))
def test_a_constraint_value_that_overflows_is_inf_with_warnings_as_errors(name):
    # the constraint value at [1e300, 0] squares 1e300, which overflows; g
    # takes it as inf, as it is without the filter, so the point is infeasible
    fset = make_set(name, 2)
    with np.errstate(over="ignore"):
        assert fset.max_violation([1e300, 0.0]) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert fset.max_violation([1e300, 0.0]) == math.inf


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


def plain_diagonal(n, seed):
    """make_ellipsoid's seeded diagonal, drawn plainly: 0.5 + 1.5 * u for
    each of the first n draws u of random.Random(seed)."""
    rng = random.Random(seed)
    return np.array([0.5 + 1.5 * rng.random() for _ in range(n)])


#: repr of make_ellipsoid(n, seed=s).g(np.zeros(n)).tolist(), that is sum(1/p_i) - 25
ELL_G0 = {
    (1, 0): "[-24.43395140582902]",
    (1, 5): "[-24.302821328449422]",
    (1, 2**32): "[-23.506328948850264]",
    (1, 2**64 + 3): "[-24.465084076775145]",
    (1, 2**128 + 5): "[-24.025482021944832]",
    (7, 0): "[-19.524014782118527]",
    (7, 5): "[-19.577433875688715]",
    (7, 2**32): "[-17.662132000026087]",
    (7, 2**64 + 3): "[-17.29155017882115]",
    (7, 2**128 + 5): "[-17.74764679975728]",
    (1000, 0): "[907.8094166576182]",
    (1000, 5): "[913.8113182969892]",
    (1000, 2**32): "[893.8201277571185]",
    (1000, 2**64 + 3): "[905.2056308601203]",
    (1000, 2**128 + 5): "[914.4994738738569]",
}


def test_ellipsoid_diagonal_draw_is_pinned():
    for (n, seed), want in ELL_G0.items():
        e = make_ellipsoid(n, seed=seed)
        assert repr(e.g(np.zeros(n)).tolist()) == want, (n, seed)
        plain = make_ellipsoid(n, p_diag=plain_diagonal(n, seed))
        # a far point whose projection depends on every entry and its order
        z = 30.0 * np.arange(1.0, n + 1.0)
        assert e.g(z).tobytes() == plain.g(z).tobytes(), (n, seed)
        assert e.project(z).tobytes() == plain.project(z).tobytes(), (n, seed)


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


@pytest.mark.parametrize(
    "name, n", [("com", 2), ("com", 4), ("ell", 2), ("ell", 4), ("ell", 10)]
)
def test_projection_of_far_points(name, n):
    # far from the set, P(z) must still be feasible and satisfy the
    # variational inequality, measured along the unit vector (z - p)/||z - p||
    c = make_set(name, n, ell_seed=n)
    rng = np.random.default_rng(9)
    ys = sample_feasible(c, rng, 200)
    for scale in (1e3, 1e6, 1e12, 1e100, 1e150):
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


@pytest.mark.parametrize("scale", (math.nextafter(1e18, 2e18), math.nextafter(1e21, 2e21), 1e25))
def test_composite_projects_a_point_too_far_for_its_breakpoints(scale):
    # such points are x - eta * g at the wide window's eta_max 1e30 with
    # |g_i| near 1e-9.  Every breakpoint of the halfspace's search rounds to
    # one value, at which a - nu w cancels to within an ulp of a; one ulp
    # above 1e18 and 1e21 it clipped some entries to hi instead of lo, and
    # the search divided by zero
    c = make_composite(10)
    v = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
    p = c.project(scale * v)
    assert c.max_violation(p) <= FEAS_TOL
    np.testing.assert_allclose(p, c.project(1e16 * v), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_ellipsoid_rejects_non_finite_point_at_once(bad):
    # no Newton step from here is finite, so the projection raises before it
    e = make_ellipsoid(3, seed=2)
    with pytest.raises(ProjectionError, match=r"^ellipsoid projection: g\(z\) is not finite$"):
        e.project(np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize(
    "offset, message",
    (
        # just outside the ball, with no pass allowed
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


#: loop passes allowed in the two tests below.  Stepping to the root of the
#: active piece needs at most 2 on their points (2 on the far point, and 2,
#: 2 and 1 at n = 2, 4 and 10); 4 leaves a margin of 2.  Secant steps on
#: 1/rt - 1/||x - c|| needed 15 on the far point and 9, 13 and 6 on the
#: uniform ones.
COM_PASSES = 4


def test_composite_projection_of_a_far_point_takes_few_passes(monkeypatch):
    # a point a wood4/com run projects: ball and halfspace are both active
    # at its projection, and x_1 sits on the upper bound
    monkeypatch.setattr(curveopt.sets, "_COM_MAX_ITERS", COM_PASSES)
    c = make_composite(4)
    p = c.project(np.array([2239.26, 681.56, 2015.71, 617.83]))
    g = c.g(p)
    assert abs(g[0]) <= 1e-10 and abs(g[1]) <= 1e-10
    assert p[0] == 10.0


@pytest.mark.parametrize("n", [2, 4, 10])
def test_composite_projection_takes_few_passes(monkeypatch, n):
    monkeypatch.setattr(curveopt.sets, "_COM_MAX_ITERS", COM_PASSES)
    c = make_composite(n)
    rng = np.random.default_rng(12)
    for _ in range(300):
        assert c.max_violation(c.project(rng.uniform(-30.0, 30.0, n))) <= FEAS_TOL


@pytest.mark.parametrize("name", SET_NAMES)
def test_projection_returns_float64(name):
    # points inside and outside each set, as lists and as int64 and float32
    # arrays
    fset = make_set(name, 3)
    for point in ([1, 1, 1], [30, -20, 4]):
        for z in (point, np.array(point), np.array(point, dtype=np.float32)):
            assert fset.project(z).dtype == np.float64, (point, type(z))


#: Newton passes allowed in the two tests below, the last pass being the one
#: that finds r2 - rhs within tolerance.  Newton on the secular equation needs
#: at most 5 on their points, and on every one of the 785 active points that
#: the desk plan's ell runs project at seed 0 (and on seeds 1-3 too); 7
#: leaves the margin of 2 that COM_PASSES leaves.
ELL_STEPS = 7


@pytest.mark.parametrize("n", [1, 2, 10, 1000])
def test_ellipsoid_projection_takes_few_steps(monkeypatch, n):
    monkeypatch.setattr(curveopt.sets, "_ELL_MAX_ITERS", ELL_STEPS)
    e = make_ellipsoid(n, seed=n)
    rng = np.random.default_rng(13)
    points = [rng.uniform(-30.0, 30.0, n) for _ in range(100)]
    points += [scale * rng.standard_normal(n) for scale in (1e3, 1e10, 1e20, 1e50)
               for _ in range(10)]
    for z in points:
        assert e.max_violation(e.project(z)) <= FEAS_TOL


@pytest.mark.parametrize(
    "z",
    (
        # far points of rosenbrock2/ell, wood4/ell and chnrosnb4/ell runs,
        # where Newton needs 3, 4 and 4 passes
        [2902.87, -11009.51],
        [3343.36, 904.44, 3884.13, 959.9],
        [1189.62, -571.39, -176.25, 35.44],
        # chnrosnb4/ell, where Newton needs 5
        [0.01, 9.79, -9.27, 5.59],
        # rosenbrock2/ell, near the set
        [-4.38, -3.41],
    ),
)
def test_ellipsoid_projection_of_desk_points_takes_few_steps(monkeypatch, z):
    # points that the desk plan's runs project, on the ell it builds for them
    monkeypatch.setattr(curveopt.sets, "_ELL_MAX_ITERS", ELL_STEPS)
    z = np.array(z)
    e = make_set("ell", len(z), ell_seed=len(z))
    assert e.max_violation(z) > 0.0
    assert abs(e.max_violation(e.project(z))) <= 1e-10


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
        lam, x = 0.0, d
        for _ in range(200):
            r2 = float((x * x / p).sum())
            if r2 - rhs <= 1e-10:
                return c + x
            # Newton on 1/sqrt(r2(lam)) - 1/sqrt(rhs), where x = x(lam) - c
            # and r2'(lam) = -4 dr2
            dr2 = float((x * x / p / (p + 2.0 * lam)).sum())
            lam = lam + (math.sqrt(r2 / rhs) - 1.0) * (r2 / (2.0 * dr2))
            x = p * d / (p + 2.0 * lam)
        raise AssertionError("the plain Newton iteration did not converge")

    return g, project


def plain_composite_projection(n):
    """make_composite's projection with ||x - c||^2 and the root of the
    active piece written out at each use: the reference for its shared
    squared distance and its step."""
    c = np.full(n, 4.0)
    w = np.full(n, 1.0 / n)
    lo, hi = -5.0, 10.0
    r2 = 100.0
    tol = 1e-11
    rt2 = r2 - 0.5 * tol
    rt = math.sqrt(rt2)

    def x_of(a, nu):
        return np.minimum(np.maximum(a - nu * w, lo), hi)

    def h(x):
        return float(np.dot(w, x)) - 5.0

    def project_halfspace_box(a):
        x_i = np.minimum(np.maximum(a, lo), hi)
        h_i = h(x_i)
        if h_i <= 0.0:
            return x_i, False
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
        return x_i + (h_i / (h_i - h_j)) * (x_j - x_i), True

    def project(z):
        z = np.asarray(z, dtype=float)
        v = z - c
        dz2 = float(np.dot(v, v))
        if dz2 <= r2:
            return project_halfspace_box(z)[0]
        lam_hi = math.sqrt(dz2) / rt - 1.0
        x_hi, active = project_halfspace_box(c + v / (1.0 + lam_hi))
        if float(np.dot(x_hi - c, x_hi - c)) >= r2 - tol:
            return x_hi
        x_0 = project_halfspace_box(z)[0]
        if float(np.dot(x_0 - c, x_0 - c)) <= r2:
            return x_0
        lam_lo, x = 0.0, x_hi
        while True:
            if lam_hi - lam_lo <= 4.0 * math.ulp(lam_hi):
                return x_hi
            # ||x(lam) - c||^2 = s^2 den + rt2 - rest on the piece that holds
            # x, with s = 1 / (1 + lam); step to where it equals rt2
            free = (x > lo) & (x < hi)
            u_bound = x[~free] - c[~free]
            v_free = v[free]
            k = len(v_free)
            rest = rt2 - float(np.dot(u_bound, u_bound))
            if active and k > 0:
                kappa = (n - u_bound.sum()) / k
                v_free = v_free - v_free.mean()
                rest = rest - k * kappa * kappa
            den = float(np.dot(v_free, v_free))
            s = math.sqrt(rest / den) if rest > 0.0 and den > 0.0 else 0.0
            lam = 1.0 / s - 1.0 if s > 0.0 else math.nan
            if not lam_lo < lam < lam_hi:
                lam = 0.5 * (lam_lo + lam_hi)
            x, active = project_halfspace_box(c + v / (1.0 + lam))
            d2 = float(np.dot(x - c, x - c))
            if d2 > r2:
                lam_lo = lam
            elif d2 >= r2 - tol:
                return x
            else:
                lam_hi, x_hi = lam, x

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
    p = plain_diagonal(n, n)
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
# constraint vectors and their maxima, against np.concatenate and
# np.maximum.reduce


def plain_g(name, n):
    """The constraint vector of `vector_set(name, n)`, part by part, joined by
    np.concatenate."""
    if name == "sph":
        return lambda x: np.array([float(x.dot(x)) - 100.0])
    if name == "ell":
        return plain_ellipsoid(plain_diagonal(n, n))[0]
    if name == "box":
        return lambda x: np.concatenate([x - 1.0, -1.0 - x])
    c = np.full(n, 4.0)
    w = np.full(n, 1.0 / n)

    def g(x):
        d = x - c
        head = np.array([float(d.dot(d)) - 100.0, float(w.dot(x)) - 5.0])
        return np.concatenate([head, x - 10.0, -5.0 - x])

    return g


def vector_set(name, n):
    if name == "ell":
        return make_ellipsoid(n, p_diag=plain_diagonal(n, n))
    return make_set(name, n)


def vector_points(fset, n, rng):
    """Random points at three scales, points on the boundary (projections of
    far points, and for the box points with entries at its bounds), and
    random points with one entry +inf, -inf or NaN, or all entries NaN."""
    random_points = [scale * rng.standard_normal(n) for scale in (0.3, 3.0, 30.0)]
    boundary = [fset.project(30.0 * rng.standard_normal(n)) for _ in range(3)]
    if fset.name == "box":
        boundary += [np.ones(n), -np.ones(n), rng.choice((-1.0, 1.0), n)]
    special = [np.full(n, np.nan)]
    for bad in (np.inf, -np.inf, np.nan):
        x = 3.0 * rng.standard_normal(n)
        x[rng.integers(n)] = bad
        special.append(x)
    return random_points, boundary, special


VECTOR_DIMS = (1, 2, 4, 1000)


@pytest.mark.parametrize("n", VECTOR_DIMS)
@pytest.mark.parametrize("name", SET_NAMES)
def test_constraint_vector_and_its_maximum_match_the_plain_forms(name, n):
    fset = vector_set(name, n)
    g = plain_g(name, n)
    random_points, boundary, special = vector_points(fset, n, np.random.default_rng(n))
    with np.errstate(all="ignore"):  # inf - inf and inf * 0 in the dots
        for x in random_points + boundary + special:
            a, b = fset.g(x), fset.g(x)
            assert a.tobytes() == g(x).tobytes()
            assert fset.g(x.tolist()).tobytes() == a.tobytes()
            # a fresh float64 array on every call, sharing memory with nothing
            assert a.dtype == np.float64 and a.flags.owndata and a.flags.writeable
            assert a is not b and not np.shares_memory(a, b)
            assert not np.shares_memory(a, x)
            top = fset.max_violation(x)
            reduced = float(np.maximum.reduce(g(x)))
            assert type(top) is float
            if math.isnan(reduced):
                assert math.isnan(top) and not top <= FEAS_TOL
            else:
                assert top == reduced
    # a NaN entry anywhere makes the maximum NaN, so no point with one is
    # feasible
    assert all(math.isnan(fset.max_violation(x)) for x in special if np.isnan(x).any())


@pytest.mark.parametrize("n", VECTOR_DIMS)
@pytest.mark.parametrize("name", SET_NAMES)
def test_stationarity_measure_is_the_largest_entry_of_the_projected_step(name, n):
    fset = vector_set(name, n)
    rng = np.random.default_rng(n + 1)
    random_points, boundary, _ = vector_points(fset, n, rng)
    for x in [fset.project(z) for z in random_points] + boundary:
        grads = [size * rng.standard_normal(n) for size in (1e-9, 1e-3, 1.0, 1e3)]
        if name == "box":  # the box projects inf and NaN entries too
            for bad in (np.inf, -np.inf, np.nan):
                grad = rng.standard_normal(n)
                grad[rng.integers(n)] = bad
                grads.append(grad)
        for grad in grads:
            expected = float(np.max(np.abs(fset.project(x - grad) - x)))
            assert repr(stationarity_measure(fset, x, grad)) == repr(expected)


@pytest.mark.parametrize("n", VECTOR_DIMS)
@pytest.mark.parametrize("name", SET_NAMES)
def test_a_point_of_the_wrong_length_is_rejected(name, n):
    # g checks the shape before any set's formula sees the point, where a
    # 1-vector would broadcast as a scalar does
    fset = make_set(name, n)
    for m in sorted({0, 1, n - 1, n + 1, 2 * n + 2} - {n}):
        x = np.zeros(m)
        message = rf"^point for {name} has shape \({m},\)$"
        with pytest.raises(ValueError, match=message):
            fset.g(x)
        with pytest.raises(ValueError, match=message):
            fset.max_violation(x)


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
