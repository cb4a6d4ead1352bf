import itertools
import math

import numpy as np
import pytest

from curve_geometry import (
    eval_bernstein,
    halfspace_x1,
    hull_coefficients,
    infeasibility_propagates,
    p0,
    p1,
    reconstruct_from_hull,
    velocity,
)
from curveopt.curves import CurveDecision, QuadraticCurve, feasibility_certificate
from curveopt.errors import ContractError, DomainError
from curveopt.sets import (
    FEAS_TOL,
    SET_NAMES,
    ConvexFeasibleSet,
    make_box,
    make_set,
    make_sphere,
)


def linear_set(normals, offsets):
    """Polyhedron {x : a_i^T x - b_i <= 0} for hull-containment checks."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)

    def g(x):
        return normals @ x - offsets

    return ConvexFeasibleSet("lin", normals.shape[1], g, lambda x: x)


EX_CURVE = QuadraticCurve(
    x=np.array([0.0, 0.0]), d=np.array([0.0, 4.0]), s=np.array([4.0, 2.0])
)


# ---------------------------------------------------------------------------
# evaluation and velocity


def test_eval_matches_worked_parametric_form():
    # gamma(t) = [4 t^2, 4 t - 2 t^2]
    for t in np.linspace(0.0, 1.0, 101):
        expect = np.array([4.0 * t * t, 4.0 * t - 2.0 * t * t])
        assert np.allclose(EX_CURVE.eval(t), expect, atol=1e-14)
    assert np.allclose(EX_CURVE.eval(0.5), [1.0, 1.5])


def test_eval_endpoints():
    assert np.array_equal(EX_CURVE.eval(0.0), EX_CURVE.x)
    assert np.allclose(EX_CURVE.eval(1.0), [4.0, 2.0])
    assert np.allclose(EX_CURVE.p2, [4.0, 2.0])


def test_eval_at_one_is_the_monomial_form_bit_for_bit():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 0.3]
    x, d, s = (np.array(v) for v in zip(*itertools.product(values, repeat=3)))
    with np.errstate(all="ignore"):
        expect = x + 1.0 * d + 1.0 * (s - d)
        c = QuadraticCurve(x, d, s)
        assert c.eval(1.0).tobytes() == expect.tobytes()
    # the endpoint is built once, and every check of it tests that array
    assert c.eval(1.0) is c.p2


def test_eval_domain_error():
    with pytest.raises(DomainError):
        EX_CURVE.eval(-0.1)
    with pytest.raises(DomainError):
        EX_CURVE.eval(1.1)


def test_velocity():
    assert np.array_equal(velocity(EX_CURVE, 0.0), EX_CURVE.d)
    assert np.allclose(velocity(EX_CURVE, 1.0), [8.0, 0.0])
    with pytest.raises(DomainError):
        velocity(EX_CURVE, 2.0)


def test_straight_line_degeneracy_is_exact():
    d = np.array([0.3, -1.7, 2.0])
    c = QuadraticCurve(x=np.zeros(3), d=d, s=np.array(d))
    assert c.is_straight_line()
    for t in (0.0, 0.25, 0.7, 1.0):
        assert np.array_equal(c.eval(t), t * d)
        assert np.array_equal(velocity(c, t), d)


def random_curve(rng, n=4, scale=3.0):
    return QuadraticCurve(
        x=rng.uniform(-scale, scale, n),
        d=rng.uniform(-scale, scale, n),
        s=rng.uniform(-scale, scale, n),
    )


def test_bernstein_monomial_equivalence():
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(1000):
        c = random_curve(rng)
        tol = 1e-12 * (1.0 + np.linalg.norm(c.p2))
        for t in grid[::10]:
            assert np.max(np.abs(c.eval(t) - eval_bernstein(c, t))) <= tol


# ---------------------------------------------------------------------------
# hull coefficients


def test_hull_coefficients_at_t_hat():
    h = hull_coefficients(0.5, 0.5)
    assert (h.a0, h.a1, h.a2) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)


def test_hull_coefficients_at_zero():
    h = hull_coefficients(0.0, 0.7)
    assert (h.a0, h.a1, h.a2) == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)


def test_hull_coefficients_worked_value():
    h = hull_coefficients(0.25, 0.5)
    assert (h.a0, h.a1, h.a2) == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)


def test_hull_coefficients_domain_errors():
    with pytest.raises(DomainError):
        hull_coefficients(0.6, 0.5)
    with pytest.raises(DomainError):
        hull_coefficients(0.0, 0.0)
    with pytest.raises(DomainError):
        hull_coefficients(0.5, 1.5)


def test_hull_identity_on_random_curves():
    rng = np.random.default_rng(1)
    for _ in range(500):
        c = random_curve(rng)
        t_hat = rng.uniform(1e-3, 1.0)
        t = rng.uniform(0.0, t_hat)
        h = hull_coefficients(t, t_hat)
        assert h.a0 + h.a1 + h.a2 == pytest.approx(1.0, abs=1e-12)
        assert min(h.a0, h.a1, h.a2) >= -1e-12
        assert np.max(np.abs(reconstruct_from_hull(c, h) - c.eval(t))) <= 1e-10


def test_hull_containment_in_linear_sets():
    # control points inside a random polyhedron keep the whole curve inside
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = rng.integers(1, 6)
        normals = rng.normal(size=(m, 3))
        offsets = rng.uniform(1.0, 4.0, m)
        fset = linear_set(normals, offsets)
        for _ in range(20):
            c = random_curve(rng, n=3, scale=1.5)
            if fset.max_violation(p0(c)) > 0 or fset.max_violation(p1(c)) > 0:
                continue
            if fset.max_violation(c.p2) > 0:
                continue
            for t in np.linspace(0.0, 1.0, 21):
                assert fset.max_violation(c.eval(t)) <= 1e-10


# ---------------------------------------------------------------------------
# infeasibility propagation


def test_propagation_on_worked_infeasible_curve():
    fset = halfspace_x1()
    for t in np.linspace(0.01, 1.0, 50):
        assert infeasibility_propagates(EX_CURVE, fset, t, 0)
    assert fset.g(EX_CURVE.p2)[0] == pytest.approx(4.0)


def test_propagation_vacuous_on_feasible_line():
    fset = halfspace_x1()
    c = QuadraticCurve(
        x=np.array([-1.0, 0.0]), d=np.array([0.5, 1.0]), s=np.array([0.5, 1.0])
    )
    for t in np.linspace(0.0, 1.0, 21):
        assert fset.g(c.eval(t))[0] <= 0.0


def test_propagation_contrapositive_scan():
    # feasible endpoint for a linear constraint implies no interior violation
    rng = np.random.default_rng(3)
    grid = np.linspace(1e-4, 1.0, 200)
    found = 0
    for _ in range(500):
        a = rng.normal(size=3)
        b = rng.uniform(0.5, 2.0)
        fset = linear_set(a[None, :], [b])
        c = random_curve(rng, n=3, scale=1.0)
        if max(fset.g(p0(c))[0], fset.g(p1(c))[0], fset.g(c.p2)[0]) > 0:
            continue
        found += 1
        for t in grid[::4]:
            assert fset.g(c.eval(t))[0] <= 1e-10
    assert found > 50


def test_propagation_contract_error():
    fset = halfspace_x1()
    bad = QuadraticCurve(
        x=np.array([1.0, 0.0]), d=np.zeros(2), s=np.zeros(2)
    )
    with pytest.raises(ContractError):
        infeasibility_propagates(bad, fset, 0.5, 0)


# ---------------------------------------------------------------------------
# feasibility certificate


def test_certificate_accepts_feasible_endpoint():
    fset = halfspace_x1()
    c = QuadraticCurve(
        x=np.array([0.0, 0.0]), d=np.array([0.0, 4.0]), s=np.array([-4.0, 2.0])
    )
    assert feasibility_certificate(c, fset, 0.25, 0.0) is CurveDecision.CURVE_OK


def test_certificate_rejects_infeasible_endpoint():
    fset = halfspace_x1()
    assert feasibility_certificate(EX_CURVE, fset, 0.25, 0.0) is CurveDecision.FALL_BACK


def test_certificate_interior_empty_active_set():
    fset = halfspace_x1()
    c = QuadraticCurve(
        x=np.array([-5.0, 0.0]), d=np.array([1.0, 1.0]), s=np.array([100.0, 0.0])
    )
    # endpoint is wildly infeasible, but no constraint is active near x
    assert feasibility_certificate(c, fset, 0.5, 0.1) is CurveDecision.CURVE_OK


def test_certificate_contract_errors():
    fset = halfspace_x1()
    infeasible_base = QuadraticCurve(
        x=np.array([1.0, 0.0]), d=np.zeros(2), s=np.zeros(2)
    )
    with pytest.raises(ContractError):
        feasibility_certificate(infeasible_base, fset, 0.5, 0.0)
    infeasible_step = QuadraticCurve(
        x=np.array([-1.0, 0.0]), d=np.array([2.0, 0.0]), s=np.zeros(2)
    )
    with pytest.raises(ContractError):
        feasibility_certificate(infeasible_step, fset, 0.5, 0.0)


def test_certificate_domain_errors():
    fset = halfspace_x1()
    c = QuadraticCurve(x=np.array([-1.0, 0.0]), d=np.zeros(2), s=np.zeros(2))
    with pytest.raises(DomainError):
        feasibility_certificate(c, fset, 1.0, 0.0)
    with pytest.raises(DomainError):
        feasibility_certificate(c, fset, 0.5, -0.1)
    # NaN reads no constraint active, which would accept any curve
    with pytest.raises(DomainError):
        feasibility_certificate(c, fset, 0.5, math.nan)


def test_certificate_accepts_then_grid_has_feasible_prefix():
    # accepted curves admit a feasible prefix [0, t_bar] on a geometric grid
    fset = halfspace_x1()
    c = QuadraticCurve(
        x=np.array([0.0, 0.0]), d=np.array([0.0, 4.0]), s=np.array([-4.0, 2.0])
    )
    assert feasibility_certificate(c, fset, 0.25, 0.0) is CurveDecision.CURVE_OK
    delta = 0.5
    t_bar = None
    for q in range(61):
        t = delta**q
        if all(
            fset.max_violation(c.eval(u)) <= 1e-8 for u in np.linspace(0.0, t, 33)
        ):
            t_bar = t
            break
    assert t_bar is not None


# ---------------------------------------------------------------------------
# certificate against its index-loop reference


def active_set(fset, x, eps):
    """Indices i with g_i(x) >= -eps: the constraints within eps of being tight."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return frozenset(int(i) for i in np.flatnonzero(fset.g(x) >= -eps))


def test_active_set_sphere_boundary():
    s = make_sphere(2)
    assert active_set(s, np.array([10.0, 0.0]), 0.0) == {0}


def test_active_set_sphere_interior_empty():
    s = make_sphere(2)
    assert active_set(s, np.zeros(2), 0.1) == set()


def test_active_set_relaxed_box():
    b = make_box(2)
    assert active_set(b, np.array([0.999, 0.0]), 0.01) == {0}


def test_active_set_rejects_negative_eps():
    with pytest.raises(ValueError):
        active_set(make_box(2), np.zeros(2), -1.0)


def certificate_by_index_loop(c, fset, t_tilde, eps, feas_tol=FEAS_TOL):
    """Reference decision: active_set at the probe, then a loop over its indices."""
    probe = active_set(fset, c.x + t_tilde * c.d, eps)
    if not probe:
        return CurveDecision.CURVE_OK
    g_end = fset.g(c.p2)
    for i in probe:
        if g_end[i] > feas_tol:
            return CurveDecision.FALL_BACK
    return CurveDecision.CURVE_OK


@pytest.mark.parametrize("name", SET_NAMES)
def test_certificate_matches_index_loop_on_random_curves(name):
    rng = np.random.default_rng(11)
    n = 4
    fset = make_set(name, n)
    seen = set()
    for _ in range(400):
        # projections of far points land on the boundary, so that
        # constraints are active at the probe
        x = fset.project(rng.uniform(-30.0, 30.0, n))
        d = fset.project(x + rng.uniform(-30.0, 30.0, n) * rng.uniform()) - x
        s = d + rng.normal(size=n) * rng.uniform(0.0, 5.0)
        c = QuadraticCurve(x, d, s)
        t_tilde = rng.uniform(0.05, 0.95)
        eps = rng.choice([0.0, rng.uniform(0.0, 1.0)])
        want = certificate_by_index_loop(c, fset, t_tilde, eps)
        assert feasibility_certificate(c, fset, t_tilde, eps) is want
        seen.add(want)
    assert seen == set(CurveDecision)


def nan_flagged_halfspace():
    """g = (x0, x0 - 0.1) with g_1 NaN for 0 < x1 < 1 and g_0 NaN for x1 >= 2."""

    def g(x):
        out = np.array([x[0], x[0] - 0.1])
        if 0.0 < x[1] < 1.0:
            out[1] = np.nan
        if x[1] >= 2.0:
            out[0] = np.nan
        return out

    def project(x):
        out = np.array(x, dtype=float)
        out[0] = min(out[0], 0.0)
        return out

    return ConvexFeasibleSet("nanhalf", 2, g, project)


@pytest.mark.parametrize(
    "x0, eps, s, want",
    [
        # g_0 at the probe equals -eps exactly: active, and the endpoint violates it
        (-0.25, 0.25, [0.5, 1.0], CurveDecision.FALL_BACK),
        # one ulp less relaxation: nothing is active
        (-0.25, np.nextafter(0.25, 0.0), [0.5, 1.0], CurveDecision.CURVE_OK),
        # g_0 = 0 is active at the probe, g_1 is NaN there; the endpoint violates g_0
        (0.0, 0.0, [0.5, 1.0], CurveDecision.FALL_BACK),
        # the endpoint's g_0 is NaN, which is no violation
        (0.0, 0.0, [0.5, 3.0], CurveDecision.CURVE_OK),
    ],
)
def test_certificate_probe_edge_cases(x0, eps, s, want):
    fset = nan_flagged_halfspace()
    # x and x + d lie at x1 = 0 and x1 = 1, where g is finite; the probe at
    # t_tilde = 0.5 lies at x1 = 0.5, where g_1 is NaN
    c = QuadraticCurve(x=np.array([x0, 0.0]), d=np.array([0.0, 1.0]), s=np.array(s))
    assert certificate_by_index_loop(c, fset, 0.5, eps) is want
    assert feasibility_certificate(c, fset, 0.5, eps) is want
