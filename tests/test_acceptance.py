"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "criterion NN <name>: PASS/FAIL" line on the real
terminal (bypassing capture) so a full run yields a compact scorecard.
"""

import time

import numpy as np
import pytest

from curveopt.bench import BenchPlan, performance_profile, run_plan
from curve_geometry import hull_coefficients, p0, p1, reconstruct_from_hull
from curveopt.curves import CurveDecision, QuadraticCurve, feasibility_certificate
from curveopt.problems import check_gradient, get_problem, list_problems
from curveopt.sets import ConvexFeasibleSet, make_box, make_set, make_sphere
from curveopt.solvers import (
    SIGMA,
    STATUS_SEARCH_FAILURE,
    STATUS_STATIONARY,
    SolverConfig,
    adaptive_momentum,
    build_secondary_direction,
    solve,
)
from curveopt.solvers import RunRecord


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


@pytest.fixture(scope="session")
def sweep():
    """Full desk-scale sweep with traces, shared by criteria 4, 5 and 6."""
    plan = BenchPlan(
        problems=tuple(p.name for p in list_problems()),
        sets=("sph", "ell", "com", "box"),
        solvers=(("scs", 0), ("scs", 10), ("spg", 0), ("spg", 10)),
        overrides={"max_iters": 400},
        seed=0,
    )
    return run_plan(plan, record_trace=True)


def test_c01_curve_certificate_reproduction(capsys):
    start = time.perf_counter()
    x = np.array([0.0, 0.0])
    d = np.array([0.0, 4.0])
    fset = ConvexFeasibleSet(
        "half",
        2,
        lambda v: np.array([v[0]]),
        lambda v: np.array([min(v[0], 0.0), v[1]]),
    )

    bad = QuadraticCurve(x, d, np.array([4.0, 2.0]))
    ok = True
    for t in np.linspace(0.0, 1.0, 101):
        expect = np.array([4.0 * t * t, 4.0 * t - 2.0 * t * t])
        ok = ok and np.max(np.abs(bad.eval(t) - expect)) <= 1e-12
        if t > 0.0:
            ok = ok and fset.g(bad.eval(t))[0] > 0.0
    ok = ok and feasibility_certificate(bad, fset, 0.5, 0.1) is CurveDecision.FALL_BACK

    good = QuadraticCurve(x, d, np.array([-4.0, 2.0]))
    ok = ok and feasibility_certificate(good, fset, 0.5, 0.1) is CurveDecision.CURVE_OK
    prefix = None
    for q in range(61):
        t = 0.5**q
        if all(fset.g(good.eval(u))[0] <= 1e-8 for u in np.linspace(0.0, t, 33)):
            prefix = t
            break
    ok = ok and prefix is not None
    ok = ok and time.perf_counter() - start < 1.0
    report(capsys, 1, "curve-and-certificate-reproduction", ok)


def test_c02_hull_coefficient_properties(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(1000):
        c = QuadraticCurve(
            rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4)
        )
        t_hat = rng.uniform(1e-3, 1.0)
        t = rng.uniform(0.0, t_hat)
        h = hull_coefficients(t, t_hat)
        ok = ok and abs(h.a0 + h.a1 + h.a2 - 1.0) <= 1e-12
        ok = ok and min(h.a0, h.a1, h.a2) >= -1e-12
        ok = ok and np.max(np.abs(reconstruct_from_hull(c, h) - c.eval(t))) <= 1e-10
    ok = ok and time.perf_counter() - start < 5.0
    report(capsys, 2, "hull-coefficient-properties", ok)


def test_c03_feasible_endpoint_implies_feasible_curve(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    grid = np.linspace(1e-4, 1.0, 64)
    checked = 0
    ok = True
    while checked < 1000:
        # random convex constraint: affine, or a PSD quadratic
        if rng.uniform() < 0.5:
            a = rng.normal(size=3)
            b = rng.uniform(0.5, 3.0)
            g = lambda v: float(a @ v) - b
        else:
            w = rng.uniform(0.1, 2.0, 3)
            q = rng.normal(size=3)
            b = rng.uniform(1.0, 6.0)
            g = lambda v: float(np.sum(w * v * v) + q @ v) - b
        c = QuadraticCurve(
            rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)
        )
        if max(g(p0(c)), g(p1(c)), g(c.p2)) > 0.0:
            continue
        checked += 1
        ok = ok and all(g(c.eval(t)) <= 1e-8 for t in grid)
    ok = ok and time.perf_counter() - start < 10.0
    report(capsys, 3, "feasible-endpoint-implies-feasible-curve", ok)


def test_c04_sweep_iterate_feasibility(capsys, sweep):
    assert len(sweep) >= 12 * 4 * 4
    ok = all(r.status != STATUS_SEARCH_FAILURE for r in sweep)
    for r in sweep:
        ok = ok and r.max_g_final <= 1e-8
        for rec in r.trace:
            ok = ok and rec.max_g <= 1e-8
    report(capsys, 4, "sweep-iterate-feasibility", ok)


def test_c05_memoryless_runs_descend(capsys, sweep):
    ok = True
    for r in sweep:
        if r.M != 0:
            continue
        for rec in r.trace:
            if rec.t is None:
                continue
            f_next = r.trace[rec.k + 1].f
            ok = ok and f_next <= rec.f + SIGMA * rec.t * rec.grad_dot_d + 1e-12
            ok = ok and f_next < rec.f
    report(capsys, 5, "memoryless-runs-descend", ok)


def test_c06_nonmonotone_reference_bound(capsys, sweep):
    ok = True
    for r in sweep:
        if r.M != 10:
            continue
        fs = [rec.f for rec in r.trace]
        for rec in r.trace:
            if rec.t is None:
                continue
            ref = max(fs[max(0, rec.k - 10) : rec.k + 1])
            ok = ok and fs[rec.k + 1] <= ref + SIGMA * rec.t * rec.grad_dot_d + 1e-12
    report(capsys, 6, "nonmonotone-reference-bound", ok)


def test_c07_quadratic_cross_check(capsys):
    start = time.perf_counter()
    p = get_problem("quad_shift50")
    fset = make_box(50)
    # center alternates +/-2, so the box clamps every coordinate to +/-1
    # and the minimum value is sum_i i * (2 - 1)^2
    closed_form = float(sum(range(1, 51)))
    ok = True
    for solver in ("scs", "spg"):
        for m in (0, 10):
            r = solve(solver, p, fset, SolverConfig(M=m))
            ok = ok and r.status == STATUS_STATIONARY
            ok = ok and r.iterations <= 5000
            ok = ok and r.stationarity <= 1e-3
            ok = ok and abs(r.f_star - closed_form) <= 1e-6 * closed_form
    ok = ok and time.perf_counter() - start < 30.0
    report(capsys, 7, "constrained-quadratic-cross-check", ok)


def test_c08_projection_oracles(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    ok = True

    sph = make_sphere(4)
    box = make_box(4)
    for _ in range(1000):
        z = rng.uniform(-15.0, 15.0, 4)
        nrm = float(np.linalg.norm(z))
        expect = z if nrm <= 10.0 else (10.0 / nrm) * z
        ok = ok and np.array_equal(sph.project(z), expect)
        ok = ok and np.array_equal(box.project(z), np.clip(z, -1.0, 1.0))

    for name in ("ell", "com"):
        fset = make_set(name, 4, ell_seed=9)
        ys = [fset.project(rng.uniform(-15.0, 15.0, 4)) for _ in range(100)]
        for _ in range(1000):
            z = rng.uniform(-15.0, 15.0, 4)
            p = fset.project(z)
            bound = 1e-6 * (1.0 + float(np.linalg.norm(z)))
            ok = ok and all(float(np.dot(z - p, y - p)) <= bound for y in ys)
    ok = ok and time.perf_counter() - start < 60.0
    report(capsys, 8, "projection-oracles", ok)


def test_c09_momentum_reduction_at_boundary(capsys):
    b = make_box(2)
    d, x, x_prev = np.array([-0.05, 0.02]), np.array([1.0, 0.0]), np.array([0.9, -0.5])
    curve, beta_k = adaptive_momentum(
        c=QuadraticCurve(x, d, build_secondary_direction(d, x, x_prev, beta=0.9, eta=2.5)),
        x_prev=x_prev,
        fset=b,
        beta=0.9,
        eta=2.5,
    )
    ok = beta_k > 0.0
    ok = ok and beta_k >= 0.9 * 0.5**60
    ok = ok and b.max_violation(curve.p2) <= 1e-8
    report(capsys, 9, "momentum-reduction-at-boundary", ok)


def test_c10_gradient_validation(capsys):
    ok = True
    for p in list_problems():
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, p.dim)
            ok = ok and check_gradient(p, x, 1e-6) <= 1e-5
    report(capsys, 10, "gradient-validation", ok)


def test_c11_profile_fixture(capsys):
    def rec(solver, problem, status, elapsed):
        return RunRecord(
            solver_name=solver,
            problem_name=problem,
            set_name="box",
            status=status,
            f_star=0.0,
            stationarity=0.0,
            iterations=1,
            fallbacks=0,
            adaptive_reductions=0,
            elapsed=elapsed,
            M=0,
            dim=2,
        )

    records = [
        rec("scs", "p0", "stationary", 1.0),
        rec("spg", "p0", "stationary", 2.0),
        rec("scs", "p1", "stationary", 2.0),
        rec("spg", "p1", "stationary", 2.0),
        rec("scs", "p2", "iter_limit", 9.0),
        rec("spg", "p2", "stationary", 4.0),
    ]
    table = performance_profile(records, "time", [1.0, 2.0, 4.0])
    ok = table.rho["scs-M0"] == (2 / 3, 2 / 3, 2 / 3)
    ok = ok and table.rho["spg-M0"] == (2 / 3, 1.0, 1.0)
    ok = ok and len(table.included_instances) == 3
    report(capsys, 11, "profile-fixture", ok)
