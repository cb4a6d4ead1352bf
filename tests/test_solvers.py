import numpy as np
import pytest

from curveopt.curves import CurveDecision, QuadraticCurve, feasibility_certificate
from curveopt.errors import SearchFailureError
from curveopt.problems import SmoothProblem, get_problem
from curveopt.sets import FEAS_TOL, ConvexFeasibleSet, make_box, make_set
from curveopt.solvers import (
    STATUS_NON_FINITE,
    STATUS_SEARCH_FAILURE,
    STATUS_STATIONARY,
    SolverConfig,
    adaptive_momentum,
    build_secondary_direction,
    curve_search,
    scs_solve,
    solve,
    spectral_eta,
    spg_direction,
    spg_solve,
    stationarity_measure,
)


def sum_of_squares(n):
    return SmoothProblem(
        f"ss{n}",
        n,
        lambda x: float(np.dot(x, x)),
        lambda x: 2.0 * np.asarray(x, dtype=float),
        np.ones(n),
    )


def steep1():
    return SmoothProblem(
        "steep1",
        1,
        lambda x: float(2.0 * x[0] * x[0]),
        lambda x: np.array([4.0 * x[0]]),
        np.array([1.0]),
    )


def halfspace_x1(n=2):
    def g(x):
        return np.array([x[0]])

    def g_grad(x, i):
        e = np.zeros(n)
        e[0] = 1.0
        return e

    def project(x):
        out = np.array(x, dtype=float)
        out[0] = min(out[0], 0.0)
        return out

    return ConvexFeasibleSet("half", n, 1, g, g_grad, project)


# ---------------------------------------------------------------------------
# building blocks


def test_spg_direction_worked_value():
    p = sum_of_squares(2)
    b = make_box(2)
    d = spg_direction(p, b, np.array([1.0, 0.0]), 1.0)
    assert np.allclose(d, [-2.0, 0.0])


def test_spg_direction_zero_at_stationary_point():
    p = sum_of_squares(2)
    b = make_box(2)
    assert np.allclose(spg_direction(p, b, np.zeros(2), 0.5), [0.0, 0.0])


def test_spectral_eta_quotient():
    assert spectral_eta(np.array([1.0, 0.0]), np.array([2.0, 0.0]), 1e-3, 1e3) == 0.5


def test_spectral_eta_nonpositive_curvature():
    assert spectral_eta(np.array([1.0]), np.array([-1.0]), 1e-3, 1e3) == 1e3
    assert spectral_eta(np.zeros(2), np.zeros(2), 1e-3, 1e3) == 1e3


def test_spectral_eta_clamped():
    # r'r / r'y = 1 / 2000 below the floor
    assert spectral_eta(np.array([1.0]), np.array([2000.0]), 1e-3, 1e3) == 1e-3
    assert spectral_eta(np.array([1.0]), np.array([1e-6]), 1e-3, 1e3) == 1e3


def test_build_secondary_direction_worked_value():
    s = build_secondary_direction(
        d=np.array([1.0, 0.0]),
        x=np.array([2.0, 2.0]),
        x_prev=np.array([1.0, 1.0]),
        alpha=0.5,
        beta=0.25,
        eta=2.0,
    )
    # 0.5 * d + 0.25 * 2.0 * (x - x_prev)
    assert np.allclose(s, [1.0, 0.5])


def test_adaptive_momentum_worked_reduction():
    b = make_box(2)
    s, beta_k = adaptive_momentum(
        d=np.array([-0.05, 0.02]),
        x=np.array([1.0, 0.0]),
        x_prev=np.array([0.9, -0.5]),
        fset=b,
        alpha=0.999,
        beta=0.9,
        eta=2.5,
        delta=0.5,
        max_backtracks=60,
    )
    # three halvings: 0.9 * 0.5**3
    assert beta_k == pytest.approx(0.1125, abs=1e-15)
    endpoint = np.array([1.0, 0.0]) + s
    assert b.max_violation(endpoint) <= FEAS_TOL
    # one fewer halving would leave the box
    bigger = (
        np.array([1.0, 0.0])
        + 0.999 * np.array([-0.05, 0.02])
        + (2.0 * beta_k) * 2.5 * np.array([0.1, 0.5])
    )
    assert b.max_violation(bigger) > FEAS_TOL


def test_adaptive_momentum_no_reduction_needed():
    b = make_box(2)
    s, beta_k = adaptive_momentum(
        d=np.array([-0.1, 0.0]),
        x=np.zeros(2),
        x_prev=np.zeros(2),
        fset=b,
        alpha=0.999,
        beta=0.9,
        eta=1.0,
        delta=0.5,
        max_backtracks=60,
    )
    assert beta_k == 0.9
    assert np.allclose(s, [-0.0999, 0.0])


def test_adaptive_momentum_budget_exhausted():
    # endpoint stays infeasible for every momentum weight
    b = make_box(1)
    with pytest.raises(SearchFailureError) as exc:
        adaptive_momentum(
            d=np.array([5.0]),
            x=np.array([0.0]),
            x_prev=np.array([0.0]),
            fset=b,
            alpha=0.999,
            beta=0.9,
            eta=1.0,
            delta=0.5,
            max_backtracks=5,
        )
    assert exc.value.failed_condition == "feasibility"


def test_curve_search_worked_trace():
    # f = ||x||^2, straight line from [1, 0] along [-2, 0]: t = 1 fails
    # Armijo (f back to 1), t = 0.5 lands on the minimizer
    p = sum_of_squares(2)
    b = make_box(2)
    c = QuadraticCurve(np.array([1.0, 0.0]), np.array([-2.0, 0.0]), np.array([-2.0, 0.0]))
    res = curve_search(p, b, c, f_ref=1.0, grad_dot_d=-4.0, cfg=SolverConfig())
    assert res.t == 0.5
    assert np.allclose(res.x, [0.0, 0.0])
    assert res.f == 0.0


def test_curve_search_backtracks_on_infeasibility():
    p = sum_of_squares(2)
    b = make_box(2)
    x = np.array([0.5, 0.0])
    c = QuadraticCurve(x, np.array([-2.0, 0.0]), np.array([-2.0, 0.0]))
    # endpoint [-1.5, 0] leaves the box, t = 0.5 fails Armijo, t = 0.25 wins
    res = curve_search(p, b, c, f_ref=0.25, grad_dot_d=-2.0, cfg=SolverConfig())
    assert res.t == 0.25
    assert np.allclose(res.x, [0.0, 0.0])


def test_curve_search_failure_payload():
    p = sum_of_squares(2)
    b = make_box(2)
    c = QuadraticCurve(np.array([0.5, 0.0]), np.array([0.1, 0.0]), np.array([0.1, 0.0]))
    # unreachable reference value: every trial fails sufficient decrease
    with pytest.raises(SearchFailureError) as exc:
        curve_search(p, b, c, f_ref=-1.0, grad_dot_d=-0.1, cfg=SolverConfig())
    assert exc.value.failed_condition == "sufficient_decrease"
    assert exc.value.last_trial == pytest.approx(0.5**60)


def test_stationarity_measure_examples():
    b = make_box(2)
    p = SmoothProblem(
        "shift2",
        2,
        lambda x: float((x[0] - 2.0) ** 2),
        lambda x: np.array([2.0 * (x[0] - 2.0), 0.0]),
        np.zeros(2),
    )
    # constrained minimizer sits on the face x_0 = 1
    assert stationarity_measure(p, b, np.array([1.0, 0.0])) == 0.0
    assert stationarity_measure(p, b, np.array([0.0, 0.0])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(delta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SolverConfig(eta_min=1.0, eta_max=0.5)
    with pytest.raises(ValueError):
        SolverConfig(M=-1)


@pytest.mark.parametrize(
    "field, value",
    [("t_tilde", 1.5), ("eps_decay", 2.0), ("max_iters", -3), ("time_limit", -1.0)],
)
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_accepts_range_ends():
    SolverConfig(eps_decay=1.0, max_iters=0)


def test_solver_dispatch():
    p = sum_of_squares(2)
    b = make_box(2)
    assert solve("spg", p, b).solver_name == "spg"
    with pytest.raises(KeyError):
        solve("newton", p, b)


@pytest.mark.parametrize("solver", ("scs", "spg"))
def test_search_failure_ends_run(solver):
    # f = 2 x^2 from x = 1: the unit trial overshoots to -3 and fails
    # Armijo, and max_backtracks = 0 leaves no second trial
    rec = solve(solver, steep1(), make_box(1, lo=-10.0, hi=10.0), SolverConfig(max_backtracks=0))
    assert rec.status == STATUS_SEARCH_FAILURE
    assert rec.iterations == 0
    assert rec.f_star == 2.0


def log_barrier2():
    """f = log(x0 + 0.5) + x1^2 from (0.5, 0.5): the unit step lands on f = -inf."""

    def f(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(x[0] + 0.5) + x[1] ** 2

    def grad(x):
        with np.errstate(divide="ignore"):
            return np.array([1.0 / (x[0] + 0.5), 2.0 * x[1]])

    return SmoothProblem("logbar2", 2, f, grad, np.array([0.5, 0.5]))


def nan_gradient2(nan_below):
    """f = ||x||^2 from (0.5, 0.5) whose gradient is NaN where x0 < nan_below."""

    def grad(x):
        return np.full(2, np.nan) if x[0] < nan_below else 2.0 * x

    return SmoothProblem("nangrad2", 2, lambda x: float(np.dot(x, x)), grad, np.array([0.5, 0.5]))


@pytest.mark.parametrize("solver", ("scs", "spg"))
@pytest.mark.parametrize("set_name", ("sph", "ell", "com", "box"))
def test_minus_inf_objective_ends_run(solver, set_name):
    rec = solve(solver, log_barrier2(), make_set(set_name, 2))
    assert rec.status == STATUS_NON_FINITE
    assert rec.detail == "f = -inf at iterate 1"
    assert rec.iterations == 0
    assert rec.f_star == 0.25
    assert np.array_equal(rec.final_x, [0.5, 0.5])


@pytest.mark.parametrize("solver", ("scs", "spg"))
@pytest.mark.parametrize("set_name", ("sph", "ell", "com", "box"))
@pytest.mark.parametrize("nan_below, k", ((0.25, 1), (1.0, 0)), ids=("after_step", "at_start"))
def test_nan_gradient_ends_run(solver, set_name, nan_below, k):
    # after_step: the first accepted step reaches x = 0; at_start: the
    # gradient is NaN at the projected start already
    rec = solve(solver, nan_gradient2(nan_below), make_set(set_name, 2))
    assert rec.status == STATUS_NON_FINITE
    assert rec.detail == f"non-finite gradient at iterate {k}"
    assert rec.iterations == 0
    assert rec.f_star == 0.5
    assert np.array_equal(rec.final_x, [0.5, 0.5])


# ---------------------------------------------------------------------------
# spg solver


def test_spg_quadratic_interpolation_step():
    # f = 2 x^2 from x = 1: the first trial overshoots to -3 and the
    # interpolated step 0.25 lands exactly on the minimizer
    p = steep1()
    b = make_box(1, lo=-10.0, hi=10.0)
    rec = spg_solve(p, b, SolverConfig(stat_tol=1e-9), record_trace=True)
    assert rec.status == STATUS_STATIONARY
    assert rec.trace[0].t == pytest.approx(0.25)
    assert rec.f_star == 0.0


def test_spg_accepts_unit_step_when_possible():
    # f = ||x||^2 / 4 with eta0 = 1 undershoots, so lambda = 1 passes Armijo
    p = SmoothProblem(
        "gentle2",
        2,
        lambda x: 0.25 * float(np.dot(x, x)),
        lambda x: 0.5 * np.asarray(x, dtype=float),
        np.ones(2),
    )
    rec = spg_solve(p, make_set("sph", 2), record_trace=True)
    assert rec.status == STATUS_STATIONARY
    assert rec.trace[0].t == 1.0


def test_spg_monotone_when_memoryless():
    p = get_problem("rosenbrock2")
    rec = spg_solve(p, make_box(2, lo=-2.0, hi=2.0), SolverConfig(M=0), record_trace=True)
    fs = [r.f for r in rec.trace]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_spg_solves_constrained_quadratic():
    p = get_problem("quad_shift50")
    rec = spg_solve(p, make_box(50))
    assert rec.status == STATUS_STATIONARY
    assert rec.max_g_final <= FEAS_TOL
    assert rec.f_star == pytest.approx(1275.0, rel=1e-6)


# ---------------------------------------------------------------------------
# scs solver


def test_scs_first_iteration_is_straight_line():
    p = get_problem("rosenbrock2")
    rec = scs_solve(p, make_box(2, lo=-2.0, hi=2.0), record_trace=True)
    first = rec.trace[0]
    assert first.fallback
    assert first.straight_line
    assert np.array_equal(first.s, first.d)


def test_scs_fallback_counter_matches_trace():
    p = get_problem("rosenbrock2")
    rec = scs_solve(p, make_box(2, lo=-2.0, hi=2.0), record_trace=True)
    assert rec.fallbacks == sum(1 for r in rec.trace if r.fallback)
    assert rec.fallbacks >= 1  # the first iteration always counts


def test_scs_engineered_fallback_after_first_iteration():
    # maximize x^1 + x^2 over {x^1 <= 0}: after one step the momentum
    # endpoint crosses the active halfspace, so the certificate rejects it
    p = SmoothProblem(
        "linear2",
        2,
        lambda x: float(-x[0] - x[1]),
        lambda x: np.array([-1.0, -1.0]),
        np.array([-1.0, 0.0]),
    )
    rec = scs_solve(p, halfspace_x1(), SolverConfig(max_iters=3), record_trace=True)
    assert rec.trace[1].fallback
    assert np.array_equal(rec.trace[1].s, rec.trace[1].d)
    # the rejected momentum endpoint really was infeasible
    r1 = rec.trace[1]
    assert halfspace_x1().max_violation(r1.x + r1.s_candidate) > 0


def test_scs_monotone_when_memoryless():
    p = get_problem("rosenbrock2")
    rec = scs_solve(p, make_box(2, lo=-2.0, hi=2.0), SolverConfig(M=0), record_trace=True)
    fs = [r.f for r in rec.trace]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_scs_nonmonotone_reference_uses_memory():
    p = get_problem("rosenbrock2")
    M = 5
    rec = scs_solve(p, make_box(2, lo=-2.0, hi=2.0), SolverConfig(M=M), record_trace=True)
    fs = [r.f for r in rec.trace]
    for k, r in enumerate(rec.trace):
        if r.f_ref is None:
            continue
        lo = max(0, k - M)
        assert r.f_ref == pytest.approx(max(fs[lo : k + 1]), abs=1e-12)


def test_scs_momentum_capped_by_beta0():
    p = get_problem("rosenbrock2")
    cfg = SolverConfig(beta0=0.5, max_iters=20)
    rec = scs_solve(p, make_box(2, lo=-2.0, hi=2.0), cfg, record_trace=True)
    used = [r.beta_used for r in rec.trace if r.beta_used is not None]
    assert len(used) > 1
    assert max(used) <= 0.5


def test_scs_eta_stays_in_bounds():
    p = get_problem("chnrosnb4")
    cfg = SolverConfig()
    rec = scs_solve(p, make_set("com", 4), cfg, record_trace=True)
    for r in rec.trace:
        if r.eta is not None:
            assert cfg.eta_min <= r.eta <= cfg.eta_max


def test_scs_solves_constrained_quadratic():
    p = get_problem("quad_shift50")
    rec = scs_solve(p, make_box(50))
    assert rec.status == STATUS_STATIONARY
    assert rec.max_g_final <= FEAS_TOL
    assert rec.f_star == pytest.approx(1275.0, rel=1e-6)


def test_scs_x0_override():
    p = get_problem("quad_diag50")
    rec = scs_solve(p, make_set("sph", 50), x0=np.zeros(50))
    assert rec.status == STATUS_STATIONARY
    assert rec.iterations == 0
    assert rec.f_star == 0.0


def test_scs_infeasible_start_is_projected():
    p = sum_of_squares(2)
    rec = scs_solve(p, make_box(2), x0=np.array([50.0, 50.0]), record_trace=True)
    assert np.allclose(rec.trace[0].x, [1.0, 1.0])
    assert rec.status == STATUS_STATIONARY


@pytest.mark.parametrize("set_name", ("sph", "ell", "com", "box"))
def test_scs_iterates_feasible_everywhere(set_name):
    p = get_problem("chnrosnb4")
    fset = make_set(set_name, 4, ell_seed=3)
    rec = scs_solve(p, fset, record_trace=True)
    for r in rec.trace:
        assert r.max_g <= FEAS_TOL
    assert rec.max_g_final <= FEAS_TOL


# ---------------------------------------------------------------------------
# deterministic replay of the recorded scs run


def replay_run(p, fset, cfg):
    rec = scs_solve(p, fset, cfg, record_trace=True)
    steps = [r for r in rec.trace if r.t is not None]
    assert steps, "expected at least one completed iteration"
    for i, r in enumerate(steps):
        # primary direction reproduces from the stored iterate and steplength
        d = spg_direction(p, fset, r.x, r.eta)
        assert np.allclose(d, r.d, atol=1e-12)
        # certificate decision reproduces from the stored momentum candidate
        if r.k > 0:
            decision = feasibility_certificate(
                QuadraticCurve(r.x, r.d, r.s_candidate), fset, cfg.t_tilde, r.eps
            )
            expect = CurveDecision.FALL_BACK if r.fallback else CurveDecision.CURVE_OK
            assert decision is expect
        if r.fallback:
            assert np.array_equal(r.s, r.d)
        c = QuadraticCurve(r.x, r.d, r.s)
        # accepted point is feasible and passes the recorded Armijo test
        xt = c.eval(r.t)
        assert fset.max_violation(xt) <= FEAS_TOL
        assert p.f(xt) <= r.f_ref + cfg.sigma * r.t * r.grad_dot_d + 1e-12
        # maximality: the next larger trial on the delta grid was rejected
        if r.t < 1.0:
            t_up = r.t / cfg.delta
            x_up = c.eval(t_up)
            rejected = (
                fset.max_violation(x_up) > FEAS_TOL
                or p.f(x_up) > r.f_ref + cfg.sigma * t_up * r.grad_dot_d
            )
            assert rejected
        # the next stored iterate is exactly the accepted point
        nxt = rec.trace[r.k + 1]
        assert np.array_equal(nxt.x, xt)
    return rec


def test_scs_replay_rosenbrock_box():
    replay_run(get_problem("rosenbrock2"), make_box(2, lo=-2.0, hi=2.0), SolverConfig())


def test_scs_replay_nonmonotone_composite():
    replay_run(get_problem("chnrosnb4"), make_set("com", 4), SolverConfig(M=10))


def test_scs_replay_ellipsoid():
    replay_run(get_problem("beale2"), make_set("ell", 2, ell_seed=5), SolverConfig(M=2))


# ---------------------------------------------------------------------------
# golden trajectories: (status, iterations, fallbacks, adaptive_reductions)
# of the n <= 4 desk-plan runs (seed 0, max_iters 400).  A change meant to
# keep results bit-identical, such as rewriting an array expression, must
# leave this table as it is.  At n <= 4 no BLAS summation order enters.

GOLDEN = {
    ("beale2", "box", "scs", 0): ("stationary", 9, 1, 0),
    ("beale2", "box", "scs", 10): ("stationary", 12, 1, 0),
    ("beale2", "box", "spg", 0): ("stationary", 8, 0, 0),
    ("beale2", "box", "spg", 10): ("stationary", 8, 0, 0),
    ("beale2", "com", "scs", 0): ("stationary", 39, 1, 0),
    ("beale2", "com", "scs", 10): ("stationary", 38, 1, 0),
    ("beale2", "com", "spg", 0): ("stationary", 171, 0, 0),
    ("beale2", "com", "spg", 10): ("stationary", 36, 0, 0),
    ("beale2", "ell", "scs", 0): ("stationary", 75, 1, 0),
    ("beale2", "ell", "scs", 10): ("stationary", 50, 1, 0),
    ("beale2", "ell", "spg", 0): ("stationary", 129, 0, 0),
    ("beale2", "ell", "spg", 10): ("stationary", 34, 0, 0),
    ("beale2", "sph", "scs", 0): ("stationary", 50, 1, 0),
    ("beale2", "sph", "scs", 10): ("stationary", 101, 1, 0),
    ("beale2", "sph", "spg", 0): ("stationary", 71, 0, 0),
    ("beale2", "sph", "spg", 10): ("stationary", 38, 0, 0),
    ("chnrosnb4", "box", "scs", 0): ("stationary", 22, 2, 2),
    ("chnrosnb4", "box", "scs", 10): ("iter_limit", 400, 3, 2),
    ("chnrosnb4", "box", "spg", 0): ("iter_limit", 400, 0, 0),
    ("chnrosnb4", "box", "spg", 10): ("iter_limit", 400, 0, 0),
    ("chnrosnb4", "com", "scs", 0): ("iter_limit", 400, 1, 1),
    ("chnrosnb4", "com", "scs", 10): ("iter_limit", 400, 1, 0),
    ("chnrosnb4", "com", "spg", 0): ("iter_limit", 400, 0, 0),
    ("chnrosnb4", "com", "spg", 10): ("iter_limit", 400, 0, 0),
    ("chnrosnb4", "ell", "scs", 0): ("iter_limit", 400, 1, 1),
    ("chnrosnb4", "ell", "scs", 10): ("iter_limit", 400, 1, 1),
    ("chnrosnb4", "ell", "spg", 0): ("iter_limit", 400, 0, 0),
    ("chnrosnb4", "ell", "spg", 10): ("iter_limit", 400, 0, 0),
    ("chnrosnb4", "sph", "scs", 0): ("iter_limit", 400, 1, 1),
    ("chnrosnb4", "sph", "scs", 10): ("iter_limit", 400, 1, 0),
    ("chnrosnb4", "sph", "spg", 0): ("iter_limit", 400, 0, 0),
    ("chnrosnb4", "sph", "spg", 10): ("iter_limit", 400, 0, 0),
    ("rosenbrock2", "box", "scs", 0): ("stationary", 1, 1, 0),
    ("rosenbrock2", "box", "scs", 10): ("stationary", 1, 1, 0),
    ("rosenbrock2", "box", "spg", 0): ("stationary", 1, 0, 0),
    ("rosenbrock2", "box", "spg", 10): ("stationary", 1, 0, 0),
    ("rosenbrock2", "com", "scs", 0): ("stationary", 129, 1, 2),
    ("rosenbrock2", "com", "scs", 10): ("stationary", 81, 1, 2),
    ("rosenbrock2", "com", "spg", 0): ("stationary", 105, 0, 0),
    ("rosenbrock2", "com", "spg", 10): ("stationary", 44, 0, 0),
    ("rosenbrock2", "ell", "scs", 0): ("stationary", 82, 1, 1),
    ("rosenbrock2", "ell", "scs", 10): ("iter_limit", 400, 1, 1),
    ("rosenbrock2", "ell", "spg", 0): ("stationary", 142, 0, 0),
    ("rosenbrock2", "ell", "spg", 10): ("iter_limit", 400, 0, 0),
    ("rosenbrock2", "sph", "scs", 0): ("iter_limit", 400, 1, 0),
    ("rosenbrock2", "sph", "scs", 10): ("iter_limit", 400, 1, 0),
    ("rosenbrock2", "sph", "spg", 0): ("stationary", 244, 0, 0),
    ("rosenbrock2", "sph", "spg", 10): ("stationary", 56, 0, 0),
    ("wood4", "box", "scs", 0): ("stationary", 1, 1, 0),
    ("wood4", "box", "scs", 10): ("stationary", 1, 1, 0),
    ("wood4", "box", "spg", 0): ("stationary", 1, 0, 0),
    ("wood4", "box", "spg", 10): ("stationary", 1, 0, 0),
    ("wood4", "com", "scs", 0): ("stationary", 105, 1, 0),
    ("wood4", "com", "scs", 10): ("stationary", 145, 1, 0),
    ("wood4", "com", "spg", 0): ("stationary", 23, 0, 0),
    ("wood4", "com", "spg", 10): ("stationary", 333, 0, 0),
    ("wood4", "ell", "scs", 0): ("stationary", 125, 1, 0),
    ("wood4", "ell", "scs", 10): ("stationary", 175, 1, 0),
    ("wood4", "ell", "spg", 0): ("stationary", 27, 0, 0),
    ("wood4", "ell", "spg", 10): ("iter_limit", 400, 0, 0),
    ("wood4", "sph", "scs", 0): ("iter_limit", 400, 1, 0),
    ("wood4", "sph", "scs", 10): ("iter_limit", 400, 1, 1),
    ("wood4", "sph", "spg", 0): ("iter_limit", 400, 0, 0),
    ("wood4", "sph", "spg", 10): ("iter_limit", 400, 0, 0),
}


def test_golden_trajectories():
    cfgs = {m: SolverConfig(M=m, max_iters=400) for m in (0, 10)}
    got = {}
    for problem, set_name, solver, m in GOLDEN:
        p = get_problem(problem)
        # the ellipsoid a plan with seed 0 builds
        fset = make_set(set_name, p.dim, ell_seed=p.dim)
        rec = solve(solver, p, fset, cfgs[m])
        got[problem, set_name, solver, m] = (
            rec.status,
            rec.iterations,
            rec.fallbacks,
            rec.adaptive_reductions,
        )
    assert got == GOLDEN
