import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from curve_geometry import halfspace_x1
from curveopt import solvers
from curveopt.bench import BenchPlan, run_plan
from curveopt.curves import CurveDecision, QuadraticCurve, feasibility_certificate
from curveopt.errors import ContractError, ProjectionError, SearchFailureError
from curveopt.problems import SmoothProblem, get_problem
from curveopt.sets import FEAS_TOL, ConvexFeasibleSet, make_box, make_set
from curveopt.solvers import (
    DELTA,
    ETA0,
    SIGMA,
    STATUS_NON_FINITE,
    STATUS_SEARCH_FAILURE,
    STATUS_STATIONARY,
    SOLVERS,
    T_TILDE,
    IterationRecord,
    RunRecord,
    SolverConfig,
    Trace,
    adaptive_momentum,
    build_secondary_direction,
    curve_search,
    solve,
    spectral_eta,
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


def spg_direction(p, fset, x, eta):
    """d = project(x - eta * grad f(x)) - x; the replay oracle's primary direction."""
    return fset.project(x - eta * p.grad(x)) - x


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
    # r'y = inf - inf, then r'r / r'y = inf / inf: neither quotient is a number
    with np.errstate(over="ignore"):
        assert spectral_eta(np.array([1e200, 1e200]), np.array([1e200, -1e200]), 1e-3, 1e3) == 1e3
        assert spectral_eta(np.array([1e200, 0.0]), np.array([1e200, 0.0]), 1e-3, 1e3) == 1e3


def test_spectral_eta_clamped():
    # r'r / r'y = 1 / 2000 below the floor
    assert spectral_eta(np.array([1.0]), np.array([2000.0]), 1e-3, 1e3) == 1e-3
    assert spectral_eta(np.array([1.0]), np.array([1e-6]), 1e-3, 1e3) == 1e3


@pytest.mark.parametrize(
    "entry, detail",
    [
        (1e200, ""),  # finite, though its square overflows
        (math.inf, "non-finite gradient at iterate 7"),
        (-math.inf, "non-finite gradient at iterate 7"),
        (math.nan, "non-finite gradient at iterate 7"),
    ],
)
def test_non_finite_gradient_entry(entry, detail):
    with np.errstate(over="ignore"):
        grad = np.array([1.0, entry, 1e200])
        assert solvers._non_finite(1.0, grad, grad.dot(grad), 7) == detail


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_gradient_whose_square_overflows_runs_with_warnings_as_errors(solver):
    # under `python -W error::RuntimeWarning` numpy raises the overflow of
    # g'g as a RuntimeWarning; the loop takes g'g as inf, as it is without
    # the filter, and the run ends as it does there: at the box's corner
    steep = SmoothProblem(
        "steep", 2, lambda x: 1e200 * float(x[0]), lambda x: np.array([1e200, 0.0]), np.zeros(2)
    )
    box = make_set("box", 2)
    with np.errstate(over="ignore"):
        quiet = solve(solver, steep, box)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = solve(solver, steep, box)
    for rec in (quiet, r):
        assert (rec.status, rec.iterations, rec.f_star) == (STATUS_STATIONARY, 1, -1e200)
        assert rec.final_x.tolist() == [-1.0, 0.0]


def test_build_secondary_direction_worked_value():
    s = build_secondary_direction(
        d=np.array([1.0, 0.0]),
        x=np.array([2.0, 2.0]),
        x_prev=np.array([1.0, 1.0]),
        beta=0.25,
        eta=2.0,
    )
    # ALPHA * d + 0.25 * 2.0 * (x - x_prev)
    assert np.allclose(s, [1.499, 0.5])


def momentum_curve(d, x, x_prev, beta, eta):
    """The SCS step's momentum curve of weight beta from x."""
    d, x, x_prev = np.array(d), np.array(x), np.array(x_prev)
    return QuadraticCurve(x, d, build_secondary_direction(d, x, x_prev, beta, eta))


def test_adaptive_momentum_worked_reduction():
    b = make_box(2)
    curve, beta_k = adaptive_momentum(
        c=momentum_curve(d=[-0.05, 0.02], x=[1.0, 0.0], x_prev=[0.9, -0.5], beta=0.9, eta=2.5),
        x_prev=np.array([0.9, -0.5]),
        fset=b,
        beta=0.9,
        eta=2.5,
    )
    # three halvings: 0.9 * 0.5**3
    assert beta_k == pytest.approx(0.1125, abs=1e-15)
    assert b.max_violation(curve.p2) <= FEAS_TOL
    # the curve of that weight, whose endpoint the reduction tested
    want = momentum_curve(d=[-0.05, 0.02], x=[1.0, 0.0], x_prev=[0.9, -0.5], beta=beta_k, eta=2.5)
    assert np.array_equal(curve.s, want.s) and np.array_equal(curve.p2, want.p2)
    # one fewer halving would leave the box
    bigger = (
        np.array([1.0, 0.0])
        + 0.999 * np.array([-0.05, 0.02])
        + (2.0 * beta_k) * 2.5 * np.array([0.1, 0.5])
    )
    assert b.max_violation(bigger) > FEAS_TOL


def recording_set(fset, points):
    """`fset` whose g logs every point it is asked about in `points`."""

    def eval_g(x):
        points.append(np.array(x))
        return fset.eval_g(x)

    return dataclasses.replace(fset, eval_g=eval_g)


def test_adaptive_momentum_without_budget_raises_before_any_g_call(monkeypatch):
    # the SCS step calls the reduction only once the endpoint of weight beta
    # is infeasible, so a budget of no halvings leaves nothing to try
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 0)
    points = []
    with pytest.raises(SearchFailureError) as exc:
        adaptive_momentum(
            c=momentum_curve(d=[-0.05, 0.02], x=[1.0, 0.0], x_prev=[0.9, -0.5], beta=0.9, eta=2.5),
            x_prev=np.array([0.9, -0.5]),
            fset=recording_set(make_box(2), points),
            beta=0.9,
            eta=2.5,
        )
    assert exc.value.failed_condition == "feasibility"
    assert exc.value.last_trial == 0.9
    assert points == []


def test_adaptive_momentum_first_tries_delta_times_beta():
    x, d, x_prev = np.array([1.0, 0.0]), np.array([-0.05, 0.02]), np.array([0.9, -0.5])
    points = []
    _, beta_k = adaptive_momentum(
        c=momentum_curve(d, x, x_prev, beta=0.9, eta=2.5),
        x_prev=x_prev,
        fset=recording_set(make_box(2), points),
        beta=0.9,
        eta=2.5,
    )
    assert np.array_equal(points[0], x + build_secondary_direction(d, x, x_prev, DELTA * 0.9, 2.5))
    # the worked reduction's three halvings, one g call each
    assert len(points) == 3
    assert beta_k == 0.9 * DELTA**3


def test_adaptive_momentum_budget_exhausted(monkeypatch):
    # endpoint stays infeasible for every momentum weight
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 5)
    b = make_box(1)
    with pytest.raises(SearchFailureError) as exc:
        adaptive_momentum(
            c=momentum_curve(d=[5.0], x=[0.0], x_prev=[0.0], beta=0.9, eta=1.0),
            x_prev=np.array([0.0]),
            fset=b,
            beta=0.9,
            eta=1.0,
        )
    assert exc.value.failed_condition == "feasibility"
    # the last weight tried, 0.9 * 0.5**5
    assert exc.value.last_trial == 0.028125


def test_curve_search_worked_trace():
    # f = ||x||^2, straight line from [1, 0] along [-2, 0]: t = 1 fails
    # Armijo (f back to 1), t = 0.5 lands on the minimizer
    p = sum_of_squares(2)
    b = make_box(2)
    c = QuadraticCurve(np.array([1.0, 0.0]), np.array([-2.0, 0.0]), np.array([-2.0, 0.0]))
    x, f, t = curve_search(p, b, c, f_ref=1.0, grad_dot_d=-4.0)
    assert t == 0.5
    assert np.allclose(x, [0.0, 0.0])
    assert f == 0.0


def test_curve_search_backtracks_on_infeasibility():
    p = sum_of_squares(2)
    b = make_box(2)
    x = np.array([0.5, 0.0])
    c = QuadraticCurve(x, np.array([-2.0, 0.0]), np.array([-2.0, 0.0]))
    # endpoint [-1.5, 0] leaves the box, t = 0.5 fails Armijo, t = 0.25 wins
    x, _, t = curve_search(p, b, c, f_ref=0.25, grad_dot_d=-2.0)
    assert t == 0.25
    assert np.allclose(x, [0.0, 0.0])


def test_curve_search_failure_payload():
    p = sum_of_squares(2)
    b = make_box(2)
    c = QuadraticCurve(np.array([0.5, 0.0]), np.array([0.1, 0.0]), np.array([0.1, 0.0]))
    # unreachable reference value: every trial fails sufficient decrease
    with pytest.raises(SearchFailureError) as exc:
        curve_search(p, b, c, f_ref=-1.0, grad_dot_d=-0.1)
    assert exc.value.failed_condition == "sufficient_decrease"
    assert exc.value.last_trial == pytest.approx(0.5**60)


def test_curve_search_checks_the_accepted_point_against_g(monkeypatch):
    # t = 1 lands on [-1.5, 0], outside the box, and passes Armijo there;
    # the check of the accepted point rejects it
    p = sum_of_squares(2)
    b = make_box(2)
    c = QuadraticCurve(np.array([0.5, 0.0]), np.array([-2.0, 0.0]), np.array([-2.0, 0.0]))
    x, _, t = curve_search(p, b, c, 10.0, -2.0)
    assert t == 0.5
    assert np.array_equal(x, [-0.5, 0.0])
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 0)
    with pytest.raises(SearchFailureError) as exc:
        curve_search(p, b, c, 10.0, -2.0)
    assert exc.value.failed_condition == "feasibility"
    assert exc.value.last_trial == 1.0
    # a last trial failing both tests (f = 2.25 there) is named by feasibility
    with pytest.raises(SearchFailureError) as exc:
        curve_search(p, b, c, 0.25, -2.0)
    assert exc.value.failed_condition == "feasibility"


@pytest.mark.parametrize(
    "f_ref, t_accepted, checked_with_flag",
    # f = 1 at the endpoint [-1, 0], so f_ref 10 accepts t = 1 and f_ref 1
    # rejects it by Armijo and accepts t = 0.5 at [0, 0]
    ((10.0, 1.0, []), (1.0, 0.5, [[0.0, 0.0]])),
    ids=("endpoint", "inner"),
)
def test_curve_search_skips_only_the_endpoint_the_caller_checked(
    monkeypatch, f_ref, t_accepted, checked_with_flag
):
    p = sum_of_squares(2)
    b = make_box(2)
    c = QuadraticCurve(np.array([1.0, 0.0]), np.array([-2.0, 0.0]), np.array([-2.0, 0.0]))
    points = []  # what every `ConvexFeasibleSet.g` call is asked about
    g = ConvexFeasibleSet.g

    def counting_g(self, x):
        points.append(np.array(x))
        return g(self, x)

    monkeypatch.setattr(ConvexFeasibleSet, "g", counting_g)
    x, _, t = curve_search(p, b, c, f_ref, -4.0, end_feasible=True)
    assert t == t_accepted
    assert (x is c.p2) == (t == 1.0)
    assert [pt.tolist() for pt in points] == checked_with_flag
    # without the flag the search checks the point it accepts, even the endpoint
    points.clear()
    assert curve_search(p, b, c, f_ref, -4.0)[2] == t_accepted
    assert [pt.tolist() for pt in points] == [x.tolist()]


def test_scs_skips_the_search_check_only_at_an_endpoint_it_found_feasible(monkeypatch):
    # chnrosnb100/box scs:0 takes every kind of step: a passed endpoint
    # check, a momentum reduction, a fallback, and an infeasible endpoint
    # the certificate accepts with an inactive projection, so no reduction
    events = []
    real_g = ConvexFeasibleSet.g

    def logged_g(self, x):
        out = real_g(self, x)
        events.append(("g", np.asarray(x).tobytes(), float(out.max())))
        return out

    real_reduce = solvers.adaptive_momentum

    def logged_reduce(*args):
        curve, beta_k = real_reduce(*args)
        events.append(("reduce", curve))
        return curve, beta_k

    real_search = solvers.curve_search

    def logged_search(p, fset, c, f_ref, grad_dot_d, *, end_feasible=False):
        events.append(("search", c, end_feasible))
        x, f, t = real_search(p, fset, c, f_ref, grad_dot_d, end_feasible=end_feasible)
        events.append(("accept", x.tobytes(), t))
        return x, f, t

    monkeypatch.setattr(ConvexFeasibleSet, "g", logged_g)
    monkeypatch.setattr(solvers, "adaptive_momentum", logged_reduce)
    monkeypatch.setattr(solvers, "curve_search", logged_search)
    fset = make_set("box", 100)
    rec = solve("scs", get_problem("chnrosnb100"), fset, SolverConfig(max_iters=400))
    assert (rec.iterations, rec.fallbacks, rec.adaptive_reductions) == (400, 2, 46)

    # each step: the events before its search, the search, the g calls
    # inside the search, and the point it accepted
    steps = []
    before, inside = [], None
    for event in events:
        if event[0] == "search":
            search, inside = event, []
        elif event[0] == "accept":
            steps.append((before, search, inside, event))
            before, inside = [], None
        else:
            (before if inside is None else inside).append(event)
    assert len(steps) == 400

    kinds = dict.fromkeys(("checked", "reduced", "fallback", "unchecked"), 0)
    for before, (_, c, end_feasible), inside, (_, accepted, t) in steps:
        if end_feasible:
            # the step's last g call, its own or the reduction's, tested
            # this very endpoint and passed it
            _, point, value = [e for e in before if e[0] == "g"][-1]
            assert point == c.p2.tobytes() and value <= FEAS_TOL
            # a reduced step searches the very curve the reduction returned
            reduced = [e[1] for e in before if e[0] == "reduce"]
            assert all(curve is c for curve in reduced)
            kinds["reduced" if reduced else "checked"] += 1
            assert [e[1] for e in inside] == ([] if t == 1.0 else [accepted])
        else:
            if c.s is c.d:
                kinds["fallback"] += 1
            else:
                assert fset.eval_g(c.p2).max() > FEAS_TOL
                kinds["unchecked"] += 1
            assert inside[-1][1] == accepted
    assert kinds == {"checked": 351, "reduced": 46, "fallback": 2, "unchecked": 1}


def test_scs_still_rejects_a_projection_that_leaves_the_set():
    # the projection overshoots the box by 0.1 %; the first step's straight
    # line keeps only a feasible point, and the next momentum endpoint is
    # infeasible, so the certificate checks x + d and refuses it
    p = SmoothProblem(
        "shifted",
        2,
        lambda x: float(((x - 2.0) ** 2).sum()),
        lambda x: 2.0 * (x - 2.0),
        np.zeros(2),
    )
    box = make_box(2)
    overshooting = dataclasses.replace(box, project=lambda z: 1.001 * box.project(z))
    with pytest.raises(ContractError, match=r"x \+ d is infeasible"):
        solve("scs", p, overshooting)


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
    on_face, origin = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert stationarity_measure(b, on_face, p.grad(on_face)) == 0.0
    assert stationarity_measure(b, origin, p.grad(origin)) == pytest.approx(1.0)


STAT_TOLS = (1e-3, 1e-6, 0.0)
#: the wide window's ends and steps between them
BOUND_ETAS = (1e-30, 1e-12, 1e-3, 0.3, 1.0, 2.0, 7.5, 1e3, 1e12, 1e30)


def pushed_out(fset, x, u):
    """x moved along u to about where g reaches FEAS_TOL, as far outside the
    set as an accepted iterate may lie."""
    inside, outside = 0.0, 1.0
    for _ in range(40):
        t = 0.5 * (inside + outside)
        if fset.max_violation(x + t * u) <= FEAS_TOL:
            inside = t
        else:
            outside = t
    return x + inside * u


def bound_cases(fset, rng):
    """Points x of the set, and outside it by FEAS_TOL, with gradients g of
    every size, from below half an ulp of x up to 1e3, and scaled so that
    the measure lies near each positive stat_tol, in random, sign-only and
    one-entry directions."""
    n = fset.dim
    inner = fset.project(0.3 * rng.standard_normal(n))
    outer = fset.project(1e3 * rng.standard_normal(n))
    for x in (inner, outer, pushed_out(fset, outer, outer - inner)):
        for v in (rng.standard_normal(n), rng.choice((-1.0, 1.0), n), np.eye(n)[rng.integers(n)]):
            v = v / np.abs(v).max()
            for size in (0.3 * math.ulp(np.abs(x).max()), 1e-9, 1e-4, 1e-1, 1e3):
                yield x, size * v
            for tol in STAT_TOLS[:2]:
                for factor in (0.5, 0.9, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.1, 2.0):
                    g = factor * tol * v
                    # off the interior the measure is not linear in g; two
                    # rescalings bring it near factor * tol
                    for _ in range(2):
                        mu = stationarity_measure(fset, x, g)
                        if mu > 0.0:
                            g = g * (factor * tol / mu)
                    yield x, g


@pytest.mark.parametrize("n", (1, 2, 10, 100))
@pytest.mark.parametrize("set_name", ("sph", "ell", "com", "box", "box1e3"))
def test_the_step_rules_out_a_stop_only_where_the_measure_exceeds_stat_tol(set_name, n):
    # box1e3 holds points with entries near 1e3, whose rounding a margin of
    # 1e-9 * stat_tol does not cover; at n = 1 the sqrt(n) in the bound is
    # tight
    if set_name == "box1e3":
        fset = make_box(n, lo=-1e3, hi=1e3)
    else:
        fset = make_set(set_name, n, ell_seed=n)
    rng = np.random.default_rng(n)
    skipped = 0
    for x, g in bound_cases(fset, rng):
        mu = stationarity_measure(fset, x, g)
        for eta in BOUND_ETAS:
            d = fset.project(x - eta * g) - x
            for tol in STAT_TOLS:
                if solvers._rules_out_stop(x, g.dot(g), eta, d, tol):
                    skipped += 1
                    assert mu > tol, (x, g, eta, tol)
    assert skipped > 0


def test_the_margin_covers_rounding_at_entries_near_1e3():
    # x - c rounds down to a multiple of h = ulp(999.5), and x - 2c up, so
    # the measure is k*h <= 1e-6 while ||d||_2 / (2 sqrt(2)) is (k + 1/2)*h,
    # which clears 1e-6 by 5e-14: a margin of 1e-9 * stat_tol would skip
    x = np.full(2, 999.5)
    h = math.ulp(999.5)
    k = math.floor(1e-6 / h)
    g = np.full(2, (k + 0.375) * h)
    fset = make_box(2, lo=-1e3, hi=1e3)
    d = fset.project(x - 2.0 * g) - x
    mu = stationarity_measure(fset, x, g)
    assert mu == k * h <= 1e-6
    assert math.sqrt(d.dot(d)) / (2.0 * math.sqrt(2.0)) > 1e-6 * (1.0 + 1e-9)
    assert not solvers._rules_out_stop(x, g.dot(g), 2.0, d, 1e-6)


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta_min": 1.0, "eta_max": 0.5},
        # a window that leaves out the first step eta = 1
        {"eta_min": 2.0, "eta_max": 3.0},
        {"M": -1},
        {"max_iters": -3},
        {"time_limit": -1.0},
        {"time_limit": None},
        {"max_iters": math.nan},
        {"M": math.nan},
        {"beta0": -0.5},
        {"beta0": 1.0},
        {"beta0": math.nan},
        # a bool is no real number, and neither is a string
        {"beta0": False},
        {"eta_max": True},
        {"stat_tol": "0.5"},
        {"stat_tol": -1e-3},
        {"stat_tol": math.nan},
        # an infinite tolerance calls every start stationary
        {"stat_tol": math.inf},
        # nonpositive curvature would give an infinite steplength
        {"eta_max": math.inf},
        {"M": 2.5},
        {"M": "3"},
        {"max_iters": 3.5},
        # True and False are ints to Python, but no counts
        {"M": True},
        {"max_iters": False},
        # a non-empty string, even "no", reads as true
        {"adaptive_momentum": "no"},
        {"adaptive_momentum": 0},
        {"dynamic_beta": "false"},
        {"dynamic_beta": None},
    ],
    ids=lambda kwargs: "-".join(f"{k}-{v}" for k, v in kwargs.items()),
)
def test_config_rejects_out_of_range(kwargs):
    # the message names every field of the case
    with pytest.raises(ValueError, match=".*".join(kwargs)):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("field", ["adaptive_momentum", "dynamic_beta"])
def test_config_stores_flags_as_bool(field):
    cfg = SolverConfig(**{field: np.bool_(False)})
    assert getattr(cfg, field) is False


@pytest.mark.parametrize("field", ["M", "max_iters"])
def test_config_stores_integer_fields_as_int(field):
    cfg = SolverConfig(**{field: np.int64(3)})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("beta0", 0), ("eta_min", np.float64(0.5)), ("eta_max", 1000), ("stat_tol", 0),
        ("time_limit", 5),
    ],
)
def test_config_stores_real_fields_as_float(field, value):
    cfg = SolverConfig(**{field: value})
    assert type(getattr(cfg, field)) is float and getattr(cfg, field) == value


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_numpy_integer_memory_runs(solver):
    p, fset = get_problem("rosenbrock2"), make_set("box", 2)
    want = solve(solver, p, fset, SolverConfig(M=3))
    got = solve(solver, p, fset, SolverConfig(M=np.int64(3)))
    assert got.status == want.status == STATUS_STATIONARY
    assert (got.iterations, got.f_star) == (want.iterations, want.f_star)


def test_config_accepts_range_ends():
    SolverConfig(max_iters=0, beta0=0.0, stat_tol=0.0)
    # the step-size window may end at the first step, or pin it
    SolverConfig(eta_min=ETA0)
    SolverConfig(eta_max=ETA0)
    SolverConfig(eta_min=0.999, eta_max=1.001)


def test_solver_dispatch():
    p = sum_of_squares(2)
    b = make_box(2)
    assert solve("spg", p, b).solver_name == "spg"
    with pytest.raises(KeyError):
        solve("newton", p, b)


def counting_problem(n, calls):
    """sum_of_squares(n) that logs each oracle call in `calls`."""
    p = sum_of_squares(n)

    def f(x):
        calls.append("f")
        return p.f(x)

    def grad(x):
        calls.append("grad")
        return p.grad(x)

    return SmoothProblem(p.name, n, f, grad, p.start)


@pytest.mark.parametrize("set_name", ["sph", "ell", "box", "com"])
def test_set_of_another_dimension_is_rejected_before_a_run(set_name):
    calls = []
    with pytest.raises(ValueError, match=r"dimension 3 but problem ss2 has 2$"):
        solve("scs", counting_problem(2, calls), make_set(set_name, 3))
    assert calls == []


@pytest.mark.parametrize("start", [5.0, np.zeros(3), np.zeros((2, 1)), [[1.0, 1.0]]])
@pytest.mark.parametrize("where", ("x0", "p.start"))
def test_start_of_another_shape_is_rejected_before_a_run(where, start):
    calls = []
    p = counting_problem(2, calls)
    if where == "p.start":
        p = dataclasses.replace(p, start=start)
    x0 = start if where == "x0" else None
    with pytest.raises(ValueError, match=r"^the start of ss2 has shape .*, not \(2,\)$"):
        solve("spg", p, make_box(2), x0=x0)
    assert calls == []


@pytest.mark.parametrize("solver", ("scs", "spg"))
@pytest.mark.parametrize("set_name", ("sph", "ell", "com", "box"))
@pytest.mark.parametrize("where", ("x0", "p.start"))
def test_non_finite_start_is_rejected_before_a_run(solver, set_name, where):
    # a start the sets cannot project must end the same way on every set
    calls = []
    p = counting_problem(2, calls)
    start = np.array([np.nan, 0.0])
    if where == "p.start":
        p = dataclasses.replace(p, start=start)
    x0 = start if where == "x0" else None
    with pytest.raises(ValueError, match=r"the start of ss2 has a non-finite entry"):
        solve(solver, p, make_set(set_name, 2), x0=x0)
    assert calls == []


@pytest.mark.parametrize("solver", ("scs", "spg"))
def test_a_step_the_sphere_cannot_project_stops_the_run(solver):
    # x - grad = (1.7e308, 1.7e308) is finite, but its norm exceeds the
    # largest float; projected to 0, it would end the run `stationary` at
    # iterate 0
    p = SmoothProblem(
        "push2", 2, lambda x: float(-1.7e308 * x.sum()), lambda x: np.full(2, -1.7e308), np.zeros(2)
    )
    with np.errstate(over="ignore"), pytest.raises(
        ProjectionError, match=r"^sphere projection: \|\|z\|\| is not finite$"
    ):
        solve(solver, p, make_set("sph", 2))


def linear_problem(grad):
    g = np.array(grad)
    return SmoothProblem("linear2", 2, lambda x: float(g.dot(x)), lambda x: g.copy(), np.zeros(2))


@pytest.mark.parametrize("set_name", ("sph", "ell", "com", "box"))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize(
    "grad, window",
    [([1e306, 0.0], (1e-3, 1e3)), ([1e200, 0.0], (1e-30, 1e30))],
    ids=("1e306", "1e200-wide"),
)
def test_a_step_whose_square_overflows_ends_with_a_named_status(grad, window, solver, set_name):
    # z = -eta * grad at iterate 0 projects though z'z overflows; at iterate 1,
    # eta = eta_max, and z overflows at 1e306, but the run is stationary first
    p = linear_problem(grad)
    cfg = SolverConfig(eta_min=window[0], eta_max=window[1])
    with np.errstate(over="ignore"):
        quiet = solve(solver, p, make_set(set_name, 2), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = solve(solver, p, make_set(set_name, 2), cfg)
    for rec in (quiet, r):
        assert (rec.status, rec.iterations, rec.detail) == (STATUS_STATIONARY, 1, "")
        assert np.array_equal(rec.final_x, quiet.final_x)
        assert rec.max_g_final <= FEAS_TOL


@pytest.mark.parametrize("set_name", ("com", "box"))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_step_point_that_overflows_ends_the_run_non_finite(solver, set_name):
    # the first step reaches the bound on x_0 but not the minimiser 0.5 of
    # x_1; the spectral step is then eta_max = 1e3, and eta * 1e306 overflows
    p = SmoothProblem(
        "steep2",
        2,
        lambda x: 1e306 * float(x[0]) + 0.05 * float((x[1] - 0.5) ** 2),
        lambda x: np.array([1e306, 0.1 * (x[1] - 0.5)]),
        np.zeros(2),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = solve(solver, p, make_set(set_name, 2), record_trace=True)
    assert (r.status, r.iterations) == (STATUS_NON_FINITE, 1)
    assert r.detail == "z = x - eta*grad overflows at iterate 1"
    assert r.final_x[1] == pytest.approx(0.05)
    assert r.stationarity == r.trace[-1].stationarity == pytest.approx(0.045)
    assert (len(r.trace), r.trace[-1].eta, r.trace[-1].t) == (2, None, None)


@pytest.mark.parametrize(
    "solver, problem, fset, iterations, f_star, detail",
    [
        # f = 2 x^2 from x = 1: the unit trial overshoots to -3 and fails
        # Armijo, and MAX_BACKTRACKS = 0 leaves no second trial
        pytest.param(
            "scs",
            steep1(),
            make_box(1, lo=-10.0, hi=10.0),
            0,
            2.0,
            "curve search exhausted 0 backtracks: "
            "sufficient_decrease failed at iterate 0, last trial 1.0",
            id="scs",
        ),
        pytest.param(
            "spg",
            steep1(),
            make_box(1, lo=-10.0, hi=10.0),
            0,
            2.0,
            "line search exhausted 0 backtracks: "
            "sufficient_decrease failed at iterate 0, last trial 1.0",
            id="spg",
        ),
    ],
)
def test_search_failure_ends_run(solver, problem, fset, iterations, f_star, detail, monkeypatch):
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 0)
    rec = solve(solver, problem, fset)
    assert rec.status == STATUS_SEARCH_FAILURE
    assert rec.iterations == iterations
    assert rec.f_star == f_star
    assert rec.detail == detail


def test_failed_step_is_traced(monkeypatch):
    # chnrosnb4 on the box without backtracks: step 5 falls back to the
    # line, whose search then fails; its entry still describes the step
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 0)
    rec = solve("scs", get_problem("chnrosnb4"), make_set("box", 4), record_trace="vectors")
    assert rec.status == STATUS_SEARCH_FAILURE and rec.iterations == 5
    assert rec.fallbacks == sum(e.fallback for e in rec.trace) == 3
    last = rec.trace[-1]
    assert last.k == 5 and last.t is None
    assert last.fallback and not last.adaptive and last.straight_line
    assert last.s is last.d
    for name in ("beta_used", "eps", "eta", "grad_dot_d", "f_ref", "s_candidate"):
        assert getattr(last, name) is not None, name


#: the spectral window of Birgin, Martinez & Raydan's SPG
WIDE_WINDOW = SolverConfig(eta_min=1e-30, eta_max=1e30)


# Each of these SCS runs once ended search_failure at the wide window, with
# "momentum reduction exhausted its budget": near eta_max the momentum term
# beta * eta * (x - x_prev) stays large through every halving of beta.
@pytest.mark.parametrize(
    "M, problem, set_name",
    (
        (0, "chnrosnb100", "sph"),
        (10, "chnrosnb4", "box"),
        (0, "chnrosnb4", "ell"),
        (10, "chnrosnb4", "ell"),
        (0, "chnrosnb4", "sph"),
        (0, "rosenbrock2", "com"),
        (10, "rosenbrock2", "com"),
        (0, "rosenbrock2", "ell"),
        (10, "rosenbrock2", "ell"),
    ),
)
def test_scs_is_well_defined_at_the_wide_window(M, problem, set_name):
    p = get_problem(problem)
    fset = make_set(set_name, p.dim, ell_seed=p.dim)  # the desk plan's seed 0
    rec = solve("scs", p, fset, dataclasses.replace(WIDE_WINDOW, M=M))
    assert rec.status == STATUS_STATIONARY, rec.detail


def test_exhausted_momentum_reduction_falls_back_to_the_line():
    # rosenbrock2's fifth step on com passes the certificate, but at the
    # wide window no momentum weight the reduction tries keeps the endpoint
    # feasible; the step takes the straight line and counts a fallback
    fset = make_set("com", 2)
    rec = replay_run(get_problem("rosenbrock2"), fset, WIDE_WINDOW)
    assert rec.status == STATUS_STATIONARY
    r = rec.trace[4]
    assert r.fallback and not r.adaptive and r.s is r.d
    decision = feasibility_certificate(
        QuadraticCurve(r.x, r.d, r.s_candidate), fset, T_TILDE, r.eps
    )
    assert decision is CurveDecision.CURVE_OK
    assert rec.fallbacks == sum(e.fallback for e in rec.trace) >= 2


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
    rec = solve("spg", p, b, SolverConfig(stat_tol=1e-9), record_trace=True)
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
    rec = solve("spg", p, make_set("sph", 2), record_trace=True)
    assert rec.status == STATUS_STATIONARY
    assert rec.trace[0].t == 1.0


def test_spg_monotone_when_memoryless():
    p = get_problem("rosenbrock2")
    rec = solve("spg", p, make_box(2, lo=-2.0, hi=2.0), SolverConfig(M=0), record_trace=True)
    fs = [r.f for r in rec.trace]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_spg_reaches_constrained_quadratic_minimum():
    p = get_problem("quad_shift50")
    rec = solve("spg", p, make_box(50))
    assert rec.status == STATUS_STATIONARY
    assert rec.max_g_final <= FEAS_TOL
    assert rec.f_star == pytest.approx(1275.0, rel=1e-6)


# ---------------------------------------------------------------------------
# scs solver


def test_scs_first_iteration_is_straight_line():
    p = get_problem("rosenbrock2")
    rec = solve("scs", p, make_box(2, lo=-2.0, hi=2.0), record_trace="vectors")
    first = rec.trace[0]
    assert first.fallback
    assert first.straight_line
    assert np.array_equal(first.s, first.d)


def test_scs_fallback_counter_matches_trace():
    p = get_problem("rosenbrock2")
    rec = solve("scs", p, make_box(2, lo=-2.0, hi=2.0), record_trace=True)
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
    rec = solve("scs", p, halfspace_x1(), SolverConfig(max_iters=3), record_trace="vectors")
    assert rec.trace[1].fallback
    assert np.array_equal(rec.trace[1].s, rec.trace[1].d)
    # the rejected momentum endpoint really was infeasible
    r1 = rec.trace[1]
    assert halfspace_x1().max_violation(r1.x + r1.s_candidate) > 0


def test_scs_monotone_when_memoryless():
    p = get_problem("rosenbrock2")
    rec = solve("scs", p, make_box(2, lo=-2.0, hi=2.0), SolverConfig(M=0), record_trace=True)
    fs = [r.f for r in rec.trace]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_scs_nonmonotone_reference_uses_memory():
    p = get_problem("rosenbrock2")
    M = 5
    rec = solve("scs", p, make_box(2, lo=-2.0, hi=2.0), SolverConfig(M=M), record_trace=True)
    fs = [r.f for r in rec.trace]
    for k, r in enumerate(rec.trace):
        if r.f_ref is None:
            continue
        lo = max(0, k - M)
        assert r.f_ref == pytest.approx(max(fs[lo : k + 1]), abs=1e-12)


def test_scs_momentum_capped_by_beta0():
    p = get_problem("rosenbrock2")
    cfg = SolverConfig(beta0=0.5, max_iters=20)
    rec = solve("scs", p, make_box(2, lo=-2.0, hi=2.0), cfg, record_trace=True)
    used = [r.beta_used for r in rec.trace if r.beta_used is not None]
    assert len(used) > 1
    assert max(used) <= 0.5


def chnrosnb4_box_scs(**fields):
    """The traced chnrosnb4/box scs:0 run under these config fields, and the
    momentum weights its steps used."""
    cfg = SolverConfig(**fields)
    rec = solve("scs", get_problem("chnrosnb4"), make_set("box", 4), cfg, record_trace=True)
    assert rec.status == STATUS_STATIONARY
    return rec, [r.beta_used for r in rec.trace if r.beta_used is not None]


def test_scs_reduces_the_momentum_weight_and_recovers_it():
    # two steps reduce the weight 0.9 to 0.225, then to 0.05625; the next
    # steps double it back, through 0.1125 and 0.45
    rec, used = chnrosnb4_box_scs()
    assert rec.iterations == 22 and rec.adaptive_reductions == 2
    assert {0.1125, 0.45} <= set(used)


def test_scs_without_adaptive_momentum_keeps_beta0():
    rec, used = chnrosnb4_box_scs(adaptive_momentum=False)
    assert rec.iterations == 21 and rec.adaptive_reductions == 0
    assert not any(r.adaptive for r in rec.trace)
    assert set(used) == {0.9}


def test_scs_without_dynamic_beta_carries_no_weight_over():
    # each step starts from beta0, so only a reduction within the step
    # lowers the weight, and no step doubles a reduced one back
    rec, used = chnrosnb4_box_scs(dynamic_beta=False)
    assert rec.iterations == 27 and rec.adaptive_reductions == 2
    assert set(used) <= {0.9, 0.225, 0.05625}


def test_scs_eta_stays_in_bounds():
    p = get_problem("chnrosnb4")
    cfg = SolverConfig()
    rec = solve("scs", p, make_set("com", 4), cfg, record_trace=True)
    for r in rec.trace:
        if r.eta is not None:
            assert cfg.eta_min <= r.eta <= cfg.eta_max


def test_scs_reaches_constrained_quadratic_minimum():
    p = get_problem("quad_shift50")
    rec = solve("scs", p, make_box(50))
    assert rec.status == STATUS_STATIONARY
    assert rec.max_g_final <= FEAS_TOL
    assert rec.f_star == pytest.approx(1275.0, rel=1e-6)


def test_scs_x0_override():
    p = get_problem("quad_diag50")
    rec = solve("scs", p, make_set("sph", 50), x0=np.zeros(50))
    assert rec.status == STATUS_STATIONARY
    assert rec.iterations == 0
    assert rec.f_star == 0.0


def test_scs_infeasible_start_is_projected():
    p = sum_of_squares(2)
    rec = solve("scs", p, make_box(2), x0=np.array([50.0, 50.0]), record_trace="vectors")
    assert np.allclose(rec.trace[0].x, [1.0, 1.0])
    assert rec.status == STATUS_STATIONARY


@pytest.mark.parametrize("set_name", ("sph", "ell", "com", "box"))
def test_scs_iterates_feasible_everywhere(set_name):
    p = get_problem("chnrosnb4")
    fset = make_set(set_name, 4, ell_seed=3)
    rec = solve("scs", p, fset, record_trace=True)
    for r in rec.trace:
        assert r.max_g <= FEAS_TOL
    assert rec.max_g_final <= FEAS_TOL


class _HalvingLineStep(solvers._LineStep):
    """SPG backtracking by halving: lam = DELTA^h along x + lam d."""

    def __call__(self, x, fx, eta, z, pz, d, grad_dot_d, f_ref, rec):
        lam = 1.0
        for _ in range(solvers.MAX_BACKTRACKS + 1):
            xt = x + lam * d
            ft = self.p.f(xt)
            if ft <= f_ref + SIGMA * lam * grad_dot_d:
                return xt, ft, lam
            lam *= DELTA
        raise SearchFailureError(
            "halving exhausted", last_trial=lam / DELTA, failed_condition="sufficient_decrease"
        )


@pytest.mark.parametrize("M", (0, 10))
@pytest.mark.parametrize(
    "problem, set_name",
    (("powell20", "sph"), ("rosenbrock2", "ell"), ("wood4", "com"), ("quad_diag500", "box")),
)
def test_scs_without_momentum_is_spg_by_halving(monkeypatch, problem, set_name, M):
    # beta0 = 0 and ALPHA = 1 make s = d: the endpoint x + d is feasible, so
    # the search runs along x + t d from t = 1 by halving, as SPG would with
    # lam *= DELTA in place of its interpolation
    monkeypatch.setitem(SOLVERS, "spg_halving", _HalvingLineStep)
    p = get_problem(problem)
    fset = make_set(set_name, p.dim, ell_seed=p.dim)
    cfg = SolverConfig(M=M, max_iters=400)
    halving = solve("spg_halving", p, fset, cfg)
    with monkeypatch.context() as m:
        m.setattr(solvers, "ALPHA", 1.0)
        scs = solve("scs", p, fset, dataclasses.replace(cfg, beta0=0.0), record_trace=True)
    assert (scs.status, scs.iterations) == (halving.status, halving.iterations)
    assert scs.final_x.tobytes() == halving.final_x.tobytes()
    assert repr(scs.f_star) == repr(halving.f_star)
    # the runs backtrack, and SPG's interpolation takes another path
    assert any(r.t is not None and r.t < 1.0 for r in scs.trace)
    spg = solve("spg", p, fset, cfg)
    assert (spg.iterations, spg.final_x.tobytes()) != (scs.iterations, scs.final_x.tobytes())


# ---------------------------------------------------------------------------
# deterministic replay of the recorded scs run


def replay_run(p, fset, cfg):
    rec = solve("scs", p, fset, cfg, record_trace="vectors")
    steps = [r for r in rec.trace if r.t is not None]
    assert steps, "expected at least one completed iteration"
    for i, r in enumerate(steps):
        # primary direction reproduces from the stored iterate and steplength
        d = spg_direction(p, fset, r.x, r.eta)
        assert np.allclose(d, r.d, atol=1e-12)
        # certificate decision reproduces from the stored momentum candidate;
        # a fallback past a passed certificate is an exhausted momentum
        # reduction, from x_prev, the previous entry's iterate
        if r.k > 0:
            decision = feasibility_certificate(
                QuadraticCurve(r.x, r.d, r.s_candidate), fset, T_TILDE, r.eps
            )
            if r.fallback and decision is CurveDecision.CURVE_OK:
                x_prev = rec.trace[r.k - 1].x
                with pytest.raises(SearchFailureError):
                    adaptive_momentum(
                        QuadraticCurve(r.x, r.d, r.s_candidate), x_prev, fset, r.beta_used, r.eta
                    )
            else:
                expect = CurveDecision.FALL_BACK if r.fallback else CurveDecision.CURVE_OK
                assert decision is expect
        if r.fallback:
            assert np.array_equal(r.s, r.d)
        else:
            # the step searched the heavy-ball direction of its recorded weight
            x_prev = rec.trace[r.k - 1].x
            s = build_secondary_direction(r.d, r.x, x_prev, r.beta_used, r.eta)
            assert np.array_equal(r.s, s)
        c = QuadraticCurve(r.x, r.d, r.s)
        # accepted point is feasible and passes the recorded Armijo test
        xt = c.eval(r.t)
        assert fset.max_violation(xt) <= FEAS_TOL
        assert p.f(xt) <= r.f_ref + SIGMA * r.t * r.grad_dot_d + 1e-12
        # maximality: the next larger trial on the delta grid was rejected
        if r.t < 1.0:
            t_up = r.t / DELTA
            x_up = c.eval(t_up)
            rejected = (
                fset.max_violation(x_up) > FEAS_TOL
                or p.f(x_up) > r.f_ref + SIGMA * t_up * r.grad_dot_d
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


def test_trace_shares_step_arrays():
    # chnrosnb4 on the box takes fallback, adaptive-momentum and plain
    # momentum steps
    fset = make_set("box", 4)
    rec = solve("scs", get_problem("chnrosnb4"), fset, record_trace="vectors")
    steps = [r for r in rec.trace if r.t is not None]
    plain = [r for r in steps if not r.fallback and not r.adaptive]
    fallbacks = [r for r in steps if r.fallback]
    assert plain and fallbacks and len(plain) + len(fallbacks) < len(steps)
    for r in plain:
        assert r.s is r.s_candidate
    for r in fallbacks:
        assert r.s is r.d
    for r in rec.trace:
        assert r.max_g == fset.max_violation(r.x)
    assert rec.final_x is not rec.trace[-1].x
    assert np.array_equal(rec.final_x, rec.trace[-1].x)
    # beale2 on the box keeps the momentum weight on its adaptive steps,
    # and each searches the direction the certificate checked
    kept = solve("scs", get_problem("beale2"), make_set("box", 2), record_trace="vectors")
    adaptive = [r for r in kept.trace if r.adaptive]
    assert adaptive and all(r.s is r.s_candidate for r in adaptive)


# ---------------------------------------------------------------------------
# golden trajectories: (status, iterations, fallbacks, adaptive_reductions)
# of the n <= 4 desk-plan runs (seed 0, max_iters 400).  A change meant to
# keep results bit-identical, such as rewriting an array expression, must
# leave this table as it is.  It holds on OpenBLAS's SkylakeX core: even at
# n = 2 a 1-D `dot` rounds unlike Haswell's or Prescott's, since SkylakeX's
# fuses each multiply into its add.

GOLDEN = {
    ("beale2", "box", "scs", 0): ("stationary", 9, 1, 0),
    ("beale2", "box", "scs", 10): ("stationary", 12, 1, 0),
    ("beale2", "box", "spg", 0): ("stationary", 8, 0, 0),
    ("beale2", "box", "spg", 10): ("stationary", 8, 0, 0),
    ("beale2", "com", "scs", 0): ("stationary", 39, 1, 0),
    ("beale2", "com", "scs", 10): ("stationary", 38, 1, 0),
    ("beale2", "com", "spg", 0): ("stationary", 171, 0, 0),
    ("beale2", "com", "spg", 10): ("stationary", 36, 0, 0),
    ("beale2", "ell", "scs", 0): ("stationary", 59, 1, 0),
    ("beale2", "ell", "scs", 10): ("stationary", 56, 1, 0),
    ("beale2", "ell", "spg", 0): ("stationary", 46, 0, 0),
    ("beale2", "ell", "spg", 10): ("stationary", 32, 0, 0),
    ("beale2", "sph", "scs", 0): ("stationary", 50, 1, 0),
    ("beale2", "sph", "scs", 10): ("stationary", 100, 1, 0),
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
    ("chnrosnb4", "ell", "scs", 0): ("stationary", 338, 1, 0),
    ("chnrosnb4", "ell", "scs", 10): ("stationary", 399, 1, 0),
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
    ("rosenbrock2", "ell", "scs", 0): ("stationary", 140, 1, 0),
    ("rosenbrock2", "ell", "scs", 10): ("iter_limit", 400, 1, 0),
    ("rosenbrock2", "ell", "spg", 0): ("iter_limit", 400, 0, 0),
    ("rosenbrock2", "ell", "spg", 10): ("stationary", 54, 0, 0),
    ("rosenbrock2", "sph", "scs", 0): ("iter_limit", 400, 1, 0),
    ("rosenbrock2", "sph", "scs", 10): ("iter_limit", 400, 1, 0),
    ("rosenbrock2", "sph", "spg", 0): ("stationary", 244, 0, 0),
    ("rosenbrock2", "sph", "spg", 10): ("stationary", 56, 0, 0),
    ("wood4", "box", "scs", 0): ("stationary", 1, 1, 0),
    ("wood4", "box", "scs", 10): ("stationary", 1, 1, 0),
    ("wood4", "box", "spg", 0): ("stationary", 1, 0, 0),
    ("wood4", "box", "spg", 10): ("stationary", 1, 0, 0),
    ("wood4", "com", "scs", 0): ("stationary", 143, 1, 0),
    ("wood4", "com", "scs", 10): ("stationary", 128, 1, 0),
    ("wood4", "com", "spg", 0): ("stationary", 23, 0, 0),
    ("wood4", "com", "spg", 10): ("stationary", 365, 0, 0),
    ("wood4", "ell", "scs", 0): ("stationary", 114, 1, 0),
    ("wood4", "ell", "scs", 10): ("stationary", 72, 1, 0),
    ("wood4", "ell", "spg", 0): ("iter_limit", 400, 0, 0),
    ("wood4", "ell", "spg", 10): ("iter_limit", 400, 0, 0),
    ("wood4", "sph", "scs", 0): ("iter_limit", 400, 1, 0),
    ("wood4", "sph", "scs", 10): ("iter_limit", 400, 1, 1),
    ("wood4", "sph", "spg", 0): ("iter_limit", 400, 0, 0),
    ("wood4", "sph", "spg", 10): ("iter_limit", 400, 0, 0),
}


VECTOR_FIELDS = ("x", "d", "s", "s_candidate")
SCALAR_FIELDS = tuple(
    f.name for f in dataclasses.fields(IterationRecord) if f.name not in VECTOR_FIELDS
)


@pytest.fixture(scope="module")
def golden_runs():
    """Each GOLDEN run solved once per trace mode: (untraced, scalars, vectors)."""
    cfgs = {m: SolverConfig(M=m, max_iters=400) for m in (0, 10)}
    runs = {}
    for key in GOLDEN:
        problem, set_name, solver, m = key
        p = get_problem(problem)
        # the ellipsoid a plan with seed 0 builds
        fset = make_set(set_name, p.dim, ell_seed=p.dim)
        runs[key] = tuple(
            solve(solver, p, fset, cfgs[m], record_trace=mode)
            for mode in (False, True, "vectors")
        )
    return runs


def test_golden_trajectories(golden_runs):
    got = {
        key: (rec.status, rec.iterations, rec.fallbacks, rec.adaptive_reductions)
        for key, (rec, _, _) in golden_runs.items()
    }
    assert got == GOLDEN


RUN_FIELDS = tuple(
    f.name for f in dataclasses.fields(RunRecord) if f.name not in ("elapsed", "trace")
)


def assert_records_agree(traced, plain):
    """Every RunRecord field but elapsed and trace alike, bit for bit."""
    for name in RUN_FIELDS:
        got, want = getattr(traced, name), getattr(plain, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        else:
            assert repr(got) == repr(want), name


def test_traced_and_untraced_runs_agree(golden_runs, monkeypatch):
    for plain, scalars, vectors in golden_runs.values():
        for traced in (scalars, vectors):
            assert_records_agree(traced, plain)
        assert len(scalars.trace) == len(vectors.trace)
        for a, b in zip(scalars.trace, vectors.trace):
            for name in SCALAR_FIELDS:
                assert repr(getattr(a, name)) == repr(getattr(b, name))

    # Runs that end on a failed search and on a non-finite gradient after a
    # step, where an untraced run has skipped the last iterate's measure and
    # forms it after the loop
    skipped = []
    rules_out_stop = solvers._rules_out_stop

    def recording(*args):
        skipped.append(rules_out_stop(*args))
        return skipped[-1]

    monkeypatch.setattr(solvers, "_rules_out_stop", recording)
    for problem, fset, backtracks, status in (
        (get_problem("chnrosnb4"), make_set("box", 4), 0, STATUS_SEARCH_FAILURE),
        (nan_gradient2(0.25), make_set("box", 2), solvers.MAX_BACKTRACKS, STATUS_NON_FINITE),
    ):
        monkeypatch.setattr(solvers, "MAX_BACKTRACKS", backtracks)
        skipped.clear()
        plain = solve("scs", problem, fset)
        assert plain.status == status and skipped[-1]
        for mode in (True, "vectors"):
            assert_records_agree(solve("scs", problem, fset, record_trace=mode), plain)


@pytest.mark.parametrize("solver", ("scs", "spg"))
def test_scalar_trace_holds_no_arrays(solver):
    # chnrosnb4 on the box takes fallback, adaptive-momentum and plain
    # momentum steps under scs
    rec = solve(solver, get_problem("chnrosnb4"), make_set("box", 4), record_trace=True)
    assert len(rec.trace) > 1
    for r in rec.trace:
        assert all(getattr(r, name) is None for name in VECTOR_FIELDS)


@pytest.mark.parametrize("mode", ("scalars", 2))
def test_unknown_trace_mode_is_rejected_before_a_run(mode, monkeypatch):
    calls = []
    p = counting_problem(2, calls)
    with pytest.raises(ValueError, match="record_trace"):
        solve("scs", p, make_box(2), record_trace=mode)
    assert calls == []

    def counted(p, fset, cfg):
        calls.append(p.name)
        return SOLVERS["scs"](p, fset, cfg)

    monkeypatch.setitem(SOLVERS, "counted", counted)
    plan = BenchPlan(problems=("rosenbrock2",), sets=("box",), solvers=(("counted", 0),))
    with pytest.raises(ValueError, match="record_trace"):
        run_plan(plan, record_trace=mode)
    assert calls == []


def held_by_tridia_runs(modes):
    """Bytes tracemalloc finds held by a tridia1000/box scs:0 run of 100
    iterations, one run per trace mode."""
    p = get_problem("tridia1000")
    fset = make_set("box", p.dim)
    cfg = SolverConfig(max_iters=100)
    # a first traced run fills the interpreter's free lists, which
    # tracemalloc would otherwise count as held by the measured run
    solve("scs", p, fset, cfg, record_trace=True)
    held = {}
    for mode in modes:
        tracemalloc.start()
        rec = solve("scs", p, fset, cfg, record_trace=mode)
        held[mode] = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert rec.iterations == 100
        del rec
    return held


def test_scalar_trace_holds_a_tenth_of_a_vector_trace():
    # the vector trace keeps four arrays of 1000 floats per entry, the
    # scalar trace none
    held = held_by_tridia_runs((True, "vectors"))
    assert held[True] < held["vectors"] / 10


def test_scalar_trace_entry_holds_at_most_150_bytes():
    # packed by field an entry needs about 100 bytes; one IterationRecord
    # with its boxed floats needs about 300
    held = held_by_tridia_runs((False, True))
    assert (held[True] - held[False]) / 101 <= 150  # 100 iterations, 101 entries


def test_trace_gives_back_none_and_nan_as_recorded():
    entries = [
        IterationRecord(
            k=0, x=None, f=1.5, stationarity=0.25, max_g=-1.0, t=math.nan,
            fallback=True, eta=1.0, grad_dot_d=-0.5, f_ref=1.5,
        ),
        IterationRecord(
            k=1, x=None, f=math.nan, stationarity=0.0, max_g=0.0, adaptive=True,
            beta_used=math.nan, eps=0.1, straight_line=True,
        ),
    ]
    trace = Trace(entries)
    assert len(trace) == 2
    assert math.isnan(trace[0].t) and trace[1].t is None
    assert trace[0].beta_used is None and math.isnan(trace[1].beta_used)
    for i in (0, 1, -1, -2):
        assert repr(trace[i]) == repr(entries[i])
    assert [repr(e) for e in trace] == [repr(e) for e in entries]
    assert [repr(e) for e in trace[::-1]] == [repr(e) for e in entries[::-1]]
    assert [repr(e) for e in trace[1:]] == [repr(entries[1])]
    for i in (2, -3):
        with pytest.raises(IndexError):
            trace[i]
    # each entry is a fresh copy, so writing into it changes nothing
    trace[0].f = 0.0
    assert trace[0].f == 1.5
    assert len(Trace([])) == 0 and list(Trace([])) == []
    # every field away from its default and every float distinct, so a
    # field packed into another's place comes back wrong
    x, d, s, s_candidate = (np.full(2, v) for v in (1.0, 2.0, 3.0, 4.0))
    full = IterationRecord(
        k=0, f=2.5, stationarity=0.125, max_g=-2.0, t=0.5, beta_used=0.45, eta=3.0,
        eps=0.095, grad_dot_d=-4.0, f_ref=2.75, fallback=True, adaptive=True,
        straight_line=True, x=x, d=d, s=s, s_candidate=s_candidate,
    )
    (got,) = Trace([full])
    for name in SCALAR_FIELDS:
        assert repr(getattr(got, name)) == repr(getattr(full, name))
    for name in VECTOR_FIELDS:
        assert getattr(got, name) is getattr(full, name)


def test_iteration_record_declares_floats_then_flags_then_arrays():
    # Trace packs the fields after k, the entry's index, in their declared
    # order, as one float block, one bool block and the arrays
    kinds = {"float": 0, "float | None": 0, "bool": 1, "Vector | None": 2}
    k, *packed = dataclasses.fields(IterationRecord)
    assert (k.name, k.type) == ("k", "int")
    order = [kinds[f.type] for f in packed]
    assert order == sorted(order)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize(
    "cfg", [SolverConfig(), SolverConfig(beta0=0, eta_max=1000)], ids=["default", "int-values"]
)
@pytest.mark.parametrize("mode", (True, "vectors"))
def test_trace_rebuilds_every_filled_entry(solver, cfg, mode, monkeypatch):
    # chnrosnb4 on the box takes fallback, adaptive-momentum and plain
    # momentum steps under scs
    filled = []

    def keep(entries):
        filled.extend(entries)
        return Trace(entries)

    monkeypatch.setattr(solvers, "Trace", keep)
    rec = solve(solver, get_problem("chnrosnb4"), make_set("box", 4), cfg, record_trace=mode)
    assert isinstance(rec.trace, Trace)
    assert len(rec.trace) == len(filled) > 1
    for got, want in zip(rec.trace, filled):
        assert got is not want
        for name in SCALAR_FIELDS:
            assert repr(getattr(got, name)) == repr(getattr(want, name))
        for name in VECTOR_FIELDS:
            assert getattr(got, name) is getattr(want, name)


def test_scs_reaches_every_building_block_through_the_module(monkeypatch):
    # the benchmark's spans replace these module attributes; a loop that
    # bound one of them directly would leave its span count at 0
    names = ("feasibility_certificate", "stationarity_measure", "curve_search", "adaptive_momentum")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
    rec = solve("scs", get_problem("chnrosnb4"), make_set("box", 4))
    assert rec.iterations > 1
    assert all(calls[name] > 0 for name in names), calls


@pytest.mark.parametrize("problem, set_name", [("tridia1000", "box"), ("chnrosnb4", "ell")])
def test_scs_checks_g_about_twice_per_iteration(problem, set_name):
    # the momentum endpoint and the accepted point; the certificate and the
    # reduction add their calls only on the few steps whose endpoint is
    # infeasible
    p = get_problem(problem)
    fset = make_set(set_name, p.dim, ell_seed=p.dim)
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return fset.eval_g(x)

    counted = dataclasses.replace(fset, eval_g=counting)
    rec = solve("scs", p, counted, SolverConfig(max_iters=400))
    assert rec.iterations > 100
    assert calls / rec.iterations <= 2.5


def test_feasible_momentum_endpoints_skip_the_certificate_and_the_reduction(monkeypatch):
    # on this sphere every momentum endpoint is feasible, so the curve lies
    # in the set and neither building block has anything to decide
    def never(*args, **kwargs):
        raise AssertionError("called on a feasible momentum endpoint")

    monkeypatch.setattr(solvers, "feasibility_certificate", never)
    monkeypatch.setattr(solvers, "adaptive_momentum", never)
    rec = solve("scs", get_problem("quad_diag50"), make_set("sph", 50), SolverConfig(M=10))
    assert rec.status == STATUS_STATIONARY
    assert rec.iterations > 1
    assert rec.fallbacks == 1  # the first step only
