"""SCS and SPG solvers for smooth convexly constrained problems.

One driver runs the iteration both methods share; a step strategy moves it.
SCS backtracks along a quadratic curve that blends a projected-gradient
primary direction with a heavy-ball secondary direction; the curve must stay
feasible and satisfy a (possibly non-monotone) Armijo condition, and when its
endpoint violates a constraint nearly active along the primary direction the
step falls back to a straight line.  SPG, the spectral projected gradient
baseline, backtracks along the straight line by quadratic interpolation.
`SOLVERS` maps each solver name to its entry point.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .curves import CurveDecision, QuadraticCurve, feasibility_certificate
from .errors import SearchFailureError
from .problems import SmoothProblem
from .sets import FEAS_TOL, ConvexFeasibleSet

Vector = np.ndarray

#: threshold on ||z - project(z)|| deciding whether a projection was
#: actually needed to form the primary direction
_PROJ_ACTIVE_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    delta: float = 0.5          # backtracking factor
    sigma: float = 1e-7         # Armijo sufficient-decrease coefficient
    alpha: float = 0.999        # blend of the primary direction in the momentum step
    beta0: float = 0.9          # initial momentum weight
    t_tilde: float = 0.5        # probe location for the active-set certificate
    eps0: float = 0.1           # initial active-set relaxation
    eps_decay: float = 0.95
    M: int = 0                  # non-monotone memory (0 = monotone)
    eta0: float = 1.0
    eta_min: float = 1e-3
    eta_max: float = 1e3
    stat_tol: float = 1e-3
    max_iters: int = 5000
    time_limit: float = 120.0   # seconds
    max_backtracks: int = 60
    adaptive_momentum: bool = True
    dynamic_beta: bool = True

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.eta_min < self.eta_max:
            raise ValueError("need 0 < eta_min < eta_max")
        if self.M < 0:
            raise ValueError("M must be nonnegative")
        if not 0.0 < self.t_tilde < 1.0:
            raise ValueError("t_tilde must be in (0, 1)")
        if not 0.0 < self.eps_decay <= 1.0:
            raise ValueError("eps_decay must be in (0, 1]")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.time_limit > 0.0:
            raise ValueError("time_limit must be positive")


STATUS_STATIONARY = "stationary"
STATUS_ITER_LIMIT = "iter_limit"
STATUS_TIME_LIMIT = "time_limit"
STATUS_SEARCH_FAILURE = "search_failure"
#: f or a gradient entry at the projected start or an accepted step was
#: inf or NaN; the run keeps the last iterate where both were finite, or
#: the start when it is the start that is not
STATUS_NON_FINITE = "non_finite"


@dataclass
class IterationRecord:
    """Per-iteration trace entry: the iterate plus the step taken from it."""

    k: int
    x: Vector
    f: float
    stationarity: float
    max_g: float
    t: float | None = None
    fallback: bool = False
    adaptive: bool = False
    beta_used: float | None = None
    eta: float | None = None
    eps: float | None = None
    grad_dot_d: float | None = None
    f_ref: float | None = None
    d: Vector | None = None
    s: Vector | None = None
    s_candidate: Vector | None = None  # momentum direction before any fallback
    straight_line: bool = False


@dataclass
class RunRecord:
    solver_name: str
    problem_name: str
    set_name: str
    status: str
    f_star: float
    stationarity: float
    iterations: int
    fallbacks: int
    adaptive_reductions: int
    elapsed: float
    M: int = 0
    dim: int = 0
    final_x: Vector | None = None
    max_g_final: float = float("nan")
    detail: str = ""  # why a non_finite or error run stopped
    trace: list[IterationRecord] | None = field(default=None, repr=False)


@dataclass
class SearchResult:
    t: float
    x: Vector
    f: float
    max_g: float


# ---------------------------------------------------------------------------
# building blocks


def spg_direction(
    p: SmoothProblem, fset: ConvexFeasibleSet, x: Vector, eta: float, grad: Vector | None = None
) -> Vector:
    """d = project(x - eta * grad f(x)) - x; feasible with unit steplength."""
    if grad is None:
        grad = p.grad(x)
    return fset.project(x - eta * grad) - x


def spectral_eta(r: Vector, y: Vector, eta_min: float, eta_max: float) -> float:
    """Safeguarded inverse Rayleigh quotient r'r / r'y.

    Nonpositive curvature (r'y <= 0, including r = 0) maps to eta_max.
    """
    ry = float(np.dot(r, y))
    if ry <= 0.0:
        return eta_max
    return min(eta_max, max(eta_min, float(np.dot(r, r)) / ry))


def build_secondary_direction(
    d: Vector, x: Vector, x_prev: Vector, alpha: float, beta: float, eta: float
) -> Vector:
    """Heavy-ball secondary direction with spectrally rescaled momentum."""
    return alpha * d + (beta * eta) * (x - x_prev)


def adaptive_momentum(
    d: Vector,
    x: Vector,
    x_prev: Vector,
    fset: ConvexFeasibleSet,
    alpha: float,
    beta: float,
    eta: float,
    delta: float,
    max_backtracks: int,
) -> tuple[Vector, float]:
    """Geometrically shrink the momentum weight until the endpoint is feasible.

    Returns (s, beta_k) with beta_k the largest delta^h * beta making
    x + alpha*d + beta_k*eta*(x - x_prev) feasible.  Failure to terminate
    within max_backtracks signals a projection or feasibility bug upstream.
    """
    base = x + alpha * d
    momentum = eta * (x - x_prev)
    beta_k = beta
    for h in range(max_backtracks + 1):
        endpoint = base + beta_k * momentum
        if fset.max_violation(endpoint) <= FEAS_TOL:
            return endpoint - x, beta_k
        beta_k *= delta
    raise SearchFailureError(
        "momentum reduction exhausted its budget",
        last_trial=beta_k,
        failed_condition="feasibility",
    )


def curve_search(
    p: SmoothProblem,
    fset: ConvexFeasibleSet,
    c: QuadraticCurve,
    f_ref: float,
    grad_dot_d: float,
    cfg: SolverConfig,
) -> SearchResult:
    """Backtrack over t = delta^h until gamma(t) is feasible and passes Armijo."""
    t = 1.0
    for h in range(cfg.max_backtracks + 1):
        pt = c.eval(t)
        max_g = fset.max_violation(pt)
        if max_g <= FEAS_TOL:
            fv = p.f(pt)
            if fv <= f_ref + cfg.sigma * t * grad_dot_d:
                return SearchResult(t=t, x=pt, f=fv, max_g=max_g)
            failed = "sufficient_decrease"
        else:
            failed = "feasibility"
        t *= cfg.delta
    raise SearchFailureError(
        f"curve search exhausted {cfg.max_backtracks} backtracks",
        last_trial=t / cfg.delta,
        failed_condition=failed,
    )


def stationarity_measure(
    p: SmoothProblem, fset: ConvexFeasibleSet, x: Vector, grad: Vector | None = None
) -> float:
    """Infinity norm of project(x - grad f(x)) - x; zero iff x is stationary."""
    if grad is None:
        grad = p.grad(x)
    step = fset.project(x - grad) - x
    return float(np.abs(step).max()) if step.size else 0.0


# ---------------------------------------------------------------------------
# solvers


class _CurveStep:
    """SCS step along a certificate-guarded quadratic curve; owns the momentum state."""

    def __init__(self, p: SmoothProblem, fset: ConvexFeasibleSet, cfg: SolverConfig):
        self.p = p
        self.fset = fset
        self.cfg = cfg
        self.x_prev: Vector | None = None  # None until the first step is taken
        self.beta = cfg.beta0
        self.eps = cfg.eps0
        self.fallbacks = 0
        self.adaptive_reductions = 0

    def __call__(self, x, fx, grad, eta, z, pz, f_ref, rec):
        cfg = self.cfg
        first = self.x_prev is None
        x_prev = x if first else self.x_prev
        d = pz - x
        moved = z - pz
        proj_required = math.sqrt(moved.dot(moved)) > _PROJ_ACTIVE_TOL
        s_candidate = build_secondary_direction(d, x, x_prev, cfg.alpha, self.beta, eta)
        s = s_candidate

        # the first step has no momentum and always runs along the straight line
        fallback = first
        adaptive = False
        beta_k = self.beta
        if not fallback:
            decision = feasibility_certificate(
                QuadraticCurve(x, d, s), self.fset, cfg.t_tilde, self.eps
            )
            fallback = decision is CurveDecision.FALL_BACK
        if fallback:
            s = d
            self.fallbacks += 1
        elif cfg.adaptive_momentum and proj_required:
            s, beta_k = adaptive_momentum(
                d, x, x_prev, self.fset, cfg.alpha, self.beta, eta, cfg.delta, cfg.max_backtracks
            )
            adaptive = True
            if beta_k < self.beta:
                self.adaptive_reductions += 1

        curve = QuadraticCurve(x, d, s)
        grad_dot_d = float(np.dot(grad, d))
        res = curve_search(self.p, self.fset, curve, f_ref, grad_dot_d, cfg)

        if rec is not None:
            rec.t = res.t
            rec.fallback = fallback
            rec.adaptive = adaptive
            rec.beta_used = beta_k
            rec.eps = self.eps
            rec.grad_dot_d = grad_dot_d
            rec.d = np.array(d)
            rec.s = np.array(s)
            rec.s_candidate = np.array(s_candidate)
            rec.straight_line = curve.is_straight_line()

        if cfg.dynamic_beta:
            self.beta = beta_k if adaptive else min(cfg.beta0, self.beta / cfg.delta)
        self.eps *= cfg.eps_decay
        self.x_prev = x
        return res.x, res.f


class _LineStep:
    """SPG step: backtracking by safeguarded quadratic interpolation along a line."""

    fallbacks = 0
    adaptive_reductions = 0

    def __init__(self, p: SmoothProblem, cfg: SolverConfig):
        self.p = p
        self.cfg = cfg

    def __call__(self, x, fx, grad, eta, z, pz, f_ref, rec):
        cfg = self.cfg
        d = pz - x
        grad_dot_d = float(np.dot(grad, d))
        lam = 1.0
        for _ in range(cfg.max_backtracks + 1):
            xt = x + lam * d
            ft = self.p.f(xt)
            if ft <= f_ref + cfg.sigma * lam * grad_dot_d:
                if rec is not None:
                    rec.t = lam
                    rec.grad_dot_d = grad_dot_d
                    rec.d = np.array(d)
                    rec.straight_line = True
                return xt, ft
            denom = 2.0 * (ft - fx - lam * grad_dot_d)
            lam_new = -lam * lam * grad_dot_d / denom if denom > 0.0 else 0.5 * lam
            lam = min(0.9 * lam, max(0.1 * lam, lam_new))
        raise SearchFailureError(
            f"line search exhausted {cfg.max_backtracks} backtracks",
            failed_condition="sufficient_decrease",
        )


def _non_finite(f: float, grad: Vector, k: int) -> str:
    """What of f and grad at iterate k is not finite, or "" when both are."""
    if not math.isfinite(f):
        return f"f = {f!r} at iterate {k}"
    if not np.isfinite(grad).all():
        return f"non-finite gradient at iterate {k}"
    return ""


def _drive(
    name: str,
    step,
    p: SmoothProblem,
    fset: ConvexFeasibleSet,
    cfg: SolverConfig,
    record_trace: bool,
    x0: Vector | None,
) -> RunRecord:
    """The iteration shared by SCS and SPG.

    `step(x, fx, grad, eta, z, project(z), f_ref, rec)` returns the accepted
    (x_next, f_next) or raises SearchFailureError, which ends the run.  A
    non-finite f or gradient at the projected start or at an accepted step
    ends it too, before anything is projected from that point.
    """
    t0 = time.perf_counter()
    x = fset.project(np.array(p.start if x0 is None else x0, dtype=float))
    grad = p.grad(x)
    fx = p.f(x)
    eta = cfg.eta0
    f_hist: deque[float] = deque([fx], maxlen=cfg.M + 1)
    trace: list[IterationRecord] | None = [] if record_trace else None
    k = 0
    stat = math.nan
    detail = _non_finite(fx, grad, 0)
    status = STATUS_NON_FINITE if detail else None
    while status is None:
        stat = stationarity_measure(p, fset, x, grad)
        rec = None
        if trace is not None:
            rec = IterationRecord(
                k=k, x=np.array(x), f=fx, stationarity=stat, max_g=fset.max_violation(x)
            )
            trace.append(rec)
        if stat <= cfg.stat_tol:
            status = STATUS_STATIONARY
            break
        if k >= cfg.max_iters:
            status = STATUS_ITER_LIMIT
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break

        z = x - eta * grad
        f_ref = max(f_hist)
        try:
            x_next, f_next = step(x, fx, grad, eta, z, fset.project(z), f_ref, rec)
        except SearchFailureError:
            status = STATUS_SEARCH_FAILURE
            break
        if rec is not None:
            rec.eta = eta
            rec.f_ref = f_ref

        grad_next = p.grad(x_next)
        detail = _non_finite(f_next, grad_next, k + 1)
        if detail:
            status = STATUS_NON_FINITE
            break
        eta = spectral_eta(x_next - x, grad_next - grad, cfg.eta_min, cfg.eta_max)
        x = x_next
        fx = f_next
        grad = grad_next
        f_hist.append(fx)
        k += 1

    return RunRecord(
        solver_name=name,
        problem_name=p.name,
        set_name=fset.name,
        status=status,
        f_star=fx,
        stationarity=stat,
        iterations=k,
        fallbacks=step.fallbacks,
        adaptive_reductions=step.adaptive_reductions,
        elapsed=time.perf_counter() - t0,
        M=cfg.M,
        dim=p.dim,
        final_x=np.array(x),
        max_g_final=fset.max_violation(x),
        detail=detail,
        trace=trace,
    )


def scs_solve(
    p: SmoothProblem,
    fset: ConvexFeasibleSet,
    cfg: SolverConfig = SolverConfig(),
    record_trace: bool = False,
    x0: Vector | None = None,
) -> RunRecord:
    """Heavy-ball curve search with certificate-guarded momentum."""
    return _drive("scs", _CurveStep(p, fset, cfg), p, fset, cfg, record_trace, x0)


def spg_solve(
    p: SmoothProblem,
    fset: ConvexFeasibleSet,
    cfg: SolverConfig = SolverConfig(),
    record_trace: bool = False,
    x0: Vector | None = None,
) -> RunRecord:
    """Spectral projected gradient with non-monotone interpolating line search."""
    return _drive("spg", _LineStep(p, cfg), p, fset, cfg, record_trace, x0)


#: solver name -> entry point; the one list of solvers a plan may name
SOLVERS = {"scs": scs_solve, "spg": spg_solve}


def solve(
    solver: str,
    p: SmoothProblem,
    fset: ConvexFeasibleSet,
    cfg: SolverConfig = SolverConfig(),
    record_trace: bool = False,
    x0: Vector | None = None,
) -> RunRecord:
    if solver not in SOLVERS:
        raise KeyError(f"unknown solver {solver!r}; known: {tuple(SOLVERS)}")
    return SOLVERS[solver](p, fset, cfg, record_trace, x0)
