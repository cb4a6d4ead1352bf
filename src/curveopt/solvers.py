"""SCS and SPG solvers for smooth convexly constrained problems.

`solve` runs the iteration both methods share; a step strategy moves it.
SCS backtracks along a quadratic curve that blends a projected-gradient
primary direction with a heavy-ball secondary direction, to a feasible point
that passes a (possibly non-monotone) Armijo condition.  A curve
whose endpoint is feasible lies wholly in the set, so one check of the
endpoint settles most steps; only an infeasible endpoint goes to the
certificate and to the momentum reduction, which tries smaller weights and
returns the curve whose endpoint it found feasible; that curve is the one
searched.  When the endpoint violates a constraint nearly active along the
primary direction, or no smaller weight makes it feasible, the step falls
back to the straight line, which is always feasible.  Each curve builds its
endpoint once, as x + d + (s - d); the step's check, the reduction's and the
search's first trial all use that one array.  The curve search checks g only
where it accepts, and not at an endpoint the step has already found feasible.
SPG, the spectral projected gradient baseline, backtracks along the straight
line by quadratic interpolation.  With `beta0 = 0` and `ALPHA` set to 1, an
SCS step is SPG backtracking by halving instead, bit for bit.
`SOLVERS` maps each solver name to its step strategy.
Every inner product here goes through `sets._squared_norm` or `sets._dot`,
and every squared norm through the one overflow guard of the first.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .curves import CurveDecision, QuadraticCurve, feasibility_certificate
from .errors import SearchFailureError, as_integer
from .problems import SmoothProblem
from .sets import FEAS_TOL, ConvexFeasibleSet, _dot, _max, _squared_norm

Vector = np.ndarray

#: threshold on ||z - project(z)|| deciding whether a projection was
#: actually needed to form the primary direction
_PROJ_ACTIVE_TOL = 1e-12

#: bound on eta * sqrt(grad'grad) under which z = x - eta*grad cannot
#: overflow: every |eta * grad_i| is then at most 2**961, and x_i plus that
#: rounds to a finite float for every finite x_i, since the largest float is
#: 2**1024 - 2**971
_STEP_SAFE = 2.0**960

#: backtracking factor of both searches and of the momentum reduction
DELTA = 0.5
#: Armijo sufficient-decrease coefficient
SIGMA = 1e-7
#: blend of the primary direction in the momentum step
ALPHA = 0.999
#: probe location for the active-set certificate
T_TILDE = 0.5
#: initial active-set relaxation, multiplied by EPS_DECAY every SCS step
EPS0 = 0.1
EPS_DECAY = 0.95
#: spectral steplength of the first iteration
ETA0 = 1.0
#: backtracks each search and the momentum reduction may make, a safeguard
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """The settings a caller may vary; every other constant of the method is
    a module constant: DELTA, SIGMA, ALPHA, T_TILDE, EPS0, EPS_DECAY, ETA0,
    MAX_BACKTRACKS."""

    beta0: float = 0.9          # initial momentum weight
    M: int = 0                  # non-monotone memory (0 = monotone)
    eta_min: float = 1e-3
    eta_max: float = 1e3
    stat_tol: float = 1e-3
    max_iters: int = 5000
    time_limit: float = 120.0   # seconds
    adaptive_momentum: bool = True
    dynamic_beta: bool = True

    def __post_init__(self):
        for name in ("M", "max_iters"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        for name in ("adaptive_momentum", "dynamic_beta"):
            if not isinstance(value := getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be True or False, not {value!r}")
            object.__setattr__(self, name, bool(value))
        # stored as float, so that a packed trace gives back the type recorded
        for name in ("beta0", "eta_min", "eta_max", "stat_tol", "time_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
            object.__setattr__(self, name, float(value))
        if not 0.0 < self.eta_min < self.eta_max < math.inf:
            raise ValueError("need 0 < eta_min < eta_max < inf")
        if not self.eta_min <= ETA0 <= self.eta_max:
            raise ValueError(f"eta_min and eta_max must bracket the first step {ETA0}")
        if not 0.0 <= self.beta0 < 1.0:
            raise ValueError("beta0 must be in [0, 1)")
        if not 0.0 <= self.stat_tol < math.inf:
            raise ValueError("stat_tol must be finite and nonnegative")
        if not self.time_limit > 0.0:
            raise ValueError("time_limit must be positive")


STATUS_STATIONARY = "stationary"
STATUS_ITER_LIMIT = "iter_limit"
STATUS_TIME_LIMIT = "time_limit"
STATUS_SEARCH_FAILURE = "search_failure"
#: f or a gradient entry at the projected start or an accepted step was
#: inf or NaN; the run keeps the last iterate where both were finite, or
#: the start when it is the start that is not; or z = x - eta*grad
#: overflowed at an iterate where no stop ended the run
STATUS_NON_FINITE = "non_finite"


def trace_keeps_vectors(record_trace) -> bool:
    """Whether a trace in this `record_trace` mode holds arrays.

    False records no trace, True scalar entries and "vectors" entries with
    arrays; any other value raises ValueError.
    """
    if record_trace is False or record_trace is True:
        return False
    if record_trace == "vectors":
        return True
    raise ValueError(f"record_trace must be False, True or 'vectors', not {record_trace!r}")


@dataclass(slots=True)
class IterationRecord:
    """Per-iteration trace entry: the iterate plus the step taken from it.

    The field order is the layout a `Trace` packs: `k`, then the floats
    (float or None), then the flags, then the arrays, so a new field is
    declared among its kind.  `solve` fills one entry per iteration.  With
    `record_trace=True` an entry holds only scalars, and `x`, `d`, `s` and
    `s_candidate` stay None.  With `record_trace="vectors"` it also holds
    those arrays, the run's own and not copies: `s is s_candidate` on every
    momentum step that keeps its weight and `s is d` on a fallback.  The
    solver never writes into them, and neither may a reader of the trace.
    """

    k: int
    f: float
    stationarity: float
    max_g: float
    t: float | None = None
    beta_used: float | None = None
    eta: float | None = None
    eps: float | None = None
    grad_dot_d: float | None = None
    f_ref: float | None = None
    fallback: bool = False
    adaptive: bool = False
    straight_line: bool = False
    x: Vector | None = None
    d: Vector | None = None
    s: Vector | None = None
    s_candidate: Vector | None = None  # momentum direction before any fallback


_PACKED = fields(IterationRecord)[1:]  # k is the entry's index
_N_FLOATS = sum(f.type.startswith("float") for f in _PACKED)
_N_SCALARS = _N_FLOATS + sum(f.type == "bool" for f in _PACKED)
_get_scalars = operator.attrgetter(*(f.name for f in _PACKED[:_N_SCALARS]))
_get_arrays = operator.attrgetter(*(f.name for f in _PACKED[_N_SCALARS:]))


class Trace(Sequence[IterationRecord]):
    """A run's `IterationRecord`s, packed by field; read-only.

    An entry's `k` is its index and is not stored; its other fields are
    packed in their declared order.  The floats are one float64 array with
    a mask of the entries that were None and the flags one bool array, so
    an entry of scalars holds about 85 bytes instead of about 320.  A vector
    trace, one whose first entry holds its iterate, also keeps each entry's
    arrays by reference, so `s is s_candidate` and `s is d` hold as
    recorded.  Entries are read by index: `trace[i]`, with i negative too,
    rebuilds a fresh `IterationRecord` from row i by field position, with
    fields of the recorded entry's repr, so writing into it changes
    nothing; a slice gives a list of them.
    """

    __slots__ = ("_floats", "_none", "_flags", "_arrays")

    def __init__(self, entries: list[IterationRecord]):
        n = len(entries)
        cells = np.fromiter(
            chain.from_iterable(map(_get_scalars, entries)), dtype=object, count=n * _N_SCALARS
        ).reshape(n, _N_SCALARS)
        # None becomes NaN here, so only a NaN cell can have been None
        self._floats = cells[:, :_N_FLOATS].astype(float)
        self._none = np.zeros(self._floats.shape, dtype=bool)
        i, j = np.nonzero(np.isnan(self._floats))
        self._none[i, j] = np.equal(cells[i, j], None)
        self._flags = cells[:, _N_FLOATS:].astype(bool)
        vectors = n > 0 and entries[0].x is not None
        self._arrays = list(map(_get_arrays, entries)) if vectors else None

    def __len__(self) -> int:
        return len(self._floats)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # IndexError out of range, negative i from the end
        floats = self._floats[i].tolist()
        none = self._none[i].tolist()
        if True in none:
            floats = [None if is_none else v for v, is_none in zip(floats, none)]
        arrays = () if self._arrays is None else self._arrays[i]
        return IterationRecord(i, *floats, *self._flags[i].tolist(), *arrays)


@dataclass
class RunRecord:
    """One run's outcome: its status, final point, counts and time.

    `trace` is None unless `solve` recorded a trace; then it is a read-only
    `Trace` of one `IterationRecord` per iteration, packed after `elapsed`
    was taken.
    """

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
    detail: str = ""  # why a non_finite, search_failure or error run stopped
    trace: Trace | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# building blocks


def spectral_eta(r: Vector, y: Vector, eta_min: float, eta_max: float) -> float:
    """Safeguarded inverse Rayleigh quotient r'r / r'y.

    No positive curvature maps to eta_max: r'y <= 0 (including r = 0), and
    a quotient that is not a number, as when r'y is inf - inf or r'r / r'y
    is inf / inf.
    """
    ry = float(_dot(r, y))
    if ry > 0.0:
        q = float(_squared_norm(r)) / ry
        if not math.isnan(q):
            return min(eta_max, max(eta_min, q))
    return eta_max


def build_secondary_direction(
    d: Vector, x: Vector, x_prev: Vector, beta: float, eta: float
) -> Vector:
    """Heavy-ball secondary direction with spectrally rescaled momentum."""
    return ALPHA * d + (beta * eta) * (x - x_prev)


def adaptive_momentum(
    c: QuadraticCurve,
    x_prev: Vector,
    fset: ConvexFeasibleSet,
    beta: float,
    eta: float,
) -> tuple[QuadraticCurve, float]:
    """Geometrically shrink the momentum weight until the endpoint is feasible.

    `c` is the momentum curve of weight beta, whose endpoint c.p2 the SCS
    step found infeasible.  Returns (curve, beta_k) with beta_k the largest
    DELTA^h * beta, 1 <= h <= MAX_BACKTRACKS, whose momentum curve
    `QuadraticCurve(c.x, c.d, build_secondary_direction(c.d, c.x, x_prev,
    beta_k, eta))` has a feasible endpoint, and `curve` that very curve, so
    the endpoint tested is the search's first trial.  Raises
    SearchFailureError when none does, at once if MAX_BACKTRACKS is 0; near a
    wide window's eta_max the momentum term can outlast every halving.
    """
    beta_k = beta
    for _ in range(MAX_BACKTRACKS):
        beta_k *= DELTA
        curve = QuadraticCurve(c.x, c.d, build_secondary_direction(c.d, c.x, x_prev, beta_k, eta))
        if fset.max_violation(curve.p2) <= FEAS_TOL:
            return curve, beta_k
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
    *,
    end_feasible: bool = False,
) -> tuple[Vector, float, float]:
    """Backtrack over t = DELTA^h, 0 <= h <= MAX_BACKTRACKS, to a feasible
    gamma(t) passing Armijo; return (gamma(t), f, t).

    Each trial is tested against Armijo first and only a point that passes is
    checked against g, so the accepted t is the first that passes both.  An
    SCS curve leaves the set only when the certificate accepts an infeasible
    endpoint and no reduction runs (`adaptive_momentum` off, or an inactive
    projection).  `end_feasible=True` says the caller has found `c.p2`, the
    first trial, feasible, so that trial is not checked again; every other
    accepted trial is.  On exhaustion `failed_condition` is "feasibility"
    when the last trial lies outside the set.
    """
    t = 1.0
    for _ in range(MAX_BACKTRACKS + 1):
        pt = c.eval(t)
        fv = p.f(pt)
        if fv <= f_ref + SIGMA * t * grad_dot_d and (
            (end_feasible and t == 1.0) or fset.max_violation(pt) <= FEAS_TOL
        ):
            return pt, fv, t
        t *= DELTA
    feasible = fset.max_violation(pt) <= FEAS_TOL
    raise SearchFailureError(
        f"curve search exhausted {MAX_BACKTRACKS} backtracks",
        last_trial=t / DELTA,
        failed_condition="sufficient_decrease" if feasible else "feasibility",
    )


def stationarity_measure(fset: ConvexFeasibleSet, x: Vector, grad: Vector) -> float:
    """Infinity norm of project(x - grad) - x; zero iff x is stationary."""
    step = fset.project(x - grad) - x
    return float(_max(np.abs(step))) if step.size else 0.0


def _rules_out_stop(x: Vector, gg: float, eta: float, d: Vector, stat_tol: float) -> bool:
    """Whether the step's d = project(x - eta*grad) - x shows that
    `stationarity_measure(fset, x, grad)` exceeds stat_tol; gg is grad'grad.

    For x in the set, ||project(x - t*grad) - x||_2 is nondecreasing in t
    and its ratio to t nonincreasing (Calamai & More 1987, "Projected
    gradient methods for linearly constrained problems"), so the bound
    ||d||_2 * min(1, 1/eta) / sqrt(n) is at most the 2-norm of
    project(x - grad) - x over sqrt(n), which is at most the measure, its
    infinity norm.  Computed, both sides are off by rounding: forming
    x - grad and x - eta*grad, projecting and subtracting x each err by a
    few ulps (u = 2**-53) of ||x||, ||grad|| and the projected points, the
    norm by n ulps of the bound, and ell and com project to within root
    tolerances below 1e-10.  So the bound must clear stat_tol by
    1e-9 * (stat_tol + ||x|| + ||grad||), over 10**4 times that rounding
    for n up to 10**3.  A margin of 1e-9 * stat_tol alone is not enough:
    at entries near 1e3 rounding is 1e-13, and at stat_tol = 0 a gradient
    entry below half an ulp of x_i makes x - grad round to x, so the
    measure is 0 while d is not.  An accepted iterate may also lie outside
    the set by as much as g <= FEAS_TOL allows;
    `test_the_step_rules_out_a_stop_only_where_the_measure_exceeds_stat_tol`
    checks such points too.
    """
    bound = math.sqrt(_squared_norm(d)) * min(1.0, 1.0 / eta) / math.sqrt(d.size)
    if not stat_tol < bound < math.inf:
        return False
    scale = stat_tol + math.sqrt(_squared_norm(x)) + math.sqrt(gg)
    return bound > stat_tol + 1e-9 * scale


def _projection_active(z: Vector, pz: Vector) -> bool:
    """Whether ||z - pz||_2 > _PROJ_ACTIVE_TOL: the projection moved z."""
    return math.sqrt(_squared_norm(z - pz)) > _PROJ_ACTIVE_TOL


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
        self.eps = EPS0
        self.fallbacks = 0
        self.adaptive_reductions = 0

    def __call__(self, x, fx, eta, z, pz, d, grad_dot_d, f_ref, rec):
        cfg = self.cfg
        # the first step has no momentum and always runs along the straight line
        fallback = self.x_prev is None
        x_prev = x if fallback else self.x_prev
        candidate = QuadraticCurve(x, d, build_secondary_direction(d, x, x_prev, self.beta, eta))
        curve = candidate
        beta_k = self.beta
        # x and x + d are feasible, so the middle control point x + d/2 is too;
        # once the endpoint x + s is feasible, every point of the curve is a
        # convex combination of feasible points (criteria c02 and c03), and
        # neither the certificate nor the reduction is needed.  Here and on
        # the straight line nothing checks x + d: the projection is trusted
        # (the certificate, where it runs, raises ContractError if it is not),
        # and the search's check of the accepted point keeps iterates feasible.
        end_feasible = not fallback and self.fset.max_violation(curve.p2) <= FEAS_TOL
        # `adaptive`: the adaptive momentum is on, the projection that formed
        # d was active and the curve's endpoint is feasible.  The projection
        # test, ||z - P(z)|| > _PROJ_ACTIVE_TOL, is made only where it is
        # read: by the reduction, by a trace entry, and by the weight update
        # when beta < beta0.  At beta = beta0 both of the update's branches
        # give beta0, so there `adaptive` may stay False untested.
        adaptive = False
        if end_feasible:
            if cfg.adaptive_momentum and (
                rec is not None or (cfg.dynamic_beta and self.beta < cfg.beta0)
            ):
                adaptive = _projection_active(z, pz)
        elif not fallback:
            decision = feasibility_certificate(curve, self.fset, T_TILDE, self.eps)
            fallback = decision is CurveDecision.FALL_BACK
            if not fallback and cfg.adaptive_momentum and _projection_active(z, pz):
                try:
                    curve, beta_k = adaptive_momentum(curve, x_prev, self.fset, self.beta, eta)
                except SearchFailureError:
                    # no weight on the budget's grid makes the momentum endpoint
                    # feasible; x + d is, so the straight line always remains
                    fallback = True
                else:
                    end_feasible = adaptive = True
                    self.adaptive_reductions += beta_k < self.beta
        if fallback:
            curve = QuadraticCurve(x, d, d)
            self.fallbacks += 1
        if rec is not None:
            rec.fallback = fallback
            rec.adaptive = adaptive
            rec.beta_used = beta_k
            rec.eps = self.eps
            rec.straight_line = curve.is_straight_line()
            if rec.x is not None:  # a vector trace
                rec.s = curve.s
                rec.s_candidate = candidate.s
        x_next, f_next, t = curve_search(
            self.p, self.fset, curve, f_ref, grad_dot_d, end_feasible=end_feasible
        )

        if cfg.dynamic_beta:
            self.beta = beta_k if adaptive else min(cfg.beta0, self.beta / DELTA)
        self.eps *= EPS_DECAY
        self.x_prev = x
        return x_next, f_next, t


class _LineStep:
    """SPG step: backtracking by safeguarded quadratic interpolation along a line."""

    fallbacks = 0
    adaptive_reductions = 0

    def __init__(self, p: SmoothProblem, fset: ConvexFeasibleSet, cfg: SolverConfig):
        self.p = p

    def __call__(self, x, fx, eta, z, pz, d, grad_dot_d, f_ref, rec):
        if rec is not None:
            rec.straight_line = True
        lam = 1.0
        xt = x + d  # 1.0 * d is d, bit for bit
        for _ in range(MAX_BACKTRACKS + 1):
            ft = self.p.f(xt)
            if ft <= f_ref + SIGMA * lam * grad_dot_d:
                return xt, ft, lam
            denom = 2.0 * (ft - fx - lam * grad_dot_d)
            lam_new = -lam * lam * grad_dot_d / denom if denom > 0.0 else 0.5 * lam
            tried, lam = lam, min(0.9 * lam, max(0.1 * lam, lam_new))
            xt = x + lam * d
        raise SearchFailureError(
            f"line search exhausted {MAX_BACKTRACKS} backtracks",
            last_trial=tried,
            failed_condition="sufficient_decrease",
        )


#: solver name -> step class, built as `step(p, fset, cfg)`; the one list of
#: solvers a plan may name
SOLVERS = {"scs": _CurveStep, "spg": _LineStep}


def _non_finite(f: float, grad: Vector, gg: float, k: int) -> str:
    """What of f and grad at iterate k is not finite, or "" when both are;
    gg is grad'grad."""
    if not math.isfinite(f):
        return f"f = {f!r} at iterate {k}"
    # grad'grad is inf or NaN whenever an entry is; only a finite gradient
    # whose squares overflow needs the entrywise check
    if not math.isfinite(gg) and not np.isfinite(grad).all():
        return f"non-finite gradient at iterate {k}"
    return ""


def solve(
    solver: str,
    p: SmoothProblem,
    fset: ConvexFeasibleSet,
    cfg: SolverConfig = SolverConfig(),
    record_trace: bool | str = False,
    x0: Vector | None = None,
) -> RunRecord:
    """Run the named solver from `x0`, or from the problem's projected start.

    `record_trace` is False for no trace, True for one `IterationRecord` of
    scalars per iteration, or "vectors" for entries that also hold the
    iterate and the step's directions.  An unknown solver raises KeyError;
    an unknown trace mode, a set of another dimension, or a start (`x0`, else
    `p.start`) not of shape (p.dim,) or with a non-finite entry raises
    ValueError, before any oracle call.

    Each iteration first forms z = x - eta*grad and d = project(z) - x, then
    checks the stops.  ||d||_2 min(1, 1/eta) / sqrt(n) bounds the
    stationarity measure from below, so where it clears `stat_tol` the run
    cannot stop at x and the measure is not computed: an iteration projects
    once where the bound decides, and twice otherwise.  A traced run always
    computes the measure, so every entry holds it; `RunRecord.stationarity`
    is the final iterate's measure, formed after the loop where the loop
    skipped it, and NaN when f or the gradient at the projected start is
    not finite.  The loop forms grad'd once per iteration, and grad'grad
    once per accepted gradient for the non-finite check and the bound's
    margin; the step `SOLVERS[solver](p, fset, cfg)`, called as
    `step(x, fx, eta, z, project(z), d, grad_dot_d, f_ref, rec)`, returns the
    accepted (x_next, f_next, t) or raises SearchFailureError, which ends
    the run.  A non-finite f or gradient at the projected start or at an
    accepted step ends it too, before anything is projected from that point.
    Where z overflows, which only an eta * sqrt(grad'grad) near the largest
    float allows, z is not projected: the measure is computed, the stops are
    checked, and a run that would take that step ends `non_finite`.
    `rec` is the iteration's trace entry or None; a step writes only its own
    fields, and its arrays only when `rec.x` is set, that is in a vector trace.
    The loop and the step fill the entry before the search and set `t` after
    it, so when a search fails the last entry describes that step, with `t`
    None.
    """
    if solver not in SOLVERS:
        raise KeyError(f"unknown solver {solver!r}; known: {tuple(SOLVERS)}")
    vectors = trace_keeps_vectors(record_trace)
    if fset.dim != p.dim:
        raise ValueError(
            f"set {fset.name} has dimension {fset.dim} but problem {p.name} has {p.dim}"
        )
    x = np.array(p.start if x0 is None else x0, dtype=float)
    if x.shape != (p.dim,):
        raise ValueError(f"the start of {p.name} has shape {x.shape}, not ({p.dim},)")
    if not np.isfinite(x).all():
        raise ValueError(f"the start of {p.name} has a non-finite entry")
    step = SOLVERS[solver](p, fset, cfg)
    t0 = time.perf_counter()
    x = fset.project(x)
    grad = p.grad(x)
    fx = p.f(x)
    gg = _squared_norm(grad)
    eta = ETA0
    f_hist: deque[float] = deque([fx], maxlen=cfg.M + 1)
    trace: list[IterationRecord] | None = [] if record_trace else None
    k = 0
    stat = math.nan
    detail = _non_finite(fx, grad, gg, 0)
    status = STATUS_NON_FINITE if detail else None
    while status is None:
        if eta * math.sqrt(gg) < _STEP_SAFE:
            z = x - eta * grad
        else:  # z may overflow; where it does, it is None
            with np.errstate(over="ignore"):
                z = x - eta * grad
            if not np.isfinite(z).all():
                z = None
        # stat None: unmeasured, as the step's projection rules out a stop at x
        pz = d = stat = None
        if z is not None:
            pz = fset.project(z)
            d = pz - x
        if d is None or trace is not None or not _rules_out_stop(x, gg, eta, d, cfg.stat_tol):
            stat = stationarity_measure(fset, x, grad)
        rec = None
        if trace is not None:
            rec = IterationRecord(
                k=k,
                x=x if vectors else None,
                f=fx,
                stationarity=stat,
                max_g=fset.max_violation(x),
            )
            trace.append(rec)
        if stat is not None and stat <= cfg.stat_tol:
            status = STATUS_STATIONARY
            break
        if k >= cfg.max_iters:
            status = STATUS_ITER_LIMIT
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break
        if z is None:
            status = STATUS_NON_FINITE
            detail = f"z = x - eta*grad overflows at iterate {k}"
            break

        grad_dot_d = float(_dot(grad, d))
        f_ref = max(f_hist)
        if rec is not None:
            rec.grad_dot_d = grad_dot_d
            rec.eta = eta
            rec.f_ref = f_ref
            if vectors:
                rec.d = d
        try:
            x_next, f_next, t = step(x, fx, eta, z, pz, d, grad_dot_d, f_ref, rec)
        except SearchFailureError as exc:
            status = STATUS_SEARCH_FAILURE
            detail = (
                f"{exc}: {exc.failed_condition} failed at iterate {k}, "
                f"last trial {exc.last_trial!r}"
            )
            break
        if rec is not None:
            rec.t = t

        grad_next = p.grad(x_next)
        gg = _squared_norm(grad_next)
        detail = _non_finite(f_next, grad_next, gg, k + 1)
        if detail:
            status = STATUS_NON_FINITE
            break
        eta = spectral_eta(x_next - x, grad_next - grad, cfg.eta_min, cfg.eta_max)
        x = x_next
        fx = f_next
        grad = grad_next
        f_hist.append(fx)
        k += 1
    if stat is None:
        stat = stationarity_measure(fset, x, grad)

    return RunRecord(
        solver_name=solver,
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
        trace=None if trace is None else Trace(trace),
    )
