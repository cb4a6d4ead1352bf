"""Constrained optimization via heavy-ball curve search and spectral projected gradient."""

from .curves import CurveDecision, QuadraticCurve, feasibility_certificate
from .problems import SmoothProblem, check_gradient, get_problem, list_problems
from .sets import (
    FEAS_TOL,
    ConvexFeasibleSet,
    make_box,
    make_composite,
    make_ellipsoid,
    make_set,
    make_sphere,
)
from .solvers import (
    SOLVERS,
    RunRecord,
    SolverConfig,
    adaptive_momentum,
    build_secondary_direction,
    curve_search,
    solve,
    spectral_eta,
    stationarity_measure,
)

__all__ = [
    "ConvexFeasibleSet",
    "CurveDecision",
    "FEAS_TOL",
    "QuadraticCurve",
    "RunRecord",
    "SOLVERS",
    "SmoothProblem",
    "SolverConfig",
    "adaptive_momentum",
    "build_secondary_direction",
    "check_gradient",
    "curve_search",
    "feasibility_certificate",
    "get_problem",
    "list_problems",
    "make_box",
    "make_composite",
    "make_ellipsoid",
    "make_set",
    "make_sphere",
    "solve",
    "spectral_eta",
    "stationarity_measure",
]

__version__ = "0.1.0"
