"""Benchmark harness: plans, run records, performance profiles.

A plan names problems, sets and (solver, M) pairs; running it produces one
RunRecord per (solver, problem, set) and persists them as CSV.  Profiles
follow the standard best-ratio cumulative-distribution construction over
the instances solved by at least one solver.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math
import time
from dataclasses import dataclass, field, fields

from .errors import EmptyProfileError, PlanError
from .problems import get_problem, problem_names
from .sets import SET_NAMES, make_set
from .solvers import (
    SOLVERS,
    STATUS_STATIONARY,
    RunRecord,
    SolverConfig,
    solve,
)

CSV_SCHEMA_COMMENT = "# curveopt-records v1"
CSV_COLUMNS = (
    "solver",
    "M",
    "problem",
    "set",
    "n",
    "status",
    "f_star",
    "stationarity",
    "iterations",
    "fallbacks",
    "adaptive_reductions",
    "elapsed_s",
    "max_g_final",
)

#: status of a run that raised; its record's detail holds the exception
STATUS_ERROR = "error"

#: SolverConfig field -> default; an override is parsed to its default's type
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}


@dataclass(frozen=True)
class BenchPlan:
    problems: tuple[str, ...]
    sets: tuple[str, ...]
    solvers: tuple[tuple[str, int], ...]  # (solver name, memory M)
    overrides: dict = field(default_factory=dict)
    seed: int = 0

    def validate(self) -> None:
        if not self.problems or not self.sets or not self.solvers:
            raise PlanError("plan needs at least one problem, set and solver")
        known = set(problem_names())
        for name in self.problems:
            if name not in known:
                raise PlanError(f"unknown problem {name!r}")
        for name in self.sets:
            if name not in SET_NAMES:
                raise PlanError(f"unknown set {name!r}")
        for solver, m in self.solvers:
            if solver not in SOLVERS:
                raise PlanError(f"unknown solver {solver!r}")
            if m < 0:
                raise PlanError("memory M must be nonnegative")
        bad = set(self.overrides) - _CONFIG_DEFAULTS.keys()
        if bad:
            raise PlanError(f"unknown config overrides: {sorted(bad)}")


def parse_plan(text: str) -> BenchPlan:
    """Parse the key = value plan format.

    Recognized keys: problems, sets, solvers (comma-separated; solvers as
    solver:M pairs), seed, and any SolverConfig field as an override.
    Blank lines and lines starting with # are ignored.
    """
    problems: tuple[str, ...] = ()
    sets: tuple[str, ...] = ()
    solvers: tuple[tuple[str, int], ...] = ()
    overrides: dict = {}
    seed = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PlanError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "problems":
            problems = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "sets":
            sets = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "solvers":
            parsed = []
            for item in value.split(","):
                item = item.strip()
                if not item:
                    continue
                name, _, m = item.partition(":")
                parsed.append((name.strip(), int(m) if m else 0))
            solvers = tuple(parsed)
        elif key == "seed":
            seed = int(value)
        elif key in _CONFIG_DEFAULTS:
            kind = type(_CONFIG_DEFAULTS[key])
            if kind is bool:
                overrides[key] = value.lower() in ("1", "true", "yes", "on")
            else:
                overrides[key] = kind(value)
        else:
            raise PlanError(f"line {lineno}: unknown key {key!r}")
    return BenchPlan(problems=problems, sets=sets, solvers=solvers, overrides=overrides, seed=seed)


def _run_one(args):
    problem_name, set_name, solver, m, overrides, seed, record_trace = args
    p = get_problem(problem_name)
    # one seeded ellipsoid per (seed, dimension)
    fset = make_set(set_name, p.dim, ell_seed=seed + p.dim)
    cfg = SolverConfig(**{**overrides, "M": m})
    t0 = time.perf_counter()
    try:
        return solve(solver, p, fset, cfg, record_trace=record_trace)
    except Exception as exc:  # one failed run must not abort the plan
        return RunRecord(
            solver_name=solver,
            problem_name=problem_name,
            set_name=set_name,
            status=STATUS_ERROR,
            f_star=math.nan,
            stationarity=math.nan,
            iterations=0,
            fallbacks=0,
            adaptive_reductions=0,
            elapsed=time.perf_counter() - t0,
            M=m,
            dim=p.dim,
            detail=f"{type(exc).__name__}: {exc}",
        )


def run_plan(plan: BenchPlan, jobs: int = 1, record_trace: bool = False) -> list[RunRecord]:
    """Execute every (solver, problem, set) combination of the plan.

    A run that raises becomes a record with status `STATUS_ERROR`; the
    other runs still complete.
    """
    plan.validate()
    tasks = [
        (pn, sn, solver, m, plan.overrides, plan.seed, record_trace)
        for pn in plan.problems
        for sn in plan.sets
        for (solver, m) in plan.solvers
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one, tasks))
    else:
        records = [_run_one(t) for t in tasks]
    records.sort(key=record_sort_key)
    return records


def record_sort_key(r: RunRecord):
    return (r.problem_name, r.set_name, r.solver_name, r.M)


def instance_id(r: RunRecord) -> tuple[str, str]:
    return (r.problem_name, r.set_name)


def solver_id(r: RunRecord) -> str:
    return f"{r.solver_name}-M{r.M}"


def is_success(r: RunRecord) -> bool:
    return r.status == STATUS_STATIONARY


# ---------------------------------------------------------------------------
# persistence


def _fmt(v: float) -> str:
    return repr(float(v))


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMA_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in sorted(records, key=record_sort_key):
        writer.writerow(
            [
                r.solver_name,
                r.M,
                r.problem_name,
                r.set_name,
                r.dim,
                r.status,
                _fmt(r.f_star),
                _fmt(r.stationarity),
                r.iterations,
                r.fallbacks,
                r.adaptive_reductions,
                _fmt(r.elapsed),
                _fmt(r.max_g_final),
            ]
        )
    return buf.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    out = []
    for row in reader:
        out.append(
            RunRecord(
                solver_name=row["solver"],
                problem_name=row["problem"],
                set_name=row["set"],
                status=row["status"],
                f_star=float(row["f_star"]),
                stationarity=float(row["stationarity"]),
                iterations=int(row["iterations"]),
                fallbacks=int(row["fallbacks"]),
                adaptive_reductions=int(row["adaptive_reductions"]),
                elapsed=float(row["elapsed_s"]),
                M=int(row["M"]),
                dim=int(row["n"]),
                max_g_final=float(row["max_g_final"]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# performance profiles


@dataclass(frozen=True)
class ProfileTable:
    metric: str
    tau_grid: tuple[float, ...]
    rho: dict[str, tuple[float, ...]]
    included_instances: tuple[tuple[str, str], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        solvers = sorted(self.rho)
        writer.writerow(["tau"] + solvers)
        for j, tau in enumerate(self.tau_grid):
            writer.writerow([_fmt(tau)] + [_fmt(self.rho[s][j]) for s in solvers])
        return buf.getvalue()


def _metric_value(r: RunRecord, metric: str) -> float:
    if metric == "time":
        return r.elapsed
    if metric == "iters":
        return float(r.iterations)
    if metric == "fstar":
        return r.f_star
    raise ValueError(f"unknown metric {metric!r}; known: time, iters, fstar")


def performance_profile(
    records: list[RunRecord], metric: str, tau_grid: list[float]
) -> ProfileTable:
    """Best-ratio cumulative profile; failed runs get an infinite ratio.

    For the fstar metric the per-instance values are shifted by
    (1 - min + 1e-12) whenever the instance minimum is nonpositive, so
    ratios remain positive and well-defined.
    """
    tau_grid = tuple(float(t) for t in tau_grid)
    if any(t < 1.0 for t in tau_grid):
        raise ValueError("tau grid entries must be >= 1")
    solvers = sorted({solver_id(r) for r in records})
    by_instance: dict[tuple[str, str], dict[str, RunRecord]] = {}
    for r in records:
        by_instance.setdefault(instance_id(r), {})[solver_id(r)] = r

    included = sorted(
        iid for iid, runs in by_instance.items() if any(is_success(r) for r in runs.values())
    )
    if not included:
        raise EmptyProfileError("no instance was solved by any solver")

    ratios: dict[str, list[float]] = {s: [] for s in solvers}
    for iid in included:
        runs = by_instance[iid]
        values = {
            s: _metric_value(r, metric) for s, r in runs.items() if is_success(r)
        }
        if metric == "fstar":
            vmin = min(values.values())
            if vmin <= 0.0:
                shift = 1.0 - vmin + 1e-12
                values = {s: v + shift for s, v in values.items()}
        best = min(values.values())
        for s in solvers:
            if s not in values:
                ratios[s].append(math.inf)
            elif best > 0:
                ratios[s].append(values[s] / best)
            else:
                ratios[s].append(1.0 if values[s] == best else math.inf)

    count = len(included)
    rho = {
        s: tuple(sum(1 for v in ratios[s] if v <= tau) / count for tau in tau_grid)
        for s in solvers
    }
    return ProfileTable(
        metric=metric, tau_grid=tau_grid, rho=rho, included_instances=tuple(included)
    )


def boundary_subset(records: list[RunRecord], tol: float = 1e-5) -> list[tuple[str, str]]:
    """Instances whose best successful solver finished on the feasible boundary.

    Classification uses the final point of the successful run with the
    lowest objective: the instance is included when that point has a
    constraint value within tol of zero.
    """
    by_instance: dict[tuple[str, str], list[RunRecord]] = {}
    for r in records:
        by_instance.setdefault(instance_id(r), []).append(r)
    out = []
    for iid in sorted(by_instance):
        winners = [r for r in by_instance[iid] if is_success(r)]
        if not winners:
            continue
        best = min(winners, key=lambda r: r.f_star)
        if best.max_g_final >= -tol:
            out.append(iid)
    return out
