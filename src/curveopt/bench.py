"""Benchmark harness: plans, run records, performance profiles.

A plan names problems, sets, (solver, M) pairs and a seed; running it
produces one RunRecord per (solver, problem, set), one run after another
in the calling process, and persists them as CSV.  Profiles follow the
standard best-ratio cumulative-distribution construction over the
instances solved by at least one solver.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field, fields

from .errors import EmptyProfileError, PlanError, as_integer
from .problems import get_problem, list_problems
from .sets import SET_NAMES, make_set
from .solvers import (
    SOLVERS,
    STATUS_STATIONARY,
    RunRecord,
    SolverConfig,
    solve,
    trace_keeps_vectors,
)

CSV_SCHEMA_COMMENT = "# curveopt-records v1"
#: the v1 records format: (CSV column, RunRecord field, type) per column
_CSV_FIELDS = (
    ("solver", "solver_name", str),
    ("M", "M", int),
    ("problem", "problem_name", str),
    ("set", "set_name", str),
    ("n", "dim", int),
    ("status", "status", str),
    ("f_star", "f_star", float),
    ("stationarity", "stationarity", float),
    ("iterations", "iterations", int),
    ("fallbacks", "fallbacks", int),
    ("adaptive_reductions", "adaptive_reductions", int),
    ("elapsed_s", "elapsed", float),
    ("max_g_final", "max_g_final", float),
)
CSV_COLUMNS = tuple(column for column, _, _ in _CSV_FIELDS)

#: status of a run that raised; its record's detail holds the exception
STATUS_ERROR = "error"

#: SolverConfig field -> default; an override is parsed to its default's type
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}

#: spellings of a boolean plan value, in any case
_BOOL_WORDS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


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
        # checked here, not by make_ellipsoid in each ell run, which sees seed + n
        try:
            as_integer(self.seed, "seed")
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        # a repeated entry repeats runs that a profile then counts once
        for kind, entries in (
            ("problem", self.problems),
            ("set", self.sets),
            ("solver", self.solvers),
        ):
            repeated = sorted({e for e in entries if entries.count(e) > 1})
            if repeated:
                raise PlanError(f"repeated {kind} entries: {repeated}")
        known = {p.name for p in list_problems()}
        for name in self.problems:
            if name not in known:
                raise PlanError(f"unknown problem {name!r}")
        for name in self.sets:
            if name not in SET_NAMES:
                raise PlanError(f"unknown set {name!r}")
        bad = set(self.overrides) - _CONFIG_DEFAULTS.keys()
        if bad:
            raise PlanError(f"unknown config overrides: {sorted(bad)}")
        if "M" in self.overrides:
            raise PlanError("M is set per solver as name:M, not as an override")
        for solver, m in self.solvers:
            if solver not in SOLVERS:
                raise PlanError(f"unknown solver {solver!r}")
            # the config each run of this solver builds in _run_one
            try:
                SolverConfig(**{**self.overrides, "M": m})
            except ValueError as exc:
                raise PlanError(f"invalid config for {solver}:{m}: {exc}") from exc


def _convert(lineno: int, key: str, kind: type, text: str):
    """text parsed as kind, or PlanError naming the line and the key."""
    try:
        return _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise PlanError(f"line {lineno}: {key}: {text!r} is not a valid {kind.__name__}") from None


def parse_plan(text: str) -> BenchPlan:
    """Parse the key = value plan format.

    Recognized keys: problems, sets, solvers (comma-separated; solvers as
    solver:M pairs), seed, and any SolverConfig field but M as an override.  A
    boolean override is true/false, 1/0, yes/no or on/off in any case.
    # starts a comment, and blank lines are ignored.  A value that does
    not parse, or a key given twice, raises PlanError naming its line and key.
    """
    problems: tuple[str, ...] = ()
    sets: tuple[str, ...] = ()
    solvers: tuple[tuple[str, int], ...] = ()
    overrides: dict = {}
    seed = 0
    first_line: dict[str, int] = {}  # key -> line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PlanError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in first_line:
            raise PlanError(f"line {lineno}: {key}: repeated; first set on line {first_line[key]}")
        first_line[key] = lineno
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
                name, colon, m = item.partition(":")
                parsed.append((name.strip(), _convert(lineno, key, int, m) if colon else 0))
            solvers = tuple(parsed)
        elif key == "seed":
            seed = _convert(lineno, key, int, value)
        elif key == "M":
            raise PlanError(f"line {lineno}: M: set M per solver as name:M in solvers")
        elif key in _CONFIG_DEFAULTS:
            overrides[key] = _convert(lineno, key, type(_CONFIG_DEFAULTS[key]), value)
        else:
            raise PlanError(f"line {lineno}: unknown key {key!r}")
    return BenchPlan(problems=problems, sets=sets, solvers=solvers, overrides=overrides, seed=seed)


def _run_one(problem_name, set_name, solver, m, plan, record_trace):
    p = get_problem(problem_name)
    cfg = SolverConfig(**{**plan.overrides, "M": m})
    t0 = time.perf_counter()
    try:
        # one seeded ellipsoid per (seed, dimension)
        fset = make_set(set_name, p.dim, ell_seed=plan.seed + p.dim)
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


def run_plan(plan: BenchPlan, record_trace: bool | str = False) -> list[RunRecord]:
    """Execute every (solver, problem, set) combination of the plan, one
    after another in this process.

    `record_trace` is False for no traces, True for scalar traces or
    "vectors" for traces that also hold each iteration's arrays; any other
    trace mode raises ValueError before a run starts.  A run that raises
    becomes a record with status `STATUS_ERROR`; the other runs still
    complete.
    """
    plan.validate()
    trace_keeps_vectors(record_trace)
    records = [
        _run_one(
            problem_name=pn, set_name=sn, solver=solver, m=m, plan=plan, record_trace=record_trace
        )
        for pn in plan.problems
        for sn in plan.sets
        for (solver, m) in plan.solvers
    ]
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
            _fmt(getattr(r, name)) if kind is float else getattr(r, name)
            for _, name, kind in _CSV_FIELDS
        )
    return buf.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    """Records of a v1 CSV; ValueError names the columns it lacks, the line of
    a short or long row, or the line and column of a value that does not parse."""
    numbered = [
        (i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln and not ln.startswith("#")
    ]
    reader = csv.DictReader(ln for _, ln in numbered)
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"records CSV lacks columns {missing}")
    records = []
    for row in reader:
        line = numbered[reader.line_num - 1][0]
        if None in row or None in row.values():  # DictReader's marks of a long or short row
            width = len(reader.fieldnames)
            raise ValueError(f"records CSV line {line} does not have the header's {width} fields")
        values = {}
        for column, name, kind in _CSV_FIELDS:
            try:
                values[name] = kind(row[column])
            except ValueError:
                bad = f"column {column}: {row[column]!r} is not a valid {kind.__name__}"
                raise ValueError(f"records CSV line {line}, {bad}") from None
        records.append(RunRecord(**values))
    return records


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
    ratios remain positive and well-defined.  Two records of one solver
    and M on one instance raise ValueError.
    """
    tau_grid = tuple(float(t) for t in tau_grid)
    if not all(t >= 1.0 for t in tau_grid):  # NaN fails too
        raise ValueError("tau grid entries must be >= 1")
    solvers = sorted({solver_id(r) for r in records})
    by_instance: dict[tuple[str, str], dict[str, RunRecord]] = {}
    for r in records:
        runs = by_instance.setdefault(instance_id(r), {})
        if runs.setdefault(solver_id(r), r) is not r:
            raise ValueError(f"repeated record for {(*instance_id(r), solver_id(r))}")

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
    constraint value within tol of zero.  A tol that is negative or not
    finite raises ValueError.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, not {tol!r}")
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
