"""Desk-sweep workloads, their output checks and their metrics.

A pass runs one plan the way a user does: `bench.run_plan`, the records
CSV round trip, and `performance_profile` on `time` and `iters`.  A
measurement repeats passes for a fixed number of seconds and checks every
run of every pass.  The untraced mode gives the end-to-end metrics; the
traced mode alternates untraced and traced passes and gives the per-layer
metrics (see README.md in this directory).
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from curveopt import bench
from curveopt.problems import get_problem
from curveopt.sets import FEAS_TOL, SET_NAMES, make_set
from curveopt.solvers import STATUS_ITER_LIMIT, STATUS_STATIONARY

from tracing import ROOT_SPAN, SpanRecorder

SRC = Path(bench.__file__).resolve().parent.parent

#: the thirteen suite problems of the desk sweep, fixed so that a problem
#: added to the library does not silently change the benchmark
DESK_PROBLEMS = (
    "rosenbrock2",
    "beale2",
    "wood4",
    "chnrosnb4",
    "chnrosnb100",
    "quad_diag50",
    "quad_diag500",
    "quad_shift50",
    "powell20",
    "trigls10",
    "engval50",
    "arwhead100",
    "tridia1000",
)
DESK_SOLVERS = (("scs", 0), ("scs", 10), ("spg", 0), ("spg", 10))
#: far above the slowest run of any workload, so that statuses never
#: depend on machine speed
DESK_OVERRIDES = {"max_iters": 400, "time_limit": 600.0}
EXACT_SETS = ("sph", "box", "ell")

TAU_GRID = tuple(1.0 + 9.0 * i / 199 for i in range(200))
SETUP_REPEATS = 5
CALIBRATION_REPEATS = 3
#: seconds the calibration kernel takes on the reference machine: its
#: fastest time on the 2-core x86-64 sandbox where the benchmark was made
CALIBRATION_REF_S = 0.0147
OK_STATUSES = (STATUS_STATIONARY, STATUS_ITER_LIMIT)


@dataclass(frozen=True)
class Workload:
    problems: tuple[str, ...]
    sets: tuple[str, ...]
    record_trace: bool = False
    solvers: tuple[tuple[str, int], ...] = DESK_SOLVERS

    def plan(self, seed: int) -> bench.BenchPlan:
        return bench.BenchPlan(
            problems=self.problems,
            sets=self.sets,
            solvers=self.solvers,
            overrides=dict(DESK_OVERRIDES),
            seed=seed,
        )

    @property
    def size(self) -> int:
        return len(self.problems) * len(self.sets) * len(self.solvers)


WORKLOADS = {
    # closed-form and 1-D root-find projections: no layer dominates, so
    # loop and oracle changes show here
    "exact": Workload(DESK_PROBLEMS, EXACT_SETS),
    # Dykstra projections take ~90 % of the time.  arwhead100 is left out:
    # its four com runs alone take ~36 s, more than one run of the
    # benchmark may last.
    "com": Workload(tuple(p for p in DESK_PROBLEMS if p != "arwhead100"), ("com",)),
    # the exact plan with per-iteration vector traces, as the acceptance
    # fixture runs it
    "exact_recorded": Workload(DESK_PROBLEMS, EXACT_SETS, record_trace=True),
}


# ---------------------------------------------------------------------------
# one pass and its checks


def run_pass(plan: bench.BenchPlan, record_trace: bool):
    """Plan to profile, calling the library through its module attributes."""
    records = bench.run_plan(plan, record_trace=record_trace)
    loaded = bench.records_from_csv(bench.records_to_csv(records))
    for metric in ("time", "iters"):
        bench.performance_profile(loaded, metric, TAU_GRID)
    return records


def run_key(r):
    return (r.problem_name, r.set_name, r.solver_name, r.M)


def start_values(workload: Workload, seed: int) -> dict:
    """f at the projected start point of every (problem, set) instance."""
    out = {}
    for pn in workload.problems:
        p = get_problem(pn)
        for sn in workload.sets:
            fset = make_set(sn, p.dim, ell_seed=seed + p.dim)
            out[(pn, sn)] = p.f(fset.project(np.array(p.start, dtype=float)))
    return out


def failed_runs(records, expected_keys, f_start, reference) -> set:
    """Keys of the runs in one pass that fail an output check.

    A run fails when it is missing, ends in a status other than stationary
    or iter_limit, ends infeasible, ends with a non-finite f_star or one
    above f at the projected start, or disagrees with `reference` (the
    first untraced pass) on status or iteration count.
    """
    seen = {run_key(r): r for r in records}
    bad = set(expected_keys) - set(seen)
    for key, r in seen.items():
        ok = (
            key in expected_keys
            and r.status in OK_STATUSES
            and r.max_g_final <= FEAS_TOL
            and math.isfinite(r.f_star)
            and r.f_star <= f_start[(r.problem_name, r.set_name)]
            and (reference is None or reference.get(key) == (r.status, r.iterations))
        )
        if not ok:
            bad.add(key)
    return bad


# ---------------------------------------------------------------------------
# measurement


_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from curveopt.problems import get_problem
from curveopt.sets import make_set
seed = int(sys.argv[2])
for pn in sys.argv[3].split(","):
    p = get_problem(pn)
    for sn in sys.argv[4].split(","):
        make_set(sn, p.dim, ell_seed=seed + p.dim)
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: Workload, seed: int) -> float:
    """Time, in a fresh interpreter, to import curveopt and build the inputs."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            _SETUP_CODE,
            str(SRC),
            str(seed),
            ",".join(workload.problems),
            ",".join(workload.sets),
        ],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Pass outcomes accumulated over one measurement."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.plan = workload.plan(seed)
        self.expected = {
            (pn, sn, solver, m)
            for pn in workload.problems
            for sn in workload.sets
            for solver, m in workload.solvers
        }
        self.f_start = start_values(workload, seed)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.solved = 0
        self.errors: list[str] = []

    def run(self, recorder: SpanRecorder | None = None):
        """One timed pass; returns (wall seconds, records or None)."""
        fn = run_pass if recorder is None else recorder.wrap(ROOT_SPAN, run_pass)
        self.attempted += self.workload.size
        t0 = time.perf_counter()
        try:
            records = fn(self.plan, self.workload.record_trace)
        except Exception as exc:  # a raising plan fails every run in it
            wall = time.perf_counter() - t0
            self.failed += self.workload.size
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return wall, None
        wall = time.perf_counter() - t0
        bad = failed_runs(records, self.expected, self.f_start, self.reference)
        if self.reference is None and recorder is None:
            self.reference = {run_key(r): (r.status, r.iterations) for r in records}
        self.failed += len(bad)
        self.solved += sum(1 for r in records if r.status == STATUS_STATIONARY)
        if bad:
            self.errors.append(f"{len(bad)} runs failed checks, e.g. {sorted(bad)[0]}")
        return wall, records


def _calibration_kernel() -> None:
    """Fixed work in the library's style: small numpy operations driven from Python."""
    x = np.full(4, 3.0)
    c = np.full(4, 4.0)
    for _ in range(2000):
        d = x - c
        nrm = float(np.linalg.norm(d))
        x = np.clip(c + (9.0 / max(nrm, 1e-12)) * d, -5.0, 10.0) - 1e-3 * x
        float(np.dot(x, x))


def calibration_s() -> float:
    """Fastest of a few timings of the calibration kernel."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def _keep_going(started: float, seconds: float, step_s: float) -> bool:
    """Start another step only if a typical step still ends within the budget."""
    return time.perf_counter() - started + step_s <= seconds


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced passes for `seconds`; the end-to-end metrics.

    The speed of the CPU changes by up to 2x, for seconds to minutes at a
    time, under load from outside the process, so medians over passes are
    not steady.  Each timing is therefore built from the fastest of its
    samples: `wall_s` sums every run's fastest `RunRecord.elapsed` and the
    fastest remainder of a pass (plan set-up, CSV round trip and profiles),
    and `run_ms_geomean` takes the geometric mean of the runs' fastest
    elapsed times.  Both are then scaled to the reference machine by the
    fastest time of a calibration kernel timed before each pass, which
    removes most of the slowdown that lasts a whole run.  One set-up is
    timed after each pass, so that set-up samples spread over the run;
    `setup_s` is the fastest of them, unscaled.
    """
    tally = Tally(workload, seed)
    walls, setups, remainders, calibrations = [], [], [], []
    fastest: dict = {}  # run key -> shortest RunRecord.elapsed over passes
    started = time.perf_counter()
    while not walls or _keep_going(
        started, seconds, statistics.median(walls) + statistics.median(setups)
    ):
        calibrations.append(calibration_s())
        wall, records = tally.run()
        walls.append(wall)
        if records:
            remainders.append(wall - sum(r.elapsed for r in records))
        for r in records or ():
            fastest[run_key(r)] = min(r.elapsed, fastest.get(run_key(r), math.inf))
        del records
        setups.append(setup_seconds(workload, seed))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(workload, seed))
    if remainders:
        wall_s = sum(fastest.values()) + min(remainders)
        geomean = math.exp(statistics.fmean(math.log(t) for t in fastest.values()))
    else:  # no pass produced records
        wall_s = geomean = math.nan
    scale = CALIBRATION_REF_S / min(calibrations)
    metrics = {
        "wall_s": (wall_s * scale, "s"),
        "run_ms_geomean": (1000.0 * geomean * scale, "ms"),
        "solved_frac": (tally.solved / tally.attempted, "frac"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "fail_frac": (tally.failed / tally.attempted, "frac"),
        "raw": {"wall_s": wall_s, "run_ms_geomean": 1000.0 * geomean, "scale": scale},
        "calibration_s": calibrations,
        "pass_wall_s": walls,
        "setup_samples_s": setups,
    }
    return _result(tally, metrics, extra)


def measure_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Alternating untraced and traced passes for `seconds`; per-layer metrics.

    Counts and self times are per traced pass (totals divided by the
    number of traced passes), so the self times add up to `trace.wall_s`,
    with `trace.remainder_s` the benchmark's own time between spans.
    `solvers.us_per_iter` and `trace_overhead_frac` come from the fastest
    untraced and traced passes.
    """
    tally = Tally(workload, seed)
    recorder = SpanRecorder()
    plain, traced = [], []
    iterations, elapsed = [], []
    fallbacks = reductions = 0
    started = time.perf_counter()
    while not traced or _keep_going(
        started, seconds, statistics.median(plain) + statistics.median(traced)
    ):
        wall, records = tally.run()
        plain.append(wall)
        if records:
            iterations.append(sum(r.iterations for r in records))
            elapsed.append(sum(r.elapsed for r in records))
        with recorder.installed():
            wall, records = tally.run(recorder)
        traced.append(wall)
        if records:
            fallbacks += sum(r.fallbacks for r in records)
            reductions += sum(r.adaptive_reductions for r in records)
        del records
    n = len(traced)
    iters = statistics.median(iterations) if iterations else math.nan
    calls = {name: recorder.calls(name) / n for name in recorder.names()}
    self_s = {name: recorder.self_s(name) / n for name in recorder.names()}
    set_names = [f"sets.project.{s}" for s in SET_NAMES]
    project_calls = sum(calls.get(s, 0) for s in set_names)
    project_s = sum(recorder.inclusive_s(s) for s in set_names) / n
    tried = recorder.calls("sets.g", parent="solvers.curve_search") / n
    searches = calls.get("solvers.curve_search", 0)
    accepted = searches - recorder.errors("solvers.curve_search") / n
    certificates = calls.get("curves.certificate", 0)

    def per(num, den):
        return num / den if den else math.nan

    metrics = {
        "problems.f.calls": (calls.get("problems.f", 0), "count"),
        "problems.f.self_s": (self_s.get("problems.f", 0.0), "s"),
        "problems.grad.calls": (calls.get("problems.grad", 0), "count"),
        "problems.grad.self_s": (self_s.get("problems.grad", 0.0), "s"),
        "sets.g.calls": (calls.get("sets.g", 0), "count"),
        "sets.g.self_s": (self_s.get("sets.g", 0.0), "s"),
        "sets.project.calls": (project_calls, "count"),
        "sets.project.self_s": (sum(self_s.get(s, 0.0) for s in set_names), "s"),
        "sets.project.us_per_call": (1e6 * per(project_s, project_calls), "us"),
    }
    for s in SET_NAMES:
        metrics[f"sets.project.{s}.self_s"] = (self_s.get(f"sets.project.{s}", 0.0), "s")
    metrics |= {
        "curves.certificate.calls": (certificates, "count"),
        "curves.certificate.self_s": (self_s.get("curves.certificate", 0.0), "s"),
        "curves.certificate.g_calls": (
            recorder.calls("sets.g", parent="curves.certificate") / n,
            "count",
        ),
        "curves.certificate.fallback_frac": (
            per(recorder.flagged.get("curves.certificate", 0) / n, certificates),
            "frac",
        ),
        "solvers.iterations": (iters, "count"),
        "solvers.us_per_iter": (1e6 * per(min(elapsed, default=math.nan), iters), "us"),
        "solvers.loop.self_s": (self_s.get("solvers.loop", 0.0), "s"),
        "solvers.g_per_iter": (per(calls.get("sets.g", 0), iters), "count/iter"),
        "solvers.project_per_iter": (per(project_calls, iters), "count/iter"),
        "solvers.fallbacks": (fallbacks / n, "count"),
        "solvers.adaptive_reductions": (reductions / n, "count"),
    }
    for part in ("stationarity", "curve_search", "adaptive_momentum"):
        name = f"solvers.{part}"
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics["solvers.curve_search.accept_frac"] = (per(accepted, tried), "frac")
    for part in ("run_plan", "records", "profile"):
        metrics[f"bench.{part}.self_s"] = (self_s.get(f"bench.{part}", 0.0), "s")
    trace_wall = recorder.inclusive_s(ROOT_SPAN) / n
    metrics |= {
        "trace.wall_s": (trace_wall, "s"),
        "trace.remainder_s": (self_s.get(ROOT_SPAN, 0.0), "s"),
        "trace_overhead_frac": (
            min(traced) / min(plain) - 1.0,
            "frac",
        ),
    }
    shares = {
        name: self_s[name] / trace_wall for name in sorted(self_s) if name != ROOT_SPAN
    }
    extra = {"passes": len(plain) + n, "self_time_share": shares}
    return _result(tally, metrics, extra)


def _result(tally: Tally, metrics: dict, extra: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "errors": tally.errors,
    }
