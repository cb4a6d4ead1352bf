"""In-process span recorder for the traced benchmark run.

Spans are recorded from outside the library: while a `SpanRecorder` is
installed it replaces the public functions the benchmark reaches in each
layer (`problems`, `sets`, `curves`, `solvers`, `bench`) with wrappers that
time each call and attribute it to the innermost enclosing span.  A span's
self time is its duration minus the durations of its child spans.  Only
aggregates are kept: for every (parent, name) pair the number of calls,
self time, inclusive time and calls that raised.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

from curveopt import bench, problems, sets, solvers
from curveopt.curves import CurveDecision

ROOT_SPAN = "pass"


class SpanRecorder:
    def __init__(self):
        # (parent name, span name) -> [calls, self_s, inclusive_s, errors]
        self.totals: dict[tuple[str, str], list] = {}
        # span name -> number of results the span's flag predicate accepted
        self.flagged: dict[str, int] = {}
        # each frame is [span name, seconds covered by its child spans]
        self._stack: list[list] = [["", 0.0]]

    def wrap(self, name, fn, flag=None):
        """Return fn timed as span `name`; `flag(result)` counts results."""
        stack = self._stack
        totals = self.totals
        flagged = self.flagged
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            raised = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                key = (parent[0], name)
                entry = totals.get(key)
                if entry is None:
                    entry = totals[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += dur - frame[1]
                entry[2] += dur
                entry[3] += raised
            if flag is not None and flag(result):
                flagged[name] = flagged.get(name, 0) + 1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route the library's layer boundaries through this recorder."""
        make_set = bench.make_set

        def make_traced_set(name, n, ell_seed=0):
            fset = make_set(name, n, ell_seed=ell_seed)
            return dataclasses.replace(
                fset, project=self.wrap(f"sets.project.{name}", fset.project)
            )

        patches = [
            (problems.SmoothProblem, "f", "problems.f", None),
            (problems.SmoothProblem, "grad", "problems.grad", None),
            (sets.ConvexFeasibleSet, "g", "sets.g", None),
            (
                solvers,
                "feasibility_certificate",
                "curves.certificate",
                lambda r: r is CurveDecision.FALL_BACK,
            ),
            (solvers, "stationarity_measure", "solvers.stationarity", None),
            (solvers, "curve_search", "solvers.curve_search", None),
            (solvers, "adaptive_momentum", "solvers.adaptive_momentum", None),
            (bench, "solve", "solvers.loop", None),
            (bench, "run_plan", "bench.run_plan", None),
            (bench, "records_to_csv", "bench.records", None),
            (bench, "records_from_csv", "bench.records", None),
            (bench, "performance_profile", "bench.profile", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
        try:
            for owner, attr, name, flag in patches:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), flag))
            bench.make_set = make_traced_set
            yield self
        finally:
            bench.make_set = make_set
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- aggregates -------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(
            e[0] for (p, n), e in self.totals.items() if n == name and parent in (None, p)
        )

    def self_s(self, name: str) -> float:
        return sum(e[1] for (_, n), e in self.totals.items() if n == name)

    def inclusive_s(self, name: str) -> float:
        return sum(e[2] for (_, n), e in self.totals.items() if n == name)

    def errors(self, name: str) -> int:
        return sum(e[3] for (_, n), e in self.totals.items() if n == name)

    def names(self) -> set[str]:
        return {n for (_, n) in self.totals}
