"""Time two checkouts of curveopt against each other in one process.

    python3 tools/ab_compare.py PARENT CHANGE --workload exact --rounds 30
    python3 tools/ab_compare.py PARENT CHANGE --workload com --problems wood4,powell20

Loads `src/curveopt` of both checkouts into this process, as the packages
`curveopt_parent` and `curveopt_change`, and runs the plan of one workload
of the change's `deskbench/harness.py` through each of them in turn: the
change first in even rounds, the parent first in odd ones.  Round 0 warms
both sides up and is not timed.  A pass is what `deskbench` times:
`run_plan`, the records CSV round trip and the profiles on `time` and
`iters`; a pass in which no run ends solved has no profile to draw and
skips them.  `--problems` keeps only the named problems of the workload.

Both sides share one process, so a slowdown of the machine that lasts
seconds to minutes hits their passes alike, where between two `deskbench`
processes it reads as a difference.  The tool prints, for the parent and
the change and as the change's ratio to the parent, `fastest_elapsed_s`:
the sum over runs of each run's fastest `elapsed`.  Then `change_faster`,
the number of rounds in which the change's runs took less `elapsed` in
sum than the parent's (a tie counts for neither side), and
`fastest_elapsed_s` once per problem, to show where a gain comes from.
Only the runs' own `elapsed` enters these figures, not the wall time
of a whole pass.  It exits 1, at the first pass that differs, unless every
run of every pass ends as in the first pass: in the same status and iteration
count, with the same `repr(f_star)` and the same `final_x` bytes.  So any
drift of a trajectory fails the comparison, not only a changed count.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import sys
from pathlib import Path

SIDES = ("parent", "change")


def load_package(checkout: Path, name: str):
    """The checkout's `src/curveopt`, imported as the package `name`."""
    init = checkout / "src" / "curveopt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.bench")
    return package


def load_harness(checkout: Path):
    """The checkout's `deskbench/harness.py`, which imports its own curveopt."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "deskbench")]
    return importlib.import_module("harness")


def run_pass(bench, plan, record_trace: bool, tau_grid):
    """One deskbench pass through `bench`; {run key: record}."""
    records = bench.run_plan(plan, record_trace=record_trace)
    loaded = bench.records_from_csv(bench.records_to_csv(records))
    try:
        for metric in ("time", "iters"):
            bench.performance_profile(loaded, metric, tau_grid)
    except bench.EmptyProfileError:  # no run was solved, so there is no profile
        pass
    return {(r.problem_name, r.set_name, r.solver_name, r.M): r for r in records}


def outcome(r) -> tuple:
    """How a run ended: status, iterations, repr(f_star), final_x bytes."""
    final_x = None if r.final_x is None else r.final_x.tobytes()
    return r.status, r.iterations, repr(r.f_star), final_x


def compare(packages: dict, harness, workload, seed: int, rounds: int) -> dict:
    """Alternating passes of both sides; the timings, or the first mismatch."""
    plans = {}
    for side, package in packages.items():
        plan = workload.plan(seed)
        fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
        plans[side] = package.bench.BenchPlan(**fields)
    summed = {side: [] for side in SIDES}  # each timed round's sum of elapsed
    fastest = {side: {} for side in SIDES}
    reference = None
    for i in range(rounds + 1):
        for side in SIDES if i % 2 else SIDES[::-1]:
            runs = run_pass(
                packages[side].bench, plans[side], workload.record_trace, harness.TAU_GRID
            )
            ended = {key: outcome(r) for key, r in runs.items()}
            if reference is None:
                reference = ended
            if ended != reference:
                keys = reference.keys() | ended.keys()
                key = min(k for k in keys if reference.get(k) != ended.get(k))
                return {"mismatch": (i, side, key, reference.get(key), ended.get(key))}
            if i == 0:
                continue
            summed[side].append(sum(r.elapsed for r in runs.values()))
            for key, r in runs.items():
                fastest[side][key] = min(r.elapsed, fastest[side].get(key, math.inf))
    by_problem = {
        name: {
            side: sum(t for key, t in fastest[side].items() if key[0] == name) for side in SIDES
        }
        for name in workload.problems
    }
    return {
        "runs": len(reference),
        "fastest_elapsed_s": {side: sum(fastest[side].values()) for side in SIDES},
        "change_faster": sum(c < p for p, c in zip(summed["parent"], summed["change"])),
        "problem_fastest_elapsed_s": by_problem,
    }


def ratio_line(label: str, seconds: dict) -> str:
    parent, change = (seconds[side] for side in SIDES)
    return f"{label} parent {parent:.4f} change {change:.4f} ratio {change / parent:.3f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout holding src/curveopt")
    ap.add_argument("change", type=Path, help="checkout holding src/curveopt and deskbench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--problems", default=None, help="comma-separated subset of the workload")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    harness = load_harness(args.change.resolve())
    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    if args.problems:
        problems = tuple(args.problems.split(","))
        unknown = sorted(set(problems) - set(workload.problems))
        if unknown:
            ap.error(f"problems not in workload {args.workload}: {', '.join(unknown)}")
        workload = dataclasses.replace(workload, problems=problems)
    packages = {
        side: load_package(path.resolve(), f"curveopt_{side}")
        for side, path in zip(SIDES, (args.parent, args.change))
    }

    result = compare(packages, harness, workload, args.seed, args.rounds)
    if "mismatch" in result:
        i, side, key, expected, got = result["mismatch"]
        ended, first = (o and o[:2] for o in (got, expected))  # status, iterations
        if ended != first:
            what = f"ended {ended}, in the first pass {first}"
        elif got[2] != expected[2]:
            what = f"ended {ended} with f_star {got[2]}, in the first pass {expected[2]}"
        else:
            what = f"ended {ended} with final_x bytes unlike the first pass's"
        print(f"round {i}, {side}: run {key} {what}", file=sys.stderr)
        return 1
    print(f"# workload {args.workload}, {result['runs']} runs, {args.rounds} rounds, "
          f"seed {args.seed}")
    print(ratio_line("fastest_elapsed_s", result["fastest_elapsed_s"]))
    print(f"change_faster {result['change_faster']} of {args.rounds}")
    for name, seconds in result["problem_fastest_elapsed_s"].items():
        print(ratio_line(f"{name} fastest_elapsed_s", seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
