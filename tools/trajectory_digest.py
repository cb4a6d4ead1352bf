"""One SHA-256 over the desk plan's records and traces.

    python3 tools/trajectory_digest.py

Runs the desk plan of `deskbench/harness.py` (its thirteen problems × sph,
ell, com, box × scs:0, scs:10, spg:0, spg:10, max_iters 400, time_limit 600
so that no run stops on time, seed 0) with `record_trace="vectors"` and
prints one digest over

- each problem's `records_to_csv` output, cut to the `V1_COLUMNS` (the v1
  columns less `elapsed_s`) under the v1 schema comment,
- the `TRACE_FIELDS` of every `IterationRecord`: floats and other scalars
  by repr, arrays by dtype, shape and bytes.

Both lists are fixed, so a column or field added later leaves the digest of
an unchanged trajectory as it was.  Two checkouts that print the same digest
ran the same trajectories bit for bit.

A digest holds for one numpy build at one SIMD dispatch level: numpy's
array functions may round differently on another instruction set, and so
move a trajectory.  So a `#` line before the digest names numpy's version
and the SIMD features it dispatches to (from `np.show_config` on numpy
1.25 and later, else "unknown"); compare digests only where it reads alike.
The digest stays the last line.  It exits 1 if a listed column or
field is missing, or if an entry lacks its iterate or an SCS step entry
lacks `d`, `s` or `s_candidate`, so that the digest never silently covers
less than it names.  The library and the harness are imported from the
checkout that holds this script, so a copy of another commit measures that
commit.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "deskbench")]

from curveopt import bench  # noqa: E402
from curveopt.sets import SET_NAMES  # noqa: E402
from curveopt.solvers import IterationRecord  # noqa: E402
from harness import DESK_PROBLEMS, Workload  # noqa: E402

SEED = 0

V1_COMMENT = "# curveopt-records v1"
V1_COLUMNS = (
    "solver", "M", "problem", "set", "n", "status", "f_star", "stationarity",
    "iterations", "fallbacks", "adaptive_reductions", "max_g_final",
)
TRACE_FIELDS = (
    "k", "x", "f", "stationarity", "max_g", "t", "fallback", "adaptive",
    "beta_used", "eta", "eps", "grad_dot_d", "f_ref", "d", "s", "s_candidate",
    "straight_line",
)


def _encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    return repr(value).encode()


def _v1_records(records) -> bytes:
    """records_to_csv output as v1 without elapsed_s: V1_COLUMNS, comma-joined."""
    header, *rows = csv.reader(bench.records_to_csv(records).splitlines()[1:])
    missing = [c for c in V1_COLUMNS if c not in header]
    if missing:
        sys.exit(f"error: records_to_csv lacks the columns {missing}")
    cols = [header.index(c) for c in V1_COLUMNS]
    lines = [V1_COMMENT, ",".join(V1_COLUMNS)]
    lines += [",".join(row[i] for i in cols) for row in rows]
    return "\n".join(lines).encode()


def _lacks_vectors(solver: str, rec) -> bool:
    """Whether an entry misses an array that a vector trace records."""
    names = ["x"]
    if solver == "scs" and rec.t is not None:
        names += ["d", "s", "s_candidate"]
    return any(getattr(rec, name) is None for name in names)


def digest(problems=DESK_PROBLEMS) -> tuple[str, int, int, int]:
    """(hex digest, runs, trace entries, entries lacking arrays); one problem's plan at a time."""
    missing = set(TRACE_FIELDS) - {f.name for f in dataclasses.fields(IterationRecord)}
    if missing:
        sys.exit(f"error: IterationRecord lacks the fields {sorted(missing)}")
    h = hashlib.sha256()
    runs = entries = lacking = 0
    for problem in sorted(problems):
        plan = Workload((problem,), SET_NAMES).plan(SEED)
        records = bench.run_plan(plan, record_trace="vectors")
        h.update(_v1_records(records))
        for r in records:
            for rec in r.trace or ():
                for name in TRACE_FIELDS:
                    h.update(name.encode())
                    h.update(_encode(getattr(rec, name)))
                entries += 1
                lacking += _lacks_vectors(r.solver_name, rec)
        runs += len(records)
    return h.hexdigest(), runs, entries, lacking


def numpy_build() -> str:
    """The `#` line naming numpy's version, SIMD baseline and dispatched features."""
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:  # numpy < 1.25 has no mode
        simd = None
    if not simd:
        return f"# numpy {np.__version__}; SIMD features unknown"
    baseline = " ".join(simd.get("baseline", ())) or "none"
    found = " ".join(simd.get("found", ())) or "none"
    return f"# numpy {np.__version__}; SIMD baseline {baseline}; dispatched {found}"


def main() -> int:
    print(numpy_build())
    hexdigest, runs, entries, lacking = digest()
    print(f"{hexdigest}  {runs} runs, {entries} trace entries")
    if lacking:
        print(f"error: {lacking} trace entries lack their arrays", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
