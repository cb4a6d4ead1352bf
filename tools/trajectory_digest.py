"""One SHA-256 over the desk plan's records and traces.

    python3 tools/trajectory_digest.py

Runs the desk plan of `deskbench/harness.py` (its thirteen problems × sph,
ell, com, box × scs:0, scs:10, spg:0, spg:10, max_iters 400, time_limit 600
so that no run stops on time, seed 0) with `record_trace="vectors"` and
prints one digest over

- each problem's `records_to_csv` output without the `elapsed_s` column,
- every field of every `IterationRecord`: floats and other scalars by
  repr, arrays by dtype, shape and bytes.

Two checkouts that print the same digest ran the same trajectories bit for
bit.  It exits 1 if an entry lacks its iterate or an SCS step entry lacks
`d`, `s` or `s_candidate`, so that the digest never silently covers the
scalars alone.  The library and the harness are imported from the checkout that
holds this script, so a copy of another commit measures that commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "deskbench")]

from curveopt import bench  # noqa: E402
from curveopt.sets import SET_NAMES  # noqa: E402
from harness import DESK_PROBLEMS, Workload  # noqa: E402

SEED = 0


def _encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    return repr(value).encode()


def _records_without_elapsed(records) -> bytes:
    """records_to_csv output less the elapsed_s column (no cell has a comma)."""
    comment, *rows = bench.records_to_csv(records).splitlines()
    col = rows[0].split(",").index("elapsed_s")
    for i, row in enumerate(rows):
        cells = row.split(",")
        rows[i] = ",".join(cells[:col] + cells[col + 1 :])
    return "\n".join([comment, *rows]).encode()


def _lacks_vectors(solver: str, rec) -> bool:
    """Whether an entry misses an array that a vector trace records."""
    names = ["x"]
    if solver == "scs" and rec.t is not None:
        names += ["d", "s", "s_candidate"]
    return any(getattr(rec, name) is None for name in names)


def digest() -> tuple[str, int, int, int]:
    """(hex digest, runs, trace entries, entries lacking arrays); one problem's plan at a time."""
    h = hashlib.sha256()
    runs = entries = lacking = 0
    for problem in sorted(DESK_PROBLEMS):
        plan = Workload((problem,), SET_NAMES).plan(SEED)
        records = bench.run_plan(plan, record_trace="vectors")
        h.update(_records_without_elapsed(records))
        for r in records:
            for rec in r.trace or ():
                for f in dataclasses.fields(rec):
                    h.update(f.name.encode())
                    h.update(_encode(getattr(rec, f.name)))
                entries += 1
                lacking += _lacks_vectors(r.solver_name, rec)
        runs += len(records)
    return h.hexdigest(), runs, entries, lacking


def main() -> int:
    hexdigest, runs, entries, lacking = digest()
    print(f"{hexdigest}  {runs} runs, {entries} trace entries")
    if lacking:
        print(f"error: {lacking} trace entries lack their arrays", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
