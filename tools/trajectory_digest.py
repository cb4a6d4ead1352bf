"""Two SHA-256 digests over the desk plan's runs, traced and untraced.

    python3 tools/trajectory_digest.py

Runs the desk plan of `deskbench/harness.py` (its thirteen problems × sph,
ell, com, box × scs:0, scs:10, spg:0, spg:10, max_iters 400, time_limit 600
so that no run stops on time, seed 0) with `record_trace="vectors"` and
prints one digest over

- each problem's `records_to_csv` output, cut to the `V1_COLUMNS` (the v1
  columns less `elapsed_s`) under the v1 schema comment,
- the `TRACE_FIELDS` of every `IterationRecord`: floats and other scalars
  by repr, arrays by dtype, shape and bytes.

It then runs the plan again with `record_trace=False`, as `deskbench` and
`bench run` do, and prints a second digest over the `RECORD_FIELDS` of each
`RunRecord`, encoded the same way: every field but `elapsed` and `trace`.
A traced run takes paths an untraced one skips (it always computes the
stationarity measure, for one), so the untraced digest sees drift in the
paths only untraced runs take.

The lists are fixed, so a column or field added later leaves the digests of
unchanged trajectories as they were.  Two checkouts that print the same
digests ran the same trajectories bit for bit, in both trace modes.
`digest(problems, sets)` covers a part of the plan, such as
`digest(sets=("sph", "ell", "box"))` to show that a change to one set's
projection leaves the runs on the others as they were; the script prints
the digests of the whole plan.

A digest holds for one numpy build, one BLAS kernel and one C library.
The library takes no power but an array's square, a product, so numpy's
SIMD dispatch level does not move a trajectory; OpenBLAS, though, picks a
`dot` kernel for the CPU, and kernels round differently even for
2-vectors (SkylakeX's fuses each multiply into its add, Haswell's and
Prescott's do not).  trigls10's `np.cos` and `np.sin` are the last libm
functions a run calls, and libm rounds them as its version does.  So a
`#` line before the digest names numpy's version, the SIMD features it
dispatches to (from `np.show_config` on numpy 1.25 and later, else
"unknown"), the OpenBLAS core numpy's BLAS runs on (`OPENBLAS_CORETYPE`
overrides it, and the line names the core as OpenBLAS reports it, which
need not be the name set: numpy 2.4.6's OpenBLAS reports `Prescott` as
`Katmai`; "unknown" where the library names none) and the C library
(from `platform.libc_ver`, else "unknown"); compare digests only where the
numpy version, the BLAS core and the C library read alike.
The digests stay the last line.  It exits 1 if a listed column or
field is missing, or if an entry lacks its iterate or an SCS step entry
lacks `d`, `s` or `s_candidate`, so that the digest never silently covers
less than it names.  The library and the harness are imported from the
checkout that holds this script, so a copy of another commit measures that
commit.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import platform
import sys
from pathlib import Path

import numpy as np
import numpy.linalg._umath_linalg as umath_linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "deskbench")]

from curveopt import bench  # noqa: E402
from curveopt.sets import SET_NAMES  # noqa: E402
from curveopt.solvers import IterationRecord, RunRecord  # noqa: E402
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
RECORD_FIELDS = (
    "solver_name", "problem_name", "set_name", "M", "dim", "status", "f_star",
    "stationarity", "iterations", "fallbacks", "adaptive_reductions", "max_g_final",
    "detail", "final_x",
)


def _encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    return repr(value).encode()


def _fields(obj, names) -> bytes:
    """Each of `names` and the value of that attribute of obj, encoded."""
    return b"".join(name.encode() + _encode(getattr(obj, name)) for name in names)


def record_bytes(record: RunRecord) -> bytes:
    """The `RECORD_FIELDS` of a run, as the untraced digest hashes them."""
    return _fields(record, RECORD_FIELDS)


def _check_fields(cls, names) -> None:
    missing = set(names) - {f.name for f in dataclasses.fields(cls)}
    if missing:
        sys.exit(f"error: {cls.__name__} lacks the fields {sorted(missing)}")


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


def digest(problems=DESK_PROBLEMS, sets=SET_NAMES) -> tuple[str, int, int, int, str]:
    """(hex digest, runs, trace entries, entries lacking arrays, untraced hex
    digest) over the desk plan of `problems` on `sets`, one problem's plan at
    a time."""
    _check_fields(IterationRecord, TRACE_FIELDS)
    _check_fields(RunRecord, RECORD_FIELDS)
    h = hashlib.sha256()
    untraced = hashlib.sha256()
    runs = entries = lacking = 0
    for problem in sorted(problems):
        plan = Workload((problem,), tuple(sets)).plan(SEED)
        records = bench.run_plan(plan, record_trace="vectors")
        h.update(_v1_records(records))
        for r in records:
            for rec in r.trace or ():
                h.update(_fields(rec, TRACE_FIELDS))
                entries += 1
                lacking += _lacks_vectors(r.solver_name, rec)
        runs += len(records)
        for r in bench.run_plan(plan, record_trace=False):
            untraced.update(record_bytes(r))
    return h.hexdigest(), runs, entries, lacking, untraced.hexdigest()


#: the function naming OpenBLAS's core in numpy's wheels (scipy-openblas,
#: 64-bit ints) and in a system OpenBLAS
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def blas_core() -> str:
    """The OpenBLAS core numpy's BLAS runs on, or "unknown"."""
    try:
        # dlsym on a module's handle also searches the libraries it links
        lib = ctypes.CDLL(umath_linalg.__file__)
    except OSError:
        return "unknown"
    for name in CORENAME_SYMBOLS:
        corename = getattr(lib, name, None)
        if corename is not None:
            corename.argtypes = ()
            corename.restype = ctypes.c_char_p
            return (corename() or b"unknown").decode()
    return "unknown"


def c_library() -> str:
    """The C library and its version, such as "glibc 2.36", or "unknown"."""
    return " ".join(part for part in platform.libc_ver() if part) or "unknown"


def numpy_build() -> str:
    """The `#` line naming numpy's version, SIMD baseline and dispatched
    features, the BLAS core and the C library."""
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:  # numpy < 1.25 has no mode
        simd = None
    if not simd:
        features = "SIMD features unknown"
    else:
        baseline = " ".join(simd.get("baseline", ())) or "none"
        found = " ".join(simd.get("found", ())) or "none"
        features = f"SIMD baseline {baseline}; dispatched {found}"
    return (
        f"# numpy {np.__version__}; {features}; BLAS core {blas_core()}; "
        f"C library {c_library()}"
    )


def main() -> int:
    print(numpy_build())
    hexdigest, runs, entries, lacking, untraced = digest()
    print(f"{hexdigest}  {runs} runs, {entries} trace entries, untraced {untraced}")
    if lacking:
        print(f"error: {lacking} trace entries lack their arrays", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
