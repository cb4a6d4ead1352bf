"""Trajectories do not depend on the SIMD features numpy dispatches to."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import curveopt
from curveopt import bench

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "deskbench"), str(ROOT / "tools")]
from harness import Workload  # noqa: E402
from trajectory_digest import record_bytes  # noqa: E402

#: runs that an array ** 3 or ** 4 would move with AVX-512 switched off:
#: they reach powell20's oracles, which write each power as a product, and
#: the ell projection's Newton step, which takes a square root but no power
RUNS = (("powell20", "box", "scs"), ("quad_diag50", "ell", "spg"))


def outcomes():
    """The SIMD features numpy dispatches to, and each of RUNS on the desk
    plan's settings as the trajectory digest encodes an untraced record, in
    hex."""
    runs = []
    for problem, set_name, solver in RUNS:
        (r,) = bench.run_plan(Workload((problem,), (set_name,), solvers=((solver, 0),)).plan(0))
        runs.append(record_bytes(r).hex())
    return np.show_config(mode="dicts")["SIMD Extensions"].get("found", []), runs


def test_runs_match_with_every_dispatched_simd_feature_disabled():
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    except TypeError:  # numpy < 1.25 has no mode
        pytest.skip("numpy does not report its dispatched SIMD features")
    if not found:
        pytest.skip("numpy dispatches to no SIMD feature beyond its baseline")
    code = f"import json, runpy; print(json.dumps(runpy.run_path({__file__!r})['outcomes']()))"
    env = {
        **os.environ,
        "PYTHONPATH": str(pathlib.Path(curveopt.__file__).parents[1]),
        "NPY_DISABLE_CPU_FEATURES": ",".join(found),
    }
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    dispatched, runs = json.loads(res.stdout)
    assert dispatched == []
    assert runs == outcomes()[1]
