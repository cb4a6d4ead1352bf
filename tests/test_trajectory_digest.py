import importlib.util
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curveopt import solvers

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trajectory_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trajectory_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: rosenbrock2's desk-plan digest on OpenBLAS's SkylakeX core.  It holds
#: for that kernel only, even at n = 2: SkylakeX's 1-D `dot` fuses each
#: multiply into its add, where Haswell's and Prescott's round the product
#: first, so under those cores the entry counts and digests differ.  Each
#: failure message is the tool's `#` line, which names the core.  A change
#: that moves a trajectory on purpose re-pins it and says so.
ROSENBROCK2_DIGEST = "4faddc4f7b334534f2e07e831e1418e7534bb8cea9408d979aafd05dc1cc12e0"

#: beale2's desk-plan digest on the same core; it pins the trajectories of
#: an oracle evaluated on Python floats
BEALE2_DIGEST = "d7f64d7f2eb4ff7ef7062e2efe7e472a60cef0cad17cb23da162224727dcb1be"

#: rosenbrock2's untraced digest, over the records of the same runs made
#: with `record_trace=False`, on the same core
ROSENBROCK2_UNTRACED_DIGEST = "9a9b029bc11c99bf01b86218ad4390fde0d5fea03d699696e8b0a88b0576ff0d"


def test_digest_of_one_problem_is_complete_and_repeatable():
    # the bit-identity gate runs on the library's current API: the desk
    # plan of one problem is 4 sets x 4 (solver, M) pairs
    tool = load_tool()
    build = tool.numpy_build()
    hexdigest, runs, entries, lacking, untraced = tool.digest(("rosenbrock2",))
    assert runs == 16
    assert entries == 2473, build
    assert lacking == 0
    assert hexdigest == ROSENBROCK2_DIGEST, build
    assert untraced == ROSENBROCK2_UNTRACED_DIGEST, build
    assert tool.digest(("rosenbrock2",)) == (hexdigest, runs, entries, lacking, untraced)


def test_digest_covers_the_sets_it_is_given():
    # rosenbrock2 on com alone is 4 (solver, M) pairs, and the digest of a
    # part of the plan differs from the whole plan's
    tool = load_tool()
    hexdigest, runs, entries, lacking, untraced = tool.digest(("rosenbrock2",), sets=("com",))
    assert runs == 4
    assert 0 < entries < 2473 and lacking == 0
    assert hexdigest != ROSENBROCK2_DIGEST
    assert untraced != ROSENBROCK2_UNTRACED_DIGEST


def test_digest_of_beale2_is_pinned():
    tool = load_tool()
    build = tool.numpy_build()
    hexdigest, runs, entries, lacking, _ = tool.digest(("beale2",))
    assert (runs, entries, lacking) == (16, 789, 0), build
    assert hexdigest == BEALE2_DIGEST, build


#: how a run could drift in the bits of its record alone, each applied to
#: the first untraced run of rosenbrock2 on the box (scs:0, which ends at
#: the minimiser (1, 1) after one step, with f, the measure and the largest
#: constraint value all 0, one fallback and no reduction)
DRIFTS = {
    "f_star": lambda r: math.nextafter(r.f_star, math.inf),
    "stationarity": lambda r: math.nextafter(r.stationarity, math.inf),
    "max_g_final": lambda r: math.nextafter(r.max_g_final, math.inf),
    "fallbacks": lambda r: r.fallbacks + 1,
    "adaptive_reductions": lambda r: r.adaptive_reductions + 1,
    "final_x": lambda r: r.final_x * (1.0 + 2.0**-52),
    "status": lambda r: "iter_limit",
    "iterations": lambda r: r.iterations + 1,
}


@pytest.mark.parametrize("field", DRIFTS)
def test_drift_of_an_untraced_record_moves_the_untraced_digest_alone(monkeypatch, field):
    tool = load_tool()
    hexdigest, runs, entries, lacking, untraced = tool.digest(("rosenbrock2",), sets=("box",))
    run_plan = tool.bench.run_plan

    def drifted(plan, record_trace=False):
        records = run_plan(plan, record_trace=record_trace)
        if not record_trace:
            first = records[0]
            encoded = tool._encode(getattr(first, field))
            setattr(first, field, DRIFTS[field](first))
            assert tool._encode(getattr(first, field)) != encoded
        return records

    monkeypatch.setattr(tool.bench, "run_plan", drifted)
    moved = tool.digest(("rosenbrock2",), sets=("box",))
    assert moved[:4] == (hexdigest, runs, entries, lacking)
    assert moved[4] != untraced


@pytest.mark.parametrize("rules_out", (True, False))
def test_the_untraced_digest_sees_the_paths_only_untraced_runs_take(monkeypatch, rules_out):
    # a traced run computes the stationarity measure at every iterate, so
    # only an untraced run asks whether the step's projection rules out a
    # stop.  Answering "yes" everywhere keeps each untraced run from ever
    # stopping stationary, which the vector digest cannot see; answering
    # "no" everywhere computes every measure, which must change no bit
    tool = load_tool()
    monkeypatch.setattr(solvers, "_rules_out_stop", lambda *args: rules_out)
    hexdigest, runs, entries, lacking, untraced = tool.digest(("rosenbrock2",))
    assert (hexdigest, runs, entries, lacking) == (ROSENBROCK2_DIGEST, 16, 2473, 0)
    assert (untraced == ROSENBROCK2_UNTRACED_DIGEST) is not rules_out


@pytest.mark.parametrize("fields", ("TRACE_FIELDS", "RECORD_FIELDS"))
def test_a_listed_field_that_is_gone_exits_1(monkeypatch, fields):
    tool = load_tool()
    monkeypatch.setattr(tool, fields, (*getattr(tool, fields), "gone"))
    # sys.exit with a message, which Python prints before it exits 1
    with pytest.raises(SystemExit, match=r"^error: \w+ lacks the fields \['gone'\]$"):
        tool.digest(("rosenbrock2",), sets=("box",))


def test_main_names_the_numpy_build_before_the_digest(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "digest", lambda: ("ab" * 32, 208, 25664, 0, "cd" * 32))
    assert tool.main() == 0
    build, last = capsys.readouterr().out.splitlines()
    core = tool.blas_core()
    libc = " ".join(platform.libc_ver()).strip() or "unknown"
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25
        assert build == (
            f"# numpy {np.__version__}; SIMD features unknown; BLAS core {core}; "
            f"C library {libc}"
        )
    else:
        simd = config["SIMD Extensions"]
        assert build == (
            f"# numpy {np.__version__}; SIMD baseline {' '.join(simd['baseline']) or 'none'}; "
            f"dispatched {' '.join(simd['found']) or 'none'}; BLAS core {core}; C library {libc}"
        )
        if config["Build Dependencies"]["blas"]["name"] == "scipy-openblas":
            assert core != "unknown"
    assert last == f"{'ab' * 32}  208 runs, 25664 trace entries, untraced {'cd' * 32}"


def test_numpy_build_without_simd_report_says_unknown(monkeypatch):
    # numpy before 1.25 has no show_config(mode=...)
    tool = load_tool()
    monkeypatch.setattr(tool.np, "show_config", lambda: None)
    assert tool.numpy_build() == (
        f"# numpy {np.__version__}; SIMD features unknown; BLAS core {tool.blas_core()}; "
        f"C library {tool.c_library()}"
    )


def test_c_library_names_glibc_and_its_version_or_says_unknown(monkeypatch):
    # trigls10's np.cos and np.sin round as libm does, so a digest holds for
    # one C library; platform.libc_ver reads ("", "") where it finds none
    tool = load_tool()
    monkeypatch.setattr(tool.platform, "libc_ver", lambda: ("glibc", "2.36"))
    assert tool.c_library() == "glibc 2.36"
    monkeypatch.setattr(tool.platform, "libc_ver", lambda: ("", ""))
    assert tool.c_library() == "unknown"


def test_blas_core_follows_openblas_coretype():
    # the digest moves with the OpenBLAS kernel, so the # line must name the
    # one OPENBLAS_CORETYPE picks, which is read at load time
    if load_tool().blas_core() == "unknown":
        pytest.skip("numpy's BLAS names no OpenBLAS core")
    script = f"import runpy; print(runpy.run_path({str(TOOL)!r})['blas_core']())"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "Haswell\n"


def no_library(path):
    raise OSError(path)


@pytest.mark.parametrize(
    "cdll", [lambda path: object(), no_library], ids=["no-symbol", "no-library"]
)
def test_blas_core_without_openblas_says_unknown(monkeypatch, cdll):
    tool = load_tool()
    monkeypatch.setattr(tool.ctypes, "CDLL", cdll)
    assert tool.blas_core() == "unknown"
