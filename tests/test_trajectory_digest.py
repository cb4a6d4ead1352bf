import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trajectory_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trajectory_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: rosenbrock2's desk-plan digest; n = 2 involves no BLAS summation order,
#: so it is the same on every machine.  A change that moves a trajectory on
#: purpose re-pins it and says so.
ROSENBROCK2_DIGEST = "10d4ea59a700bc02df0c557fa828863d585437667dc5ea6c6d2530b48ed92b80"

#: beale2's desk-plan digest, machine-independent for the same reason; it
#: pins the trajectories of an oracle evaluated on Python floats
BEALE2_DIGEST = "e31b833d4648511dc0be0471536183c4086f870e0b0ae85e39e614d18f52c358"


def test_digest_of_one_problem_is_complete_and_repeatable():
    # the bit-identity gate runs on the library's current API: the desk
    # plan of one problem is 4 sets x 4 (solver, M) pairs
    tool = load_tool()
    hexdigest, runs, entries, lacking = tool.digest(("rosenbrock2",))
    assert runs == 16
    assert entries == 2503
    assert lacking == 0
    assert hexdigest == ROSENBROCK2_DIGEST
    assert tool.digest(("rosenbrock2",))[0] == hexdigest


def test_digest_of_beale2_is_pinned():
    hexdigest, runs, entries, lacking = load_tool().digest(("beale2",))
    assert (runs, entries, lacking) == (16, 885, 0)
    assert hexdigest == BEALE2_DIGEST


def test_main_names_the_numpy_build_before_the_digest(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "digest", lambda: ("ab" * 32, 208, 25616, 0))
    assert tool.main() == 0
    build, last = capsys.readouterr().out.splitlines()
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except TypeError:  # numpy < 1.25
        assert build == f"# numpy {np.__version__}; SIMD features unknown"
    else:
        assert build == (
            f"# numpy {np.__version__}; SIMD baseline {' '.join(simd['baseline']) or 'none'}; "
            f"dispatched {' '.join(simd['found']) or 'none'}"
        )
    assert last == f"{'ab' * 32}  208 runs, 25616 trace entries"


def test_numpy_build_without_simd_report_says_unknown(monkeypatch):
    # numpy before 1.25 has no show_config(mode=...)
    tool = load_tool()
    monkeypatch.setattr(tool.np, "show_config", lambda: None)
    assert tool.numpy_build() == f"# numpy {np.__version__}; SIMD features unknown"
