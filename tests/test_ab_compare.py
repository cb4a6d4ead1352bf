import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_compare.py"


def ab_compare(parent, change):
    """tools/ab_compare.py on the exact workload cut to rosenbrock2, 2 rounds."""
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "exact",
         "--problems", "rosenbrock2", "--rounds", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_checkout_against_itself():
    res = ab_compare(ROOT, ROOT)
    assert res.returncode == 0, res.stderr
    header, median, fastest, faster = res.stdout.splitlines()
    assert header == "# workload exact, 12 runs, 2 rounds, seed 0"
    assert median.startswith("pass_median_s parent ")
    assert fastest.startswith("fastest_elapsed_s parent ")
    assert faster in {f"change_faster {n} of 2" for n in range(3)}


def test_a_run_that_ends_otherwise_fails_the_comparison(tmp_path):
    # a copy of the library whose runs stop one iteration before max_iters
    src = tmp_path / "src" / "curveopt"
    shutil.copytree(ROOT / "src" / "curveopt", src, ignore=shutil.ignore_patterns("__pycache__"))
    solvers = src / "solvers.py"
    text = solvers.read_text()
    assert text.count("if k >= cfg.max_iters:") == 1
    solvers.write_text(text.replace("if k >= cfg.max_iters:", "if k >= cfg.max_iters - 1:"))
    res = ab_compare(tmp_path, ROOT)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("round 0, parent: run ('rosenbrock2', ")
    assert res.stderr.rstrip().endswith(
        "ended ('iter_limit', 399), in the first pass ('iter_limit', 400)"
    )


@pytest.mark.parametrize(
    "field, drifted, message",
    (
        ("final_x", "final_x=np.array(x) * (1.0 + 2.0**-52),",
         "with final_x bytes unlike the first pass's"),
        # the first run in key order ends at the minimiser of rosenbrock2, f = 0
        ("f_star", "f_star=math.nextafter(fx, math.inf),",
         "with f_star 5e-324, in the first pass 0.0"),
    ),
)
def test_a_run_that_drifts_only_in_its_bits_fails_the_comparison(
    tmp_path, field, drifted, message
):
    # a copy of the library whose runs end in the same status and iteration
    # count, with every entry of final_x times 1 + 2**-52, or f_star one ulp up
    src = tmp_path / "src" / "curveopt"
    shutil.copytree(ROOT / "src" / "curveopt", src, ignore=shutil.ignore_patterns("__pycache__"))
    solvers = src / "solvers.py"
    text = solvers.read_text()
    exact = {"final_x": "final_x=np.array(x),", "f_star": "f_star=fx,"}[field]
    assert text.count(exact) == 1
    solvers.write_text(text.replace(exact, drifted))
    res = ab_compare(tmp_path, ROOT)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == (
        f"round 0, parent: run ('rosenbrock2', 'box', 'scs', 0) ended ('stationary', 1) {message}\n"
    )


def test_a_negative_seed_is_a_usage_error_before_any_checkout_loads(tmp_path):
    missing = tmp_path / "missing"
    res = subprocess.run(
        [sys.executable, str(TOOL), str(missing), str(missing), "--workload", "exact",
         "--seed", "-1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.rstrip().endswith("error: --seed must be nonnegative")
