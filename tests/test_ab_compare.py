import dataclasses
import importlib.util
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_compare.py"


def ab_compare(parent, change, workload="exact", problems="rosenbrock2"):
    """tools/ab_compare.py on a workload cut to `problems`, 2 rounds."""
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", workload,
         "--problems", problems, "--rounds", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_checkout_against_itself():
    res = ab_compare(ROOT, ROOT)
    assert res.returncode == 0, res.stderr
    header, fastest, faster, rosenbrock2 = res.stdout.splitlines()
    assert header == "# workload exact, 12 runs, 2 rounds, seed 0"
    assert fastest.startswith("fastest_elapsed_s parent ")
    assert faster in {f"change_faster {n} of 2" for n in range(3)}
    # one problem holds every run, so its line repeats the sums above
    assert rosenbrock2 == fastest.replace("fastest_elapsed_s", "rosenbrock2 fastest_elapsed_s")


def test_change_faster_counts_rounds_by_summed_elapsed():
    # per pass, the elapsed of the runs (beale2, rosenbrock2) on each side;
    # pass 0 is the untimed warm-up round
    elapsed = {
        "parent": [(9.0, 9.0), (0.2, 0.8), (0.5, 0.5), (0.5, 0.5)],
        "change": [(9.0, 9.0), (0.3, 0.6), (0.4, 0.6), (0.7, 0.4)],
    }

    @dataclasses.dataclass
    class Plan:
        problems: tuple

    def package(side):
        passes = iter(elapsed[side])

        def run_plan(plan, record_trace):
            return [
                types.SimpleNamespace(
                    problem_name=name, set_name="box", solver_name="scs", M=0,
                    status="stationary", iterations=1, f_star=0.0, final_x=None, elapsed=t,
                )
                for name, t in zip(plan.problems, next(passes))
            ]

        bench = types.SimpleNamespace(
            BenchPlan=Plan,
            run_plan=run_plan,
            records_to_csv=lambda records: records,
            records_from_csv=lambda records: records,
            performance_profile=lambda records, metric, tau_grid: None,
            EmptyProfileError=ValueError,
        )
        return types.SimpleNamespace(bench=bench)

    spec = importlib.util.spec_from_file_location("ab_compare", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    problems = ("beale2", "rosenbrock2")
    workload = types.SimpleNamespace(
        problems=problems, record_trace=False, plan=lambda seed: Plan(problems)
    )
    harness = types.SimpleNamespace(TAU_GRID=(1.0,))
    result = tool.compare({side: package(side) for side in tool.SIDES}, harness, workload, 0, 3)
    # lower in sum in round 1 (though slower on beale2), tied in round 2,
    # higher in round 3
    assert result["change_faster"] == 1
    assert result["fastest_elapsed_s"] == pytest.approx({"parent": 0.7, "change": 0.7})


def test_each_problem_gets_its_own_ratio_and_a_pass_that_solves_nothing_compares():
    # every chnrosnb4 run on com ends iter_limit, which leaves the profiles
    # without an instance; wood4's runs are solved
    for names, runs in ((["chnrosnb4"], 4), (["chnrosnb4", "wood4"], 8)):
        res = ab_compare(ROOT, ROOT, workload="com", problems=",".join(names))
        assert res.returncode == 0, res.stderr
        header, fastest, faster, *per_problem = res.stdout.splitlines()
        assert header == f"# workload com, {runs} runs, 2 rounds, seed 0"
        assert fastest.startswith("fastest_elapsed_s parent ")
        assert faster.startswith("change_faster ")
        assert [line.split(" parent ")[0] for line in per_problem] == [
            f"{name} fastest_elapsed_s" for name in names
        ]
        # "... parent P change C ratio R": the problems' times add up
        parent_s = [float(line.split()[-5]) for line in per_problem]
        assert sum(parent_s) == pytest.approx(float(fastest.split()[-5]), abs=1e-4 * runs)


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
