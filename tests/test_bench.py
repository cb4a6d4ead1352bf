from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from curveopt.bench import (
    CSV_COLUMNS,
    CSV_SCHEMA_COMMENT,
    STATUS_ERROR,
    BenchPlan,
    boundary_subset,
    instance_id,
    is_success,
    parse_plan,
    performance_profile,
    records_from_csv,
    records_to_csv,
    run_plan,
    solver_id,
)
from curveopt.cli import main as cli_main
from curveopt.errors import EmptyProfileError, PlanError
from curveopt.solvers import SOLVERS, RunRecord, SolverConfig


def mk(
    solver="scs",
    M=0,
    problem="p",
    fset="box",
    status="stationary",
    f_star=1.0,
    elapsed=1.0,
    iterations=10,
    max_g=-0.5,
):
    return RunRecord(
        solver_name=solver,
        problem_name=problem,
        set_name=fset,
        status=status,
        f_star=f_star,
        stationarity=1e-4,
        iterations=iterations,
        fallbacks=1,
        adaptive_reductions=0,
        elapsed=elapsed,
        M=M,
        dim=2,
        max_g_final=max_g,
    )


PLAN_TEXT = """\
# desk-scale smoke plan
problems = rosenbrock2, beale2
sets = sph, box

solvers = scs:0, scs:10, spg:0, spg:10
seed = 3
max_iters = 150
stat_tol = 1e-3
adaptive_momentum = true
"""


# ---------------------------------------------------------------------------
# plan parsing and validation


def test_parse_plan_full_example():
    plan = parse_plan(PLAN_TEXT)
    assert plan.problems == ("rosenbrock2", "beale2")
    assert plan.sets == ("sph", "box")
    assert plan.solvers == (("scs", 0), ("scs", 10), ("spg", 0), ("spg", 10))
    assert plan.seed == 3
    assert plan.overrides == {
        "max_iters": 150,
        "stat_tol": 1e-3,
        "adaptive_momentum": True,
    }
    plan.validate()


def test_parse_plan_defaults_m_to_zero():
    plan = parse_plan("problems = beale2\nsets = box\nsolvers = spg\n")
    assert plan.solvers == (("spg", 0),)


@pytest.mark.parametrize("field", fields(SolverConfig), ids=lambda f: f.name)
def test_parse_plan_override_takes_default_type(field):
    plan = parse_plan(f"{field.name} = {field.default}")
    assert plan.overrides == {field.name: field.default}
    assert type(plan.overrides[field.name]) is type(field.default)


def test_parse_plan_rejects_bad_line():
    with pytest.raises(PlanError):
        parse_plan("problems rosenbrock2")


def test_parse_plan_rejects_unknown_key():
    with pytest.raises(PlanError):
        parse_plan("colour = blue")


@pytest.mark.parametrize(
    "plan",
    [
        BenchPlan((), ("box",), (("scs", 0),)),
        BenchPlan(("nope",), ("box",), (("scs", 0),)),
        BenchPlan(("beale2",), ("cone",), (("scs", 0),)),
        BenchPlan(("beale2",), ("box",), (("newton", 0),)),
        BenchPlan(("beale2",), ("box",), (("scs", -1),)),
        BenchPlan(("beale2",), ("box",), (("scs", 0),), overrides={"nope": 1}),
    ],
)
def test_plan_validate_rejects(plan):
    with pytest.raises(PlanError):
        plan.validate()


# ---------------------------------------------------------------------------
# running plans


@pytest.fixture(scope="module")
def small_records():
    plan = parse_plan(PLAN_TEXT)
    return run_plan(plan)


def test_run_plan_cardinality_and_order(small_records):
    assert len(small_records) == 2 * 2 * 4
    keys = [
        (r.problem_name, r.set_name, r.solver_name, r.M) for r in small_records
    ]
    assert keys == sorted(keys)


def test_run_plan_applies_overrides(small_records):
    ms = {solver_id(r) for r in small_records}
    assert ms == {"scs-M0", "scs-M10", "spg-M0", "spg-M10"}
    for r in small_records:
        assert r.iterations <= 150


def test_run_plan_final_points_feasible(small_records):
    for r in small_records:
        assert r.max_g_final <= 1e-8


def test_run_plan_parallel_matches_serial(small_records):
    plan = parse_plan(PLAN_TEXT)
    par = run_plan(plan, jobs=2)
    assert len(par) == len(small_records)
    for a, b in zip(small_records, par):
        assert (a.solver_name, a.M, a.problem_name, a.set_name) == (
            b.solver_name,
            b.M,
            b.problem_name,
            b.set_name,
        )
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert a.f_star == b.f_star
        assert np.array_equal(a.final_x, b.final_x)


def test_run_plan_records_a_raising_run_and_finishes_the_rest(monkeypatch):
    def boom(p, fset, cfg, record_trace, x0):
        raise RuntimeError(f"boom on {p.name}")

    monkeypatch.setitem(SOLVERS, "boom", boom)
    plan = BenchPlan(
        problems=("rosenbrock2", "beale2"),
        sets=("box",),
        solvers=(("boom", 3), ("spg", 0)),
        overrides={"max_iters": 50},
    )
    records = run_plan(plan, jobs=1)
    assert len(records) == 4
    failed = [r for r in records if r.solver_name == "boom"]
    assert [r.problem_name for r in failed] == ["beale2", "rosenbrock2"]
    for r in failed:
        assert r.status == STATUS_ERROR
        assert r.detail == f"RuntimeError: boom on {r.problem_name}"
        assert np.isnan(r.f_star) and np.isnan(r.stationarity)
        assert (r.iterations, r.fallbacks, r.adaptive_reductions) == (0, 0, 0)
        assert (r.M, r.dim) == (3, 2)
    for r in records:
        if r.solver_name == "spg":
            assert r.status != STATUS_ERROR and r.detail == ""
            assert np.isfinite(r.f_star)
    # the v1 CSV carries the status but not the detail
    assert "detail" not in CSV_COLUMNS
    back = records_from_csv(records_to_csv(records))
    assert [r.status for r in back] == [r.status for r in records]
    assert all(r.detail == "" for r in back)


# ---------------------------------------------------------------------------
# persistence


def test_csv_roundtrip(small_records):
    text = records_to_csv(small_records)
    assert text.splitlines()[0] == CSV_SCHEMA_COMMENT
    back = records_from_csv(text)
    assert len(back) == len(small_records)
    for a, b in zip(small_records, back):
        assert solver_id(a) == solver_id(b)
        assert instance_id(a) == instance_id(b)
        assert a.status == b.status
        assert a.f_star == b.f_star
        assert a.iterations == b.iterations
        assert a.dim == b.dim
        assert a.max_g_final == b.max_g_final


def test_csv_deterministic(small_records):
    assert records_to_csv(small_records) == records_to_csv(small_records)
    # order-insensitive: writer sorts
    assert records_to_csv(list(reversed(small_records))) == records_to_csv(small_records)


# ---------------------------------------------------------------------------
# performance profiles


def dolan_more_fixture():
    # three instances; solver a: 1s, 2s, fail; solver b: 2s, 2s, 4s
    recs = []
    for i, (ta, tb) in enumerate([(1.0, 2.0), (2.0, 2.0), (None, 4.0)]):
        prob = f"p{i}"
        if ta is None:
            recs.append(mk(solver="scs", problem=prob, status="iter_limit", elapsed=9.0))
        else:
            recs.append(mk(solver="scs", problem=prob, elapsed=ta))
        recs.append(mk(solver="spg", problem=prob, elapsed=tb))
    return recs


def test_profile_worked_values():
    table = performance_profile(dolan_more_fixture(), "time", [1.0, 2.0, 4.0])
    # ratios: scs = [1, 1, inf], spg = [2, 1, 1]
    assert table.rho["scs-M0"] == pytest.approx((2 / 3, 2 / 3, 2 / 3))
    assert table.rho["spg-M0"] == pytest.approx((2 / 3, 1.0, 1.0))
    assert table.included_instances == (("p0", "box"), ("p1", "box"), ("p2", "box"))


def test_profile_monotone_and_capped(small_records):
    grid = list(np.linspace(1.0, 10.0, 50))
    table = performance_profile(small_records, "iters", grid)
    n = len(table.included_instances)
    assert n >= 1
    for rho in table.rho.values():
        assert all(b >= a for a, b in zip(rho, rho[1:]))
        assert all(0.0 <= v <= 1.0 for v in rho)
    # at large tau each solver's value is its success fraction
    for s, rho in table.rho.items():
        succ = sum(
            1
            for r in small_records
            if solver_id(r) == s and is_success(r) and instance_id(r) in set(table.included_instances)
        )
        assert rho[-1] <= succ / n + 1e-12


def test_profile_failed_runs_are_infinite_ratio():
    recs = [
        mk(solver="scs", problem="p0", status="search_failure", elapsed=0.1),
        mk(solver="spg", problem="p0", elapsed=5.0),
    ]
    table = performance_profile(recs, "time", [1.0, 1e9])
    assert table.rho["scs-M0"] == (0.0, 0.0)
    assert table.rho["spg-M0"] == (1.0, 1.0)


def test_profile_fstar_shift_for_nonpositive_minimum():
    # shift 1 - (-1) maps values to scs -> 1, spg -> 2, so spg's ratio is 2
    recs = [
        mk(solver="scs", problem="p0", f_star=-1.0),
        mk(solver="spg", problem="p0", f_star=0.0),
    ]
    table = performance_profile(recs, "fstar", [1.0, 1.5, 2.5])
    assert table.rho["scs-M0"] == pytest.approx((1.0, 1.0, 1.0))
    assert table.rho["spg-M0"] == pytest.approx((0.0, 0.0, 1.0))


def test_profile_zero_best_metric():
    recs = [
        mk(solver="scs", problem="p0", iterations=0),
        mk(solver="spg", problem="p0", iterations=5),
    ]
    table = performance_profile(recs, "iters", [1.0, 100.0])
    assert table.rho["scs-M0"] == (1.0, 1.0)
    assert table.rho["spg-M0"] == (0.0, 0.0)


def test_profile_empty_raises():
    recs = [mk(status="iter_limit"), mk(solver="spg", status="time_limit")]
    with pytest.raises(EmptyProfileError):
        performance_profile(recs, "time", [1.0])


def test_profile_input_validation():
    with pytest.raises(ValueError):
        performance_profile([mk()], "speed", [1.0])
    with pytest.raises(ValueError):
        performance_profile([mk()], "time", [0.5])


def test_profile_csv_layout():
    table = performance_profile(dolan_more_fixture(), "time", [1.0, 2.0])
    lines = table.to_csv().splitlines()
    assert lines[0] == "tau,scs-M0,spg-M0"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# boundary classification


def test_boundary_subset_uses_best_successful_run():
    recs = [
        # p0: best run (lower f_star) ends on the boundary
        mk(solver="scs", problem="p0", f_star=1.0, max_g=-1e-7),
        mk(solver="spg", problem="p0", f_star=2.0, max_g=-0.5),
        # p1: best run ends strictly inside
        mk(solver="scs", problem="p1", f_star=3.0, max_g=-1e-7),
        mk(solver="spg", problem="p1", f_star=1.0, max_g=-0.5),
        # p2: no successful run at all
        mk(solver="scs", problem="p2", status="iter_limit", max_g=-1e-9),
    ]
    assert boundary_subset(recs, tol=1e-5) == [("p0", "box")]


def test_boundary_subset_tolerance():
    recs = [mk(problem="p0", max_g=-1e-3)]
    assert boundary_subset(recs, tol=1e-5) == []
    assert boundary_subset(recs, tol=1e-2) == [("p0", "box")]


# ---------------------------------------------------------------------------
# command line


def test_cli_end_to_end(tmp_path):
    runner = CliRunner()
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        "problems = beale2\nsets = sph, box\nsolvers = scs:0, spg:0\nmax_iters = 200\n"
    )
    out_dir = tmp_path / "results"

    res = runner.invoke(
        cli_main, ["run", "--plan", str(plan_file), "--out", str(out_dir)]
    )
    assert res.exit_code == 0, res.output
    records_csv = out_dir / "records.csv"
    assert records_csv.exists()
    assert "4 runs" in res.output

    prof_path = tmp_path / "profile.csv"
    res = runner.invoke(
        cli_main,
        [
            "profile",
            "--records",
            str(records_csv),
            "--metric",
            "iters",
            "--out",
            str(prof_path),
        ],
    )
    assert res.exit_code == 0, res.output
    assert prof_path.read_text().startswith("tau,")

    res = runner.invoke(cli_main, ["boundary", "--records", str(records_csv)])
    assert res.exit_code == 0, res.output


def test_cli_seed_override(tmp_path):
    runner = CliRunner()
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        "problems = beale2\nsets = ell\nsolvers = spg:0\nseed = 1\nmax_iters = 200\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert (
        runner.invoke(
            cli_main, ["run", "--plan", str(plan_file), "--out", str(out_a)]
        ).exit_code
        == 0
    )
    assert (
        runner.invoke(
            cli_main,
            ["run", "--plan", str(plan_file), "--out", str(out_b), "--seed", "99"],
        ).exit_code
        == 0
    )
    # different seeds build different ellipsoids, so results differ
    ra = records_from_csv((out_a / "records.csv").read_text())
    rb = records_from_csv((out_b / "records.csv").read_text())
    assert ra[0].f_star != rb[0].f_star or ra[0].iterations != rb[0].iterations


def test_cli_run_reports_errored_runs(tmp_path, monkeypatch):
    def boom(p, fset, cfg, record_trace, x0):
        raise RuntimeError("boom")

    monkeypatch.setitem(SOLVERS, "boom", boom)
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("problems = beale2\nsets = box\nsolvers = boom:0, spg:0\n")
    out_dir = tmp_path / "results"
    res = CliRunner().invoke(cli_main, ["run", "--plan", str(plan_file), "--out", str(out_dir)])
    assert res.exit_code == 0, res.output
    assert "2 runs (1 stationary)" in res.stdout
    assert res.stderr == "boom:0 beale2/box: RuntimeError: boom\n"
    statuses = {r.solver_name: r.status for r in records_from_csv((out_dir / "records.csv").read_text())}
    assert statuses == {"boom": STATUS_ERROR, "spg": "stationary"}
