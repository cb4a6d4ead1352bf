import math
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

import curveopt.sets
from curveopt import bench
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

solvers = scs:0, scs:10, spg:0, spg:10   # solver:M pairs
seed = 3
max_iters = 150  # any SolverConfig field is an override
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
    # an empty item is skipped
    plan = parse_plan("solvers = scs:0, , spg\n")
    assert plan.solvers == (("scs", 0), ("spg", 0))


# M is set per solver, as name:M
@pytest.mark.parametrize(
    "field", [f for f in fields(SolverConfig) if f.name != "M"], ids=lambda f: f.name
)
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
    # constants of the method, not SolverConfig fields
    with pytest.raises(PlanError, match="unknown key 'sigma'"):
        parse_plan("sigma = 1e-4")
    with pytest.raises(PlanError, match="unknown key 'max_backtracks'"):
        parse_plan("max_backtracks = 5")


@pytest.mark.parametrize(
    "word, value",
    [(w, True) for w in ("true", "True", "1", "yes", "YES", "on")]
    + [(w, False) for w in ("false", "FALSE", "0", "no", "No", "off")],
)
def test_parse_plan_boolean_spellings(word, value):
    plan = parse_plan(f"adaptive_momentum = {word}")
    assert plan.overrides == {"adaptive_momentum": value}


@pytest.mark.parametrize(
    "line, key",
    [
        ("adaptive_momentum = ture", "adaptive_momentum"),
        ("dynamic_beta = 2", "dynamic_beta"),
        ("max_iters = ten", "max_iters"),
        ("max_iters = 3.5", "max_iters"),
        ("stat_tol = tiny", "stat_tol"),
        ("solvers = scs:x", "solvers"),
        ("solvers = scs:", "solvers"),
        ("seed = one", "seed"),
        ("M = 5", "M"),
        ("problems = wood4", "problems"),
    ],
)
def test_parse_plan_rejects_bad_value_with_line_and_key(line, key):
    with pytest.raises(PlanError, match=rf"^line 3: {key}: "):
        parse_plan(f"# plan\nproblems = beale2\n{line}\n")


@pytest.mark.parametrize(
    "plan",
    [
        BenchPlan((), ("box",), (("scs", 0),)),
        BenchPlan(("nope",), ("box",), (("scs", 0),)),
        BenchPlan(("beale2",), ("cone",), (("scs", 0),)),
        BenchPlan(("beale2",), ("box",), (("newton", 0),)),
        BenchPlan(("beale2",), ("box",), (("scs", -1),)),
        BenchPlan(("beale2",), ("box",), (("scs", 2.5),)),
        BenchPlan(("beale2",), ("box",), (("spg", 0), ("scs", 2.5))),
        BenchPlan(("beale2",), ("box",), (("scs", 0),), overrides={"nope": 1}),
        BenchPlan(("beale2",), ("box",), (("scs", 0),), overrides={"beta0": 1.5}),
        BenchPlan(("beale2",), ("box",), (("scs", 0),), overrides={"beta0": "0.5"}),
        BenchPlan(("rosenbrock2", "rosenbrock2"), ("box",), (("scs", 0),)),
        BenchPlan(("rosenbrock2",), ("box", "sph", "box"), (("scs", 0),)),
        BenchPlan(("rosenbrock2",), ("box",), (("scs", 0), ("scs", 10), ("scs", 0))),
        BenchPlan(("beale2",), ("box",), (("scs", 0),), overrides={"M": 5}),
        BenchPlan(("beale2",), ("box", "ell"), (("scs", 0),), seed=-10),
        BenchPlan(("beale2",), ("box",), (("scs", 0),), overrides={"eta_max": math.inf}),
        BenchPlan(("beale2",), ("ell", "box"), (("scs", 0),), seed=1.5),
        BenchPlan(("beale2",), ("ell", "box"), (("scs", 0),), seed="3"),
        BenchPlan(("beale2",), ("ell", "box"), (("scs", 0),), seed=True),
    ],
)
def test_plan_validate_rejects(plan):
    with pytest.raises(PlanError):
        plan.validate()


def test_plan_seed_message():
    plan = BenchPlan(("beale2",), ("ell", "box"), (("scs", 0),), seed=True)
    with pytest.raises(PlanError, match=r"^seed must be a nonnegative integer, not True$"):
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


def test_run_plan_records_a_raising_run_and_finishes_the_rest(monkeypatch):
    def boom(p, fset, cfg):
        raise RuntimeError(f"boom on {p.name}")

    monkeypatch.setitem(SOLVERS, "boom", boom)
    plan = BenchPlan(
        problems=("rosenbrock2", "beale2"),
        sets=("box",),
        solvers=(("boom", 3), ("spg", 0)),
        overrides={"max_iters": 50},
    )
    records = run_plan(plan)
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


def test_run_plan_records_a_failed_set_build_and_finishes_the_rest(monkeypatch):
    make_set = bench.make_set

    def fragile_make_set(name, n, **kwargs):
        if name == "ell":
            raise ValueError("expected non-negative integer")
        return make_set(name, n, **kwargs)

    monkeypatch.setattr(bench, "make_set", fragile_make_set)
    plan = BenchPlan(("beale2",), ("box", "ell"), (("scs", 0), ("spg", 0)))
    records = run_plan(plan)
    assert [(r.set_name, r.solver_name) for r in records] == [
        ("box", "scs"), ("box", "spg"), ("ell", "scs"), ("ell", "spg"),
    ]
    for r in records:
        if r.set_name == "ell":
            assert r.status == STATUS_ERROR
            assert r.detail == "ValueError: expected non-negative integer"
        else:
            assert r.status == "stationary"


def test_run_plan_records_a_failed_projection_and_finishes_the_rest(monkeypatch):
    # with no iterations allowed, the first projection of wood4's start onto
    # ell or com raises; the box runs complete
    monkeypatch.setattr(curveopt.sets, "_ELL_MAX_ITERS", 0)
    monkeypatch.setattr(curveopt.sets, "_COM_MAX_ITERS", 0)
    plan = BenchPlan(("wood4",), ("box", "ell", "com"), (("scs", 0), ("spg", 0)))
    records = run_plan(plan)
    details = {
        "ell": "ProjectionError: ellipsoid projection: root finder did not converge",
        "com": "ProjectionError: composite projection: multiplier search did not converge",
    }
    assert len(records) == 6
    for r in records:
        if r.set_name == "box":
            assert (r.status, r.detail) == ("stationary", "")
        else:
            assert (r.status, r.detail) == (STATUS_ERROR, details[r.set_name])


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


def cut_last_row(text, edit):
    """`text` with `edit` applied to the last line's fields."""
    *head, last = text.splitlines()
    return "\n".join(head + [",".join(edit(last.split(",")))]) + "\n"


@pytest.mark.parametrize("edit", (lambda f: f[:-1], lambda f: f + ["0.0"]), ids=("short", "long"))
def test_records_from_csv_names_the_line_of_a_row_of_the_wrong_width(edit):
    # line 1 is the schema comment, line 2 the header, line 4 the second record
    text = cut_last_row(records_to_csv([mk(), mk(problem="q")]), edit)
    message = r"^records CSV line 4 does not have the header's 13 fields$"
    with pytest.raises(ValueError, match=message):
        records_from_csv(text)


def replace_cell(column, value):
    """An edit for `cut_last_row` that writes `value` into `column`."""
    i = CSV_COLUMNS.index(column)
    return lambda f: f[:i] + [value] + f[i + 1 :]


@pytest.mark.parametrize(
    "column, value, kind", (("iterations", "five", "int"), ("f_star", "low", "float"))
)
def test_records_from_csv_names_the_line_and_column_of_a_value_that_does_not_parse(
    column, value, kind
):
    text = cut_last_row(records_to_csv([mk(), mk(problem="q")]), replace_cell(column, value))
    message = rf"^records CSV line 4, column {column}: '{value}' is not a valid {kind}$"
    with pytest.raises(ValueError, match=message):
        records_from_csv(text)


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


def test_profile_counts_as_a_plain_scan_does():
    # scs's ratio on instance i is ratios[i]: elapsed q against spg's 1.0,
    # a failed run for inf, and elapsed inf for both solvers for NaN (inf /
    # inf), which spg then shares; a NaN never counts, and inf counts at
    # tau = inf only
    rng = np.random.default_rng(21)
    grid = [1.0, 1.25, 1.5, 2.0, 3.5, 10.0, math.inf]
    for _ in range(20):
        ratios = rng.choice([1.0, 1.25, 2.0, 2.0, 3.5, math.inf, math.nan], size=30)
        recs = []
        for i, q in enumerate(ratios):
            spg = math.inf if math.isnan(q) else 1.0
            status = "iter_limit" if math.isinf(q) else "stationary"
            recs.append(mk(problem=f"p{i}", status=status, elapsed=spg if math.isnan(q) else q))
            recs.append(mk(solver="spg", problem=f"p{i}", elapsed=spg))
        table = performance_profile(recs, "time", grid)
        spg_ratios = [math.nan if math.isnan(q) else 1.0 for q in ratios]
        for s, rs in (("scs-M0", ratios), ("spg-M0", spg_ratios)):
            plain = tuple(sum(1 for v in rs if v <= tau) / len(rs) for tau in grid)
            assert table.rho[s] == plain


def test_profile_empty_raises():
    recs = [mk(status="iter_limit"), mk(solver="spg", status="time_limit")]
    with pytest.raises(EmptyProfileError):
        performance_profile(recs, "time", [1.0])


def test_profile_input_validation():
    with pytest.raises(ValueError):
        performance_profile([mk()], "speed", [1.0])
    with pytest.raises(ValueError):
        performance_profile([mk()], "time", [0.5])
    with pytest.raises(ValueError):
        performance_profile([mk()], "time", [1.0, float("nan")])


def test_profile_rejects_repeated_records():
    recs = dolan_more_fixture() + [mk(solver="scs", problem="p1", iterations=1000)]
    with pytest.raises(ValueError, match=r"repeated record for \('p1', 'box', 'scs-M0'\)"):
        performance_profile(recs, "iters", [1.0])


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


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_boundary_subset_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        boundary_subset([mk()], tol=tol)


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


@pytest.mark.parametrize(
    "args",
    [
        ["profile", "--tau-points", "0"],
        ["profile", "--tau-max", "0.5"],
        ["profile", "--tau-max", "nan"],
        ["profile", "--tau-max", "inf"],
        ["boundary", "--tol", "-1"],
        ["boundary", "--tol", "nan"],
        ["boundary", "--tol", "inf"],
    ],
)
def test_cli_rejects_out_of_range_options(tmp_path, args):
    records_csv = tmp_path / "records.csv"
    records_csv.write_text(records_to_csv(run_plan(BenchPlan(("beale2",), ("box",), (("spg", 0),)))))
    out = tmp_path / "out"
    inputs = {
        "profile": ["--records", str(records_csv), "--out", str(out)],
        "boundary": ["--records", str(records_csv)],
    }
    res = CliRunner().invoke(cli_main, args + inputs[args[0]])
    assert res.exit_code == 2, res.output
    assert "Invalid value" in res.output
    assert not out.exists()


def test_plan_seed_changes_the_ell_runs(tmp_path):
    # two plan files that differ only in seed build different ellipsoids
    records = []
    for seed in (1, 99):
        plan_file = tmp_path / f"plan{seed}.txt"
        plan_file.write_text(
            f"problems = beale2\nsets = ell\nsolvers = spg:0\nseed = {seed}\nmax_iters = 200\n"
        )
        out = tmp_path / f"out{seed}"
        res = CliRunner().invoke(cli_main, ["run", "--plan", str(plan_file), "--out", str(out)])
        assert res.exit_code == 0, res.output
        (r,) = records_from_csv((out / "records.csv").read_text())
        records.append((r.f_star, r.iterations))
    assert records[0] != records[1]


def test_removed_run_options_are_unknown(tmp_path):
    # a plan's runs come from its file alone, one after another
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("problems = beale2\nsets = box\nsolvers = spg:0\n")
    out = tmp_path / "out"
    for option, value in (("--jobs", "2"), ("--seed", "7")):
        res = CliRunner().invoke(
            cli_main, ["run", "--plan", str(plan_file), "--out", str(out), option, value]
        )
        assert res.exit_code == 2, res.output
        assert "No such option" in res.output and option in res.output
        assert not out.exists()
    with pytest.raises(TypeError, match="jobs"):
        run_plan(parse_plan(plan_file.read_text()), jobs=2)


def test_cli_run_reports_errored_runs(tmp_path, monkeypatch):
    def boom(p, fset, cfg):
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


def test_cli_run_rejects_an_invalid_plan(tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("problems = beale2\nsets = box\nsolvers = spg:0\nM = 5\n")
    out = tmp_path / "out"
    res = CliRunner().invoke(cli_main, ["run", "--plan", str(plan_file), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--plan': line 4: M: " in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "out_name",
    ["taken", "taken/sub", "blocked"],
    ids=["a-file", "under-a-file", "records-csv-a-directory"],
)
def test_cli_run_rejects_an_unusable_out_before_any_run(tmp_path, monkeypatch, out_name):
    # a bad --out must cost no run of the plan
    started = []
    spg = SOLVERS["spg"]
    monkeypatch.setitem(SOLVERS, "spy", lambda p, fset, cfg: started.append(p) or spg(p, fset, cfg))
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("problems = beale2\nsets = box\nsolvers = spy:0\n")
    (tmp_path / "taken").write_text("not a directory\n")
    (tmp_path / "blocked" / "records.csv").mkdir(parents=True)
    out = tmp_path / out_name
    res = CliRunner().invoke(cli_main, ["run", "--plan", str(plan_file), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--out'" in res.output
    assert started == []


def test_cli_profile_reports_an_unwritable_out_in_one_line(tmp_path):
    records_csv = tmp_path / "records.csv"
    records_csv.write_text(records_to_csv([mk()]))
    out = tmp_path / "missing" / "profile.csv"
    res = CliRunner().invoke(cli_main, ["profile", "--records", str(records_csv), "--out", str(out)])
    assert res.exit_code == 1
    assert res.output.startswith("Error: cannot write --out: [Errno 2] No such file or directory")
    assert res.output.count("\n") == 1


def records_cli(tmp_path, command, records):
    """Run `bench <command>` on a records file holding `records`."""
    path = tmp_path / "records.csv"
    path.write_text(records if isinstance(records, str) else records_to_csv(records))
    extra = ["--out", str(tmp_path / "profile.csv")] if command == "profile" else []
    return CliRunner().invoke(cli_main, [command, "--records", str(path)] + extra)


def test_cli_profile_rejects_repeated_records(tmp_path):
    res = records_cli(tmp_path, "profile", [mk(), mk(iterations=20)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--records': repeated record for " in res.output


def test_cli_boundary_rejects_records_without_a_column(tmp_path):
    text = "\n".join(line.replace(",problem,", ",") for line in records_to_csv([mk()]).splitlines())
    res = records_cli(tmp_path, "boundary", text)
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--records': records CSV lacks columns ['problem']" in res.output


def test_cli_profile_rejects_a_truncated_records_file(tmp_path):
    text = cut_last_row(records_to_csv([mk()]), lambda f: f[:-1])
    res = records_cli(tmp_path, "profile", text)
    assert res.exit_code == 2, res.output
    assert res.output.splitlines()[-1] == (
        "Error: Invalid value for '--records': "
        "records CSV line 3 does not have the header's 13 fields"
    )


def test_cli_profile_names_the_cell_of_a_value_that_does_not_parse(tmp_path):
    text = cut_last_row(records_to_csv([mk()]), replace_cell("iterations", "five"))
    res = records_cli(tmp_path, "profile", text)
    assert res.exit_code == 2, res.output
    assert res.output.splitlines()[-1] == (
        "Error: Invalid value for '--records': "
        "records CSV line 3, column iterations: 'five' is not a valid int"
    )


def test_cli_profile_reports_no_solved_instance_in_one_line(tmp_path):
    res = records_cli(tmp_path, "profile", [mk(status="iter_limit")])
    assert res.exit_code == 1
    assert res.output == "Error: no instance was solved by any solver\n"
