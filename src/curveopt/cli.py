"""Command-line benchmark harness.

    bench run --plan plan.txt --out results/ [--jobs N] [--seed S]
    bench profile --records results/records.csv --metric time --out profile.csv
    bench boundary --records results/records.csv [--tol T]
"""

from __future__ import annotations

import dataclasses
import pathlib

import click

from .bench import (
    STATUS_ERROR,
    boundary_subset,
    is_success,
    parse_plan,
    performance_profile,
    records_from_csv,
    records_to_csv,
    run_plan,
)


@click.group()
def main():
    """Benchmark harness for the constrained curve-search solvers."""


@main.command("run")
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--jobs", default=1, show_default=True)
@click.option("--seed", default=None, type=int, help="Override the plan's seed.")
def run_cmd(plan_path, out_dir, jobs, seed):
    """Run a benchmark plan and write records.csv."""
    plan = parse_plan(pathlib.Path(plan_path).read_text())
    if seed is not None:
        plan = dataclasses.replace(plan, seed=seed)
    records = run_plan(plan, jobs=jobs)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "records.csv"
    target.write_text(records_to_csv(records))
    ok = sum(1 for r in records if is_success(r))
    click.echo(f"{len(records)} runs ({ok} stationary) -> {target}")
    # records.csv has no column for the exception message
    for r in records:
        if r.status == STATUS_ERROR:
            click.echo(f"{r.solver_name}:{r.M} {r.problem_name}/{r.set_name}: {r.detail}", err=True)


@main.command("profile")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option(
    "--metric",
    type=click.Choice(["time", "fstar", "iters"]),
    default="time",
    show_default=True,
)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--tau-max", default=10.0, show_default=True)
@click.option("--tau-points", default=200, show_default=True)
def profile_cmd(records_path, metric, out_path, tau_max, tau_points):
    """Compute performance-profile data from a records CSV."""
    records = records_from_csv(pathlib.Path(records_path).read_text())
    step = (tau_max - 1.0) / max(1, tau_points - 1)
    grid = [1.0 + i * step for i in range(tau_points)]
    table = performance_profile(records, metric, grid)
    pathlib.Path(out_path).write_text(table.to_csv())
    click.echo(
        f"profile over {len(table.included_instances)} instances, "
        f"{len(table.rho)} solvers -> {out_path}"
    )


@main.command("boundary")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-5, show_default=True)
def boundary_cmd(records_path, tol):
    """List instances whose best solution lies on the feasible boundary."""
    records = records_from_csv(pathlib.Path(records_path).read_text())
    for problem, fset in boundary_subset(records, tol=tol):
        click.echo(f"{problem},{fset}")


if __name__ == "__main__":
    main()
