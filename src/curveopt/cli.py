"""Command-line benchmark harness.

    bench run --plan plan.txt --out results/
    bench profile --records results/records.csv --metric time --out profile.csv
                  [--tau-max T] [--tau-points N]
    bench boundary --records results/records.csv [--tol T]
"""

from __future__ import annotations

import contextlib
import math
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
from .errors import EmptyProfileError, PlanError


@contextlib.contextmanager
def _records_errors():
    """Report a records file the library rejects as a usage error on --records."""
    try:
        yield
    except EmptyProfileError as exc:  # a ValueError, but the file is well formed
        raise click.ClickException(str(exc)) from exc
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--records'") from exc


@click.group()
def main():
    """Benchmark harness for the constrained curve-search solvers."""


@main.command("run")
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def run_cmd(plan_path, out_dir):
    """Run a benchmark plan and write records.csv."""
    try:
        plan = parse_plan(pathlib.Path(plan_path).read_text())
        plan.validate()
    except PlanError as exc:
        raise click.BadParameter(str(exc), param_hint="'--plan'") from exc
    # opened before any run, so an unusable --out does not cost the plan's runs
    out = pathlib.Path(out_dir)
    target = out / "records.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        records_file = target.open("w")
    except OSError as exc:
        raise click.BadParameter(str(exc), param_hint="'--out'") from exc
    with records_file:
        records = run_plan(plan)
        records_file.write(records_to_csv(records))
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
@click.option("--tau-max", default=10.0, show_default=True, type=click.FloatRange(min=1.0))
@click.option("--tau-points", default=200, show_default=True, type=click.IntRange(min=1))
def profile_cmd(records_path, metric, out_path, tau_max, tau_points):
    """Compute performance-profile data from a records CSV."""
    if not math.isfinite(tau_max):  # FloatRange lets nan and inf through
        raise click.BadParameter(f"{tau_max} is not finite", param_hint="'--tau-max'")
    step = (tau_max - 1.0) / max(1, tau_points - 1)
    grid = [1.0 + i * step for i in range(tau_points)]
    with _records_errors():
        records = records_from_csv(pathlib.Path(records_path).read_text())
        table = performance_profile(records, metric, grid)
    try:
        pathlib.Path(out_path).write_text(table.to_csv())
    except OSError as exc:
        raise click.ClickException(f"cannot write --out: {exc}") from exc
    click.echo(
        f"profile over {len(table.included_instances)} instances, "
        f"{len(table.rho)} solvers -> {out_path}"
    )


@main.command("boundary")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-5, show_default=True)
def boundary_cmd(records_path, tol):
    """List instances whose best solution lies on the feasible boundary."""
    with _records_errors():
        records = records_from_csv(pathlib.Path(records_path).read_text())
    try:
        instances = boundary_subset(records, tol=tol)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--tol'") from exc
    for problem, fset in instances:
        click.echo(f"{problem},{fset}")


if __name__ == "__main__":
    main()
