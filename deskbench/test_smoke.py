"""Fast smoke test of the benchmark on a tiny plan.

    python -m pytest deskbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = harness.Workload(
    problems=("rosenbrock2", "quad_diag50"),
    sets=("box", "com"),
    solvers=(("scs", 0), ("spg", 10)),
)


@pytest.mark.parametrize(
    "measure, kind",
    [(harness.measure, "end_to_end"), (harness.measure_traced, "per_layer")],
)
def test_every_metric_is_emitted_with_its_unit(measure, kind):
    result = measure(TINY, seed=3, seconds=0.1)
    assert result["correct"], result["errors"]
    assert result["attempted"] >= TINY.size and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_traced_self_times_add_up_to_traced_wall():
    metrics = harness.measure_traced(TINY, seed=3, seconds=0.1)["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    layers = [
        "problems.f.self_s",
        "problems.grad.self_s",
        "sets.g.self_s",
        "sets.project.self_s",
        "curves.certificate.self_s",
        "solvers.loop.self_s",
        "solvers.stationarity.self_s",
        "solvers.curve_search.self_s",
        "solvers.adaptive_momentum.self_s",
        "bench.run_plan.self_s",
        "bench.records.self_s",
        "bench.profile.self_s",
        "trace.remainder_s",
    ]
    assert sum(value[k] for k in layers) == pytest.approx(value["trace.wall_s"], rel=1e-9)
    assert value["sets.project.com.self_s"] > 0.0
    assert value["sets.project.sph.self_s"] == 0.0


def test_output_checks_catch_bad_runs():
    tally = harness.Tally(TINY, seed=3)
    records = harness.run_pass(tally.plan, record_trace=False)
    reference = {harness.run_key(r): (r.status, r.iterations) for r in records}
    assert not harness.failed_runs(records, tally.expected, tally.f_start, reference)

    broken = [
        dataclasses.replace(records[0], status="search_failure"),
        dataclasses.replace(records[1], max_g_final=1.0),
        dataclasses.replace(records[2], f_star=math.nan),
        dataclasses.replace(records[3], iterations=records[3].iterations + 1),
    ]
    bad = harness.failed_runs(
        broken + records[5:], tally.expected, tally.f_start, reference
    )
    assert bad == {harness.run_key(r) for r in records[:5]}


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
