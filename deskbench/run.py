"""Desk-sweep benchmark for curveopt.

    python3 deskbench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 deskbench/run.py --workload all --seed 0 --out results/

One workload per call prints each metric as `name value unit`, then a
last line of JSON with the keys correct, attempted, failed and metrics.
`--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer ones.
`--workload all` runs every workload in both modes, each in its own
process.  `--out` writes the results with their provenance: to a file for
one workload, to one file per workload and mode in a directory for `all`.
The exit code is 1 when an output check fails and 2 when the library is
not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def report(args, result: dict) -> int:
    """Print one workload's result, write its results file; the exit code."""
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in result["extra"].items():
        print(f"# {name} {json.dumps(value)}")
    for err in result["errors"]:
        print(f"# check failed: {err}")
    if args.out:
        record = {
            "provenance": args.provenance,
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "result": result,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, workloads) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    worst = 0
    for name in workloads:
        for trace in ("0", "1"):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", trace]
            if args.out:
                cmd += ["--out", str(Path(args.out) / f"{name}.trace{trace}.json")]
            print(f"# workload {name} trace {trace}", flush=True)
            worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    if not (SRC / "curveopt" / "__init__.py").is_file():
        print(f"curveopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curveopt

    if Path(curveopt.__file__).resolve().parent.parent != SRC:
        print(f"curveopt imported from {curveopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="results file, or directory for --workload all")
    args = ap.parse_args(argv)

    args.provenance = provenance(args.seed)
    print(f"# provenance {json.dumps(args.provenance)}")
    if args.workload == "all":
        return run_all(args, harness.WORKLOADS)
    measure = harness.measure_traced if args.trace else harness.measure
    return report(args, measure(harness.WORKLOADS[args.workload], args.seed, args.seconds))


if __name__ == "__main__":
    sys.exit(main())
