"""The README's plan and Python examples run as written."""

import contextlib
import io
import pathlib
import re

from curveopt.bench import parse_plan

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
FENCED = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_plan_example_validates():
    (plan,) = [body for _, body in FENCED if body.startswith("problems =")]
    parse_plan(plan).validate()


def test_readme_python_example_runs_to_stationary():
    (code,) = [body for lang, body in FENCED if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().split()[0] == "stationary"
