"""The README's plan and Python examples run as written, its lists of
`SolverConfig` fields name the fields there are, and its CLI block names
the options each `bench` command has."""

import contextlib
import io
import pathlib
import re
from dataclasses import fields

from curveopt.bench import parse_plan
from curveopt.cli import main as cli_main
from curveopt.solvers import SolverConfig

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
FENCED = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
NUMBER_WORDS = "zero one two three four five six seven eight nine ten eleven".split()


def test_readme_plan_example_validates():
    (plan,) = [body for _, body in FENCED if body.startswith("problems =")]
    parse_plan(plan).validate()


def test_readme_python_example_runs_to_stationary():
    (code,) = [body for lang, body in FENCED if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().split()[0] == "stationary"


def test_readme_lists_exactly_the_config_fields():
    # the Library list names every field, the plan section every one but M
    names = [f.name for f in fields(SolverConfig)]
    library = re.search(r"`SolverConfig` holds only the settings a caller varies:(.*?);", README, re.S)
    assert re.findall(r"`(\w+)`", library[1]) == names
    plan = re.search(r"override the (\w+) `SolverConfig` fields other than `M` \((.*?)\)", README, re.S)
    overridable = [name for name in names if name != "M"]
    assert re.findall(r"`(\w+)`", plan[2]) == overridable
    # both counts of them, in the text and in the plan example's comment
    assert re.findall(r"(\w+) overridable", README) == [plan[1]]
    assert NUMBER_WORDS.index(plan[1]) == len(overridable)


def test_readme_cli_block_names_exactly_the_options_of_each_command():
    (block,) = [body for lang, body in FENCED if lang == "sh" and body.startswith("bench ")]
    lines = block.splitlines()
    assert [line.split()[1] for line in lines] == list(cli_main.commands)
    for line in lines:
        command = cli_main.commands[line.split()[1]]
        options = [opt for param in command.params for opt in param.opts]
        assert re.findall(r"--[\w-]+", line) == options, line
