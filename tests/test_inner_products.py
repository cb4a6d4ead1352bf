"""Every inner product of the library goes through `sets._squared_norm` or
`sets._dot`, so a change to how inner products are formed (their summation
order, say) changes those two bodies and nothing else."""

import ast
import pathlib

import curveopt

HELPERS = {"_squared_norm", "_dot"}


def inner_products_outside_the_helpers(source: str) -> list[int]:
    """Line numbers of the `.dot(...)` calls and `@` products of `source`
    that lie outside a function named in HELPERS."""
    found = []

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in HELPERS
        is_dot = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dot"
        )
        is_matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        )
        if (is_dot or is_matmul) and not inside:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(source), False)
    return found


def test_the_guard_finds_a_dot_outside_the_helpers():
    source = (
        "def _dot(a, b):\n    return a.dot(b)\n"
        "def spectral(r, y):\n    return r.dot(y) / (r @ r)\n"
        "x = np.dot(a, b)\n"
    )
    assert inner_products_outside_the_helpers(source) == [4, 4, 5]


def test_every_inner_product_of_the_library_goes_through_the_two_helpers():
    package = pathlib.Path(curveopt.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := inner_products_outside_the_helpers(path.read_text()))
    }
    assert found == {}
