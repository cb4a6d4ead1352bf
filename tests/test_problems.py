import numpy as np
import pytest

from curveopt.errors import EvaluationError
from curveopt.problems import (
    SmoothProblem,
    check_gradient,
    get_problem,
    list_problems,
)


def test_suite_size_and_span():
    probs = list_problems()
    assert len(probs) >= 12
    dims = sorted(p.dim for p in probs)
    assert dims[0] == 2
    assert dims[-1] == 1000
    names = {p.name for p in list_problems()}
    # required families
    assert "rosenbrock2" in names
    assert {"chnrosnb4", "chnrosnb100"} <= names
    assert {"quad_diag50", "quad_diag500"} <= names
    assert "powell20" in names
    assert "trigls10" in names


def test_registry_lookup():
    p = get_problem("rosenbrock2")
    assert p.dim == 2
    with pytest.raises(KeyError):
        get_problem("nope")


def test_rosenbrock_minimizer():
    p = get_problem("rosenbrock2")
    assert p.f(np.array([1.0, 1.0])) == 0.0
    assert np.allclose(p.grad(np.array([1.0, 1.0])), [0.0, 0.0])


def test_rosenbrock_start_value():
    # 100*(1 - 1.44)^2 + (-2.2)^2 = 19.36 + 4.84
    p = get_problem("rosenbrock2")
    assert p.f(np.array([-1.2, 1.0])) == pytest.approx(24.2, abs=1e-12)
    assert np.allclose(p.start, [-1.2, 1.0])


def test_diag_quadratic_zero_at_origin():
    p = get_problem("quad_diag50")
    assert p.f(np.zeros(50)) == 0.0


def test_start_values_finite():
    for p in list_problems():
        assert np.isfinite(p.f(p.start))


def test_determinism():
    p = get_problem("trigls10")
    x = np.linspace(-1, 1, 10)
    assert p.f(x) == p.f(x)
    assert np.array_equal(p.grad(x), p.grad(x))


def test_check_gradient_quadratic_tight():
    p = get_problem("quad_diag50")
    x = np.full(50, 0.1)
    assert check_gradient(p, x, 1e-6) <= 1e-8


def test_check_gradient_rosenbrock():
    p = get_problem("rosenbrock2")
    assert check_gradient(p, np.array([0.5, 0.5]), 1e-6) <= 1e-5


def test_check_gradient_at_stationary_point():
    p = get_problem("rosenbrock2")
    # gradient vanishes at the minimizer, so the measure is absolute there
    assert check_gradient(p, np.array([1.0, 1.0]), 1e-6) <= 1e-7


def test_check_gradient_rejects_bad_step():
    p = get_problem("rosenbrock2")
    with pytest.raises(ValueError):
        check_gradient(p, np.zeros(2), 0.0)


def test_check_gradient_reports_domain_failure():
    bad = SmoothProblem(
        "halfline1",
        1,
        lambda x: float(np.sqrt(x[0])) if x[0] > 0 else float("nan"),
        lambda x: np.array([0.5 / np.sqrt(x[0])]) if x[0] > 0 else np.array([np.nan]),
        np.array([1.0]),
    )
    # the gradient is finite at x, but x - h lies outside the domain
    with pytest.raises(EvaluationError, match="non-finite objective near coordinate 0$"):
        check_gradient(bad, np.array([1e-7]), 1e-6)


def test_gradients_match_finite_differences_everywhere():
    for p in list_problems():
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, p.dim)
            err = check_gradient(p, x, 1e-6)
            assert err <= 1e-5, f"{p.name}: fd error {err:.2e}"
            if np.linalg.norm(p.grad(x)) < 1.0:
                assert err <= 1e-7, f"{p.name}: near-stationary fd error {err:.2e}"


def square_norm_with_gradient(grad):
    return SmoothProblem("sq2", 2, lambda x: float(np.dot(x, x)), grad, np.ones(2))


@pytest.mark.parametrize(
    "grad, entry",
    [
        (lambda x: np.array([np.nan, 2.0 * x[1]]), r"entry 0 is nan$"),
        (lambda x: np.array([2.0 * x[0], np.inf]), r"entry 1 is inf$"),
        (lambda x: np.full(2, np.nan), r"entry 0 is nan$"),
    ],
    ids=["nan-first", "inf-second", "all-nan"],
)
def test_check_gradient_rejects_non_finite_analytic_gradient(grad, entry):
    # max(worst, nan) keeps worst, so a NaN entry must be caught before it
    p = square_norm_with_gradient(grad)
    with pytest.raises(EvaluationError, match=entry):
        check_gradient(p, np.ones(2), 1e-6)


def test_gradient_of_another_shape_is_rejected():
    p = square_norm_with_gradient(lambda x: np.zeros(3))
    with pytest.raises(ValueError, match=r"^gradient of sq2 has shape \(3,\)$"):
        p.grad(np.ones(2))


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_check_gradient_rejects_a_non_finite_step(h):
    calls = []
    p = square_norm_with_gradient(lambda x: calls.append(x) or 2.0 * x)
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        check_gradient(p, np.ones(2), h)
    assert calls == []
