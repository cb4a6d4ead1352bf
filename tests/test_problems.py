import itertools
import re

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


def square(t):
    return t * t


def cube(t):
    return t * t * t


def plain_diag_quadratic(n, center=None, scale=1.0):
    w = scale * np.arange(1, n + 1, dtype=float)
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    return (lambda x: float((w * (x - c) ** 2).sum()), lambda x: 2.0 * w * (x - c))


def plain_powell_grad(x):
    # cubes as products: an array's ** 3 goes to SVML on AVX-512
    x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
    g = np.zeros(x.shape)
    a = x1 + 10.0 * x2
    b = x3 - x4
    c = x2 - 2.0 * x3
    d = x1 - x4
    g[0::4] = 2.0 * a + 40.0 * (d * d * d)
    g[1::4] = 20.0 * a + 4.0 * (c * c * c)
    g[2::4] = 10.0 * b - 8.0 * (c * c * c)
    g[3::4] = -10.0 * b - 40.0 * (d * d * d)
    return g


def plain_powell_f(x):
    # fourth powers as squares of squares, for the same reason
    x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
    c2 = (x2 - 2.0 * x3) ** 2
    d2 = (x1 - x4) ** 2
    return float(
        ((x1 + 10.0 * x2) ** 2).sum()
        + 5.0 * ((x3 - x4) ** 2).sum()
        + (c2 * c2).sum()
        + 10.0 * (d2 * d2).sum()
    )


def plain_trigls(n):
    idx = np.arange(1, n + 1, dtype=float)

    def residuals(x):
        return n - np.cos(x).sum() + idx * (1.0 - np.cos(x)) - np.sin(x)

    def grad(x):
        r = residuals(x)
        s = np.sin(x)
        g = 2.0 * r.sum() * s
        g += 2.0 * r * (idx * s - np.cos(x))
        return g

    return lambda x: float((residuals(x) ** 2).sum()), grad


def plain_tridia(n, scale):
    idx = np.arange(2, n + 1, dtype=float)

    def f(x):
        r = 2.0 * x[1:] - x[:-1]
        return scale * float(square(x[0] - 1.0) + (idx * r**2).sum())

    def grad(x):
        r = 2.0 * x[1:] - x[:-1]
        g = np.zeros(x.shape)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 4.0 * idx * r
        g[:-1] += -2.0 * idx * r
        return scale * g

    return f, grad


def plain_engval_f(x):
    return float(((x[:-1] ** 2 + x[1:] ** 2) ** 2).sum() + (-4.0 * x[:-1] + 3.0).sum())


def plain_engval_grad(x):
    g = np.zeros(x.shape)
    g[:-1] += 4.0 * x[:-1] * (x[:-1] ** 2 + x[1:] ** 2) - 4.0
    g[1:] += 4.0 * x[1:] * (x[:-1] ** 2 + x[1:] ** 2)
    return g


def plain_arwhead_f(x):
    return float(((x[:-1] ** 2 + square(x[-1])) ** 2 - 4.0 * x[:-1] + 3.0).sum())


def plain_arwhead_grad(x):
    g = np.zeros(x.shape)
    g[:-1] = 4.0 * x[:-1] * (x[:-1] ** 2 + square(x[-1])) - 4.0
    g[-1] += (4.0 * x[-1] * (x[:-1] ** 2 + square(x[-1]))).sum()
    return g


def plain_rosenbrock_f(x):
    return 100.0 * square(x[1] - square(x[0])) + square(1.0 - x[0])


def plain_rosenbrock_grad(x):
    return np.array(
        [
            -400.0 * x[0] * (x[1] - square(x[0])) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - square(x[0])),
        ]
    )


def plain_chnrosnb(scale):
    def f(x):
        r = x[1:] - x[:-1] ** 2
        return scale * float(100.0 * (r**2).sum() + ((1.0 - x[:-1]) ** 2).sum())

    def grad(x):
        r = x[1:] - x[:-1] ** 2
        g = np.zeros(x.shape)
        g[:-1] += -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * r
        return scale * g

    return f, grad


def plain_beale_f(x):
    t1 = 1.5 - x[0] + x[0] * x[1]
    t2 = 2.25 - x[0] + x[0] * square(x[1])
    t3 = 2.625 - x[0] + x[0] * cube(x[1])
    return square(t1) + square(t2) + square(t3)


def plain_beale_grad(x):
    t1 = 1.5 - x[0] + x[0] * x[1]
    t2 = 2.25 - x[0] + x[0] * square(x[1])
    t3 = 2.625 - x[0] + x[0] * cube(x[1])
    g0 = (
        2.0 * t1 * (x[1] - 1.0)
        + 2.0 * t2 * (square(x[1]) - 1.0)
        + 2.0 * t3 * (cube(x[1]) - 1.0)
    )
    g1 = 2.0 * t1 * x[0] + 2.0 * t2 * 2.0 * x[0] * x[1] + 2.0 * t3 * 3.0 * x[0] * square(x[1])
    return np.array([g0, g1])


def plain_wood_f(x):
    return (
        100.0 * square(x[1] - square(x[0]))
        + square(1.0 - x[0])
        + 90.0 * square(x[3] - square(x[2]))
        + square(1.0 - x[2])
        + 10.0 * square(x[1] + x[3] - 2.0)
        + 0.1 * square(x[1] - x[3])
    )


def plain_wood_grad(x):
    g = np.zeros(4)
    g[0] = -400.0 * x[0] * (x[1] - square(x[0])) - 2.0 * (1.0 - x[0])
    g[1] = 200.0 * (x[1] - square(x[0])) + 20.0 * (x[1] + x[3] - 2.0) + 0.2 * (x[1] - x[3])
    g[2] = -360.0 * x[2] * (x[3] - square(x[2])) - 2.0 * (1.0 - x[2])
    g[3] = 180.0 * (x[3] - square(x[2])) + 20.0 * (x[1] + x[3] - 2.0) - 0.2 * (x[1] - x[3])
    return g


#: f and grad with every expression written where it is used, every
#: constant product left unfolded and every power but an array's square
#: written as a product, the closed forms on numpy's float64 scalars: the
#: references for the oracles that share subexpressions, fold constants at
#: build time or evaluate on Python floats
PLAIN_ORACLES = {
    "rosenbrock2": (plain_rosenbrock_f, plain_rosenbrock_grad),
    "beale2": (plain_beale_f, plain_beale_grad),
    "wood4": (plain_wood_f, plain_wood_grad),
    "chnrosnb4": plain_chnrosnb(1.0),
    "chnrosnb100": plain_chnrosnb(1.0 / 100.0),
    "quad_diag50": plain_diag_quadratic(50),
    "quad_diag500": plain_diag_quadratic(500, scale=1.0 / 500.0),
    "quad_shift50": plain_diag_quadratic(50, center=np.tile([2.0, -2.0], 25)),
    "powell20": (plain_powell_f, plain_powell_grad),
    "trigls10": plain_trigls(10),
    "engval50": (plain_engval_f, plain_engval_grad),
    "arwhead100": (plain_arwhead_f, plain_arwhead_grad),
    "tridia1000": plain_tridia(1000, 1.0 / 1000.0),
}


def test_every_problem_has_a_plain_reference():
    assert sorted(PLAIN_ORACLES) == sorted(p.name for p in list_problems())


@pytest.mark.parametrize("name", sorted(PLAIN_ORACLES))
def test_oracles_match_the_plain_formulas_bit_for_bit(name):
    p = get_problem(name)
    f, grad = PLAIN_ORACLES[name]
    rng = np.random.default_rng(11)
    points = [p.start, 0.7 * p.start] + [rng.uniform(-3.0, 3.0, p.dim) for _ in range(5)]
    for x in points:
        assert np.float64(p.f(x)).tobytes() == np.float64(f(x)).tobytes()
        assert p.grad(x).tobytes() == grad(x).tobytes()


def same_bits(got, want):
    """Byte equality, but a NaN of `want` is matched by any NaN: inf - inf
    may carry either sign bit."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


#: ±0, ±inf, a square that overflows (1e200) and a cube that does (1e103),
#: and 1.0, where a Rosenbrock term vanishes: at (1, 1) the x0 gradient term
#: is -0.0, which the np.zeros of a vector reference turns to +0.0
SPECIAL_ENTRIES = (0.0, -0.0, 1.0, 1.5, np.inf, -np.inf, 1e200, -1e200, 1e103, -1e103)


def special_points(n):
    """Every tuple of SPECIAL_ENTRIES for n <= 4, else each entry placed at
    the first, a middle and the last coordinate of a random point."""
    if n <= 4:
        return [np.array(x) for x in itertools.product(SPECIAL_ENTRIES, repeat=n)]
    base = np.random.default_rng(12).uniform(-3.0, 3.0, n)
    points = []
    for value in SPECIAL_ENTRIES:
        for i in (0, n // 2, n - 1):
            x = base.copy()
            x[i] = value
            points.append(x)
    return points


@pytest.mark.parametrize(
    "name", ["rosenbrock2", "beale2", "wood4", "chnrosnb4", "chnrosnb100", "powell20"]
)
def test_oracles_match_the_plain_formulas_at_special_entries(name):
    # a product that overflows is inf on Python floats and on numpy's
    # scalars alike, and inf - inf is nan on both: the oracles give numpy's
    # value and never raise
    p = get_problem(name)
    f, grad = PLAIN_ORACLES[name]
    with np.errstate(all="ignore"):
        for x in special_points(p.dim):
            assert same_bits(p.f(x), f(x)), x
            assert same_bits(p.grad(x), grad(x)), x


#: points per problem: 20,000, or fewer for the costlier vector forms
MANY_POINTS = {
    "rosenbrock2": 20000,
    "beale2": 20000,
    "wood4": 20000,
    "chnrosnb4": 20000,
    "powell20": 20000,
    "arwhead100": 10000,
    "tridia1000": 8000,
}


@pytest.mark.parametrize("name", list(MANY_POINTS))
def test_closed_forms_match_the_plain_formulas_at_many_points(name):
    # libm's pow rounds t ** 2 unlike t * t at about 1 value in 1,200, so
    # an oracle that kept ** on a scalar (arwhead100's last entry squared,
    # tridia1000's (x_0 - 1)^2) fails here.  Half of tridia1000's points lie
    # on its valley x_i = x_0 / 2^i, where every 2 x_i - x_{i-1} is 0 and f
    # is (x_0 - 1)^2 / n alone: elsewhere the sum's rounding hides that
    # square's
    p = get_problem(name)
    f, grad = PLAIN_ORACLES[name]
    rng = np.random.default_rng(13)
    points = rng.uniform(-3.0, 3.0, (MANY_POINTS[name], p.dim))
    if name == "tridia1000":
        points[::2, 1:] = points[::2, :1] * 0.5 ** np.arange(1, p.dim)
    for x in points:
        assert np.float64(p.f(x)).tobytes() == np.float64(f(x)).tobytes(), x
        assert p.grad(x).tobytes() == grad(x).tobytes(), x


@pytest.mark.parametrize(
    "name, x",
    [
        ("rosenbrock2", [1e200, 1.0]),
        ("beale2", [1e200, 1e200]),
        ("beale2", [1.0, 1e103]),
        ("wood4", [1.0, 1.0, 1e200, 1.0]),
    ],
)
def test_check_gradient_at_an_overflowing_point_raises(name, x):
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="analytic gradient"):
        check_gradient(get_problem(name), np.array(x), 1e-6)


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


@pytest.mark.parametrize("name", [p.name for p in list_problems()])
def test_a_point_of_another_shape_is_rejected(name):
    p = get_problem(name)
    for shape in ((p.dim - 1,), (p.dim + 1,), (1, p.dim)):
        message = re.escape(f"point for {name} has shape {shape}")
        for oracle in (p.f, p.grad):
            with pytest.raises(ValueError, match=f"^{message}$"):
                oracle(np.full(shape, 0.5))


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_check_gradient_rejects_a_non_finite_step(h):
    calls = []
    p = square_norm_with_gradient(lambda x: calls.append(x) or 2.0 * x)
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        check_gradient(p, np.ones(2), h)
    assert calls == []
