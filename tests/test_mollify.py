"""Mollifier construction, moment defects, and regularization rates."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from weyllab import mollify
from weyllab.mollify import (
    EXACT_ANNIHILATION,
    MOMENT_TOL,
    admissible_delta0,
    build_mollifier,
    fit_smoothing_exponents,
    holder_test_field,
    regularize,
)
from weyllab.operators import GridSpec, assemble
from weyllab.symbols import (
    MODEL_REGISTRY,
    Coefficient,
    PolynomialCoefficient,
    make_model,
)


def test_admissible_delta0_open_interval():
    assert admissible_delta0(0.41, 0.5)
    assert not admissible_delta0(0.4, 0.5)  # 1/(2+0.5) = 0.4 exactly
    assert not admissible_delta0(0.5, 0.5)
    assert admissible_delta0(0.49, 2.0)


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_moments(d):
    # the convolution rule is the radial rule that solves for (c0, c2), in
    # mirror pairs: mass 1 and moments 1-2 equal 0 to rounding, with no
    # correction of the weights
    tol = 1e-14
    kernel = build_mollifier(d)
    nodes = kernel.rule[0]
    pts = np.concatenate([nodes, -nodes])
    vals = np.concatenate([kernel.weights, kernel.weights])
    assert abs(vals.sum() - 1.0) <= tol  # unit mass
    for j in range(d):
        assert abs((vals * pts[:, j]).sum()) <= tol
        for k in range(d):
            assert abs((vals * pts[:, j] * pts[:, k]).sum()) <= tol


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_radial_rule_matches_adaptive_quadrature(d, k):
    def integrand(r):
        bump = math.exp(-1.0 / (1.0 - r * r)) if r < 1.0 else 0.0
        return r ** (k + d - 1) * bump

    ref, _ = quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    value = mollify._radial_integral(d, k)
    assert value == pytest.approx(mollify._sphere_area(d) * ref, rel=1e-13)


def test_one_kernel_per_dimension():
    for d in (1, 2):
        assert build_mollifier(d) is build_mollifier(d)
    assert build_mollifier(1) is not build_mollifier(2)


def test_quadrature_rule_built_once_per_kernel(monkeypatch):
    # six h values and orders 0-3 share one rule, one set of kernel weights
    # and one set of g' weights
    kernel = build_mollifier.__wrapped__(1)  # fresh, not the cached one
    calls = {"_radial_rule": 0, "__call__": 0, "profile_derivative": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(mollify, "_radial_rule")
    counting(mollify.MollifierKernel, "__call__")
    counting(mollify.MollifierKernel, "profile_derivative")
    a = holder_test_field(0.5)
    x = np.linspace(-0.5, 0.5, 11)[:, None]
    for h in np.geomspace(0.1, 0.01, 6):
        reg = regularize(a, h, 0.41, kernel)
        for order in range(4):
            reg.derivative(x, order)
    assert calls == {"_radial_rule": 1, "__call__": 1, "profile_derivative": 1}


@pytest.mark.parametrize("h", [0.1, 0.01])
def test_even_coefficient_regularizes_mirror_exactly(h):
    # each mirror pair is summed before it is weighted, so an even base
    # gives bit-identical values at x and -x, and its odd derivatives
    # exactly negated ones, wherever x and -x sit in the block.  Within
    # 0.6 + h^0.41 < 1 of 0 the field's cutoff is 1, so every derivative
    # of the base (its second by central differences) is even or odd bit
    # for bit
    reg = regularize(holder_test_field(0.5), h, 0.41, build_mollifier(1))
    x = np.random.default_rng(5).uniform(0.0, 0.6, (37, 1))
    x = np.concatenate([x, -x[::-1]])
    for order in range(4):
        got = reg.derivative(x, order)
        np.testing.assert_array_equal(got, (-1) ** order * got[::-1])


def test_derivative_orders_above_three_are_refused():
    x = np.array([[0.1]])
    reg = regularize(holder_test_field(0.5), 0.1, 0.41, build_mollifier(1))
    poly = PolynomialCoefficient({(4,): 1.0}, 1)
    with pytest.raises(ValueError, match="above 3"):
        reg.derivative(x, 4)
    with pytest.raises(ValueError, match="above 3"):
        poly.derivative(x, 4)
    with pytest.raises(ValueError, match="above 3"):
        fit_smoothing_exponents(poly, 4, [0.1, 0.07, 0.05, 0.035], 0.41)


def test_kernel_compact_support():
    kernel = build_mollifier(1)
    far = np.array([[1.5], [-2.0], [1.0001]])
    np.testing.assert_array_equal(kernel(far), 0.0)


def test_regularize_reproduces_quadratics():
    # unit mass + vanishing moments 1-2 => polynomials of degree <= 2 are
    # reproduced exactly by the convolution
    kernel = build_mollifier(1)
    quadratic = PolynomialCoefficient({(0,): 1.5, (1,): -2.0, (2,): 0.75}, 1)
    reg = regularize(quadratic, 0.1, 0.41, kernel)
    assert reg.terms == quadratic.terms
    x = np.linspace(-1, 1, 17)[:, None]
    np.testing.assert_array_equal(reg.value(x), quadratic.value(x))
    np.testing.assert_array_equal(reg.grad(x), quadratic.grad(x))


def test_double_well_regularizes_to_fourth_moment_shift():
    # p * gamma_s = p + s^4 m40 (d^4 p / d x1^4) / 4! = p + s^4 m40 for the
    # double well: odd and second moments vanish, and only x1^4 has order 4
    kernel = build_mollifier(2)
    pot = make_model("double_well_2d").coefficients[((0, 0), (0, 0))]
    h, delta0 = 0.07, 0.41
    reg = regularize(pot, h, delta0, kernel)

    def bump(r):
        return math.exp(-1.0 / (1.0 - r * r)) if r < 1.0 else 0.0

    # m40 = (mean of cos^4 on the circle) * 2 pi * int r^4 gamma(r) r dr
    radial, _ = quad(
        lambda r: r**5 * (kernel.c0 + kernel.c2 * r * r) * bump(r),
        0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    m40 = 3.0 / 8.0 * 2.0 * math.pi * radial
    shift = h ** (4 * delta0) * m40
    assert abs(shift) > 1e-4
    assert set(reg.terms) == set(pot.terms)
    assert abs(reg.terms[(0, 0)] - (pot.terms[(0, 0)] + shift)) <= 1e-13
    for expo in ((4, 0), (2, 0), (0, 2)):
        assert reg.terms[expo] == pot.terms[expo]


def test_quadrature_path_reproduces_quadratics():
    # a plain Coefficient takes the quadrature path; its rule's moments of
    # order <= 2 are exact, so a quadratic comes back unchanged
    def value(x):
        return x[:, 0] ** 2 + x[:, 0] * x[:, 1]

    def grad(x):
        return np.stack([2 * x[:, 0] + x[:, 1], x[:, 0]], axis=1)

    def hess(x):
        return np.broadcast_to([[2.0, 1.0], [1.0, 0.0]], (len(x), 2, 2))

    quadratic = Coefficient(value, grad, hess)
    reg = regularize(quadratic, 0.07, 0.41, build_mollifier(2))
    assert isinstance(reg, mollify.RegularizedCoefficient)
    x = np.random.default_rng(3).uniform(-1.5, 1.5, size=(200, 2))
    np.testing.assert_allclose(reg.value(x), value(x), rtol=0, atol=1e-13)
    np.testing.assert_allclose(reg.grad(x), grad(x), rtol=0, atol=1e-13)


def test_polynomial_models_assemble_without_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial coefficient convolved by quadrature")

    monkeypatch.setattr(mollify, "RegularizedCoefficient", refuse)
    models = [make_model(name) for name in sorted(MODEL_REGISTRY)]
    polynomial = [
        m for m in models
        if all(isinstance(c, PolynomialCoefficient)
               for c in m.coefficients.values())
    ]
    assert {m.name for m in polynomial} >= {
        "harmonic", "separable_harmonic_2d", "double_well_2d"
    }
    for m in polynomial:
        grid = GridSpec(m.box_x, 16)
        op = assemble(m, 0.1, 0.41, grid, variant="minus",
                      strict_resolution=False)
        assert op.size == 16**m.dimension


@pytest.mark.parametrize("order", [1])
def test_profile_derivative_matches_central_difference(order):
    kernel = build_mollifier(1)
    lower = kernel.profile_derivative(order - 1)
    exact = kernel.profile_derivative(order)
    z = np.linspace(-0.9, 0.9, 37)
    eps = 1e-5
    central = (lower(z + eps) - lower(z - eps)) / (2 * eps)
    scale = np.abs(exact(z)).max()
    np.testing.assert_allclose(exact(z), central, atol=1e-8 * scale)


def test_regularize_rejects_bad_delta0():
    kernel = build_mollifier(1)
    quad = PolynomialCoefficient({(2,): 1.0}, 1)
    with pytest.raises(ValueError):
        regularize(quad, 0.1, 0.4, kernel, r0=0.5)
    with pytest.raises(ValueError):
        regularize(quad, 0.1, 0.55, kernel)
    with pytest.raises(ValueError):
        regularize(quad, -0.1, 0.41, kernel)


def test_holder_field_regularity():
    a = holder_test_field(0.5)
    x = np.linspace(-0.5, 0.5, 101)[:, None]
    np.testing.assert_allclose(a.value(x), np.abs(x[:, 0]) ** 2.5, atol=1e-12)
    # second derivative is 0.5-Hoelder but not Lipschitz at 0
    h2 = a.hess(x)[:, 0, 0]
    assert np.all(np.isfinite(h2))


def test_exact_annihilation_marker():
    quad = PolynomialCoefficient({(2,): 1.0, (0,): 1.0}, 1)
    got = fit_smoothing_exponents(quad, 0, [0.1, 0.07, 0.05, 0.035, 0.025], 0.41)
    assert got[0] == EXACT_ANNIHILATION


def test_smoothing_rate_order_zero():
    # sup|a_h - a| ~ h^((2 + r0) delta0) on the cutoff plateau
    a = holder_test_field(0.5)
    h_grid = np.geomspace(0.1, 0.01, 6)
    fit, sups = fit_smoothing_exponents(a, 0, h_grid, 0.41, r0=0.5, n_samples=400)
    assert fit.slope == pytest.approx(2.5 * 0.41, abs=0.2)
    assert all(s > 0 for s in sups)


def test_derivative_order_three_grows():
    # |d^3 a_h| ~ h^(-delta0 (1 - r0)) for the Hoelder field: excess order
    # lands on the kernel and pays h^(-delta0) per derivative
    a = holder_test_field(0.5)
    kernel = build_mollifier(1)
    reg_fine = regularize(a, 0.01, 0.41, kernel)
    reg_coarse = regularize(a, 0.1, 0.41, kernel)
    x = np.array([[0.05]])
    assert abs(reg_fine.derivative(x, 3)[0]) > abs(
        reg_coarse.derivative(x, 3)[0]
    )


def test_moment_tolerance_constant():
    assert MOMENT_TOL == 1e-10
