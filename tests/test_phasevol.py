"""Phase-space volumes, remainder functionals, and sublevel measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from weyllab import phasevol
from weyllab.phasevol import (
    ContainmentFault,
    DegenerateCriticalPoint,
    ReducedSymbol,
    near_critical_volume,
    poly_sublevel_measure,
    remainder_functional,
    verify_sublevel_lemma,
    weyl_volume,
)
from weyllab.symbols import (
    MODEL_REGISTRY,
    PolynomialCoefficient,
    SymbolModel,
    _schrodinger,
    make_model,
)


def test_harmonic_disk_volume():
    # {x^2 + xi^2 < E} is a disk of area pi E
    m = make_model("harmonic")
    est = weyl_volume(ReducedSymbol(m), 1.0)
    assert est.method == "tensor_grid"
    assert est.value == pytest.approx(math.pi, abs=1e-4)


def test_separable_harmonic_ball_volume():
    # {|x|^2 + |xi|^2 < 1} is the unit 4-ball of volume pi^2/2; the default
    # budget of 2^20 x nodes is a 1024^2 grid
    m = make_model("separable_harmonic_2d")
    est = weyl_volume(ReducedSymbol(m), 1.0)
    assert est.method == "tensor_grid"
    assert est.sample_count == 1024**2
    assert est.value == pytest.approx(math.pi**2 / 2, abs=1e-5)


def _exact_volume(name, e):
    """vol{a0 < e} in closed form for the registry models."""
    if name == "harmonic":
        return math.pi * e
    if name == "separable_harmonic_2d":
        return 0.5 * math.pi**2 * e**2
    # double well: over x1, (x2, xi) fills a 3-ball of radius
    # sqrt(e - (x1^2 - 1)^2)
    def ball(x):
        r2 = e - (x * x - 1.0) ** 2
        return 4.0 * math.pi / 3.0 * r2**1.5 if r2 > 0.0 else 0.0

    root = math.sqrt(e)
    lo = math.sqrt(1.0 - root) if root < 1.0 else 0.0
    return 2.0 * quad(ball, lo, math.sqrt(1.0 + root),
                      epsabs=1e-13, epsrel=1e-12, limit=200)[0]


@pytest.mark.parametrize(
    "name", ["harmonic", "separable_harmonic_2d", "double_well_2d"]
)
def test_volume_error_bounds_true_error(name):
    # the error is the gap to an independent grid with half as many nodes
    # per axis: positive, and at least the true error
    est = weyl_volume(ReducedSymbol(make_model(name)), 1.0)
    assert 0.0 < est.std_error
    assert abs(est.value - _exact_volume(name, 1.0)) <= est.std_error


def test_volume_monotone_in_energy():
    m = make_model("double_well_2d")
    reduced = ReducedSymbol(m, budget=2**16)
    vals = [weyl_volume(reduced, e).value for e in (0.5, 1.0, 1.5)]
    assert vals[0] < vals[1] < vals[2]


def test_shell_volume_annulus():
    # every shell {|x^2 + xi^2 - E'| <= h} is an annulus of area 2 pi h, so
    # the sup over E' adds exactly that to the h floor
    h = 0.05
    rem = remainder_functional(ReducedSymbol(make_model("harmonic")), 1.0, 0.1, h)
    assert rem.value == pytest.approx(h + 2 * math.pi * h, rel=1e-3)


@pytest.mark.parametrize("name", ["harmonic", "separable_harmonic_2d"])
@pytest.mark.parametrize("box", [{"box_x": 1.0}, {"box_xi": 1.0}])
def test_containment_fault(name, box):
    # the unit sublevel set and the shells near E = 0.9 reach the 2% edge
    # band of a unit position or momentum box
    reduced = ReducedSymbol(make_model(name, **box))
    with pytest.raises(ContainmentFault):
        weyl_volume(reduced, 1.0)
    with pytest.raises(ContainmentFault):
        remainder_functional(reduced, 0.9, 0.1, 0.05)


def test_only_the_top_shell_edge_faults():
    # with box_xi = 1 the sublevel fibers of x^2 + xi^2 reach sqrt(level):
    # E = 0.9 itself reaches 0.949 < 0.98, and so does every shell edge up
    # to E + h^0.9 + h = 0.926 at h = 0.01; at h = 0.05 only the top edge
    # 1.0175 reaches past 0.98 (to 1.0087)
    reduced = ReducedSymbol(make_model("harmonic", box_xi=1.0))
    weyl_volume(reduced, 0.9)
    with pytest.raises(ContainmentFault):
        remainder_functional(reduced, 0.9, 0.1, 0.05)
    remainder_functional(reduced, 0.9, 0.1, 0.01)


def _shifted_harmonic(shift, potential, **box):
    # a0 = xi^2 + 2 shift(x) xi + potential(x), fiber vertex at -shift(x)
    def poly(terms):
        return PolynomialCoefficient(terms, 1)

    return SymbolModel(
        dimension=1,
        coefficients={
            ((1,), (1,)): poly({(0,): 1.0}),
            ((1,), (0,)): poly(shift),
            ((0,), (1,)): poly(shift),
            ((0,), (0,)): poly(potential),
        },
        ellipticity_constant=1.0,
        **box,
    )


def test_sheared_fibers_keep_disk_and_annulus():
    # (xi + x/2)^2 + x^2 is the harmonic symbol after a shear of phase
    # space, so it keeps the disk area pi E and the shell area 2 pi h
    reduced = ReducedSymbol(_shifted_harmonic({(1,): 0.5}, {(2,): 1.25}))
    assert weyl_volume(reduced, 1.0).value == pytest.approx(math.pi, abs=1e-4)
    h = 0.05
    rem = remainder_functional(reduced, 1.0, 0.1, h)
    assert rem.value == pytest.approx(h + 2 * math.pi * h, rel=1e-3)


def test_fiber_outside_the_momentum_box_faults():
    # {(xi - 3)^2 + x^2 < 1} lies at xi in (2, 4), beyond box_xi = 2
    reduced = ReducedSymbol(
        _shifted_harmonic({(0,): -3.0}, {(2,): 1.0, (0,): 9.0})
    )
    with pytest.raises(ContainmentFault):
        weyl_volume(reduced, 1.0)


@pytest.mark.parametrize("name", ["double_well_2d", "separable_harmonic_2d"])
def test_closed_form_matches_exact_volumes(name):
    # the volume and every shell of the sup against the exact sublevel
    # volumes, on the sup's own E'-grid
    reduced = ReducedSymbol(make_model(name))
    est = weyl_volume(reduced, 1.0)
    assert est.value == pytest.approx(_exact_volume(name, 1.0), rel=1e-5)
    for h in (0.1, 0.05, 0.025):
        rem = remainder_functional(reduced, 1.0, 0.1, h)
        half = h**0.9
        n_grid = int(math.ceil(4.0 * h ** (-0.1))) + 1
        grid = np.linspace(1.0 - half, 1.0 + half, n_grid)
        shells = [_exact_volume(name, e + h) - _exact_volume(name, e - h)
                  for e in grid]
        assert rem.value == pytest.approx(h + max(shells), rel=1e-5)
        assert rem.argmax_energy == grid[int(np.argmax(shells))]
        assert rem.grid_size == n_grid


_FIBER_MODELS = {
    **{name: lambda name=name: make_model(name) for name in MODEL_REGISTRY},
    "sheared_harmonic": lambda: _shifted_harmonic({(1,): 0.5}, {(2,): 1.25}),
}


@pytest.mark.parametrize("name", sorted(_FIBER_MODELS))
def test_hessian_has_d_positive_eigenvalues(name):
    # Haynsworth: the xi-xi block of Hess a0 is 2G, so Hess a0 has at least
    # d positive eigenvalues wherever G is positive definite
    model = _FIBER_MODELS[name]()
    d = model.dimension
    pts = model.sample_box(500, np.random.default_rng(5))
    hess = model.hessian(pts)
    G, _, _ = phasevol._quadratic_parts(model, pts[:, :d])
    for j in range(d):
        for k in range(d):
            np.testing.assert_allclose(hess[:, d + j, d + k], 2 * G[j][k],
                                       rtol=1e-12, atol=1e-12)
    positive = (np.linalg.eigvalsh(hess) > 0).sum(axis=1)
    assert positive.min() >= d


@pytest.mark.parametrize("name", sorted(_FIBER_MODELS))
def test_fiber_coefficients_match_symbol_values(name):
    # the term-table read against the symbol itself: xi.G xi + b.xi + c at
    # random momenta, and the minimum m over the fiber attained at the
    # centre xi*, where the momentum gradient vanishes
    model = _FIBER_MODELS[name]()
    d = model.dimension
    rng = np.random.default_rng(3)
    x = rng.uniform(-model.box_x, model.box_x, size=(2**12, d))
    G, b, c = phasevol._quadratic_parts(model, x)
    for _ in range(3):
        xi = rng.uniform(-model.box_xi, model.box_xi, size=(len(x), d))
        quadratic = c + sum(
            b[j] * xi[:, j]
            + sum(G[j][k] * xi[:, j] * xi[:, k] for k in range(d))
            for j in range(d)
        )
        got = model.value(np.hstack([x, xi]))
        assert np.all(np.abs(got - quadratic) <= 1e-13 * (1.0 + np.abs(got)))
    _, _, _, centre, minimum = phasevol._ellipsoids(G, b, c)
    at_centre = np.hstack([x, np.zeros_like(x)])
    for j in range(d):
        at_centre[:, d + j] = centre[j]  # a number centre broadcasts
    np.testing.assert_allclose(model.value(at_centre), minimum,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.gradient(at_centre)[:, d:], 0.0,
                               atol=1e-12)


def test_fourth_order_symbol_rejected():
    # xi^4 + x^2 has quartic momentum fibers: no module could treat it, so
    # the model itself is refused
    with pytest.raises(NotImplementedError, match="second-order"):
        SymbolModel(
            dimension=1,
            coefficients={
                ((2,), (2,)): PolynomialCoefficient({(0,): 1.0}, 1),
                ((0,), (0,)): PolynomialCoefficient({(2,): 1.0}, 1),
            },
            ellipticity_constant=1.0,
        )


def test_remainder_functional_floor_and_grid():
    m = make_model("harmonic")
    rem = remainder_functional(ReducedSymbol(m), 1.0, 0.1, 0.05)
    assert rem.value >= 0.05
    assert rem.grid_size >= math.ceil(4 * 0.05 ** (-0.1)) + 1
    assert abs(rem.argmax_energy - 1.0) <= 0.05 ** (1 - 0.1) + 1e-12


def test_remainder_functional_near_linear_in_h():
    m = make_model("harmonic")
    reduced = ReducedSymbol(m)
    vals = {h: remainder_functional(reduced, 1.0, 0.1, h).value
            for h in (0.02, 0.04)}
    assert vals[0.04] == pytest.approx(2 * vals[0.02], rel=0.1)


def test_near_critical_volume_small():
    m = make_model("double_well_2d")
    est = near_critical_volume(m, 0.05, 0.4, cbar=1.5, energy=1.0)
    assert 0 < est.value < 1.0  # localized tube, small next to box volume


def test_near_critical_volume_shrinks_with_h():
    m = make_model("double_well_2d")
    hi = near_critical_volume(m, 0.08, 0.4, cbar=1.5, energy=1.0).value
    lo = near_critical_volume(m, 0.02, 0.4, cbar=1.5, energy=1.0).value
    assert lo < hi


@pytest.mark.parametrize("h", [0.08, 0.02])
def test_near_critical_volume_rejects_degenerate_centre(h):
    # V = x1^4 + x2^2: the Hessian at the origin has a null direction, so
    # the inner box 1.5 cbar h^delta0 / sigma_min would be unbounded
    m = _schrodinger("quartic", 2, {(4, 0): 1.0, (0, 2): 1.0}, 1.8, {})
    with pytest.raises(DegenerateCriticalPoint, match="least singular value"):
        near_critical_volume(m, h, 0.4, cbar=1.5, energy=0.0)


def test_poly_sublevel_linear_exact():
    # |s| < tau on [-1, 1]: measure 2 tau
    q = poly_sublevel_measure([0.0, 1.0], 0.25, (-1.0, 1.0))
    assert q == pytest.approx(0.5, abs=1e-12)


def test_poly_sublevel_quadratic_exact():
    # |s^2 - 1/4| < 3/16 on [-1, 1]: s^2 in (1/16, 7/16)
    q = poly_sublevel_measure([-0.25, 0.0, 1.0], 3.0 / 16.0, (-1.0, 1.0))
    expect = 2 * (math.sqrt(7.0 / 16.0) - 0.25)
    assert q == pytest.approx(expect, abs=1e-10)


def test_poly_sublevel_rejects_bad_input():
    with pytest.raises(ValueError):
        poly_sublevel_measure([1.0], 0.1, (-1, 1))  # constant
    with pytest.raises(ValueError):
        poly_sublevel_measure([0.0, 1.0], -0.1, (-1, 1))


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(1, 6),
    lower=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    lead=st.floats(0.5, 2),
    tau=st.floats(0.01, 0.5),
)
def test_poly_sublevel_matches_dense_scan(degree, lower, lead, tau):
    coeffs = lower[:degree] + [lead]
    q = poly_sublevel_measure(coeffs, tau, (-3.0, 3.0))
    s = np.linspace(-3.0, 3.0, 200_001)
    vals = np.abs(np.polynomial.polynomial.polyval(s, coeffs))
    approx = np.mean(vals < tau) * 6.0
    assert q == pytest.approx(approx, abs=2e-3)


@pytest.mark.parametrize("tau", [1e-4, 0.01, 0.1, 0.3])
def test_poly_sublevel_tangency(tau):
    # F = tau - s^2: F - tau = -s^2 touches zero at s = 0 without a sign
    # change, so |F| < tau on all of |s| < sqrt(2 tau) but the point 0
    q = poly_sublevel_measure([tau, 0.0, -1.0], tau, (-1.0, 1.0))
    assert q == pytest.approx(2.0 * math.sqrt(2.0 * tau), rel=1e-9)


@pytest.mark.parametrize("tau", [1e-3, 0.01, 0.1])
def test_poly_sublevel_triple_root_sign_change(tau):
    # F = tau + (s - 0.2)^3: F - tau has a triple root at 0.2 where it
    # changes sign, and |F| < tau exactly for -(2 tau)^(1/3) < s - 0.2 < 0.
    # The expanded float coefficients move the triple root by ~1e-6.
    coeffs = [tau - 0.008, 0.12, -0.6, 1.0]
    q = poly_sublevel_measure(coeffs, tau, (-1.0, 1.0))
    assert q == pytest.approx((2.0 * tau) ** (1.0 / 3.0), rel=1e-5)


@pytest.mark.parametrize("h", [0.1, 1e-3])
def test_sublevel_extremal_attains_polya_constant(h):
    # with no random trials the calibrated constants are those of the
    # scaled Chebyshev extremals alone: Polya's 4 (m!/2)^(1/m)
    rep = verify_sublevel_lemma(random_seed=0, trials=0, h_grid=(h,))
    assert sorted(rep.constants) == [1, 2, 3, 4, 5]
    for m, c in rep.constants.items():
        polya = 4.0 * (math.factorial(m) / 2.0) ** (1.0 / m)
        assert c == pytest.approx(polya, rel=1e-7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poly_sublevel_degree_15_matches_dense_scan(seed):
    rng = np.random.default_rng(seed)
    coeffs = list(rng.uniform(-1.0, 1.0, size=16))
    q = poly_sublevel_measure(coeffs, 0.3, (-1.0, 1.0))
    s = np.linspace(-1.0, 1.0, 200_001)
    vals = np.abs(np.polynomial.polynomial.polyval(s, coeffs))
    approx = np.mean(vals < 0.3) * 2.0
    assert 0.0 < q < 2.0
    assert q == pytest.approx(approx, abs=2e-3)


def test_sublevel_lemma_verification():
    rep = verify_sublevel_lemma(random_seed=7, trials=50)
    assert rep.ok
    assert rep.violations == ()
    assert set(rep.constants) <= set(range(1, 6))
    assert rep.max_ratio <= 1.0 + 1e-9
