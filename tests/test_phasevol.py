"""Phase-space volumes, remainder functionals, and sublevel measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyllab import phasevol
from weyllab.operators import GridSpec, assemble
from weyllab.phasevol import (
    ContainmentFault,
    FiberCloud,
    near_critical_volume,
    poly_sublevel_measure,
    remainder_functional,
    verify_sublevel_lemma,
    weyl_volume,
)
from weyllab.symbols import (
    PolynomialCoefficient,
    SymbolModel,
    make_model,
)


def test_harmonic_disk_volume():
    # {x^2 + xi^2 < E} is a disk of area pi E
    m = make_model("harmonic")
    est = weyl_volume(FiberCloud(m), 1.0)
    assert est.method == "tensor_grid"
    assert est.value == pytest.approx(math.pi, abs=1e-4)


def test_separable_harmonic_ball_volume():
    # {|x|^2 + |xi|^2 < 1} is the unit 4-ball of volume pi^2/2
    m = make_model("separable_harmonic_2d")
    est = weyl_volume(FiberCloud(m, budget=2**18), 1.0)
    assert est.method == "monte_carlo"
    assert est.std_error > 0
    assert abs(est.value - math.pi**2 / 2) <= 3 * est.std_error


def test_volume_monotone_in_energy():
    m = make_model("double_well_2d")
    cloud = FiberCloud(m, budget=2**16)
    vals = [weyl_volume(cloud, e).value for e in (0.5, 1.0, 1.5)]
    assert vals[0] < vals[1] < vals[2]


def test_shell_volume_annulus():
    # every shell {|x^2 + xi^2 - E'| <= h} is an annulus of area 2 pi h, so
    # the sup over E' adds exactly that to the h floor
    h = 0.05
    rem = remainder_functional(FiberCloud(make_model("harmonic")), 1.0, 0.1, h)
    assert rem.value == pytest.approx(h + 2 * math.pi * h, rel=1e-3)


@pytest.mark.parametrize("name", ["harmonic", "separable_harmonic_2d"])
@pytest.mark.parametrize("box", [{"box_x": 1.0}, {"box_xi": 1.0}])
def test_containment_fault(name, box):
    # the unit sublevel set and the shells near E = 0.9 reach the 2% edge
    # band of a unit position or momentum box
    cloud = FiberCloud(make_model(name, **box))
    with pytest.raises(ContainmentFault):
        weyl_volume(cloud, 1.0)
    with pytest.raises(ContainmentFault):
        remainder_functional(cloud, 0.9, 0.1, 0.05)


def test_only_the_top_shell_edge_faults():
    # with box_xi = 1 the sublevel fibers of x^2 + xi^2 reach sqrt(level):
    # E = 0.9 itself reaches 0.949 < 0.98, and so does every shell edge up
    # to E + h^0.9 + h = 0.926 at h = 0.01; at h = 0.05 only the top edge
    # 1.0175 reaches past 0.98 (to 1.0087)
    cloud = FiberCloud(make_model("harmonic", box_xi=1.0))
    weyl_volume(cloud, 0.9)
    with pytest.raises(ContainmentFault):
        remainder_functional(cloud, 0.9, 0.1, 0.05)
    remainder_functional(cloud, 0.9, 0.1, 0.01)


def _shifted_harmonic(shift, potential, **box):
    # a0 = xi^2 + 2 shift(x) xi + potential(x), fiber vertex at -shift(x)
    def poly(terms):
        return PolynomialCoefficient(terms, 1)

    return SymbolModel(
        dimension=1,
        order=1,
        coefficients={
            ((1,), (1,)): poly({(0,): 1.0}),
            ((1,), (0,)): poly(shift),
            ((0,), (1,)): poly(shift),
            ((0,), (0,)): poly(potential),
        },
        ellipticity_constant=1.0,
        holder_exponent=0.5,
        **box,
    )


def test_sheared_fibers_keep_disk_and_annulus():
    # (xi + x/2)^2 + x^2 is the harmonic symbol after a shear of phase
    # space, so it keeps the disk area pi E and the shell area 2 pi h
    cloud = FiberCloud(_shifted_harmonic({(1,): 0.5}, {(2,): 1.25}))
    assert weyl_volume(cloud, 1.0).value == pytest.approx(math.pi, abs=1e-4)
    h = 0.05
    rem = remainder_functional(cloud, 1.0, 0.1, h)
    assert rem.value == pytest.approx(h + 2 * math.pi * h, rel=1e-3)


def test_fiber_outside_the_momentum_box_faults():
    # {(xi - 3)^2 + x^2 < 1} lies at xi in (2, 4), beyond box_xi = 2
    cloud = FiberCloud(_shifted_harmonic({(0,): -3.0}, {(2,): 1.0, (0,): 9.0}))
    with pytest.raises(ContainmentFault):
        weyl_volume(cloud, 1.0)


class _ClipAndSubtract:
    """Reference measure on the same draw as FiberCloud: the clipped
    sublevel interval of each fiber at the upper level minus that at the
    lower, with a containment check at every pair of levels."""

    def __init__(self, model, budget, seed):
        d = model.dimension
        pts, _ = phasevol._base_cloud(model, budget, seed)
        self.A, self.B, self.C = phasevol._fiber_coefficients(model, pts)
        self.size = len(pts)
        self.base_volume = model.box_volume() / (2.0 * model.box_xi)
        self.box_xi = model.box_xi
        self.edge = (np.abs(pts[:, :d]).max(axis=1) > 0.98 * model.box_x) | (
            np.abs(pts[:, d + 1 :]).max(axis=1) > 0.98 * model.box_xi
        )

    def _sublevel(self, level):
        A, B, C, L = self.A, self.B, self.C, self.box_xi
        disc = B * B - 4.0 * A * (C - level)
        sq = np.sqrt(np.maximum(disc, 0.0))
        lo = np.clip((-B - sq) / (2.0 * A), -L, L)
        hi = np.clip((-B + sq) / (2.0 * A), -L, L)
        meas = np.where(disc > 0.0, np.maximum(hi - lo, 0.0), 0.0)
        reach = np.where(meas > 0.0, np.maximum(np.abs(lo), np.abs(hi)), 0.0)
        return meas, reach

    def measure(self, upper, lower=None):
        meas, reach = self._sublevel(upper)
        if lower is not None:
            meas = meas - self._sublevel(lower)[0]
        active = meas > 0
        assert not np.any(self.edge[active])
        assert reach[active].max() <= 0.98 * self.box_xi
        return meas

    def weyl(self, energy):
        means = self.measure(energy).reshape(phasevol.N_BATCHES, -1).mean(axis=1)
        value = self.base_volume * means.mean()
        se = self.base_volume * means.std(ddof=1) / math.sqrt(len(means))
        return value, se

    def sup(self, energy, epsilon, h):
        half = h ** (1.0 - epsilon)
        n_grid = int(math.ceil(4.0 * h ** (-epsilon))) + 1
        weight = self.base_volume / self.size
        best_vol, best_e = -1.0, None
        for e in np.linspace(energy - half, energy + half, n_grid):
            vol = float(self.measure(e + h, e - h).sum() * weight)
            if vol > best_vol:
                best_vol, best_e = vol, float(e)
        return h + best_vol, best_e, n_grid


@pytest.mark.parametrize("name", ["double_well_2d", "separable_harmonic_2d"])
def test_closed_form_matches_clip_and_subtract(name):
    model = make_model(name)
    cloud = FiberCloud(model, budget=2**16)
    ref = _ClipAndSubtract(model, 2**16, 0)
    est = weyl_volume(cloud, 1.0)
    value, se = ref.weyl(1.0)
    assert est.value == pytest.approx(value, rel=1e-12, abs=0)
    assert est.std_error == pytest.approx(se, rel=1e-12, abs=0)
    for h in (0.1, 0.05, 0.025):
        rem = remainder_functional(cloud, 1.0, 0.1, h)
        value, argmax, n_grid = ref.sup(1.0, 0.1, h)
        assert rem.value == pytest.approx(value, rel=1e-12, abs=0)
        assert rem.argmax_energy == argmax
        assert rem.grid_size == n_grid


_FIBER_MODELS = {
    "double_well_2d": lambda: make_model("double_well_2d"),
    "separable_harmonic_2d": lambda: make_model("separable_harmonic_2d"),
    "harmonic": lambda: make_model("harmonic"),
    "sheared_harmonic": lambda: _shifted_harmonic({(1,): 0.5}, {(2,): 1.25}),
}


@pytest.mark.parametrize("name", sorted(_FIBER_MODELS))
def test_fiber_coefficients_match_symbol_values(name):
    # the term-table read against the symbol itself: (A, B, C) from its
    # values at xi_1 = 0, +1, -1, and the quadratic checked at xi_1 = 2
    model = _FIBER_MODELS[name]()
    d = model.dimension
    pts, _ = phasevol._base_cloud(model, 2**12, 0)
    A, B, C = phasevol._fiber_coefficients(model, pts)

    def on_fiber(t):
        q = pts.copy()
        q[:, d] = t
        return model.value(q)

    f0, fp, fm = on_fiber(0.0), on_fiber(1.0), on_fiber(-1.0)
    tol = 1e-13 * (1.0 + np.abs(C))
    assert np.all(np.abs(A - (0.5 * (fp + fm) - f0)) <= tol)
    assert np.all(np.abs(B - 0.5 * (fp - fm)) <= tol)
    assert np.all(np.abs(C - f0) <= tol)
    assert np.all(np.abs(on_fiber(2.0) - (4 * A + 2 * B + C)) <= tol)


def test_fourth_order_symbol_rejected():
    # xi^4 + x^2 has quartic momentum fibers; assemble rejects it too
    model = SymbolModel(
        dimension=1,
        order=2,
        coefficients={
            ((2,), (2,)): PolynomialCoefficient({(0,): 1.0}, 1),
            ((0,), (0,)): PolynomialCoefficient({(2,): 1.0}, 1),
        },
        ellipticity_constant=1.0,
        holder_exponent=0.5,
    )
    with pytest.raises(NotImplementedError):
        assemble(model, 0.05, 0.41, GridSpec(2.0, 80))
    with pytest.raises(NotImplementedError):
        FiberCloud(model)


def test_remainder_functional_floor_and_grid():
    m = make_model("harmonic")
    rem = remainder_functional(FiberCloud(m), 1.0, 0.1, 0.05)
    assert rem.value >= 0.05
    assert rem.grid_size >= math.ceil(4 * 0.05 ** (-0.1)) + 1
    assert abs(rem.argmax_energy - 1.0) <= 0.05 ** (1 - 0.1) + 1e-12


def test_remainder_functional_near_linear_in_h():
    m = make_model("harmonic")
    cloud = FiberCloud(m)
    vals = {h: remainder_functional(cloud, 1.0, 0.1, h).value for h in (0.02, 0.04)}
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


def test_poly_sublevel_linear_exact():
    # |s| < tau on [-1, 1]: measure 2 tau
    q = poly_sublevel_measure([0.0, 1.0], 0.25, (-1.0, 1.0))
    assert q.measure == pytest.approx(0.5, abs=1e-12)


def test_poly_sublevel_quadratic_exact():
    # |s^2 - 1/4| < 3/16 on [-1, 1]: s^2 in (1/16, 7/16)
    q = poly_sublevel_measure([-0.25, 0.0, 1.0], 3.0 / 16.0, (-1.0, 1.0))
    expect = 2 * (math.sqrt(7.0 / 16.0) - 0.25)
    assert q.measure == pytest.approx(expect, abs=1e-10)


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
    assert q.measure == pytest.approx(approx, abs=2e-3)


@pytest.mark.parametrize("tau", [1e-4, 0.01, 0.1, 0.3])
def test_poly_sublevel_tangency(tau):
    # F = tau - s^2: F - tau = -s^2 touches zero at s = 0 without a sign
    # change, so |F| < tau on all of |s| < sqrt(2 tau) but the point 0
    q = poly_sublevel_measure([tau, 0.0, -1.0], tau, (-1.0, 1.0))
    assert q.measure == pytest.approx(2.0 * math.sqrt(2.0 * tau), rel=1e-9)


@pytest.mark.parametrize("tau", [1e-3, 0.01, 0.1])
def test_poly_sublevel_triple_root_sign_change(tau):
    # F = tau + (s - 0.2)^3: F - tau has a triple root at 0.2 where it
    # changes sign, and |F| < tau exactly for -(2 tau)^(1/3) < s - 0.2 < 0.
    # The expanded float coefficients move the triple root by ~1e-6.
    coeffs = [tau - 0.008, 0.12, -0.6, 1.0]
    q = poly_sublevel_measure(coeffs, tau, (-1.0, 1.0))
    assert q.measure == pytest.approx((2.0 * tau) ** (1.0 / 3.0), rel=1e-5)


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
    assert 0.0 < q.measure < 2.0
    assert q.measure == pytest.approx(approx, abs=2e-3)


def test_sublevel_lemma_verification():
    rep = verify_sublevel_lemma(random_seed=7, trials=50)
    assert rep.ok
    assert rep.violations == ()
    assert set(rep.constants) <= set(range(1, 6))
    assert rep.max_ratio <= 1.0 + 1e-9
