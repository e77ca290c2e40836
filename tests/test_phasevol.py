"""Phase-space volumes, remainder functionals, and sublevel measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyllab.phasevol import (
    ContainmentFault,
    FiberCloud,
    direction_frame,
    directional_measure,
    near_critical_volume,
    poly_sublevel_measure,
    remainder_functional,
    verify_sublevel_lemma,
    weyl_volume,
)
from weyllab.symbols import find_critical_points, make_model


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


def test_direction_frame_orthonormal():
    m = make_model("double_well_2d")
    crit = find_critical_points(m, 1.0, window=0.25)[0]
    vbar = crit.location + 0.05 * np.array([1.0, 0.5, -0.3, 0.2])
    frame, (j1, j2), (theta1, theta2) = direction_frame(m, vbar)
    assert frame.shape == (3, 4)
    for e in frame:
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-10)
    assert j1 != j2
    assert theta1 != 0 and theta2 != 0
    # e3 is a pure momentum direction
    assert np.allclose(frame[2][:2], 0.0, atol=1e-10)


def test_directional_measure_positive():
    m = make_model("double_well_2d")
    crit = find_critical_points(m, 1.0, window=0.25)[0]
    vbar = crit.location + 0.03 * np.array([1.0, 0.0, 0.5, 0.0])
    meas, eps = directional_measure(m, vbar, 1, vbar, 0.05, 0.41)
    assert meas >= 0
    assert 0 < eps <= 0.5


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


@settings(max_examples=30, deadline=None)
@given(
    c0=st.floats(-2, 2),
    c1=st.floats(-2, 2),
    c2=st.floats(0.5, 2),
    tau=st.floats(0.01, 0.5),
)
def test_poly_sublevel_matches_dense_scan(c0, c1, c2, tau):
    coeffs = [c0, c1, c2]
    q = poly_sublevel_measure(coeffs, tau, (-3.0, 3.0))
    s = np.linspace(-3.0, 3.0, 200_001)
    vals = np.abs(np.polynomial.polynomial.polyval(s, coeffs))
    approx = np.mean(vals < tau) * 6.0
    assert q.measure == pytest.approx(approx, abs=2e-3)


def test_sublevel_lemma_verification():
    rep = verify_sublevel_lemma(random_seed=7, trials=50)
    assert rep.ok
    assert rep.violations == ()
    assert set(rep.constants) <= set(range(1, 6))
    assert rep.max_ratio <= 1.0 + 1e-9
