"""Symbol models: evaluation, derivatives, boxes, critical points."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyllab import dynamics
from weyllab.harness import check_hypotheses
from weyllab.phasevol import ReducedSymbol
from weyllab.symbols import (
    MODEL_REGISTRY,
    Coefficient,
    EvaluationFault,
    PolynomialCoefficient,
    SymbolModel,
    _product_rule,
    _schrodinger,
    find_critical_points,
    make_model,
    smooth_cutoff,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
             min_size=1, max_size=4),
    min_size=1, max_size=3,
))
def test_product_rule_orders_nodes_as_itertools_product(rules):
    # each rule is a list of (node, weight) pairs
    pts, wts = _product_rule(
        [(np.array([z for z, _ in r]), np.array([w for _, w in r]))
         for r in rules])
    combos = list(itertools.product(*rules))
    assert pts.shape == (len(combos), len(rules))
    assert wts.shape == (len(combos),)
    for row, weight, combo in zip(pts, wts, combos):
        assert row.tolist() == [z for z, _ in combo]
        assert weight == math.prod(w for _, w in combo)


def test_registry_models_build():
    assert {"harmonic", "separable_harmonic_2d", "double_well_2d"} <= set(
        MODEL_REGISTRY
    )
    for name in MODEL_REGISTRY:
        model = make_model(name)
        assert model.dimension in (1, 2)


def test_harmonic_values_and_derivatives():
    m = make_model("harmonic")
    pts = np.array([[0.5, -0.25], [1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        m.value(pts), pts[:, 0] ** 2 + pts[:, 1] ** 2, atol=1e-12
    )
    np.testing.assert_allclose(m.gradient(pts), 2.0 * pts, atol=1e-12)
    np.testing.assert_allclose(
        m.hessian(pts), np.broadcast_to(2 * np.eye(2), (3, 2, 2)), atol=1e-12
    )


def test_double_well_value():
    m = make_model("double_well_2d")
    v = np.array([[0.5, 0.2, -0.3, 0.1]])
    x1, x2, xi1, xi2 = v[0]
    expect = (x1**2 - 1.0) ** 2 + x2**2 + xi1**2 + xi2**2
    np.testing.assert_allclose(m.value(v), [expect], atol=1e-12)


def test_gradient_matches_finite_differences():
    m = make_model("double_well_2d")
    rng = np.random.default_rng(0)
    pts = m.sample_box(20, rng)
    g = m.gradient(pts)
    eps = 1e-6
    for j in range(4):
        hi = pts.copy()
        lo = pts.copy()
        hi[:, j] += eps
        lo[:, j] -= eps
        fd = (m.value(hi) - m.value(lo)) / (2 * eps)
        np.testing.assert_allclose(g[:, j], fd, rtol=1e-6, atol=1e-6)


def test_single_point_auto_unwrap():
    m = make_model("harmonic")
    assert float(m.value(np.array([1.0, 1.0]))) == pytest.approx(2.0)
    assert m.value(np.array([[1.0, 1.0]])).shape == (1,)
    assert m.gradient(np.array([[1.0, 1.0]])).shape == (1, 2)


def test_sample_box_inside():
    m = make_model("double_well_2d")
    pts = m.sample_box(500, np.random.default_rng(1))
    assert pts.shape == (500, 4)
    assert np.all(np.abs(pts[:, :2]) <= m.box_x)
    assert np.all(np.abs(pts[:, 2:]) <= m.box_xi)


def test_double_well_critical_point():
    m = make_model("double_well_2d")
    crits = find_critical_points(m, 1.0, window=0.25)
    assert len(crits) == 1
    rep = crits[0]
    np.testing.assert_allclose(rep.location, np.zeros(4), atol=1e-7)
    assert rep.energy == pytest.approx(1.0, abs=1e-8)
    assert rep.hessian_rank == 4
    eigs = np.sort(rep.hessian_eigenvalues)
    assert eigs[0] < 0 < eigs[1]  # saddle


QUARTIC = {(4, 0): 1.0, (0, 2): 1.0}  # x1^4 + x2^2: degenerate in x1
RING = {  # (|x|^2 - 1)^2
    (4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0, (2, 0): -2.0, (0, 2): -2.0,
    (0, 0): 1.0,
}


@pytest.mark.parametrize(
    "potential, energy, rank, negative",
    [
        # the origin is a degenerate minimum: one null Hessian direction
        (QUARTIC, 0.0, 3, 0),
        # the circle of minima lies at energy 0, outside the window, and
        # the origin is a non-degenerate maximum of V: signature (2, 2)
        (RING, 1.0, 4, 2),
    ],
    ids=["quartic", "ring"],
)
def test_degenerate_critical_sets(potential, energy, rank, negative):
    model = _schrodinger("degenerate", 2, potential, 1.8, {})
    crits = find_critical_points(model, energy, 0.25)
    assert crits
    for rep in crits:
        assert np.abs(rep.location).max() < 1e-4
        assert rep.hessian_rank == rank
        assert np.sum(rep.hessian_eigenvalues < 0) == negative


def test_critical_points_draw_no_random_numbers(monkeypatch):
    models = [make_model(name) for name in MODEL_REGISTRY]

    def refuse(*args, **kwargs):
        raise AssertionError("the critical-point search drew random numbers")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for model in models:
        find_critical_points(model, 1.0, 0.25)


def test_minima_excluded_by_energy_window():
    m = make_model("double_well_2d")
    # the two well bottoms sit at energy 0, outside the window around E=1
    crits = find_critical_points(m, 1.0, window=0.25)
    assert all(abs(r.energy - 1.0) < 0.5 for r in crits)
    wells = find_critical_points(m, 0.0, window=0.25)
    assert len(wells) == 2
    for rep, x1 in zip(wells, (-1.0, 1.0)):
        np.testing.assert_allclose(rep.location, [x1, 0, 0, 0], atol=1e-7)
        assert np.all(rep.hessian_eigenvalues > 0)


def test_harmonic_has_no_critical_point_near_one():
    for name in ("harmonic", "separable_harmonic_2d"):
        assert find_critical_points(make_model(name), 1.0, window=0.25) == []


def test_hypothesis_report():
    # the screen's scalars against closed forms on the double well: G = I,
    # so its least eigenvalue is exactly 1; m = V(x), whose least value on
    # the x boundary band is about 0.98^2 box_x^2 (x1 = +-1, x2 at the band
    # edge); and with xi* = 0 the sublevel sets reach 98% of box_xi at the
    # level m + (0.98 box_xi)^2, lowest where V vanishes
    model = make_model("double_well_2d")
    reduced = ReducedSymbol(model)
    edge = (0.98 * model.box_x) ** 2
    step = 2 * model.box_x / 1024
    assert reduced.ellipticity == 1.0
    assert edge < reduced.boundary_min < edge + 4 * step
    assert edge <= reduced.reach < edge + 1e-4
    assert check_hypotheses(model, 1.0, reduced) == []
    problems = check_hypotheses(model, reduced.boundary_min, reduced)
    assert problems == ["confinement fails on the truncation boundary"]
    assert check_hypotheses(make_model("harmonic"), 1.0) != []


def test_smooth_cutoff_shape():
    x = np.linspace(-3, 3, 301)
    y = smooth_cutoff(x, 1.0, 2.0)
    assert np.all((0.0 <= y) & (y <= 1.0))
    assert np.all(y[np.abs(x) <= 1.0] == 1.0)
    assert np.all(y[np.abs(x) >= 2.0] == 0.0)
    # symmetric and monotone on the transition
    np.testing.assert_allclose(y, y[::-1], atol=1e-14)
    right = y[x >= 0]
    assert np.all(np.diff(right) <= 1e-14)


def test_polynomial_coefficient_derivatives():
    c = PolynomialCoefficient({(2, 0): 3.0, (1, 1): -1.0, (0, 0): 2.0}, 2)
    x = np.array([[1.0, 2.0]])
    assert c.value(x)[0] == pytest.approx(3.0 - 2.0 + 2.0)
    np.testing.assert_allclose(c.grad(x), [[6.0 - 2.0, -1.0]], atol=1e-12)
    np.testing.assert_allclose(
        c.hess(x), [[[6.0, -1.0], [-1.0, 0.0]]], atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(-1.5, 1.5),
    y=st.floats(-1.5, 1.5),
    xi1=st.floats(-1.5, 1.5),
    xi2=st.floats(-1.5, 1.5),
)
def test_symbol_even_in_momentum(x, y, xi1, xi2):
    m = make_model("double_well_2d")
    a = m.value(np.array([[x, y, xi1, xi2]]))[0]
    b = m.value(np.array([[x, y, -xi1, -xi2]]))[0]
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_non_finite_coefficient_faults_at_its_x_node():
    # a potential that is nan beyond x = 1: the symbol's value, the reduced
    # symbol and the oscillatory quadrature each fault at an x node past 1
    potential = Coefficient(
        lambda x: np.where(x[:, 0] > 1.0, np.nan, x[:, 0] ** 2),
        lambda x: 2.0 * x,
        lambda x: np.full((len(x), 1, 1), 2.0),
    )
    model = SymbolModel(
        dimension=1,
        coefficients={
            ((1,), (1,)): PolynomialCoefficient({(0,): 1.0}, 1),
            ((0,), (0,)): potential,
        },
        ellipticity_constant=1.0,
    )
    box = [(-2.0, 2.0), (-2.0, 2.0)]
    calls = {
        "value": lambda: model.value(np.array([[0.5, 0.0], [1.5, 0.3]])),
        "reduced symbol": lambda: ReducedSymbol(model),
        "quadrature": lambda: dynamics._tensor_quadrature(
            model, lambda pts: np.ones(len(pts)), 1.0, 0.1, box, 2
        ),
    }
    for name, call in calls.items():
        with pytest.raises(EvaluationFault) as fault:
            call()
        assert fault.value.location.shape == (1,), name
        assert fault.value.location[0] > 1.0, name
