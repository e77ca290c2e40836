"""Number coefficients: a coefficient that cannot depend on x travels as a
Python number through the term table, the reduced symbol, assembly and the
oscillatory quadrature, and gives the same bits as an array of its values."""

import numpy as np
import pytest

from weyllab import dynamics
from weyllab.operators import GridSpec, assemble
from weyllab.phasevol import ReducedSymbol
from weyllab.symbols import (
    MODEL_REGISTRY,
    Coefficient,
    EvaluationFault,
    PolynomialCoefficient,
    SymbolModel,
    _constant,
    make_model,
)


def _ones(d):
    """1 as a generic Coefficient: evaluated to arrays on every node."""
    return Coefficient(
        lambda x: np.ones(len(x)),
        lambda x: np.zeros(x.shape),
        lambda x: np.zeros((len(x), d, d)),
    )


def _padded_one(d):
    """1 as a polynomial with a zero quadratic term: not a number by its
    structure, and regularized in closed form to the same table.  A generic
    Coefficient is regularized by quadrature, which gives 1 - 4e-16 (d = 1)
    and 1 - 1e-15 (d = 2) instead of 1."""
    return PolynomialCoefficient({(0,) * d: 1.0, (2,) + (0,) * (d - 1): 0.0}, d)


def _models(name, one):
    """The registry model, whose unit kinetic coefficients are numbers, and
    the same model with each of them replaced by `one(d)`."""
    model = make_model(name)
    d = model.dimension
    coeffs = {}
    for key, coef in model.coefficients.items():
        coeffs[key] = one(d) if _constant(coef) is not None else coef
    replaced = [key for key, coef in coeffs.items()
                if coef is not model.coefficients[key]]
    assert len(replaced) == d and all(
        _constant(model.coefficients[key]) == 1.0 for key in replaced
    )
    return model, make_model(name, coefficients=coeffs)


def _same(a, b):
    return np.array_equal(np.broadcast_to(a, np.shape(b)), b)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_reduced_symbol_number_path_is_bit_identical(name):
    number, array = map(ReducedSymbol, _models(name, _ones), [2**14] * 2)
    assert np.ndim(number.weight) == 0 and np.ndim(array.weight) == 1
    for field in ("minimum", "weight", "reach", "boundary_min", "ellipticity"):
        assert _same(getattr(number, field), getattr(array, field)), field
    for a, b in zip(number.coarse, array.coarse):
        assert _same(a, b)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
@pytest.mark.parametrize("variant", ["raw", "plus", "minus"])
def test_assembled_stencil_number_path_is_bit_identical(name, variant):
    one = _ones if variant == "raw" else _padded_one
    number, array = _models(name, one)
    grid = GridSpec(number.box_x, 39 if number.dimension == 2 else 199)
    ops = [assemble(m, 0.2, 0.41, grid, variant, strict_resolution=False)
           for m in (number, array)]
    assert np.array_equal(ops[0].diagonal, ops[1].diagonal)
    for a, b in zip(ops[0].couplings, ops[1].couplings):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_symbol_derivatives_number_path_is_bit_identical(name):
    number, array = _models(name, _ones)
    pts = number.sample_box(200, np.random.default_rng(11))
    for method in ("value", "gradient", "hessian"):
        assert np.array_equal(getattr(number, method)(pts),
                              getattr(array, method)(pts)), method


def test_tensor_quadrature_number_path_is_bit_identical():
    # ring_amplitude declares both axes even: the fold checks run too
    box = [(-1.6, 1.6), (-1.6, 1.6)]
    amp = dynamics.ring_amplitude([0.0, 0.0], 0.5, 1.5)
    values = [dynamics._tensor_quadrature(m, amp, 0.3, 0.01, box, 6)
              for m in _models("harmonic", _ones)]
    assert values[0] == values[1]


def test_non_finite_number_faults_at_the_first_node():
    model = SymbolModel(
        dimension=1,
        coefficients={
            ((1,), (1,)): PolynomialCoefficient({(0,): np.nan}, 1),
            ((0,), (0,)): PolynomialCoefficient({(2,): 1.0}, 1),
        },
        ellipticity_constant=1.0,
    )
    x = np.array([[0.5], [1.5]])
    with pytest.raises(EvaluationFault) as fault:
        model.terms_at(x)
    assert np.array_equal(fault.value.location, x[0])
    with pytest.raises(EvaluationFault) as fault:
        model.value(np.array([[-0.25, 0.0], [1.5, 0.3]]))
    assert np.array_equal(fault.value.location, [-0.25])
    # assembly fills the faces with the number: it faults at the first node
    grid = GridSpec(2.0, 100)
    with pytest.raises(EvaluationFault) as fault:
        assemble(model, 0.1, 0.41, grid, strict_resolution=False)
    assert np.array_equal(fault.value.location, grid.nodes()[:1])
