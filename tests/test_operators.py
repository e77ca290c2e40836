"""Grid operators: assembly, inertia counting, smoothed counters."""

import gc
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.linalg import eigsh

from weyllab import operators
from weyllab.mollify import build_mollifier, regularize
from weyllab.operators import (
    ConfinementFault,
    DiscreteOperator,
    GridSpec,
    MollifiedCounter,
    ResolutionFault,
    assemble,
    count_below,
    eigenvalues_below,
    smoothed_count,
)
from weyllab.symbols import (
    MODEL_REGISTRY,
    PolynomialCoefficient,
    SymbolModel,
    _poly_eval,
    make_model,
)


@pytest.fixture(scope="module")
def harmonic():
    return make_model("harmonic")


def test_grid_spec_spacing():
    g = GridSpec(2.0, 399)
    assert g.spacing == pytest.approx(4.0 / 400)
    assert len(g.nodes()) == 399


@pytest.mark.parametrize("n", [1, 2, 159, 160, 639])
@pytest.mark.parametrize("halfwidth", [1.8, 2.0, 2.5])
def test_grid_nodes_exactly_antisymmetric(n, halfwidth):
    nodes = GridSpec(halfwidth, n).nodes()
    assert np.all(nodes + nodes[::-1] == 0.0)


def test_poly_eval_exact_parity():
    # even powers are exactly even, odd powers exactly odd, in each axis
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (1000, 2))
    mirrored = x * [-1.0, 1.0]
    even = {(4, 0): 1.0, (2, 0): -2.0, (0, 0): 1.0, (0, 2): 1.0, (6, 3): 0.7}
    odd = {(3, 0): 1.0, (1, 2): -0.3, (5, 1): 0.2}
    assert np.array_equal(_poly_eval(even, mirrored), _poly_eval(even, x))
    assert np.array_equal(_poly_eval(odd, mirrored), -_poly_eval(odd, x))


def test_matrix_symmetric(harmonic):
    op = assemble(harmonic, 0.05, 0.41, GridSpec(2.0, 400))
    m = op.matrix
    assert abs(m - m.T).max() <= 1e-12


def _coo_assemble(model, h, grid, variant):
    """The matrix as (value, row, column) triplets summed by coo -> csc, as
    assembly once built it: each second-order term, then each shift term,
    then the diagonal of potential and shift."""
    d, n, dx = model.dimension, grid.points_per_axis, grid.spacing
    kernel = None if variant == "raw" else build_mollifier(d)

    def field(coef):
        return coef if kernel is None else regularize(coef, h, 0.41, kernel)

    shape = (n,) * d
    idx = np.arange(n**d).reshape(shape)
    mesh = np.meshgrid(*([grid.nodes()] * d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    data, rows, cols = [], [], []

    def axis_term(mid, axis, scale):
        left, right = mid.take(range(n), axis), mid.take(range(1, n + 1), axis)
        lo, hi = idx.take(range(n - 1), axis), idx.take(range(1, n), axis)
        off = -scale * right.take(range(n - 1), axis).ravel()
        data.extend([(scale * (left + right)).ravel(), off, off])
        rows.extend([idx.ravel(), lo.ravel(), hi.ravel()])
        cols.extend([idx.ravel(), hi.ravel(), lo.ravel()])

    diag = np.zeros(n**d)
    for (nu, _), coef in model.coefficients.items():
        if sum(nu) == 0:
            diag += field(coef).value(pts)
        else:
            axis = int(np.argmax(nu))
            mid, mid_shape = operators._midpoint_coords(grid, d, axis)
            axis_term(field(coef).value(mid).reshape(mid_shape), axis,
                      (h / dx) ** 2)
    if variant != "raw":
        sign = 1.0 if variant == "plus" else -1.0
        diag += sign * h
        for axis in range(d):
            ones = np.ones(tuple(n + (j == axis) for j in range(d)))
            axis_term(ones, axis, sign * h * (h / dx) ** 2)
    data.append(diag)
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n**d, n**d),
    ).tocsc()


@pytest.mark.parametrize("variant", ["plus", "raw", "minus"])
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
@pytest.mark.parametrize("n", [41, 42])
def test_assembly_matches_coo_triplets_bit_for_bit(name, variant, n):
    m = make_model(name)
    grid = GridSpec(m.box_x, n**2 if m.dimension == 1 else n)
    new = assemble(m, 0.1, 0.41, grid, variant=variant,
                   strict_resolution=False).matrix
    ref = _coo_assemble(m, 0.1, grid, variant)
    assert new.format == "csc" and new.has_canonical_format
    ref.sort_indices()
    np.testing.assert_array_equal(new.indptr, ref.indptr)
    np.testing.assert_array_equal(new.indices, ref.indices)
    np.testing.assert_array_equal(new.data.view(np.int64),
                                  ref.data.view(np.int64))


def test_hermite_eigenvalues(harmonic):
    # continuum spectrum of -h^2 d^2/dx^2 + x^2 is h(2n + 1)
    h = 0.05
    op = assemble(harmonic, h, 0.41, GridSpec(2.0, 800))
    lam = eigsh(op.matrix, k=5, sigma=0.0, which="LM")[0]
    expect = h * (2 * np.arange(5) + 1)
    np.testing.assert_allclose(np.sort(lam), expect, atol=1e-3)


def test_hermite_count(harmonic):
    # eigenvalues h(2n+1) < 1 for n = 0..49 at h = 0.01
    op = assemble(harmonic, 0.01, 0.41, GridSpec(2.0, 2400))
    assert count_below(op, 1.0).count == 50


def test_separable_harmonic_count():
    # levels 2h(i + j + 1); finite differences shift ties at exactly E down
    m = make_model("separable_harmonic_2d")
    h = 0.05
    op = assemble(m, h, 0.41, GridSpec(2.0, 320))
    # strictly below: 45; the 10-fold level at exactly 1.0 also counts
    assert count_below(op, 1.0).count == 55


def test_count_monotone_in_energy(harmonic):
    op = assemble(harmonic, 0.05, 0.41, GridSpec(2.0, 400))
    counts = [count_below(op, e).count for e in (0.25, 0.5, 1.0)]
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] == pytest.approx(1.0 / (2 * 0.05), abs=2)


def test_sparse_dense_agree(harmonic):
    h = 0.05
    op_small = assemble(harmonic, h, 0.41, GridSpec(2.0, 500))
    m2 = make_model("separable_harmonic_2d")
    op_big = assemble(m2, h, 0.41, GridSpec(2.0, 120),
                      strict_resolution=False)
    s1 = count_below(op_small, 1.0)
    s2 = count_below(op_big, 1.0)
    assert s1.method == "inertia"
    assert s2.method == "inertia"
    assert s1.count == 10
    assert s2.count > 0


def test_confinement_fault(harmonic):
    grid = GridSpec(2.0, 400)
    assemble(harmonic, 0.05, 0.41, grid, energy=1.0)
    with pytest.raises(ConfinementFault):
        assemble(harmonic, 0.05, 0.41, grid, energy=100.0)


def test_resolution_fault(harmonic):
    with pytest.raises(ResolutionFault):
        assemble(harmonic, 0.01, 0.41, GridSpec(2.0, 100))
    op = assemble(
        harmonic, 0.01, 0.41, GridSpec(2.0, 100), strict_resolution=False
    )
    assert not op.resolution_ok


def test_bracketing_single_h():
    m = make_model("double_well_2d")
    h = 0.05
    grid = GridSpec(m.box_x, 240)
    counts = {}
    for variant in ("plus", "raw", "minus"):
        op = assemble(m, h, 0.41, grid, variant=variant,
                      strict_resolution=False)
        counts[variant] = count_below(op, 1.0).count
    assert counts["plus"] <= counts["raw"] <= counts["minus"]
    assert counts["plus"] < counts["minus"]  # the shift is strictly definite


def test_eigenvalues_below_matches_count(harmonic):
    op = assemble(harmonic, 0.05, 0.41, GridSpec(2.0, 400))
    slc = eigenvalues_below(op, 1.0)
    assert slc.count == count_below(op, 1.0).count
    assert len(slc.eigenvalues) == slc.count
    assert np.all(np.diff(slc.eigenvalues) >= 0)


def test_eigenvalues_below_the_spectrum(harmonic):
    # below the Gershgorin bound the banded solver's range is empty: no
    # eigenvalue, as the inertia count says, not a select_range error
    op = assemble(harmonic, 0.1, 0.41, GridSpec(harmonic.box_x, 200))
    slc = eigenvalues_below(op, -100.0)
    assert slc.count == count_below(op, -100.0).count == 0
    assert slc.eigenvalues.size == 0


def _diagonal_operator(entries) -> DiscreteOperator:
    return DiscreteOperator(
        h=0.1,
        grid=GridSpec(1.0, len(entries)),
        diagonal=np.asarray(entries, dtype=float),
        couplings=(np.zeros(len(entries) - 1),),
    )


@pytest.mark.parametrize(
    "n, diagonal, couplings",
    [
        (4, np.ones(4), (np.zeros(3), np.zeros(3))),  # 1-D, two axes
        (4, np.ones((4, 3)), (np.zeros((3, 4)), np.zeros((4, 3)))),
        (4, np.ones((4, 4)), (np.zeros((3, 4)), np.zeros((4, 4)))),
        (4, np.ones((4, 4)), (np.zeros((3, 4)), np.zeros((3, 4)))),
        (4, np.ones((4, 4)), (np.zeros((3, 4)),)),
        (5, np.ones((4, 4)), (np.zeros((3, 4)), np.zeros((4, 3)))),
    ],
)
def test_stencil_shapes_must_match_the_grid(n, diagonal, couplings):
    with pytest.raises(ValueError, match="stencil"):
        DiscreteOperator(h=0.1, grid=GridSpec(1.0, n), diagonal=diagonal,
                         couplings=couplings)


def test_counts_are_strict_at_an_eigenvalue():
    # diag(1, 2, 3) at E = 2: one eigenvalue lies strictly below, and the
    # eigenvalue slice must count the same way as the inertia count
    op = _diagonal_operator([1.0, 2.0, 3.0])
    assert count_below(op, 2.0).count == 1
    slc = eigenvalues_below(op, 2.0)
    assert slc.count == 1
    np.testing.assert_array_equal(slc.eigenvalues, [1.0])


@pytest.mark.parametrize("tie", [2.0, np.nextafter(2.0, 3.0)])
def test_count_strict_at_a_singular_pivot(tie):
    # 1500 entries lie strictly below E = 2; the entry at (or one ulp
    # above) 2 makes the factorization (near-)singular, and the threshold shift
    # must not count it
    entries = np.linspace(1.0, 3.0, 3001)
    entries[1500] = tie
    slc = count_below(_diagonal_operator(entries), 2.0)
    assert slc.count == 1500
    assert slc.shifts_applied == 1


@pytest.mark.parametrize("h", [0.05, 0.035, 0.025])
def test_smoothed_counting_operators_match_dense_reference(harmonic, h):
    # the 1200-point operators of the smoothed_counting experiment against a
    # full dense eigendecomposition
    counter = MollifiedCounter(1.0, h, (0.2, 0.8))
    op = assemble(harmonic, h, 0.41, GridSpec(harmonic.box_x, 1200),
                  strict_resolution=False)
    ref = np.linalg.eigvalsh(op.matrix.toarray())
    level = counter.coverage_level()
    for energy in (level, 0.5):
        assert count_below(op, energy).count == int(np.sum(ref < energy))
    slc = eigenvalues_below(op, level)
    np.testing.assert_allclose(slc.eigenvalues, ref[ref < level],
                               rtol=0.0, atol=1e-12)


def test_eigenvalues_below_rejects_two_dimensions():
    m = make_model("separable_harmonic_2d")
    op = assemble(m, 0.05, 0.41, GridSpec(2.0, 20),
                  strict_resolution=False)
    with pytest.raises(NotImplementedError, match="d = 2"):
        eigenvalues_below(op, 1.0)


def test_assemble_rejects_three_dimensions():
    d = 3
    unit = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    coeffs = {(e, e): PolynomialCoefficient({(0,) * d: 1.0}, d) for e in unit}
    coeffs[((0,) * d, (0,) * d)] = PolynomialCoefficient(
        {tuple(2 * i for i in e): 1.0 for e in unit}, d
    )
    model = SymbolModel(
        dimension=d,
        coefficients=coeffs,
        ellipticity_constant=1.0,
        name="harmonic_3d",
    )
    with pytest.raises(NotImplementedError, match="d = 3"):
        assemble(
            model, 0.1, 0.41, GridSpec(2.0, 9), energy=1.0,
            strict_resolution=False,
        )


def test_mollified_counter_positive_unit_mass():
    counter = MollifiedCounter(1.0, 0.05, (0.2, 0.8))
    lam = np.linspace(-2, 3, 2001)
    g = counter.gamma_tilde(lam)
    assert np.all(g >= 0)  # squared-profile construction
    lam = np.linspace(-1.5, 1.5, 400001)
    mass = np.trapezoid(counter.gamma_tilde(lam), lam)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_window_function_plateau():
    counter = MollifiedCounter(1.0, 0.02, (0.2, 0.8))
    assert counter.f_tilde(np.array([0.5]))[0] == pytest.approx(1.0, abs=0.1)
    assert counter.f_tilde(np.array([-0.5]))[0] == pytest.approx(0.0, abs=1e-3)
    assert counter.f_tilde(np.array([1.5]))[0] == pytest.approx(0.0, abs=1e-3)


def test_smoothed_count_close_to_sharp(harmonic):
    h = 0.05
    window = (0.2, 0.8)
    counter = MollifiedCounter(1.0, h, window)
    op = assemble(harmonic, h, 0.41, GridSpec(2.0, 400))
    slc = eigenvalues_below(op, counter.coverage_level())
    sharp = int(np.sum((slc.eigenvalues >= window[0])
                       & (slc.eigenvalues <= window[1])))
    smooth = smoothed_count(slc, counter)
    assert abs(smooth - sharp) < 2.0


def _counter_tables_by_doubling(t0):
    # reference: the whole cosine table rebuilt at every doubling of z_max
    half = t0 / 2.0
    t_nodes, t_wts = np.polynomial.legendre.leggauss(512)
    t_nodes = t_nodes * half
    t_wts = t_wts * half
    g0 = np.exp(-1.0 / (1.0 - (t_nodes / half) ** 2))
    conv0 = float(np.dot(t_wts, g0 * g0))
    z_max = 16.0 / t0
    for _ in range(12):
        zeta = np.linspace(0.0, z_max, 8001)
        ghat = np.concatenate([
            (np.cos(np.outer(z, t_nodes)) * (t_wts * g0)).sum(axis=1)
            for z in np.array_split(zeta, 8)
        ])
        phi = ghat * ghat / conv0
        if phi[-1] < 1e-16 * phi[0]:
            break
        z_max *= 2.0
    psi_half = np.concatenate(
        [[0.0], np.cumsum(0.5 * (phi[1:] + phi[:-1]) * np.diff(zeta))]
    ) / (2.0 * np.pi)
    return zeta, phi, psi_half, 2.0 * psi_half[-1]


@pytest.mark.parametrize("t0", [0.1, 0.5, 1.0, 2.0, 3.7])
def test_counter_tables_match_doubling_reference(t0):
    # the trapezoid rule of the FFT table is spectrally exact for the bump,
    # which vanishes to all orders at its ends: the same zeta grid, and the
    # 512-node Gauss-Legendre table to rounding
    zeta, phi, psi_half, total = operators._counter_tables.__wrapped__(t0)
    want_zeta, want_phi, want_psi, want_total = _counter_tables_by_doubling(t0)
    assert np.array_equal(zeta, want_zeta)
    assert np.abs(phi - want_phi).max() <= 1e-14 * want_phi[0]
    assert np.abs(psi_half - want_psi).max() <= 1e-14
    assert abs(total - want_total) <= 1e-14
    assert abs(total - 1.0) <= 1e-13


# -- reflection blocks ---------------------------------------------------------


def _whole_block(op):
    """The whole grid as one `_block`."""
    return operators._block(op, operators._block_map(
        op.grid.points_per_axis, (None,) * op.dimension))


def _shifted_block(block, energy):
    """M = B - E W of a `_block`, as one CSC matrix."""
    couplings, diagonal, weights, _, _ = block
    return (couplings + sp.diags(diagonal - energy * weights)).tocsc()


def _symmetry_blocks(op):
    """The list of `op`'s symmetry blocks, in counting order."""
    return [
        block for maps in operators._block_maps(op)
        for block in (operators._mixed_pair(op, *maps) if len(maps) == 2
                      else [operators._block(op, *maps)])
    ]


def _blocks_and_bound(op, energy):
    """(the list of `op`'s symmetry blocks, their pivot bound at energy)."""
    blocks = _symmetry_blocks(op)
    return blocks, operators._pivot_bound(op, energy,
                                          [b.weights for b in blocks])


def _sparse_inertia(mat, bound):
    """Negative pivots of a symmetric LU of `mat`."""
    return operators._negative_pivots(operators._factor(mat), bound)


def _full_count(op, energy):
    """`count_below` on the whole matrix, as one block: (count, shifts)."""
    whole = operators._block_map(op.grid.points_per_axis,
                                 (None,) * op.dimension)
    with mock.patch.object(operators, "_block_maps", lambda _: [(whole,)]):
        slc = count_below(op, energy)
    assert slc.blocks == 1
    return slc.count, slc.shifts_applied


def _unreduced_count(op, energy):
    """(count, shifts) from a symmetric LU of each whole symmetry block
    B - E' W, no red node eliminated, with the same shifted thresholds."""
    blocks, bound = _blocks_and_bound(op, energy)
    for shifts in range(operators.MAX_SHIFTS + 1):
        shifted = energy - shifts * operators.SHIFT_STEP
        try:
            return sum(
                b.mult * _sparse_inertia(_shifted_block(b, shifted), bound)
                for b in blocks
            ), shifts
        except operators.FactorizationFault:
            continue
    raise AssertionError("no threshold factored")


# symmetry blocks factored per count: D4 splits the square's four mirror
# blocks into four swap halves and the even-odd block, counted twice
BLOCKS = {"separable_harmonic_2d": 5, "double_well_2d": 4}


@pytest.mark.parametrize("variant", ["plus", "raw", "minus"])
@pytest.mark.parametrize(
    "name, n, h",
    [
        ("separable_harmonic_2d", 159, 0.1),
        ("separable_harmonic_2d", 160, 0.1),
        ("separable_harmonic_2d", 300, 0.1),
        ("double_well_2d", 300, 0.07),
        ("double_well_2d", 301, 0.07),
    ],
)
def test_split_count_matches_full_count(name, n, h, variant):
    m = make_model(name)
    op = assemble(m, h, 0.41, GridSpec(m.box_x, n), variant=variant,
                  strict_resolution=False)
    slc = count_below(op, 1.0)
    assert slc.blocks == BLOCKS[name]
    assert (slc.count, slc.shifts_applied) == _full_count(op, 1.0)
    assert (slc.count, slc.shifts_applied) == _unreduced_count(op, 1.0)
    blocks, bound = _blocks_and_bound(op, 1.0)
    for block in blocks:
        _, schur = operators._eliminate_red(block, 1.0, bound)
        assert schur.shape[0] == np.sum(~block.red)
        assert (schur != schur.T).nnz == 0


def _square_operator(diag, couplings=None) -> DiscreteOperator:
    """5-point stencil on an n x n grid with node values `diag`.
    couplings[i, j] couples (i, j) with (i + 1, j), and the same value
    couples (j, i) with (j, i + 1); none by default."""
    n = diag.shape[0]
    c0 = np.zeros((n - 1, n)) if couplings is None else couplings
    return DiscreteOperator(h=0.1, grid=GridSpec(1.0, n), diagonal=diag,
                            couplings=(c0, c0.T))


def _orbit(n, i, j):
    """Index arrays of the D4 orbit of node (i, j) on an n x n grid."""
    nodes = {(x, y) for a, b in ((i, j), (j, i))
             for x in (a, n - 1 - a) for y in (b, n - 1 - b)}
    return tuple(np.array(sorted(nodes)).T)


def _block_sizes(op):
    return [(b.weights.size, b.mult) for b in _symmetry_blocks(op)]


@pytest.mark.parametrize("tie", [2.0, np.nextafter(2.0, 3.0)])
def test_split_blocks_share_the_shifted_threshold(tie):
    # a D4-symmetric diagonal on 5 x 5 nodes: the tie at the centre node
    # makes only the swap-even even-even block singular at E = 2, and the
    # orbit of (0, 1) at 2 - SHIFT_STEP/2 puts one eigenvalue in each
    # block, two in the even-odd one, between the first two thresholds.
    # Every block must be counted again at the shifted threshold, or the
    # others would count their copies of the orbit and the singular one
    # would not.
    diag = np.ones((5, 5))
    diag[_orbit(5, 0, 1)] = 2.0 - 0.5 * operators.SHIFT_STEP
    diag[2, 2] = tie
    op = _square_operator(diag)
    assert _block_sizes(op) == [(6, 1), (3, 1), (6, 2), (3, 1), (1, 1)]
    slc = count_below(op, 2.0)
    assert slc.blocks == 5
    assert slc.shifts_applied == 1
    assert slc.count == 25 - 1 - 8
    assert (slc.count, slc.shifts_applied) == _full_count(op, 2.0)


@pytest.mark.parametrize("n", [4, 3], ids=["even_odd_pair", "swap_odd_half"])
def test_tie_inside_one_block_shifts_every_block(n):
    # n = 4: the four centre nodes, at E, are coupled to each other only,
    # so there A = E + c * (4-cycle) with eigenvalues E + 2c, E - 2c and
    # E twice, in the even-odd pair: it alone is singular at E.
    # n = 3: the four edge midpoints, at E, are coupled to the centre only.
    # Their swap-odd combination (and their even-odd pair) keeps the
    # eigenvalue E, which the swap-even block mixes with the centre.
    # Every other node sits at E - SHIFT_STEP/2, in every block, so a
    # count that shifted the singular blocks alone would count those
    # nodes elsewhere.  The reference is the dense spectrum.  Factored
    # whole, the tie's tiny pivot makes the next one huge; judged against
    # that pivot, every E - SHIFT_STEP/2 pivot looked singular at each shift.
    e, c = 2.0, 0.5
    diag = np.full((n, n), e - 0.5 * operators.SHIFT_STEP)
    couplings = np.zeros((n - 1, n))
    if n == 4:
        diag[_orbit(4, 1, 1)] = e
        couplings[1, 1:3] = c
        sizes, below = [(3, 1), (1, 1), (4, 2), (3, 1), (1, 1)], 1
    else:
        diag[_orbit(3, 0, 1)] = e
        diag[1, 1] = 5.0
        couplings[:, 1] = c
        sizes, below = [(3, 1), (1, 1), (2, 2), (1, 1)], 1
    op = _square_operator(diag, couplings)
    assert _block_sizes(op) == sizes
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert np.sum(dense < e - operators.SHIFT_STEP) == below
    slc = count_below(op, e)
    assert slc.shifts_applied == 1
    assert slc.count == below
    assert _full_count(op, e) == (below, 1)


def test_pivot_bound_covers_every_block_norm():
    m = make_model("separable_harmonic_2d")
    op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, 63), variant="minus",
                  strict_resolution=False)
    blocks, bound = _blocks_and_bound(op, 1.0)
    norms = [abs(_shifted_block(b, 1.0)).sum(axis=1).max() for b in blocks]
    assert max(norms) <= bound <= 8.0 * max(norms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 20, 21])
@pytest.mark.parametrize("potential", [
    {(2, 0): 1.0, (0, 2): 1.0},  # D4
    {(2, 0): 1.0, (0, 2): 2.0},  # mirrors, no swap
    {(2, 0): 1.0, (1, 1): 0.3},  # no symmetry
])
def test_pivot_bound_from_the_maps_matches_the_blocks(potential, n):
    # count_below takes the largest weight from the block maps before any
    # block is built: the same float as from the built blocks' weights,
    # also on the grids of n <= 2 nodes per axis, where a block is empty
    # or an orbit is smaller than the group
    m = _square_model(potential)
    op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, n), strict_resolution=False)
    maps = (bm[2] for group in operators._block_maps(op) for bm in group)
    _, bound = _blocks_and_bound(op, 1.0)
    assert operators._pivot_bound(op, 1.0, maps) == bound


def _tie_operator():
    """The 5 x 5 diagonal operator of the first shift test, tied at E = 2."""
    diag = np.ones((5, 5))
    diag[_orbit(5, 0, 1)] = 2.0 - 0.5 * operators.SHIFT_STEP
    diag[2, 2] = 2.0
    return _square_operator(diag)


@pytest.mark.parametrize("case", ["d4", "mirrors", "shifted"])
def test_count_holds_no_block_while_superlu_factors(case, monkeypatch):
    # each block is built when it is about to be factored and dropped once
    # its red pivots and Schur complement are formed, and each Schur
    # complement once SuperLU returns: at every factorization no `_Block`
    # is alive and the previous factorization's input is gone; a shift
    # builds the blocks again
    if case == "shifted":
        op, energy, blocks, shifts = _tie_operator(), 2.0, 5, 1
    else:
        potential = {(2, 0): 1.0, (0, 2): 1.0 if case == "d4" else 2.0}
        m = _square_model(potential)
        op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, 40),
                      strict_resolution=False)
        energy, blocks, shifts = 1.0, 5 if case == "d4" else 4, 0
    factor, inputs = operators.splu, []

    def checked(mat, **kwargs):
        assert not [x for x in gc.get_objects()
                    if isinstance(x, operators._Block)]
        assert not inputs or inputs[-1]() is None
        inputs.append(weakref.ref(mat))
        return factor(mat, **kwargs)

    gc.collect()
    monkeypatch.setattr(operators, "splu", checked)
    slc = count_below(op, energy)
    assert (slc.blocks, slc.shifts_applied) == (blocks, shifts)
    assert len(inputs) >= blocks - 1


def test_shift_holds_no_factors_of_the_faulted_threshold(monkeypatch):
    # a near-zero black pivot moves the threshold; the factors it was read
    # from are dropped before the next threshold factors anything
    m = _square_model({(2, 0): 1.0, (0, 2): 1.0})
    op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, 40),
                  strict_resolution=False)
    factor, pivots = operators._factor, operators._negative_pivots
    factored = []

    def checked(mat):
        # the previous factors are held only by `factored` and the call
        held = sys.getrefcount(factored[-1]) if factored else 2
        assert held == 2
        factored.append(factor(mat))
        return factored[-1]

    def tie_once(lu, bound):
        if len(factored) == 1:
            raise operators.FactorizationFault("near-zero pivot")
        return pivots(lu, bound)

    monkeypatch.setattr(operators, "_factor", checked)
    monkeypatch.setattr(operators, "_negative_pivots", tie_once)
    slc = count_below(op, 1.0)
    assert (slc.shifts_applied, slc.blocks, len(factored)) == (1, 5, 6)


@pytest.mark.parametrize(
    "odd_terms, blocks",
    [
        ({(3, 0): 0.3}, 2),  # odd in x1 only: x2 still splits
        ({(1, 0): 0.3}, 2),
        ({(1, 1): 0.3}, 1),  # odd under either reflection
        ({(1, 0): 0.3, (0, 3): 0.3}, 1),
    ],
)
def test_odd_potential_falls_back(odd_terms, blocks):
    base = make_model("separable_harmonic_2d")
    pot_key = ((0, 0), (0, 0))
    m = _square_model({**base.coefficients[pot_key].terms, **odd_terms})
    op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, 120),
                  strict_resolution=False)
    slc = count_below(op, 1.0)
    assert slc.blocks == blocks
    assert (slc.count, slc.shifts_applied) == _full_count(op, 1.0)


def _square_model(potential_terms, kinetic=(1.0, 1.0)) -> SymbolModel:
    """separable_harmonic_2d with another potential term table and the
    given kinetic coefficient on each axis."""
    base = make_model("separable_harmonic_2d")
    coeffs = {
        key: PolynomialCoefficient({(0, 0): k}, 2)
        for key, k in zip(list(base.coefficients)[:2], kinetic)
    }
    coeffs[((0, 0), (0, 0))] = PolynomialCoefficient(potential_terms, 2)
    return SymbolModel(
        base.dimension, coeffs, base.ellipticity_constant,
        base.box_x, base.box_xi, "square_variant",
    )


@pytest.mark.parametrize("n", [120, 121])
@pytest.mark.parametrize(
    "potential, kinetic, blocks",
    [
        ({(2, 0): 1.0, (0, 2): 2.0}, (1.0, 1.0), 4),  # mirrors, no swap
        ({(2, 0): 1.0, (0, 3): 1.0}, (1.0, 1.0), 2),  # x1 mirror only
        ({(2, 0): 1.0, (0, 2): 1.0}, (1.0, 1.5), 4),  # anisotropic kinetic
        ({(2, 0): 1.0, (0, 2): 1.0}, (1.0, 1.0), 5),  # D4
    ],
    ids=["potential_x1sq_2x2sq", "potential_x2_cubed", "kinetic_1_1.5", "d4"],
)
def test_swap_only_with_the_full_square_symmetry(potential, kinetic,
                                                 blocks, n):
    # the swap (i, j) -> (j, i) splits the blocks only when it commutes
    # with the matrix; otherwise the mirror blocks of the parent stay
    m = _square_model(potential, kinetic)
    op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, n), strict_resolution=False)
    slc = count_below(op, 1.0)
    assert slc.blocks == blocks
    assert (slc.count, slc.shifts_applied) == _full_count(op, 1.0)


def _forbid_matrix_builds(monkeypatch):
    """Make every build of an operator's whole matrix fail."""
    def forbidden(op):
        raise AssertionError("the whole matrix was built")

    monkeypatch.setattr(DiscreteOperator, "matrix", property(forbidden))


@pytest.mark.parametrize("n", [20, 21])
@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_mirrored_count_never_builds_the_matrix(name, n, monkeypatch):
    m = make_model(name)
    op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, n), strict_resolution=False)
    full = _full_count(op, 1.0)
    _forbid_matrix_builds(monkeypatch)
    slc = count_below(op, 1.0)
    assert slc.blocks == BLOCKS[name]
    assert (slc.count, slc.shifts_applied) == full


def test_unsplit_counts_never_build_the_matrix(harmonic, monkeypatch):
    # a 1-D operator, and a 2-D one odd under both reflections, are
    # counted as one block, also built from the stencil
    square = _square_model({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.3})
    ops = [
        assemble(harmonic, 0.05, 0.41, GridSpec(2.0, 401)),
        assemble(square, 0.1, 0.41, GridSpec(square.box_x, 20),
                 strict_resolution=False),
    ]
    fulls = [_full_count(op, 1.0) for op in ops]
    _forbid_matrix_builds(monkeypatch)
    for op, full in zip(ops, fulls):
        slc = count_below(op, 1.0)
        assert slc.blocks == 1
        assert (slc.count, slc.shifts_applied) == full


def test_one_dimensional_operator_factors_whole(harmonic):
    # a tridiagonal matrix factors without fill, so its mirror halves
    # would cost about as much as the whole plus each block's fixed cost
    op = assemble(harmonic, 0.05, 0.41, GridSpec(2.0, 401))
    slc = count_below(op, 1.0)
    assert slc.blocks == 1
    assert slc.count == 10 == _full_count(op, 1.0)[0]


TAU = 1e-9


def _kronecker_bracket(axis_potentials, box_x, n, h, energy):
    """(#{lam_i + mu_j < E - tau}, #{lam_i + mu_j < E + tau}) for
    T1 (x) I + I (x) T2, T_k = (h/dx)^2 tridiag(-1, 2, -1) + V_k(x_i) on the
    Dirichlet grid x_i = -box_x + i dx, i = 1..n."""
    dx = 2.0 * box_x / (n + 1)
    x = -box_x + dx * np.arange(1, n + 1)
    k = (h / dx) ** 2
    lam, mu = (
        eigvalsh_tridiagonal(2.0 * k + v(x), np.full(n - 1, -k))
        for v in axis_potentials
    )
    mu = np.sort(mu)
    lo = int(np.searchsorted(mu, energy - TAU - lam, side="left").sum())
    hi = int(np.searchsorted(mu, energy + TAU - lam, side="left").sum())
    return lo, hi


@pytest.mark.parametrize(
    "name, axis_potentials, n, h",
    [
        ("separable_harmonic_2d", (lambda x: x**2, lambda x: x**2),
         639, 0.025),
        ("double_well_2d", (lambda x: (x**2 - 1.0) ** 2, lambda x: x**2),
         300, 0.07),
    ],
)
def test_raw_count_matches_kronecker_oracle(name, axis_potentials, n, h):
    # every 2-D registry operator is T1 (x) I + I (x) T2, so its count is
    # #{lam_i + mu_j < E} over two tridiagonal spectra: an exact check of
    # the reflection-block count, independent of any factorization
    m = make_model(name)
    op = assemble(m, h, 0.41, GridSpec(m.box_x, n), strict_resolution=False)
    lo, hi = _kronecker_bracket(axis_potentials, m.box_x, n, h, 1.0)
    slc = count_below(op, 1.0)
    assert slc.blocks == BLOCKS[name]
    assert lo == hi == slc.count


# -- red/black elimination -----------------------------------------------------


@pytest.mark.parametrize("variant", ["plus", "raw", "minus"])
@pytest.mark.parametrize(
    "name", ["harmonic", "separable_harmonic_2d", "double_well_2d"])
@pytest.mark.parametrize("n", [20, 21])
def test_count_matches_dense_spectrum(name, variant, n):
    # an independent reference: the whole dense spectrum, no factorization
    m = make_model(name)
    grid = GridSpec(m.box_x, n * n if m.dimension == 1 else n)
    op = assemble(m, 0.1, 0.41, grid, variant=variant,
                  strict_resolution=False)
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    for energy in (0.3, 0.7, 1.0, 1.6, 2.5):
        assert np.abs(lam - energy).min() > 1e-8  # no tie to resolve
        slc = count_below(op, energy)
        assert (slc.count, slc.shifts_applied) == (np.sum(lam < energy), 0)


@pytest.mark.parametrize("variant", ["plus", "raw", "minus"])
@pytest.mark.parametrize("name", sorted(BLOCKS))
@pytest.mark.parametrize("n", [20, 21])
def test_schur_complement_matches_dense_reference(name, variant, n):
    # an independent reference for every block: the dense Schur complement
    # M_bb - M_br D_r^-1 M_rb of M = B - E W, its red-red part diagonal
    m = make_model(name)
    op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, n), variant=variant,
                  strict_resolution=False)
    blocks, bound = _blocks_and_bound(op, 1.0)
    for block in blocks:
        red, black = block.red, ~block.red
        dense = _shifted_block(block, 1.0).toarray()
        d = np.diag(dense)[red]
        assert np.array_equal(dense[np.ix_(red, red)], np.diag(d))
        ref = dense[np.ix_(black, black)] - dense[np.ix_(black, red)] @ (
            dense[np.ix_(red, black)] / d[:, None])
        negative, schur = operators._eliminate_red(block, 1.0, bound)
        assert negative == np.sum(d < 0.0)
        assert np.abs(schur.toarray() - ref).max() <= 1e-12 * bound
        assert (schur != schur.T).nnz == 0


def test_tie_on_a_red_node_shifts_every_block():
    # the corners sit at E = 2 on a diagonal 5 x 5 operator; a corner's
    # orbit rank (0, 0) is red in its block, as node (0, 0) is in the
    # whole matrix, so a red pivot is exactly zero at E and every block
    # moves to the shifted threshold, where the orbit of (0, 1) at
    # 2 - SHIFT_STEP/2 is not counted
    diag = np.ones((5, 5))
    diag[_orbit(5, 0, 1)] = 2.0 - 0.5 * operators.SHIFT_STEP
    diag[_orbit(5, 0, 0)] = 2.0
    op = _square_operator(diag)
    blocks, bound = _blocks_and_bound(op, 2.0)
    with pytest.raises(operators.FactorizationFault, match="red pivot"):
        operators._eliminate_red(blocks[0], 2.0, bound)
    slc = count_below(op, 2.0)
    assert slc.shifts_applied == 1
    assert slc.count == 25 - 4 - 8
    assert _full_count(op, 2.0) == _unreduced_count(op, 2.0) == (
        slc.count, 1)


@pytest.mark.parametrize("entry, energy, count, shifts", [
    (1.0, 2.0, 1, 0), (3.0, 2.0, 0, 0), (2.0, 2.0, 0, 1)])
def test_single_node_operator(entry, energy, count, shifts):
    # one red node and no black half: the count is the red pivot's sign
    slc = count_below(_diagonal_operator([entry]), energy)
    assert (slc.count, slc.shifts_applied, slc.blocks) == (count, shifts, 1)


def test_blocks_without_black_nodes():
    # on 3 x 3 nodes the swap-even odd-odd block holds the one orbit of
    # rank (0, 0), the four corners: red, with no black half
    rng = np.random.default_rng(3)
    corner, edge, centre = rng.uniform(0.0, 2.0, 3)
    diag = np.full((3, 3), edge)
    diag[_orbit(3, 0, 0)] = corner
    diag[1, 1] = centre
    couplings = np.full((2, 3), -0.3)
    op = _square_operator(diag, couplings)
    blocks = _symmetry_blocks(op)
    assert [np.sum(~b.red) for b in blocks] == [1, 1, 1, 0]
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    for energy in (0.5, 1.0, 1.5, 2.5):
        assert count_below(op, energy).count == np.sum(lam < energy)


def test_red_red_coupling_is_a_programming_error(harmonic, monkeypatch):
    # a colouring that puts two coupled nodes in the red half breaks the
    # invariant the elimination rests on: building the block raises, and
    # no sweep may record it as a gap
    from weyllab.harness import _SAMPLE_FAULTS

    monkeypatch.setattr(operators, "_red_nodes",
                        lambda *coords: np.ones(coords[0].shape, bool))
    for m, n in ((harmonic, 41), (make_model("separable_harmonic_2d"), 20)):
        op = assemble(m, 0.05, 0.41, GridSpec(m.box_x, n),
                      strict_resolution=False)
        with pytest.raises(ValueError, match="bipartite") as err:
            count_below(op, 1.0)
        assert not isinstance(err.value, _SAMPLE_FAULTS)


def test_small_red_pivot_stays_in_the_schur_complement():
    # the 4-cycle of test_tie_inside_one_block_shifts_every_block, whole,
    # at the first shifted threshold: its two red pivots are 1e-10 against
    # couplings 0.5, and eliminating them would add -5e9 to each black
    # node of the cycle and lose the sign of what is left; they stay in S,
    # and every other red node goes
    e, c = 2.0, 0.5
    diag = np.full((4, 4), e - 0.5 * operators.SHIFT_STEP)
    diag[_orbit(4, 1, 1)] = e
    couplings = np.zeros((3, 4))
    couplings[1, 1:3] = c
    op = _square_operator(diag, couplings)
    blocks = [_whole_block(op)]
    bound = operators._pivot_bound(op, e, [blocks[0].weights])
    shifted = e - operators.SHIFT_STEP
    negative, schur = operators._eliminate_red(blocks[0], shifted, bound)
    assert negative == 0
    assert schur.shape[0] == np.sum(~blocks[0].red) + 2
    assert (schur != schur.T).nnz == 0
    assert negative + _sparse_inertia(schur, bound) == 1


def test_swap_check_compares_the_blocks_bit_for_bit(monkeypatch):
    # the even-odd block is counted twice only when T * OE * T == EO:
    # moving one coupling to another column, or changing one coupling or
    # diagonal entry by one ulp, in the first block built must split the
    # pair again, and so must one ulp on the stencil
    build = operators._block

    def bent(kind):
        def block(*args):
            b = build(*args)
            monkeypatch.setattr(operators, "_block", build)
            c = b.couplings
            data, cols, diagonal = c.data.copy(), c.indices.copy(), \
                b.diagonal.copy()
            first = c.indptr[7]  # row 7's first entry
            if kind == "column":
                row = cols[first:c.indptr[8]]
                cols[first] = min(set(range(row.max() + 2)) - set(row))
            elif kind == "value":
                data[first] = np.nextafter(data[first], np.inf)
            else:
                diagonal[7] = np.nextafter(diagonal[7], np.inf)
            return b._replace(diagonal=diagonal, couplings=sp.csr_matrix(
                (data, cols, c.indptr), shape=c.shape))
        return block

    m = make_model("separable_harmonic_2d")
    for n in (20, 21):
        op = assemble(m, 0.1, 0.41, GridSpec(m.box_x, n),
                      strict_resolution=False)
        maps = [operators._block_map(n, p) for p in ((1, -1), (-1, 1))]
        assert [b.mult for b in operators._mixed_pair(op, *maps)] == [2]
        for kind in ("column", "value", "diagonal"):
            monkeypatch.setattr(operators, "_block", bent(kind))
            pair = operators._mixed_pair(op, *maps)
            assert [b.mult for b in pair] == [1, 1]
        # one ulp on one axis-0 coupling and its mirror images, not on
        # the axis-1 coupling the swap maps it onto
        c0 = op.couplings[0].copy()
        for i, j in ((2, 3), (n - 4, 3), (2, n - 4), (n - 4, n - 4)):
            c0[i, j] = np.nextafter(c0[i, j], np.inf)
        op.couplings = (c0, op.couplings[1])
        assert operators._symmetries(op) == ([True, True], False)
        assert [b.mult for b in operators._mixed_pair(op, *maps)] == [1, 1]

