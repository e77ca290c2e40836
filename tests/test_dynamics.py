"""Hamiltonian flow invariants and oscillatory-integral diagnostics."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from weyllab import dynamics
from weyllab.dynamics import (
    bump_amplitude,
    check_displacement_bounds,
    integrate_flow,
    nonstationary_decay_check,
    oscillatory_integral,
    ring_amplitude,
)
from weyllab.symbols import (
    Coefficient,
    EvaluationFault,
    PolynomialCoefficient,
    SymbolModel,
    make_model,
    smooth_cutoff,
)


@pytest.fixture(scope="module")
def harmonic():
    return make_model("harmonic")


@pytest.fixture(scope="module")
def double_well():
    return make_model("double_well_2d")


def test_harmonic_rotation(harmonic):
    # x^2 + xi^2 rotates phase space at angular speed 2
    traj = integrate_flow(harmonic, [1.0, 0.0], np.pi / 2,
                          times=[0.0, np.pi / 2])
    np.testing.assert_allclose(traj.state_at(np.pi / 2), [-1.0, 0.0],
                               atol=1e-8)
    np.testing.assert_array_equal(traj.state_at(0.0), [1.0, 0.0])


def test_energy_conservation(double_well):
    traj = integrate_flow(double_well, [0.8, 0.2, 0.3, -0.1], 2.0,
                          times=np.linspace(0, 2, 21))
    assert traj.energy_drift <= 1e-8


def test_group_law(harmonic):
    v0 = np.array([0.7, -0.4])
    t1, t2 = 0.3, 0.45
    direct = integrate_flow(harmonic, v0, t1 + t2,
                            times=[t1 + t2]).state_at(t1 + t2)
    mid = integrate_flow(harmonic, v0, t1, times=[t1]).state_at(t1)
    chained = integrate_flow(harmonic, mid, t2, times=[t2]).state_at(t2)
    np.testing.assert_allclose(direct, chained, atol=1e-7)


def test_reversibility(double_well):
    v0 = np.array([0.6, 0.1, -0.2, 0.4])
    fwd = integrate_flow(double_well, v0, 0.8, times=[0.8]).state_at(0.8)
    back = integrate_flow(double_well, fwd, -0.8, times=[-0.8]).state_at(-0.8)
    np.testing.assert_allclose(back, v0, atol=1e-7)


def test_symplectic_volume(harmonic):
    # determinant of the flow Jacobian is 1 (finite-difference Jacobian)
    t, eps = 0.5, 1e-6
    v0 = np.array([0.6, 0.3])

    def flow(v):
        return integrate_flow(harmonic, v, t, times=[t]).state_at(t)

    jac = np.array(
        [(flow(v0 + eps * e) - flow(v0 - eps * e)) / (2 * eps)
         for e in np.eye(2)]
    ).T
    assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-4)


def test_batch_matches_single_starts(double_well):
    rng = np.random.default_rng(5)
    starts = rng.uniform(-0.8, 0.8, (16, 4))
    times = [-0.1, -0.05, 0.05, 0.1]
    batch = integrate_flow(double_well, starts, 0.1, times=times)
    assert batch.states.shape == (5, 16, 4)
    np.testing.assert_array_equal(batch.state_at(0.0), starts)
    for i, v in enumerate(starts):
        single = integrate_flow(double_well, v, 0.1, times=times)
        np.testing.assert_allclose(batch.states[:, i], single.states,
                                   rtol=0, atol=1e-9)


def _blowup_model():
    # xi^2 - x^4: from (1, 1) the energy is 0 and x' = 2 x^2 blows up at
    # t = 1/2, before the first snapshot at t = 1
    coeffs = {
        ((1,), (1,)): PolynomialCoefficient({(0,): 1.0}, 1),
        ((0,), (0,)): PolynomialCoefficient({(4,): -1.0}, 1),
    }
    return SymbolModel(dimension=1, coefficients=coeffs,
                       ellipticity_constant=1.0, name="blowup")


@pytest.mark.parametrize("v0", [[1.0, 1.0], [[1.0, 1.0], [0.5, 0.2]]])
def test_stalled_flow_raises_integration_fault(v0):
    with pytest.raises(dynamics.IntegrationFault) as info:
        integrate_flow(_blowup_model(), v0, 1.0)
    assert np.shape(info.value.last_state) == np.shape(v0)


def _rotation(starts, t):
    """The flow of x^2 + xi^2: rotation of (x, xi) by the angle -2t."""
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    x, xi = starts[:, 0], starts[:, 1]
    return np.stack([c * x + s * xi, c * xi - s * x], axis=1)


def test_harmonic_batch_matches_rotation(harmonic):
    starts = np.random.default_rng(11).uniform(-1.0, 1.0, (64, 2))
    times = [-1.3, -0.4, 0.25, 0.9, 2.1]
    traj = integrate_flow(harmonic, starts, 2.1, times=times)
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(state, _rotation(starts, t), rtol=0,
                                   atol=1e-9)


def _rotation_rhs(y):
    # x' = 2 xi, xi' = -2 x, for one start
    return np.array([2.0 * y[1], -2.0 * y[0]])


def test_steps_land_on_every_snapshot():
    # two stops 1e-9 apart, and one that is not a sum of earlier steps
    start = np.array([[1.0, 0.0]])
    for stops in (np.array([0.1, 0.1 + 1e-9, 0.7, 4.0 / 3.0, 2.5]),
                  np.array([-0.2, -1.0 / 3.0, -1.9])):
        states, ends, _ = dynamics._dormand_prince(
            _rotation_rhs, start[0], stops, 1e-11)
        assert np.all(np.diff(np.abs(ends)) > 0)
        assert set(stops) <= set(ends)
        np.testing.assert_allclose(
            states, [_rotation(start, t)[0] for t in stops], rtol=0,
            atol=1e-9)


def test_error_estimate_is_fifth_order():
    # the embedded pair differs at order h^5, which the estimate needs its
    # seventh (first same as last) stage for
    y = np.array([0.6, -0.3])
    ratios = []
    for h in (0.05, 0.025):
        errs = []
        for step in (h, h / 2):
            k = np.empty((7, 2))
            k[0] = _rotation_rhs(y)
            errs.append(np.abs(dynamics._dp_step(_rotation_rhs, y, k,
                                                 step)[1]).max())
        ratios.append(errs[0] / errs[1])
    assert all(28.0 < r < 36.0 for r in ratios)


def test_rejected_steps_keep_the_error_in_bounds():
    # y' = g(y) crosses a speed bump near y = 1, where g grows a
    # thousandfold within 0.001: steps grown on the flat part are rejected
    # there, and accepted they would leave an error near 1e-2.  The time to
    # reach y is t(y) in closed form.
    a, eps = 0.999, 0.001

    def rhs(y):
        return 1.0 / (1.0 - a * eps**2 / (eps**2 + (y - 1.0) ** 2))

    def t_of(y):
        return y - a * eps * (math.atan((y - 1.0) / eps) + math.atan(1.0 / eps))

    stops = np.array([0.5, t_of(2.0)])
    states, ends, evaluations = dynamics._dormand_prince(
        rhs, np.array([0.0]), stops, 1e-10)
    assert (evaluations - 2) // 6 > len(ends)  # some steps were rejected
    assert abs(t_of(states[-1, 0]) - stops[-1]) < 1e-8


def test_displacement_bounds_clean(harmonic):
    rep = check_displacement_bounds(
        harmonic, n_samples=25, t_grid=[-0.1, -0.05, 0.05, 0.1],
        cbar=0.5, delta0=0.41, h=0.05, seed=2,
    )
    assert rep.ok
    assert rep.empirical_t0 == pytest.approx(0.1)
    # rotation chord: |flow_t(v) - v| = |t grad| sin(t)/t <= |t grad|
    assert 0.9 <= rep.c1 <= 1.0 + 1e-9
    assert 0.9 <= rep.c2 <= 1.0 + 1e-9


def test_displacement_violations_on_rotation(harmonic):
    # the flow rotates at angular speed 2, so |flow_t(v) - v| equals
    # |grad p| |sin t|, below |t grad p|/2 at |t| = 3 and above it at |t| = 1
    rep = check_displacement_bounds(
        harmonic, n_samples=6, t_grid=[-3, -1, 1, 3], cbar=0.5,
        delta0=0.41, h=0.05, seed=3,
    )
    assert len(rep.violations) == 12
    assert rep.empirical_t0 == 1.0
    # sample-major, then t ascending
    assert [t for _, t, _, _ in rep.violations] == [-3.0, 3.0] * 6
    starts = [v for v, _, _, _ in rep.violations]
    assert starts[0::2] == starts[1::2]
    assert len(set(starts)) == 6
    for v, t, disp, lower in rep.violations:
        gnorm = 2.0 * np.linalg.norm(v)
        assert disp == pytest.approx(gnorm * abs(math.sin(t)), abs=1e-9)
        assert lower == pytest.approx(0.5 * abs(t) * gnorm, abs=1e-12)
    assert rep.c1 == pytest.approx(math.sin(1.0), abs=1e-9)


def test_displacement_bounds_double_well(double_well):
    rep = check_displacement_bounds(
        double_well, n_samples=8, t_grid=[-0.1, 0.1], cbar=0.5,
        delta0=0.41, h=0.05, seed=1,
    )
    assert rep.ok


def test_displacement_threshold_out_of_reach_raises(double_well):
    # cbar h^delta0 = 1000 * 0.05^0.41 = 293 exceeds every |grad p| on the
    # box (at most about 17.1), so rejection sampling can accept nothing
    with pytest.raises(ValueError, match="threshold"):
        check_displacement_bounds(
            double_well, n_samples=8, t_grid=[-0.1, 0.1], cbar=1000.0,
            delta0=0.41, h=0.05,
        )


@pytest.mark.parametrize("cbar, n", [(0.0, 4), (-0.5, 4), (0.5, 0)])
def test_displacement_invalid_arguments_raise(harmonic, cbar, n):
    with pytest.raises(ValueError, match="cbar > 0 and n_samples >= 1"):
        check_displacement_bounds(
            harmonic, n_samples=n, t_grid=[-0.1, 0.1], cbar=cbar,
            delta0=0.41, h=0.05,
        )


def _ring_reference(center, r_inner, r_outer):
    # reference: both cutoffs on every node, r from np.linalg.norm
    w = 0.25 * (r_outer - r_inner)

    def amp(pts):
        r = np.linalg.norm(pts - np.asarray(center)[None, :], axis=1)
        up = 1.0 - smooth_cutoff(r, r_inner, r_inner + w)
        down = smooth_cutoff(r, r_outer - w, r_outer)
        return up * down

    return amp


def _bump_reference(center, radius):
    def amp(pts):
        r = np.linalg.norm(pts - np.asarray(center)[None, :], axis=1)
        return smooth_cutoff(r, radius / 2.0, radius)

    return amp


@pytest.mark.parametrize("dim", [2, 4])
def test_radial_amplitudes_match_reference(dim):
    rng = np.random.default_rng(3)
    r_inner, r_outer, radius = 0.5, 1.5, 0.8
    w = 0.25 * (r_outer - r_inner)
    for center in (np.zeros(dim), rng.uniform(-0.3, 0.3, dim)):
        # random nodes plus nodes exactly at the centre and at every
        # breakpoint of the two cutoffs along the first axis
        radii = [0.0, r_inner, r_inner + w, r_outer - w, r_outer,
                 radius / 2.0, radius]
        edge = np.tile(center, (len(radii), 1))
        edge[:, 0] += radii
        pts = np.vstack([rng.uniform(-2.0, 2.0, (4096, dim)), edge])
        pairs = [
            (ring_amplitude(center, r_inner, r_outer),
             _ring_reference(center, r_inner, r_outer)),
            (bump_amplitude(center, radius), _bump_reference(center, radius)),
        ]
        for new, ref in pairs:
            assert np.array_equal(new(*pts.T), ref(pts))
        # the quadrature's call: x columns (rows, 1) by xi columns (1, m),
        # against the reference on the flattened meshgrid
        d = dim // 2
        xs = np.vstack([rng.uniform(-2.0, 2.0, (61, d)), edge[:, :d]])
        xis = np.vstack([rng.uniform(-2.0, 2.0, (67, d)), center[None, d:]])
        grid = np.hstack([np.repeat(xs, len(xis), axis=0),
                          np.tile(xis, (len(xs), 1))])
        coords = ([xs[:, k, None] for k in range(d)]
                  + [xis[None, :, k] for k in range(d)])
        for new, ref in pairs:
            want = ref(grid).reshape(len(xs), len(xis))
            assert np.array_equal(new(*coords), want)
            buf = np.full((len(xs), len(xis)), np.nan)
            assert new(*coords, out=buf) is buf
            assert np.array_equal(buf, want)


@pytest.mark.parametrize("factory", [
    lambda c: ring_amplitude(c, 0.5, 1.5),
    lambda c: bump_amplitude(c, 0.8),
])
def test_radial_amplitudes_reject_stale_calls(factory):
    # an (N, 2d) point array is one coordinate, not 2d of them
    amp = factory([0.0, 0.0])
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (16, 2))
    with pytest.raises(ValueError, match="2 dimensions got 1"):
        amp(pts)
    with pytest.raises(ValueError, match="2 dimensions got 3"):
        amp(*pts.T, pts[:, 0])


def test_oscillatory_t_zero_radial_oracle(harmonic):
    amp = ring_amplitude([0.0, 0.0], 0.5, 1.5)
    h = 0.01
    res = oscillatory_integral(harmonic, amp, 0.0, h,
                               support_box=[(-1.6, 1.6)] * 2, min_panels=16)
    ref = 2 * np.pi * quad(
        lambda r: amp(r, 0.0) * r, 0.4, 1.6, limit=200
    )[0] / (2 * np.pi * h)
    assert res.value.imag == pytest.approx(0.0, abs=1e-10)
    assert res.value.real == pytest.approx(ref, rel=1e-6)


def test_oscillatory_conjugation(harmonic):
    amp = ring_amplitude([0.0, 0.0], 0.5, 1.5)
    box = [(-1.6, 1.6)] * 2
    plus = oscillatory_integral(harmonic, amp, 0.3, 0.01, support_box=box)
    minus = oscillatory_integral(harmonic, amp, -0.3, 0.01, support_box=box)
    assert plus.value == pytest.approx(np.conj(minus.value), abs=1e-8)
    assert plus.quadrature_error < 1e-6 * max(abs(plus.value), 1.0)


def test_oscillatory_triangle_bound(harmonic):
    # |J| <= (2 pi h)^(-d) * integral of |b|, the t = 0 value
    amp = bump_amplitude([0.0, 0.0], 0.8)
    box = [(-0.9, 0.9)] * 2
    at0 = oscillatory_integral(harmonic, amp, 0.0, 0.02, support_box=box,
                               min_panels=16)
    osc = oscillatory_integral(harmonic, amp, 0.5, 0.02, support_box=box)
    assert abs(osc.value) <= at0.value.real * (1 + 1e-9)


def test_decay_requires_admissible_mu(harmonic):
    with pytest.raises(ValueError):
        nonstationary_decay_check(
            harmonic, lambda h: bump_amplitude([0, 0], 0.5), mu=0.6,
            n_max=2, h_grid=[0.01] * 4, delta0=0.25,
        )


def _direct_sum(model, amplitude, t, h, box, panels):
    # reference: model.value and one exp on every node of the full tensor rule
    rules = [dynamics._panel_rule(lo, hi, panels) for lo, hi in box]
    pts = np.stack(
        np.meshgrid(*[p for p, _ in rules], indexing="ij"), axis=-1
    ).reshape(-1, len(box))
    wts = functools.reduce(np.multiply.outer, [w for _, w in rules]).ravel()
    return np.sum(wts * amplitude(*pts.T) * np.exp(1j * model.value(pts) * (t / h)))


def _mixed_model():
    # (1 + x^2/4) xi^2 + x^2: the xi^2 coefficient varies in x, so the
    # quadrature must treat that term as a mixed term
    coeffs = {
        ((1,), (1,)): PolynomialCoefficient({(0,): 1.0, (2,): 0.25}, 1),
        ((0,), (0,)): PolynomialCoefficient({(2,): 1.0}, 1),
    }
    return SymbolModel(dimension=1, coefficients=coeffs,
                       ellipticity_constant=1.0, name="mixed_kinetic")


@pytest.mark.parametrize("t, h", [(0.0, 0.02), (0.3, 0.01), (1.0, 0.005)])
@pytest.mark.parametrize("name", ["harmonic", "mixed_kinetic"])
def test_tensor_quadrature_matches_direct_sum(name, t, h):
    model = make_model("harmonic") if name == "harmonic" else _mixed_model()
    amp = ring_amplitude([0.0, 0.0], 0.5, 1.5)
    box = [(-1.6, 1.6)] * 2
    got = dynamics._tensor_quadrature(model, amp, t, h, box, 40)
    ref = _direct_sum(model, amp, t, h, box, 40)
    assert abs(got - ref) <= 1e-12 * abs(ref)


# -- mirror fold -----------------------------------------------------------------


@pytest.mark.parametrize("hi", [1.6, 0.9, 0.7, 1.0 / 3.0, 2.0, 1e-3])
@pytest.mark.parametrize("panels", [1, 2, 3, 75, 150, 151, 1000])
def test_panel_rule_antisymmetric_on_symmetric_boxes(hi, panels):
    pts, wts = dynamics._panel_rule(-hi, hi, panels)
    assert len(pts) == panels * dynamics.NODES_PER_PANEL
    assert np.array_equal(pts, -pts[::-1])
    assert np.array_equal(wts, wts[::-1])
    assert -hi < pts[0] and pts[-1] < hi
    assert wts.sum() == pytest.approx(2.0 * hi, rel=1e-13)


@pytest.mark.parametrize("center, even", [
    ((0.0, 0.0), (0, 1)),
    ((0.1, 0.0), (1,)),
    ((0.0, 0.2, 0.0, -0.1), (0, 2)),
    ((0.0, 0.0, 0.0, 0.0), (0, 1, 2, 3)),
])
def test_radial_amplitudes_even_on_centred_axes(center, even):
    # each axis its own symmetric node set, on the full broadcast grid
    rng = np.random.default_rng(5)
    dim = len(center)
    n = 40 if dim == 2 else 10
    coords = []
    for k in range(dim):
        half = np.sort(rng.uniform(0.0, 2.0, n))
        shape = [1] * dim
        shape[k] = 2 * n
        coords.append(np.concatenate([-half[::-1], half]).reshape(shape))
    for amp in (ring_amplitude(center, 0.5, 1.5), bump_amplitude(center, 0.8)):
        assert amp.even_axes == even
        b = amp(*coords)
        assert b.shape == (2 * n,) * dim
        for k in range(dim):
            assert np.array_equal(b, np.flip(b, k)) == (k in even)


def _quadrature_folds(model, amp, box, t=0.3, h=0.01, panels=40):
    """(value, axes folded): on a folded axis the amplitude sees only the
    upper half of the nodes, all of them positive."""
    lows = []

    def recording(*coords, out=None):
        lows.append([float(np.min(c)) for c in coords])
        return amp(*coords, out=out)

    if hasattr(amp, "even_axes"):
        recording.even_axes = amp.even_axes
    value = dynamics._tensor_quadrature(model, recording, t, h, box, panels)
    return value, tuple(np.flatnonzero(np.min(lows, axis=0) > 0))


@pytest.mark.parametrize("t, h", [(0.0, 0.02), (0.3, 0.01), (1.0, 0.005)])
@pytest.mark.parametrize("name", ["harmonic", "mixed_kinetic"])
def test_fold_matches_unfolded(name, t, h):
    model = make_model("harmonic") if name == "harmonic" else _mixed_model()
    amp = ring_amplitude([0.0, 0.0], 0.5, 1.5)
    box = [(-1.6, 1.6)] * 2
    folded, axes = _quadrature_folds(model, amp, box, t, h)
    assert axes == (0, 1)

    def stripped(*coords, out=None):
        return amp(*coords, out=out)

    whole, axes = _quadrature_folds(model, stripped, box, t, h)
    assert axes == ()
    assert abs(folded - whole) <= 1e-13 * abs(whole)


def _one_dimensional_model(potential, momentum=0.0):
    # xi^2 + 2 momentum xi + V(x), V given as {power: coefficient}
    coeffs = {
        ((1,), (1,)): PolynomialCoefficient({(0,): 1.0}, 1),
        ((0,), (0,)): PolynomialCoefficient(
            {(e,): c for e, c in potential.items()}, 1),
    }
    if momentum:
        for pair in (((1,), (0,)), ((0,), (1,))):
            coeffs[pair] = PolynomialCoefficient({(0,): momentum}, 1)
    return SymbolModel(dimension=1, coefficients=coeffs,
                       ellipticity_constant=1.0, name="one_dimensional")


@pytest.mark.parametrize("case, folded", [
    ("centred", (0, 1)),
    ("off_centre_x", (1,)),
    ("odd_potential", (1,)),
    ("odd_momentum_term", (0,)),
    ("asymmetric_box", (1,)),
    # a phase constant in x is mirrored on any box: only the rule tells
    ("asymmetric_box_flat_potential", (1,)),
    ("no_even_axes", ()),
])
def test_fold_only_on_proven_even_axes(case, folded):
    model = make_model("harmonic")
    center = [0.0, 0.0]
    box = [(-1.6, 1.6)] * 2
    if case == "off_centre_x":
        center = [0.1, 0.0]
    elif case == "odd_potential":
        model = _one_dimensional_model({2: 1.0, 3: 0.1})
    elif case == "odd_momentum_term":
        model = _one_dimensional_model({2: 1.0}, momentum=0.15)
    elif case == "asymmetric_box":
        box = [(-1.5, 1.6), (-1.6, 1.6)]
    elif case == "asymmetric_box_flat_potential":
        model = _one_dimensional_model({0: 1.0})
        box = [(-1.5, 1.6), (-1.6, 1.6)]
    amp = ring_amplitude(center, 0.5, 1.5)
    if case == "no_even_axes":
        ring = amp

        def amp(*coords, out=None):
            return ring(*coords, out=out)

    got, axes = _quadrature_folds(model, amp, box)
    assert axes == folded
    ref = _direct_sum(model, amp, 0.3, 0.01, box, 40)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_oscillatory_independent_of_worker_count(harmonic, monkeypatch):
    panels = []
    quadrature = dynamics._tensor_quadrature

    def recording(model, amplitude, t, h, box, n):
        panels.append(n)
        return quadrature(model, amplitude, t, h, box, n)

    monkeypatch.setattr(dynamics, "_tensor_quadrature", recording)
    amp = ring_amplitude([0.0, 0.0], 0.5, 1.5)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(dynamics, "_WORKERS", workers)
        results.append(oscillatory_integral(
            harmonic, amp, 0.3, 0.01, support_box=[(-1.6, 1.6)] * 2
        ))
    # the fine rule, folded on both axes, has half its nodes per axis; its x
    # nodes come in chunks of CHUNK_POINTS // |xi nodes| rows, and it must
    # span several chunks for the worker count to matter
    nodes = max(panels) * dynamics.NODES_PER_PANEL // 2
    rows = dynamics.CHUNK_POINTS // nodes
    assert math.ceil(nodes / rows) >= 2
    one, two = results
    assert one.value == two.value
    assert one.quadrature_error == two.quadrature_error


@pytest.mark.parametrize("workers", [1, 2])
def test_quadrature_reuses_one_buffer_per_worker(harmonic, monkeypatch,
                                                 workers):
    # 256 panels folded on both axes: 1024^2 nodes in four chunks of 256
    # x rows
    monkeypatch.setattr(dynamics, "_WORKERS", workers)
    amp = ring_amplitude([0.0, 0.0], 0.5, 1.5)
    box = [(-1.6, 1.6)] * 2
    outs = []

    def recording(*coords, out=None):
        outs.append(out)
        return amp(*coords, out=out)

    recording.even_axes = amp.even_axes
    got = dynamics._tensor_quadrature(harmonic, recording, 0.3, 0.01, box, 256)
    assert len(outs) >= 3
    buffers = []
    for out in outs:
        assert out is not None
        if not any(np.shares_memory(out, b) for b in buffers):
            buffers.append(out)
    assert len(buffers) <= workers
    assert got == dynamics._tensor_quadrature(harmonic, amp, 0.3, 0.01, box,
                                              256)


def test_allocation_failure_propagates(harmonic):
    # a MemoryError of the amplitude itself is a fault: it reaches the
    # caller, as an over-budget rule's NodeBudgetExceeded does
    amp = ring_amplitude([0.0, 0.0], 0.5, 1.5)
    calls = []

    def failing(*coords, out=None):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError("injected")
        return amp(*coords, out=out)

    with pytest.raises(MemoryError, match="injected"):
        oscillatory_integral(harmonic, failing, 0.3, 0.01,
                             support_box=[(-1.6, 1.6)] * 2)


def _nan_beyond(harmonic) -> SymbolModel:
    """`harmonic` with a potential gradient that is NaN for x > 1.5."""
    key = ((0,), (0,))
    pot = harmonic.coefficients[key]

    def grad(x):
        return np.where(x > 1.5, np.nan, pot.grad(x))

    return SymbolModel(1, {**harmonic.coefficients,
                           key: Coefficient(pot.value, grad, pot.hess)},
                       1.0, name="harmonic")


def test_non_finite_probe_gradient_faults(harmonic):
    # the panel count is read off |grad p| at random probes: a NaN there
    # is an evaluation fault at that probe, not a failed int conversion
    with pytest.raises(EvaluationFault, match="gradient is not finite") as fault:
        oscillatory_integral(_nan_beyond(harmonic),
                             ring_amplitude([0.0, 0.0], 0.5, 1.5), 0.3, 0.01)
    assert fault.value.location.shape == (2,)
    assert fault.value.location[0] > 1.5


@pytest.mark.parametrize("start", [(1.6, 0.0), (1.4, 1.0)],
                         ids=["at_the_start", "along_the_flow"])
def test_non_finite_flow_slope_faults(harmonic, start):
    # a NaN slope makes every error estimate NaN, which the step controller
    # rejects forever: the first slope that is not finite, at the start or
    # at a stage once the orbit of radius 1.72 passes x = 1.5, is an
    # evaluation fault at its phase point
    with pytest.raises(EvaluationFault, match="gradient is not finite") as fault:
        integrate_flow(_nan_beyond(harmonic), start, 1.0)
    assert fault.value.location.shape == (2,)
    assert fault.value.location[0] > 1.5


def test_non_finite_sample_gradient_faults(harmonic):
    # |grad p| > threshold is false for NaN: such a candidate was dropped
    # without a word, and a kept one near x = 1.5 later stalled the flow
    with pytest.raises(EvaluationFault, match="gradient is not finite") as fault:
        check_displacement_bounds(_nan_beyond(harmonic), 64, [0.05, 0.1],
                                  cbar=0.5, delta0=0.25, h=0.01)
    assert fault.value.location.shape == (2,)
    assert fault.value.location[0] > 1.5


def test_oscillatory_four_dimensional_product_oracle():
    # p = |v|^2 and a product amplitude: the integral factors into four
    # copies of the 1-D integral of exp(i t v^2 / h) chi(v)
    model = make_model("separable_harmonic_2d")
    t, h = 0.1, 0.05

    def amp(*coords, out):
        out[...] = functools.reduce(
            np.multiply, [smooth_cutoff(x, 0.1, 0.6) for x in coords])
        return out

    res = oscillatory_integral(model, amp, t, h,
                               support_box=[(-0.7, 0.7)] * 4, min_panels=4)

    def chi(v):
        return float(smooth_cutoff(np.array([v]), 0.1, 0.6)[0])

    def part(trig):
        return quad(lambda v: trig(t * v * v / h) * chi(v), -0.6, 0.6,
                    points=[-0.1, 0.1], epsabs=1e-14, epsrel=1e-13,
                    limit=200)[0]

    one_d = complex(part(np.cos), part(np.sin))
    ref = one_d**4 / (2 * np.pi * h) ** 2
    assert abs(res.value - ref) <= 1e-6 * abs(ref)
    assert abs(res.value - ref) <= res.quadrature_error


def test_node_budget_fallback(harmonic, monkeypatch):
    amp = bump_amplitude([0.0, 0.0], 0.8)
    box = [(-0.9, 0.9)] * 2
    # h = 0.025, t = h^0.2: the coarse rule has 16 panels or 128^2 = 16384
    # nodes, the fine rule 256^2 = 65536; the fine rule is built first, so
    # an over-budget call evaluates the amplitude nowhere
    calls = []

    def recording(*coords, out=None):
        calls.append(1)
        return amp(*coords, out=out)

    monkeypatch.setattr(dynamics, "NODE_BUDGET", 50000)
    with pytest.raises(dynamics.NodeBudgetExceeded, match="65536"):
        oscillatory_integral(harmonic, recording, 0.025**0.2, 0.025,
                             support_box=box)
    assert calls == []
    # the decay check leaves h = 0.025 out and keeps h = 0.035, whose fine
    # rule (208^2 = 43264 nodes) is within the budget
    rep = nonstationary_decay_check(
        harmonic, lambda h: amp, mu=0.8, n_max=1,
        h_grid=[0.1, 0.07, 0.05, 0.035, 0.025], delta0=0.25,
        support_box=box,
    )
    assert rep.excluded == (0.025,)
    assert rep.h_grid == (0.035, 0.05, 0.07, 0.1)


def test_zero_value_is_excluded(harmonic):
    # a value of exactly 0 has no logarithm: the h must be reported as
    # excluded, not listed among the fitted points
    bump = bump_amplitude([0.0, 0.0], 0.8)

    def zero(*coords, out):
        out.fill(0.0)
        return out

    def factory(h):
        if h == 0.05:
            return zero
        return bump

    rep = nonstationary_decay_check(
        harmonic, factory, mu=0.8, n_max=1,
        h_grid=[0.1, 0.07, 0.05, 0.035, 0.025], delta0=0.25,
        support_box=[(-0.9, 0.9)] * 2,
    )
    assert 0.05 in rep.excluded
    assert 0.05 not in rep.h_grid
    assert rep.fit.excluded == 0
