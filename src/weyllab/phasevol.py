"""Phase-space volume functionals for the counting estimates.

Everything here reduces to Lebesgue measures on the classical phase space:
the volume of the sublevel set {a0 < E} (the leading counting term), the
remainder functional built from the worst thin energy shell
{|a0 - E'| <= h} near E, the h^delta0-thickened near-critical set, and
exact 1-D polynomial sublevel measures.

For second-order symbols the fiber in the first momentum coordinate is a
quadratic A (t - t0)^2 + m with A > 0, read off the symbol's term table
a(x) xi^mu: each term adds to the t^2, t or constant coefficient by its
power of t.  While its sublevel interval stays inside the momentum box,
which the containment check guarantees, the measure of {a0 < L} on the
fiber is exactly 2 sqrt((L - m)_+ / A).  A `FiberCloud` holds (A, m, t0) at
every base point (a midpoint grid in x for d = 1, a stratified Monte Carlo
cloud over the remaining coordinates for d >= 2), and `weyl_volume` and
`remainder_functional` integrate that one closed form over it.  This
removes the indicator-function variance in the thin-shell regime and makes
the relative error h-independent.  A sweep builds one cloud and measures
every energy level on it; the remainder sup checks containment once per h
and measures its shells only on the points whose fiber minimum lies below
the top shell edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._fitting import ExponentFit, fit_loglog
from .symbols import SymbolModel, _monomial, find_critical_points

__all__ = [
    "VolumeEstimate",
    "RemainderFunctional",
    "PolySublevelQuery",
    "SublevelLemmaReport",
    "ContainmentFault",
    "InvariantFault",
    "FiberCloud",
    "weyl_volume",
    "remainder_functional",
    "near_critical_volume",
    "poly_sublevel_measure",
    "verify_sublevel_lemma",
]

BOUNDARY_MARGIN = 0.02
N_BATCHES = 32
NEWTON_TOL = 1e-12


class ContainmentFault(RuntimeError):
    """The target set reaches the sampling box boundary; enlarge the box."""


class InvariantFault(ValueError):
    """A sample's input or result breaks an invariant of its construction."""


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    method: str  # monte_carlo | tensor_grid
    sample_count: int

    def __post_init__(self):
        if self.value < -1e-12 or self.std_error < 0:
            raise ValueError("volume and its error must be nonnegative")


@dataclass(frozen=True)
class RemainderFunctional:
    energy: float
    epsilon: float
    h: float
    value: float
    argmax_energy: float
    grid_size: int

    def __post_init__(self):
        if self.value < self.h - 1e-15:
            raise InvariantFault("remainder functional is bounded below by h")
        half = self.h ** (1.0 - self.epsilon)
        if abs(self.argmax_energy - self.energy) > half * (1 + 1e-12):
            raise InvariantFault("argmax energy escaped the sup window")


@dataclass(frozen=True)
class PolySublevelQuery:
    coefficients: tuple
    threshold: float
    measure: float
    intervals: tuple


# -- quadratic momentum fibers ------------------------------------------------


def _fiber_coefficients(model: SymbolModel, base: np.ndarray):
    """Quadratic coefficients (A, B, C) of t -> a0(x, t, xi_rest).

    `base` holds phase points whose first momentum slot is ignored.  The
    fibers are read off the term table: a term a(x) xi^mu adds
    a(x) xi_rest^mu_rest to C, B or A by its power mu_1 = 0, 1 or 2 of the
    fiber coordinate.  A second-order symbol has mu_1 <= 2 by construction.
    """
    if model.order != 1:
        raise NotImplementedError(
            "momentum fibers are quadratic for second-order symbols only"
        )
    d = model.dimension
    xi_rest = base[:, d + 1 :]
    fiber = [np.zeros(base.shape[0]) for _ in range(3)]  # C, B, A
    for mu, a in model.terms_at(base[:, :d]):
        fiber[mu[0]] += a * _monomial(mu[1:], xi_rest)
    C, B, A = fiber
    if A.min() <= 0:
        raise ValueError(
            "nonpositive leading fiber coefficient contradicts ellipticity"
        )
    return A, B, C


def _fiber_measure(A, minimum, level):
    """Measure of {t : A (t - vertex)^2 + minimum < level}, with A > 0
    elementwise: the whole sublevel interval, which containment keeps
    inside the momentum box."""
    return 2.0 * np.sqrt(np.maximum(level - minimum, 0.0) / A)


def _base_cloud(model: SymbolModel, budget: int, seed: int):
    """Stratified phase points; the first momentum slot is a placeholder.

    The non-fiber coordinates are jittered on a tensor grid of equal cells
    (one point per cell, fresh jitter per batch), which beats plain uniform
    sampling by an order of magnitude on the Lipschitz fiber measures
    integrated here.  Returns (points, per_batch).
    """
    d = model.dimension
    ndim = 2 * d - 1
    per_target = max(budget // N_BATCHES, 256)
    k = max(int(round(per_target ** (1.0 / ndim))), 2)
    per = k**ndim
    rng = np.random.Generator(np.random.Philox(key=seed))
    axes = [np.arange(k)] * ndim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ndim)
    pts = np.zeros((N_BATCHES * per, 2 * d))
    scale = np.array([model.box_x] * d + [model.box_xi] * (d - 1))
    cols = list(range(d)) + list(range(d + 1, 2 * d))
    for b in range(N_BATCHES):
        unit = (mesh + rng.random((per, ndim))) / k
        pts[b * per : (b + 1) * per, cols] = (2.0 * unit - 1.0) * scale
    return pts, per


class FiberCloud:
    """Base points of phase space reduced to their quadratic momentum fibers.

    d = 1 takes a midpoint grid of max(budget, 2^14) points in x; d >= 2
    takes the stratified 32-batch cloud of `_base_cloud`.  Each point's
    fiber t -> A t^2 + B t + C, read off the term table of the symbol at
    the point's x, is kept as its curvature A, its minimum
    m = C - B^2/(4A) and its vertex -B/(2A), together with a mask of the
    points within 2% of the box edge in a non-fiber coordinate; the points
    themselves are not kept.  Once `contained` has cleared a level, no
    sublevel interval below it is clipped by the momentum box, so the fiber
    measure of {a0 < L} is exactly 2 sqrt((L - m)_+ / A).  Every volume of
    one sweep is measured on the same cloud.
    """

    def __init__(self, model: SymbolModel, budget: int = 2**18, seed: int = 0):
        d = model.dimension
        if d == 1:
            n = max(budget, 2**14)
            pts = np.zeros((n, 2))
            x = (np.arange(n) + 0.5) / n * (2 * model.box_x) - model.box_x
            pts[:, 0] = x
            self.base_volume = 2 * model.box_x
            self.batches = None
        else:
            pts, per = _base_cloud(model, budget, seed)
            n = per * N_BATCHES
            # all but the fiber
            self.base_volume = model.box_volume() / (2.0 * model.box_xi)
            self.batches = N_BATCHES
        self.size = n
        self.box_xi = model.box_xi
        A, B, C = _fiber_coefficients(model, pts)
        # one column at a time: freeing an (n, d) temporary here raises
        # glibc's dynamic mmap threshold, and the sparse factorizations of
        # the sweep that follows then peak about 16 MB higher
        limit = 1.0 - BOUNDARY_MARGIN
        self.edge = np.zeros(n, dtype=bool)
        for k in range(2 * d):
            if k != d:
                box = model.box_x if k < d else model.box_xi
                self.edge |= np.abs(pts[:, k]) > limit * box
        del pts  # free the points before the fiber temporaries below
        self.A = A
        self.minimum = C - B * B / (4.0 * A)
        self.vertex = -B / (2.0 * A)

    def contained(self, level: float) -> np.ndarray:
        """Mask of the points whose fiber meets {a0 < level}.

        Raises ContainmentFault if one of them sits within 2% of the box
        edge, or if its sublevel interval reaches 98% of the momentum range.
        Both the mask and the intervals only grow with the level, so a
        cleared level clears every level below it.
        """
        active = self.minimum < level
        if np.any(active):
            half = 0.5 * _fiber_measure(
                self.A[active], self.minimum[active], level
            )
            reach = np.abs(self.vertex[active]) + half
            if (
                np.any(self.edge[active])
                or reach.max() > (1.0 - BOUNDARY_MARGIN) * self.box_xi
            ):
                raise ContainmentFault(
                    "sublevel/shell set reaches within 2% of the sampling box; "
                    "enlarge box_x/box_xi"
                )
        return active


def weyl_volume(cloud: FiberCloud, energy: float) -> VolumeEstimate:
    """vol{v : a0(v) < E}, the leading term of the counting asymptotics.

    d = 1 integrates the exact momentum-fiber measure over the x grid, with
    the midpoint rule's refinement gap as the error; d >= 2 averages it over
    the Monte Carlo cloud, with the spread of the 32 batch means as the
    standard error.
    """
    cloud.contained(energy)
    meas = _fiber_measure(cloud.A, cloud.minimum, energy)
    if cloud.batches is None:
        dx = cloud.base_volume / cloud.size
        value = float(meas.sum() * dx)
        coarse = float(meas[::2].sum() * 2 * dx)
        return VolumeEstimate(
            value, abs(value - coarse), "tensor_grid", cloud.size
        )
    means = meas.reshape(cloud.batches, -1).mean(axis=1)
    value = cloud.base_volume * float(means.mean())
    se = cloud.base_volume * float(means.std(ddof=1)) / math.sqrt(cloud.batches)
    return VolumeEstimate(max(value, 0.0), se, "monte_carlo", cloud.size)


def remainder_functional(
    cloud: FiberCloud, energy: float, epsilon: float, h: float
) -> RemainderFunctional:
    """h plus the worst shell volume vol{|a0 - E'| <= h} over
    E' in [E - h^(1-eps), E + h^(1-eps)].

    The E'-grid has ceil(4 h^(-eps)) + 1 points, so its spacing is at most
    h/2 and no width-h shell can slip between grid points.  Containment is
    checked once, at the top shell edge E + h^(1-eps) + h, and every shell
    is measured on the points whose fiber minimum lies below that edge: the
    others carry no shell mass.  The common cloud makes the discrete sup
    exact up to the shared Monte Carlo error.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (h > 0 and math.isfinite(h)):
        raise InvariantFault(f"h = {h} is not positive and finite")
    half = h ** (1.0 - epsilon)
    n_grid = int(math.ceil(4.0 * h ** (-epsilon))) + 1
    grid = np.linspace(energy - half, energy + half, n_grid)

    keep = cloud.contained(grid[-1] + h)
    A, minimum = cloud.A[keep], cloud.minimum[keep]
    weight = cloud.base_volume / cloud.size
    vols = []
    for e_prime in grid:
        shell = _fiber_measure(A, minimum, e_prime + h) - _fiber_measure(
            A, minimum, e_prime - h
        )
        vols.append(float(shell.sum() * weight))
    best = int(np.argmax(vols))  # the first of equal maxima
    return RemainderFunctional(
        energy=energy,
        epsilon=epsilon,
        h=h,
        value=h + vols[best],
        argmax_energy=float(grid[best]),
        grid_size=n_grid,
    )


# -- near-critical sets --------------------------------------------------------


def near_critical_volume(
    model: SymbolModel,
    h: float,
    delta0: float,
    cbar: float,
    energy: float,
    energy_window: float = 0.25,
    budget: int = 2**16,
    cloud_size: int = 2**14,
    seed: int = 0,
) -> VolumeEstimate:
    """Volume of the h^delta0-thickening of {|grad a0| <= cbar h^delta0}
    intersected with {|a0 - E| <= energy_window}.

    The inner set concentrates around critical points of the symbol, so the
    estimator localizes: it rejection-samples an inner point cloud in small
    boxes around the located critical points, then Monte Carlo integrates the
    thickened indicator (nearest-cloud distance < h^delta0) over slightly
    enlarged boxes.
    """
    if cbar <= 1.0:
        raise ValueError("cbar must exceed 1")
    eps = h**delta0
    centers = find_critical_points(model, energy, energy_window)
    if len(centers) == 0:
        return VolumeEstimate(0.0, 0.0, "monte_carlo", 0)

    rng = np.random.Generator(np.random.Philox(key=seed))
    two_d = 2 * model.dimension
    boxes = []
    for report in centers:
        center = np.asarray(report.location, dtype=float)
        sigma_min = float(
            np.linalg.svd(report.hessian, compute_uv=False).min()
        )
        sigma_min = max(sigma_min, 1e-6)
        inner_r = 1.5 * cbar * eps / sigma_min
        boxes.append((center, inner_r, inner_r + 1.2 * eps))

    # inner cloud: accepted points of the near-critical set itself
    cloud = []
    for center, inner_r, _ in boxes:
        cand = center + rng.uniform(-inner_r, inner_r, size=(cloud_size, two_d))
        gn = np.linalg.norm(model.gradient(cand), axis=1)
        ok = (gn <= cbar * eps) & (
            np.abs(model.value(cand) - energy) <= energy_window
        )
        cloud.append(cand[ok])
    cloud = np.concatenate(cloud, axis=0)
    if len(cloud) == 0:
        return VolumeEstimate(0.0, 0.0, "monte_carlo", 0)
    tree = cKDTree(cloud)

    per = max(budget // N_BATCHES, 128)
    total = per * N_BATCHES
    value, var = 0.0, 0.0
    for center, _, outer_r in boxes:
        cand = center + rng.uniform(-outer_r, outer_r, size=(total, two_d))
        dist, _ = tree.query(cand, k=1)
        hit = (dist < eps).astype(float).reshape(N_BATCHES, per)
        box_vol = (2.0 * outer_r) ** two_d
        means = hit.mean(axis=1)
        value += box_vol * float(means.mean())
        var += (box_vol * float(means.std(ddof=1)) / math.sqrt(N_BATCHES)) ** 2
    return VolumeEstimate(value, math.sqrt(var), "monte_carlo", total * len(boxes))


# -- exact polynomial sublevel measures -----------------------------------------


def _newton_polish(coeffs_f: np.ndarray, root: float) -> float:
    dcoeffs = np.polyder(coeffs_f)
    x = root
    for _ in range(60):
        fx = np.polyval(coeffs_f, x)
        dfx = np.polyval(dcoeffs, x)
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < NEWTON_TOL:
            break
    return x


def _real_roots(coeffs, lo: float, hi: float):
    """Candidate real roots of the ascending-coefficient polynomial in
    [lo, hi]: companion-matrix eigenvalues with |Im z| <= 1e-6 (1 + |z|),
    Newton-polished to 1e-12.

    The filter is liberal on purpose.  A root of odd multiplicity, where
    the polynomial changes sign, leaves at least one real eigenvalue of the
    real companion matrix, so no sign change is lost; a spurious candidate
    only splits a cell of `poly_sublevel_measure`, whose midpoint test
    decides membership."""
    margin = 1e-9 * max(1.0, hi - lo)
    desc = np.array(coeffs[::-1], dtype=float)
    raw = [float(z.real) for z in np.roots(desc)
           if abs(z.imag) <= 1e-6 * (1.0 + abs(z))]
    polished = sorted(_newton_polish(desc, r) for r in raw)
    out = []
    for r in polished:
        if lo - margin <= r <= hi + margin and (
            not out or r - out[-1] > 1e-11
        ):
            out.append(min(max(r, lo), hi))
    return out


def poly_sublevel_measure(coeffs, tau: float, interval) -> PolySublevelQuery:
    """Exact Lebesgue measure of {s in I : |F(s)| < tau} for a real
    polynomial F given by ascending coefficients."""
    if tau <= 0:
        raise ValueError("threshold tau must be positive")
    coeffs = [float(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) - 1 < 1:
        raise ValueError("degree must be at least 1")
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValueError("empty interval")

    cuts = set(_real_roots([coeffs[0] - tau] + coeffs[1:], lo, hi))
    cuts |= set(_real_roots([coeffs[0] + tau] + coeffs[1:], lo, hi))
    grid = sorted({lo, hi} | cuts)
    desc = np.array(coeffs[::-1])

    intervals, measure = [], 0.0
    for a, b in zip(grid, grid[1:]):
        if b - a <= 0:
            continue
        if abs(float(np.polyval(desc, 0.5 * (a + b)))) < tau:
            measure += b - a
            if intervals and abs(intervals[-1][1] - a) < 1e-11:
                intervals[-1] = (intervals[-1][0], b)
            else:
                intervals.append((a, b))
    return PolySublevelQuery(
        coefficients=tuple(coeffs),
        threshold=tau,
        measure=measure,
        intervals=tuple(intervals),
    )


@dataclass(frozen=True)
class SublevelLemmaReport:
    trials: int
    violations: tuple
    constants: dict
    max_ratio: float

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def verify_sublevel_lemma(
    random_seed: int = 0,
    trials: int = 200,
    m_max: int = 5,
    delta0: float = 0.4,
    h_grid=(1e-1, 1e-2, 1e-3, 1e-4),
    interval=None,
) -> SublevelLemmaReport:
    """Property check: measure{|F| < h^delta0} <= C_m h^(delta0/m) for every
    polynomial normalized so its top derivative at 0 is at least 1.

    C_m is calibrated per degree at the largest h over all trials and must
    then dominate every smaller h; any excess is reported as a violation.
    The bound is a whole-line statement, so by default each polynomial is
    measured on its own Cauchy root bound interval (a fixed interval would
    clip the sublevel set at large h and deflate the calibration).
    """
    rng = np.random.Generator(np.random.Philox(key=random_seed))
    h_grid = sorted(float(h) for h in h_grid)
    h_max = h_grid[-1]
    polys = []
    for _ in range(trials):
        m = int(rng.integers(1, m_max + 1))
        c = rng.uniform(-1.0, 1.0, size=m + 1)
        # enforce |F^(m)(0)| = |m! c_m| >= 1
        lead = c[m] * math.factorial(m)
        if abs(lead) < 1.0:
            c[m] = math.copysign(1.0, lead if lead != 0 else 1.0) / math.factorial(m)
        polys.append((m, c))

    def trial_interval(c):
        if interval is not None:
            return interval
        # Cauchy bound for F +- tau with tau <= 1: no sublevel set is clipped
        radius = 2.0 + (float(np.abs(c[:-1]).max()) + 1.0) / abs(c[-1])
        return (-radius, radius)

    measures = {
        (i, h): poly_sublevel_measure(c, h**delta0, trial_interval(c)).measure
        for i, (m, c) in enumerate(polys)
        for h in h_grid
    }
    def extremal(m, tau):
        # scaled Chebyshev polynomial with the smallest admissible leading
        # coefficient 1/m!: it attains the sharp sublevel bound
        # 4 (tau m! / 2)^(1/m) and its measure/tau^(1/m) ratio is
        # h-independent, so calibrating on it dominates every admissible
        # polynomial at every h
        lam = (2.0 ** (m - 1) * math.factorial(m) * tau) ** (1.0 / m)
        cheb = np.polynomial.chebyshev.cheb2poly([0.0] * m + [1.0])
        scale = lam ** np.arange(m + 1, dtype=float)
        return cheb / scale * lam**m * 2.0 ** (1 - m) / math.factorial(m)

    constants = {}
    tau_max = h_max**delta0
    for m in range(1, m_max + 1):
        ext = extremal(m, tau_max)
        vals = [
            poly_sublevel_measure(ext, tau_max, trial_interval(ext)).measure
            / h_max ** (delta0 / m)
        ]
        vals += [
            measures[(i, h_max)] / h_max ** (delta0 / m)
            for i, (mi, _) in enumerate(polys)
            if mi == m
        ]
        constants[m] = float(max(vals))

    violations = []
    max_ratio = 0.0
    for i, (m, c) in enumerate(polys):
        for h in h_grid:
            bound = constants[m] * h ** (delta0 / m)
            mu = measures[(i, h)]
            if bound > 0:
                max_ratio = max(max_ratio, mu / bound)
            if mu > bound * (1.0 + 1e-9) + 1e-12:
                violations.append((i, m, h, mu, bound))
    return SublevelLemmaReport(
        trials=trials,
        violations=tuple(violations),
        constants=constants,
        max_ratio=float(max_ratio),
    )
