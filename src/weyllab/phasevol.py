"""Phase-space volume functionals for the counting estimates.

Everything here reduces to Lebesgue measures on the classical phase space:
the volume of the sublevel set {a0 < E} (the leading counting term), the
remainder functional built from the worst thin energy shell
{|a0 - E'| <= h} near E, the h^delta0-thickened near-critical set, and
exact 1-D polynomial sublevel measures, returned as floats.

A second-order symbol is quadratic in the momentum,
a0 = xi.G(x) xi + b(x).xi + c(x), with G, b and c read off its term table.
Where G is positive definite, the momentum fiber of {a0 < L} over x is a
whole ellipsoid centred at xi* = -G^-1 b / 2, of measure
omega_d (L - m(x))_+^(d/2) / sqrt(det G(x)) with m = c - b.G^-1 b / 4, so
every volume and every shell is an integral over x alone (Dimassi and
Sjostrand, Spectral Asymptotics in the Semi-Classical Limit, ch. 9).  A
sweep builds one `ReducedSymbol`: m and the weight
omega_d dx^d / sqrt(det G) on a midpoint x grid of `budget` nodes, plus
the three scalars that the containment check and the hypothesis screen
read.  A coefficient that cannot depend on x is a number in the term table
(`SymbolModel.terms_at`), so where G is made of such coefficients, as for
every |xi|^2 + V(x), det G and the weight are one number for the whole
grid.  No sweep draws random numbers.  `weyl_volume` sums the closed form
over the grid, with the gap to an independent grid of half as many nodes
per axis as its error; `remainder_functional` sums it at every shell edge
of its E'-grid, over the nodes whose m lies below the top edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .symbols import (
    SymbolModel,
    _ellipsoids,
    _midpoint_axis,
    _quadratic_parts,
    find_critical_points,
)

__all__ = [
    "VolumeEstimate",
    "RemainderFunctional",
    "SublevelLemmaReport",
    "ContainmentFault",
    "InvariantFault",
    "DegenerateCriticalPoint",
    "ReducedSymbol",
    "weyl_volume",
    "remainder_functional",
    "near_critical_volume",
    "poly_sublevel_measure",
    "verify_sublevel_lemma",
]

BOUNDARY_MARGIN = 0.02
# x nodes per chunk of the grid reduction: 64 KB temporaries stay in cache
# and below glibc's mmap threshold, so they are reused without page faults
CHUNK_NODES = 2**13
N_BATCHES = 32
NEWTON_TOL = 1e-12
# near_critical_volume: the energy window |a0 - E| <= ENERGY_WINDOW of the
# tube, its Monte Carlo points per centre box, its inner-cloud candidates
# per centre, and the Philox key of its draws
ENERGY_WINDOW = 0.25
TUBE_BUDGET = 2**16
CLOUD_SIZE = 2**14
TUBE_SEED = 0
# verify_sublevel_lemma: the highest degree of its random polynomials
LEMMA_MAX_DEGREE = 5


class ContainmentFault(RuntimeError):
    """The target set reaches the sampling box boundary; enlarge the box."""


class InvariantFault(ValueError):
    """A sample's input or result breaks an invariant of its construction."""


class DegenerateCriticalPoint(RuntimeError):
    """A critical point's Hessian is rank deficient, so the near-critical
    tube around it cannot be localized by its least singular value."""


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


# -- momentum ellipsoids on an x grid -------------------------------------------


def _reduce(model: SymbolModel, k: int):
    """(m, w, reach, boundary_min, ellipticity) on the midpoint grid of k
    nodes per axis, built in chunks of CHUNK_NODES nodes.

    w is omega_d dx^d / sqrt(det G), so that sum w (L - m)_+^(d/2) is the
    volume of {a0 < L}; it is a number when det G is one, else one entry
    per node.  The scalars are the lowest level whose sublevel set reaches
    within 2% of the box (in x: any mass on a node of the boundary band; in
    xi: |xi*_j| + sqrt((L - m) (G^-1)_jj) past 98% of box_xi), the least m
    on the boundary band, and the least eigenvalue of G over the grid.  The band is the 2% edge of the x box and always holds
    the outermost node of each axis.
    """
    d = model.dimension
    spacing = 2.0 * model.box_x / k
    axis = _midpoint_axis(k, model.box_x)
    band = np.abs(axis) > min(
        (1.0 - BOUNDARY_MARGIN) * model.box_x, model.box_x - spacing
    )
    xi_limit = (1.0 - BOUNDARY_MARGIN) * model.box_xi
    ball = math.pi ** (0.5 * d) / math.gamma(0.5 * d + 1.0) * spacing**d
    n = k**d
    minimum, weight = np.empty(n), None
    reach = boundary_min = ellipticity = math.inf
    for start in range(0, n, CHUNK_NODES):
        idx = np.unravel_index(
            np.arange(start, min(start + CHUNK_NODES, n)), (k,) * d
        )
        x = np.stack([axis[i] for i in idx], axis=1)
        det, least, inv_diag, centre, m = _ellipsoids(
            *_quadratic_parts(model, x)
        )
        chunk = slice(start, start + x.shape[0])
        minimum[chunk] = m
        m = minimum[chunk]  # m broadcast to the chunk
        w = ball / np.sqrt(det)
        if np.ndim(w):  # det G varies with x: one weight per node
            weight = np.empty(n) if weight is None else weight
            weight[chunk] = w
        else:  # det G is a number, the same on every chunk
            weight = float(w)
        room = functools.reduce(np.minimum, [
            np.maximum(xi_limit - np.abs(centre[j]), 0.0) ** 2 / inv_diag[j]
            for j in range(d)
        ])
        edge = np.logical_or.reduce([band[i] for i in idx])
        reach = min(reach, float(np.where(edge, m, m + room).min()))
        if edge.any():
            boundary_min = min(boundary_min, float(m[edge].min()))
        ellipticity = min(ellipticity, float(np.min(least)))
    return minimum, weight, reach, boundary_min, ellipticity


def _sublevel_volumes(minimum, weight, d, levels) -> np.ndarray:
    """vol{a0 < L} = sum w (L - m)_+^(d/2) for each level L, summed over
    the nodes whose m lies below the highest level: the others carry no
    mass."""
    keep = minimum < max(levels)
    # a number weight fills one buffer of the kept size, so einsum sees the
    # operands an array weight would give
    m, w = minimum[keep], np.broadcast_to(weight, minimum.shape)[keep]
    gap = np.empty_like(m)  # one buffer for every level
    out = np.empty(len(levels))
    for i, level in enumerate(levels):
        np.subtract(level, m, out=gap)
        np.maximum(gap, 0.0, out=gap)
        if d != 2:  # (L - m)^(d/2) is L - m itself in d = 2
            gap **= 0.5 * d
        # einsum, not w @ gap: a threaded BLAS dot waits for a free core
        out[i] = np.einsum("i,i->", w, gap)
    return out


class ReducedSymbol:
    """A second-order symbol reduced to its momentum ellipsoids on a
    midpoint x grid.

    `budget` counts x nodes: round(budget^(1/d)) per axis, so 1024^2 in
    d = 2 and 2^20 in d = 1 by default.  Each node keeps only the minimum m
    of its fiber and its weight w, and w is a single number when G is
    constant; `reach`, `boundary_min` and `ellipticity` are the scalars of
    `_reduce`.  A second grid with half as many nodes per axis keeps m and
    w alone; the gap between the two is the error of the Weyl volume.
    Every volume of one sweep is measured on the same grid.
    """

    def __init__(self, model: SymbolModel, budget: int = 2**20):
        d = model.dimension
        k = max(int(round(budget ** (1.0 / d))), 2)
        self.dimension = d
        self.size = k**d
        (self.minimum, self.weight, self.reach, self.boundary_min,
         self.ellipticity) = _reduce(model, k)
        self.coarse = _reduce(model, k // 2)[:2]

    def check_contained(self, level: float) -> None:
        """Raise ContainmentFault if {a0 < level} reaches within 2% of the
        box.  The sublevel sets grow with the level, so a cleared level
        clears every level below it."""
        if level > self.reach:
            raise ContainmentFault(
                "sublevel/shell set reaches within 2% of the sampling box; "
                "enlarge box_x/box_xi"
            )


def weyl_volume(reduced: ReducedSymbol, energy: float) -> VolumeEstimate:
    """vol{v : a0(v) < E}, the leading term of the counting asymptotics.

    The closed form summed over the x grid, with the gap to the
    half-resolution grid as the error.
    """
    reduced.check_contained(energy)
    d = reduced.dimension
    value = float(_sublevel_volumes(reduced.minimum, reduced.weight, d,
                                    [energy])[0])
    coarse = float(_sublevel_volumes(*reduced.coarse, d, [energy])[0])
    return VolumeEstimate(value, abs(value - coarse), "tensor_grid",
                          reduced.size)


def remainder_functional(
    reduced: ReducedSymbol, energy: float, epsilon: float, h: float
) -> RemainderFunctional:
    """h plus the worst shell volume vol{|a0 - E'| <= h} over
    E' in [E - h^(1-eps), E + h^(1-eps)].

    The E'-grid has ceil(4 h^(-eps)) + 1 points, so its spacing is at most
    h/2 and no width-h shell can slip between grid points.  Containment is
    checked once, at the top shell edge E + h^(1-eps) + h.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (h > 0 and math.isfinite(h)):
        raise InvariantFault(f"h = {h} is not positive and finite")
    half = h ** (1.0 - epsilon)
    n_grid = int(math.ceil(4.0 * h ** (-epsilon))) + 1
    grid = np.linspace(energy - half, energy + half, n_grid)

    reduced.check_contained(grid[-1] + h)
    edges = _sublevel_volumes(
        reduced.minimum, reduced.weight, reduced.dimension,
        np.concatenate([grid + h, grid - h]),
    )
    vols = edges[:n_grid] - edges[n_grid:]
    best = int(np.argmax(vols))  # the first of equal maxima
    return RemainderFunctional(
        energy=energy,
        epsilon=epsilon,
        h=h,
        value=h + float(vols[best]),
        argmax_energy=float(grid[best]),
        grid_size=n_grid,
    )


# -- near-critical sets --------------------------------------------------------


def near_critical_volume(
    model: SymbolModel, h: float, delta0: float, cbar: float, energy: float
) -> VolumeEstimate:
    """Volume of the h^delta0-thickening of {|grad a0| <= cbar h^delta0}
    intersected with {|a0 - E| <= ENERGY_WINDOW}.

    The inner set concentrates around the critical points that
    `find_critical_points` locates, so the estimator localizes: it
    rejection-samples CLOUD_SIZE candidates for the inner set in a box of
    half-width 1.5 cbar h^delta0 / sigma_min around each centre, sigma_min
    the least singular value of its Hessian, then Monte Carlo integrates
    the thickened indicator (nearest-cloud distance < h^delta0) over
    TUBE_BUDGET points of a slightly enlarged box.  Raises
    DegenerateCriticalPoint at a centre whose Hessian is rank deficient.
    """
    # no CLI experiment calls this function: scipy.spatial loads here only
    from scipy.spatial import cKDTree

    if cbar <= 1.0:
        raise ValueError("cbar must exceed 1")
    eps = h**delta0
    centers = find_critical_points(model, energy, ENERGY_WINDOW)
    if len(centers) == 0:
        return VolumeEstimate(0.0, 0.0, "monte_carlo", 0)

    rng = np.random.Generator(np.random.Philox(key=TUBE_SEED))
    two_d = 2 * model.dimension
    boxes = []
    for report in centers:
        center = np.asarray(report.location, dtype=float)
        # the Hessian is symmetric: its singular values are |eigenvalues|
        sigma_min = float(np.abs(report.hessian_eigenvalues).min())
        if report.hessian_rank < two_d:
            raise DegenerateCriticalPoint(
                f"critical point {center} has a rank-deficient Hessian "
                f"(least singular value {sigma_min:.3e})"
            )
        inner_r = 1.5 * cbar * eps / sigma_min
        boxes.append((center, inner_r, inner_r + 1.2 * eps))

    # inner cloud: accepted points of the near-critical set itself
    cloud = []
    for center, inner_r, _ in boxes:
        cand = center + rng.uniform(-inner_r, inner_r, size=(CLOUD_SIZE, two_d))
        gn = np.linalg.norm(model.gradient(cand), axis=1)
        ok = (gn <= cbar * eps) & (
            np.abs(model.value(cand) - energy) <= ENERGY_WINDOW
        )
        cloud.append(cand[ok])
    cloud = np.concatenate(cloud, axis=0)
    if len(cloud) == 0:
        return VolumeEstimate(0.0, 0.0, "monte_carlo", 0)
    tree = cKDTree(cloud)

    per = max(TUBE_BUDGET // N_BATCHES, 128)
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


def poly_sublevel_measure(coeffs, tau: float, interval) -> float:
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

    measure = 0.0
    for a, b in zip(grid, grid[1:]):
        if abs(float(np.polyval(desc, 0.5 * (a + b)))) < tau:
            measure += b - a
    return measure


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
    delta0: float = 0.4,
    h_grid=(1e-1, 1e-2, 1e-3, 1e-4),
) -> SublevelLemmaReport:
    """Property check: measure{|F| < h^delta0} <= C_m h^(delta0/m) for every
    polynomial of degree m <= LEMMA_MAX_DEGREE normalized so its top
    derivative at 0 is at least 1.

    C_m is calibrated per degree at the largest h over all trials and must
    then dominate every smaller h; any excess is reported as a violation.
    The bound is a whole-line statement, so each polynomial is measured on
    its own Cauchy root bound interval (a fixed interval would clip the
    sublevel set at large h and deflate the calibration).
    """
    rng = np.random.Generator(np.random.Philox(key=random_seed))
    h_grid = sorted(float(h) for h in h_grid)
    h_max = h_grid[-1]
    polys = []
    for _ in range(trials):
        m = int(rng.integers(1, LEMMA_MAX_DEGREE + 1))
        c = rng.uniform(-1.0, 1.0, size=m + 1)
        # enforce |F^(m)(0)| = |m! c_m| >= 1
        lead = c[m] * math.factorial(m)
        if abs(lead) < 1.0:
            c[m] = math.copysign(1.0, lead if lead != 0 else 1.0) / math.factorial(m)
        polys.append((m, c))

    def trial_interval(c):
        # Cauchy bound for F +- tau with tau <= 1: no sublevel set is clipped
        radius = 2.0 + (float(np.abs(c[:-1]).max()) + 1.0) / abs(c[-1])
        return (-radius, radius)

    measures = {
        (i, h): poly_sublevel_measure(c, h**delta0, trial_interval(c))
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
    for m in range(1, LEMMA_MAX_DEGREE + 1):
        ext = extremal(m, tau_max)
        vals = [
            poly_sublevel_measure(ext, tau_max, trial_interval(ext))
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
