"""Finite-difference operators, eigenvalue counting, and smoothed counting.

The divergence-form operator sum (hD)^nubar a(x) (hD)^nu is discretized on a
Dirichlet box with flux-form (midpoint-coefficient) second-order stencils, so
the matrix is symmetric to machine precision.  Counting below a threshold
uses matrix inertia (Sylvester's law of inertia applied to a sparse LU
factorization with symmetric pivoting: the negative pivots count the negative
eigenvalues), which is exact: no eigenvalue is ever computed for a count.

Nodes and cell faces are exactly mirror-symmetric about 0, so a coefficient
that is even in x_k gives a matrix A that commutes, bit for bit, with the
reflection P_k of axis k.  For every such axis the count factors reflection
blocks instead of A: with S_i the tensor product of exact +-1 even/odd maps
on the mirrored axes (and the identity on the others), S^T A S is block
diagonal and S is invertible, so inertia(A - E I) is the sum over i of
inertia(S_i^T A S_i - E S_i^T S_i), where S_i^T S_i is diagonal with
entries 1, 2 or 4.  On a 2-D registry model that is four factorizations of
a quarter of the unknowns each (Bossavit, "Symmetry, groups, and boundary
value problems", CMAME 56, 1986).  A matrix that is not mirror-symmetric is
factored whole.

The smoothed counter replaces the sharp indicator of a window Z = [E1, E2] by
f(lambda) = integral over Z of gamma_h(lambda - mu), where gamma_h is the
inverse h-Fourier transform of a self-convolved bump.  Self-convolution makes
gamma_h a positive multiple of |bump-hat|^2, so positivity is structural, and
the unit mass equals the self-convolution at zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Optional

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvals_banded
from scipy.sparse.linalg import splu

from .mollify import build_mollifier, regularize
from .symbols import SymbolModel

__all__ = [
    "GridSpec",
    "DiscreteOperator",
    "SpectrumSlice",
    "MollifiedCounter",
    "assemble",
    "count_below",
    "eigenvalues_below",
    "build_mollified_counter",
    "smoothed_count",
    "ResolutionFault",
    "ConfinementFault",
    "FactorizationFault",
    "IncompletenessFault",
]

SHIFT_STEP = 1e-10
MAX_SHIFTS = 3
MASS_TOL = 1e-8
TAIL_CUTOFF = 1e-10


class ResolutionFault(RuntimeError):
    pass


class ConfinementFault(RuntimeError):
    pass


class FactorizationFault(RuntimeError):
    pass


class IncompletenessFault(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on [-halfwidth, halfwidth]^d, Dirichlet exterior."""

    halfwidth: float
    points_per_axis: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / (self.points_per_axis + 1)

    def nodes(self) -> np.ndarray:
        """Interior nodes, exactly antisymmetric: nodes[::-1] == -nodes."""
        n = self.points_per_axis
        return self.spacing * (np.arange(n) - 0.5 * (n - 1))


@dataclass
class DiscreteOperator:
    h: float
    grid: GridSpec
    matrix: sp.csc_matrix
    variant: str  # raw | plus | minus
    dimension: int
    boundary: str = "dirichlet"
    boundary_symbol_min: float = math.inf
    resolution_ok: bool = True

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SpectrumSlice:
    threshold: float
    count: int  # #{eigenvalues < threshold}
    method: str  # inertia | banded
    eigenvalues: Optional[np.ndarray] = None
    complete_to: Optional[float] = None
    shifts_applied: int = 0
    blocks: int = 1  # reflection blocks whose inertias were summed

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.eigenvalues is not None:
            below = int(np.sum(self.eigenvalues < self.threshold))
            if below != self.count:
                raise ValueError("eigenvalue list inconsistent with count")


def _axis_term(coef_mid: np.ndarray, axis: int, shape, scale: float):
    """Flux-form 1-D second difference along `axis` with midpoint
    coefficients, as COO data for the flattened tensor grid.

    coef_mid has one extra entry along `axis` (left face of the first node
    through right face of the last); Dirichlet drops the exterior neighbors
    but keeps the boundary-face coefficients on the diagonal.
    """
    n_total = int(np.prod(shape))
    idx = np.arange(n_total).reshape(shape)
    left = np.take(coef_mid, range(0, shape[axis]), axis=axis)
    right = np.take(coef_mid, range(1, shape[axis] + 1), axis=axis)
    diag = scale * (left + right)

    sl_lo = [slice(None)] * len(shape)
    sl_lo[axis] = slice(0, shape[axis] - 1)
    sl_hi = [slice(None)] * len(shape)
    sl_hi[axis] = slice(1, shape[axis])
    rows = idx[tuple(sl_lo)].ravel()
    cols = idx[tuple(sl_hi)].ravel()
    off = -scale * right[tuple(sl_lo)].ravel()

    data = np.concatenate([diag.ravel(), off, off])
    ii = np.concatenate([idx.ravel(), rows, cols])
    jj = np.concatenate([idx.ravel(), cols, rows])
    return data, ii, jj


def _midpoint_coords(grid: GridSpec, d: int, axis: int):
    """Grid coordinates with the `axis` coordinate at cell faces."""
    nodes = grid.nodes()
    n = grid.points_per_axis
    faces = grid.spacing * (np.arange(n + 1) - 0.5 * n)
    axes = [faces if j == axis else nodes for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), tuple(
        len(a) for a in axes
    )


def assemble(
    model: SymbolModel,
    h: float,
    delta0: float,
    grid: GridSpec,
    variant: str = "raw",
    energy: Optional[float] = None,
    strict_resolution: bool = True,
) -> DiscreteOperator:
    """Symmetric sparse matrix for sum (hD)^nubar a(x) (hD)^nu on the grid.

    variant plus/minus regularizes every coefficient at scale h^delta0 with
    the mollifier of the model's dimension and adds +-h (I - h^2 Laplacian),
    the positive-definite shift that brackets the raw operator between the
    two smooth ones.  The raw operator builds no kernel.
    """
    if variant not in ("raw", "plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    if model.dimension > 2:
        raise NotImplementedError(
            f"matrix assembly supports d <= 2; got d = {model.dimension}"
        )
    if model.order != 1:
        raise NotImplementedError(
            "matrix assembly supports second-order symbols only"
        )
    d = model.dimension
    dx = grid.spacing
    resolution_ok = dx <= h / 4.0 + 1e-15
    if not resolution_ok and strict_resolution:
        needed = int(math.ceil(8.0 * grid.halfwidth / h)) - 1
        raise ResolutionFault(
            f"grid spacing {dx:.4g} exceeds h/4 = {h/4:.4g}; "
            f"need >= {needed} points per axis"
        )

    kernel = None if variant == "raw" else build_mollifier(d)

    def field_of(coef):
        # polynomial coefficients come back as exact polynomials (degree
        # <= 2 unchanged); any other coefficient is convolved by quadrature
        return coef if kernel is None else regularize(coef, h, delta0, kernel)

    nodes = grid.nodes()
    shape = (grid.points_per_axis,) * d
    mesh = np.meshgrid(*([nodes] * d), indexing="ij")
    node_pts = np.stack([m.ravel() for m in mesh], axis=-1)
    n_total = node_pts.shape[0]

    data_all, ii_all, jj_all = [], [], []
    diag = np.zeros(n_total)
    for (nu, nubar), coef in model.coefficients.items():
        o1, o2 = sum(nu), sum(nubar)
        if o1 == 0 and o2 == 0:
            diag += field_of(coef).value(node_pts)
        elif o1 == 1 and o2 == 1:
            axis = int(np.argmax(nu))
            if int(np.argmax(nubar)) != axis:
                raise NotImplementedError(
                    "mixed-axis second-order terms are not assembled"
                )
            mid_pts, mid_shape = _midpoint_coords(grid, d, axis)
            vals = field_of(coef).value(mid_pts).reshape(mid_shape)
            data, ii, jj = _axis_term(vals, axis, shape, (h / dx) ** 2)
            data_all.append(data)
            ii_all.append(ii)
            jj_all.append(jj)
        else:
            raise NotImplementedError(
                "first-order terms are not assembled"
            )

    if variant in ("plus", "minus"):
        sign = 1.0 if variant == "plus" else -1.0
        diag += sign * h
        for axis in range(d):
            ones_ax = np.ones(
                tuple(s + 1 if j == axis else s for j, s in enumerate(shape))
            )
            data, ii, jj = _axis_term(
                ones_ax, axis, shape, sign * h * (h / dx) ** 2
            )
            data_all.append(data)
            ii_all.append(ii)
            jj_all.append(jj)

    data_all.append(diag)
    ii_all.append(np.arange(n_total))
    jj_all.append(np.arange(n_total))
    matrix = sp.coo_matrix(
        (np.concatenate(data_all), (np.concatenate(ii_all), np.concatenate(jj_all))),
        shape=(n_total, n_total),
    ).tocsc()

    # potential at the closed box boundary bounds the symbol from below there
    pot = model.coefficients.get(((0,) * d, (0,) * d))
    boundary_min = math.inf
    if pot is not None:
        edges = np.linspace(-grid.halfwidth, grid.halfwidth, 201)
        if d == 1:
            bpts = np.array([[-grid.halfwidth], [grid.halfwidth]])
        else:
            bpts = np.concatenate(
                [
                    np.stack([np.full_like(edges, s * grid.halfwidth), edges], axis=-1)
                    for s in (-1, 1)
                ]
                + [
                    np.stack([edges, np.full_like(edges, s * grid.halfwidth)], axis=-1)
                    for s in (-1, 1)
                ]
            )
        boundary_min = float(pot.value(bpts).min())
    if energy is not None and boundary_min < energy + 1e-9:
        raise ConfinementFault(
            f"boundary symbol minimum {boundary_min:.4g} does not exceed "
            f"E = {energy}; enlarge the box"
        )
    return DiscreteOperator(
        h=h,
        grid=grid,
        matrix=matrix,
        variant=variant,
        dimension=d,
        boundary_symbol_min=boundary_min,
        resolution_ok=resolution_ok,
    )


# -- counting ------------------------------------------------------------------


def _sparse_inertia(mat: sp.csc_matrix) -> int:
    try:
        lu = splu(
            mat,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A",
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise FactorizationFault(str(err)) from err
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFault("factorization lost symmetric pivoting")
    du = lu.U.diagonal()
    scale = float(np.abs(du).max())
    if np.any(np.abs(du) < 1e-13 * max(scale, 1.0)):
        raise FactorizationFault("near-zero pivot")
    return int(np.sum(du < 0.0))


def _mirrored_axes(op: DiscreteOperator) -> list:
    """Axes k whose reflection P_k commutes with the matrix: A == P_k A P_k
    bit for bit."""
    n, d = op.grid.points_per_axis, op.dimension
    if n < 2 or op.size != n**d:
        return [False] * d
    idx = np.arange(op.size).reshape((n,) * d)
    a = op.matrix
    axes = []
    for axis in range(d):
        p = np.flip(idx, axis=axis).ravel()
        axes.append((a[p][:, p] != a).nnz == 0)
    return axes


def _mirror_maps(n: int) -> list:
    """The even and the odd map of one axis, entries 0 and +-1.

    Column j pairs node j with its mirror n - 1 - j, with entries +1/+1
    (even) or +1/-1 (odd); the centre node of an odd axis is even only.
    """
    i = np.arange(n)
    col = np.minimum(i, n - 1 - i)
    side = np.sign(n - 1 - 2.0 * i)  # +1 before the centre, -1 after it
    odd = side != 0
    return [
        sp.csc_matrix((np.ones(n), (i, col)), shape=(n, n - n // 2)),
        sp.csc_matrix((side[odd], (i[odd], col[odd])), shape=(n, n // 2)),
    ]


def _reflection_blocks(op: DiscreteOperator) -> list:
    """[(S_i^T A S_i, diag(S_i^T S_i))] over the reflection blocks of A.

    S_i is the tensor product, over the axes, of an even or odd map on each
    mirrored axis and the identity on the others.  When A commutes with
    those reflections, S^T A S is block diagonal, so by Sylvester's law the
    inertia of A - E I is the sum of the inertias of the blocks
    S_i^T A S_i - E S_i^T S_i.  With no mirrored axis the one block is A.
    """
    mirrored = _mirrored_axes(op)
    if not any(mirrored):
        return [(op.matrix, np.ones(op.size))]
    n = op.grid.points_per_axis
    identity = [sp.identity(n, format="csc")]
    blocks = []
    for parts in itertools.product(
        *(_mirror_maps(n) if m else identity for m in mirrored)
    ):
        s = reduce(sp.kron, parts).tocsc()
        weights = np.asarray(s.multiply(s).sum(axis=0)).ravel()
        blocks.append(((s.T @ op.matrix @ s).tocsc(), weights))
    return blocks


def _count_blocks(blocks, energy: float):
    """(sum of the negative inertias of B - E' W over the blocks, shifts).

    A singular or near-singular pivot in any block means an eigenvalue sits
    at the threshold E' = energy - shifts * SHIFT_STEP; every block is then
    factored again at the next shift, so the count uses one threshold.
    """
    pivot_log = []
    for shifts in range(MAX_SHIFTS + 1):
        shifted = energy - shifts * SHIFT_STEP
        try:
            count = sum(
                _sparse_inertia(b - sp.diags(shifted * w, format="csc"))
                for b, w in blocks
            )
        except FactorizationFault as fault:
            pivot_log.append(str(fault))
            continue
        return count, shifts
    raise FactorizationFault(
        f"factorization failed after {MAX_SHIFTS} shifts: {pivot_log}"
    )


def count_below(op: DiscreteOperator, energy: float) -> SpectrumSlice:
    """Exact number of eigenvalues below `energy` via matrix inertia.

    The matrix is split into its reflection blocks (one per even/odd
    pattern of the mirrored axes) and the block inertias are summed.  A
    singular or near-singular factorization means an eigenvalue sits at
    the threshold; the threshold then moves down by SHIFT_STEP, so that an
    eigenvalue at `energy` stays uncounted and every count is strict.
    """
    blocks = _reflection_blocks(op)
    count, shifts = _count_blocks(blocks, energy)
    return SpectrumSlice(
        threshold=energy,
        count=count,
        method="inertia",
        shifts_applied=shifts,
        blocks=len(blocks),
    )


def _banded_eigenvalues(op: DiscreteOperator, hi: float) -> np.ndarray:
    mat = op.matrix.tocsr()
    n = op.size
    band = np.zeros((2, n))
    band[0] = mat.diagonal()
    band[1, : n - 1] = mat.diagonal(-1)
    lo = float(band[0].min() - 2.0 * np.abs(band[1]).max() - 1.0)
    vals = eigvals_banded(
        band, lower=True, select="v", select_range=(lo, hi)
    )
    return vals[vals < hi]  # the selected range (lo, hi] includes hi


def eigenvalues_below(
    op: DiscreteOperator, energy: float, margin: float
) -> SpectrumSlice:
    """All eigenvalues below energy + margin of a 1-D (tridiagonal)
    operator, cross-checked against the inertia count there; like
    `count_below`, every count is strict."""
    if op.dimension != 1:
        raise NotImplementedError(
            f"eigenvalue lists support d = 1 only; got d = {op.dimension}"
        )
    hi = energy + margin
    expected = count_below(op, hi).count
    if expected > 5 * 10**4:
        raise IncompletenessFault(f"{expected} eigenvalues exceed the cap")
    eigs = _banded_eigenvalues(op, hi)
    if len(eigs) != expected:
        raise IncompletenessFault(
            f"found {len(eigs)} eigenvalues, inertia says {expected}"
        )
    return SpectrumSlice(
        threshold=energy,
        count=int(np.sum(eigs < energy)),
        method="banded",
        eigenvalues=eigs,
        complete_to=hi,
    )


# -- smoothed counting -----------------------------------------------------------


@lru_cache(maxsize=8)
def _counter_tables(t0: float):
    """h-independent transform tables for the window smoother.

    Returns (zeta, Phi, Psi, total): Phi(zeta) = |bump-hat(zeta)|^2 scaled so
    the self-convolved profile has value 1 at zero, Psi its cumulative
    integral from -infinity (by symmetry), total = Psi(+infinity).
    """
    half = t0 / 2.0
    t_nodes, t_wts = leggauss(512)
    t_nodes = t_nodes * half
    t_wts = t_wts * half
    g0 = np.exp(-1.0 / (1.0 - (t_nodes / half) ** 2))
    conv0 = float(np.dot(t_wts, g0 * g0))  # (g0*g0)(0), the normalizer

    z_max = 16.0 / t0
    for _ in range(12):
        zeta = np.linspace(0.0, z_max, 8001)
        # row blocks: the whole 8001 x 512 cosine table is 33 MB, held twice
        # while it is weighted, and would set the process's peak memory
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
    ) / (2.0 * math.pi)
    total = 2.0 * psi_half[-1]
    return zeta, phi, psi_half, total


@dataclass
class MollifiedCounter:
    """Smooth surrogate for the indicator of the spectral window Z."""

    t0: float
    h: float
    window: tuple
    mass_defect: float = field(init=False)

    def __post_init__(self):
        e1, e2 = self.window
        if e2 < e1:
            raise ValueError("window must be ordered")
        if self.t0 <= 0 or self.h <= 0:
            raise ValueError("t0 and h must be positive")
        _, _, _, total = _counter_tables(self.t0)
        self.mass_defect = abs(total - 1.0)
        if self.mass_defect > MASS_TOL:
            raise ValueError(
                f"smoothing kernel mass defect {self.mass_defect:.2e} "
                f"exceeds {MASS_TOL}; raise the node budget"
            )

    def _psi(self, zeta) -> np.ndarray:
        grid, _, psi_half, total = _counter_tables(self.t0)
        z = np.asarray(zeta, dtype=float)
        pos = np.interp(np.abs(z), grid, psi_half, right=psi_half[-1])
        return np.where(z >= 0, total / 2.0 + pos, total / 2.0 - pos)

    def gamma_tilde(self, lam) -> np.ndarray:
        grid, phi, _, _ = _counter_tables(self.t0)
        z = np.abs(np.asarray(lam, dtype=float)) / self.h
        return np.interp(z, grid, phi, right=0.0) / (2.0 * math.pi * self.h)

    def f_tilde(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        e1, e2 = self.window
        return self._psi((lam - e1) / self.h) - self._psi((lam - e2) / self.h)

    def coverage_level(self, cutoff: float = TAIL_CUTOFF) -> float:
        """Smallest level above E2 beyond which f_tilde stays below cutoff."""
        grid, _, psi_half, total = _counter_tables(self.t0)
        tail = total / 2.0 - psi_half  # Psi(+inf) - Psi(zeta) for zeta >= 0
        above = np.nonzero(tail < cutoff)[0]
        zeta_star = grid[above[0]] if len(above) else grid[-1]
        return self.window[1] + self.h * float(zeta_star)


def build_mollified_counter(
    t0: float,
    h: float,
    window,
    energy: Optional[float] = None,
    c: Optional[float] = None,
) -> MollifiedCounter:
    e1, e2 = float(window[0]), float(window[1])
    if energy is not None and c is not None:
        if e1 < energy - c - 1e-12 or e2 > energy + c + 1e-12:
            raise ValueError("window escapes [E - c, E + c]")
    return MollifiedCounter(t0=t0, h=h, window=(e1, e2))


def smoothed_count(slice_: SpectrumSlice, counter: MollifiedCounter) -> float:
    """Sum of the smoothed indicator over the computed spectrum."""
    if slice_.eigenvalues is None:
        raise ValueError("smoothed_count needs an explicit eigenvalue list")
    needed = counter.coverage_level()
    if slice_.complete_to is None or slice_.complete_to < needed:
        raise IncompletenessFault(
            f"eigenvalue list complete to {slice_.complete_to}, "
            f"but the smoother needs coverage up to {needed:.6g}"
        )
    if len(slice_.eigenvalues) == 0:
        return 0.0
    return float(np.sum(counter.f_tilde(slice_.eigenvalues)))
