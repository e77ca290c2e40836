"""Finite-difference operators, eigenvalue counting, and smoothed counting.

The divergence-form operator sum (hD)^nubar a(x) (hD)^nu is discretized on a
Dirichlet box with flux-form (midpoint-coefficient) second-order stencils.  An
operator is its stencil: a diagonal entry per node and a coupling per pair of
neighbours along each axis, kept as grid arrays, so its matrix is symmetric
by construction.  Counting below a threshold uses matrix inertia
(Sylvester's law of inertia applied to a sparse LU factorization with
symmetric pivoting: the negative pivots count the negative eigenvalues),
which is exact: no eigenvalue is ever computed for a count.

Nodes and cell faces are exactly mirror-symmetric about 0, so a coefficient
that is even in x_k gives a 2-D matrix A that commutes, bit for bit, with
the reflection P_k of axis k; when A also commutes with the swap T of the
two axes, its symmetry group is D4, that of the square.  The count then
factors symmetry blocks instead of A.  Each block's map S_i has at most one
exact +-1 entry per node, so S_i^T A S_i is built from the stencil by index
arithmetic; S^T A S is block diagonal and S is invertible, so inertia(A -
E I) is the sum over i of multiplicity_i times inertia(S_i^T A S_i - E
S_i^T S_i), where S_i^T S_i is the diagonal of orbit sizes 1, 2, 4 or 8.
With the mirrors alone the blocks are even/odd on each mirrored axis: four
blocks of a quarter of the unknowns on a mirror-symmetric square.  With D4
the even-even and odd-odd blocks split again into swap-even and swap-odd
halves, and T carries the even-odd block onto the odd-even one, so that
block is factored once and counted twice: five factorizations, of an
eighth of the unknowns four times and a quarter once (Bossavit, "Symmetry,
groups, and boundary value problems", CMAME 56, 1986; Fassler and Stiefel,
"Group Theoretical Methods and Their Applications", 1992).  A 1-D matrix,
and one with no mirror symmetry, is counted as one block, the whole grid.
Every block is read off the stencil as triplets; no count builds the whole
matrix.

Every block, and a matrix counted whole, is a 5-point stencil, so its graph
is bipartite under the red/black colouring by the parity of the node's
coordinates (orbit ranks, in a block): red nodes couple to black ones only.
The red-red part D_r of M = B - E W is then diagonal, and Haynsworth's
inertia additivity, inertia(M) = inertia(D_r) + inertia(M_bb - M_br D_r^-1
M_rb), counts the red half from the signs of D_r and factors only the black
Schur complement, built in closed form: the one matrix packed into CSC form
and factored.  This is the first step of odd-even reduction (Haynsworth,
LAA 1, 1968; Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).

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
PIVOT_TOL = 1e-13
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


def _coupling_shapes(*shape) -> list:
    """Shapes of the couplings along each axis of a grid of `shape`."""
    return [
        tuple(s - (j == axis) for j, s in enumerate(shape))
        for axis in range(len(shape))
    ]


@dataclass
class DiscreteOperator:
    """A symmetric (2d+1)-point stencil on the tensor grid.

    diagonal has shape (n,)*d; couplings[k] has n - 1 entries along axis k,
    and its entry i couples nodes i and i + 1 along that axis.
    """

    h: float
    grid: GridSpec
    diagonal: np.ndarray
    couplings: tuple
    variant: str  # raw | plus | minus
    dimension: int
    resolution_ok: bool = True

    def __post_init__(self):
        shape = (self.grid.points_per_axis,) * self.dimension
        shapes = _coupling_shapes(*shape)
        if np.shape(self.diagonal) != shape or [
            np.shape(c) for c in self.couplings
        ] != shapes:
            raise ValueError(
                f"a stencil on a {shape} grid needs a diagonal of that "
                f"shape and couplings of shapes {shapes}"
            )

    @property
    def size(self) -> int:
        return self.grid.points_per_axis ** self.dimension

    @property
    def matrix(self) -> sp.csc_matrix:
        """The whole matrix.  No count builds it: every block, the whole
        grid too, is read off the stencil.

        Flat node p couples with p + stride along an axis; the last node
        along the axis has no such neighbour, and its zero entry is dropped.
        """
        n, d, size = self.grid.points_per_axis, self.dimension, self.size
        bands, offsets = [self.diagonal.ravel()], [0]
        for axis, coupling in enumerate(self.couplings):
            stride = n ** (d - 1 - axis)
            band = np.zeros((n,) * d)
            band[(slice(None),) * axis + (slice(0, n - 1),)] = coupling
            band = band.ravel()[: size - stride]
            bands += [band, band]
            offsets += [stride, -stride]
        return sp.diags(bands, offsets, shape=(size, size), format="csc")


@dataclass
class SpectrumSlice:
    threshold: float
    count: int  # #{eigenvalues < threshold}
    method: str  # inertia | banded
    eigenvalues: Optional[np.ndarray] = None
    complete_to: Optional[float] = None
    shifts_applied: int = 0
    blocks: int = 1  # symmetry blocks factored at the final threshold

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.eigenvalues is not None:
            below = int(np.sum(self.eigenvalues < self.threshold))
            if below != self.count:
                raise ValueError("eigenvalue list inconsistent with count")


def _axis_term(coef_mid: np.ndarray, axis: int, scale: float):
    """Flux-form 1-D second difference along `axis` with midpoint
    coefficients, as grid arrays: (diagonal, couplings).

    coef_mid has one extra entry along `axis` (left face of the first node
    through right face of the last); Dirichlet drops the exterior neighbors
    but keeps the boundary-face coefficients on the diagonal.  The couplings
    have one entry fewer than the nodes along `axis`: entry i couples nodes
    i and i + 1.
    """
    n = coef_mid.shape[axis] - 1
    left = np.take(coef_mid, range(0, n), axis=axis)
    right = np.take(coef_mid, range(1, n + 1), axis=axis)
    off = -scale * np.take(right, range(n - 1), axis=axis)
    return scale * (left + right), off


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
    """Symmetric stencil of sum (hD)^nubar a(x) (hD)^nu on the grid.

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

    # the stencil's diagonal terms in the order they are summed: each
    # second-order term, then each shift term, then `diag`
    diag_terms = []
    couplings = [np.zeros(s) for s in _coupling_shapes(*shape)]
    diag = np.zeros(n_total)

    def add_axis_term(coef_mid, axis, scale):
        term, off = _axis_term(coef_mid, axis, scale)
        diag_terms.append(term.ravel())
        couplings[axis] += off

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
            add_axis_term(vals, axis, (h / dx) ** 2)
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
            add_axis_term(ones_ax, axis, sign * h * (h / dx) ** 2)

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
        diagonal=reduce(np.add, diag_terms + [diag]).reshape(shape),
        couplings=tuple(couplings),
        variant=variant,
        dimension=d,
        resolution_ok=resolution_ok,
    )


# -- counting ------------------------------------------------------------------


def _sparse_inertia(mat: sp.csc_matrix, bound: float) -> int:
    """Negative pivots of a symmetric LU of `mat`; a pivot below PIVOT_TOL
    times `bound`, a bound on the matrix's norm, counts as zero.

    `lu.U` builds a copy of the whole U factor: it is scipy's only way to
    read the pivots.  The red elimination halves the copy's rows, one per
    black node, though not its entries: 7.02M over the five D4 blocks of
    `separable_harmonic_2d` at 639^2, against 6.94M unreduced.

    Panels of 4 columns, not SuperLU's default, factor the black Schur
    complements of that operator's D4 blocks about a fifth faster at 639^2
    and 451^2 on 2 cores, with the same fill and peak memory.
    """
    try:
        lu = splu(
            mat,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A",
            panel_size=4,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise FactorizationFault(str(err)) from err
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFault("factorization lost symmetric pivoting")
    du = lu.U.diagonal()
    if np.any(np.abs(du) < PIVOT_TOL * bound):
        raise FactorizationFault("near-zero pivot")
    return int(np.sum(du < 0.0))


def _symmetries(op: DiscreteOperator) -> tuple:
    """(mirrored, swap): the axes whose reflection commutes with the 2-D
    stencil bit for bit, and whether the swap (i, j) -> (j, i) does too.
    The swap is used only with both reflections, which together make the
    symmetry group D4 of the square."""
    diag, couplings = op.diagonal, op.couplings
    mirrored = [
        all(np.array_equal(x, np.flip(x, axis)) for x in (diag, *couplings))
        for axis in range(diag.ndim)
    ]
    swap = (
        all(mirrored)
        and np.array_equal(diag, diag.T)
        and np.array_equal(couplings[0], couplings[1].T)
    )
    return mirrored, swap


def _block_map(n: int, parity, half=None) -> tuple:
    """(columns, reps, weights) of one symmetry block on an n x n grid.

    The block's map S has at most one +-1 entry per node: columns(i, j)
    gives its column and sign for nodes (i, j), column -1 off the block.
    parity[k] is +1 or -1 for the even or odd map of a mirrored axis, None
    for an axis that is not split; the odd map leaves out the centre node.
    half = +1 or -1 takes the swap-even or swap-odd half of a same-parity
    block, whose columns are the pairs u <= v (u < v) of axis ranks in
    row-major order; the swap-odd half leaves out the diagonal.  reps are
    the (i, j) index arrays of one node per column, in column order, each
    with sign +1, and weights is diag(S^T S), the orbit sizes.
    """
    k = np.arange(n)
    ones = np.ones(n, dtype=np.int64)
    # per axis: the rank of each node's orbit, its sign, the number of
    # ranks, and the orbit size along the axis
    axes = [
        (k, ones, n, ones) if p is None else (
            np.minimum(k, n - 1 - k),
            np.sign(n - 1 - 2 * k) if p == -1 else ones,
            n // 2 if p == -1 else n - n // 2,
            np.where(2 * k == n - 1, 1, 2),
        )
        for p in parity
    ]
    (r0, s0, m0, w0), (r1, s1, m1, w1) = axes
    if half is None:
        def columns(i, j):
            sign = s0[i] * s1[j]
            return np.where(sign != 0, r0[i] * m1 + r1[j], -1), sign

        a, b = np.divmod(np.arange(m0 * m1), m1)
        return columns, (a, b), w0[a] * w1[b]

    odd = int(half == -1)

    def columns(i, j):
        a, b = r0[i], r1[j]
        u, v = np.minimum(a, b), np.maximum(a, b)
        sign = s0[i] * s1[j] * (np.sign(b - a) if odd else 1)
        col = u * m0 - u * (u - 1 + 2 * odd) // 2 + v - u - odd
        return np.where(sign != 0, col, -1), sign

    a, b = np.triu_indices(m0, odd)
    return columns, (a, b), w0[a] * w1[b] * np.where(a == b, 1, 2)


def _block_stencil(op: DiscreteOperator, columns, reps, weights) -> list:
    """S^T A S of one block as triplets, by index arithmetic on the stencil.

    A S = S M when A commutes with the symmetry, and each representative
    row of S holds a single +1, so M is A S read on the representative
    rows and S^T A S = W M with W = diag(S^T S).  One (rows, columns,
    values) triple per axis and step, each row at most once, and the
    diagonal last; entries that fall off the block are dropped.
    """
    n = op.grid.points_per_axis
    rows = np.arange(weights.size)
    parts = []
    for k, coupling in enumerate(op.couplings):
        for step in (1, -1):
            face = reps[k] - (step < 0)
            row = np.flatnonzero((face >= 0) & (face < n - 1))
            nbr = [x[row] for x in reps]
            nbr[k] = nbr[k] + step
            col, sign = columns(*nbr)
            on = col >= 0
            row = row[on]
            at = [x[row] for x in reps]
            at[k] = face[row]
            vals = coupling[tuple(at)] * (sign[on] * weights[row])
            parts.append((row, col[on], vals))
    parts.append((rows, rows, op.diagonal[reps] * weights))
    return parts


def _red_nodes(*coords) -> np.ndarray:
    """The red half of the red/black colouring of a 5-point stencil: the
    nodes whose grid (or orbit rank) coordinates have an even sum."""
    return sum(coords) % 2 == 0


def _grid_map(n: int, d: int) -> tuple:
    """(columns, reps, weights) of the whole grid as one block: each node
    its own column, in row-major order, with weight 1."""
    shape = (n,) * d

    def columns(*nodes):
        return np.ravel_multi_index(nodes, shape), np.ones_like(nodes[0])

    return columns, np.unravel_index(np.arange(n**d), shape), np.ones(n**d)


def _symmetry_blocks(op: DiscreteOperator) -> list:
    """[(triplets of S_i^T A S_i, diag(S_i^T S_i), multiplicity, red nodes)]
    over the symmetry blocks of A.

    With the mirror group, S_i is the tensor product of an even or odd map
    on each mirrored axis and the identity on the others.  With D4, the
    even-even and odd-odd blocks split again into swap-even and swap-odd
    halves, and the swap T carries the even-odd block onto the odd-even
    one by a permutation congruence, so that block is factored once and
    counted twice once T * OE * T == EO and their weights are checked bit
    for bit.  S^T A S is block diagonal and S invertible, so by Sylvester's
    law the inertia of A - E I is the sum over the blocks of multiplicity
    times the inertia of S_i^T A S_i - E S_i^T S_i.  A 1-D matrix, and one
    with no mirrored axis, is the one block A.

    Each block is coloured by its columns' representatives: a node's
    neighbours lie in orbits of ranks one step away, or in its own orbit,
    which adds to the diagonal, so red couples only to black.
    """
    # a tridiagonal matrix factors without fill: its halves would cost
    # about as much as the whole, plus each block's fixed cost
    n = op.grid.points_per_axis
    mirrored, swap = _symmetries(op) if op.dimension >= 2 and n >= 2 else (
        [], False
    )
    if not any(mirrored):
        return [_block(op, _grid_map(n, op.dimension))]
    blocks = []
    for parity in itertools.product(
        *((1, -1) if m else (None,) for m in mirrored)
    ):
        if swap and parity[0] != parity[1]:
            if parity[0] == 1:  # the odd-even block is counted with this one
                blocks += _mixed_pair(op, parity)
            continue
        for half in (1, -1) if swap else (None,):
            blocks.append(_block(op, _block_map(n, parity, half)))
    return [b for b in blocks if b[1].size > 0]


def _block(op: DiscreteOperator, block_map, mult: int = 1,
           parts=None) -> tuple:
    """(triplets of S^T A S, weights, mult, red) of one block map; `parts`
    are the triplets when they are already built."""
    _, reps, weights = block_map
    if parts is None:
        parts = _block_stencil(op, *block_map)
    return parts, weights, mult, _red_nodes(*reps)


def _mixed_pair(op: DiscreteOperator, parity) -> list:
    """The even-odd block with multiplicity 2 when T * OE * T == EO and
    their weights agree bit for bit; else both blocks, each once.

    The check reads the triplets: T carries EO's part along axis k onto
    OE's along the other axis, row by row, and the diagonal onto the
    diagonal, so each EO triplet (p, q, v) must be the OE triplet
    (T p, T q, v) bit for bit.
    """
    n = op.grid.points_per_axis
    eo_map, oe_map = (_block_map(n, p) for p in (parity, parity[::-1]))
    eo, oe = (_block_stencil(op, *m) for m in (eo_map, oe_map))
    # T sends the representative (i, j) of an EO column to node (j, i)
    i, j = eo_map[1]
    perm, _ = oe_map[0](j, i)
    if np.array_equal(oe_map[2][perm], eo_map[2]) and _swapped(
        eo, [oe[2], oe[3], oe[0], oe[1], oe[4]], perm
    ):
        return [_block(op, eo_map, 2, eo)]
    return [_block(op, eo_map, 1, eo), _block(op, oe_map, 1, oe)]


def _swapped(parts, t_parts, perm) -> bool:
    """Whether each triplet (p, q, v) of `parts` is the triplet
    (perm p, perm q, v) of the matching part of `t_parts`, and nothing
    else is, bit for bit."""
    at = np.full(perm.size, -1)
    for (row, col, val), (t_row, t_col, t_val) in zip(parts, t_parts):
        if row.size != t_row.size:
            return False
        at[t_row] = np.arange(t_row.size)
        k = at[perm[row]]
        if not (np.all(k >= 0) and np.array_equal(t_col[k], perm[col])
                and np.array_equal(t_val[k], val)):
            return False
        at[t_row] = -1
    return True


def _pivot_bound(op: DiscreteOperator, energy: float, blocks) -> float:
    """A bound on the infinity norm of B - E W for every block (B, W, _, _) of
    `op`: the largest weight times the largest Gershgorin row sum
    |A_pp - E| + sum over q != p of |A_pq|, read from the stencil arrays.

    A row of B - E W is a row of (A - E I) S at a representative node,
    times that node's weight, and S has one +-1 per node, so its absolute
    sum is at most the weight times A's row sum.  The shifts move E by at
    most MAX_SHIFTS * SHIFT_STEP, which the bound leaves out.
    """
    rows = np.abs(op.diagonal - energy)
    for axis, coupling in enumerate(op.couplings):
        before = (slice(None),) * axis
        rows[before + (slice(0, -1),)] += np.abs(coupling)
        rows[before + (slice(1, None),)] += np.abs(coupling)
    weight = max(float(w.max()) for _, w, _, _ in blocks)
    return weight * float(rows.max())


def _eliminate_red(parts, weights: np.ndarray, red: np.ndarray,
                   energy: float, bound: float) -> tuple:
    """(negative red pivots, Schur complement of the rest) of M = B - E W,
    B given by its `_block_stencil` triplets.

    The stencil couples red nodes to black ones only, so the red-red part
    D_r of M is diagonal and inertia(M) = inertia(D_r) + inertia(S), with
    S = M_bb - M_br D_r^-1 M_rb (Haynsworth).  A red pivot, an entry of
    D_r, is judged against `bound` as every pivot is.  A red node k reaches
    a black neighbour j_p along each arm p (axis and step) of the stencil;
    it adds -c_kp^2 / d_k to S's diagonal at j_p and -c_kp c_kq / d_k to
    S_(j_p, j_q) for each pair of arms p < q.  These pairs are summed into
    S's upper triangle, which is mirrored, so S equals its transpose bit
    for bit; two arms that reach one node (an orbit next to a centre line)
    put their pair on the diagonal, where the mirror doubles it, as the
    square (c_kp + c_kq)^2 has the cross term twice.

    A red node whose update is so large against its pivot that rounding
    in it could pass PIVOT_TOL * bound, eps (sum_p |c_kp|)^2 / |d_k| >
    PIVOT_TOL * bound, stays in S with its couplings, a black node as far
    as the elimination goes; the stencils of `assemble` have none.
    """
    *couplings, (_, _, diag) = parts
    diag = diag.copy()
    arms = []  # per arm: (red node, black neighbour, coupling)
    for row, col, val in couplings:
        own = row == col
        if np.any((red[row] == red[col]) & ~own):
            raise ValueError("the stencil couples two nodes of one colour: "
                             "it is not bipartite under the red/black "
                             "colouring")
        # a node coupled to its own orbit adds the coupling to its diagonal
        diag[row[own]] += val[own]
        arm = red[row] & ~own
        arms.append((row[arm], col[arm], val[arm]))
    diag -= energy * weights
    if np.any(np.abs(diag[red]) < PIVOT_TOL * bound) or not diag[red].all():
        raise FactorizationFault("near-zero red pivot")
    reach = sum(np.bincount(k, np.abs(c), minlength=weights.size)
                for k, _, c in arms)
    gone = red & (np.finfo(float).eps * reach**2
                  <= PIVOT_TOL * bound * np.abs(diag))
    # each node's index among the eliminated nodes or among the others
    local = np.where(gone, np.cumsum(gone), np.cumsum(~gone)) - 1
    d = diag[gone]
    size = weights.size - d.size
    # each eliminated node's neighbour (-1 for none) and coupling per arm
    nbr = np.full((len(arms), d.size), -1)
    c = np.zeros((len(arms), d.size))
    ii, jj, vals = [], [], []
    for p, (k, j, ckj) in enumerate(arms):
        out = gone[k]
        nbr[p, local[k[out]]] = local[j[out]]
        c[p, local[k[out]]] = ckj[out]
        # a kept red node keeps its couplings, as upper-triangle entries
        ends = local[j[~out]], local[k[~out]]
        ii.append(np.minimum(*ends))
        jj.append(np.maximum(*ends))
        vals.append(ckj[~out])
    has = nbr >= 0
    pivots = diag[~gone] - np.bincount(nbr[has], (c * c / d)[has],
                                       minlength=size)
    for p, q in itertools.combinations(range(len(arms)), 2):
        both = np.flatnonzero(has[p] & has[q])
        ends = nbr[p, both], nbr[q, both]
        ii.append(np.minimum(*ends))
        jj.append(np.maximum(*ends))
        vals.append(-(c[p, both] * c[q, both]) / d[both])
    upper = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(ii), np.concatenate(jj))),
        shape=(size, size),
    )
    schur = upper + upper.T + sp.diags(pivots, format="csc")
    return int(np.sum(d < 0.0)), schur


def _reduced_inertia(parts, weights: np.ndarray, red: np.ndarray,
                     energy: float, bound: float) -> int:
    """Negative inertia of B - E W: the negative red pivots, and the
    factored black Schur complement's; an empty black half adds 0."""
    negative, schur = _eliminate_red(parts, weights, red, energy, bound)
    if schur.shape[0] == 0:
        return negative
    return negative + _sparse_inertia(schur, bound)


def _count_blocks(blocks, energy: float, bound: float):
    """(sum over the blocks of multiplicity times the negative inertia of
    B - E' W, shifts).

    A singular pivot, or one below PIVOT_TOL times `bound` (from
    `_pivot_bound`), red or black, in any block means an eigenvalue sits at
    the threshold E' = energy - shifts * SHIFT_STEP; every block is then
    factored again at the next shift, so the count uses one threshold.
    """
    pivot_log = []
    for shifts in range(MAX_SHIFTS + 1):
        shifted = energy - shifts * SHIFT_STEP
        try:
            count = sum(
                mult * _reduced_inertia(parts, w, red, shifted, bound)
                for parts, w, mult, red in blocks
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

    The matrix is split into its symmetry blocks and their inertias are
    summed, each times its multiplicity.  In each block the red nodes are
    eliminated in closed form: their pivots are the block's red diagonal,
    and only the black Schur complement is factored (Haynsworth's inertia
    additivity), so SuperLU sees about half the unknowns.  A singular or
    near-singular pivot, red or black, means an eigenvalue sits at the
    threshold; the threshold then moves down by SHIFT_STEP for every block,
    so that an eigenvalue at `energy` stays uncounted and every count is
    strict.  A pivot is judged near zero against a bound on the norm of its
    block, not against the other pivots, so one huge pivot after a near tie
    does not make the rest look small.
    """
    blocks = _symmetry_blocks(op)
    count, shifts = _count_blocks(
        blocks, energy, _pivot_bound(op, energy, blocks))
    return SpectrumSlice(
        threshold=energy,
        count=count,
        method="inertia",
        shifts_applied=shifts,
        blocks=len(blocks),
    )


def _banded_eigenvalues(op: DiscreteOperator, hi: float) -> np.ndarray:
    n = op.size
    band = np.zeros((2, n))
    band[0] = op.diagonal
    band[1, : n - 1] = op.couplings[0]
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

    def ghat(z):
        return (np.cos(np.outer(z, t_nodes)) * (t_wts * g0)).sum(axis=1)

    # double z_max until Phi has decayed there: the table's first and last
    # rows are Phi(0) and Phi(z_max), so only those two are evaluated
    z_max = 16.0 / t0
    for _ in range(11):
        g = ghat([0.0, z_max])
        ends = g * g / conv0
        if ends[1] < 1e-16 * ends[0]:
            break
        z_max *= 2.0
    zeta = np.linspace(0.0, z_max, 8001)
    # row blocks: the whole 8001 x 512 cosine table is 33 MB, held twice
    # while it is weighted, and would set the process's peak memory
    g = np.concatenate([ghat(z) for z in np.array_split(zeta, 8)])
    phi = g * g / conv0
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
