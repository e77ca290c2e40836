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
and one with no mirror symmetry, is counted as one block: the block map
that splits no axis, which is the whole grid.
Each block is built from the stencil as a sparse matrix, its off-diagonal
couplings in CSR form and its diagonal as a vector, just before it is
factored, and dropped once its red pivots and Schur complement (below) are
formed, so a count holds one block at a time and a shift builds them
again.  T is checked by comparing the even-odd block with the odd-even one
permuted, and no count builds the whole matrix.

Every block, and a matrix counted whole, is a 5-point stencil, so its graph
is bipartite under the red/black colouring by the parity of the node's
coordinates (orbit ranks, in a block): red nodes couple to black ones only,
which is checked when the block is built.  The red-red part D_r of M = B -
E W is then diagonal, and Haynsworth's inertia additivity, inertia(M) =
inertia(D_r) + inertia(S), counts the red half from the signs of D_r and
factors only the black Schur complement S = M_bb - M_br D_r^-1 M_rb,
formed by one sparse product as M_bb - X^T sgn(D_r) X with X = |D_r|^-1/2
M_rb, so S is symmetric bit for bit.  This is the first step of odd-even
reduction (Haynsworth, LAA 1, 1968; Buzbee, Golub and Nielson, SIAM J.
Numer. Anal. 7, 1970).

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
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvals_banded
from scipy.sparse.linalg import splu

from .mollify import build_mollifier, regularize
from .symbols import SymbolModel, _constant, _finite, _tensor_grid

__all__ = [
    "GridSpec",
    "DiscreteOperator",
    "SpectrumSlice",
    "MollifiedCounter",
    "assemble",
    "count_below",
    "eigenvalues_below",
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
    def dimension(self) -> int:
        return np.ndim(self.diagonal)

    @property
    def resolution_ok(self) -> bool:
        """The invariant grid spacing <= h/4."""
        return _resolves(self.grid, self.h)

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
    shifts_applied: int = 0
    blocks: int = 1  # symmetry blocks factored at the final threshold

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.eigenvalues is not None:
            below = int(np.sum(self.eigenvalues < self.threshold))
            if below != self.count:
                raise ValueError("eigenvalue list inconsistent with count")


def _resolves(grid: GridSpec, h: float) -> bool:
    return grid.spacing <= h / 4.0 + 1e-15


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
    return _tensor_grid(axes), tuple(len(a) for a in axes)


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
    two smooth ones.  The raw operator builds no kernel.  Given `energy`,
    the potential on the box boundary must exceed it (ConfinementFault).
    A non-finite coefficient value at a node, a face or a boundary point
    raises EvaluationFault there.
    """
    if variant not in ("raw", "plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    if model.dimension > 2:
        raise NotImplementedError(
            f"matrix assembly supports d <= 2; got d = {model.dimension}"
        )
    d = model.dimension
    dx = grid.spacing
    if strict_resolution and not _resolves(grid, h):
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

    shape = (grid.points_per_axis,) * d
    node_pts = _tensor_grid([grid.nodes()] * d)
    n_total = node_pts.shape[0]

    # the stencil's diagonal terms in the order they are summed: each
    # second-order term, then each shift term, then `diag`
    diag_terms = []
    couplings = [np.zeros(s) for s in _coupling_shapes(*shape)]
    diag = np.zeros(n_total)

    def face_shape(axis):
        # a coefficient per cell face: one more than the nodes along `axis`
        return tuple(s + (j == axis) for j, s in enumerate(shape))

    def add_axis_term(coef_mid, axis, scale):
        term, off = _axis_term(coef_mid, axis, scale)
        diag_terms.append(term.ravel())
        couplings[axis] += off

    for (nu, nubar), coef in model.coefficients.items():
        o1, o2 = sum(nu), sum(nubar)
        if o1 == 0 and o2 == 0:
            diag += _finite(field_of(coef).value(node_pts), node_pts,
                            "potential")
        elif o1 == 1 and o2 == 1:
            axis = int(np.argmax(nu))
            if int(np.argmax(nubar)) != axis:
                raise NotImplementedError(
                    "mixed-axis second-order terms are not assembled"
                )
            a = field_of(coef)
            const = _constant(a)
            if const is None:
                mid_pts, mid_shape = _midpoint_coords(grid, d, axis)
                vals = _finite(a.value(mid_pts), mid_pts,
                               "coefficient").reshape(mid_shape)
            else:  # a number: the same on every face
                vals = np.full(face_shape(axis),
                               _finite(const, node_pts, "coefficient"))
            add_axis_term(vals, axis, (h / dx) ** 2)
        else:
            raise NotImplementedError(
                "first-order terms are not assembled"
            )

    if variant in ("plus", "minus"):
        sign = 1.0 if variant == "plus" else -1.0
        diag += sign * h
        for axis in range(d):
            add_axis_term(np.ones(face_shape(axis)), axis,
                          sign * h * (h / dx) ** 2)

    # the potential on the closed box boundary (201 points along each edge,
    # both ends of each axis) bounds the symbol from below there
    pot = model.coefficients.get(((0,) * d, (0,) * d))
    if energy is not None and pot is not None:
        edges = np.linspace(-grid.halfwidth, grid.halfwidth, 201)
        ends = np.array([-grid.halfwidth, grid.halfwidth])
        bpts = np.concatenate([
            _tensor_grid([ends if j == k else edges for j in range(d)])
            for k in range(d)
        ])
        boundary_min = float(
            _finite(pot.value(bpts), bpts, "potential").min())
        if boundary_min < energy + 1e-9:
            raise ConfinementFault(
                f"boundary symbol minimum {boundary_min:.4g} does not exceed "
                f"E = {energy}; enlarge the box"
            )
    return DiscreteOperator(
        h=h,
        grid=grid,
        diagonal=reduce(np.add, diag_terms + [diag]).reshape(shape),
        couplings=tuple(couplings),
    )


# -- counting ------------------------------------------------------------------


def _factor(mat: sp.csc_matrix):
    """SuperLU's symmetric LU of `mat`.

    Panels of 4 columns, not SuperLU's default, factor the black Schur
    complements of `separable_harmonic_2d`'s D4 blocks about a fifth
    faster at 639^2 and 451^2 on 2 cores, with the same fill and peak
    memory.  SuperLU keeps its own L and U and reads `mat` no more once it
    returns, so a caller may drop `mat` before the pivots are read.
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
    return lu


def _negative_pivots(lu, bound: float) -> int:
    """Negative pivots of a `_factor`ed LU; a pivot below PIVOT_TOL times
    `bound`, a bound on the matrix's norm, counts as zero.

    `lu.U` is scipy's only way to read the pivots, and it builds and
    caches CSC copies of both L and U.  The red elimination halves their
    rows, one per black node, though not their entries: U holds 7.02M over
    the five D4 blocks of `separable_harmonic_2d` at 639^2, against 6.94M
    unreduced, and the copies of its even-odd block's L and U take 58 MB.
    """
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
    """(columns, reps, weights) of one symmetry block on an n^d grid,
    d = len(parity).

    The block's map S has at most one +-1 entry per node: columns(*nodes)
    gives its column and sign for the nodes' index arrays, column -1 off
    the block.  parity[k] is +1 or -1 for the even or odd map of a
    mirrored axis, None for an axis that is not split; the odd map leaves
    out the centre node.  Without `half` the columns are the tuples of
    axis ranks in row-major order, so parity (None,) * d gives the whole
    grid, each node its own column.  half = +1 or -1 takes the swap-even
    or swap-odd half of a same-parity block on an n x n grid, whose
    columns are the pairs u <= v (u < v) of axis ranks in row-major order;
    the swap-odd half leaves out the diagonal.  reps are the index arrays
    of one node per column, in column order, each with sign +1, and
    weights is diag(S^T S), the orbit sizes.
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
    ranks, signs, counts, sizes = zip(*axes)
    if half is None:
        def columns(*nodes):
            sign = math.prod(s[i] for s, i in zip(signs, nodes))
            col = 0
            for r, m, i in zip(ranks, counts, nodes):
                col = col * m + r[i]
            return np.where(sign != 0, col, -1), sign

        reps = np.unravel_index(np.arange(math.prod(counts)), counts)
        return columns, reps, math.prod(w[i] for w, i in zip(sizes, reps))

    (r0, s0, m0, w0), (r1, s1, m1, w1) = axes
    odd = int(half == -1)

    def columns(i, j):
        a, b = r0[i], r1[j]
        u, v = np.minimum(a, b), np.maximum(a, b)
        sign = s0[i] * s1[j] * (np.sign(b - a) if odd else 1)
        col = u * m0 - u * (u - 1 + 2 * odd) // 2 + v - u - odd
        return np.where(sign != 0, col, -1), sign

    a, b = np.triu_indices(m0, odd)
    return columns, (a, b), w0[a] * w1[b] * np.where(a == b, 1, 2)


class _Block(NamedTuple):
    """One symmetry block B = S^T A S, counted `mult` times: 1 unless
    `_mixed_pair` counts it for its swap image too."""

    couplings: sp.csr_matrix  # the off-diagonal part of B
    diagonal: np.ndarray
    weights: np.ndarray  # W = diag(S^T S), the orbit sizes
    mult: int
    red: np.ndarray  # the red half of the red/black colouring


def _block(op: DiscreteOperator, block_map) -> _Block:
    """One block, by index arithmetic on the stencil.

    A S = S M when A commutes with the symmetry, and each representative
    row of S holds a single +1, so M is A S read on the representative
    rows and B = W M.  A coupling to a node's own orbit, at most one per
    mirrored axis, adds to the diagonal: the couplings are summed first
    and the stencil's diagonal added last, so the swap maps each sum onto
    the same sum bit for bit.  A node's other neighbours lie in orbits of
    ranks one step away, so red couples only to black; a block that
    breaks this raises ValueError.
    """
    columns, reps, weights = block_map
    n, size = op.grid.points_per_axis, weights.size
    red = _red_nodes(*reps)
    own = np.zeros(size)
    entries = []
    for k, coupling in enumerate(op.couplings):
        for step in (1, -1):
            face = reps[k] - (step < 0)
            row = np.flatnonzero((face >= 0) & (face < n - 1))
            nbr = [x[row] for x in reps]
            nbr[k] = nbr[k] + step
            col, sign = columns(*nbr)
            on = col >= 0
            row, col = row[on], col[on]
            at = [x[row] for x in reps]
            at[k] = face[row]
            val = coupling[tuple(at)] * (sign[on] * weights[row])
            mine = row == col
            own[row[mine]] += val[mine]
            entries.append((row[~mine], col[~mine], val[~mine]))
    row, col, val = (np.concatenate(x) for x in zip(*entries))
    if np.any(red[row] == red[col]):
        raise ValueError("the stencil couples two nodes of one colour: "
                         "it is not bipartite under the red/black colouring")
    couplings = sp.csr_matrix((val, (row, col)), shape=(size, size))
    return _Block(couplings, own + op.diagonal[reps] * weights, weights, 1,
                  red)


def _red_nodes(*coords) -> np.ndarray:
    """The red half of the red/black colouring of a 5-point stencil: the
    nodes whose grid (or orbit rank) coordinates have an even sum."""
    return sum(coords) % 2 == 0


def _block_maps(op: DiscreteOperator):
    """Yield the maps of A's symmetry blocks S_i^T A S_i, in counting
    order: (map,) for a block, (even-odd map, odd-even map) for a pair
    that `_mixed_pair` builds together.

    With the mirror group, S_i is the tensor product of an even or odd map
    on each mirrored axis and the identity on the others.  With D4, the
    even-even and odd-odd blocks split again into swap-even and swap-odd
    halves, and the swap T carries the even-odd block onto the odd-even
    one by a permutation congruence, so that block is factored once and
    counted twice once T * OE * T == EO is checked bit for bit.  S^T A S
    is block diagonal and S invertible, so by Sylvester's law the inertia
    of A - E I is the sum over the blocks of multiplicity times the
    inertia of S_i^T A S_i - E S_i^T S_i.  A 1-D matrix, and one with no
    mirrored axis, is the one block A: the map of parity (None,) * d.
    """
    # a tridiagonal matrix factors without fill: its halves would cost
    # about as much as the whole, plus each block's fixed cost
    n, d = op.grid.points_per_axis, op.dimension
    mirrored, swap = _symmetries(op) if d >= 2 and n >= 2 else (
        [False] * d, False
    )
    for parity in itertools.product(
        *((1, -1) if m else (None,) for m in mirrored)
    ):
        if swap and parity[0] != parity[1]:
            if parity[0] == 1:  # the odd-even block is counted with this one
                yield _block_map(n, parity), _block_map(n, parity[::-1])
            continue
        for half in (1, -1) if swap else (None,):
            block_map = _block_map(n, parity, half)
            if block_map[2].size > 0:
                yield (block_map,)


def _mixed_pair(op: DiscreteOperator, eo_map, oe_map) -> list:
    """The even-odd block with multiplicity 2 when T * OE * T == EO bit
    for bit, diagonal and weights included; else both blocks, each once.
    T sends the representative (i, j) of EO's column p to node (j, i), in
    OE's column perm[p], so EO must equal OE[perm][:, perm]."""
    eo, oe = _block(op, eo_map), _block(op, oe_map)
    i, j = eo_map[1]
    perm, _ = oe_map[0](j, i)
    if np.array_equal(oe.diagonal[perm], eo.diagonal) \
            and np.array_equal(oe.weights[perm], eo.weights) \
            and (oe.couplings[perm][:, perm] != eo.couplings).nnz == 0:
        return [eo._replace(mult=2)]
    return [eo, oe]


def _pivot_bound(op: DiscreteOperator, energy: float, weights) -> float:
    """A bound on the infinity norm of B - E W for every `_block` of `op`
    whose weights W are among `weights`: the largest weight times the
    largest Gershgorin row sum |A_pp - E| + sum over q != p of |A_pq|,
    read from the stencil arrays.

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
    weight = max(float(w.max()) for w in weights)
    return weight * float(rows.max())


def _eliminate_red(block, energy: float, bound: float) -> tuple:
    """(negative red pivots, Schur complement of the rest) of M = B - E W
    for a `_block`.

    The block couples red nodes to black ones only, so the red-red part
    D of M is diagonal and inertia(M) = inertia(D) + inertia(S) for the
    kept nodes k and eliminated red nodes g, with S = M_kk - M_kg D^-1
    M_gk (Haynsworth).  A red pivot, an entry of D, is judged against
    `bound` as every pivot is.  S = M_kk - X^T sgn(D) X with X =
    |D|^-1/2 M_gk, read off g's CSR rows, whose columns are all black and
    so kept; the product sums each entry in the same order as its mirror
    entry, so S equals its transpose bit for bit.

    A red node whose update is so large against its pivot that rounding
    in it could pass PIVOT_TOL * bound, eps (sum_q |M_gq|)^2 / |d_g| >
    PIVOT_TOL * bound, is kept: its couplings enter M_kk through the
    selection J of its row in S, as K + K^T with K = J^T Y and Y its CSR
    row; the stencils of `assemble` have none.
    """
    couplings, diagonal, weights, _, red = block
    diag = diagonal - energy * weights
    if np.any(np.abs(diag[red]) < PIVOT_TOL * bound) or not diag[red].all():
        raise FactorizationFault("near-zero red pivot")
    reach = abs(couplings) @ np.ones(weights.size)
    gone = red & (np.finfo(float).eps * reach**2
                  <= PIVOT_TOL * bound * np.abs(diag))
    local = np.cumsum(~gone) - 1  # each kept node's index in S
    size = weights.size - np.count_nonzero(gone)

    def rows(nodes, scale):
        """The CSR rows of `nodes`, times `scale`, on S's columns."""
        part = couplings[nodes]
        data = part.data * np.repeat(scale, np.diff(part.indptr))
        return sp.csr_matrix((data, local[part.indices], part.indptr),
                             shape=(nodes.size, size))

    g, q = np.flatnonzero(gone), np.flatnonzero(red & ~gone)
    d = diag[g]
    x, sx = (rows(g, s * np.abs(d) ** -0.5) for s in (1.0, np.sign(d)))
    j = sp.csr_matrix((np.ones(q.size), local[q], np.arange(q.size + 1)),
                      shape=(q.size, size))
    kept = j.T @ rows(q, np.ones(q.size))
    schur = sp.diags(diag[~gone], format="csc") + kept + kept.T - x.T @ sx
    return int(np.sum(d < 0.0)), schur


def count_below(op: DiscreteOperator, energy: float) -> SpectrumSlice:
    """Exact number of eigenvalues below `energy` via matrix inertia.

    The matrix is split into its symmetry blocks and their inertias are
    summed, each times its multiplicity.  In each block the red nodes are
    eliminated in closed form: their pivots are the block's red diagonal,
    and only the black Schur complement is factored (Haynsworth's inertia
    additivity), so SuperLU sees about half the unknowns; an empty black
    half adds 0.  A singular or near-singular pivot, red or black, means an
    eigenvalue sits at the threshold; the threshold then moves down by
    SHIFT_STEP and every block is built and factored again, so that an
    eigenvalue at `energy` stays uncounted and every count is strict and
    uses one threshold.  A pivot is judged near zero against a bound on the
    norm of its block, not against the other pivots, so one huge pivot
    after a near tie does not make the rest look small.  The bound's
    weights come from the block maps, so it is known before any block is
    built.

    Each block is built from the stencil just before it is factored and
    dropped once its red pivots and Schur complement are formed, and the
    Schur complement once SuperLU has factored it, before the pivots are
    read: a block, its complement, SuperLU's factors and the copies of them
    that reading the pivots makes are then never held together.
    """
    weights = (m[2] for maps in _block_maps(op) for m in maps)
    bound = _pivot_bound(op, energy, weights)
    pivot_log = []
    for shifts in range(MAX_SHIFTS + 1):
        shifted = energy - shifts * SHIFT_STEP
        count = size = 0
        try:
            for maps in _block_maps(op):
                blocks = (_mixed_pair(op, *maps) if len(maps) == 2
                          else [_block(op, *maps)])
                del maps
                while blocks:
                    block = blocks.pop(0)
                    mult = block.mult
                    negative, schur = _eliminate_red(block, shifted, bound)
                    del block
                    if schur.shape[0] > 0:
                        lu = _factor(schur)
                        del schur
                        negative += _negative_pivots(lu, bound)
                        del lu
                    count += mult * negative
                    size += 1
        except FactorizationFault as fault:
            pivot_log.append(str(fault))
            # drop what the faulted block left before the next threshold
            blocks = block = schur = lu = None
            continue
        return SpectrumSlice(
            threshold=energy,
            count=count,
            method="inertia",
            shifts_applied=shifts,
            blocks=size,
        )
    raise FactorizationFault(
        f"factorization failed after {MAX_SHIFTS} shifts: {pivot_log}"
    )


def _banded_eigenvalues(op: DiscreteOperator, hi: float) -> np.ndarray:
    n = op.size
    band = np.zeros((2, n))
    band[0] = op.diagonal
    band[1, : n - 1] = op.couplings[0]
    lo = float(band[0].min() - 2.0 * np.abs(band[1]).max() - 1.0)
    if hi <= lo:  # below the Gershgorin bound: no eigenvalue
        return np.empty(0)
    vals = eigvals_banded(
        band, lower=True, select="v", select_range=(lo, hi)
    )
    return vals[vals < hi]  # the selected range (lo, hi] includes hi


def eigenvalues_below(op: DiscreteOperator, energy: float) -> SpectrumSlice:
    """All eigenvalues below energy of a 1-D (tridiagonal) operator,
    cross-checked against the inertia count there; like `count_below`,
    every count is strict."""
    if op.dimension != 1:
        raise NotImplementedError(
            f"eigenvalue lists support d = 1 only; got d = {op.dimension}"
        )
    expected = count_below(op, energy).count
    if expected > 5 * 10**4:
        raise IncompletenessFault(f"{expected} eigenvalues exceed the cap")
    eigs = _banded_eigenvalues(op, energy)
    if len(eigs) != expected:
        raise IncompletenessFault(
            f"found {len(eigs)} eigenvalues, inertia says {expected}"
        )
    return SpectrumSlice(
        threshold=energy, count=expected, method="banded", eigenvalues=eigs
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
        self.window = (float(self.window[0]), float(self.window[1]))
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

    def coverage_level(self) -> float:
        """Smallest level above E2 beyond which f_tilde < TAIL_CUTOFF."""
        grid, _, psi_half, total = _counter_tables(self.t0)
        tail = total / 2.0 - psi_half  # Psi(+inf) - Psi(zeta) for zeta >= 0
        above = np.nonzero(tail < TAIL_CUTOFF)[0]
        zeta_star = grid[above[0]] if len(above) else grid[-1]
        return self.window[1] + self.h * float(zeta_star)


def smoothed_count(slice_: SpectrumSlice, counter: MollifiedCounter) -> float:
    """Sum of the smoothed indicator over the computed spectrum."""
    if slice_.eigenvalues is None:
        raise ValueError("smoothed_count needs an explicit eigenvalue list")
    needed = counter.coverage_level()
    if slice_.threshold < needed:
        raise IncompletenessFault(
            f"eigenvalue list complete to {slice_.threshold}, "
            f"but the smoother needs coverage up to {needed:.6g}"
        )
    if len(slice_.eigenvalues) == 0:
        return 0.0
    return float(np.sum(counter.f_tilde(slice_.eigenvalues)))
