"""Principal symbols on phase space: evaluation, derivatives, critical sets.

A symbol is a finite sum  sum_{|nu|,|nubar| <= 1} a_{nu,nubar}(x) xi^(nu+nubar)
over multi-index pairs.  Coefficients carry their own derivatives, so
gradients and Hessians of the symbol are exact up to rounding, except where
a coefficient's own derivatives are approximate: holder_test_field
differentiates its cutoff by central differences (steps 1e-6 and 1e-4).

Every symbol is second order, so its momentum fibres are ellipsoids whose
centres xi*(x) have a closed form.  Critical points are found without
random draws: Newton starts from the discrete local minima of |grad_x a0|
over the fibre centres (x, xi*(x)) on a midpoint x grid of SEED_NODES nodes
per axis and takes NEWTON_STEPS undamped steps, so two critical points
within about two grid cells can share one seed.

Two helpers here serve the whole package.  `_tensor_grid` and
`_product_rule` build every tensor grid and tensor quadrature rule: the
seed grid, the operators' nodes, faces and boundary points, and the
oscillatory rule.  `_finite` checks every evaluation that
feeds a count or a quadrature: a non-finite value raises EvaluationFault
located at its point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Coefficient",
    "PolynomialCoefficient",
    "EvaluationFault",
    "DimensionMismatch",
    "SymbolModel",
    "CriticalPointReport",
    "find_critical_points",
    "make_model",
    "MODEL_REGISTRY",
    "smooth_cutoff",
    "holder_test_field",
]

# Eigenvalues below this relative threshold do not count toward the Hessian rank.
RANK_RTOL = 1e-6
# Two Newton limits are considered the same critical point below this radius.
DEDUP_RADIUS = 1e-6
# Gradient norm required of a polished critical point.
POLISH_TOL = 1e-8
# Nodes per axis of the x grid that seeds the critical-point search.
SEED_NODES = 64
# Undamped Newton steps taken from each seed.
NEWTON_STEPS = 50


class EvaluationFault(RuntimeError):
    """A coefficient produced a non-finite value; carries the offending point."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


class DimensionMismatch(ValueError):
    pass


def _finite(values, points, what: str):
    """`values` once every one is finite: the row i of values belongs to
    points[i], and a number to all of them.  Else EvaluationFault, located
    at the first point with a non-finite value, points[0] for a number."""
    bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))
    if len(bad):
        raise EvaluationFault(f"{what} is not finite", points[bad[0, 0]])
    return values


def _tensor_grid(axes) -> np.ndarray:
    """The nodes (n, k) of the tensor grid of k 1-D node arrays, the first
    axis varying slowest, in the order of itertools.product."""
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _product_rule(rules):
    """Nodes (n, k) and weights (n,) of the tensor product of k 1-D rules
    (nodes, weights): the nodes of `_tensor_grid`, each weighted by the
    product of its 1-D weights."""
    nodes, weights = zip(*rules)
    return _tensor_grid(nodes), functools.reduce(np.multiply.outer,
                                                 weights).ravel()


def _as_points(v, two_d: int) -> tuple[np.ndarray, bool]:
    """Normalize scalar/batched phase points to shape (n, 2d)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != two_d:
            raise DimensionMismatch(
                f"phase point has {arr.shape[0]} components, expected {two_d}"
            )
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == two_d:
        return arr, False
    raise DimensionMismatch(f"expected shape (n, {two_d}), got {arr.shape}")


@dataclass(frozen=True)
class Coefficient:
    """A scalar field on R^d with derivatives up to order 2.

    ``value`` maps (n, d) -> (n,); ``grad`` maps (n, d) -> (n, d);
    ``hess`` maps (n, d) -> (n, d, d).
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def _poly_eval(terms: dict[tuple, float], x: np.ndarray) -> np.ndarray:
    """Sum of coef * prod_j x_j^e_j.  Powers are taken of x_j * x_j, so an
    even power is exactly even and an odd one exactly odd in x_j: a
    polynomial even in a coordinate gives bit-identical values at mirrored
    points."""
    out = np.zeros(x.shape[0])
    for expo, coef in terms.items():
        term = np.full(x.shape[0], coef)
        for j, e in enumerate(expo):
            if e > 1:
                xj = x[:, j]
                term = term * (xj * xj) ** (e // 2)
            if e % 2:
                term = term * x[:, j]
        out += term
    return out


def _poly_derivative(terms: dict[tuple, float], alpha: tuple) -> dict:
    """Term table of d^alpha of the polynomial {exponent-tuple: scalar}."""
    out = {}
    for expo, coef in terms.items():
        if any(e < a for e, a in zip(expo, alpha)):
            continue
        low = tuple(e - a for e, a in zip(expo, alpha))
        out[low] = coef * math.prod(map(math.perm, expo, alpha))
    return out


@dataclass(frozen=True, eq=False, init=False)
class PolynomialCoefficient(Coefficient):
    """Coefficient given by a polynomial {exponent-tuple: scalar} table."""

    terms: dict
    dimension: int

    def __init__(self, terms: dict[tuple, float], d: int):
        terms = {tuple(k): float(v) for k, v in terms.items()}
        for k in terms:
            if len(k) != d:
                raise ValueError(f"exponent {k} does not match dimension {d}")

        def unit(*axes):
            return tuple(axes.count(k) for k in range(d))

        grads = [_poly_derivative(terms, unit(j)) for j in range(d)]
        hesses = [
            [_poly_derivative(terms, unit(i, j)) for j in range(d)]
            for i in range(d)
        ]

        def value(x):
            return _poly_eval(terms, x)

        def grad(x):
            return np.stack([_poly_eval(g, x) for g in grads], axis=-1)

        def hess(x):
            n = x.shape[0]
            h = np.empty((n, d, d))
            for i in range(d):
                for j in range(d):
                    h[:, i, j] = _poly_eval(hesses[i][j], x)
            return h

        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "dimension", d)
        super().__init__(value, grad, hess)

    def derivative(self, x, order: int) -> np.ndarray:
        """1-D derivative of order <= 3, the surface fit_smoothing_exponents
        reads from a regularized coefficient."""
        if self.dimension != 1:
            raise NotImplementedError("high-order derivatives are 1-D only")
        if order > 3:
            raise ValueError("derivative orders above 3 are unused")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _poly_eval(_poly_derivative(self.terms, (order,)), x)


def _constant(coef: Coefficient):
    """The number a coefficient equals when it cannot depend on x, else
    None.  Read off the structure, never off values: only a
    PolynomialCoefficient whose one exponent is the zero tuple is a
    number."""
    if isinstance(coef, PolynomialCoefficient) and len(coef.terms) == 1:
        ((expo, value),) = coef.terms.items()
        if not any(expo):
            return value
    return None


@dataclass
class SymbolModel:
    """Principal symbol with exact derivatives on R^{2d}.

    ``coefficients`` maps ordered multi-index pairs (nu, nubar), |nu|,
    |nubar| <= 1, to Coefficient objects; symmetry coefficient(nu, nubar) ==
    coefficient(nubar, nu) is validated at construction on random points.
    """

    dimension: int
    coefficients: dict[tuple, Coefficient]
    ellipticity_constant: float
    box_x: float = 2.0
    box_xi: float = 2.0
    name: str = ""
    # (mu = nu + nubar, coefficient, xi^mu as a polynomial in xi, the
    # coefficient's `_constant`) per term: filled in __post_init__
    _terms: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be positive")
        norm = {}
        for (nu, nubar), coef in self.coefficients.items():
            nu, nubar = tuple(nu), tuple(nubar)
            if len(nu) != d or len(nubar) != d:
                raise ValueError("multi-index length must equal dimension")
            if sum(nu) > 1 or sum(nubar) > 1:
                raise NotImplementedError("second-order symbols only")
            norm[(nu, nubar)] = coef
        self.coefficients = norm
        self._validate_symmetry()
        self._terms = []
        for (nu, nubar), coef in self.coefficients.items():
            mu = tuple(np.add(nu, nubar))
            xi_mu = PolynomialCoefficient({mu: 1.0}, d)
            self._terms.append((mu, coef, xi_mu, _constant(coef)))

    # -- construction-time invariants -------------------------------------

    def _validate_symmetry(self):
        rng = np.random.default_rng(0)
        probe = rng.uniform(-self.box_x, self.box_x, size=(8, self.dimension))
        for (nu, nubar), coef in self.coefficients.items():
            if nu == nubar:
                continue
            mirror = self.coefficients.get((nubar, nu))
            if mirror is None:
                raise ValueError(
                    f"coefficient ({nubar},{nu}) missing: symmetry requires it"
                )
            if not np.allclose(coef.value(probe), mirror.value(probe)):
                raise ValueError(
                    f"coefficient pair ({nu},{nubar}) is not symmetric"
                )

    # -- evaluation --------------------------------------------------------

    def terms_at(self, x: np.ndarray) -> list:
        """The term table on x nodes of shape (n, d): one (mu, a(x)) per
        coefficient, mu = nu + nubar, so that the symbol is
        sum a(x) xi^mu.  a(x) is an (n,) array, or a Python number for a
        coefficient that cannot depend on x (see `_constant`); callers
        combine the two by broadcasting.  Raises EvaluationFault, located
        at the x node, at the first non-finite coefficient value; a
        non-finite number faults at x[0]."""
        return [
            (mu, _finite(coef.value(x) if const is None else const, x,
                         "coefficient"))
            for mu, coef, _, const in self._terms
        ]

    def value(self, v) -> np.ndarray:
        d = self.dimension
        pts, single = _as_points(v, 2 * d)
        xi = pts[:, d:]
        out = np.zeros(pts.shape[0])
        for mu, a in self.terms_at(pts[:, :d]):
            out += a * _poly_eval({mu: 1.0}, xi)
        return float(out[0]) if single else out

    def gradient(self, v) -> np.ndarray:
        """The gradient in (x, xi).  A number coefficient has no
        x-derivatives, so its term adds to the xi part only."""
        d = self.dimension
        pts, single = _as_points(v, 2 * d)
        x, xi = pts[:, :d], pts[:, d:]
        gx = np.zeros((pts.shape[0], d))
        gxi = np.zeros((pts.shape[0], d))
        for mu, coef, xi_mu, const in self._terms:
            a = const
            if const is None:
                gx += coef.grad(x) * xi_mu.value(xi)[:, None]
                a = coef.value(x)[:, None]
            gxi += a * xi_mu.grad(xi)
        g = np.concatenate([gx, gxi], axis=1)
        return g[0] if single else g

    def hessian(self, v) -> np.ndarray:
        """The Hessian in (x, xi).  A number coefficient has no
        x-derivatives, so its term adds to the xi-xi block only."""
        d = self.dimension
        pts, single = _as_points(v, 2 * d)
        x, xi = pts[:, :d], pts[:, d:]
        n = pts.shape[0]
        h = np.zeros((n, 2 * d, 2 * d))
        for mu, coef, xi_mu, const in self._terms:
            a = const
            if const is None:
                mono = xi_mu.value(xi)
                h[:, :d, :d] += coef.hess(x) * mono[:, None, None]
                cross = coef.grad(x)[:, :, None] * xi_mu.grad(xi)[:, None, :]
                h[:, :d, d:] += cross
                h[:, d:, :d] += np.transpose(cross, (0, 2, 1))
                a = coef.value(x)[:, None, None]
            h[:, d:, d:] += a * xi_mu.hess(xi)
        return h[0] if single else h

    def in_box(self, pts: np.ndarray) -> np.ndarray:
        d = self.dimension
        return (np.abs(pts[:, :d]).max(axis=1) <= self.box_x) & (
            np.abs(pts[:, d:]).max(axis=1) <= self.box_xi
        )

    def sample_box(self, n: int, rng: np.random.Generator) -> np.ndarray:
        d = self.dimension
        pts = rng.uniform(-1.0, 1.0, size=(n, 2 * d))
        pts[:, :d] *= self.box_x
        pts[:, d:] *= self.box_xi
        return pts


@dataclass
class CriticalPointReport:
    location: np.ndarray
    energy: float
    gradient_norm: float
    hessian: np.ndarray
    hessian_eigenvalues: np.ndarray
    hessian_rank: int


def hessian_rank(eigs: np.ndarray) -> int:
    thresh = RANK_RTOL * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    return int(np.sum(np.abs(eigs) > thresh))


def _midpoint_axis(k: int, half: float) -> np.ndarray:
    """The midpoints of k equal cells across [-half, half]."""
    return (np.arange(k) + 0.5) * (2.0 * half / k) - half


def _quadratic_parts(model: SymbolModel, x: np.ndarray):
    """G, b and c of a0(x, xi) = xi.G(x) xi + b(x).xi + c(x) on x nodes of
    shape (n, d), as nested lists of (n,) arrays or numbers.

    Each term a(x) xi^mu of the term table adds to the part keyed by the
    sorted axes of its monomial: () is c, (j,) is b_j, (j, j) is G_jj and
    (j, k) with j < k is G_jk + G_kj = 2 G_jk.  A second-order symbol has
    |mu| <= 2 by construction.  A part made of number terms only, or of
    none (0.0), is a number.
    """
    d = model.dimension
    parts = {}
    for mu, a in model.terms_at(x):
        key = tuple(j for j in range(d) for _ in range(mu[j]))
        parts[key] = parts.get(key, 0.0) + a
    G = [
        [parts.get((min(j, k), max(j, k)), 0.0) * (1.0 if j == k else 0.5)
         for k in range(d)]
        for j in range(d)
    ]
    b = [parts.get((j,), 0.0) for j in range(d)]
    return G, b, parts.get((), 0.0)


def _ellipsoids(G, b, c):
    """(det G, least eigenvalue of G, diagonal of G^-1, centre xi*, minimum
    m) elementwise, in closed form for d <= 2.  Parts may be arrays or
    numbers; each result broadcasts its inputs, so it is a number where
    they all are.

    Raises ValueError where G is not positive definite: there the sublevel
    fibers are not ellipsoids, which contradicts ellipticity."""
    d = len(G)
    if d > 2:
        raise NotImplementedError(f"momentum ellipsoids support d <= 2; got {d}")
    if d == 1:
        det = least = G[0][0]
    else:
        (p, q), (_, r) = G
        det = p * r - q * q
        least = 0.5 * (p + r) - np.hypot(0.5 * (p - r), q)
    if np.min(least) <= 0:
        raise ValueError(
            "G(x) is not positive definite, which contradicts ellipticity"
        )
    inv = [[1.0 / det]] if d == 1 else [[r / det, -q / det], [-q / det, p / det]]
    centre = [-0.5 * sum(inv[j][k] * b[k] for k in range(d)) for j in range(d)]
    minimum = c + 0.5 * sum(b[j] * centre[j] for j in range(d))
    return det, least, [inv[j][j] for j in range(d)], centre, minimum


def _newton_step(model: SymbolModel, pts: np.ndarray) -> None:
    """One undamped Newton step on grad a0 at pts, in place.  The step is
    -pinv(H) g, which stays defined where the Hessian is singular."""
    g = model.gradient(pts)[:, :, None]
    pts -= (np.linalg.pinv(model.hessian(pts)) @ g)[:, :, 0]


def find_critical_points(
    model: SymbolModel, energy: float, window: float
) -> list[CriticalPointReport]:
    """Locate the numerical critical set {|a0 - E| + |grad a0| <= 2c}.

    a0 is quadratic in xi, so the critical points are the (x, xi*(x)) with
    grad_x a0(x, xi*(x)) = 0, xi*(x) the fibre centre of `_ellipsoids`.
    Newton is seeded at the discrete local minima of |grad_x a0(x, xi*(x))|
    on the midpoint grid of SEED_NODES nodes per axis over the x box; each
    seed takes NEWTON_STEPS undamped steps on the whole gradient and is
    dropped if it leaves the box.
    Converged points are deduplicated and sorted lexicographically.  No
    random numbers are drawn.  Two critical points within about two grid
    cells (4 box_x / SEED_NODES) of each other can share one seed, and then
    only one of them is found.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    d, k = model.dimension, SEED_NODES
    x = _tensor_grid([_midpoint_axis(k, model.box_x)] * d)
    nodes = np.empty((len(x), 2 * d))
    nodes[:, :d] = x
    # a centre coordinate may be a number; assignment broadcasts it
    for j, centre in enumerate(_ellipsoids(*_quadratic_parts(model, x))[3]):
        nodes[:, d + j] = centre
    slope = np.linalg.norm(model.gradient(nodes)[:, :d], axis=1)
    slope = slope.reshape((k,) * d)

    # a node is a seed where no node of its 3^d neighbourhood has a smaller
    # slope; +inf padding lets edge nodes compare with their inner side only
    padded = np.pad(slope, 1, constant_values=np.inf)
    is_seed = np.ones(slope.shape, dtype=bool)
    for shift in itertools.product(range(3), repeat=d):
        is_seed &= slope <= padded[tuple(slice(s, s + k) for s in shift)]
    pts = nodes[is_seed.ravel()]
    for _ in range(NEWTON_STEPS):
        _newton_step(model, pts)
        pts = pts[model.in_box(pts)]
    gnorm = np.linalg.norm(model.gradient(pts), axis=1)
    candidates = pts[gnorm <= POLISH_TOL]

    # Deduplicate, then evaluate the report per surviving point.
    reports = []
    kept: list[np.ndarray] = []
    order = np.lexsort(candidates.T[::-1]) if len(candidates) else []
    for idx in order:
        p = candidates[idx]
        if any(np.linalg.norm(p - q) < DEDUP_RADIUS for q in kept):
            continue
        kept.append(p)
        e = model.value(p)
        gn = float(np.linalg.norm(model.gradient(p)))
        # strict inequality keeps the boundary case |a0-E| = 2c out
        if abs(e - energy) + gn >= 2.0 * window:
            continue
        hess = model.hessian(p)
        eigs = np.linalg.eigvalsh(hess)
        reports.append(
            CriticalPointReport(
                location=p,
                energy=float(e),
                gradient_norm=gn,
                hessian=hess,
                hessian_eigenvalues=eigs,
                hessian_rank=hessian_rank(eigs),
            )
        )
    return reports


# -- built-in models ---------------------------------------------------------


def _cutoff_band(r, inner, outer):
    """Flat indices of the nodes with inner < r < outer, and
    smooth_cutoff(r, inner, outer) on them: exp is taken on these nodes
    only.  Where t rounds to 1 the value is b/(a + b) = 0, as on the outer
    plateau."""
    idx = np.flatnonzero((r > inner) & (r < outer))
    t = (np.take(r, idx) - inner) / (outer - inner)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.exp(-1.0 / t)
        b = np.exp(-1.0 / (1.0 - t))
    return idx, b / (a + b)


def smooth_cutoff(x: np.ndarray, inner: float = 1.0, outer: float = 2.0):
    """C-infinity cutoff: 1 on [-inner, inner], 0 outside (-outer, outer)."""
    r = np.abs(np.asarray(x, dtype=float))
    out = np.array(r < outer, dtype=float)
    np.put(out, *_cutoff_band(r, inner, outer))
    return out


def holder_test_field(r0: float) -> Coefficient:
    """cutoff(x) * |x|^(2+r0) on R: C^2 with r0-Hoelder second derivative.

    The derivatives of |x|^(2+r0) are exact; those of the cutoff are central
    differences with steps 1e-6 (first) and 1e-4 (second)."""
    p = 2.0 + r0

    def chi(x):
        return smooth_cutoff(x, 1.0, 2.0)

    def dchi(x):
        eps = 1e-6
        return (chi(x + eps) - chi(x - eps)) / (2 * eps)

    def d2chi(x):
        eps = 1e-4
        return (chi(x + eps) - 2 * chi(x) + chi(x - eps)) / eps**2

    def value(pts):
        x = pts[:, 0]
        return chi(x) * np.abs(x) ** p

    def grad(pts):
        x = pts[:, 0]
        g = dchi(x) * np.abs(x) ** p + chi(x) * p * np.abs(x) ** (
            p - 1
        ) * np.sign(x)
        return g[:, None]

    def hess(pts):
        x = pts[:, 0]
        h = (
            d2chi(x) * np.abs(x) ** p
            + 2 * dchi(x) * p * np.abs(x) ** (p - 1) * np.sign(x)
            + chi(x) * p * (p - 1) * np.abs(x) ** (p - 2)
        )
        return h[:, None, None]

    return Coefficient(value, grad, hess)


def _holder_coefficient(r0: float) -> Coefficient:
    """1-D potential x^2 + holder_test_field(r0): C^{2,r0} but not C^3."""
    field = holder_test_field(r0)
    return Coefficient(
        lambda pts: pts[:, 0] ** 2 + field.value(pts),
        lambda pts: 2 * pts[:, :1] + field.grad(pts),
        lambda pts: 2.0 + field.hess(pts),
    )


def make_model(name: str, **overrides) -> SymbolModel:
    if name not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        )
    return MODEL_REGISTRY[name](**overrides)


def _schrodinger(name, d, potential, box, overrides) -> SymbolModel:
    """a0 = |xi|^2 + V(x) on the box [-box, box]^(2d): one unit kinetic
    coefficient per axis, in axis order, then the potential V, a Coefficient
    or a polynomial term table.  That order fixes the summation order of
    SymbolModel.value and of assemble.  ``overrides`` replaces any
    SymbolModel field."""
    if isinstance(potential, dict):
        potential = PolynomialCoefficient(potential, d)
    zero = (0,) * d
    coeffs = {}
    for j in range(d):
        e_j = tuple(int(k == j) for k in range(d))
        coeffs[(e_j, e_j)] = PolynomialCoefficient({zero: 1.0}, d)
    coeffs[(zero, zero)] = potential
    args = dict(
        dimension=d,
        coefficients=coeffs,
        ellipticity_constant=1.0,
        box_x=box,
        box_xi=box,
        name=name,
    )
    args.update(overrides)
    return SymbolModel(**args)


MODEL_REGISTRY: dict[str, Callable[..., SymbolModel]] = {
    # a0 = xi^2 + x^2
    "harmonic": lambda **kw: _schrodinger("harmonic", 1, {(2,): 1.0}, 2.0, kw),
    # a0 = |xi|^2 + |x|^2
    "separable_harmonic_2d": lambda **kw: _schrodinger(
        "separable_harmonic_2d", 2, {(2, 0): 1.0, (0, 2): 1.0}, 2.0, kw
    ),
    # a0 = |xi|^2 + (x1^2 - 1)^2 + x2^2
    "double_well_2d": lambda **kw: _schrodinger(
        "double_well_2d", 2,
        {(4, 0): 1.0, (2, 0): -2.0, (0, 0): 1.0, (0, 2): 1.0}, 1.8, kw,
    ),
    # a0 = xi^2 + x^2 + holder_test_field(0.5), Hoelder exponent 0.5
    "holder_test": lambda **kw: _schrodinger(
        "holder_test", 1, _holder_coefficient(0.5), 2.5, kw
    ),
}
