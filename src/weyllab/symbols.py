"""Principal symbols on phase space: evaluation, derivatives, critical sets.

A symbol is a finite sum  sum_{|nu|,|nubar| <= m0} a_{nu,nubar}(x) xi^(nu+nubar)
over multi-index pairs.  Coefficients carry their own analytic derivatives,
so gradients and Hessians of the symbol are exact up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Coefficient",
    "PolynomialCoefficient",
    "SymbolModel",
    "CriticalPointReport",
    "HypothesisReport",
    "find_critical_points",
    "check_theorem_hypotheses",
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


class EvaluationFault(RuntimeError):
    """A coefficient produced a non-finite value; carries the offending point."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


class DimensionMismatch(ValueError):
    pass


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
    out = np.zeros(x.shape[0])
    for expo, coef in terms.items():
        term = np.full(x.shape[0], coef)
        for j, e in enumerate(expo):
            if e:
                term = term * x[:, j] ** e
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
        """1-D derivative of order <= 4, the surface fit_smoothing_exponents
        reads from a regularized coefficient."""
        if self.dimension != 1:
            raise NotImplementedError("high-order derivatives are 1-D only")
        if order > 4:
            raise ValueError("derivative orders above 4 are unused")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _poly_eval(_poly_derivative(self.terms, (order,)), x)


def _monomial(mu: tuple, xi: np.ndarray) -> np.ndarray:
    out = np.ones(xi.shape[0])
    for j, e in enumerate(mu):
        if e:
            out = out * xi[:, j] ** e
    return out


def _monomial_grad(mu: tuple, xi: np.ndarray) -> np.ndarray:
    d = len(mu)
    g = np.zeros((xi.shape[0], d))
    for j, e in enumerate(mu):
        if e:
            lowered = list(mu)
            lowered[j] -= 1
            g[:, j] = e * _monomial(tuple(lowered), xi)
    return g


def _monomial_hess(mu: tuple, xi: np.ndarray) -> np.ndarray:
    d = len(mu)
    h = np.zeros((xi.shape[0], d, d))
    for i, ei in enumerate(mu):
        if not ei:
            continue
        low_i = list(mu)
        low_i[i] -= 1
        for j, ej in enumerate(low_i):
            if not ej:
                continue
            low_ij = list(low_i)
            low_ij[j] -= 1
            h[:, i, j] = ei * ej * _monomial(tuple(low_ij), xi)
    return h


@dataclass
class SymbolModel:
    """Principal symbol with exact derivatives on R^{2d}.

    ``coefficients`` maps ordered multi-index pairs (nu, nubar) to
    Coefficient objects; symmetry coefficient(nu, nubar) == coefficient(nubar,
    nu) is validated at construction on random sample points.
    """

    dimension: int
    order: int
    coefficients: dict[tuple, Coefficient]
    ellipticity_constant: float
    holder_exponent: float
    box_x: float = 2.0
    box_xi: float = 2.0
    name: str = ""
    # (mu = nu + nubar, coefficient) per term: filled in __post_init__
    _terms: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        d, m0 = self.dimension, self.order
        if d < 1 or m0 < 1:
            raise ValueError("dimension and order must be positive")
        if not (0.0 < self.holder_exponent < 1.0):
            raise ValueError("holder_exponent must lie in (0, 1)")
        norm = {}
        for (nu, nubar), coef in self.coefficients.items():
            nu, nubar = tuple(nu), tuple(nubar)
            if len(nu) != d or len(nubar) != d:
                raise ValueError("multi-index length must equal dimension")
            if sum(nu) > m0 or sum(nubar) > m0:
                raise ValueError("multi-index order exceeds m0")
            norm[(nu, nubar)] = coef
        self.coefficients = norm
        self._validate_symmetry()
        self._terms = [
            (tuple(np.add(nu, nubar)), coef)
            for (nu, nubar), coef in self.coefficients.items()
        ]

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

    def boundary_min(self, n_samples: int = 4096, seed: int = 0) -> float:
        """Minimum of the symbol over sampled points of the box boundary."""
        d = self.dimension
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(n_samples, 2 * d))
        face = rng.integers(0, 2 * d, size=n_samples)
        sign = rng.choice([-1.0, 1.0], size=n_samples)
        pts[np.arange(n_samples), face] = sign
        pts[:, :d] *= self.box_x
        pts[:, d:] *= self.box_xi
        return float(self.value(pts).min())

    # -- evaluation --------------------------------------------------------

    def terms_at(self, x: np.ndarray) -> list:
        """The term table on x nodes of shape (n, d): one (mu, a(x)) per
        coefficient, mu = nu + nubar, so that the symbol is
        sum a(x) xi^mu.  Raises EvaluationFault, located at the x node, at
        the first non-finite coefficient value."""
        terms = []
        for mu, coef in self._terms:
            a = coef.value(x)
            bad = ~np.isfinite(a)
            if bad.any():
                raise EvaluationFault(
                    "coefficient evaluated to a non-finite value", x[bad][0]
                )
            terms.append((mu, a))
        return terms

    def value(self, v) -> np.ndarray:
        d = self.dimension
        pts, single = _as_points(v, 2 * d)
        xi = pts[:, d:]
        out = np.zeros(pts.shape[0])
        for mu, a in self.terms_at(pts[:, :d]):
            out += a * _monomial(mu, xi)
        return float(out[0]) if single else out

    def gradient(self, v) -> np.ndarray:
        d = self.dimension
        pts, single = _as_points(v, 2 * d)
        x, xi = pts[:, :d], pts[:, d:]
        gx = np.zeros((pts.shape[0], d))
        gxi = np.zeros((pts.shape[0], d))
        for mu, coef in self._terms:
            mono = _monomial(mu, xi)
            gx += coef.grad(x) * mono[:, None]
            gxi += coef.value(x)[:, None] * _monomial_grad(mu, xi)
        g = np.concatenate([gx, gxi], axis=1)
        return g[0] if single else g

    def hessian(self, v) -> np.ndarray:
        d = self.dimension
        pts, single = _as_points(v, 2 * d)
        x, xi = pts[:, :d], pts[:, d:]
        n = pts.shape[0]
        h = np.zeros((n, 2 * d, 2 * d))
        for mu, coef in self._terms:
            a = coef.value(x)
            ga = coef.grad(x)
            mono = _monomial(mu, xi)
            gmono = _monomial_grad(mu, xi)
            h[:, :d, :d] += coef.hess(x) * mono[:, None, None]
            cross = ga[:, :, None] * gmono[:, None, :]
            h[:, :d, d:] += cross
            h[:, d:, :d] += np.transpose(cross, (0, 2, 1))
            h[:, d:, d:] += a[:, None, None] * _monomial_hess(mu, xi)
        return h[0] if single else h

    def in_box(self, pts: np.ndarray) -> np.ndarray:
        d = self.dimension
        return (np.abs(pts[:, :d]).max(axis=1) <= self.box_x) & (
            np.abs(pts[:, d:]).max(axis=1) <= self.box_xi
        )

    def box_volume(self) -> float:
        d = self.dimension
        return (2.0 * self.box_x) ** d * (2.0 * self.box_xi) ** d

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


@dataclass
class HypothesisReport:
    confinement_ok: bool
    dimension_ok: bool
    rank_ok: bool
    critical_points: list
    boundary_min: float
    verdict: str
    coverage_caveat: str = (
        "critical points located by multi-start Newton; misses possible"
    )

    @property
    def all_ok(self) -> bool:
        return self.confinement_ok and self.dimension_ok and self.rank_ok


def hessian_rank(eigs: np.ndarray) -> int:
    thresh = RANK_RTOL * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    return int(np.sum(np.abs(eigs) > thresh))


def find_critical_points(
    model: SymbolModel,
    energy: float,
    window: float,
    n_seeds: int = 10_000,
    seed: int = 0,
    max_iter: int = 60,
) -> list[CriticalPointReport]:
    """Locate the numerical critical set {|a0 - E| + |grad a0| <= 2c}.

    Multi-start damped Newton on the gradient from n_seeds uniform (Philox)
    start points in the configured phase-space box; converged points are
    deduplicated and sorted lexicographically so the result is deterministic.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    d = model.dimension
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = rng.random((n_seeds, 2 * d)) * 2.0 - 1.0
    pts[:, :d] *= model.box_x
    pts[:, d:] *= model.box_xi

    # Batched damped Newton with a trust-radius cap; all seeds step together.
    step_cap = 0.25 * min(model.box_x, model.box_xi)
    for _ in range(max_iter):
        g = model.gradient(pts)
        gnorm = np.linalg.norm(g, axis=1)
        active = gnorm > 1e-12
        if not active.any():
            break
        h = model.hessian(pts[active])
        reg = h + 1e-12 * np.eye(2 * d)
        try:
            step = -np.linalg.solve(reg, g[active][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(
                reg.reshape(-1, 2 * d), g[active].reshape(-1), rcond=None
            )[0].reshape(-1, 2 * d)
        lengths = np.linalg.norm(step, axis=1)
        too_big = lengths > step_cap
        step[too_big] *= (step_cap / lengths[too_big])[:, None]
        trial = pts[active] + step
        # damp: keep the step only where the gradient norm does not blow up
        gt = np.linalg.norm(model.gradient(trial), axis=1)
        ok = gt <= gnorm[active] * 2.0 + 1e-14
        half = trial.copy()
        half[~ok] = pts[active][~ok] + 0.5 * step[~ok]
        new = pts.copy()
        new[active] = half
        pts = new

    g = model.gradient(pts)
    gnorm = np.linalg.norm(g, axis=1)
    inside = model.in_box(pts) & (gnorm <= POLISH_TOL)
    candidates = pts[inside]

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
    reports.sort(key=lambda r: tuple(r.location))
    return reports


def check_theorem_hypotheses(
    model: SymbolModel,
    energy: float,
    window: float,
    n_seeds: int = 10_000,
    seed: int = 0,
) -> HypothesisReport:
    bmin = model.boundary_min()
    confinement_ok = energy < bmin
    dimension_ok = model.dimension >= 2
    crits = find_critical_points(model, energy, window, n_seeds, seed)
    rank_ok = all(r.hessian_rank >= 2 for r in crits)
    if not dimension_ok:
        verdict = "rank hypothesis out of scope in d=1; Weyl sanity only"
    elif not confinement_ok:
        verdict = "confinement fails on the truncation boundary"
    elif not rank_ok:
        verdict = "Hessian rank < 2 at a located critical point"
    else:
        verdict = "all hypotheses pass"
    return HypothesisReport(
        confinement_ok=confinement_ok,
        dimension_ok=dimension_ok,
        rank_ok=rank_ok,
        critical_points=crits,
        boundary_min=bmin,
        verdict=verdict,
    )


# -- built-in models ---------------------------------------------------------


def smooth_cutoff(x: np.ndarray, inner: float = 1.0, outer: float = 2.0):
    """C-infinity cutoff: 1 on [-inner, inner], 0 outside (-outer, outer)."""
    x = np.asarray(x, dtype=float)
    r = (np.abs(x) - inner) / (outer - inner)
    out = np.ones_like(x)
    mid = (r > 0) & (r < 1)
    with np.errstate(over="ignore"):
        t = r[mid]
        a = np.exp(-1.0 / t)
        b = np.exp(-1.0 / (1.0 - t))
        out[mid] = b / (a + b)
    out[r >= 1] = 0.0
    return out


def holder_test_field(r0: float) -> Coefficient:
    """cutoff(x) * |x|^(2+r0) on R: C^2 with r0-Hoelder second derivative."""
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


def _harmonic(**kw) -> SymbolModel:
    # a0 = xi^2 + x^2
    d = 1
    coeffs = {
        ((1,), (1,)): PolynomialCoefficient({(0,): 1.0}, d),
        ((0,), (0,)): PolynomialCoefficient({(2,): 1.0}, d),
    }
    args = dict(
        dimension=1,
        order=1,
        coefficients=coeffs,
        ellipticity_constant=1.0,
        holder_exponent=0.5,
        box_x=2.0,
        box_xi=2.0,
        name="harmonic",
    )
    args.update(kw)
    return SymbolModel(**args)


def _separable_harmonic_2d(**kw) -> SymbolModel:
    # a0 = |x|^2 + |xi|^2
    d = 2
    coeffs = {
        ((1, 0), (1, 0)): PolynomialCoefficient({(0, 0): 1.0}, d),
        ((0, 1), (0, 1)): PolynomialCoefficient({(0, 0): 1.0}, d),
        ((0, 0), (0, 0)): PolynomialCoefficient(
            {(2, 0): 1.0, (0, 2): 1.0}, d
        ),
    }
    args = dict(
        dimension=2,
        order=1,
        coefficients=coeffs,
        ellipticity_constant=1.0,
        holder_exponent=0.5,
        box_x=2.0,
        box_xi=2.0,
        name="separable_harmonic_2d",
    )
    args.update(kw)
    return SymbolModel(**args)


def _double_well_2d(**kw) -> SymbolModel:
    # a0 = (x1^2 - 1)^2 + x2^2 + xi1^2 + xi2^2
    d = 2
    pot = {(4, 0): 1.0, (2, 0): -2.0, (0, 0): 1.0, (0, 2): 1.0}
    coeffs = {
        ((1, 0), (1, 0)): PolynomialCoefficient({(0, 0): 1.0}, d),
        ((0, 1), (0, 1)): PolynomialCoefficient({(0, 0): 1.0}, d),
        ((0, 0), (0, 0)): PolynomialCoefficient(pot, d),
    }
    args = dict(
        dimension=2,
        order=1,
        coefficients=coeffs,
        ellipticity_constant=1.0,
        holder_exponent=0.5,
        box_x=1.8,
        box_xi=1.8,
        name="double_well_2d",
    )
    args.update(kw)
    return SymbolModel(**args)


def _holder_test(r0: float = 0.5, **kw) -> SymbolModel:
    d = 1
    coeffs = {
        ((1,), (1,)): PolynomialCoefficient({(0,): 1.0}, d),
        ((0,), (0,)): _holder_coefficient(r0),
    }
    args = dict(
        dimension=1,
        order=1,
        coefficients=coeffs,
        ellipticity_constant=1.0,
        holder_exponent=r0,
        box_x=2.5,
        box_xi=2.5,
        name="holder_test",
    )
    args.update(kw)
    return SymbolModel(**args)


MODEL_REGISTRY: dict[str, Callable[..., SymbolModel]] = {
    "harmonic": _harmonic,
    "separable_harmonic_2d": _separable_harmonic_2d,
    "double_well_2d": _double_well_2d,
    "holder_test": _holder_test,
}
