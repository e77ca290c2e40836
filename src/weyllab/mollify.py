"""Mollifier kernels with vanishing moments and coefficient regularization.

There is one kernel per dimension d, built on first use and kept:
gamma(x) = (c0 + c2 |x|^2) * bump(|x|) on the unit ball, with the standard
compactly supported bump; (c0, c2) solve the 2x2 linear system that forces
unit mass and vanishing second moments.  Odd moments vanish by radial
symmetry.  Convolution at scale s = h^delta0 then reproduces quadratics
exactly, which is what makes the regularized coefficients track the originals
to O(h^((2+r0) delta0)).

A polynomial coefficient p is regularized in closed form, by Taylor expansion
under the integral:

    (p * gamma_s)(x) = sum_alpha (-s)^|alpha| m_alpha d^alpha p(x) / alpha!,

with kernel moments m_alpha = integral of y^alpha gamma(y) (m_0 = 1 and the
odd and second moments are 0 by construction), so a polynomial of degree <= 2
comes back with identical terms.  Every other coefficient is convolved by a
tensor Gauss-Legendre rule whose weights are corrected so that its moments of
order <= 2 are exactly (1, 0, 0), like the kernel's.  The kernel owns that
rule: it is computed once, on the first convolution, and serves every h.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._fitting import ExponentFit, fit_loglog
from .symbols import (
    Coefficient,
    PolynomialCoefficient,
    _poly_derivative,
    _product_rule,
    holder_test_field,
)

__all__ = [
    "MollifierKernel",
    "RegularizedCoefficient",
    "MollifierConstructionFault",
    "build_mollifier",
    "regularize",
    "fit_smoothing_exponents",
    "holder_test_field",
    "admissible_delta0",
]

MOMENT_TOL = 1e-10
RADIAL_NODES = 128
CONVOLVE_CHUNK = 4096  # evaluation points per block of a convolution
# fit_smoothing_exponents: the Philox key of its points and their window
SAMPLE_SEED = 7
SAMPLE_DOMAIN = (-0.6, 0.6)


class MollifierConstructionFault(RuntimeError):
    pass


def admissible_delta0(delta0: float, r0: float) -> bool:
    """Open interval 1/(2+r0) < delta0 < 1/2."""
    return 1.0 / (2.0 + r0) < delta0 < 0.5


def _bump(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@lru_cache(maxsize=1)
def _radial_rule() -> tuple:
    """The RADIAL_NODES-point Gauss-Legendre rule on [0, 1], (nodes,
    weights), built once: leggauss solves an eigenproblem per call."""
    z, w = leggauss(RADIAL_NODES)
    return 0.5 * (z + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _radial_integral(d: int, k: int, c0: float = 1.0, c2: float = 0.0) -> float:
    """Integral over R^d of |x|^k (c0 + c2 |x|^2) bump(|x|), as the sphere's
    area times a Gauss-Legendre sum over the radius in [0, 1]; the bump is
    smooth and flat at r = 1, so the fixed rule converges faster than any
    power of the node count."""
    r, w = _radial_rule()
    val = np.dot(w, (c0 + c2 * r**2) * _bump(r) * r ** (k + d - 1))
    return _sphere_area(d) * float(val)


def _profile_derivatives(z: np.ndarray, c0: float, c2: float):
    """Orders 0..2 of the 1-D kernel profile g = q e^phi inside its support,
    with q = c0 + c2 z^2 and phi = -1 / (1 - z^2)."""
    w = 1.0 - z * z
    ephi = np.exp(-1.0 / w)
    dphi = -2.0 * z / (w * w)
    d2phi = -2.0 * (1.0 + 3.0 * z * z) / w**3
    q, dq, d2q = c0 + c2 * z * z, 2.0 * c2 * z, 2.0 * c2
    return (
        q * ephi,
        (dq + q * dphi) * ephi,
        (d2q + 2.0 * dq * dphi + q * (d2phi + dphi * dphi)) * ephi,
    )


@dataclass(frozen=True)
class MollifierKernel:
    """Kernel on the unit ball of R^d with unit mass and two vanishing
    moments, together with its quadrature rule.  The rule and its weight
    vectors are computed on first use and kept, so every h of every
    regularized coefficient shares them."""

    dimension: int
    c0: float
    c2: float
    moment_defects: dict = field(default_factory=dict)

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=-1)
        return (self.c0 + self.c2 * r**2) * _bump(r)

    def profile_derivative(self, order: int) -> Callable:
        """d^k/dz^k of the 1-D kernel, k <= 2 (only defined for d = 1)."""
        if self.dimension != 1:
            raise NotImplementedError("profile derivatives are 1-D only")
        if order > 2:
            raise ValueError("kernel derivative orders above 2 are unused")
        c0, c2 = self.c0, self.c2

        def g(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            inside = np.abs(x) < 1.0 - 1e-12
            out[inside] = _profile_derivatives(x[inside], c0, c2)[order]
            return out

        return g

    def moment(self, alpha: tuple) -> float:
        """m_alpha = integral of y^alpha gamma(y): a sphere factor times one
        radial integral.  Order 0 is 1 and orders 1 and 2 are 0 by
        construction, as is every moment with an odd exponent."""
        order = sum(alpha)
        if order == 0:
            return 1.0
        if order <= 2 or any(a % 2 for a in alpha):
            return 0.0
        d = self.dimension
        # mean of theta^alpha over the unit sphere S^(d-1)
        sphere = (
            math.prod(math.gamma((a + 1) / 2.0) for a in alpha)
            * math.gamma(d / 2.0)
            / (math.pi ** (d / 2.0) * math.gamma((order + d) / 2.0))
        )
        return sphere * _radial_integral(d, order, self.c0, self.c2)

    @cached_property
    def quadrature(self) -> tuple:
        """Tensor Gauss-Legendre rule (points (n, d), weights (n,)) covering
        the support box [-1, 1]^d: 160 nodes in 1-D, 48 per axis above."""
        rule = leggauss(160 if self.dimension == 1 else 48)
        return _product_rule([rule] * self.dimension)

    @cached_property
    def weights(self) -> np.ndarray:
        """Kernel values times the rule's weights, corrected so that the
        moments of order <= 2 are exactly (1, 0, 0)."""
        pts, wts = self.quadrature
        return _exact_low_moments(pts, wts * self(pts))

    @cached_property
    def derivative_weights(self) -> tuple:
        """The rule's weights times g' and g'' at its nodes (1-D only): they
        move one or two derivatives from the coefficient onto the kernel."""
        pts, wts = self.quadrature
        return tuple(wts * self.profile_derivative(k)(pts[:, 0]) for k in (1, 2))


@lru_cache(maxsize=None)
def build_mollifier(d: int) -> MollifierKernel:
    """The kernel of R^d, built once per dimension: solve for (c0, c2) and
    measure the moment defects with the radial Gauss-Legendre rule."""
    i0, i1, i2 = (_radial_integral(d, k) for k in (0, 2, 4))
    det = i0 * i2 - i1 * i1
    if abs(det) < 1e-300:
        raise MollifierConstructionFault("singular moment system")
    c0 = i2 / det
    c2 = -i1 / det

    # measured defects: the radial rule applied to the final kernel
    mass = _radial_integral(d, 0, c0, c2)
    second_diag = _radial_integral(d, 2, c0, c2) / d  # of x_j^2 gamma
    defects = {
        "mass": mass - 1.0,
        "first_moment": 0.0,  # exact: radial symmetry
        "second_moment_diag": second_diag,
        "second_moment_cross": 0.0,  # exact: radial symmetry
    }
    kernel = MollifierKernel(d, c0, c2, defects)
    for name, defect in defects.items():
        if abs(defect) > MOMENT_TOL:
            raise MollifierConstructionFault(
                f"moment defect {name} = {defect:.3e} exceeds {MOMENT_TOL}"
            )
    return kernel


def _exact_low_moments(pts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Least change of the weights w, measured relative to |w|, that makes
    the rule's moments of order <= 2 exactly the kernel's: mass 1, first and
    second moments 0.  Quadratics are then reproduced even where the tensor
    rule has not converged.  Each weight is scaled by a positive factor, so
    zero weights stay zero and no weight changes sign."""
    d = pts.shape[1]
    phi = np.column_stack(
        [np.ones(len(w))]
        + [pts[:, j] for j in range(d)]
        + [pts[:, j] * pts[:, k] for j in range(d) for k in range(j, d)]
    )
    target = np.zeros(phi.shape[1])
    target[0] = 1.0
    gram = phi.T @ (np.abs(w)[:, None] * phi)
    lam = np.linalg.solve(gram, target - phi.T @ w)
    factor = 1.0 + np.sign(w) * (phi @ lam)
    if not np.all(factor > 0.0):
        raise MollifierConstructionFault(
            "moment correction would flip the sign of a quadrature weight"
        )
    return w * factor


def _derivative_1d(a: Coefficient, order: int) -> Callable:
    """x -> d^order a(x) of a 1-D coefficient, order <= 2."""
    return (
        a.value,
        lambda x: a.grad(x)[:, 0],
        lambda x: a.hess(x)[:, 0, 0],
    )[order]


@dataclass(frozen=True)
class RegularizedCoefficient:
    """Non-polynomial coefficient smoothed by quadrature against the kernel
    dilated to `scale` = h^delta0.

    Exposes the same (value, grad, hess) surface as a plain Coefficient: the
    first two derivative orders fall on the base coefficient under the
    integral, so they exist whenever the base ones do.
    """

    base: Coefficient
    scale: float
    kernel: MollifierKernel

    def _convolve(self, fn, x, weights) -> np.ndarray:
        """sum_i weights_i fn(x - s z_i) over the kernel's nodes z_i."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        nodes = self.kernel.quadrature[0]
        first = fn(x[:1] - self.scale * nodes[:1])
        out_shape = (n,) + np.shape(first)[1:]
        out = np.empty(out_shape)
        for lo in range(0, n, CONVOLVE_CHUNK):
            blk = x[lo : lo + CONVOLVE_CHUNK]
            shifted = blk[:, None, :] - self.scale * nodes[None, :, :]
            vals = fn(shifted.reshape(-1, d)).reshape(
                (blk.shape[0], nodes.shape[0]) + out_shape[1:]
            )
            out[lo : lo + blk.shape[0]] = np.tensordot(
                vals, weights, axes=([1], [0])
            )
        return out

    def value(self, x) -> np.ndarray:
        return self._convolve(self.base.value, x, self.kernel.weights)

    def grad(self, x) -> np.ndarray:
        return self._convolve(self.base.grad, x, self.kernel.weights)

    def hess(self, x) -> np.ndarray:
        return self._convolve(self.base.hess, x, self.kernel.weights)

    def derivative(self, x, order: int) -> np.ndarray:
        """1-D derivative of arbitrary order <= 4.

        Orders up to 2 differentiate the base coefficient; higher orders move
        the excess onto the kernel and pay a factor h^(-delta0) per order.
        """
        if self.kernel.dimension != 1:
            raise NotImplementedError("high-order derivatives are 1-D only")
        excess = max(order - 2, 0)
        if excess > 2:
            raise ValueError("derivative orders above 4 are unused")
        fn = _derivative_1d(self.base, order - excess)
        if not excess:
            return self._convolve(fn, x, self.kernel.weights)
        w = self.kernel.derivative_weights[excess - 1]
        return self._convolve(fn, x, w) * self.scale ** (-excess)


def _regularize_polynomial(
    p: PolynomialCoefficient, s: float, kernel: MollifierKernel
) -> PolynomialCoefficient:
    """Exact convolution sum_alpha (-s)^|alpha| m_alpha d^alpha p / alpha!."""
    d = p.dimension
    degree = max((sum(e) for e in p.terms), default=0)
    out: dict = {}
    for alpha in itertools.product(range(degree + 1), repeat=d):
        m = kernel.moment(alpha) if sum(alpha) <= degree else 0.0
        if m == 0.0:  # beyond the degree, odd, or of order 1-2
            continue
        factor = (-s) ** sum(alpha) * m / math.prod(map(math.factorial, alpha))
        for expo, coef in _poly_derivative(p.terms, alpha).items():
            out[expo] = out.get(expo, 0.0) + factor * coef
    return PolynomialCoefficient(out, d)


def regularize(
    a: Coefficient,
    h: float,
    delta0: float,
    kernel: MollifierKernel,
    r0: Optional[float] = None,
) -> Coefficient:
    """Coefficient smoothed at scale h^delta0: in closed form for a
    polynomial, by quadrature otherwise."""
    if h <= 0:
        raise ValueError("h must be positive")
    if r0 is not None and not admissible_delta0(delta0, r0):
        raise ValueError(
            f"delta0 = {delta0} outside the open interval "
            f"(1/(2+r0), 1/2) = ({1/(2+r0):.6f}, 0.5)"
        )
    if not (0.0 < delta0 < 0.5):
        raise ValueError("delta0 must lie in (0, 1/2)")
    if isinstance(a, PolynomialCoefficient):
        return _regularize_polynomial(a, h**delta0, kernel)
    return RegularizedCoefficient(a, h**delta0, kernel)


def _sample_points(n: int, lo: float, hi: float) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=SAMPLE_SEED))
    pts = lo + (hi - lo) * rng.random((n, 1))
    pts[0, 0] = 0.0  # the Hoelder singularity dominates the sup norms
    return pts


EXACT_ANNIHILATION = "exact annihilation"


def fit_smoothing_exponents(
    a: Coefficient,
    derivative_order: int,
    h_grid,
    delta0: float,
    r0: Optional[float] = None,
    n_samples: int = 1000,
):
    """Measured decay/growth exponent of the regularization error.

    For |alpha| <= 2 fits sup|d^alpha (a_h - a)| against h; for |alpha| >= 3
    fits sup|d^alpha a_h|.  Returns (ExponentFit, sup_norms) or the string
    marker for exact annihilation (e.g. polynomial inputs).

    The sampling window SAMPLE_DOMAIN sits inside the plateau of the
    test-field cutoff: there the error is governed by the Hoelder seminorm
    alone.  Over the full support the transition band of the cutoff adds a
    smooth-error term with a large constant that masks the asymptotic rate
    until h is impractically small.
    """
    if derivative_order > 4:
        raise ValueError("derivative orders above 4 are unsupported")
    h_grid = sorted(float(h) for h in h_grid)
    if len(h_grid) < 4:
        raise ValueError("need at least 4 h values")
    kernel = build_mollifier(1)
    pts = _sample_points(n_samples, *SAMPLE_DOMAIN)

    exact = None
    if derivative_order <= 2:
        exact = _derivative_1d(a, derivative_order)(pts)

    sups = []
    for h in h_grid:
        reg = regularize(a, h, delta0, kernel, r0)
        approx = reg.derivative(pts, derivative_order)
        if exact is not None:
            sups.append(float(np.abs(approx - exact).max()))
        else:
            sups.append(float(np.abs(approx).max()))
    scale = max(1.0, float(np.abs(exact).max()) if exact is not None else 1.0)
    if max(sups) < 1e-11 * scale:
        return EXACT_ANNIHILATION, sups
    fit = fit_loglog(h_grid, sups)
    return fit, sups
