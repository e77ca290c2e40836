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
comes back with identical terms.  Every other coefficient is convolved by
the kernel's own rule, the radial Gauss-Legendre rule that also solves for
(c0, c2): its nodes are mirror pairs +-r_i u_j, so its mass is 1 and its
moments of order 1-2 are 0 to rounding with no correction, the odd ones
exactly.  Each pair is summed before it is weighted, so a coefficient that
is even about 0 regularizes to bit-identical values at x and -x.  The
kernel builds the rule on the first convolution, and it serves every h.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._fitting import fit_loglog
from .symbols import (
    Coefficient,
    PolynomialCoefficient,
    _poly_derivative,
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
RADIAL_NODES = 80
# directions of the 2-D rule on the upper half circle; their negations
# give the other half
HALF_DIRECTIONS = 14
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
        """d^k/dz^k of the 1-D kernel g = q e^phi, k <= 1 (only defined for
        d = 1), with q = c0 + c2 z^2 and phi = -1 / (1 - z^2)."""
        if self.dimension != 1:
            raise NotImplementedError("profile derivatives are 1-D only")
        if order > 1:
            raise ValueError("kernel derivative orders above 1 are unused")
        if order == 0:
            return lambda z: self(np.asarray(z, dtype=float)[..., None])
        c0, c2 = self.c0, self.c2

        def g1(z):
            z = np.asarray(z, dtype=float)
            out = np.zeros_like(z)
            inside = np.abs(z) < 1.0 - 1e-12
            y = z[inside]
            w = 1.0 - y * y
            q, dq, dphi = c0 + c2 * y * y, 2.0 * c2 * y, -2.0 * y / (w * w)
            out[inside] = (dq + q * dphi) * np.exp(-1.0 / w)
            return out

        return g1

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
    def rule(self) -> tuple:
        """The kernel's quadrature rule as mirror pairs: nodes z, (n, d),
        each standing for +z and -z, and one weight per pair's node,
        omega_i r_i^(d-1) |S^(d-1)| over the rule's directions.  The radii
        r_i and weights omega_i are the radial rule that solved for (c0,
        c2); the directions are +-1 in 1-D and, in 2-D, the angles
        pi j / HALF_DIRECTIONS and their negations."""
        d = self.dimension
        r, w = _radial_rule()
        if d == 1:
            u = np.ones((1, 1))
        elif d == 2:
            theta = math.pi * np.arange(HALF_DIRECTIONS) / HALF_DIRECTIONS
            u = np.column_stack([np.cos(theta), np.sin(theta)])
        else:
            raise NotImplementedError(f"the rule covers d <= 2; got d = {d}")
        nodes = (r[:, None, None] * u).reshape(-1, d)
        per_radius = w * r ** (d - 1) * _sphere_area(d) / (2 * len(u))
        return nodes, np.repeat(per_radius, len(u))

    @cached_property
    def weights(self) -> np.ndarray:
        """The rule's weights times the kernel at each pair's node, the
        same at +z and -z."""
        nodes, wts = self.rule
        return wts * self(nodes)

    @cached_property
    def derivative_weights(self) -> np.ndarray:
        """The rule's weights times g' at each pair's node z (1-D only); the
        weight at -z is its negation.  They move one derivative from the
        coefficient onto the kernel."""
        nodes, wts = self.rule
        return wts * self.profile_derivative(1)(nodes[:, 0])


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

    def _convolve(self, fn, x, weights, odd: bool = False) -> np.ndarray:
        """sum_i weights_i (fn(x - s z_i) + fn(x + s z_i)) over the kernel's
        pair nodes z_i, or the difference of the two for odd weights.  Each
        pair is combined before it is weighted, and each point's weighted
        sum is taken by the same loop over the nodes whatever its row, so a
        coefficient that is even about 0 has bit-identical (odd: negated)
        values at x and -x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        steps = self.scale * self.kernel.rule[0]
        tail = np.shape(fn(x[:1]))[1:]
        out = np.empty((n,) + tail)
        for lo in range(0, n, CONVOLVE_CHUNK):
            blk = x[lo : lo + CONVOLVE_CHUNK, None, :]
            k = blk.shape[0]
            shifted = np.stack((blk - steps, blk + steps), axis=1)
            vals = fn(shifted.reshape(-1, d)).reshape((k, 2, -1) + tail)
            pairs = vals[:, 0] - vals[:, 1] if odd else vals[:, 0] + vals[:, 1]
            out[lo : lo + k] = np.einsum("km...,m->k...", pairs, weights)
        return out

    def value(self, x) -> np.ndarray:
        return self._convolve(self.base.value, x, self.kernel.weights)

    def grad(self, x) -> np.ndarray:
        return self._convolve(self.base.grad, x, self.kernel.weights)

    def hess(self, x) -> np.ndarray:
        return self._convolve(self.base.hess, x, self.kernel.weights)

    def derivative(self, x, order: int) -> np.ndarray:
        """1-D derivative of order <= 3.

        Orders up to 2 differentiate the base coefficient; order 3 moves
        one derivative onto the kernel and pays a factor h^(-delta0).
        """
        if self.kernel.dimension != 1:
            raise NotImplementedError("high-order derivatives are 1-D only")
        if order > 3:
            raise ValueError("derivative orders above 3 are unused")
        fn = _derivative_1d(self.base, min(order, 2))
        if order <= 2:
            return self._convolve(fn, x, self.kernel.weights)
        g1 = self.kernel.derivative_weights
        return self._convolve(fn, x, g1, odd=True) / self.scale


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

    For orders <= 2 fits sup|d^k (a_h - a)| against h; for order 3 fits
    sup|d^3 a_h|.  Returns (ExponentFit, sup_norms), or (EXACT_ANNIHILATION,
    sup_norms) when the error vanishes to rounding (e.g. polynomial inputs).

    The sampling window SAMPLE_DOMAIN sits inside the plateau of the
    test-field cutoff: there the error is governed by the Hoelder seminorm
    alone.  Over the full support the transition band of the cutoff adds a
    smooth-error term with a large constant that masks the asymptotic rate
    until h is impractically small.
    """
    if derivative_order > 3:
        raise ValueError("derivative orders above 3 are unsupported")
    h_grid = sorted(float(h) for h in h_grid)
    if len(h_grid) < 4:
        raise ValueError("need at least 4 h values")
    kernel = build_mollifier(1)
    pts = _sample_points(n_samples, *SAMPLE_DOMAIN)

    exact = 0.0
    if derivative_order <= 2:
        exact = _derivative_1d(a, derivative_order)(pts)
    sups = []
    for h in h_grid:
        reg = regularize(a, h, delta0, kernel, r0)
        approx = reg.derivative(pts, derivative_order)
        sups.append(float(np.abs(approx - exact).max()))
    scale = max(1.0, float(np.abs(exact).max()))
    if max(sups) < 1e-11 * scale:
        return EXACT_ANNIHILATION, sups
    fit = fit_loglog(h_grid, sups)
    return fit, sups
