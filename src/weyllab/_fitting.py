"""Log-log exponent fitting shared by the measurement modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ExponentFit", "fit_loglog"]

MIN_POINTS = 4


def _t_central(t: float, nu: int) -> float:
    """P(|T| < t) for Student's t with integer nu >= 1 degrees of freedom,
    in closed form (Abramowitz and Stegun 26.7.3-4): with theta =
    arctan(t / sqrt(nu)), (2/pi)(theta + sin theta * sum over odd powers of
    cos theta) for odd nu, sin theta * sum over even powers for even nu."""
    theta = math.atan(t / math.sqrt(nu))
    c, s = math.cos(theta), math.sin(theta)
    if nu % 2:
        term, total = c, 0.0
        for j in range(1, (nu - 1) // 2 + 1):
            total += term
            term *= c * c * (2 * j) / (2 * j + 1)
        return 2.0 / math.pi * (theta + s * total)
    term, total = 1.0, 0.0
    for j in range(1, nu // 2 + 1):
        total += term
        term *= c * c * (2 * j - 1) / (2 * j)
    return s * total


def _t_quantile(p: float, nu: int) -> float:
    """The p-quantile (1/2 < p < 1) of Student's t with integer nu degrees of
    freedom: bisection on the closed-form central probability to adjacent
    floating-point numbers."""
    target = 2.0 * p - 1.0
    lo, hi = 0.0, 1.0
    while _t_central(hi, nu) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _t_central(mid, nu) < target:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    ci_halfwidth: float
    n_points: int
    excluded: int = 0


def fit_loglog(xs, ys) -> ExponentFit:
    """OLS slope of log(y) vs log(x).

    Points with a nonpositive x or y are excluded (and counted); a fit
    needs MIN_POINTS others.  The sums of the normal equations are correctly
    rounded (math.fsum), so two runs on the same data give bit-identical
    slopes regardless of summation order.
    """
    xs, ys = list(xs), list(ys)
    pairs = [(x, y) for x, y in zip(xs, ys) if y > 0 and x > 0]
    excluded = len(xs) - len(pairs)
    n = len(pairs)
    if n < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} positive points, got {n}")
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    if min(lx) == max(lx):
        raise ValueError("degenerate fit: all abscissae coincide")
    sx, sy = math.fsum(lx), math.fsum(ly)
    sxx = math.fsum(v * v for v in lx)
    sxy = math.fsum(u * v for u, v in zip(lx, ly))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n

    # 95% confidence half-width for the slope (floating point is fine here)
    lxf = np.array(lx)
    resid = np.array(ly) - (slope * lxf + intercept)
    s2 = float(resid @ resid) / (n - 2)
    sxx_c = float(((lxf - lxf.mean()) ** 2).sum())
    half = _t_quantile(0.975, n - 2) * math.sqrt(s2 / sxx_c)
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        ci_halfwidth=half,
        n_points=n,
        excluded=excluded,
    )
