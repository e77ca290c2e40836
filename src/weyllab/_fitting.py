"""Log-log exponent fitting shared by the measurement modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

__all__ = ["ExponentFit", "fit_loglog"]


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    ci_halfwidth: float
    n_points: int
    excluded: int = 0


def fit_loglog(xs, ys, min_points: int = 4) -> ExponentFit:
    """OLS slope of log(y) vs log(x).

    Nonpositive y values are excluded (and counted).  The sums of the normal
    equations are correctly rounded (math.fsum), so two runs on the same data
    give bit-identical slopes regardless of summation order.
    """
    pairs = [(x, y) for x, y in zip(xs, ys) if y > 0 and x > 0]
    excluded = len(list(xs)) - len(pairs)
    n = len(pairs)
    if n < min_points:
        raise ValueError(f"need at least {min_points} positive points, got {n}")
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
    if n > 2:
        s2 = float(resid @ resid) / (n - 2)
        sxx_c = float(((lxf - lxf.mean()) ** 2).sum())
        half = float(stdtrit(n - 2, 0.975)) * math.sqrt(s2 / sxx_c)
    else:
        half = math.inf
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        ci_halfwidth=half,
        n_points=n,
        excluded=excluded,
    )
