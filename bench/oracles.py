"""Independent checks of the artifacts that weyllab's CLI writes.

Every check reads only an experiment's artifacts (its CSV and verdict.json)
and the config the benchmark passed to it.  The reference values come from
closed forms, 1-D quadrature and tridiagonal eigenvalues computed here from
the mathematical definitions of the models, the mollifier and the amplitudes;
nothing here imports weyllab or compares against stored program output.

Each ``check_*`` function returns a list of ``Outcome`` records, one per
operation (an h-sample of a sweep, or a whole lemma experiment).  An outcome
carries two kinds of finding:

* ``faults``: the operation raised, left a sweep gap, or wrote an artifact
  that cannot be read.  These count the operation as failed.
* ``wrong``: a value was read and disagrees with the oracle.  These count
  the operation as failed and make the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal

# Count brackets: #{lambda < E - tau} <= N <= #{lambda < E + tau}.  The raw
# operator is assembled from the exact coefficients, so only rounding
# separates it from the Kronecker sum.  The regularized potential comes from
# a 48x48 tensor quadrature that differs from the closed form by up to
# about 4e-7, hence the wider bracket for plus/minus.
TAU_RAW = 1e-9
TAU_REGULARIZED = 1e-6
WEYL_SE_FACTOR = 3.0  # Weyl volume within this many Monte Carlo std errors
R_VALUE_RTOL = 5e-3  # remainder functional vs the exact shell sup
# Calibrated sublevel constants vs 4 (m!/2)^(1/m).  The extremal Chebyshev
# polynomial touches +-tau at its interior extrema, where root finding is
# only accurate to about sqrt(machine epsilon): 1.8e-8 relative for m = 4.
POLYA_RTOL = 1e-7
SLOPE_ATOL = 1e-3  # fitted oscillatory decay slopes vs the radial reduction

# Model definitions, from the symbols a0(x, xi) = V1(x1) + V2(x2) + |xi|^2
# (ascending polynomial coefficients per axis) and their truncation boxes.
MODELS = {
    "harmonic": {"box_x": 2.0, "axes": ([0.0, 0.0, 1.0],)},
    "separable_harmonic_2d": {
        "box_x": 2.0,
        "axes": ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
    },
    "double_well_2d": {
        "box_x": 1.8,
        "axes": ([1.0, 0.0, -2.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
    },
}


@dataclass
class Outcome:
    operation: str
    faults: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.faults or self.wrong)


# -- artifacts -------------------------------------------------------------------


def read_verdict(out_dir: str):
    """The verdict document, or None when it is missing or unreadable."""
    try:
        with open(os.path.join(out_dir, "verdict.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _criterion(verdict, name: str):
    for c in (verdict or {}).get("criteria", []):
        if c.get("name") == name:
            return c
    return None


def _whole_experiment(name: str, out_dir: str, criterion: str):
    """Outcome plus the named criterion, with faults for a missing verdict,
    a module fault, or a missing criterion."""
    out = Outcome(name)
    verdict = read_verdict(out_dir)
    if verdict is None:
        out.faults.append("verdict.json missing or unreadable")
        return out, None
    for c in verdict.get("criteria", []):
        if "error" in c:
            out.faults.append(f"experiment raised: {c['error']}")
    crit = _criterion(verdict, criterion)
    if crit is None and not out.faults:
        out.faults.append(f"criterion {criterion!r} missing from verdict.json")
    return out, crit


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- mollifier moments -------------------------------------------------------------


def _bump(u: float) -> float:
    return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0


def kernel_fourth_moment(d: int = 2, rho: float = 1.0) -> float:
    """m40 = integral of x1^4 gamma(x) for the radial kernel
    gamma = (c0 + c2 |x|^2) bump(|x|/rho) with unit mass and vanishing second
    moments, from 1-D radial quadrature."""

    def radial(k):  # integral over (0, rho) of r^k bump(r/rho)
        return quad(lambda r: r**k * _bump(r / rho), 0.0, rho,
                    epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    # mass: area (c0 I_{d-1} + c2 I_{d+1}) = 1
    # second moment: area (c0 I_{d+1} + c2 I_{d+3}) = 0
    a = np.array([[radial(d - 1), radial(d + 1)],
                  [radial(d + 1), radial(d + 3)]]) * area
    c0, c2 = np.linalg.solve(a, [1.0, 0.0])
    sphere_x1_4 = 3.0 * area / (d * (d + 2))  # integral of theta_1^4 on S^{d-1}
    return sphere_x1_4 * (c0 * radial(d + 3) + c2 * radial(d + 5))


def regularized_axis_potential(coeffs, s: float, m4: float):
    """Convolution of a 1-D polynomial of degree <= 5 with the dilated 2-D
    kernel: odd and second moments vanish, so only s^4 m40 V''''/4! is added."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) > 6:
        raise ValueError("closed form covers degree <= 5 only")
    fourth = P.polyder(coeffs, 4) if len(coeffs) > 4 else np.zeros(1)
    return P.polyadd(coeffs, s**4 * m4 * fourth / 24.0)


# -- tridiagonal spectra -------------------------------------------------------------


def axis_spectrum(coeffs, box_x: float, points: int, h: float,
                  kinetic: float = 1.0, shift: float = 0.0) -> np.ndarray:
    """Eigenvalues of kinetic (h/dx)^2 tridiag(-1, 2, -1) + V(x_i) + shift on
    the Dirichlet grid x_i = -box_x + i dx, dx = 2 box_x/(points + 1)."""
    dx = 2.0 * box_x / (points + 1)
    x = -box_x + dx * np.arange(1, points + 1)
    k = kinetic * (h / dx) ** 2
    diag = 2.0 * k + P.polyval(x, coeffs) + shift
    off = np.full(points - 1, -k)
    return eigvalsh_tridiagonal(diag, off)


def kronecker_count_bracket(model: str, variant: str, h: float, points: int,
                            energy: float, delta0: float, m4: float):
    """(#{lam_i + mu_j < E - tau}, #{lam_i + mu_j < E + tau}) for the 2-D
    operator T1 (x) I + I (x) T2 that weyllab assembles on a points^2 grid."""
    spec = MODELS[model]
    sign = {"raw": 0.0, "plus": 1.0, "minus": -1.0}[variant]
    s = h**delta0
    spectra = []
    for axis, coeffs in enumerate(spec["axes"]):
        if variant != "raw":
            coeffs = regularized_axis_potential(coeffs, s, m4)
        spectra.append(axis_spectrum(
            coeffs, spec["box_x"], points, h,
            kinetic=1.0 + sign * h,
            shift=sign * h if axis == 0 else 0.0,
        ))
    lam, mu = spectra
    mu = np.sort(mu)
    tau = TAU_RAW if variant == "raw" else TAU_REGULARIZED
    lo = int(np.searchsorted(mu, energy - tau - lam, side="left").sum())
    hi = int(np.searchsorted(mu, energy + tau - lam, side="left").sum())
    return lo, hi


# -- phase-space volumes ------------------------------------------------------------


def sublevel_volume(model: str, e: float) -> float:
    """vol{a0 < e} in R^4 for the 2-D registry models."""
    if e <= 0.0:
        return 0.0
    if model == "separable_harmonic_2d":
        return 0.5 * math.pi**2 * e**2  # 4-ball of radius sqrt(e)
    if model == "double_well_2d":
        # for fixed x1, (x2, xi1, xi2) fills a 3-ball of radius
        # sqrt(e - (x1^2 - 1)^2)
        def ball(x):
            r2 = e - (x * x - 1.0) ** 2
            return 4.0 * math.pi / 3.0 * r2**1.5 if r2 > 0.0 else 0.0

        # x1^2 in (1 - sqrt(e), 1 + sqrt(e)); the two wells merge at e = 1
        root = math.sqrt(e)
        lo = math.sqrt(1.0 - root) if root < 1.0 else 0.0
        return 2.0 * quad(ball, lo, math.sqrt(1.0 + root),
                          epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    raise KeyError(f"no closed-form volume for {model!r}")


def remainder_reference(model: str, energy: float, epsilon: float,
                        h: float) -> float:
    """h + max over weyllab's E'-grid of the exact shell volume
    vol{|a0 - E'| <= h}; the grid has ceil(4 h^-eps) + 1 points spanning
    [E - h^(1-eps), E + h^(1-eps)]."""
    half = h ** (1.0 - epsilon)
    n_grid = int(math.ceil(4.0 * h ** (-epsilon))) + 1
    grid = np.linspace(energy - half, energy + half, n_grid)
    shells = [sublevel_volume(model, e + h) - sublevel_volume(model, e - h)
              for e in grid]
    return h + max(shells)


# -- sweeps --------------------------------------------------------------------------


def sweep_h_grid(cfg: dict) -> list:
    return sorted(float(h) for h in np.geomspace(
        cfg["h_max"], cfg["h_min"], cfg["h_points"]))


def read_sweep_csv(path: str):
    """Rows of a sweep CSV as dicts of floats, or None when unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [{k: float(v) for k, v in row.items()} for row in rows]
    except (OSError, ValueError, TypeError):
        return None


def check_sweep(out_dir: str, csv_name: str, cfg: dict, m4: float) -> list:
    """One outcome per h of the config's grid."""
    hs = sweep_h_grid(cfg)
    outcomes = [Outcome(f"h={h:.6g}") for h in hs]
    verdict = read_verdict(out_dir)
    rows = read_sweep_csv(os.path.join(out_dir, csv_name))
    problems = []
    if verdict is None:
        problems.append("verdict.json missing or unreadable")
    else:
        problems += [f"experiment raised: {c['error']}"
                     for c in verdict.get("criteria", []) if "error" in c]
    if rows is None:
        problems.append(f"{csv_name} missing or unreadable")
    if problems:
        for out in outcomes:
            out.faults += problems
        return outcomes

    gaps = {}
    for c in verdict.get("criteria", []):
        for h, reason in c.get("gaps", []):
            gaps[float(h)] = reason
    d = len(MODELS[cfg["model"]]["axes"])
    energy = cfg["energy"]
    exact_volume = sublevel_volume(cfg["model"], energy)
    for h, out in zip(hs, outcomes):
        gap = [r for g, r in gaps.items() if math.isclose(g, h, rel_tol=1e-12)]
        if gap:
            out.faults.append(f"sweep gap: {gap[0]}")
            continue
        match = [r for r in rows if math.isclose(r["h"], h, rel_tol=1e-12)]
        if len(match) != 1:
            out.faults.append(f"{len(match)} CSV rows for this h")
            continue
        row = match[0]
        points = int(row["grid_points"])
        if row["energy"] != energy or row["seed"] != cfg["seed"]:
            out.wrong.append("energy/seed columns differ from the config")
        dx = 2.0 * MODELS[cfg["model"]]["box_x"] / (points + 1)
        if dx > h / 4.0 + 1e-15:
            out.wrong.append(f"under-resolved grid: dx/h = {dx / h:.3f} > 1/4")
        lo, hi = kronecker_count_bracket(
            cfg["model"], cfg["variant"], h, points, energy, cfg["delta0"], m4)
        if not lo <= row["count"] <= hi:
            out.wrong.append(
                f"count {int(row['count'])} outside Kronecker bracket [{lo}, {hi}]")
        scale = (2.0 * math.pi * h) ** d
        vol, se = row["weyl"] * scale, row["weyl_std_error"] * scale
        if not (se > 0.0 and abs(vol - exact_volume) <= WEYL_SE_FACTOR * se):
            out.wrong.append(
                f"Weyl volume {vol:.6f} vs exact {exact_volume:.6f} "
                f"(se {se:.2e})")
        ref = remainder_reference(cfg["model"], energy, cfg["epsilon"], h)
        if not _close(row["r_value"], ref, R_VALUE_RTOL):
            out.wrong.append(f"r_value {row['r_value']:.6g} vs exact {ref:.6g}")
    return outcomes


# -- lemma experiments ----------------------------------------------------------------


def polya_constant(m: int) -> float:
    """Sharp constant of |{|F| < tau}| <= C_m tau^(1/m) for |F^(m)| >= 1."""
    return 4.0 * (math.factorial(m) / 2.0) ** (1.0 / m)


def check_sublevel_lemma(out_dir: str, cfg: dict) -> Outcome:
    out, crit = _whole_experiment(
        "sublevel_lemma", out_dir, "polynomial_sublevel_bound")
    if crit is None:
        return out
    constants = {int(m): float(c) for m, c in crit.get("constants", [])}
    if sorted(constants) != [1, 2, 3, 4, 5]:
        out.wrong.append(f"degrees {sorted(constants)} instead of 1-5")
    for m, c in constants.items():
        if not _close(c, polya_constant(m), POLYA_RTOL):
            out.wrong.append(f"C_{m} = {c!r} vs Polya {polya_constant(m)!r}")
    if crit.get("trials") != cfg["trials"] or crit.get("violations") != 0:
        out.wrong.append(
            f"{crit.get('violations')} violations in {crit.get('trials')} trials")
    try:
        with open(os.path.join(out_dir, "sublevel_lemma.csv"),
                  encoding="utf-8", newline="") as fh:
            table = {int(r["degree"]): float(r["calibrated_constant"])
                     for r in csv.DictReader(fh)}
    except (OSError, ValueError, KeyError) as exc:
        out.faults.append(f"sublevel_lemma.csv unreadable: {exc}")
        return out
    if table != constants:
        out.wrong.append("sublevel_lemma.csv disagrees with verdict.json")
    return out


def smooth_cutoff(x, inner: float, outer: float):
    """1 on |x| <= inner, 0 on |x| >= outer, exp-ratio blend in between."""
    r = (np.abs(np.asarray(x, dtype=float)) - inner) / (outer - inner)
    out = np.where(r <= 0.0, 1.0, 0.0)
    mid = (r > 0.0) & (r < 1.0)
    t = r[mid]
    a, b = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
    out[mid] = b / (a + b)
    return out


# The two amplitudes of the oscillatory_decay experiment, as radial profiles
# b(r), with the radial range that holds their support.
AMPLITUDES = {
    "decay": (lambda r: (1.0 - smooth_cutoff(r, 0.5, 0.75))
              * smooth_cutoff(r, 1.25, 1.5), (0.5, 1.5)),
    "control": (lambda r: smooth_cutoff(r, 0.4, 0.8), (0.0, 0.8)),
}
OSC_H_GRID = np.geomspace(1e-2, 1e-3, 6)


def radial_oscillatory_magnitude(profile, r_range, t: float, h: float,
                                 panels: int = 4000) -> float:
    """|J| for the harmonic symbol x^2 + xi^2 and a radial amplitude b:
    (2 pi h)^-1 |int e^{i t |v|^2/h} b(|v|) dv| = (1/2h) |int e^{i t u/h}
    b(sqrt u) du|, by composite Gauss-Legendre in u."""
    z, w = np.polynomial.legendre.leggauss(12)
    lo, hi = r_range[0] ** 2, r_range[1] ** 2
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    u = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * z[None, :]).ravel()
    wts = np.tile(half * w, panels)
    integral = np.sum(wts * profile(np.sqrt(u)) * np.exp(1j * (t / h) * u))
    return abs(integral) / (2.0 * h)


def oscillatory_reference_slopes(mu: float) -> dict:
    """OLS slopes of log|J| against log h on the experiment's h grid, with
    t = h^(1 - mu)."""
    logs_h = np.log(OSC_H_GRID)
    slopes = {}
    for key, (profile, r_range) in AMPLITUDES.items():
        mags = [radial_oscillatory_magnitude(profile, r_range,
                                             h ** (1.0 - mu), h)
                for h in OSC_H_GRID]
        slopes[key] = float(np.polyfit(logs_h, np.log(mags), 1)[0])
    return slopes


def check_oscillatory_decay(out_dir: str, cfg: dict) -> Outcome:
    out, crit = _whole_experiment(
        "oscillatory_decay", out_dir, "nonstationary_phase_decay")
    if crit is None:
        return out
    ref = oscillatory_reference_slopes(cfg["mu"])
    for key, field_name in (("decay", "decay_slope"),
                            ("control", "control_slope")):
        got = crit.get(field_name)
        if not isinstance(got, (int, float)) or abs(got - ref[key]) > SLOPE_ATOL:
            out.wrong.append(f"{field_name} {got} vs radial reduction "
                             f"{ref[key]:.6f}")
    kappa = min(cfg["mu"] - 0.25 - 0.5, (1.0 - cfg["mu"]) / 2.0)
    if not _close(crit.get("kappa", math.nan), kappa, 1e-12):
        out.wrong.append(f"kappa {crit.get('kappa')} vs {kappa}")
    return out


def check_smoothed_counting(out_dir: str, cfg: dict) -> Outcome:
    out, crit = _whole_experiment(
        "smoothed_counting", out_dir, "smoothed_vs_sharp_count")
    if crit is None:
        return out
    window = (0.2, 0.8)
    rows = crit.get("rows", [])
    if [r.get("h") for r in rows] != [0.05, 0.035, 0.025]:
        out.wrong.append("rows do not cover h = 0.05, 0.035, 0.025")
    spec = MODELS["harmonic"]
    for row in rows:
        lam = axis_spectrum(spec["axes"][0], spec["box_x"], 1200, row["h"])
        lo = int(np.sum((lam >= window[0] + TAU_RAW)
                        & (lam <= window[1] - TAU_RAW)))
        hi = int(np.sum((lam >= window[0] - TAU_RAW)
                        & (lam <= window[1] + TAU_RAW)))
        if not lo <= row.get("sharp", -1) <= hi:
            out.wrong.append(f"h={row['h']}: sharp count {row.get('sharp')} "
                             f"outside tridiagonal bracket [{lo}, {hi}]")
    return out


def check_mollifier_rates(out_dir: str, cfg: dict) -> Outcome:
    """No independent oracle for the fitted smoothing rates: check that all
    four derivative orders were fitted against the targets (2 + r0 - k)
    delta0 that follow from the config."""
    out, crit = _whole_experiment(
        "mollifier_rates", out_dir, "mollifier_rates")
    if crit is None:
        return out
    rows = crit.get("rows", [])
    if [r.get("order") for r in rows] != [0, 1, 2, 3]:
        out.wrong.append("rows do not cover derivative orders 0-3")
    for row in rows:
        target = (2.0 + cfg["r0"] - row["order"]) * cfg["delta0"]
        if not (math.isfinite(row.get("slope", math.nan))
                and _close(row.get("target", math.nan), target, 1e-12)):
            out.wrong.append(f"order {row['order']}: slope/target malformed")
    return out


def check_flow_bounds(out_dir: str, cfg: dict) -> Outcome:
    """No independent oracle for the fitted flow constants: check that the
    report covers the configured t0 and carries finite constants."""
    out, crit = _whole_experiment(
        "flow_bounds", out_dir, "flow_displacement_bounds")
    if crit is None:
        return out
    if crit.get("t0") != cfg["t0"]:
        out.wrong.append(f"t0 {crit.get('t0')} vs config {cfg['t0']}")
    c1, c2 = crit.get("c1", math.nan), crit.get("c2", math.nan)
    if not (math.isfinite(c1) and math.isfinite(c2) and c1 > 0.0 and c2 >= 0.0):
        out.wrong.append(f"constants C1 = {c1}, C2 = {c2} not finite/positive")
    if not isinstance(crit.get("violations"), int):
        out.wrong.append("violation count missing")
    return out


LEMMA_CHECKS = {
    "sublevel_lemma": check_sublevel_lemma,
    "oscillatory_decay": check_oscillatory_decay,
    "flow_bounds": check_flow_bounds,
    "mollifier_rates": check_mollifier_rates,
    "smoothed_counting": check_smoothed_counting,
}
