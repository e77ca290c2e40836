"""Configuration parsing, experiment registry, and batch-run entry point.

One key=value text file describes one reproducible experiment; the CLI
dispatches it to the measurement modules, writes CSV/JSON artifacts, and
exits 0 exactly when the experiment's own acceptance checks pass (1 when a
check fails or a module faults, 2 for usage errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics, harness, operators
from ._fitting import MIN_POINTS
from .mollify import (
    EXACT_ANNIHILATION,
    admissible_delta0,
    fit_smoothing_exponents,
    holder_test_field,
)
from .phasevol import verify_sublevel_lemma
from .symbols import MODEL_REGISTRY, make_model

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "EXPERIMENTS",
    "parse_config",
    "run",
    "main",
]


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    energy: float
    epsilon: float = 0.1
    delta0: float = 0.41
    r0: float = 0.5
    t0: float = 0.1
    mu: float = 0.8
    c_lower: float = 0.5  # gradient threshold multiplier off the critical set
    h_min: float = 0.025
    h_max: float = 0.1
    h_points: int = 6
    max_grid_points: int = 300
    budget: int = 2**20
    trials: int = 200
    seed: int = 0
    variant: str = "raw"
    out_dir: str = "."

    def h_grid(self):
        return list(np.geomspace(self.h_max, self.h_min, self.h_points))


_REQUIRED = ("model", "energy")
# the oscillatory_decay experiment's smoothing exponent, which bounds mu
_DECAY_DELTA0 = 0.25
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _validate(cfg: ExperimentConfig, experiment: Optional[str] = None):
    v = [f"{k} = {getattr(cfg, k)} is not finite" for k, f in _FIELDS.items()
         if f.type == "float" and not math.isfinite(getattr(cfg, k))]
    if cfg.model not in MODEL_REGISTRY:
        v.append(
            f"unknown model {cfg.model!r}; known: {sorted(MODEL_REGISTRY)}"
        )
    if not admissible_delta0(cfg.delta0, cfg.r0):
        lo = 1.0 / (2.0 + cfg.r0)
        v.append(
            f"delta0 = {cfg.delta0} outside the open interval "
            f"(1/(2+r0), 1/2) = ({lo:.6f}, 0.5)"
        )
    if cfg.c_lower <= 0.0:
        v.append("c_lower must be positive")
    if not (0.0 < cfg.epsilon < 1.0):
        v.append("epsilon must lie in (0, 1)")
    if cfg.t0 <= 0.0:
        v.append("t0 must be positive")
    if not (0.0 < cfg.h_min <= cfg.h_max):
        v.append("need 0 < h_min <= h_max")
    if cfg.h_points < 1:
        v.append("h_points must be >= 1")
    for name in ("max_grid_points", "budget", "trials"):
        if getattr(cfg, name) < 1:
            v.append(f"{name} must be >= 1")
    if cfg.seed < 0:
        v.append("seed must be >= 0")
    if cfg.variant not in ("raw", "plus", "minus"):
        v.append(f"unknown variant {cfg.variant!r}")
    if experiment in ("weyl_sweep", "critical_sweep") and cfg.h_points < 4:
        v.append(
            f"h_points = {cfg.h_points}: the {experiment} exponent fit "
            "needs at least 4 h values"
        )
    if experiment in ("weyl_sweep", "critical_sweep", "mollifier_rates") \
            and cfg.h_min == cfg.h_max:
        v.append(
            f"h_min = h_max = {cfg.h_min}: the {experiment} exponent fit "
            "needs distinct h values"
        )
    if experiment == "oscillatory_decay" and not (
        _DECAY_DELTA0 + 0.5 < cfg.mu < 1.0
    ):
        v.append(
            f"mu = {cfg.mu} outside the open interval (delta0 + 1/2, 1) = "
            f"({_DECAY_DELTA0 + 0.5}, 1) of the decay check (delta0 = "
            f"{_DECAY_DELTA0})"
        )
    if experiment == "critical_sweep":
        # second-order fibers: the sharp-remainder sweep additionally needs
        # delta0 > (1 - 1/(4 m0 - 1))/2 = 1/3 for m0 = 1
        floor = 0.5 * (1.0 - 1.0 / 3.0)
        if cfg.delta0 <= floor:
            v.append(
                f"delta0 = {cfg.delta0} too small for the sharp-remainder "
                f"sweep: need delta0 > (1 - 1/(4 m0 - 1))/2 = {floor:.6f} "
                "for second-order fibers (m0 = 1)"
            )
    return v


def parse_config(
    text: str, experiment: Optional[str] = None, overrides: Optional[dict] = None
) -> ExperimentConfig:
    """key=value lines ('#' comments, blank lines ignored), with `overrides`
    taking precedence -> validated config; raises ConfigError listing every
    violation at once."""
    violations, values = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected key=value, got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELDS:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        typ = _FIELDS[key].type
        try:
            if typ == "int":
                values[key] = int(val)
            elif typ == "float":
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError:
            violations.append(f"line {lineno}: cannot parse {key}={val!r}")
    values.update(overrides or {})
    for key in _REQUIRED:
        if key not in values:
            violations.append(f"missing required key {key!r}")
    if violations:
        raise ConfigError(violations)
    cfg = ExperimentConfig(**values)
    violations = _validate(cfg, experiment)
    if violations:
        raise ConfigError(violations)
    return cfg


# -- experiments -----------------------------------------------------------------


def _run_sweep(
    cfg: ExperimentConfig, out, csv_name: str, out_of_scope_ok: bool = False
):
    """The configured h-sweep, with its CSV written to `out`."""
    model = make_model(cfg.model)
    res = harness.run_h_sweep(
        model,
        cfg.energy,
        cfg.h_grid(),
        delta0=cfg.delta0,
        epsilon=cfg.epsilon,
        variant=cfg.variant,
        max_grid_points=cfg.max_grid_points,
        volume_budget=cfg.budget,
        seed=cfg.seed,
        out_of_scope_ok=out_of_scope_ok,
    )
    harness.write_sweep_csv(os.path.join(out, csv_name), res)
    return model, res


def _sweep_status(ok: bool, res) -> str:
    if not res.complete:
        return "partial"
    return "pass" if ok else "fail"


def _sweep_slope(res, quantity: str):
    """The slope of the sweep's fit of `quantity`, or None when gaps left
    too few records to fit."""
    if not res.complete and len(res.records) < MIN_POINTS:
        return None
    return harness.fit_exponent(res.records, quantity).slope


def _exp_weyl_sweep(cfg: ExperimentConfig, out):
    # baseline sweep; d=1 sanity runs allowed
    model, res = _run_sweep(cfg, out, "weyl_sweep.csv", out_of_scope_ok=True)
    slope = _sweep_slope(res, "remainder")
    target = 1.0 - model.dimension
    return [
        {
            "name": "weyl_remainder_slope",
            "status": _sweep_status(
                slope is not None and abs(slope - target) <= 0.2, res),
            "slope": slope,
            "target": target,
            "tolerance": 0.2,
            "gaps": list(res.gaps),
            "seed": cfg.seed,
        }
    ]


def _exp_critical_sweep(cfg: ExperimentConfig, out):
    _, res = _run_sweep(cfg, out, "critical_sweep.csv")
    slope = _sweep_slope(res, "ratio")
    return [
        {
            "name": "bounded_remainder_ratio",
            "status": _sweep_status(slope is not None and abs(slope) <= 0.25,
                                    res),
            "ratio_slope": slope,
            "log_corrected_slope": _sweep_slope(res, "log_corrected_ratio"),
            "max_ratio": res.max_ratio,
            "tolerance": 0.25,
            "gaps": list(res.gaps),
            "seed": cfg.seed,
        }
    ]


def _exp_mollifier_rates(cfg: ExperimentConfig, out):
    a = holder_test_field(cfg.r0)
    h_grid = np.geomspace(cfg.h_max, cfg.h_min, max(cfg.h_points, 6))
    rows, ok = [], True
    for order in range(4):
        got = fit_smoothing_exponents(a, order, h_grid, cfg.delta0, r0=cfg.r0)
        if got == EXACT_ANNIHILATION:
            rows.append({"order": order, "exact": True})
            continue
        fit, _ = got
        target = (2.0 + cfg.r0 - order) * cfg.delta0
        hit = abs(fit.slope - target) <= 0.2
        ok = ok and hit
        rows.append(
            {"order": order, "slope": fit.slope, "target": target, "ok": hit}
        )
    return [
        {
            "name": "mollifier_rates",
            "status": "pass" if ok else "fail",
            "rows": rows,
            "delta0": cfg.delta0,
            "r0": cfg.r0,
        }
    ]


def _exp_sublevel_lemma(cfg: ExperimentConfig, out):
    rep = verify_sublevel_lemma(
        random_seed=cfg.seed, trials=cfg.trials, delta0=cfg.delta0
    )
    path = os.path.join(out, "sublevel_lemma.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("degree,calibrated_constant\n")
        for deg in sorted(rep.constants):
            fh.write(f"{deg},{float(rep.constants[deg])!r}\n")
    return [
        {
            "name": "polynomial_sublevel_bound",
            "status": "pass" if rep.ok else "fail",
            "trials": rep.trials,
            "violations": len(rep.violations),
            "max_ratio": rep.max_ratio,
            "constants": list(rep.constants.items()),
            "seed": cfg.seed,
        }
    ]


def _exp_flow_bounds(cfg: ExperimentConfig, out):
    model = make_model(cfg.model)
    h = cfg.h_min
    rep = dynamics.check_displacement_bounds(
        model,
        n_samples=100,
        t_grid=[-cfg.t0, -cfg.t0 / 2, cfg.t0 / 2, cfg.t0],
        cbar=cfg.c_lower,
        delta0=cfg.delta0,
        h=h,
        seed=cfg.seed,
    )
    return [
        {
            "name": "flow_displacement_bounds",
            "status": "pass" if rep.ok else "fail",
            "violations": len(rep.violations),
            "c1": rep.c1,
            "c2": rep.c2,
            "t0": rep.t0,
            "empirical_t0": rep.empirical_t0,
            "seed": cfg.seed,
        }
    ]


def _exp_oscillatory_decay(cfg: ExperimentConfig, out):
    model = make_model("harmonic")
    hs = np.geomspace(1e-2, 1e-3, 6)
    box = [(-1.6, 1.6), (-1.6, 1.6)]
    decay = dynamics.nonstationary_decay_check(
        model,
        lambda h: dynamics.ring_amplitude([0.0, 0.0], 0.5, 1.5),
        mu=cfg.mu,
        n_max=3,
        h_grid=hs,
        delta0=_DECAY_DELTA0,
        support_box=box,
    )
    control = dynamics.nonstationary_decay_check(
        model,
        lambda h: dynamics.bump_amplitude([0.0, 0.0], 0.8),
        mu=cfg.mu,
        n_max=3,
        h_grid=hs,
        delta0=_DECAY_DELTA0,
        support_box=[(-0.9, 0.9), (-0.9, 0.9)],
    )
    ok = decay.all_orders_ok and not control.satisfied[1]
    return [
        {
            "name": "nonstationary_phase_decay",
            "status": "pass" if ok else "fail",
            "decay_slope": decay.fit.slope,
            "control_slope": control.fit.slope,
            "kappa": decay.kappa,
            "required": {str(k): v for k, v in decay.required.items()},
        }
    ]


def _exp_smoothed_counting(cfg: ExperimentConfig, out):
    model = make_model("harmonic")
    window = (0.2, 0.8)
    rows, ok = [], True
    for h in (0.05, 0.035, 0.025):
        counter = operators.MollifiedCounter(1.0, h, window)
        grid = operators.GridSpec(model.box_x, 1200)
        op = operators.assemble(model, h, cfg.delta0, grid)
        level = counter.coverage_level()
        slc = operators.eigenvalues_below(op, level)
        lam = slc.eigenvalues
        sharp = int(np.sum((lam >= window[0]) & (lam <= window[1])))
        smoothed = operators.smoothed_count(slc, counter)
        zone = _edge_zone_halfwidth(counter)
        in_zone = int(
            np.sum(
                (np.abs(lam - window[0]) <= zone)
                | (np.abs(lam - window[1]) <= zone)
            )
        )
        hit = abs(smoothed - sharp) <= in_zone
        ok = ok and hit
        rows.append(
            {
                "h": h,
                "sharp": sharp,
                "smoothed": smoothed,
                "edge_zone_eigs": in_zone,
                "ok": hit,
            }
        )
    return [
        {
            "name": "smoothed_vs_sharp_count",
            "status": "pass" if ok else "fail",
            "rows": rows,
            "t0": 1.0,
        }
    ]


EDGE_DEVIATION = 0.01


def _edge_zone_halfwidth(counter) -> float:
    """Calibrated O(h) halfwidth: outside it the smoothed window function is
    within EDGE_DEVIATION of the sharp indicator."""
    e1, e2 = counter.window
    lam = np.linspace(e1 - 40 * counter.h, e2 + 40 * counter.h, 40001)
    ind = ((lam >= e1) & (lam <= e2)).astype(float)
    dev = np.abs(counter.f_tilde(lam) - ind)
    bad = lam[dev > EDGE_DEVIATION]
    if len(bad) == 0:
        return counter.h
    return float(np.max(np.minimum(np.abs(bad - e1), np.abs(bad - e2))))


EXPERIMENTS = {
    "weyl_sweep": _exp_weyl_sweep,
    "critical_sweep": _exp_critical_sweep,
    "mollifier_rates": _exp_mollifier_rates,
    "sublevel_lemma": _exp_sublevel_lemma,
    "flow_bounds": _exp_flow_bounds,
    "oscillatory_decay": _exp_oscillatory_decay,
    "smoothed_counting": _exp_smoothed_counting,
}


def run(cfg: ExperimentConfig, experiment: str) -> int:
    """Execute one experiment; write artifacts; return the exit status."""
    if experiment not in EXPERIMENTS:
        sys.stderr.write(
            f"unknown experiment {experiment!r}; "
            f"registry: {sorted(EXPERIMENTS)}\n"
        )
        return 2
    out = cfg.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        sys.stderr.write(f"cannot create output directory: {exc}\n")
        return 2
    try:
        criteria = EXPERIMENTS[experiment](cfg, out)
    except Exception as exc:
        report = harness.acceptance_report(
            [{"name": experiment, "status": "fail",
              "error": f"{type(exc).__name__}: {exc}",
              "traceback": traceback.format_exc()}]
        )
        harness.write_verdict_json(os.path.join(out, "verdict.json"), report)
        return 1
    report = harness.acceptance_report(criteria)
    harness.write_verdict_json(os.path.join(out, "verdict.json"), report)
    return 0 if report["verdict"] == "PASS" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weyllab",
        description="eigenvalue-counting experiments against phase-space "
        "volume asymptotics",
    )
    parser.add_argument("--config", help="key=value experiment file")
    parser.add_argument(
        "--experiment", required=True, help=f"one of {sorted(EXPERIMENTS)}"
    )
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--h-min", type=float, default=None)
    parser.add_argument("--h-max", type=float, default=None)
    parser.add_argument("--h-points", type=int, default=None)
    args = parser.parse_args(argv)

    if args.experiment not in EXPERIMENTS:
        sys.stderr.write(
            f"unknown experiment {args.experiment!r}; "
            f"registry: {sorted(EXPERIMENTS)}\n"
        )
        return 2
    text = ""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            sys.stderr.write(f"cannot read config: {exc}\n")
            return 2
    overrides = {
        key: getattr(args, key)
        for key in ("out_dir", "seed", "h_min", "h_max", "h_points")
        if getattr(args, key) is not None
    }
    try:
        cfg = parse_config(text, args.experiment, overrides)
    except ConfigError as exc:
        for item in exc.violations:
            sys.stderr.write(f"config error: {item}\n")
        return 2
    return run(cfg, args.experiment)


if __name__ == "__main__":
    sys.exit(main())
