"""The benchmark's oracles accept weyllab's artifacts and reject perturbed
ones; the span recorder computes self times and counts.

Small CLI runs supply real artifacts where they take a few seconds; the
oscillatory and sublevel verdicts are built from the oracles' own reference
values.  Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import oracles
import run as bench_run
import spans
from weyllab import cli


def _cli(tmp_path, experiment, cfg):
    out = str(tmp_path / experiment)
    cli.run(cli.parse_config(bench_run.config_text(cfg, out),
                             experiment=experiment), experiment)
    return out


def _edit_csv(path, row_index, column, fn):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row_index][column] = repr(fn(float(rows[row_index][column])))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_verdict(out_dir, criterion):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
        json.dump({"verdict": "PASS", "criteria": [criterion]}, fh)


def _wrong(outcomes):
    return [bool(o.wrong) for o in outcomes]


@pytest.fixture(scope="module")
def m4():
    return oracles.kernel_fourth_moment()


def test_reference_constants(m4):
    assert m4 == pytest.approx(-0.023729, abs=1e-6)
    assert oracles.sublevel_volume("separable_harmonic_2d", 1.0) == (
        pytest.approx(math.pi**2 / 2, rel=1e-14))
    assert oracles.sublevel_volume("double_well_2d", 1.0) == pytest.approx(
        5.41609, abs=1e-5)
    assert oracles.polya_constant(2) == 4.0


def test_workload_configs_parse():
    for experiments in bench_run.WORKLOADS.values():
        for name, cfg in experiments:
            cli.parse_config(bench_run.config_text(cfg, "."), experiment=name)


@pytest.fixture(scope="module")
def raw_sweep(tmp_path_factory):
    cfg = dict(bench_run.WORKLOADS["weyl_raw"][0][1],
               h_max=0.2, h_min=0.1, h_points=4)
    return _cli(tmp_path_factory.mktemp("raw"), "weyl_sweep", cfg), cfg


def test_sweep_oracle_raw(raw_sweep, m4, tmp_path):
    out, cfg = raw_sweep
    assert _wrong(oracles.check_sweep(out, "weyl_sweep.csv", cfg, m4)) == [
        False] * 4
    path = os.path.join(out, "weyl_sweep.csv")
    with open(path) as fh:
        original = fh.read()
    se = float(list(csv.DictReader(original.splitlines()))[3]["weyl_std_error"])
    try:
        _edit_csv(path, 1, "count", lambda c: int(c) + 1)
        _edit_csv(path, 2, "r_value", lambda r: r * 1.02)
        _edit_csv(path, 3, "weyl", lambda w: w + 5 * se)  # 5 std errors off
        assert _wrong(oracles.check_sweep(out, "weyl_sweep.csv", cfg, m4)) == [
            False, True, True, True]
    finally:
        with open(path, "w") as fh:
            fh.write(original)


def test_sweep_oracle_minus_bracket(tmp_path, m4):
    cfg = dict(bench_run.WORKLOADS["critical_minus"][0][1],
               h_max=0.2, h_min=0.14, h_points=4)
    out = _cli(tmp_path, "critical_sweep", cfg)
    found = oracles.check_sweep(out, "critical_sweep.csv", cfg, m4)
    assert [o.failed for o in found] == [False] * 4
    _edit_csv(os.path.join(out, "critical_sweep.csv"), 0, "count",
              lambda c: int(c) - 1)
    assert _wrong(oracles.check_sweep(out, "critical_sweep.csv", cfg, m4))[0]
    # the minus shift lowers the spectrum, so the oracle's minus count
    # bounds its raw count from above, as bracketing requires
    h, points = 0.2, 71
    raw = oracles.kronecker_count_bracket(
        "double_well_2d", "raw", h, points, 1.0, 0.41, m4)
    minus = oracles.kronecker_count_bracket(
        "double_well_2d", "minus", h, points, 1.0, 0.41, m4)
    assert minus[0] >= raw[1]


def test_sweep_faults(raw_sweep, m4, tmp_path):
    out, cfg = raw_sweep
    verdict = json.loads(Path(out, "verdict.json").read_text())
    h_gap = oracles.sweep_h_grid(cfg)[0]
    verdict["criteria"][0]["gaps"] = [[h_gap, "FactorizationFault: x"]]
    gapped = tmp_path / "gapped"
    gapped.mkdir()
    (gapped / "verdict.json").write_text(json.dumps(verdict))
    (gapped / "weyl_sweep.csv").write_text(
        Path(out, "weyl_sweep.csv").read_text())
    found = oracles.check_sweep(str(gapped), "weyl_sweep.csv", cfg, m4)
    assert [bool(o.faults) for o in found] == [True, False, False, False]
    (gapped / "weyl_sweep.csv").unlink()
    found = oracles.check_sweep(str(gapped), "weyl_sweep.csv", cfg, m4)
    assert all(o.faults and not o.wrong for o in found)


def test_sublevel_oracle(tmp_path):
    cfg = {"trials": 200}
    constants = [[m, oracles.polya_constant(m)] for m in range(1, 6)]
    crit = {"name": "polynomial_sublevel_bound", "status": "pass",
            "trials": 200, "violations": 0, "constants": constants}

    def artifact(name, crit, cell):
        out = str(tmp_path / name)
        _write_verdict(out, crit)
        with open(os.path.join(out, "sublevel_lemma.csv"), "w") as fh:
            fh.write("degree,calibrated_constant\n")
            fh.writelines(f"{m},{cell(c)}\n" for m, c in crit["constants"])
        return oracles.check_sublevel_lemma(out, cfg)

    assert not artifact("ok", crit, repr).failed
    off = dict(crit, constants=[[m, c * (1 + 1e-6) if m == 3 else c]
                                for m, c in constants])
    assert artifact("off", off, repr).wrong
    assert artifact("violated", dict(crit, violations=1), repr).wrong
    numpy_repr = artifact("np", crit, lambda c: f"np.float64({c!r})")
    assert numpy_repr.faults and not numpy_repr.wrong


def test_radial_oscillatory_quadrature():
    # b = 1 on [0, 1]: (1/2h) |int_0^1 e^{i w u} du| = |e^{iw} - 1| / (2 h w)
    h, t = 0.01, 0.4
    w = t / h
    got = oracles.radial_oscillatory_magnitude(
        lambda r: np.ones_like(r), (0.0, 1.0), t, h)
    assert got == pytest.approx(abs(np.exp(1j * w) - 1) / (2 * h * w),
                                rel=1e-12)


def test_oscillatory_oracle(tmp_path):
    cfg = {"mu": 0.8}
    ref = oracles.oscillatory_reference_slopes(0.8)
    crit = {"name": "nonstationary_phase_decay", "status": "pass",
            "decay_slope": ref["decay"], "control_slope": ref["control"],
            "kappa": 0.05}
    _write_verdict(str(tmp_path / "ok"), crit)
    assert not oracles.check_oscillatory_decay(str(tmp_path / "ok"), cfg).failed
    _write_verdict(str(tmp_path / "off"),
                   dict(crit, decay_slope=ref["decay"] + 0.01))
    assert oracles.check_oscillatory_decay(str(tmp_path / "off"), cfg).wrong


def test_smoothed_counting_oracle(tmp_path):
    cfg = dict(bench_run.WORKLOADS["lemma_suite"][4][1])
    out = _cli(tmp_path, "smoothed_counting", cfg)
    assert not oracles.check_smoothed_counting(out, cfg).failed
    verdict = json.loads(Path(out, "verdict.json").read_text())
    verdict["criteria"][0]["rows"][1]["sharp"] += 1
    _write_verdict(out, verdict["criteria"][0])
    assert oracles.check_smoothed_counting(out, cfg).wrong


def test_structural_oracles(tmp_path):
    cfg = {"r0": 0.5, "delta0": 0.41, "t0": 0.1}
    rows = [{"order": k, "slope": 1.0, "target": (2.5 - k) * 0.41, "ok": True}
            for k in range(4)]
    rates = {"name": "mollifier_rates", "status": "pass", "rows": rows}
    _write_verdict(str(tmp_path / "r"), rates)
    assert not oracles.check_mollifier_rates(str(tmp_path / "r"), cfg).failed
    _write_verdict(str(tmp_path / "r"), dict(rates, rows=rows[:3]))
    assert oracles.check_mollifier_rates(str(tmp_path / "r"), cfg).wrong
    flow = {"name": "flow_displacement_bounds", "status": "pass", "t0": 0.1,
            "c1": 1.4, "c2": 5.7, "violations": 0}
    _write_verdict(str(tmp_path / "f"), flow)
    assert not oracles.check_flow_bounds(str(tmp_path / "f"), cfg).failed
    _write_verdict(str(tmp_path / "f"), dict(flow, c1=float("nan")))
    assert oracles.check_flow_bounds(str(tmp_path / "f"), cfg).wrong
    error = {"name": "flow_bounds", "status": "fail", "error": "ValueError: x"}
    _write_verdict(str(tmp_path / "e"), error)
    found = oracles.check_flow_bounds(str(tmp_path / "e"), cfg)
    assert found.faults and not found.wrong


def test_recorder_self_times_and_counts():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda n: sum(range(n)), lambda a, k, r: a[0])
    outer = rec.wrap("outer", lambda: inner(1000) + inner(2000))
    outer()
    assert [s[0] for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s[1] for s in rec.spans] == [-1, 0, 0]
    totals = spans.self_times(rec.spans)
    o = rec.spans[0]
    children = sum(s[3] - s[2] for s in rec.spans[1:])
    assert totals["outer"][0] == pytest.approx(o[3] - o[2] - children)
    assert totals["inner"][1] == 3000
    metrics = spans.layer_metrics(rec.spans)
    assert set(metrics) == set(spans.TIME_METRICS.values()) | set(
        spans.COUNT_METRICS.values())
