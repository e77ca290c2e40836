"""Config parsing, registry dispatch, and exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import weyllab
from weyllab.cli import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run,
)


def test_empty_document_lists_missing_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    assert any("model" in v for v in err.value.violations)
    assert any("energy" in v for v in err.value.violations)


def test_comments_and_blank_lines():
    cfg = parse_config(
        "# experiment setup\nmodel = harmonic  # registry name\n\n"
        "energy = 1.0\n"
    )
    assert cfg.model == "harmonic"
    assert cfg.energy == 1.0


def test_delta0_open_interval_boundary():
    with pytest.raises(ConfigError) as err:
        parse_config("model=harmonic\nenergy=1\ndelta0=0.4\nr0=0.5\n")
    assert "open interval" in err.value.violations[0]
    cfg = parse_config("model=harmonic\nenergy=1\ndelta0=0.41\nr0=0.5\n")
    assert cfg.delta0 == 0.41


def test_critical_sweep_needs_larger_delta0():
    text = "model=double_well_2d\nenergy=1\ndelta0=0.3\nr0=2.0\n"
    parse_config(text)  # fine for generic experiments
    with pytest.raises(ConfigError) as err:
        parse_config(text, experiment="critical_sweep")
    assert "1/(4 m0 - 1)" in err.value.violations[0]


def test_unknown_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config("model=harmonic\nenergy=1\nwavelength=3\n")
    assert "wavelength" in " ".join(err.value.violations)
    # c_upper was never read by an experiment and is no longer a key
    stale = "model=harmonic\nenergy=1\nc_upper = 1.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(stale)
    assert "unknown key 'c_upper'" in " ".join(err.value.violations)
    cfg = tmp_path / "stale.cfg"
    cfg.write_text(stale)
    assert main(["--config", str(cfg), "--experiment", "sublevel_lemma"]) == 2


def test_unknown_model():
    with pytest.raises(ConfigError) as err:
        parse_config("model=mystery\nenergy=1\n")
    assert "mystery" in " ".join(err.value.violations)


def test_registry_names():
    assert set(EXPERIMENTS) == {
        "weyl_sweep",
        "critical_sweep",
        "mollifier_rates",
        "sublevel_lemma",
        "flow_bounds",
        "oscillatory_decay",
        "smoothed_counting",
    }


def test_unknown_experiment_exit_2(tmp_path):
    cfg = ExperimentConfig(model="harmonic", energy=1.0,
                           out_dir=str(tmp_path))
    assert run(cfg, "nonexistent") == 2


def test_sublevel_run_writes_artifacts(tmp_path):
    cfg = dataclasses.replace(
        parse_config("model=harmonic\nenergy=1.0\ntrials=40\n"),
        out_dir=str(tmp_path),
    )
    assert run(cfg, "sublevel_lemma") == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["verdict"] == "PASS"
    assert verdict["schema_version"] == 1
    assert (tmp_path / "sublevel_lemma.csv").read_text().startswith("degree,")


def test_main_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model=harmonic\nenergy=1\ndelta0=0.9\n")
    assert main(["--config", str(bad), "--experiment", "sublevel_lemma"]) == 2


def test_main_overrides_and_exit_0(tmp_path):
    cfgfile = tmp_path / "ok.cfg"
    cfgfile.write_text("model=harmonic\nenergy=1.0\ntrials=40\n")
    code = main([
        "--config", str(cfgfile), "--experiment", "sublevel_lemma",
        "--out", str(tmp_path / "out"), "--seed", "11",
    ])
    assert code == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["criteria"][0]["seed"] == 11


def _child_env():
    # the child imports the same weyllab as this process, whether that
    # comes from an install, PYTHONPATH or pytest's pythonpath setting
    package_root = os.path.dirname(os.path.dirname(weyllab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "weyllab.cli", "--experiment", "nope"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 2
    assert "registry" in proc.stderr


_IMPORT_GRAPH_CHILD = """
import sys
import weyllab.cli
from weyllab._fitting import fit_loglog
from weyllab.dynamics import integrate_flow
from weyllab.mollify import build_mollifier
from weyllab.symbols import find_critical_points, make_model
fit_loglog([0.1, 0.05, 0.025, 0.0125], [1.0, 0.6, 0.21, 0.13])
build_mollifier(1)
build_mollifier(2)
model = make_model("double_well_2d")
find_critical_points(model, 1.0, 0.25)
integrate_flow(model, [[0.5, 0.1, 0.2, -0.3], [0.1, 0.4, -0.2, 0.0]], 0.1)
unused = ("stats", "integrate", "optimize", "spatial", "special")
print(sorted(m for m in sys.modules if m in {"scipy." + u for u in unused}))
"""


def test_scipy_stats_not_imported():
    # the sweeps count by sparse LU and banded eigenvalues; the t quantile,
    # the kernel moments and the flow have closed forms or in-house rules,
    # so no start or run loads the scipy modules that served them
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_CHILD],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sublevel_csv_constants_are_numbers(tmp_path):
    cfg = dataclasses.replace(
        parse_config("model=harmonic\nenergy=1.0\ntrials=40\n"),
        out_dir=str(tmp_path),
    )
    assert run(cfg, "sublevel_lemma") == 0
    lines = (tmp_path / "sublevel_lemma.csv").read_text().splitlines()
    assert lines[0] == "degree,calibrated_constant"
    assert len(lines) > 1
    for line in lines[1:]:
        degree, constant = line.split(",")
        int(degree)
        assert float(constant) > 0.0


@pytest.mark.parametrize("experiment", ["weyl_sweep", "critical_sweep"])
def test_sweeps_need_four_h_points(experiment):
    text = "model=double_well_2d\nenergy=1\nh_points=3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text, experiment=experiment)
    assert any("h_points" in v for v in err.value.violations)
    parse_config(text.replace("=3", "=4"), experiment=experiment)
    parse_config(text, experiment="mollifier_rates")  # fits its own grid


def test_overrides_validated_with_the_file():
    # an override replaces the file's value before the one validation
    text = "model=harmonic\nenergy=1\nh_points=3\n"
    cfg = parse_config(text, "weyl_sweep", {"h_points": 4, "seed": 5})
    assert (cfg.h_points, cfg.seed) == (4, 5)
    with pytest.raises(ConfigError):
        parse_config(text.replace("=3", "=4"), "weyl_sweep", {"h_points": 3})


def test_main_rejects_short_h_grid_override(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("model=harmonic\nenergy=1.0\n")
    out = tmp_path / "out"
    code = main([
        "--config", str(cfgfile), "--experiment", "weyl_sweep",
        "--out", str(out), "--h-points", "3",
    ])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "line, flags, message",
    [
        ("trials=0", [], "trials must be >= 1"),
        ("max_grid_points=0", [], "max_grid_points must be >= 1"),
        ("budget=-4", [], "budget must be >= 1"),
        ("seed=-1", [], "seed must be >= 0"),
        ("seed=3", ["--seed", "-1"], "seed must be >= 0"),
    ],
    ids=["trials", "max_grid_points", "budget", "seed", "seed_override"],
)
def test_out_of_range_counts_exit_2(tmp_path, capsys, line, flags, message):
    # each value would otherwise pass with nothing checked (trials = 0) or
    # fail deep inside numpy with exit 1
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"model=harmonic\nenergy=1.0\n{line}\n")
    out = tmp_path / "out"
    code = main([
        "--config", str(cfgfile), "--experiment", "sublevel_lemma",
        "--out", str(out), *flags,
    ])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, flags, key",
    [
        ("energy=nan", [], "energy"),
        ("energy=1.0\nt0=inf", [], "t0"),
        ("energy=1.0\nc_lower=nan", [], "c_lower"),
        ("energy=1.0\nmu=-inf", [], "mu"),
        ("energy=1.0", ["--h-max", "inf"], "h_max"),
    ],
    ids=["energy", "t0", "c_lower", "mu", "h_max_override"],
)
def test_non_finite_values_exit_2(tmp_path, capsys, lines, flags, key):
    # energy = nan once ran the sweep, wrote a header-only CSV and exited 1
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"model=harmonic\n{lines}\n")
    out = tmp_path / "out"
    code = main([
        "--config", str(cfgfile), "--experiment", "weyl_sweep",
        "--out", str(out), *flags,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {key} = " in err and "is not finite" in err
    assert not out.exists()


def test_flow_bounds_unreachable_threshold_exit_1(tmp_path):
    # c_lower h^delta0 = 100 * 0.05^0.41 = 29.3, above every |grad p| of
    # double_well_2d on its box: the run must fail, not sample forever
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text(
        "model=double_well_2d\nenergy=1.0\nh_min=0.05\ndelta0=0.41\n"
        "c_lower=100\n"
    )
    code = main([
        "--config", str(cfgfile), "--experiment", "flow_bounds",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    error = verdict["criteria"][0]["error"]
    assert error.startswith("ValueError")
    assert f"threshold cbar h^delta0 = {100 * 0.05**0.41:.6g}" in error
    assert "check_displacement_bounds" in verdict["criteria"][0]["traceback"]


@pytest.mark.parametrize("mu", [0.5, 1.0])
def test_oscillatory_decay_mu_outside_its_interval_exit_2(tmp_path, capsys, mu):
    # the decay check needs delta0 + 1/2 < mu < 1 with its delta0 = 0.25;
    # mu = 0.5 once ran and exited 1 with a FAIL verdict
    cfgfile = tmp_path / "decay.cfg"
    cfgfile.write_text(f"model=harmonic\nenergy=1.0\nmu={mu}\n")
    out = tmp_path / "out"
    code = main([
        "--config", str(cfgfile), "--experiment", "oscillatory_decay",
        "--out", str(out),
    ])
    assert code == 2
    assert f"config error: mu = {mu} outside" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mu", [0.76, 0.8])
def test_oscillatory_decay_mu_inside_its_interval_accepted(mu):
    text = f"model=harmonic\nenergy=1.0\nmu={mu}\n"
    assert parse_config(text, "oscillatory_decay").mu == mu
    # other experiments do not read mu
    parse_config(text.replace(f"mu={mu}", "mu=0.5"), "weyl_sweep")


@pytest.mark.parametrize("experiment", ["weyl_sweep", "critical_sweep"])
def test_sweep_with_too_few_records_reports_its_gaps(tmp_path, experiment):
    # at E = 2.95 the minus sweep's sublevel set reaches the box at three
    # of four h values: one record is too few to fit, so the criterion is
    # partial with the gaps and null slopes, not a fit error
    cfg = parse_config(
        "model=double_well_2d\nenergy=2.95\nvariant=minus\n"
        f"h_min=0.07\nh_max=0.1\nh_points=4\nout_dir={tmp_path}\n",
        experiment,
    )
    assert run(cfg, experiment) == 1
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["verdict"] == "PARTIAL"
    criterion = verdict["criteria"][0]
    assert criterion["status"] == "partial"
    assert len(criterion["gaps"]) == 3
    assert all("ContainmentFault" in why for _, why in criterion["gaps"])
    slopes = {"weyl_sweep": ["slope"],
              "critical_sweep": ["ratio_slope", "log_corrected_slope"]}
    assert all(criterion[key] is None for key in slopes[experiment])


def test_oscillatory_decay_with_too_few_h_is_partial(tmp_path, monkeypatch):
    # every rule over the node budget leaves no h to fit: the criterion is
    # partial with null slopes and each check's excluded h, not a fit error
    monkeypatch.setattr(weyllab.dynamics, "NODE_BUDGET", 1)
    cfg = parse_config(f"model=harmonic\nenergy=1.0\nmu=0.76\n"
                       f"out_dir={tmp_path}\n", "oscillatory_decay")
    assert run(cfg, "oscillatory_decay") == 1
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["verdict"] == "PARTIAL"
    criterion = verdict["criteria"][0]
    assert criterion["name"] == "nonstationary_phase_decay"
    assert criterion["status"] == "partial"
    assert criterion["decay_slope"] is None
    assert criterion["control_slope"] is None
    assert len(criterion["decay_excluded"]) == 6
    assert len(criterion["control_excluded"]) == 6
    assert "traceback" not in criterion


@pytest.mark.parametrize(
    "experiment", ["weyl_sweep", "critical_sweep", "mollifier_rates"])
def test_fitted_experiments_need_distinct_h_exit_2(tmp_path, capsys,
                                                   experiment):
    # h_min = h_max once ran the whole experiment and exited 1 with
    # "degenerate fit: all abscissae coincide"
    cfgfile = tmp_path / "one_h.cfg"
    cfgfile.write_text("model=harmonic\nenergy=1.0\nh_min=0.05\nh_max=0.05\n")
    out = tmp_path / "out"
    code = main([
        "--config", str(cfgfile), "--experiment", experiment,
        "--out", str(out),
    ])
    assert code == 2
    assert "config error: h_min = h_max = 0.05" in capsys.readouterr().err
    assert not out.exists()
    parse_config(cfgfile.read_text(), "flow_bounds")  # reads h_min alone


def test_uncreatable_out_exit_2(tmp_path, capsys):
    # an --out under a regular file once ended in NotADirectoryError
    cfgfile = tmp_path / "ok.cfg"
    cfgfile.write_text("model=harmonic\nenergy=1.0\ntrials=40\n")
    code = main([
        "--config", str(cfgfile), "--experiment", "sublevel_lemma",
        "--out", str(cfgfile / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot create output directory")
    assert err.count("\n") == 1


def _criterion(out):
    (criterion,) = json.loads((out / "verdict.json").read_text())["criteria"]
    assert "error" not in criterion and "traceback" not in criterion
    return criterion


# experiment: (small config, exit code, criterion, status, keys of the
# criterion that the benchmark's oracles read).  The sweeps' grids are too
# coarse for their finite-h surrogates to be meaningful; their statuses are
# pinned so that a changed count or fit shows here.
SMALL_RUNS = {
    "weyl_sweep": (
        "model=harmonic\nenergy=1.0\nh_max=0.1\nh_min=0.05\nh_points=4\n",
        1, "weyl_remainder_slope", "fail", ["slope", "gaps"]),
    "critical_sweep": (
        "model=double_well_2d\nenergy=1.0\nvariant=plus\nh_max=0.1\n"
        "h_min=0.07\nh_points=4\n",
        0, "bounded_remainder_ratio", "pass", ["ratio_slope", "gaps"]),
    "mollifier_rates": (
        "model=holder_test\nenergy=1.0\nh_max=0.1\nh_min=0.01\n",
        0, "mollifier_rates", "pass", ["rows"]),
    "sublevel_lemma": (
        "model=harmonic\nenergy=1.0\ntrials=10\n",
        0, "polynomial_sublevel_bound", "pass",
        ["constants", "trials", "violations"]),
    "flow_bounds": (
        "model=double_well_2d\nenergy=1.0\nh_min=0.05\n",
        0, "flow_displacement_bounds", "pass", ["t0", "c1", "c2", "violations"]),
    "oscillatory_decay": (
        "model=harmonic\nenergy=1.0\nmu=0.76\n",
        0, "nonstationary_phase_decay", "pass",
        ["decay_slope", "control_slope", "kappa"]),
    "smoothed_counting": (
        "model=harmonic\nenergy=1.0\n",
        0, "smoothed_vs_sharp_count", "pass", ["rows"]),
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_experiment_runs(tmp_path, experiment):
    text, code, name, status, keys = SMALL_RUNS[experiment]
    cfg = parse_config(text + f"out_dir={tmp_path}\n", experiment)
    assert run(cfg, experiment) == code
    criterion = _criterion(tmp_path)
    assert (criterion["name"], criterion["status"]) == (name, status)
    assert all(criterion[key] is not None for key in keys)
    if experiment in ("weyl_sweep", "critical_sweep"):
        header = (tmp_path / f"{experiment}.csv").read_text().split("\n")[0]
        assert {"h", "energy", "count", "weyl", "weyl_std_error", "r_value",
                "grid_points", "seed"} <= set(header.split(","))
    elif experiment == "mollifier_rates":
        rows = criterion["rows"]
        assert [r["order"] for r in rows] == [0, 1, 2, 3]
        assert all(math.isfinite(r["slope"]) for r in rows)
        assert [r["target"] for r in rows] == [
            (2.5 - k) * 0.41 for k in range(4)]
    elif experiment == "smoothed_counting":
        assert [r["h"] for r in criterion["rows"]] == [0.05, 0.035, 0.025]
        assert all(isinstance(r["sharp"], int) for r in criterion["rows"])
    elif experiment == "sublevel_lemma":
        assert [m for m, _ in criterion["constants"]] == [1, 2, 3, 4, 5]
    elif experiment == "flow_bounds":
        assert criterion["t0"] == 0.1
        assert math.isfinite(criterion["c1"]) and math.isfinite(criterion["c2"])


BELOW_THE_SPECTRUM = {
    "weyl_sweep": "model=harmonic\nenergy=-1\n",
    "critical_sweep": "model=double_well_2d\nenergy=-0.5\nvariant=minus\n"
                      "h_max=0.1\nh_min=0.07\nh_points=4\n",
}


@pytest.mark.parametrize("experiment", sorted(BELOW_THE_SPECTRUM))
def test_sweep_below_the_spectrum_fails_without_a_fit_error(
        tmp_path, experiment):
    # every record counts 0 eigenvalues against a Weyl volume of 0, so
    # nothing is positive to fit: the criterion fails with null slopes
    # rather than with a fit error
    text = BELOW_THE_SPECTRUM[experiment] + f"out_dir={tmp_path}\n"
    cfg = parse_config(text, experiment)
    assert run(cfg, experiment) == 1
    criterion = _criterion(tmp_path)
    assert criterion["status"] == "fail"
    assert criterion["gaps"] == []
    slopes = {"weyl_sweep": ["slope"],
              "critical_sweep": ["ratio_slope", "log_corrected_slope"]}
    assert all(criterion[key] is None for key in slopes[experiment])
    rows = (tmp_path / f"{experiment}.csv").read_text().split("\n")[1:-1]
    assert len(rows) == cfg.h_points
    assert all(row.split(",")[2:4] == ["0", "0.0"] for row in rows)


def test_mollifier_rates_report_exact_annihilation(tmp_path):
    # r0 = 2: the test field is x^4 on the sampling window, so orders 1 and
    # 2 are reproduced exactly; they are reported as exact, not fitted
    cfg = parse_config(
        "model=holder_test\nenergy=1.0\nr0=2\nh_max=0.1\nh_min=0.01\n"
        f"out_dir={tmp_path}\n", "mollifier_rates")
    code = run(cfg, "mollifier_rates")
    criterion = _criterion(tmp_path)
    rows = criterion["rows"]
    assert [r["order"] for r in rows] == [0, 1, 2, 3]
    assert rows[1:3] == [{"order": 1, "exact": True},
                         {"order": 2, "exact": True}]
    assert rows[0]["slope"] == pytest.approx(4.0 * 0.41, abs=0.2)
    ok = all(r["ok"] for r in rows if "exact" not in r)
    assert criterion["status"] == ("pass" if ok else "fail")
    assert code == (0 if ok else 1)
