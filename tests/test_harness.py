"""Sweep orchestration, exponent fits, and verdict reports."""

import csv
import io

import numpy as np
import pytest

from weyllab import harness, operators, phasevol, symbols
from weyllab._fitting import _t_quantile, fit_loglog
from weyllab.harness import (
    SweepRecord,
    acceptance_report,
    check_hypotheses,
    fit_exponent,
    run_h_sweep,
    sweep_csv_text,
)
from weyllab.symbols import (
    Coefficient,
    PolynomialCoefficient,
    SymbolModel,
    make_model,
)


def _record(h, count, weyl, r_value, **kw):
    rem = count - weyl
    return SweepRecord(
        h=h, energy=1.0, count=count, weyl=weyl, weyl_std_error=0.0,
        remainder=rem, r_value=r_value, ratio=abs(rem) * h**2 / r_value,
        grid_points=100, seed=0, blocks=1, shifts_applied=0, dx_over_h=0.25,
        **kw,
    )


def test_record_invariants():
    with pytest.raises(ValueError):
        _record(0.1, 10, 9.0, 0.01)  # r_value below its h floor


def test_fit_loglog_exact_power():
    hs = [0.1, 0.05, 0.025, 0.0125]
    ys = [3.0 * h**1.7 for h in hs]
    fit = fit_loglog(hs, ys)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert fit.n_points == 4
    assert np.isfinite(fit.ci_halfwidth)


def test_fit_loglog_ci_halfwidth_closed_form():
    # with df = 2 the Student t quantile has the closed form
    # (2p - 1) / sqrt(2 p (1 - p)), about 4.3027 at p = 0.975
    hs = [0.1, 0.05, 0.025, 0.0125]
    ys = [1.0, 0.6, 0.21, 0.13]
    fit = fit_loglog(hs, ys)
    lx, ly = np.log(hs), np.log(ys)
    resid = ly - (fit.slope * lx + fit.intercept)
    s2 = float(resid @ resid) / 2
    sxx = float(((lx - lx.mean()) ** 2).sum())
    p = 0.975
    t = (2 * p - 1) / np.sqrt(2 * p * (1 - p))
    assert t == pytest.approx(4.3027, abs=1e-4)
    assert fit.ci_halfwidth == pytest.approx(t * np.sqrt(s2 / sxx), rel=1e-12)


@pytest.mark.parametrize("p", [0.975, 0.6, 0.999])
def test_t_quantile_matches_scipy(p):
    from scipy.special import stdtrit

    for nu in range(1, 201):  # odd and even nu take different closed forms
        assert _t_quantile(p, nu) == pytest.approx(
            float(stdtrit(nu, p)), rel=1e-13), nu


def test_fit_loglog_excludes_nonpositive():
    fit = fit_loglog([0.1, 0.05, 0.025, 0.0125, 0.00625],
                     [0.1, 0.05, 0.0, 0.0125, 0.00625])
    assert fit.excluded == 1
    assert fit.n_points == 4


def test_fit_loglog_accepts_iterators():
    # the exclusions were once counted from an iterator that zip had
    # already consumed, which gave excluded = -4 here
    xs = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    ys = [0.1, 0.05, 0.0, 0.0125, 0.00625]
    fit = fit_loglog(iter(xs), iter(ys))
    assert fit.excluded == 1
    assert fit == fit_loglog(xs, ys)


def test_fit_loglog_deterministic_permutation():
    hs = [0.1, 0.07, 0.05, 0.035, 0.025]
    ys = [1.1, 0.8, 0.53, 0.36, 0.27]
    a = fit_loglog(hs, ys)
    b = fit_loglog(hs[::-1], ys[::-1])
    assert a.slope == b.slope  # exact rational normal equations


def test_fit_exponent_selectors():
    recs = [_record(h, int(1 / h**2), 1 / h**2 + 1 / h, 10 * h)
            for h in (0.1, 0.07, 0.05, 0.035, 0.025)]
    assert fit_exponent(recs, "r_value").slope == pytest.approx(1.0, abs=1e-9)
    assert fit_exponent(recs, "remainder").slope == pytest.approx(-1.0,
                                                                  abs=0.1)
    fit_exponent(recs, "log_corrected_ratio")  # smoke: defined and finite


def test_empty_h_grid():
    m = make_model("separable_harmonic_2d")
    res = run_h_sweep(m, 1.0, [], delta0=0.41, volume_budget=2**16)
    assert res.records == ()
    assert res.complete


def test_sweep_counts_match_tensor_oracle():
    m = make_model("separable_harmonic_2d")
    res = run_h_sweep(m, 1.0, [0.1, 0.071], delta0=0.41,
                      max_grid_points=400, volume_budget=2**18)
    for rec in res.records:
        # levels 2h(i+j+1); ties at exactly 1 count (finite differences
        # shift every level down by O(dx^2))
        levels = [2 * rec.h * (i + j + 1)
                  for i in range(60) for j in range(60)]
        oracle = sum(1 for lam in levels if lam <= 1.0 + 1e-12)
        assert abs(rec.count - oracle) <= 2


def test_sweep_reduces_the_symbol_once(monkeypatch):
    # the hypothesis screen, the volume and every h's remainder sup share
    # one reduced symbol, and no critical point is searched for
    built = []

    class Counting(phasevol.ReducedSymbol):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep searched for critical points")

    monkeypatch.setattr(harness, "ReducedSymbol", Counting)
    monkeypatch.setattr(symbols, "find_critical_points", refuse)
    monkeypatch.setattr(phasevol, "find_critical_points", refuse)
    m = make_model("separable_harmonic_2d")
    res = run_h_sweep(m, 1.0, [0.1, 0.08, 0.07], delta0=0.41,
                      max_grid_points=100, volume_budget=2**16)
    assert len(res.records) == 3
    assert len(built) == 1


def test_sweep_gap_on_fault():
    # an h far below grid resolution still counts, but an impossible energy
    # aborts only its own sample
    m = make_model("separable_harmonic_2d")
    res = run_h_sweep(m, 1.0, [0.1, float("nan")], delta0=0.41,
                      max_grid_points=200, volume_budget=2**16)
    assert len(res.records) == 1
    assert len(res.gaps) == 1
    assert res.gaps[0][1].startswith("InvariantFault: h = nan")


def _break_potential_in_assembly(monkeypatch, broken_value):
    """The separable harmonic model whose potential evaluates through
    broken_value(pot, x) once the operator is assembled, after the reduced
    symbol has read it."""
    m = make_model("separable_harmonic_2d")
    pot_key = ((0, 0), (0, 0))
    pot = m.coefficients[pot_key]
    assembling = []

    def value(x):
        return broken_value(pot, x) if assembling else pot.value(x)

    coeffs = dict(m.coefficients)
    coeffs[pot_key] = Coefficient(value, pot.grad, pot.hess)
    broken = SymbolModel(
        m.dimension, coeffs, m.ellipticity_constant,
        m.box_x, m.box_xi, m.name,
    )

    def assemble(*args, **kwargs):
        assembling.append(True)
        return operators.assemble(*args, **kwargs)

    monkeypatch.setattr(harness, "assemble", assemble)
    return broken


def test_sweep_propagates_programming_errors(monkeypatch):
    # a TypeError is a bug, not a fault of one sample: it must reach the
    # caller instead of becoming a gap
    def value(pot, x):
        raise TypeError("unsupported operand")

    broken = _break_potential_in_assembly(monkeypatch, value)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_h_sweep(broken, 1.0, [0.1], delta0=0.41, max_grid_points=100,
                    volume_budget=2**16, out_of_scope_ok=True)


def test_sweep_propagates_shape_errors(monkeypatch):
    # numpy raises ValueError for a potential that returns one value too
    # few; that is a bug too, not a gap
    broken = _break_potential_in_assembly(
        monkeypatch, lambda pot, x: pot.value(x)[:-1]
    )
    with pytest.raises(ValueError, match="could not be broadcast"):
        run_h_sweep(broken, 1.0, [0.1], delta0=0.41, max_grid_points=100,
                    volume_budget=2**16, out_of_scope_ok=True)


def _nan_strip(pot, x):
    # NaN on the strip |x1 - 0.31| < 0.02, which holds grid nodes
    return np.where(np.abs(x[:, 0] - 0.31) < 0.02, np.nan, pot.value(x))


def _log_well(pot, x):
    # + 0.01 log|x1|: -inf on the line x1 = 0, which the boundary crosses
    with np.errstate(divide="ignore"):
        return pot.value(x) + 0.01 * np.log(np.abs(x[:, 0]))


@pytest.mark.parametrize("broken_value, on_fault", [
    (_nan_strip, lambda x: abs(x[0] - 0.31) < 0.02),
    (_log_well, lambda x: x[0] == 0.0),
])
def test_sweep_gap_on_non_finite_potential(monkeypatch, broken_value,
                                           on_fault):
    # every comparison with NaN is false and -inf passes as a minimum: a
    # non-finite potential must fault where it is evaluated, not later as
    # a factorization or confinement fault
    broken = _break_potential_in_assembly(monkeypatch, broken_value)
    res = run_h_sweep(broken, 1.0, [0.1], delta0=0.41, max_grid_points=100,
                      volume_budget=2**16, out_of_scope_ok=True)
    assert res.records == ()
    assert [reason for _, reason in res.gaps] == [
        "EvaluationFault: potential is not finite"]
    with pytest.raises(symbols.EvaluationFault) as fault:
        harness.assemble(broken, 0.1, 0.41, operators.GridSpec(2.0, 100),
                         energy=1.0, strict_resolution=False)
    assert on_fault(fault.value.location)


def test_invariant_faults_are_typed():
    with pytest.raises(phasevol.InvariantFault, match="h floor"):
        _record(0.1, 10, 9.0, 0.01)
    with pytest.raises(phasevol.InvariantFault, match="not positive"):
        phasevol.remainder_functional(None, 1.0, 0.1, float("nan"))
    with pytest.raises(phasevol.InvariantFault, match="bounded below"):
        phasevol.RemainderFunctional(1.0, 0.1, 0.1, 0.05, 1.0, 9)
    assert ValueError not in harness._SAMPLE_FAULTS


def test_raw_sweep_builds_no_kernel(monkeypatch):
    def refuse(d):
        raise AssertionError("a raw operator built a mollifier")

    monkeypatch.setattr(operators, "build_mollifier", refuse)
    m = make_model("separable_harmonic_2d")
    res = run_h_sweep(m, 1.0, [0.1, 0.08], delta0=0.41, max_grid_points=100,
                      volume_budget=2**16)
    assert res.complete and len(res.records) == 2


def test_check_hypotheses_flags_d1():
    assert check_hypotheses(make_model("harmonic"), 1.0) != []
    assert check_hypotheses(make_model("double_well_2d"), 1.0) == []


def test_check_hypotheses_enforces_ellipticity():
    # 0.5 |xi|^2 + |x|^2 has G = I/2, below an ellipticity constant of 1
    def poly(terms):
        return PolynomialCoefficient(terms, 2)

    def model(constant):
        return SymbolModel(
            dimension=2,
            coefficients={
                ((1, 0), (1, 0)): poly({(0, 0): 0.5}),
                ((0, 1), (0, 1)): poly({(0, 0): 0.5}),
                ((0, 0), (0, 0)): poly({(2, 0): 1.0, (0, 2): 1.0}),
            },
            ellipticity_constant=constant,
        )

    problems = check_hypotheses(model(1.0), 1.0)
    assert len(problems) == 1 and problems[0].startswith("ellipticity fails")
    assert check_hypotheses(model(0.5), 1.0) == []


def test_out_of_scope_requires_flag():
    m = make_model("harmonic")
    with pytest.raises(ValueError):
        run_h_sweep(m, 1.0, [0.1], delta0=0.41)
    res = run_h_sweep(m, 1.0, [0.1], delta0=0.41, out_of_scope_ok=True,
                      volume_budget=2**16)
    assert len(res.records) == 1


def test_csv_deterministic():
    m = make_model("separable_harmonic_2d")
    kw = dict(delta0=0.41, max_grid_points=200, volume_budget=2**16, seed=3)
    a = sweep_csv_text(run_h_sweep(m, 1.0, [0.1, 0.08], **kw))
    b = sweep_csv_text(run_h_sweep(m, 1.0, [0.1, 0.08], **kw))
    assert a == b
    assert a.startswith("h,energy,count,")


def test_csv_provenance_columns_are_numeric():
    # the bench oracle reads every CSV column with float()
    m = make_model("separable_harmonic_2d")
    res = run_h_sweep(m, 1.0, [0.1, 0.05], delta0=0.41, max_grid_points=200,
                      volume_budget=2**16)
    rows = list(csv.DictReader(io.StringIO(sweep_csv_text(res))))
    assert [k for k in rows[0]][-3:] == ["blocks", "shifts_applied",
                                         "dx_over_h"]
    table = [{k: float(v) for k, v in row.items()} for row in rows]
    # h = 0.1 resolves on 159 points; h = 0.05 wants 319 and is capped
    assert [r["grid_points"] for r in table] == [200, 159]
    assert [r["blocks"] for r in table] == [5, 5]  # D4: four halves + EO
    assert [r["shifts_applied"] for r in table] == [0, 0]
    assert table[1]["dx_over_h"] == pytest.approx(0.25)
    assert table[0]["dx_over_h"] == pytest.approx(4.0 / 201 / 0.05)


def test_acceptance_report_verdicts():
    rep = acceptance_report([{"name": "a", "status": "pass"}])
    assert rep["verdict"] == "PASS"
    assert rep["schema_version"] == 1
    rep = acceptance_report([{"name": "a", "status": "pass"},
                             {"name": "b", "status": "partial"}])
    assert rep["verdict"] == "PARTIAL"
    rep = acceptance_report([{"name": "a", "status": "fail"},
                             {"name": "b", "status": "partial"}])
    assert rep["verdict"] == "FAIL"
    with pytest.raises(ValueError):
        acceptance_report([{"name": "a", "status": "maybe"}])
