import warnings

import numpy as np
import pytest

from gradabs import fit, observe, solver
from gradabs.exponents import ProblemParams
from gradabs.fit import (FitError, fit_composite, fit_log_growth, fit_power,
                         plateau_test, verdict)


def geom_times(t0=0.0625, t1=256.0):
    n = int(round(4 * np.log2(t1 / t0))) + 1
    return t0 * 2.0 ** (0.25 * np.arange(n))


def test_fit_power_exact():
    t = geom_times(1.0, 512.0)[:10]
    res = fit_power(t, 5.0 * t ** -0.25)
    assert res.exponent == pytest.approx(-0.25, abs=1e-12)
    assert res.amplitude == pytest.approx(5.0, rel=1e-12)
    assert res.r2 == pytest.approx(1.0)


def test_fit_power_amplitude_invariance():
    t = geom_times(1.0, 64.0)
    y = t ** -0.7 * (1.0 + 0.05 * np.sin(np.log(t)))
    assert fit_power(t, y).exponent == pytest.approx(fit_power(t, 3.0 * y).exponent)


def test_fit_power_slow_correction():
    t = geom_times(16.0, 256.0)
    res = fit_power(t, t ** -0.5 * (1.0 + 1.0 / t), (16.0, 256.0))
    assert abs(res.exponent + 0.5) <= 0.03


def test_fit_power_errors():
    t = geom_times(1.0, 2.0)
    with pytest.raises(FitError):
        fit_power(t[:4], t[:4])
    t = geom_times(1.0, 64.0)
    y = t - 4.0     # contains non-positive values
    with pytest.raises(FitError):
        fit_power(t, y)


def test_fit_log_growth_exact():
    t = geom_times(1.0, 256.0)
    res = fit_log_growth(t, 3.0 + 2.0 * np.log(t))
    assert res.exponent == pytest.approx(2.0, abs=1e-12)
    assert res.amplitude == pytest.approx(3.0, abs=1e-12)
    res = fit_log_growth(t, np.full_like(t, 7.0))
    assert res.exponent == pytest.approx(0.0, abs=1e-12)


def test_plateau():
    t = geom_times(1.0, 64.0)
    assert plateau_test(t, np.full_like(t, 2.0), rel_tol=1e-12).passed
    assert not plateau_test(t, 1.0 / t, (1.0, 2.0), rel_tol=0.05).passed
    with pytest.raises(FitError):
        plateau_test(t[:3], t[:3])


def test_fit_composite():
    t = geom_times(4.0, 256.0)
    model = t ** -1.0 * np.log(t) ** 3
    res = fit_composite(t, 2.0 * model, model)
    assert res.exponent == pytest.approx(1.0, abs=1e-12)
    assert res.passed


def test_fit_composite_rejects_constant_abscissa():
    t = geom_times(4.0, 256.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="constant"):
            fit_composite(t, 1.0 / t, np.full_like(t, 2.0))


def test_verdict_on_constant_composite_abscissa():
    # the sweep cell p = 3.5, q = 3 to t = 1/2: the inverse-log law's
    # abscissa log(max(t, 1 + 1e-9)) is constant on the window [1/16, 1/2]
    cfg = solver.RunConfig(3.5, 3.0, 1, geometry="radial", h=0.01, L=8.0, t_end=0.5)
    _, series = solver.run(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = verdict(cfg.params(), series, h=cfg.h)
    lookup = {v.quantity: v for v in out}
    l1 = lookup["l1_excess"]
    assert l1.predicted == "inverse_log_power"
    assert l1.fitted == "composite_undefined(constant abscissa on window)"
    assert l1.r2 == 0.0 and not l1.passed
    assert sum(v.passed for v in out) == 3 and len(out) == 4


@pytest.mark.filterwarnings("always::numpy.exceptions.RankWarning")
def test_near_singular_fit_raises_fit_error():
    # numpy's own filter only prints RankWarning; the fit must raise, so that
    # a run's report carries the failure as its verdict_error
    t = 2.0 * (1.0 + 1e-15 * np.arange(8))    # ln t constant to roundoff
    y = 1.0 + np.arange(8.0)
    for fitter in (fit_power, fit_log_growth):
        with pytest.raises(FitError, match="near-singular"):
            fitter(t, y)


def synthetic_series(t, sup, l1, rho, grad, absorbed):
    s = observe.TimeSeries()
    cols = {"t": t, "sup_excess": sup, "l1_excess": l1, "grad_sup": grad,
            "grad_alpha": grad, "grad_beta": grad, "rho": rho,
            "absorbed": absorbed, "boundary_out": np.zeros_like(t)}
    for name, vals in cols.items():
        s.columns[name] = [float(v) for v in vals]
    return s


def test_verdict_diffusion_dominated():
    t = geom_times()
    s = synthetic_series(t, sup=t ** -0.25, l1=np.full_like(t, 0.8),
                         rho=2.0 * t ** 0.25, grad=t ** -0.5,
                         absorbed=np.zeros_like(t))
    out = verdict(ProblemParams(3.0, 3.0, 1), s)
    names = [v.quantity for v in out]
    assert names == ["sup_excess", "grad_beta", "rho", "l1_excess"]
    assert all(v.passed for v in out)


def test_verdict_absorption_dominated():
    t = geom_times()
    s = synthetic_series(t, sup=t ** -0.5, l1=t ** -2.0,
                         rho=np.full_like(t, 2.0), grad=t ** -1.0,
                         absorbed=np.linspace(0.1, 0.5, t.size))
    out = verdict(ProblemParams(3.0, 1.5, 1), s, h=0.01)
    assert all(v.passed for v in out)
    lookup = {v.quantity: v for v in out}
    assert lookup["rho"].predicted == "bounded"


def test_verdict_critical_absorption():
    t = geom_times()
    xi = 1.0 / 3.0
    q = 2.0
    s = synthetic_series(
        t, sup=t ** (-xi), l1=t ** (-1.0) * np.log(np.maximum(t, 1.001)) ** (1.0 / (xi * (q - 1.0))),
        rho=1.0 + np.log(np.maximum(t, 1.0)), grad=t ** (-2.0 * xi),
        absorbed=np.linspace(0.1, 0.5, t.size))
    out = verdict(ProblemParams(3.0, 2.0, 1), s)
    lookup = {v.quantity: v for v in out}
    assert lookup["rho"].predicted == "log" and lookup["rho"].passed
    assert lookup["l1_excess"].predicted == "power_log" and lookup["l1_excess"].passed


def test_verdict_steeper_decay_passes_one_sided_bound():
    # an upper-bound law accepts faster-than-predicted decay
    t = geom_times()
    s = synthetic_series(t, sup=t ** -0.5, l1=t ** -3.0,
                         rho=np.full_like(t, 2.0), grad=t ** -1.0,
                         absorbed=np.linspace(0.1, 0.5, t.size))
    out = verdict(ProblemParams(3.0, 1.5, 1), s, h=0.01)
    lookup = {v.quantity: v for v in out}
    assert lookup["l1_excess"].passed


def test_verdict_series_too_short():
    t = geom_times(1.0, 4.0)
    s = synthetic_series(t, t ** -0.5, t ** -1.0, t, t, np.zeros_like(t))
    with pytest.raises(FitError):
        verdict(ProblemParams(3.0, 1.5, 1), s)


def test_verdict_json_lines():
    t = geom_times()
    s = synthetic_series(t, sup=t ** -0.25, l1=np.full_like(t, 0.8),
                         rho=2.0 * t ** 0.25, grad=t ** -0.5,
                         absorbed=np.zeros_like(t))
    out = verdict(ProblemParams(3.0, 3.0, 1), s)
    text = fit.verdicts_to_json(out)
    import json
    for line in text.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"quantity", "predicted", "fitted", "r2", "window", "pass"}
