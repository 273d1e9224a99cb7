import json
import warnings

import numpy as np
import pytest

from gradabs import observe, solver
from gradabs.exponents import ProblemParams, alpha_p
from gradabs.fit import FitError, fit_composite, fit_log_growth, fit_power, verdict


def geom_times(t0=0.0625, t1=256.0):
    n = int(round(4 * np.log2(t1 / t0))) + 1
    return t0 * 2.0 ** (0.25 * np.arange(n))


def whole(t):
    """The fit window that holds every sample."""
    return (t[0], t[-1])


def test_fit_power_exact():
    t = geom_times(1.0, 512.0)[:10]
    res = fit_power(t, 5.0 * t ** -0.25, whole(t))
    assert res.exponent == pytest.approx(-0.25, abs=1e-12)
    assert res.r2 == pytest.approx(1.0)


def test_fit_power_amplitude_invariance():
    t = geom_times(1.0, 64.0)
    y = t ** -0.7 * (1.0 + 0.05 * np.sin(np.log(t)))
    assert fit_power(t, y, whole(t)).exponent == pytest.approx(
        fit_power(t, 3.0 * y, whole(t)).exponent)


def test_fit_power_slow_correction():
    t = geom_times(16.0, 256.0)
    res = fit_power(t, t ** -0.5 * (1.0 + 1.0 / t), (16.0, 256.0))
    assert abs(res.exponent + 0.5) <= 0.03


def test_fit_power_errors():
    t = geom_times(1.0, 2.0)
    with pytest.raises(FitError):
        fit_power(t[:4], t[:4], whole(t))
    t = geom_times(1.0, 64.0)
    y = t - 4.0     # contains non-positive values
    with pytest.raises(FitError):
        fit_power(t, y, whole(t))
    with pytest.raises(FitError):
        fit_power(t, t, (100.0, 200.0))     # no sample in the window


def test_fit_log_growth_exact():
    t = geom_times(1.0, 256.0)
    res = fit_log_growth(t, 3.0 + 2.0 * np.log(t), whole(t))
    assert res.exponent == pytest.approx(2.0, abs=1e-12)
    res = fit_log_growth(t, np.full_like(t, 7.0), whole(t))
    assert res.exponent == pytest.approx(0.0, abs=1e-12)


def l1_verdict(params, t, l1, absorbed):
    """verdict's l1_excess verdict on a series whose other columns are
    those of test_verdict_diffusion_dominated."""
    s = synthetic_series(t, sup=t ** -0.25, l1=l1, rho=2.0 * t ** 0.25,
                         grad=t ** -0.5, absorbed=absorbed)
    return {v.quantity: v for v in verdict(params, s)}["l1_excess"]


def test_plateau():
    # a positive limit: diffusion-dominated, judged on [t_end/8, t_end]
    params = ProblemParams(3.0, 3.0, 1)
    t = geom_times()
    off = np.zeros_like(t)
    assert l1_verdict(params, t, np.full_like(t, 2.0), off).passed
    assert not l1_verdict(params, t, 1.0 / t, off).passed
    # the relative variation on the window may reach PLATEAU_REL_TOL = 0.05,
    # no more
    ramp = np.clip((t - t[-1] / 8.0) / (t[-1] - t[-1] / 8.0), 0.0, 1.0)
    assert l1_verdict(params, t, 1.0 - 0.049 * ramp, off).passed
    assert not l1_verdict(params, t, 1.0 - 0.051 * ramp, off).passed
    # a plateau below LIMIT_LEVEL = 0.2 times the first record
    assert not l1_verdict(params, t, np.where(t < 8.0, 10.0, 1.9), off).passed
    assert l1_verdict(params, t, np.where(t < 8.0, 10.0, 2.1), off).passed
    # a window of 3 samples is too short to judge
    t = np.append(geom_times(0.0625, 4.0), [40.0, 48.0, 64.0])
    with pytest.raises(FitError, match="samples in window, have 3"):
        l1_verdict(params, t, np.full_like(t, 2.0), np.zeros_like(t))


def test_fit_composite():
    t = geom_times(4.0, 256.0)
    model = t ** -1.0 * np.log(t) ** 3
    res = fit_composite(t, 2.0 * model, model, whole(t))
    assert res.exponent == pytest.approx(1.0, abs=1e-12)
    # at q = p - 1 = 2 the l1_excess law is this composite, t^-1 (log t)^3;
    # the slope against it may miss 1 by COMPOSITE_SLOPE_TOL = 0.2, no more
    params = ProblemParams(3.0, 2.0, 1)
    t = geom_times()
    model = t ** -1.0 * np.log(np.maximum(t, 1.0 + 1e-9)) ** 3
    on = np.linspace(0.1, 0.5, t.size)
    assert l1_verdict(params, t, 2.0 * model, on).passed
    assert l1_verdict(params, t, 2.0 * model ** 1.19, on).passed
    assert not l1_verdict(params, t, 2.0 * model ** 1.21, on).passed


def test_fit_composite_rejects_constant_abscissa():
    t = geom_times(4.0, 256.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="constant"):
            fit_composite(t, 1.0 / t, np.full_like(t, 2.0), whole(t))


def test_verdict_on_constant_composite_abscissa():
    # the sweep cell p = 3.5, q = 3 to t = 1/2: the inverse-log law's
    # abscissa log(max(t, 1 + 1e-9)) is constant on the window [1/16, 1/2]
    cfg = solver.RunConfig(3.5, 3.0, 1, h=0.01, L=8.0, t_end=0.5)
    _, series = solver.run(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = verdict(cfg.params(), series, h=cfg.h)
    lookup = {v.quantity: v for v in out}
    l1 = lookup["l1_excess"]
    assert l1.predicted == "inverse_log_power"
    assert l1.fitted == "composite_undefined(constant abscissa on window)"
    assert l1.r2 == 0.0 and not l1.passed
    assert sum(v.passed for v in out) == 4 and len(out) == 5


@pytest.mark.filterwarnings("always::numpy.exceptions.RankWarning")
def test_near_singular_fit_raises_fit_error():
    # numpy's own filter only prints RankWarning; the fit must raise, so that
    # a run's report carries the failure as its verdict_error
    t = 2.0 * (1.0 + 1e-15 * np.arange(8))    # ln t constant to roundoff
    y = 1.0 + np.arange(8.0)
    for fitter in (fit_power, fit_log_growth):
        with pytest.raises(FitError, match="near-singular"):
            fitter(t, y, whole(t))


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
    assert names == ["sup_excess", "grad_sup", "rho", "l1_excess"]
    assert all(v.passed for v in out)


def test_verdict_absorption_dominated():
    t = geom_times()
    s = synthetic_series(t, sup=t ** -0.5, l1=t ** -2.0,
                         rho=np.full_like(t, 2.0), grad=t ** -1.0,
                         absorbed=np.linspace(0.1, 0.5, t.size))
    out = verdict(ProblemParams(3.0, 1.5, 1), s, h=0.01)
    assert all(v.passed for v in out)
    lookup = {v.quantity: v for v in out}
    assert lookup["rho"].predicted == "bounded(growth <= 0.03)"


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
    for v in out:
        rec = json.loads(json.dumps(v.as_dict()))
        assert list(rec) == ["quantity", "predicted", "fitted", "r2", "window", "pass"]
        assert rec["pass"] is v.passed and rec["window"] == list(v.window)


def absorbing_series(t, **columns):
    """A series with absorption on; keyword arguments replace its default
    columns."""
    cols = dict(sup=t ** -0.5, l1=t ** -2.0, rho=np.full_like(t, 2.0),
                grad=t ** -1.0, absorbed=np.linspace(0.1, 0.5, t.size))
    cols.update(columns)
    return synthetic_series(t, **cols)


def test_pure_diffusion_series_gets_the_barenblatt_row():
    # (p, q) = (3, 2) is critical absorption, but nothing was absorbed
    t = geom_times()
    s = synthetic_series(t, sup=t ** -0.25, l1=np.full_like(t, 0.8),
                         rho=2.0 * t ** 0.25, grad=t ** -0.5,
                         absorbed=np.zeros_like(t))
    out = verdict(ProblemParams(3.0, 2.0, 1), s)
    assert [(v.quantity, v.predicted) for v in out] == [
        ("sup_excess", "power(-0.25 +- 0.08)"),
        ("grad_sup", "power(<= -0.5 + 0.08)"),
        ("rho", "power(0.25 +- 0.04)"),
        ("l1_excess", "positive_limit(>= 0.16)")]
    assert all(v.passed for v in out)


def test_sup_law_is_a_bound_except_when_diffusion_dominates():
    t = geom_times()
    steep = verdict(ProblemParams(3.0, 1.5, 1),
                    absorbing_series(t, sup=t ** -2.0), h=0.01)
    assert steep[0].quantity == "sup_excess" and steep[0].passed
    s = absorbing_series(t, sup=t ** -0.5, l1=np.full_like(t, 0.8),
                         rho=2.0 * t ** 0.25)
    sharp = verdict(ProblemParams(3.0, 3.0, 1), s)
    assert sharp[0].predicted == "power(-0.25 +- 0.08)" and not sharp[0].passed


def test_grad_beta_law_where_beta_is_the_absorption_exponent():
    t = geom_times()
    for p, q in ((3.0, 1.5), (3.0, 2.0), (3.0, 2.5), (4.0, 2.0), (4.0, 3.0)):
        params = ProblemParams(p, q, 1)
        amplitude = (q - 1.0) ** ((q - 1.0) / q) / q
        grad = 0.9 * amplitude * t ** (-1.0 / q)
        out = {v.quantity: v for v in
               verdict(params, absorbing_series(t, grad=grad), h=0.01)}
        if (q - 1.0) / q < alpha_p(p, 1):
            assert "grad_beta" not in out
            continue
        assert out["grad_beta"].passed
        grad[5] *= 1.25       # one record past the 1.10 slack
        out = {v.quantity: v for v in
               verdict(params, absorbing_series(t, grad=grad), h=0.01)}
        assert not out["grad_beta"].passed
