"""Power, logarithmic, and plateau law fitting on recorded time series,
plus the table that turns regime predictions into pass/fail verdicts."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.exceptions import RankWarning

from .exponents import (ProblemParams, Regime, classify_regime,
                        compute_exponents, predicted_laws)

DEFAULT_EXPONENT_TOL = 0.1
DEFAULT_WINDOW_OCTAVES = 3.0
COMPOSITE_SLOPE_TOL = 0.2


class FitError(ValueError):
    pass


class ConstantAbscissaError(FitError):
    """The composite law's abscissa is constant on the fit window, so the
    regression slope is undefined."""


@dataclass(frozen=True)
class FitResult:
    kind: str                 # power | log_growth | plateau | composite
    exponent: float | None    # power exponent / log slope / composite slope
    amplitude: float | None   # prefactor / intercept / plateau level
    r2: float
    window: tuple
    passed: bool | None = None

    def __str__(self):
        return f"{self.kind}(exp={self.exponent}, amp={self.amplitude}, r2={self.r2:.4f})"


def _window_mask(t, window):
    t = np.asarray(t, dtype=float)
    if window is None:
        return np.ones(t.shape, dtype=bool)
    lo, hi = window
    return (t >= lo * (1.0 - 1e-12)) & (t <= hi * (1.0 + 1e-12))


def _r2(y, yhat):
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def _windowed(t, window, *columns, min_size=6):
    """t and each column restricted to the window, as float arrays, with
    at least min_size samples."""
    t = np.asarray(t, dtype=float)
    mask = _window_mask(t, window)
    t = t[mask]
    if t.size < min_size:
        raise FitError(f"need at least {min_size} samples in window, have {t.size}")
    return (t,) + tuple(np.asarray(c, dtype=float)[mask] for c in columns)


def _line(x, y):
    """Least-squares line y ~ slope x + intercept: (slope, intercept, r2).
    A near-singular regression, which numpy only warns about, raises
    FitError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankWarning)
        try:
            slope, intercept = np.polyfit(x, y, 1)
        except RankWarning as exc:
            raise FitError(f"near-singular least-squares fit: {exc}") from None
    return float(slope), float(intercept), _r2(y, slope * x + intercept)


def fit_power(t, y, window=None) -> FitResult:
    """Least-squares line on (ln t, ln y); the exponent is the slope."""
    t, y = _windowed(t, window, y)
    if np.any(y <= 0.0):
        raise FitError("fit_power requires positive samples in the window")
    slope, intercept, r2 = _line(np.log(t), np.log(y))
    return FitResult("power", slope, math.exp(intercept), r2, (float(t[0]), float(t[-1])))


def fit_log_growth(t, y, window=None) -> FitResult:
    """Least-squares line on (ln t, y); the slope is the log-growth rate."""
    t, y = _windowed(t, window, y)
    slope, intercept, r2 = _line(np.log(t), y)
    return FitResult("log_growth", slope, intercept, r2, (float(t[0]), float(t[-1])))


def plateau_test(t, y, window=None, rel_tol=0.05) -> FitResult:
    """Pass when the total relative variation over the window is small."""
    t, y = _windowed(t, window, y, min_size=4)
    top = float(y.max())
    variation = 0.0 if top == 0.0 else (top - float(y.min())) / top
    win = (float(t[0]), float(t[-1]))
    return FitResult("plateau", None, float(y[-1]), 1.0, win,
                     passed=variation <= rel_tol)


def fit_composite(t, y, abscissa, window=None) -> FitResult:
    """Regress ln y on the log of a predicted composite law; slope near 1
    confirms the composite shape."""
    t, y, a = _windowed(t, window, y, abscissa)
    if np.any(y <= 0.0) or np.any(a <= 0.0):
        raise FitError("composite fit requires positive samples")
    la = np.log(a)
    if np.ptp(la) == 0.0:
        raise ConstantAbscissaError("composite abscissa is constant on the window")
    slope, intercept, r2 = _line(la, np.log(y))
    return FitResult("composite", slope, intercept, r2, (float(t[0]), float(t[-1])),
                     passed=abs(slope - 1.0) <= COMPOSITE_SLOPE_TOL)


@dataclass(frozen=True)
class Verdict:
    quantity: str
    predicted: str
    fitted: str
    r2: float
    window: tuple
    passed: bool

    def to_json(self):
        return json.dumps({
            "quantity": self.quantity,
            "predicted": self.predicted,
            "fitted": self.fitted,
            "r2": round(self.r2, 6),
            "window": list(self.window),
            "pass": self.passed,
        })


def verdicts_to_json(verdicts):
    return "\n".join(v.to_json() for v in verdicts) + "\n"


def default_window(t):
    """Last DEFAULT_WINDOW_OCTAVES recorded octaves."""
    t = np.asarray(t, dtype=float)
    hi = float(t[-1])
    return (hi / 2.0 ** DEFAULT_WINDOW_OCTAVES, hi)


def _exponent_verdict(name, fitted: FitResult, predicted, tol, one_sided):
    if one_sided:
        ok = fitted.exponent <= predicted + tol
        pred = f"power(<= {predicted:.6g})"
    else:
        ok = abs(fitted.exponent - predicted) <= tol
        pred = f"power({predicted:.6g})"
    return Verdict(name, pred, f"power({fitted.exponent:.6g})", fitted.r2,
                   fitted.window, bool(ok))


def _composite_verdict(kind, t, l1, model, window):
    try:
        fitted = fit_composite(t, l1, model, window)
    except ConstantAbscissaError:
        return Verdict("l1_excess", kind,
                       "composite_undefined(constant abscissa on window)",
                       0.0, window, False)
    return Verdict("l1_excess", kind, f"composite_slope({fitted.exponent:.6g})",
                   fitted.r2, fitted.window, bool(fitted.passed))


def verdict(params: ProblemParams, series, h=None, tol=DEFAULT_EXPONENT_TOL):
    """One pass/fail verdict per law applicable to the regime of params.

    Law selection is table-driven from the regime alone.  Upper-bound laws
    pass one-sided (fitted exponent may be steeper); the sup-norm decay and
    the pure-diffusion support growth are treated as sharp (two-sided).
    """
    t = np.asarray(series.t, dtype=float)
    tpos = t[t > 0.0]
    if tpos.size < 10 or tpos[-1] < 8.0 * tpos[0]:
        first = float(tpos[0]) if tpos.size else 0.0
        raise FitError(
            f"series too short for verdicts: need t_end >= {8.0 * first:.6g} "
            f"(3 octaves past the first positive record) and >= 10 samples"
        )
    window = default_window(t)
    regime = classify_regime(params)
    ex = compute_exponents(params)
    laws = predicted_laws(params)
    pure_diffusion = float(series.column("absorbed")[-1]) == 0.0
    out = []

    sup = series.column("sup_excess")
    fit_sup = fit_power(t, sup, window)
    out.append(_exponent_verdict("sup_excess", fit_sup, laws.sup_exponents[0],
                                 tol, one_sided=False))

    grad = series.column("grad_beta")
    if np.all(grad[_window_mask(t, window)] > 0.0):
        fit_grad = fit_power(t, grad, window)
        out.append(_exponent_verdict("grad_beta", fit_grad,
                                     laws.grad_exponents[0], tol, one_sided=True))

    rho = series.column("rho")
    if laws.support.kind == "bounded":
        lo_mask = _window_mask(t, window)
        growth = float(rho[-1]) - float(rho[lo_mask][0])
        cap = 3.0 * h if h is not None else 0.02 * max(float(rho[-1]), 1e-300)
        out.append(Verdict("rho", "bounded", f"growth({growth:.6g})", 1.0,
                           window, bool(growth <= cap)))
    elif laws.support.kind == "log":
        fit_rho = fit_log_growth(t, rho, window)
        ok = fit_rho.exponent > 0.0 and fit_rho.r2 >= 0.9
        out.append(Verdict("rho", "log", f"log_growth({fit_rho.exponent:.6g})",
                           fit_rho.r2, fit_rho.window, bool(ok)))
    else:
        fit_rho = fit_power(t, rho, window)
        sharp = pure_diffusion and regime is Regime.DIFFUSION_DOMINATED
        out.append(_exponent_verdict("rho", fit_rho, laws.support.exponent,
                                     tol / 2.0, one_sided=not sharp))

    l1 = series.column("l1_excess")
    if laws.l1.kind == "power":
        fit_l1 = fit_power(t, l1, window)
        out.append(_exponent_verdict("l1_excess", fit_l1, laws.l1.exponent,
                                     tol, one_sided=True))
    elif laws.l1.kind == "power_log":
        q, xi = params.q, ex.xi
        # the model is evaluated on the full series (including a possible
        # t = 0 initial record) and only windowed inside fit_composite
        tp = np.maximum(np.asarray(t, dtype=float), 1e-300)
        model = tp ** (-1.0 / (q - 1.0)) * np.log(np.maximum(tp, 1.0 + 1e-9)) ** (
            1.0 / (xi * (q - 1.0)))
        out.append(_composite_verdict("power_log", t, l1, model, window))
    elif laws.l1.kind == "inverse_log_power":
        # constant, hence undefined, while the whole window lies in t <= 1
        model = np.log(np.maximum(t, 1.0 + 1e-9)) ** (-1.0 / (params.q - 1.0))
        out.append(_composite_verdict("inverse_log_power", t, l1, model, window))
    else:  # positive_limit
        res = plateau_test(t, l1, window, rel_tol=0.05)
        ok = bool(res.passed) and res.amplitude > 0.0
        out.append(Verdict("l1_excess", "positive_limit",
                           f"plateau({res.amplitude:.6g})", res.r2,
                           res.window, ok))
    return out
