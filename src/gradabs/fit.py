"""Power, logarithmic and composite law fits on recorded time series,
and `verdict`, which judges a series by its row of the law table
(`exponents.predicted_laws`).  A fit only fits; `verdict` is the one place
where a law passes or fails."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.exceptions import RankWarning

from .exponents import ProblemParams, predicted_laws, xi_exponent

EXPONENT_TOL = 0.08
DEFAULT_WINDOW_OCTAVES = 3.0
BOUNDED_SPAN_OCTAVES = 5.0
AMPLITUDE_SLACK = 1.10
LIMIT_LEVEL = 0.2
COMPOSITE_SLOPE_TOL = 0.2
PLATEAU_REL_TOL = 0.05


class FitError(ValueError):
    pass


class ConstantAbscissaError(FitError):
    """The composite law's abscissa is constant on the fit window, so the
    regression slope is undefined."""


@dataclass(frozen=True)
class FitResult:
    exponent: float    # power exponent / log slope / composite slope
    r2: float
    window: tuple


def _window_mask(t, window):
    lo, hi = window
    return (t >= lo * (1.0 - 1e-12)) & (t <= hi * (1.0 + 1e-12))


def _windowed(t, window, *columns):
    """t and each column restricted to the window, as float arrays, with
    at least 6 samples."""
    t = np.asarray(t, dtype=float)
    mask = _window_mask(t, window)
    t = t[mask]
    if t.size < 6:
        raise FitError(f"need at least 6 samples in window, have {t.size}")
    return (t,) + tuple(np.asarray(c, dtype=float)[mask] for c in columns)


def _line(x, y):
    """Least-squares line y ~ slope x + intercept: (slope, r2), with r2
    clipped to [0, 1] and 1 for constant y.  A near-singular regression,
    which numpy only warns about, raises FitError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankWarning)
        try:
            slope, intercept = np.polyfit(x, y, 1)
        except RankWarning as exc:
            raise FitError(f"near-singular least-squares fit: {exc}") from None
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return float(slope), 1.0
    return float(slope), max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def fit_power(t, y, window) -> FitResult:
    """Least-squares line on (ln t, ln y); the exponent is the slope."""
    t, y = _windowed(t, window, y)
    if np.any(y <= 0.0):
        raise FitError("fit_power requires positive samples in the window")
    slope, r2 = _line(np.log(t), np.log(y))
    return FitResult(slope, r2, (float(t[0]), float(t[-1])))


def fit_log_growth(t, y, window) -> FitResult:
    """Least-squares line on (ln t, y); the slope is the log-growth rate."""
    t, y = _windowed(t, window, y)
    slope, r2 = _line(np.log(t), y)
    return FitResult(slope, r2, (float(t[0]), float(t[-1])))


def fit_composite(t, y, abscissa, window) -> FitResult:
    """Regress ln y on the log of a predicted composite law; a slope of 1
    is the composite shape."""
    t, y, a = _windowed(t, window, y, abscissa)
    if np.any(y <= 0.0) or np.any(a <= 0.0):
        raise FitError("composite fit requires positive samples")
    la = np.log(a)
    if np.ptp(la) == 0.0:
        raise ConstantAbscissaError("composite abscissa is constant on the window")
    slope, r2 = _line(la, np.log(y))
    return FitResult(slope, r2, (float(t[0]), float(t[-1])))


@dataclass(frozen=True)
class Verdict:
    quantity: str
    predicted: str
    fitted: str
    r2: float
    window: tuple
    passed: bool

    def as_dict(self):
        """The record a report or `gradabs fit` writes as JSON."""
        return {
            "quantity": self.quantity,
            "predicted": self.predicted,
            "fitted": self.fitted,
            "r2": round(self.r2, 6),
            "window": list(self.window),
            "pass": self.passed,
        }


def absorbing(series):
    """Whether series absorbed anything, which picks its law-table row."""
    return bool(np.any(series.column("absorbed")))


def verdict(params: ProblemParams, series, h=None):
    """One pass/fail verdict per law in the row of the law table
    (`predicted_laws`) that applies to params and series; the row is the
    PureDiffusion one when nothing was absorbed (`absorbing`).

    Power laws are fitted on the last DEFAULT_WINDOW_OCTAVES recorded
    octaves: a sharp law passes within EXPONENT_TOL of its exponent on
    either side, a bound passes any steeper decay or slower growth up to
    EXPONENT_TOL past it; the support radius gets EXPONENT_TOL/2.  A
    bounded support grows by at most 3h (2 % of its final radius without
    h) over the last BOUNDED_SPAN_OCTAVES octaves.  An amplitude bound must
    hold, with AMPLITUDE_SLACK, at every record t > 0.  Log growth needs a
    positive slope with r2 >= 0.9, and a composite law a log-log slope
    within COMPOSITE_SLOPE_TOL of 1 against its predicted shape.  A positive
    limit varies by at most PLATEAU_REL_TOL of its top on the window and
    ends at no less than LIMIT_LEVEL times the first record.
    """
    t = series.t
    tpos = t[t > 0.0]
    if tpos.size < 10 or tpos[-1] < 8.0 * tpos[0]:
        first = float(tpos[0]) if tpos.size else 0.0
        raise FitError(
            f"series too short for verdicts: need t_end >= {8.0 * first:.6g} "
            f"(3 octaves past the first positive record) and >= 10 samples"
        )
    window = (float(t[-1]) / 2.0 ** DEFAULT_WINDOW_OCTAVES, float(t[-1]))
    laws = predicted_laws(params, absorbing(series))
    out = []
    for name, law in laws.items():
        y = series.column(name)
        if law.kind in ("power", "power_bound"):
            fitted = fit_power(t, y, window)
            tol = EXPONENT_TOL / 2.0 if name == "rho" else EXPONENT_TOL
            if law.kind == "power_bound":
                predicted = f"power(<= {law.exponent:.6g} + {tol:g})"
                ok = fitted.exponent <= law.exponent + tol
            else:
                predicted = f"power({law.exponent:.6g} +- {tol:g})"
                ok = abs(fitted.exponent - law.exponent) <= tol
            out.append(Verdict(name, predicted, f"power({fitted.exponent:.6g})",
                               fitted.r2, fitted.window, bool(ok)))
        elif law.kind == "amplitude_bound":
            worst = float(np.max(y[t > 0.0] * tpos ** -law.exponent))
            bound = AMPLITUDE_SLACK * law.amplitude
            out.append(Verdict(name, f"amplitude(<= {bound:.6g})",
                               f"amplitude({worst:.6g})", 1.0,
                               (float(tpos[0]), float(t[-1])), worst <= bound))
        elif law.kind == "bounded":
            span = _window_mask(t, (t[-1] / 2.0 ** BOUNDED_SPAN_OCTAVES, t[-1]))
            growth = float(y[-1] - y[span][0])
            cap = 3.0 * h if h is not None else 0.02 * max(float(y[-1]), 1e-300)
            out.append(Verdict(name, f"bounded(growth <= {cap:.6g})",
                               f"growth({growth:.6g})", 1.0,
                               (float(t[span][0]), float(t[-1])), growth <= cap))
        elif law.kind == "log":
            fitted = fit_log_growth(t, y, window)
            ok = fitted.exponent > 0.0 and fitted.r2 >= 0.9
            out.append(Verdict(name, "log", f"log_growth({fitted.exponent:.6g})",
                               fitted.r2, fitted.window, bool(ok)))
        elif law.kind in ("power_log", "inverse_log_power"):
            # the model is evaluated on the full series (including a possible
            # t = 0 initial record) and only windowed inside fit_composite;
            # its log t is constant, and the slope undefined, while the whole
            # window lies in t <= 1
            log_t = np.log(np.maximum(t, 1.0 + 1e-9))
            if law.kind == "power_log":
                model = np.maximum(t, 1e-300) ** law.exponent * log_t ** (
                    -law.exponent / xi_exponent(params.q, params.N))
            else:
                model = log_t ** law.exponent
            try:
                fitted = fit_composite(t, y, model, window)
            except ConstantAbscissaError:
                out.append(Verdict(name, law.kind,
                                   "composite_undefined(constant abscissa on window)",
                                   0.0, window, False))
                continue
            ok = abs(fitted.exponent - 1.0) <= COMPOSITE_SLOPE_TOL
            out.append(Verdict(name, law.kind, f"composite_slope({fitted.exponent:.6g})",
                               fitted.r2, fitted.window, bool(ok)))
        else:  # positive_limit
            tw, yw = _windowed(t, window, y)
            top = float(yw.max())
            variation = 0.0 if top == 0.0 else (top - float(yw.min())) / top
            last = float(yw[-1])
            level = LIMIT_LEVEL * float(y[0])
            ok = variation <= PLATEAU_REL_TOL and last > 0.0 and last >= level
            out.append(Verdict(name, f"positive_limit(>= {level:.6g})",
                               f"plateau({last:.6g})", 1.0,
                               (float(tw[0]), float(tw[-1])), ok))
    return out
