"""Closed-form ingredients: regularized coefficients, initial-data
profiles, and the Barenblatt reference solution of the pure slow-diffusion
equation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import InvalidParams, ProblemParams, eta_exponent


# ---------------------------------------------------------------------------
# regularized coefficients


class Coefficient:
    """The constants of (eps^2 + s)^k - eps^(2k) on an array, as 0-d float64
    arrays.  A caller that evaluates a coefficient on every step builds them
    once: a ufunc reads a 0-d array operand for less than a Python float,
    which it converts on every call.  The power is chosen as numpy's
    `x **= k` chooses it for a Python float k, so the bits are those of the
    plain formula: np.sqrt at k = 1/2, no call at k = 1, np.square at k = 2,
    and np.power with the 0-d k at any other k.

    A row k, one exponent per column of an (m, len(k)) array, always takes
    np.power, and holds its exponents and offsets as tables of `rows` copies
    of the row, of which `window(m)` takes the first m.  numpy takes np.sqrt
    or np.square for an exponent operand of stride 0, which the row of a
    lone column would be, so the table keeps a column's bits independent of
    the other columns; and a ufunc reads a contiguous table for a fraction
    of the cost of a broadcast row.

    The offset eps^(2k) is taken by the coefficient's own power, applied to
    an array of eps^2 as it is applied to eps^2 + s, so that each
    coefficient is exactly 0 at s = 0: Python's ** and numpy's np.power can
    round the same power apart."""

    __slots__ = ("e2", "offset", "power", "exponent")

    def __init__(self, eps, k, rows=1):
        e2 = eps * eps
        self.e2 = np.array(e2)
        if np.ndim(k):
            table = np.repeat(np.array([k], dtype=float), rows, axis=0)
            self.power, self.exponent = np.power, (table,)
            self.offset = np.full(table.shape, e2)
        else:
            # power(out, *exponent, out) is out **= k; at k = 1 there is no call
            special = {0.5: np.sqrt, 1.0: None, 2.0: np.square}
            if k in special:
                self.power, self.exponent = special[k], ()
            else:
                self.power, self.exponent = np.power, (np.array(k),)
            self.offset = np.array(e2)
        if self.power is not None:
            self.power(self.offset, *self.exponent, self.offset)

    def window(self, m):
        """The coefficient on the first m rows: a row k's tables cut to m rows."""
        if not self.exponent or not self.exponent[0].ndim:
            return self
        cut = object.__new__(Coefficient)
        cut.e2, cut.power = self.e2, self.power
        cut.offset, cut.exponent = self.offset[:m], (self.exponent[0][:m],)
        return cut


def a_eps(s, eps, p, out=None, consts=None):
    """Regularized diffusivity (eps^2 + s)^((p-2)/2), s = |grad u|^2.
    With an array `out`, the result is written into it through `consts`,
    which is then Coefficient(eps, (p - 2) / 2)."""
    if out is None:
        return (eps * eps + s) ** (0.5 * (p - 2.0))
    np.add(consts.e2, s, out)
    if consts.power is not None:
        consts.power(out, *consts.exponent, out)
    return out


def b_eps(s, eps, q, out=None, consts=None):
    """Regularized absorption rate (eps^2 + s)^(q/2) - eps^q; vanishes at s=0.
    With an array `out`, the result is written into it through `consts`,
    which is then Coefficient(eps, q / 2)."""
    # eps^q is evaluated as (eps^2)^(q/2), so the difference is exactly 0 at s = 0
    if out is None:
        e2, k = eps * eps, 0.5 * q
        return (e2 + s) ** k - e2 ** k
    np.add(consts.e2, s, out)
    if consts.power is not None:
        consts.power(out, *consts.exponent, out)
    np.subtract(out, consts.offset, out)
    return out


def effective_diffusivity(s, eps, p):
    """Derivative of g -> a_eps(g^2) g at g = sqrt(s):
    (eps^2+s)^((p-4)/2) (eps^2 + (p-1) s).  Governs the explicit CFL limit."""
    e2 = eps * eps
    return (e2 + s) ** (0.5 * (p - 4.0)) * (e2 + (p - 1.0) * s)


# ---------------------------------------------------------------------------
# Barenblatt solution of d_t w = div(|grad w|^{p-2} grad w)


def gamma_p_constant(p, N):
    """Profile constant making the self-similar source solution exact:
    gamma_p = ((p-2)/p) * eta^(1/(p-1)).  The tests check it against the
    PDE residual at every (p, N) the battery, the benchmark and the tests
    evaluate."""
    if not (p > 2.0 and N >= 1):
        raise InvalidParams(f"need p > 2 and N >= 1, got p={p}, N={N}")
    return ((p - 2.0) / p) * eta_exponent(p, N) ** (1.0 / (p - 1.0))


def barenblatt_value(t, r, p, N):
    """t^{-N eta} (1 - gamma_p (r/t^eta)^{p/(p-1)})_+^{(p-1)/(p-2)} for t > 0."""
    if np.any(np.asarray(t) <= 0.0):
        raise InvalidParams("Barenblatt solution requires t > 0")
    gamma, eta, t = gamma_p_constant(p, N), eta_exponent(p, N), np.asarray(t, dtype=float)
    s = np.asarray(r, dtype=float) * t ** (-eta)
    core = np.maximum(1.0 - gamma * s ** (p / (p - 1.0)), 0.0)
    return t ** (-N * eta) * core ** ((p - 1.0) / (p - 2.0))


def barenblatt_support_radius(t, p, N):
    """Edge of the support: gamma_p^{-(p-1)/p} t^eta."""
    if np.any(np.asarray(t) <= 0.0):
        raise InvalidParams("Barenblatt solution requires t > 0")
    gamma = gamma_p_constant(p, N)
    return gamma ** (-(p - 1.0) / p) * np.asarray(t, dtype=float) ** eta_exponent(p, N)


# ---------------------------------------------------------------------------
# initial-data profiles
#
# Every profile has a start time t0, value(r, params), support_radius(params)
# and feature_width(params), the narrowest width the grid must resolve.


@dataclass(frozen=True)
class Bump:
    """Smooth compact bump H (1 - (r/R0)^2)_+^m, C^1 for m >= 2."""

    R0: float = 1.0
    H: float = 1.0
    m: float = 2.0
    t0 = 0.0

    def __post_init__(self):
        if not (self.R0 > 0.0 and self.m > 0.0):
            raise InvalidParams("bump needs R0 > 0 and m > 0")

    def value(self, r, params):
        r = np.asarray(r, dtype=float)
        return self.H * np.maximum(1.0 - (r / self.R0) ** 2, 0.0) ** self.m

    def support_radius(self, params):
        return self.R0

    def feature_width(self, params):
        return self.R0


@dataclass(frozen=True)
class DeadCoreAnnulus:
    """Profile vanishing on {|x| <= R0}, supported in the annulus [R0, R1]."""

    R0: float = 2.0
    R1: float = 4.0
    H: float = 1.0
    t0 = 0.0

    def __post_init__(self):
        if not 0.0 < self.R0 < self.R1:
            raise InvalidParams("annulus needs 0 < R0 < R1")

    def value(self, r, params):
        r = np.asarray(r, dtype=float)
        w = self.R1 - self.R0
        hump = 4.0 * (r - self.R0) * (self.R1 - r) / (w * w)
        return self.H * np.maximum(hump, 0.0) ** 2

    def support_radius(self, params):
        return self.R1

    def feature_width(self, params):
        return self.R1 - self.R0


@dataclass(frozen=True)
class BarenblattAt:
    """The self-similar profile frozen at time t0."""

    t0: float = 1.0

    def value(self, r, params):
        return barenblatt_value(self.t0, r, params.p, params.N)

    def support_radius(self, params):
        return float(barenblatt_support_radius(self.t0, params.p, params.N))

    def feature_width(self, params):
        return self.support_radius(params)


def parse_profile(spec):
    """Parse a CLI profile string, e.g. 'bump:R0=1,H=1,m=2',
    'annulus:R0=2,R1=4,H=1', 'barenblatt:t0=1'."""
    name, _, rest = spec.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise InvalidParams(f"bad profile option {item!r} in {spec!r}")
            try:
                value = float(val)
            except ValueError:
                raise InvalidParams(f"profile option {item!r} in {spec!r} "
                                    f"is not a number") from None
            if not math.isfinite(value):
                raise InvalidParams(f"profile option {item!r} in {spec!r} is not finite")
            key = key.strip()
            if key in kwargs:
                raise InvalidParams(f"repeated profile option {key!r} in {spec!r}")
            kwargs[key] = value
    try:
        if name == "bump":
            return Bump(**kwargs)
        if name == "annulus":
            return DeadCoreAnnulus(**kwargs)
        if name == "barenblatt":
            return BarenblattAt(**kwargs)
    except TypeError as exc:
        raise InvalidParams(f"bad profile options in {spec!r}: {exc}") from None
    raise InvalidParams(f"unknown profile {name!r}")


def sample_profile(profile, grid, params: ProblemParams):
    """Sample a profile at the cell centers' radii, rejecting grids
    that resolve the narrowest support feature with fewer than 8 cells and
    samples that are not finite or negative."""
    width = profile.feature_width(params)
    if width < 8.0 * grid.h:
        raise InvalidParams(
            f"profile feature of width {width} needs >= 8 cells, have h={grid.h}"
        )
    r = grid.centers()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # rejected below
        vals = np.asarray(profile.value(r, params), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidParams("profile produced non-finite samples")
    if np.any(vals < 0.0):
        raise InvalidParams("profile produced negative samples")
    return vals
