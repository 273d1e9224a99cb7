"""Closed-form ingredients: regularized coefficients, initial-data
profiles, and the Barenblatt reference solution of the pure slow-diffusion
equation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import InvalidParams, ProblemParams, eta_exponent


class GridResolutionError(ValueError):
    """Raised when a profile feature spans fewer than 8 cells."""


# ---------------------------------------------------------------------------
# regularized coefficients


def a_eps(s, eps, p, out=None):
    """Regularized diffusivity (eps^2 + s)^((p-2)/2), s = |grad u|^2.
    With an array `out`, the result is written into it."""
    # on an array **= works in place; a float is simply rebound
    out = eps * eps + s if out is None else np.add(eps * eps, s, out=out)
    out **= 0.5 * (p - 2.0)
    return out


def b_eps(s, eps, q, out=None):
    """Regularized absorption rate (eps^2 + s)^(q/2) - eps^q; vanishes at s=0.
    With an array `out`, the result is written into it."""
    e2 = eps * eps
    # evaluate eps^q as (eps^2)^(q/2) so the difference is exactly 0 at s = 0
    out = e2 + s if out is None else np.add(e2, s, out=out)
    out **= 0.5 * q
    out -= e2 ** (0.5 * q)
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
    gamma_p = ((p-2)/p) * eta^(1/(p-1)).

    Validated against the PDE residual at 20 sample points; a mismatch
    beyond 1e-6 aborts.
    """
    if not (p > 2.0 and N >= 1):
        raise InvalidParams(f"need p > 2 and N >= 1, got p={p}, N={N}")
    eta = eta_exponent(p, N)
    gp = ((p - 2.0) / p) * eta ** (1.0 / (p - 1.0))
    t = np.linspace(1.0, 2.0, 20)
    edge = barenblatt_support_radius(1.0, p, N, gamma=gp)
    r = np.linspace(0.05, 0.9, 20) * edge
    res = barenblatt_residual(t, r, p, N, gamma=gp)
    scale = max(1.0, float(np.max(np.abs(barenblatt_time_derivative(t, r, p, N, gamma=gp)))))
    if np.max(np.abs(res)) > 1e-6 * scale:
        raise RuntimeError(
            f"gamma_p closed form fails residual check for p={p}, N={N}"
        )
    return gp


def _profile_pieces(t, r, p, N, gamma):
    """Similarity variable and profile factor for the self-similar solution."""
    eta = eta_exponent(p, N)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    s = r * t ** (-eta)
    m = p / (p - 1.0)
    k = (p - 1.0) / (p - 2.0)
    core = np.maximum(1.0 - gamma * s ** m, 0.0)
    return eta, s, m, k, core


def barenblatt_value(t, r, p, N, gamma=None):
    """t^{-N eta} (1 - gamma (r/t^eta)^{p/(p-1)})_+^{(p-1)/(p-2)} for t > 0."""
    if np.any(np.asarray(t) <= 0.0):
        raise InvalidParams("Barenblatt solution requires t > 0")
    if gamma is None:
        gamma = gamma_p_constant(p, N)
    eta, s, m, k, core = _profile_pieces(t, r, p, N, gamma)
    return np.asarray(t, dtype=float) ** (-N * eta) * core ** k


def barenblatt_support_radius(t, p, N, gamma=None):
    """Edge of the support: gamma_p^{-(p-1)/p} t^eta."""
    if np.any(np.asarray(t) <= 0.0):
        raise InvalidParams("Barenblatt solution requires t > 0")
    if gamma is None:
        gamma = gamma_p_constant(p, N)
    eta = eta_exponent(p, N)
    return gamma ** (-(p - 1.0) / p) * np.asarray(t, dtype=float) ** eta


def barenblatt_time_derivative(t, r, p, N, gamma=None):
    """Analytic d/dt of the self-similar profile (zero outside the support)."""
    if gamma is None:
        gamma = gamma_p_constant(p, N)
    eta, s, m, k, core = _profile_pieces(t, r, p, N, gamma)
    t = np.asarray(t, dtype=float)
    # F(s) = core^k, F'(s) = -k gamma m s^(m-1) core^(k-1)
    F = core ** k
    Fp = -k * gamma * m * s ** (m - 1.0) * core ** (k - 1.0)
    return t ** (-N * eta - 1.0) * (-N * eta * F - eta * s * Fp)


def barenblatt_p_laplacian(t, r, p, N, gamma=None):
    """Analytic div(|grad .|^{p-2} grad .) of the profile, for any profile
    constant gamma.  With the flux G(s) = |F'|^{p-2} F' = -(k gamma m)^{p-1} s F,
    the radial divergence collapses to -(k gamma m)^{p-1} (N F + s F')."""
    if gamma is None:
        gamma = gamma_p_constant(p, N)
    eta, s, m, k, core = _profile_pieces(t, r, p, N, gamma)
    t = np.asarray(t, dtype=float)
    F = core ** k
    Fp = -k * gamma * m * s ** (m - 1.0) * core ** (k - 1.0)
    coef = (k * gamma * m) ** (p - 1.0)
    return -coef * t ** (-N * eta - 1.0) * (N * F + s * Fp)


def barenblatt_residual(t, r, p, N, gamma=None):
    """d_t B - Delta_p B with profile constant gamma.  Vanishes identically
    iff gamma equals the exact constant; the residual-nulling oracle."""
    return barenblatt_time_derivative(t, r, p, N, gamma=gamma) - barenblatt_p_laplacian(
        t, r, p, N, gamma=gamma
    )


@dataclass(frozen=True)
class BarenblattSolution:
    """Self-similar source solution for given (p, N), with gamma_p computed
    from the closed form and residual-validated on construction."""

    p: float
    N: int

    def __post_init__(self):
        object.__setattr__(self, "gamma_p", gamma_p_constant(self.p, self.N))
        object.__setattr__(self, "eta", eta_exponent(self.p, self.N))

    def value(self, t, r):
        return barenblatt_value(t, r, self.p, self.N, gamma=self.gamma_p)

    def support_radius(self, t):
        return barenblatt_support_radius(t, self.p, self.N, gamma=self.gamma_p)

    def time_derivative(self, t, r):
        return barenblatt_time_derivative(t, r, self.p, self.N, gamma=self.gamma_p)

    def sup_norm(self, t):
        return np.asarray(t, dtype=float) ** (-self.N * self.eta)


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

    def value(self, r, params=None):
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

    def value(self, r, params=None):
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
    """The self-similar profile frozen at time t0, scaled by M_scale."""

    t0: float = 1.0
    M_scale: float = 1.0

    def value(self, r, params):
        return self.M_scale * barenblatt_value(self.t0, r, params.p, params.N)

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
            kwargs[key.strip()] = float(val)
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
    """Sample a profile at cell centers (radial distance), rejecting grids
    that resolve the narrowest support feature with fewer than 8 cells."""
    width = profile.feature_width(params)
    if width < 8.0 * grid.h:
        raise GridResolutionError(
            f"profile feature of width {width} needs >= 8 cells, have h={grid.h}"
        )
    r = np.abs(grid.centers())
    vals = np.asarray(profile.value(r, params), dtype=float)
    if np.any(vals < 0.0):
        raise InvalidParams("profile produced negative samples")
    return vals
