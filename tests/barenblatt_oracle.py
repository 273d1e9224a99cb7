"""The residual oracle of the Barenblatt solution: the self-similar profile
with a trial constant gamma, its analytic time derivative and p-Laplacian.
The profile is an exact solution only at gamma = model.gamma_p_constant."""

import numpy as np

from gradabs.exponents import eta_exponent


def _profile_pieces(t, r, p, N, gamma):
    """The similarity variable s = r t^(-eta), the powers m = p/(p-1) and
    k = (p-1)/(p-2), and the profile factor core = (1 - gamma s^m)_+."""
    eta = eta_exponent(p, N)
    s = np.asarray(r, dtype=float) * np.asarray(t, dtype=float) ** (-eta)
    m = p / (p - 1.0)
    k = (p - 1.0) / (p - 2.0)
    core = np.maximum(1.0 - gamma * s ** m, 0.0)
    return eta, s, m, k, core


def barenblatt_time_derivative(t, r, p, N, gamma):
    """Analytic d/dt of the self-similar profile (zero outside the support)."""
    eta, s, m, k, core = _profile_pieces(t, r, p, N, gamma)
    t = np.asarray(t, dtype=float)
    # F(s) = core^k, F'(s) = -k gamma m s^(m-1) core^(k-1)
    F = core ** k
    Fp = -k * gamma * m * s ** (m - 1.0) * core ** (k - 1.0)
    return t ** (-N * eta - 1.0) * (-N * eta * F - eta * s * Fp)


def barenblatt_p_laplacian(t, r, p, N, gamma):
    """Analytic div(|grad .|^{p-2} grad .) of the profile.  With the flux
    G(s) = |F'|^{p-2} F' = -(k gamma m)^{p-1} s F, the radial divergence
    collapses to -(k gamma m)^{p-1} (N F + s F')."""
    eta, s, m, k, core = _profile_pieces(t, r, p, N, gamma)
    t = np.asarray(t, dtype=float)
    F = core ** k
    Fp = -k * gamma * m * s ** (m - 1.0) * core ** (k - 1.0)
    coef = (k * gamma * m) ** (p - 1.0)
    return -coef * t ** (-N * eta - 1.0) * (N * F + s * Fp)


def barenblatt_residual(t, r, p, N, gamma):
    """d_t B - Delta_p B with profile constant gamma.  Vanishes identically
    iff gamma equals the exact constant."""
    return (barenblatt_time_derivative(t, r, p, N, gamma)
            - barenblatt_p_laplacian(t, r, p, N, gamma))
