"""Brute-force checkers for the gradient-bound machinery of the Bernstein
substitution w = |grad(phi^{-1}(u))|^2: the working substitution phi1 and
its sign properties, the Young-inequality bound on the absorption bracket,
and the power-law supersolution reduction.

Unnamed constants of the underlying estimates are never hardcoded; the
checkers report empirical worst margins instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import InvalidParams, ProblemParams, alpha_p, beta_pq

MARGIN_SLACK = 1e-12
MU_MAX_POWER = 20


# ---------------------------------------------------------------------------
# the substitution phi1 and its log-derivative phi''/phi'


@dataclass(frozen=True)
class Phi1:
    """phi(r) = (2 K r - r^2)^(1/alpha) on (0, K]; the perturbed power
    substitution behind the t^{-1/p} composite gradient bound."""

    K: float
    alpha: float

    def __post_init__(self):
        if not (self.K > 0.0 and 0.0 < self.alpha < 1.0):
            raise InvalidParams(f"Phi1 needs K > 0 and alpha in (0,1)")

    def check_domain(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0.0) or np.any(v > self.K):
            raise InvalidParams(f"Phi1 argument outside (0, K={self.K}]")
        return v

    def ratio(self, v):
        """phi''/phi' = (1/alpha - 1) s'/s - 1/(K - v)."""
        v = self.check_domain(v)
        s = 2.0 * self.K * v - v * v
        return (1.0 / self.alpha - 1.0) * 2.0 * (self.K - v) / s - 1.0 / (self.K - v)

    def ratio_prime(self, v):
        v = self.check_domain(v)
        s = 2.0 * self.K * v - v * v
        sp = 2.0 * (self.K - v)
        return (1.0 / self.alpha - 1.0) * (-2.0 * s - sp * sp) / (s * s) \
            - 1.0 / (self.K - v) ** 2


# ---------------------------------------------------------------------------
# brute-force inequality checkers


@dataclass(frozen=True)
class ProofCheckReport:
    name: str
    grid_desc: str
    worst_margin: float
    passed: bool
    worst_point: tuple

    @classmethod
    def from_scan(cls, name, grid_desc, margins, points):
        i = int(np.argmin(margins))
        worst = float(margins[i])
        return cls(name, grid_desc, worst, worst >= -MARGIN_SLACK,
                   tuple(np.atleast_1d(points[i]).tolist()))


def c14_constant(q):
    """The explicit constant of the absorption-bracket bound: the two
    proof cases q > 2 and q in (1, 2]."""
    if q > 2.0:
        return 2.0 * (q - 2.0) ** (0.5 * (q - 2.0))
    return q - 1.0


def check_b22(q) -> ProofCheckReport:
    """Scan of (q-1) g^q + eps^q - q eps^2 g^{q-2}
    >= (q-1-eps) g^q - C14 (eps^{(q+2)/2} + eps^q) at 40 eps values in
    (0, min(q-1, 1/2)), each over 100 g values in [eps, 1e3]."""
    if not q > 1.0:
        raise InvalidParams("need q > 1")
    eps_grid = np.geomspace(1e-6, min(0.98 * (q - 1.0), 0.49), 40)
    c14 = c14_constant(q)
    margins, points = [], []
    for eps in eps_grid:
        g = np.geomspace(eps, 1e3, 100)
        lhs = (q - 1.0) * g ** q + eps ** q - q * eps * eps * g ** (q - 2.0)
        rhs = (q - 1.0 - eps) * g ** q - c14 * (eps ** (0.5 * (q + 2.0)) + eps ** q)
        m = lhs - rhs
        i = int(np.argmin(m))
        margins.append(float(m[i]))
        points.append((float(eps), float(g[i])))
    desc = f"q={q}, {eps_grid.size} eps values x 100 g values"
    return ProofCheckReport.from_scan("b22-absorption-bracket", desc,
                                      np.asarray(margins), points)


def check_phi1_properties(M, eps, gamma, alpha) -> ProofCheckReport:
    """Sign conditions on phi1: (phi''/phi')' <= 0, phi''/phi' >= 0, and
    the quantitative bound
    (phi''/phi')' + alpha/(1-alpha) (phi''/phi')^2 <= -((1+alpha)/(2 alpha))/(K v)
    at 200 points of the admissible v interval
    [eps^(gamma alpha) / (2K), M^(alpha/2)], K = sqrt(1+mu) M^alpha, for
    mu = 1, 2, 4, ..., 2^MU_MAX_POWER.  Returns the report at the smallest
    mu making all three hold, else at the largest mu scanned; a mu whose
    interval is empty or leaves the domain (0, K] of phi1 is skipped."""
    rep, hi = None, M ** (0.5 * alpha)
    for k in range(MU_MAX_POWER + 1):
        mu = float(2 ** k)
        K = math.sqrt(1.0 + mu) * M ** alpha
        lo = eps ** (gamma * alpha) / (2.0 * K)
        if not lo < hi <= K:
            continue            # phi1 at this mu is undefined on part of [lo, hi]
        v = np.geomspace(lo, hi, 200)
        phi = Phi1(K, alpha)
        rat, ratp = phi.ratio(v), phi.ratio_prime(v)
        m_quant = -(ratp + alpha / (1.0 - alpha) * rat * rat) \
            - (1.0 + alpha) / (2.0 * alpha) / (K * v)
        desc = f"mu={mu}, M={M}, eps={eps}, gamma={gamma}, alpha={alpha}, {v.size} v samples"
        rep = ProofCheckReport.from_scan("phi1-properties", desc,
                                         np.concatenate([-ratp, rat, m_quant]),
                                         np.tile(v, 3))
        if rep.passed:
            break
    if rep is None:
        raise InvalidParams(f"empty or out-of-domain v range at every mu: M={M}, eps={eps}")
    return rep


def omega_eps(params: ProblemParams):
    """Regularization defect eps^{(2 beta - gamma)/beta} + eps^{(q+2-2 gamma)/2}
    + eps^{q - gamma}; tends to 0 with eps."""
    beta = beta_pq(params.p, params.q, params.N)
    eps, q, gamma = params.eps, params.q, params.gamma
    return (eps ** ((2.0 * beta - gamma) / beta)
            + eps ** (0.5 * (q + 2.0 - 2.0 * gamma))
            + eps ** (q - gamma))


def verify_power_supersolution(c, d, m, sigma, theta, T) -> ProofCheckReport:
    """For S(t) = theta t^{-sigma} with the scale-consistency sigma (m-1) = 1,
    S' + c S^m - d S >= 0 on (0, T] reduces to c theta^{m-1} >= sigma + d T;
    the report carries the margin c theta^{m-1} - sigma - d T."""
    if not (c > 0.0 and d >= 0.0 and m > 1.0 and sigma > 0.0
            and theta > 0.0 and T > 0.0):
        raise InvalidParams("need c > 0, d >= 0, m > 1, sigma > 0, theta > 0, T > 0")
    if abs(sigma * (m - 1.0) - 1.0) > 1e-12:
        raise InvalidParams(
            f"candidate is not scale-consistent: sigma (m-1) = {sigma * (m - 1.0)} != 1"
        )
    margin = c * theta ** (m - 1.0) - sigma - d * T
    desc = f"c={c}, d={d}, m={m}, sigma={sigma}, theta={theta}, T={T}"
    return ProofCheckReport("power-supersolution", desc, float(margin),
                            margin >= -MARGIN_SLACK, (float(theta),))


# ---------------------------------------------------------------------------
# the standard scan list

B22_QS = (1.1, 1.5, 2.0, 2.5, 3.0, 4.0)


def standard_scans():
    """The scans of `gradabs bernstein-check` and the acceptance battery, in
    order: the absorption bracket at each q in B22_QS; the phi1 properties
    at (p, N) = (3, 1) and eps = 1e-1, 1e-2, 1e-3, each at its smallest
    working mu; the power supersolution at equality (margin 0), then at the
    p = 3 and q = 2 working scalings, damped by omega_eps at eps = 1e-3 on
    (0, omega_eps^(-1/2)]."""
    alpha = alpha_p(3.0, 1)
    reports = [check_b22(q) for q in B22_QS]
    reports += [check_phi1_properties(1.0, eps, 0.75, alpha)
                for eps in (1e-1, 1e-2, 1e-3)]
    reports.append(verify_power_supersolution(
        1.0, 0.0, 2.5, 2.0 / 3.0, (2.0 / 3.0) ** (2.0 / 3.0), 1.0))
    d = omega_eps(ProblemParams(3.0, 2.0, 1, eps=1e-3))
    T = d ** -0.5
    for m, sigma in ((2.5, 2.0 / 3.0), (2.0, 1.0)):
        theta = (2.0 * (sigma + d * T)) ** (1.0 / (m - 1.0))
        reports.append(verify_power_supersolution(1.0, d, m, sigma, theta, T))
    return reports
