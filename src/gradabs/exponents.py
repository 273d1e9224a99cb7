"""Exponent arithmetic and regime classification for the degenerate
diffusion equation with gradient absorption.

Everything here is closed-form arithmetic in (p, q, N); the rest of the
package consumes these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Absolute tolerance for deciding q == p-1 and q == q_star.  Callers who
# need an exact critical case must pass exactly-representable values.
EQUALITY_TOL = 1e-12


class InvalidParams(ValueError):
    """Raised when (p, q, N, eps) violate the admissible ranges."""


def alpha_p(p, N):
    """Diffusive composite exponent: 1/alpha = (p-1)/(p-2) - (N-1)/(p(N+3)-2(N+1))."""
    inv = (p - 1.0) / (p - 2.0) - (N - 1.0) / (p * (N + 3.0) - 2.0 * (N + 1.0))
    return 1.0 / inv


def beta_pq(p, q, N):
    """Absorptive composite exponent: max{alpha_p, (q-1)/q}."""
    return max(alpha_p(p, N), (q - 1.0) / q)


def q_star(p, N):
    """Critical absorption exponent p - N/(N+1)."""
    return p - N / (N + 1.0)


def xi_exponent(q, N):
    return 1.0 / (q * (N + 1.0) - N)


def eta_exponent(p, N):
    return 1.0 / (N * (p - 2.0) + p)


def gamma_cap(p, q, N):
    """Largest admissible floor exponent: min{3/4, 2*beta, q, (q+2)/2}."""
    return min(0.75, 2.0 * beta_pq(p, q, N), q, 0.5 * (q + 2.0))


@dataclass(frozen=True)
class ProblemParams:
    """The (p, q, N) triple plus the regularization parameter eps.  The
    floor exponent gamma is derived, not set: it is gamma_cap(p, q, N), which
    makes the floor eps**gamma as small as the gradient estimates admit.
    """

    p: float
    q: float
    N: int = 1
    eps: float = 1e-3

    def __post_init__(self):
        for name in ("p", "q", "eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be a finite number, got {name}={value}")
        if not self.p > 2.0:
            raise InvalidParams(f"p must satisfy p > 2, got p={self.p}")
        if not self.q > 1.0:
            raise InvalidParams(f"q must satisfy q > 1, got q={self.q}")
        if not (isinstance(self.N, int) and self.N >= 1):
            raise InvalidParams(f"N must be a positive integer, got N={self.N}")
        if not 0.0 < self.eps < 0.5:
            raise InvalidParams(f"eps must lie in (0, 1/2), got eps={self.eps}")
        object.__setattr__(self, "gamma", gamma_cap(self.p, self.q, self.N))

    @property
    def floor(self):
        """The lifted lower bound eps**gamma of the regularized solution."""
        return self.eps ** self.gamma


class Regime(Enum):
    ABSORPTION_DOMINATED = "AbsorptionDominated"   # 1 < q < p-1
    CRITICAL_ABSORPTION = "CriticalAbsorption"     # q = p-1
    INTERMEDIATE = "Intermediate"                  # p-1 < q < q_*
    CRITICAL_MASS = "CriticalMass"                 # q = q_*
    DIFFUSION_DOMINATED = "DiffusionDominated"     # q > q_*
    PURE_DIFFUSION = "PureDiffusion"               # nothing absorbed, any q


@dataclass(frozen=True)
class ExponentSet:
    alpha_p: float
    beta_pq: float
    q_star: float
    xi: float
    eta: float
    gamma_max: float
    A_support: float | None = None   # only in the intermediate regime
    B_l1: float | None = None        # only in the intermediate regime


def compute_exponents(params: ProblemParams) -> ExponentSet:
    """All derived exponents for (p, q, N); A_support/B_l1 only when
    p-1 < q < q_star (absent otherwise)."""
    p, q, N = params.p, params.q, params.N
    qs = q_star(p, N)
    A = B = None
    if classify_regime(params) is Regime.INTERMEDIATE:
        A = (q - p + 1.0) / (2.0 * q - p)
        B = (N + 1.0) * (qs - q) / (2.0 * q - p)
    return ExponentSet(
        alpha_p=alpha_p(p, N),
        beta_pq=beta_pq(p, q, N),
        q_star=qs,
        xi=xi_exponent(q, N),
        eta=eta_exponent(p, N),
        gamma_max=gamma_cap(p, q, N),
        A_support=A,
        B_l1=B,
    )


def classify_regime(params: ProblemParams) -> Regime:
    """Partition of q in (1, oo) at fixed (p, N); equalities resolved with
    absolute tolerance EQUALITY_TOL."""
    p, q, N = params.p, params.q, params.N
    d_abs = q - (p - 1.0)
    d_mass = q - q_star(p, N)
    if abs(d_abs) <= EQUALITY_TOL:
        return Regime.CRITICAL_ABSORPTION
    if abs(d_mass) <= EQUALITY_TOL:
        return Regime.CRITICAL_MASS
    if d_abs < 0.0:
        return Regime.ABSORPTION_DOMINATED
    if d_mass < 0.0:
        return Regime.INTERMEDIATE
    return Regime.DIFFUSION_DOMINATED


def law_row(params: ProblemParams, absorbing) -> Regime:
    """The law table's row for params and a series: PureDiffusion when it
    absorbed nothing (absorbing false), whatever q is, else q's regime."""
    return classify_regime(params) if absorbing else Regime.PURE_DIFFUSION


@dataclass(frozen=True)
class Law:
    """A predicted large-time law for one observable y(t).

    kind is one of
      power              y ~ t^exponent (sharp)
      power_bound        y grows no faster, or decays no slower, than t^exponent
      amplitude_bound    y(t) t^(-exponent) <= amplitude at every t > 0
      bounded            y stops growing
      log                y grows like log t
      power_log          y ~ t^exponent (log t)^(-exponent/xi)
      inverse_log_power  y ~ (log t)^exponent
      positive_limit     y tends to a positive limit
    """

    kind: str
    exponent: float | None = None
    amplitude: float | None = None


def predicted_laws(params: ProblemParams, absorbing) -> dict[str, Law]:
    """The law table's row that `law_row` picks for params and a series:
    {column: Law} for each series column it judges, in report order
    sup_excess, grad_sup, grad_beta (only where a law holds), rho, l1_excess.
    The PureDiffusion row is the diffusion-dominated one with sharp support
    growth and no grad_beta law.

    The sup and gradient decays are bounds, except the sup decay of the two
    diffusive rows, which follows the self-similar source solution and is
    sharp.  grad_beta = |grad u^beta_pq| obeys t^(-1/q) with the explicit
    constant (q-1)^((q-1)/q)/q wherever beta_pq = (q-1)/q, that is
    (q-1)/q >= alpha_p.  At q = q_star the exponents xi and eta coincide.
    """
    q, N = params.q, params.N
    ex = compute_exponents(params)
    regime = law_row(params, absorbing)
    if regime in (Regime.DIFFUSION_DOMINATED, Regime.PURE_DIFFUSION):
        laws = {"sup_excess": Law("power", -N * ex.eta),
                "grad_sup": Law("power_bound", -(N + 1) * ex.eta)}
    else:
        laws = {"sup_excess": Law("power_bound", -N * ex.xi),
                "grad_sup": Law("power_bound", -(N + 1) * ex.xi)}
    if regime is not Regime.PURE_DIFFUSION and (q - 1.0) / q >= ex.alpha_p:
        laws["grad_beta"] = Law("amplitude_bound", -1.0 / q,
                                (q - 1.0) ** ((q - 1.0) / q) / q)

    if regime is Regime.ABSORPTION_DOMINATED:
        rho = Law("bounded")
        l1 = Law("power_bound", -1.0 / (q - 1.0))
    elif regime is Regime.CRITICAL_ABSORPTION:
        rho = Law("log")
        l1 = Law("power_log", -1.0 / (q - 1.0))
    elif regime is Regime.INTERMEDIATE:
        rho = Law("power_bound", ex.A_support)
        l1 = Law("power_bound", -ex.B_l1)
    elif regime is Regime.CRITICAL_MASS:
        rho = Law("power_bound", ex.eta)
        l1 = Law("inverse_log_power", -1.0 / (q - 1.0))
    else:   # the diffusive rows: pure diffusion grows its support sharply
        rho = Law("power" if regime is Regime.PURE_DIFFUSION else "power_bound", ex.eta)
        l1 = Law("positive_limit")
    laws.update(rho=rho, l1_excess=l1)
    return laws
