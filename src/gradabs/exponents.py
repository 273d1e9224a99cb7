"""Exponent arithmetic and regime classification for the degenerate
diffusion equation with gradient absorption.

Everything here is closed-form arithmetic in (p, q, N); the rest of the
package consumes these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# Absolute tolerance for deciding q == p-1 and q == q_star.  Callers who
# need an exact critical case must pass exactly-representable values.
EQUALITY_TOL = 1e-12


class InvalidParams(ValueError):
    """Raised when (p, q, N, eps, gamma) violate the admissible ranges."""


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
    """The (p, q, N) triple plus regularization knobs (eps, gamma).

    gamma defaults to the largest value allowed by the floor-exponent
    constraint, which makes the floor eps**gamma as small as possible.
    """

    p: float
    q: float
    N: int = 1
    eps: float = 1e-3
    gamma: float | None = None

    def __post_init__(self):
        if not self.p > 2.0:
            raise InvalidParams(f"p must satisfy p > 2, got p={self.p}")
        if not self.q > 1.0:
            raise InvalidParams(f"q must satisfy q > 1, got q={self.q}")
        if not (isinstance(self.N, int) and self.N >= 1):
            raise InvalidParams(f"N must be a positive integer, got N={self.N}")
        if not 0.0 < self.eps < 0.5:
            raise InvalidParams(f"eps must lie in (0, 1/2), got eps={self.eps}")
        cap = gamma_cap(self.p, self.q, self.N)
        if self.gamma is None:
            object.__setattr__(self, "gamma", cap)
        elif not 0.0 < self.gamma <= cap + 1e-15:
            raise InvalidParams(
                f"gamma={self.gamma} outside (0, {cap}] for (p,q,N)=({self.p},{self.q},{self.N})"
            )

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


@dataclass(frozen=True)
class Law:
    """A predicted large-time law for an observable."""

    kind: str                     # power | bounded | log | power_log | inverse_log_power | positive_limit
    exponent: float | None = None


@dataclass(frozen=True)
class PredictedLaws:
    """Predicted decay/growth laws; at q = q_star (regime CRITICAL_MASS)
    both decay branches are reported."""

    regime: Regime
    sup_exponents: tuple          # one entry, or two at q = q_star
    grad_exponents: tuple
    support: Law
    l1: Law


def predicted_laws(params: ProblemParams) -> PredictedLaws:
    p, q, N = params.p, params.q, params.N
    ex = compute_exponents(params)
    regime = classify_regime(params)
    xi, eta = ex.xi, ex.eta

    if regime in (Regime.ABSORPTION_DOMINATED, Regime.CRITICAL_ABSORPTION,
                  Regime.INTERMEDIATE):
        sup = (-N * xi,)
        grad = (-(N + 1) * xi,)
    elif regime is Regime.DIFFUSION_DOMINATED:
        sup = (-N * eta,)
        grad = (-(N + 1) * eta,)
    else:  # critical mass: both neighbouring laws, flagged
        sup = (-N * xi, -N * eta)
        grad = (-(N + 1) * xi, -(N + 1) * eta)

    if regime is Regime.ABSORPTION_DOMINATED:
        support = Law("bounded")
        l1 = Law("power", -1.0 / (q - 1.0))
    elif regime is Regime.CRITICAL_ABSORPTION:
        support = Law("log")
        l1 = Law("power_log", -1.0 / (q - 1.0))
    elif regime is Regime.INTERMEDIATE:
        support = Law("power", ex.A_support)
        l1 = Law("power", -ex.B_l1)
    elif regime is Regime.CRITICAL_MASS:
        support = Law("power", eta)
        l1 = Law("inverse_log_power", -1.0 / (q - 1.0))
    else:
        support = Law("power", eta)
        l1 = Law("positive_limit")

    return PredictedLaws(
        regime=regime,
        sup_exponents=sup,
        grad_exponents=grad,
        support=support,
        l1=l1,
    )
