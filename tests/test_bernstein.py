import numpy as np
import pytest

from gradabs import bernstein as bn
from gradabs.exponents import InvalidParams, ProblemParams, alpha_p, beta_pq


def phi1_derivatives(phi, v):
    """Closed-form (phi', phi'') of Phi1 at v, via s = 2Kv - v^2."""
    ia = 1.0 / phi.alpha
    s = 2.0 * phi.K * v - v * v
    sp = 2.0 * (phi.K - v)
    d1 = ia * s ** (ia - 1.0) * sp
    d2 = ia * ((ia - 1.0) * s ** (ia - 2.0) * sp * sp - 2.0 * s ** (ia - 1.0))
    return d1, d2


def test_phi_derivatives_match_finite_differences():
    rng = np.random.default_rng(6)
    cases = [(phi, rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 40), 1e-6)
             for phi, lo, hi in ((bn.Phi1(2.0, 0.5), 0.05, 1.9),
                                 (bn.Phi1(5.0, 0.3), 0.1, 4.5))]
    # 50 points over the whole of [0.02, 1.9], with a step scaled to it
    lo, hi = 0.02, 1.9
    cases.append((bn.Phi1(2.0, 0.5), np.random.default_rng(7).uniform(lo, hi, 50),
                  1e-6 * (hi - lo)))
    for phi, v, dh in cases:
        d1, d2 = phi1_derivatives(phi, v)
        fd1 = (phi1_derivatives(phi, v + dh)[0]
               - phi1_derivatives(phi, v - dh)[0]) / (2.0 * dh)
        assert np.max(np.abs(fd1 - d2) / np.abs(d2)) <= 1e-6
        # the ratio helpers the phi1 scan reads agree with the derivatives
        assert np.allclose(phi.ratio(v), d2 / d1, rtol=1e-12)
        rp = (phi.ratio(v + dh) - phi.ratio(v - dh)) / (2.0 * dh)
        assert np.max(np.abs(rp - phi.ratio_prime(v))
                      / np.maximum(np.abs(phi.ratio_prime(v)), 1.0)) <= 1e-5


def test_phi1_domain_checks():
    phi = bn.Phi1(1.0, 0.5)
    with pytest.raises(InvalidParams):
        phi.ratio(1.5)
    with pytest.raises(InvalidParams):
        phi.ratio_prime(0.0)
    with pytest.raises(InvalidParams):
        bn.Phi1(-1.0, 0.5)


def test_b22_hand_case_q2():
    # q = 2: lhs - rhs = eps g^2 - eps^2 + C14 (eps^2 + eps^2) with C14 = 1
    q = 2.0
    for eps in (1e-3, 0.3):
        for g in (eps, 1.0, 10.0):
            lhs = (q - 1.0) * g ** 2 + eps ** 2 - 2.0 * eps ** 2
            rhs = (q - 1.0 - eps) * g ** 2 - 1.0 * (eps ** 2 + eps ** 2)
            assert lhs - rhs == pytest.approx(eps * g * g + eps * eps)
            assert lhs - rhs >= 0.0


def test_b22_boundary_case():
    # for q <= 2 the bracket is tightest on the boundary g = eps, which the
    # scan's g grid starts on
    for q in (1.1, 1.5, 2.0):
        rep = bn.check_b22(q)
        assert rep.passed
        assert rep.worst_point == (1e-6, 1e-6)


def test_b22_full_grid():
    for q in bn.B22_QS:
        rep = bn.check_b22(q)
        assert rep.passed, f"q={q}: worst margin {rep.worst_margin}"


def test_b22_validation():
    for q in (0.9, 1.0):
        with pytest.raises(InvalidParams):
            bn.check_b22(q)


def test_c14_cases():
    assert bn.c14_constant(1.5) == pytest.approx(0.5)
    assert bn.c14_constant(2.0) == pytest.approx(1.0)
    assert bn.c14_constant(4.0) == pytest.approx(2.0 * 2.0)


def test_phi1_properties_and_mu_search(monkeypatch):
    alpha = alpha_p(3.0, 1)
    for eps in (1e-1, 1e-2, 1e-3):
        rep = bn.check_phi1_properties(1.0, eps, 0.75, alpha)
        assert rep.passed and rep.grid_desc.startswith("mu=8.0,")
    # at M = 1e-2 the range's top M^(alpha/2) lies above K for mu <= 8; those
    # mu are skipped, and mu = 16 and 32 fail the properties
    rep = bn.check_phi1_properties(1e-2, 1e-3, 0.75, alpha)
    assert rep.passed and rep.grid_desc.startswith("mu=64.0,")
    # mu = 1 is too small for this range: with the search capped there, the
    # report of the last mu tried fails rather than raising
    monkeypatch.setattr(bn, "MU_MAX_POWER", 0)
    small = bn.check_phi1_properties(1.0, 1e-3, 0.75, alpha)
    assert not small.passed and small.grid_desc.startswith("mu=1.0,")


def test_phi1_properties_rejects_empty_v_range():
    # M = 1e-6: the v range is empty at every mu, and at small mu its top
    # M^(alpha/2) also lies above K = sqrt(1 + mu) M^alpha
    with pytest.raises(InvalidParams, match="empty or out-of-domain"):
        bn.check_phi1_properties(1e-6, 1e-2, 0.75, 0.5)


def test_omega_eps():
    params = ProblemParams(3.0, 2.0, 1, eps=1e-8)
    assert params.gamma == 0.75
    assert bn.omega_eps(params) < 1e-2
    assert bn.omega_eps(ProblemParams(3.0, 2.0, 1, eps=1e-12)) > 0.0
    # all three exponents positive once gamma sits strictly below its cap
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = rng.uniform(2.1, 5.0)
        q = rng.uniform(1.1, 5.0)
        cap = ProblemParams(float(p), float(q), 1, eps=0.3).gamma
        gamma = 0.9 * cap
        beta = beta_pq(p, q, 1)
        assert (2.0 * beta - gamma) / beta > 0.0
        assert 0.5 * (q + 2.0 - 2.0 * gamma) > 0.0
        assert q - gamma > 0.0
        # at the cap the exponents are still nonnegative
        assert (2.0 * beta - cap) / beta >= 0.0


def test_supersolution_margins():
    eq = bn.verify_power_supersolution(1.0, 0.0, 2.5, 2.0 / 3.0,
                                       (2.0 / 3.0) ** (2.0 / 3.0), 1.0)
    assert eq.passed and eq.worst_margin == pytest.approx(0.0, abs=1e-15)
    hand = bn.verify_power_supersolution(1.0, 0.1, 2.0, 1.0, 2.5, 10.0)
    assert hand.worst_margin == pytest.approx(0.5)
    with pytest.raises(InvalidParams):
        bn.verify_power_supersolution(1.0, 0.0, 2.0, 0.7, 1.0, 1.0)  # 0.7 != 1
    with pytest.raises(InvalidParams):
        bn.verify_power_supersolution(-1.0, 0.0, 2.0, 1.0, 1.0, 1.0)



def test_standard_scans():
    reports = bn.standard_scans()
    assert [rep.name for rep in reports] == (["b22-absorption-bracket"] * len(bn.B22_QS)
                                             + ["phi1-properties"] * 3
                                             + ["power-supersolution"] * 3)
    assert all(rep.passed for rep in reports)
    eq, *working = reports[-3:]
    assert eq.worst_margin == pytest.approx(0.0, abs=1e-15)
    # the two damped working scalings hold strictly, not within the slack
    assert all(rep.worst_margin > 0.0 for rep in working)
