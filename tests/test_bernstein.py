import numpy as np
import pytest

from gradabs import bernstein as bn
from gradabs.exponents import InvalidParams, ProblemParams, alpha_p, beta_pq


def inputs(g, w, v, p=3.0, q=2.0, eps=1e-3):
    return bn.BernsteinInputs(g, w, v, ProblemParams(p, q, 1, eps=eps))


class Identity:
    """phi(r) = r; both remainder terms vanish identically."""

    def derivatives(self, v):
        v = np.asarray(v, dtype=float)
        return np.ones_like(v), np.zeros_like(v), np.zeros_like(v)

    def ratio(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    def ratio_prime(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))


def test_identity_phi_kills_both_remainders():
    inp = inputs(0.7, 1.3, 0.9)
    assert bn.r1_value(inp, Identity()) == 0.0
    assert bn.r1_radial_value(inp, Identity()) == 0.0
    assert bn.r2_value(inp, Identity()) == 0.0


def test_r2_cancels_at_g_equals_eps():
    # (q-1) eps^q + eps^q - q eps^q = 0
    inp = inputs(1e-3, 0.5, 1.0, q=2.7)
    assert bn.r2_value(inp, bn.Phi2(0.6)) == pytest.approx(0.0, abs=1e-18)


def test_r2_hand_example():
    # phi(r) = r^2/2: phi''/phi'^2 = 1 at v = 1; bracket = (q-1) g^q = 4
    inp = inputs(2.0, 1.0, 1.0, q=2.0, eps=1e-9)
    assert bn.r2_value(inp, bn.Phi2(0.5)) == pytest.approx(4.0, rel=1e-8)


def test_r1_eps_zero_reduces_to_leading_term():
    p, N = 3.4, 1
    a = alpha_p(p, N)
    phi = bn.Phi2(0.55)
    inp = bn.BernsteinInputs(1.7, 0.4, 0.8, ProblemParams(p, 2.0, N, eps=1e-12))
    rat, ratp = phi.ratio(0.8), phi.ratio_prime(0.8)
    lead = -(p - 1.0) * 1.7 ** (p - 2.0) * (ratp + a / (1.0 - a) * rat * rat)
    assert bn.r1_value(inp, phi) == pytest.approx(lead, rel=1e-12)


def test_r1_matches_radial_form_in_one_dimension():
    rng = np.random.default_rng(4)
    for phi in (bn.Phi2(0.6), bn.Phi1(3.0, 0.5)):
        params = ProblemParams(3.7, 2.3, 1, eps=0.01)
        for _ in range(100):
            v = rng.uniform(0.1, 2.5)
            w = rng.uniform(0.0, 4.0)
            d1 = phi.derivatives(v)[0]
            g = float(np.sqrt(d1 * d1 * w + params.eps ** 2))
            inp = bn.BernsteinInputs(g, w, v, params)
            a = bn.r1_value(inp, phi)
            b = bn.r1_radial_value(inp, phi)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-20)


def test_phi2_leading_r1_nonnegative_when_beta_dominates():
    # with beta = beta_pq >= alpha_p the eps-free part of R1 has a good sign
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = rng.uniform(2.1, 5.0)
        q = rng.uniform(1.1, 5.0)
        beta = beta_pq(p, q, 1)
        phi = bn.Phi2(beta)
        params = ProblemParams(float(p), float(q), 1, eps=1e-12)
        v, w = rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0)
        g = max(float(np.sqrt(phi.derivatives(v)[0] ** 2 * w)), 1e-12)
        inp = bn.BernsteinInputs(g, w, v, params)
        assert bn.r1_value(inp, phi) >= -1e-12


def test_inputs_validation():
    with pytest.raises(InvalidParams):
        inputs(1e-6, 0.5, 1.0, eps=1e-3)   # g below eps
    with pytest.raises(InvalidParams):
        inputs(1.0, -0.5, 1.0)


def test_phi_derivatives_match_finite_differences():
    rng = np.random.default_rng(6)
    for phi, lo, hi in ((bn.Phi1(2.0, 0.5), 0.05, 1.9),
                        (bn.Phi1(5.0, 0.3), 0.1, 4.5),
                        (bn.Phi2(0.5), 0.1, 4.0),
                        (bn.Phi2(0.8), 0.1, 4.0)):
        v = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 40)
        dh = 1e-6
        d1, d2, d3 = phi.derivatives(v)
        f = lambda x: phi.derivatives(x)
        fd1 = (f(v + dh)[0] - f(v - dh)[0]) / (2.0 * dh)
        fd2 = (f(v + dh)[1] - f(v - dh)[1]) / (2.0 * dh)
        assert np.max(np.abs(fd1 - d2) / np.abs(d2)) <= 1e-6
        assert np.max(np.abs(fd2 - d3) / np.maximum(np.abs(d3), 1.0)) <= 1e-5
        # ratio helpers agree with the explicit derivatives
        assert np.allclose(phi.ratio(v), d2 / d1, rtol=1e-12)
        rp = (phi.ratio(v + dh) - phi.ratio(v - dh)) / (2.0 * dh)
        assert np.max(np.abs(rp - phi.ratio_prime(v))
                      / np.maximum(np.abs(phi.ratio_prime(v)), 1.0)) <= 1e-5


def test_phi1_domain_checks():
    phi = bn.Phi1(1.0, 0.5)
    with pytest.raises(InvalidParams):
        phi.derivatives(1.5)
    with pytest.raises(InvalidParams):
        phi.derivatives(0.0)
    with pytest.raises(InvalidParams):
        bn.Phi1(-1.0, 0.5)
    with pytest.raises(InvalidParams):
        bn.Phi2(1.2)


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
    rep = bn.check_b22(3.0, eps_grid=[0.4], g_grid=[0.4])
    assert rep.passed


def test_b22_full_grid():
    for q in bn.B22_QS:
        rep = bn.check_b22(q)
        assert rep.passed, f"q={q}: worst margin {rep.worst_margin}"


def test_b22_validation():
    with pytest.raises(InvalidParams):
        bn.check_b22(0.9)
    with pytest.raises(InvalidParams):
        bn.check_b22(2.0, eps_grid=[0.6])
    with pytest.raises(InvalidParams):
        bn.check_b22(2.0, eps_grid=[0.1], g_grid=[0.05])


def test_c14_cases():
    assert bn.c14_constant(1.5) == pytest.approx(0.5)
    assert bn.c14_constant(2.0) == pytest.approx(1.0)
    assert bn.c14_constant(4.0) == pytest.approx(2.0 * 2.0)


def test_phi1_properties_and_mu_search():
    alpha = alpha_p(3.0, 1)
    for eps in (1e-1, 1e-2, 1e-3):
        mu = bn.search_mu(1.0, eps, 0.75, alpha)
        assert np.isfinite(mu)
        rep = bn.check_phi1_properties(mu, 1.0, eps, 0.75, alpha)
        assert rep.passed
    # a mu known too small for this range fails, so search with a scan
    # capped below it reports rather than asserts
    small = bn.check_phi1_properties(1.0, 1.0, 1e-3, 0.75, alpha)
    assert not small.passed
    with pytest.raises(InvalidParams):
        bn.search_mu(1.0, 1e-3, 0.75, alpha, max_power=0)


def test_phi1_properties_rejects_bad_samples():
    with pytest.raises(InvalidParams):
        bn.check_phi1_properties(4.0, 1.0, 1e-2, 0.75, 0.5, v_samples=[10.0])


def test_omega_eps():
    params = ProblemParams(3.0, 2.0, 1, eps=1e-8, gamma=0.75)
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

