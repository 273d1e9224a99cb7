import dataclasses

import numpy as np
import pytest

from gradabs.exponents import (EQUALITY_TOL, InvalidParams, Law, ProblemParams,
                               Regime, alpha_p, beta_pq, classify_regime,
                               compute_exponents, eta_exponent, gamma_cap,
                               law_row, predicted_laws, q_star, xi_exponent)
from gradabs.observe import CSV_COLUMNS


def test_worked_examples_exact():
    ex = compute_exponents(ProblemParams(3.0, 2.0, 1))
    assert ex.alpha_p == pytest.approx(0.5, abs=1e-15)
    assert ex.beta_pq == pytest.approx(0.5, abs=1e-15)
    assert ex.q_star == pytest.approx(2.5, abs=1e-15)
    assert ex.xi == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ex.eta == pytest.approx(0.25, abs=1e-15)

    ex2 = compute_exponents(ProblemParams(3.0, 2.0, 2))
    assert ex2.alpha_p == pytest.approx(9.0 / 17.0, abs=1e-15)
    assert ex2.q_star == pytest.approx(7.0 / 3.0, abs=1e-15)
    assert ex2.xi == pytest.approx(0.25, abs=1e-15)
    assert ex2.eta == pytest.approx(0.2, abs=1e-15)

    mid = compute_exponents(ProblemParams(3.0, 2.25, 1))
    assert mid.A_support == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert mid.B_l1 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_support_exponents_absent_outside_intermediate_regime():
    for q in (1.5, 2.0, 2.5, 3.0):
        ex = compute_exponents(ProblemParams(3.0, q, 1))
        assert ex.A_support is None
        assert ex.B_l1 is None


def test_regime_examples():
    assert classify_regime(ProblemParams(3.0, 1.5, 1)) is Regime.ABSORPTION_DOMINATED
    assert classify_regime(ProblemParams(3.0, 2.0, 1)) is Regime.CRITICAL_ABSORPTION
    assert classify_regime(ProblemParams(3.0, 2.25, 1)) is Regime.INTERMEDIATE
    assert classify_regime(ProblemParams(3.0, 2.5, 1)) is Regime.CRITICAL_MASS
    assert classify_regime(ProblemParams(3.0, 3.0, 1)) is Regime.DIFFUSION_DOMINATED


def test_regimes_partition_q_axis():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.uniform(2.05, 6.0)
        q = rng.uniform(1.01, p + 2.0)
        r = classify_regime(ProblemParams(float(p), float(q), 1))
        qs = q_star(p, 1)
        if abs(q - (p - 1.0)) <= EQUALITY_TOL:
            assert r is Regime.CRITICAL_ABSORPTION
        elif abs(q - qs) <= EQUALITY_TOL:
            assert r is Regime.CRITICAL_MASS
        elif q < p - 1.0:
            assert r is Regime.ABSORPTION_DOMINATED
        elif q < qs:
            assert r is Regime.INTERMEDIATE
        else:
            assert r is Regime.DIFFUSION_DOMINATED


def test_exponent_bounds_on_grid():
    for p in np.linspace(2.1, 6.0, 12):
        for N in range(1, 6):
            a = alpha_p(p, N)
            assert 0.0 < a < 1.0
            qs = q_star(p, N)
            assert p - 1.0 < qs < p
            for q in np.linspace(1.1, 5.0, 9):
                b = beta_pq(p, q, N)
                assert 0.0 < b < 1.0
                assert b >= a and b >= (q - 1.0) / q


def test_alpha_increasing_in_p():
    for N in range(1, 6):
        vals = [alpha_p(p, N) for p in np.linspace(2.1, 6.0, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_intermediate_identities():
    # A + q xi (p-2) B / p = (1 - N xi (p-2)) / p and 1 - A/xi = (q-1) B
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.uniform(2.1, 6.0)
        N = int(rng.integers(1, 5))
        lo, hi = p - 1.0, q_star(p, N)
        q = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
        ex = compute_exponents(ProblemParams(float(p), float(q), N))
        A, B, xi = ex.A_support, ex.B_l1, ex.xi
        assert abs(A + q * xi * (p - 2.0) * B / p
                   - (1.0 - N * xi * (p - 2.0)) / p) <= 1e-12
        assert abs(1.0 - A / xi - (q - 1.0) * B) <= 1e-12


def test_param_validation():
    with pytest.raises(InvalidParams):
        ProblemParams(2.0, 2.0, 1)
    with pytest.raises(InvalidParams):
        ProblemParams(3.0, 1.0, 1)
    with pytest.raises(InvalidParams):
        ProblemParams(3.0, 2.0, 0)
    with pytest.raises(InvalidParams):
        ProblemParams(3.0, 2.0, 1, eps=0.6)
    # the floor exponent is derived, not set: neither an admissible gamma
    # nor one past the 3/4 cap is accepted
    for gamma in (0.5, 0.8):
        with pytest.raises(TypeError, match="gamma"):
            ProblemParams(3.0, 2.0, 1, gamma=gamma)


def test_gamma_default_is_cap():
    params = ProblemParams(3.0, 2.0, 1)
    assert params.gamma == gamma_cap(3.0, 2.0, 1) == 0.75
    assert params.floor == 1e-3 ** 0.75
    assert "gamma" not in {f.name for f in dataclasses.fields(ProblemParams)}
    for p, q, N in ((3.0, 1.6, 1), (4.0, 3.5, 2), (2.5, 1.2, 3)):
        assert ProblemParams(p, q, N, eps=0.01).floor == 0.01 ** gamma_cap(p, q, N)
    # small q caps gamma at q
    assert ProblemParams(3.0, 1.02, 1).gamma == pytest.approx(
        min(0.75, 2.0 * beta_pq(3.0, 1.02, 1), 1.02))


def test_predicted_laws_examples():
    laws = predicted_laws(ProblemParams(3.0, 1.6, 1), absorbing=True)
    assert laws["sup_excess"] == Law("power_bound", pytest.approx(-1.0 / 2.2))
    assert laws["grad_sup"] == Law("power_bound", pytest.approx(-2.0 / 2.2))
    assert "grad_beta" not in laws
    assert laws["rho"].kind == "bounded"
    assert laws["l1_excess"] == Law("power_bound", pytest.approx(-1.0 / 0.6))

    laws = predicted_laws(ProblemParams(3.0, 3.0, 1), absorbing=True)
    assert laws["sup_excess"] == Law("power", pytest.approx(-0.25))
    assert laws["grad_beta"] == Law("amplitude_bound", pytest.approx(-1.0 / 3.0),
                                    pytest.approx(2.0 ** (2.0 / 3.0) / 3.0))
    assert laws["rho"] == Law("power_bound", pytest.approx(0.25))
    assert laws["l1_excess"].kind == "positive_limit"

    laws = predicted_laws(ProblemParams(3.0, 2.0, 1), absorbing=True)
    assert laws["rho"].kind == "log"
    assert laws["l1_excess"].kind == "power_log"
    assert list(laws) == ["sup_excess", "grad_sup", "grad_beta", "rho", "l1_excess"]


def test_pure_diffusion_takes_the_diffusion_dominated_row():
    # the row of q = 3 > q_* = 2.5, with sharp support growth and no
    # grad_beta law
    row = predicted_laws(ProblemParams(3.0, 3.0, 1), absorbing=True)
    del row["grad_beta"]
    row["rho"] = Law("power", row["rho"].exponent)
    for q in (1.5, 2.0, 2.25, 2.5, 3.0):
        params = ProblemParams(3.0, q, 1)
        # the row has a name of its own, which classify_regime never gives
        assert law_row(params, False) is Regime.PURE_DIFFUSION
        assert law_row(params, True) is classify_regime(params) is not Regime.PURE_DIFFUSION
        laws = predicted_laws(params, absorbing=False)
        assert laws == row and list(laws) == list(row)
        assert laws["sup_excess"] == Law("power", pytest.approx(-0.25))
        assert laws["rho"] == Law("power", pytest.approx(0.25))
        assert laws["l1_excess"].kind == "positive_limit"
        assert "grad_beta" not in laws


REPORT_ORDER = ("sup_excess", "grad_sup", "grad_beta", "rho", "l1_excess")


@pytest.mark.parametrize("absorbing", [True, False])
@pytest.mark.parametrize("p, N", [(3.0, 1), (4.0, 2), (2.5, 3)])
def test_law_rows_name_series_columns_in_report_order(p, N, absorbing):
    # q below, at and above p - 1 and q_*: a key that names no series
    # column would fail only once a run's verdict reads it
    crit_abs, crit_mass = p - 1.0, q_star(p, N)
    mid = 0.5 * (crit_abs + crit_mass)
    assert 1.0 < 0.5 * (1.0 + crit_abs) and crit_abs < mid < crit_mass
    grad_beta_rows = 0
    for q in (0.5 * (1.0 + crit_abs), crit_abs, mid, crit_mass, crit_mass + 0.5):
        laws = predicted_laws(ProblemParams(p, q, N), absorbing)
        assert set(laws) <= set(CSV_COLUMNS)
        assert list(laws) == [column for column in REPORT_ORDER if column in laws]
        assert {"sup_excess", "grad_sup", "rho", "l1_excess"} <= set(laws)
        grad_beta_rows += "grad_beta" in laws
    # the order is checked with and without the optional grad_beta column
    assert (grad_beta_rows > 0) == absorbing


def test_xi_and_eta_coincide_at_the_critical_mass_exponent():
    for p in (2.5, 3.0, 4.0, 5.5):
        for N in (1, 2, 3, 5):
            assert xi_exponent(q_star(p, N), N) == pytest.approx(
                eta_exponent(p, N), rel=1e-14)


def test_law_selection_consistent_with_regime():
    table = {
        Regime.ABSORPTION_DOMINATED: ("bounded", "power_bound"),
        Regime.CRITICAL_ABSORPTION: ("log", "power_log"),
        Regime.INTERMEDIATE: ("power_bound", "power_bound"),
        Regime.CRITICAL_MASS: ("power_bound", "inverse_log_power"),
        Regime.DIFFUSION_DOMINATED: ("power_bound", "positive_limit"),
    }
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = rng.uniform(2.1, 5.0)
        q = rng.uniform(1.05, p + 1.0)
        params = ProblemParams(float(p), float(q), 1)
        laws = predicted_laws(params, absorbing=True)
        support_kind, l1_kind = table[classify_regime(params)]
        assert laws["rho"].kind == support_kind
        assert laws["l1_excess"].kind == l1_kind
