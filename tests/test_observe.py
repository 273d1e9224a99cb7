import numpy as np
import pytest

from gradabs import model, observe, solver
from gradabs.exponents import InvalidParams, ProblemParams
from gradabs.observe import TimeSeries, mass_balance_residual, support_radius

PARAMS = ProblemParams(3.0, 2.0, 1)


def make_state(values, grid):
    return solver.State(0.0, np.asarray(values, dtype=float), PARAMS, grid)


def peak(state):
    return float((state.values - state.floor).max())


def barenblatt_state(h=0.005):
    grid = solver.Grid.from_extent(h, 5.0, 1)
    return solver.initial_state(PARAMS, grid, model.BarenblattAt(t0=1.0))


def test_constant_field_observables():
    grid = solver.Grid(0.01, 100, 1)
    state = make_state(np.full(100, 0.5), grid)
    row = observe.observe(state, peak(state))
    assert tuple(row) == observe.CSV_COLUMNS
    assert row["grad_sup"] == row["grad_alpha"] == row["grad_beta"] == 0.0
    assert row["sup_excess"] == pytest.approx(0.5 - PARAMS.floor)
    assert row["rho"] == pytest.approx(1.0)


def test_linear_ramp_grad_sup():
    # u = x on [0, 1] has unit gradient for the theta = 1 composite
    grid = solver.Grid(0.01, 100, 1)
    state = make_state(grid.centers(), grid)
    row = observe.observe(state, peak(state))
    assert row["grad_sup"] == pytest.approx(1.0)
    assert observe.grad_power_sup(state.values, grid.h, 1.0) == row["grad_sup"]
    # the composites are taken at theta = alpha_p = beta_pq = 1/2 (p = 3, q = 2)
    assert row["grad_alpha"] == row["grad_beta"] == observe.grad_power_sup(
        state.values, grid.h, 0.5)


def test_composite_chain_rule_on_smooth_interior():
    # |grad(u^theta)| = theta u^(theta-1) |grad u| within O(h) inside the support
    state = barenblatt_state(h=0.002)
    u = state.values
    h = state.grid.h
    theta = 0.7
    faces = slice(100, 400)          # well inside the support
    lhs = np.abs(np.diff(u ** theta))[faces] / h
    mid = 0.5 * (u[:-1] + u[1:])
    rhs = theta * mid[faces] ** (theta - 1.0) * np.abs(np.diff(u))[faces] / h
    assert np.max(np.abs(lhs - rhs)) <= 5.0 * h


def test_critical_composite_matches_analytic_maximum():
    # theta = (p-2)/(p-1) = 1/2 at p = 3.  The state carries the floor
    # lift f = eps^gamma, so the oracle is the max of
    # |d/dr (B + f)^(1/2)| = 1.5 gamma_p sqrt(r) c / sqrt(c^2 + f)
    # with c = (1 - gamma_p r^(3/2))_+, evaluated on a fine r grid.
    state = barenblatt_state(h=0.001)
    composite = observe.observe(state, peak(state))["grad_alpha"]
    edge = model.barenblatt_support_radius(1.0, 3.0, 1)
    f = PARAMS.floor
    gp = 1.0 / 6.0
    r = np.linspace(1e-8, edge, 2_000_001)
    c = np.maximum(1.0 - gp * r ** 1.5, 0.0)
    analytic = np.max(1.5 * gp * np.sqrt(r) * c / np.sqrt(c * c + f))
    assert composite == pytest.approx(analytic, rel=1e-4)
    # without the floor the max would sit at the support edge; the floored
    # composite stays strictly below that envelope
    assert composite < 1.5 * gp * np.sqrt(edge)


def test_observe_evaluates_each_distinct_composite_once(monkeypatch):
    # p = 3, N = 1: alpha_p = 1/2; beta_pq = max(1/2, (q-1)/q) is alpha_p
    # itself at q = 2 and 2/3 at q = 3
    calls, grad_power_sup = [], observe.grad_power_sup

    def counting(values, h, theta):
        calls.append(theta)
        return grad_power_sup(values, h, theta)

    monkeypatch.setattr(observe, "grad_power_sup", counting)
    grid = solver.Grid(0.01, 100, 1)
    for q, thetas in ((2.0, [1.0, 0.5]), (3.0, [1.0, 0.5, 2.0 / 3.0])):
        calls.clear()
        params = ProblemParams(3.0, q, 1)
        state = solver.State(0.0, 1.0 + grid.centers() ** 2, params, grid)
        row = observe.observe(state, 1.0)
        assert sorted(calls) == pytest.approx(sorted(thetas), rel=1e-15)
        assert row["grad_beta"] == grad_power_sup(state.values, grid.h, thetas[-1])


def test_grad_power_theta_validation():
    state = barenblatt_state(h=0.01)
    for theta in (0.0, 1.5):
        with pytest.raises(InvalidParams):
            observe.grad_power_sup(state.values, state.grid.h, theta)


def test_support_radius_floor_field():
    grid = solver.Grid(0.01, 100, 1)
    state = make_state(np.full(100, PARAMS.floor), grid)
    assert support_radius(state, peak(state)) == 0.0
    # a field that decayed below the threshold of its reference peak
    assert support_radius(make_state(np.full(100, PARAMS.floor + 1e-7), grid), 1.0) == 0.0


def test_support_radius_bump():
    grid = solver.Grid.from_extent(0.01, 3.0, 1)
    state = solver.initial_state(PARAMS, grid, model.Bump(R0=1.0))
    assert support_radius(state, peak(state)) == pytest.approx(1.0, abs=0.01)


def test_support_radius_barenblatt():
    state = barenblatt_state(h=0.005)
    edge = 6.0 ** (2.0 / 3.0)
    assert support_radius(state, peak(state)) == pytest.approx(edge, abs=0.01)


def test_l1_excess_quadrature():
    # radial N = 2 shell weights: 2 pi r h
    grid = solver.Grid(0.01, 200, 2)
    params = ProblemParams(3.0, 2.0, 2)
    vals = np.full(200, params.floor)
    vals += 1.0                                     # uniform unit excess
    state = solver.State(0.0, vals, params, grid)
    assert observe.observe(state, 1.0)["l1_excess"] == pytest.approx(np.pi * 2.0 ** 2, rel=1e-3)


def series_from_rows(rows):
    s = TimeSeries()
    for row in rows:
        for col, val in zip(observe.CSV_COLUMNS, row):
            s.columns[col].append(float(val))
    return s


def test_timeseries_validation():
    s = TimeSeries()
    row = dict(zip(observe.CSV_COLUMNS, (1.0, 1.0, 1.0, 0.5, 0.1, 0.2, 2.0, 0.0, 0.0)))
    s.append(row)
    assert [s.columns[c] for c in observe.CSV_COLUMNS] == [[v] for v in row.values()]
    with pytest.raises(InvalidParams):
        s.append(row)                  # time must increase
    with pytest.raises(InvalidParams):
        s.append(dict(row, t=2.0, sup_excess=1.5))   # sup_excess must not increase
    assert len(s) == 1


def test_timeseries_csv_roundtrip():
    rows = [(0.1 * (i + 1), 1.0 / (i + 1), 2.0 / (i + 1), 0.3, 0.2, 0.1,
             1.0 + i, 0.01 * i, 1e-17 * i) for i in range(5)]
    s = series_from_rows(rows)
    text = s.to_csv()
    assert text.splitlines()[0] == ",".join(observe.CSV_COLUMNS)
    back = TimeSeries.from_csv(text)
    for col in observe.CSV_COLUMNS:
        assert back.columns[col] == s.columns[col]   # 17 digits are lossless
    with pytest.raises(InvalidParams):
        TimeSeries.from_csv("bogus,header\n1,2\n")


def test_timeseries_rejects_non_finite_values():
    # NaN defeats the order checks, so t = 1, NaN, 0.5 used to load
    text = ",".join(observe.CSV_COLUMNS) + "\n" + "".join(
        f"{t},1,1,1,1,1,1,0,0\n" for t in ("1", "nan", "0.5"))
    with pytest.raises(InvalidParams, match="non-finite"):
        TimeSeries.from_csv(text)


def test_mass_balance_residual():
    # conservation split between the three ledgers gives zero residual
    rows = [(1.0, 1.0, 1.0, 0, 0, 0, 0, 0.0, 0.0),
            (2.0, 0.9, 0.7, 0, 0, 0, 0, 0.2, 0.1),
            (4.0, 0.8, 0.5, 0, 0, 0, 0, 0.3, 0.2)]
    assert mass_balance_residual(series_from_rows(rows)) == pytest.approx(0.0, abs=1e-12)
    rows[2] = (4.0, 0.8, 0.5, 0, 0, 0, 0, 0.3, 0.1)
    assert mass_balance_residual(series_from_rows(rows)) == pytest.approx(0.1)
    assert mass_balance_residual(TimeSeries()) == 0.0
