import dataclasses

import numpy as np
import pytest

from gradabs import model, observe, solver
from gradabs.exponents import InvalidParams, ProblemParams
from gradabs.solver import (ConfigError, FloorViolationError, Grid, RunConfig,
                            SupportOverflowError, comparison_run,
                            initial_state, parse_config, record_times, run,
                            stable_dt, step)

PARAMS = ProblemParams(3.0, 2.0, 1)


def barenblatt_state(h=0.01, L=6.0):
    grid = Grid.from_extent("radial", h, L, 1)
    return initial_state(PARAMS, grid, model.BarenblattAt(t0=1.0))


def test_grid_invariants():
    g = Grid("line", 0.1, 40, 1)
    assert g.L == pytest.approx(2.0)
    assert g.centers()[0] == pytest.approx(-2.0 + 0.05)
    r = Grid("radial", 0.1, 40, 2)
    assert r.L == pytest.approx(4.0)
    assert r.centers()[0] == pytest.approx(0.05)
    with pytest.raises(ConfigError):
        Grid("cartesian", 0.1, 40, 1)
    with pytest.raises(ConfigError):
        Grid("line", 0.1, 8, 1)       # too few cells
    with pytest.raises(ConfigError):
        Grid("line", 0.1, 40, 2)      # line geometry is one-dimensional


def test_cell_measures():
    line = Grid("line", 0.1, 40, 1)
    assert np.allclose(line.cell_measures(), 0.1)
    radial = Grid("radial", 0.1, 40, 3)
    r = radial.centers()
    assert np.allclose(radial.cell_measures(), 4.0 * np.pi * r ** 2 * 0.1)


def test_stable_dt_constant_field():
    grid = Grid("radial", 0.01, 100, 1)
    state = solver.State(0.0, np.full(100, PARAMS.floor), PARAMS, grid)
    dt = stable_dt(state, safety=0.5)
    assert dt == pytest.approx(0.5 * 0.01 ** 2 / (2.0 * PARAMS.eps ** (PARAMS.p - 2.0)))


def test_stable_dt_against_independent_scan():
    state = barenblatt_state(h=0.01)
    dt = stable_dt(state, safety=0.5, absorption=False)
    # independent max-scan over faces
    g2 = (np.diff(state.values) / 0.01) ** 2
    dmax = max(model.effective_diffusivity(float(s), PARAMS.eps, 3.0) for s in g2)
    assert dt == pytest.approx(0.5 * 0.01 ** 2 / (2.0 * dmax))


def test_stable_dt_sees_mirror_ghost_at_origin():
    # the largest centered gradient sits at cell 0, whose left neighbour is
    # the mirror ghost u[-1] = u[0]; the absorption cap binds and must use it
    params = ProblemParams(3.0, 3.0, 1)
    h = 0.05
    grid = Grid("radial", h, 32, 1)
    vals = np.zeros(32)
    vals[0] = 1.0
    vals[2:31] = np.linspace(0.9, 0.0, 29)
    vals += params.floor
    state = solver.State(0.0, vals, params, grid)
    gc0 = (vals[1] - vals[0]) / (2.0 * h)
    cap = 0.5 * params.floor / model.b_eps(gc0 * gc0, params.eps, params.q)
    assert stable_dt(state, safety=0.5) == pytest.approx(cap, rel=1e-12)


def test_stable_dt_quarters_when_h_halves():
    c = stable_dt(barenblatt_state(h=0.01), safety=0.5, absorption=False)
    f = stable_dt(barenblatt_state(h=0.005), safety=0.5, absorption=False)
    assert f == pytest.approx(c / 4.0, rel=0.02)


def test_stable_dt_rejects_bad_safety():
    with pytest.raises(InvalidParams):
        stable_dt(barenblatt_state(), safety=1.5)


def test_constant_field_is_steady():
    grid = Grid("radial", 0.01, 100, 1)
    state = solver.State(0.0, np.full(100, 0.3 + PARAMS.floor), PARAMS, grid)
    new = step(state, 1e-5)
    # fluxes vanish and b_eps(0) = 0 away from the pinned boundary cell
    assert np.allclose(new.values[:-1], state.values[:-1], atol=1e-16)
    assert new.time == pytest.approx(1e-5)


def test_single_step_matches_analytic_time_derivative():
    h = 0.002
    state = barenblatt_state(h=h, L=5.0)
    dt = 1e-7
    new = step(state, dt, absorption=False)
    r = state.grid.centers()
    edge = model.barenblatt_support_radius(1.0, 3.0, 1)
    inside = r < 0.8 * edge
    expected = model.barenblatt_time_derivative(1.0, r[inside], 3.0, 1) * dt
    got = (new.values - state.values)[inside]
    # the profile's second derivative blows up like r^(-1/2) at the origin,
    # so the truncation error there is O(h^(3/2)); 3 percent of the update
    # covers it at this resolution
    assert np.max(np.abs(got - expected)) <= 0.03 * np.max(np.abs(expected))
    # away from the origin the scheme is second order
    mid = (r > 0.2 * edge) & (r < 0.8 * edge)
    expected_mid = model.barenblatt_time_derivative(1.0, r[mid], 3.0, 1) * dt
    got_mid = (new.values - state.values)[mid]
    assert np.max(np.abs(got_mid - expected_mid)) <= 1e-4 * (h ** 2 + dt)


def test_monotone_data_stay_monotone():
    # radial non-increasing fields remain non-increasing after one step
    rng = np.random.default_rng(9)
    grid = Grid("radial", 0.05, 32, 1)
    for _ in range(50):
        vals = np.sort(rng.uniform(0.0, 1.0, 32))[::-1] + PARAMS.floor
        vals[-1] = PARAMS.floor
        state = solver.State(0.0, vals.copy(), PARAMS, grid)
        dt = stable_dt(state, safety=0.5)
        new = step(state, dt)
        assert np.all(np.diff(new.values[:-1]) <= 1e-13)


def test_max_principle_and_floor():
    state = barenblatt_state(h=0.01)
    dt = stable_dt(state, safety=0.5)
    cur = state
    for _ in range(50):
        cur = step(cur, dt)
        assert cur.values.max() <= state.values.max() + 1e-14
        assert cur.values.min() >= PARAMS.floor - 1e-14


def test_floor_violation_detected_on_cfl_breach():
    grid = Grid("radial", 0.01, 64, 1)
    vals = np.full(64, PARAMS.floor)
    vals[:20] += np.linspace(1.0, 0.0, 20)    # steep ramp
    state = solver.State(0.0, vals, PARAMS, grid)
    with pytest.raises(FloorViolationError):
        step(state, 1.0)                      # far beyond the stable dt


def test_run_zero_profile():
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.01, L=2.0, t_end=0.5,
                    profile="bump:R0=1,H=0,m=2")
    state, series = run(cfg)
    assert np.allclose(state.values, state.floor)
    assert np.all(series.column("sup_excess") == 0.0)
    assert np.all(series.column("l1_excess") == 0.0)
    assert np.all(series.column("rho") == 0.0)


def test_run_pure_diffusion_conserves_mass():
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.01, L=6.0, t_end=2.0,
                    profile="barenblatt:t0=1", absorption=False,
                    record_start=1.0)
    _, series = run(cfg)
    l1 = series.column("l1_excess")
    assert np.max(np.abs(l1 - l1[0])) <= 1e-12 * l1[0]


def test_run_absorption_l1_nonincreasing():
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=4.0, t_end=4.0)
    _, series = run(cfg)
    l1 = series.column("l1_excess")
    assert np.all(np.diff(l1) <= 1e-12)
    assert observe.mass_balance_residual(series) <= 1e-10


def test_run_detects_support_overflow():
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=1.2, t_end=16.0,
                    absorption=False)
    with pytest.raises(SupportOverflowError):
        run(cfg)


def test_run_is_deterministic():
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=4.0, t_end=1.0)
    _, s1 = run(cfg)
    _, s2 = run(cfg)
    assert s1.to_csv() == s2.to_csv()


def test_line_and_radial_agree_for_n1():
    # a symmetric N=1 problem computed on the half-line matches the full line
    line = RunConfig(3.0, 2.0, 1, geometry="line", h=0.01, L=3.0, t_end=0.5)
    radial = dataclasses.replace(line, geometry="radial")
    ls, _ = run(line)
    rs, _ = run(radial)
    half = ls.values[ls.grid.n // 2:]
    assert np.max(np.abs(half - rs.values[:half.size])) <= 5e-4


def test_record_times():
    times = record_times(0.0, 4.0, 0.5)
    assert times[0] == pytest.approx(0.5)
    assert times[-1] == pytest.approx(4.0)
    ratios = np.diff(np.log2(times))
    assert np.allclose(ratios, 0.25)
    # start past t0 keeps only later entries
    times = record_times(1.0, 2.0, 0.5)
    assert all(t > 1.0 for t in times)


def test_parse_config():
    text = """
    # sample configuration
    p = 3
    q = 2
    N = 1
    eps = 1e-3
    geometry = radial
    h = 0.01
    L = 4
    t_end = 2
    safety = 0.4
    profile = bump:R0=1,H=1,m=2
    absorption = on
    record_start = 0.125
    """
    cfg = parse_config(text)
    assert cfg.p == 3.0 and cfg.q == 2.0 and cfg.L == 4.0
    assert cfg.absorption is True
    assert cfg.record_start == 0.125

    with pytest.raises(ConfigError):
        parse_config("p = 3\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("p = 3\np = 4\n")
    with pytest.raises(ConfigError):
        parse_config("absorption = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("p 3\n")
    with pytest.raises(ConfigError):
        parse_config("p = 1.5\nq = 2\n")   # invalid exponent range


def test_default_domain_extent():
    cfg = RunConfig(3.0, 2.0, 1, t_end=16.0)
    # margin * (R0 + 2 t^eta edge) with eta = 1/4 and edge = 6^(2/3)
    expected = 1.25 * (1.0 + 2.0 * 16.0 ** 0.25 * 6.0 ** (2.0 / 3.0))
    assert cfg.domain_extent() == pytest.approx(expected)
    assert dataclasses.replace(cfg, L=5.0).domain_extent() == 5.0


def test_comparison_identical_profiles():
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=4.0, t_end=0.5)
    rep = comparison_run(model.Bump(), model.Bump(), cfg)
    assert rep["max_violation"] == 0.0


def test_comparison_ordered_profiles():
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=4.0, t_end=0.5)
    rep = comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    assert rep["max_violation"] <= 1e-12
    with pytest.raises(InvalidParams):
        comparison_run(model.Bump(H=1.5), model.Bump(H=1.0), cfg)


@pytest.mark.parametrize("geometry,N", [("line", 1), ("radial", 1),
                                        ("radial", 2), ("radial", 3)])
@pytest.mark.parametrize("pair", ["ordered", "absorption"])
def test_comparison_principle_geometries(geometry, N, pair):
    cfg = RunConfig(3.0, 2.0, N, geometry=geometry, h=0.02, L=4.0, t_end=0.5)
    if pair == "ordered":
        rep = comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    else:
        rep = comparison_run(model.Bump(), model.Bump(), cfg,
                             absorption_a=True, absorption_b=False)
    assert rep["max_violation"] <= 1e-12
