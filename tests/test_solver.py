import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from barenblatt_oracle import barenblatt_time_derivative

from gradabs import model, observe, solver
from gradabs.exponents import InvalidParams, ProblemParams
from gradabs.solver import (ConfigError, FloorViolationError, Grid, RunConfig,
                            SupportOverflowError, comparison_run,
                            initial_state, parse_config, record_times, run)

PARAMS = ProblemParams(3.0, 2.0, 1)


def barenblatt_state(h=0.01, L=6.0):
    grid = Grid.from_extent(h, L, 1)
    return initial_state(PARAMS, grid, model.BarenblattAt(t0=1.0))


# full-grid stepping through one _Stepper, which holds the ledgers of the
# steps it takes

def stepper(state, absorption=True):
    return solver._Stepper(state.params, state.grid, absorption)


def stable_dt(st, u):
    return st.stable_dt_from(*st.gradients(u, st.lo_min, st.hi_max)[1:])


def step(st, u, dt):
    """Advance every unpinned cell of u by dt, in place; returns u."""
    st.step_window(u, st.lo_min, st.hi_max, dt, st.gradients(u, st.lo_min, st.hi_max))
    return u


def test_grid_invariants():
    r = Grid(0.1, 40, 2)
    assert r.L == pytest.approx(4.0)
    assert r.centers()[0] == pytest.approx(0.05)
    assert Grid.from_extent(0.1, 4.0, 2) == r
    with pytest.raises(ConfigError):
        Grid(0.1, 8, 1)               # too few cells
    with pytest.raises(ConfigError):
        Grid(0.0, 40, 1)
    # too many cells, L/h past every integer, and radial weights r^(N-1)
    # that overflow (N = 400) or underflow (N = 200)
    for h, L, N in ((1e-12, 8.0, 1), (5e-324, 8.0, 1), (0.02, 4.0, 400), (0.02, 4.0, 200)):
        with pytest.raises(ConfigError):
            Grid.from_extent(h, L, N)
    assert Grid.from_extent(1e-5, 10.0, 1).n == solver.MAX_CELLS


def test_cell_measures():
    assert np.allclose(Grid(0.1, 40, 1).cell_measures(), 2.0 * 0.1)
    radial = Grid(0.1, 40, 3)
    r = radial.centers()
    assert np.allclose(radial.cell_measures(), 4.0 * np.pi * r ** 2 * 0.1)


def test_stable_dt_constant_field():
    grid = Grid(0.01, 100, 1)
    state = solver.State(0.0, np.full(100, PARAMS.floor), PARAMS, grid)
    dt = stable_dt(stepper(state), state.values)
    assert dt == pytest.approx(solver.SAFETY * 0.01 ** 2
                               / (2.0 * PARAMS.eps ** (PARAMS.p - 2.0)))


def stencil_weight(grid):
    """The largest sum, over the unpinned cells, of a cell's flux-carrying
    face weights r^(N-1) over its own weight, scanned cell by cell: cell i
    has faces at r = i h and (i + 1) h and its center at (i + 1/2) h, and
    face 0, at r = 0, carries no flux.  An Euler stage is monotone while
    tau <= h^2 / (stencil_weight D_max)."""
    k = grid.N - 1.0
    i = np.arange(grid.n - 1.0)
    faces = np.where(i > 0.0, i ** k, 0.0) + (i + 1.0) ** k
    return float(np.max(faces / (i + 0.5) ** k))


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_stable_dt_against_independent_scan(N):
    params = ProblemParams(3.0, 2.0, N)
    grid = Grid.from_extent(0.01, 6.0, N)
    u = initial_state(params, grid, model.BarenblattAt(t0=1.0)).values
    dt = stable_dt(solver._Stepper(params, grid, False), u)
    # independent max-scans over the faces and over the stencil's weights
    g2 = (np.diff(u) / 0.01) ** 2
    dmax = max(model.effective_diffusivity(float(s), params.eps, 3.0) for s in g2)
    assert dt == pytest.approx(solver.SAFETY * 0.01 ** 2 / (stencil_weight(grid) * dmax))


def test_stable_dt_sees_mirror_ghost_at_origin():
    # the largest centered gradient sits at cell 0, whose left neighbour is
    # the mirror ghost u[-1] = u[0]; the absorption cap binds and must use it
    params = ProblemParams(3.0, 3.0, 1)
    h = 0.05
    grid = Grid(h, 32, 1)
    vals = np.zeros(32)
    vals[0] = 1.0
    vals[2:31] = np.linspace(0.9, 0.0, 29)
    vals += params.floor
    state = solver.State(0.0, vals, params, grid)
    gc0 = (vals[1] - vals[0]) / (2.0 * h)
    cap = solver.SAFETY * params.floor / model.b_eps(gc0 * gc0, params.eps, params.q)
    assert stable_dt(stepper(state), vals) == pytest.approx(cap, rel=1e-12)


def test_stable_dt_is_nan_for_a_nan_gradient():
    # the CFL maxima are read by index; argmax finds the first NaN, as the
    # reduction it replaced propagated it
    state = barenblatt_state(h=0.02)
    u = state.values.copy()
    u[5] = np.nan
    for absorption in (False, True):
        assert np.isnan(stable_dt(stepper(state, absorption), u))


def test_stable_dt_quarters_when_h_halves():
    c, f = (stable_dt(stepper(s, absorption=False), s.values)
            for s in (barenblatt_state(h=0.01), barenblatt_state(h=0.005)))
    assert f == pytest.approx(c / 4.0, rel=0.02)


def test_constant_field_is_steady():
    grid = Grid(0.01, 100, 1)
    state = solver.State(0.0, np.full(100, 0.3 + PARAMS.floor), PARAMS, grid)
    st = stepper(state)
    new = step(st, state.values.copy(), 1e-5)
    # fluxes vanish and b_eps(0) = 0 away from the pinned boundary cell
    assert np.allclose(new[:-1], state.values[:-1], atol=1e-16)
    assert st.absorbed == st.boundary_out == 0.0


def test_single_step_matches_analytic_time_derivative():
    h = 0.002
    state = barenblatt_state(h=h, L=5.0)
    dt = 1e-7
    new = step(stepper(state, absorption=False), state.values.copy(), dt)
    r = state.grid.centers()
    edge = model.barenblatt_support_radius(1.0, 3.0, 1)
    gp = model.gamma_p_constant(3.0, 1)
    inside = r < 0.8 * edge
    expected = barenblatt_time_derivative(1.0, r[inside], 3.0, 1, gp) * dt
    got = (new - state.values)[inside]
    # the profile's second derivative blows up like r^(-1/2) at the origin,
    # so the truncation error there is O(h^(3/2)); 3 percent of the update
    # covers it at this resolution
    assert np.max(np.abs(got - expected)) <= 0.03 * np.max(np.abs(expected))
    # away from the origin the scheme is second order
    mid = (r > 0.2 * edge) & (r < 0.8 * edge)
    expected_mid = barenblatt_time_derivative(1.0, r[mid], 3.0, 1, gp) * dt
    got_mid = (new - state.values)[mid]
    assert np.max(np.abs(got_mid - expected_mid)) <= 1e-4 * (h ** 2 + dt)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_monotone_data_stay_monotone(N):
    # radial non-increasing fields remain non-increasing after one stage at
    # the CFL bound, whose weight is 2 at N = 1 and 2 and 4 at N = 3
    params = ProblemParams(3.0, 2.0, N)
    rng = np.random.default_rng(9)
    st = solver._Stepper(params, Grid(0.05, 32, N), True)
    for _ in range(200):
        vals = np.sort(rng.uniform(0.0, 1.0, 32))[::-1] + params.floor
        vals[-1] = params.floor
        new = step(st, vals, stable_dt(st, vals))
        assert np.all(np.diff(new[:-1]) <= 1e-13)


@pytest.mark.parametrize("N", range(1, 9))
def test_cone_stays_monotone_at_the_origin(N):
    # the origin cell's stencil weight is face 1's h^(N-1) over its own
    # (h/2)^(N-1), the CFL weight from N = 3 on; a stage at the CFL bound
    # must keep the cone radially non-increasing (with the Cartesian
    # stencil's weight, twice N, which falls below 2^(N-1) from N = 5 on,
    # cell 0 rose by 9.4e-4, 1.8e-2 and 4.8e-2 at N = 6, 7 and 8)
    params = ProblemParams(3.0, 2.0, N)
    grid = Grid.from_extent(0.02, 2.0, N)
    u = params.floor + np.maximum(1.0 - grid.centers(), 0.0)
    st = solver._Stepper(params, grid, False)
    new = step(st, u.copy(), stable_dt(st, u))
    assert np.all(np.diff(new[:-1]) <= 0.0)
    assert new.max() <= u.max() and new.min() >= params.floor


@pytest.mark.parametrize("p,N", [(2.1, 7), (2.5, 10)])
def test_pure_diffusion_keeps_the_floor_in_high_dimension(p, N):
    # the origin cell's weight 2^(N-1) sets the CFL bound here; with the
    # Cartesian stencil's weight, twice N, both runs broke the floor in their
    # first step
    cfg = RunConfig(p, 2.0, N, h=0.02, L=4.0, t_end=0.05, absorption=False)
    state, _ = run(cfg)
    assert np.all(state.values >= state.floor)


# steep data on which the absorption cap SAFETY floor / b_max, not the
# diffusion bound, sets dt on some steps (14 and 221 of them)
@pytest.mark.parametrize("q,profile", [(6.0, "bump:R0=0.25,H=1,m=2"),
                                       (4.0, "bump:R0=1,H=16,m=2")])
def test_absorption_cap_keeps_the_floor_on_steep_runs(monkeypatch, q, profile):
    cfg = RunConfig(3.0, q, 1, eps=1e-3, h=0.01, L=6.0, t_end=0.25, profile=profile)
    stable_dt_from, capped = solver._Stepper.stable_dt_from, []

    def spy(self, s, sc):
        dt = stable_dt_from(self, s, sc)
        capped.append(dt < stable_dt_from(self, s, None))
        return dt

    monkeypatch.setattr(solver._Stepper, "stable_dt_from", spy)
    state, series = run(cfg)
    assert any(capped)
    assert np.all(state.values >= state.floor)
    assert observe.mass_balance_residual(series) <= 1e-12


def test_max_principle_and_floor():
    state = barenblatt_state(h=0.01)
    st = stepper(state)
    dt = stable_dt(st, state.values)
    cur = state.values.copy()
    for _ in range(50):
        step(st, cur, dt)
        assert cur.max() <= state.values.max() + 1e-14
        assert cur.min() >= PARAMS.floor - 1e-14


def test_floor_violation_detected_on_cfl_breach():
    grid = Grid(0.01, 64, 1)
    vals = np.full(64, PARAMS.floor)
    vals[:20] += np.linspace(1.0, 0.0, 20)    # steep ramp
    state = solver.State(0.0, vals, PARAMS, grid)
    with pytest.raises(FloorViolationError):
        step(stepper(state), vals, 1.0)       # far beyond the stable dt


def test_run_zero_profile():
    cfg = RunConfig(3.0, 2.0, 1, h=0.01, L=2.0, t_end=0.5,
                    profile="bump:R0=1,H=0,m=2")
    state, series = run(cfg)
    assert np.allclose(state.values, state.floor)
    assert np.all(series.column("sup_excess") == 0.0)
    assert np.all(series.column("l1_excess") == 0.0)
    assert np.all(series.column("rho") == 0.0)


def test_run_pure_diffusion_conserves_mass():
    cfg = RunConfig(3.0, 2.0, 1, h=0.01, L=6.0, t_end=2.0,
                    profile="barenblatt:t0=1", absorption=False,
                    record_start=1.0)
    _, series = run(cfg)
    l1 = series.column("l1_excess")
    assert np.max(np.abs(l1 - l1[0])) <= 1e-12 * l1[0]


def test_run_absorption_l1_nonincreasing():
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=4.0)
    state, series = run(cfg)
    assert type(state.absorbed_mass) is float
    assert type(state.boundary_out) is float
    l1 = series.column("l1_excess")
    assert np.all(np.diff(l1) <= 1e-12)
    assert observe.mass_balance_residual(series) <= 1e-10


def test_run_reports_a_nan_in_the_field_as_non_finite():
    # a NaN written into the field at the first record gives dt = NaN, which
    # ends the advance; the floor check's minimum, read by index, is NaN too
    # and raises nothing, so the next record reports the non-finite field
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=1.0)

    def poison(state):
        if state.time == 0.0:
            state.values[0] = np.nan

    with pytest.raises(solver.NumericalError, match="non-finite field at t=0.0625") as info:
        run(cfg, on_record=poison)
    assert type(info.value) is solver.NumericalError


def test_run_detects_support_overflow():
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=1.2, t_end=16.0, absorption=False)
    with pytest.raises(SupportOverflowError):
        run(cfg)


def test_run_is_deterministic():
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=1.0)
    _, s1 = run(cfg)
    _, s2 = run(cfg)
    assert s1.to_csv() == s2.to_csv()


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
    profile = bump:R0=1,H=1,m=2
    absorption = on
    record_start = 0.125
    """
    cfg = parse_config(text)
    assert cfg.p == 3.0 and cfg.q == 2.0 and cfg.L == 4.0
    assert cfg.absorption is True
    assert cfg.record_start == 0.125
    # the grid is radial; a config may still say so, once
    assert parse_config(text.replace("geometry = radial", "")) == cfg

    with pytest.raises(ConfigError):
        parse_config("p = 3\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("p = 3\np = 4\n")
    with pytest.raises(ConfigError):
        parse_config("absorption = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("p 3\n")
    with pytest.raises(ConfigError, match="duplicate key 'geometry'"):
        parse_config("p = 3\nq = 2\ngeometry = radial\ngeometry = radial\n")
    for geometry in ("line", "cartesian"):
        with pytest.raises(ConfigError, match=f"geometry must be radial, got '{geometry}'"):
            parse_config(f"p = 3\nq = 2\ngeometry = {geometry}\n")
    # the share of the monotone limit is the constant SAFETY, and the floor
    # exponent is gamma_cap(p, q, N), not keys
    for key, value in (("safety", 0.9), ("gamma", 0.75)):
        with pytest.raises(ConfigError, match=f"line 3: unknown key '{key}'"):
            parse_config(f"p = 3\nq = 2\n{key} = {value}\n")
    with pytest.raises(ConfigError):
        parse_config("p = 1.5\nq = 2\n")   # invalid exponent range
    # a missing required key is named, not a TypeError from RunConfig
    for text, missing in (("q = 2\n", "p"), ("p = 3\n", "q"), ("h = 0.02\n", "p, q")):
        with pytest.raises(ConfigError, match=f"missing required key\\(s\\) {missing}$"):
            parse_config(text)
    # values a run cannot start from are rejected when the config is built
    for bad in ("record_start = 0", "t_end = 0", "profile = barenblatt:t0=1\nt_end = 1",
                "L = -2", "L = four", "profile = bump:R0=x", "profile = bump:R0=0.1",
                "profile = bump:H=-1"):
        with pytest.raises(ConfigError):
            parse_config("p = 3\nq = 2\nh = 0.02\n" + bad)
    # a value of the wrong kind is named with its line and key
    for bad, message in (
            ("L = four", "L must be a number, got 'four'"),
            ("N = 2.5", "N must be an integer, got '2.5'"),
            ("eps = 1e-3x", "eps must be a number, got '1e-3x'"),
            ("profile = bump:R0=x", "profile option 'R0=x' in 'bump:R0=x' is not a number"),
            ("profile = wedge:R0=1", "unknown profile 'wedge'"),
            ("geometry = line", "geometry must be radial, got 'line'"),
            ("absorption = maybe", "absorption must be on or off, got 'maybe'")):
        with pytest.raises(ConfigError, match=f"^line 4: {re.escape(message)}$"):
            parse_config("p = 3\nq = 2\nh = 0.02\n" + bad)
    with pytest.raises(InvalidParams):
        dataclasses.replace(cfg, record_start=0.0)


def test_default_domain_extent():
    cfg = RunConfig(3.0, 2.0, 1, t_end=16.0)
    # margin * (R0 + 2 t^eta edge) with eta = 1/4 and edge = 6^(2/3)
    expected = 1.25 * (1.0 + 2.0 * 16.0 ** 0.25 * 6.0 ** (2.0 / 3.0))
    assert cfg.domain_extent() == pytest.approx(expected)
    assert cfg.grid().n == round(expected / cfg.h)
    assert dataclasses.replace(cfg, L=5.0).domain_extent() == 5.0


def test_comparison_identical_profiles(monkeypatch):
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=0.5)
    states, init = [], solver.initial_state
    monkeypatch.setattr(solver, "initial_state",
                        lambda *args: states.append(init(*args)) or states[-1])
    # H = 0: both fields start at the floor, a steady state the run leaves as it is
    for H in (1.0, 0.0):
        states.clear()
        rep = comparison_run(model.Bump(H=H), model.Bump(H=H), cfg)
        assert rep["max_violation"] == 0.0
    assert len(states) == 2 and all(np.all(s.values == s.floor) for s in states)


def test_comparison_ordered_profiles():
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=0.5)
    rep = comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    assert rep["max_violation"] <= 1e-12
    with pytest.raises(InvalidParams):
        comparison_run(model.Bump(H=1.5), model.Bump(H=1.0), cfg)


@pytest.mark.parametrize("N", [1, 2, 3], ids=lambda N: f"radial-{N}")
@pytest.mark.parametrize("pair", ["ordered", "absorption"])
def test_comparison_principle_geometries(N, pair):
    cfg = RunConfig(3.0, 2.0, N, h=0.02, L=4.0, t_end=0.5)
    if pair == "ordered":
        rep = comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    else:
        rep = comparison_run(model.Bump(), model.Bump(), cfg,
                             absorption_a=True, absorption_b=False)
    assert rep["max_violation"] <= 1e-12


def reference_step(u, params, grid, a, b, dt, absorption, line=False):
    """One explicit step of cells [a, b) written out plainly in the folded
    algebra: np.diff face differences d = h g (0 on the zero-flux face at
    r = 0, which is also the mirror-ghost difference of cell 0), the
    squared centered difference (d_l + d_r)^2 = (2h gc)^2, the coefficients
    regularized by eps h and 2 eps h, which return h^(p-2) a and (2h)^q b,
    and the radial divergence as a difference of two weighted products.
    With line, u is a field on the line [-L, L] of 2 grid.n cells, which
    has no origin and no weights: its cell factor is 1/h, its outflow is
    not multiplied by a sphere area, and a cell's measure is h.  Returns (new values, absorbed increment, boundary_out
    increment)."""
    p, q, eps, h = params.p, params.q, params.eps, grid.h
    origin = a == 0 and not line
    u = u.copy()
    d = np.diff(u[max(a - 1, 0):b + 1])
    if origin:
        d = np.concatenate(([0.0], d))
    flux = model.a_eps(d * d, eps * h, p) * d          # h^(p-1) a g
    if line:
        rw = np.ones(b - a + 1)
        inv_rch, omega = np.full(b - a, 1.0 / h), 1.0
        cellw = np.full(b - a, h)
    else:
        rw = (np.arange(grid.n + 1) * h)[a:b + 1] ** (grid.N - 1.0)
        inv_rch = (1.0 / (grid.centers() ** (grid.N - 1.0) * h))[a:b]
        omega = solver.sphere_area(grid.N)
        cellw = grid.cell_measures()[a:b]
    div = (rw[1:] * flux[1:] - rw[:-1] * flux[:-1]) * (inv_rch * (dt * h ** (1.0 - p)))
    out = dt * (omega * h ** (1.0 - p)) * (rw[0] * flux[0] - rw[-1] * flux[-1])
    u[a:b] += div
    absorbed = 0.0
    if absorption:
        babs = model.b_eps((d[:-1] + d[1:]) ** 2, 2.0 * eps * h, q)   # (2h)^q b
        tau_b = dt * (2.0 * h) ** -q
        u[a:b] -= babs * tau_b
        absorbed = tau_b * float(babs @ cellw)
    return u, absorbed, out


def reference_stable_dt(u, params, grid, a, b, absorption, line=False):
    """The CFL rule of the step above, on the same plain differences:
    SAFETY h^2 / (w D_max) with w = stencil_weight(grid) and
    D_max = h^(2-p) D(eps h; d^2), capped at SAFETY floor / b_max with
    b_max = (2h)^(-q) b(2 eps h; sc)."""
    p, q, eps, h, safety = params.p, params.q, params.eps, grid.h, solver.SAFETY
    d = np.diff(u[max(a - 1, 0):b + 1])
    dmax = model.effective_diffusivity(float((d * d).max()), eps * h, p)
    dt = safety * h ** p / (stencil_weight(grid) * dmax)
    if absorption:
        if a == 0 and not line:
            d = np.concatenate(([0.0], d))
        scmax = float(((d[:-1] + d[1:]) ** 2).max())
        if scmax > 0.0:
            dt = min(dt, safety * params.floor * (2.0 * h) ** q
                     / model.b_eps(scmax, 2.0 * eps * h, q))
    return dt


def even_extension(u):
    """The field on the line [-L, L] whose right half is the radial N = 1
    field u: every profile is a function of |x|."""
    return np.concatenate((u[::-1], u))


# "line": the radial N = 1 stepper against the line's plain step on the
# right half of the even extension; the left half mirrors it, so each of
# the line's ledgers is twice the half's
KERNEL_GRIDS = [("line", 1), ("radial", 1), ("radial", 2), ("radial", 3)]


@pytest.mark.parametrize("geometry,N", KERNEL_GRIDS)
@pytest.mark.parametrize("absorption", [False, True])
@pytest.mark.parametrize("window", ["full", "interior"])
def test_step_kernel_matches_plain_reference(geometry, N, absorption, window, p=3.0, q=1.6):
    # at (3, 1.6) a_eps takes np.sqrt and b_eps np.power; the test below
    # runs these cases at the other powers
    params = ProblemParams(p, q, N)
    grid = Grid.from_extent(0.05, 1.5, N)
    n, line = grid.n, geometry == "line"

    def reference(u, a, b, dt):
        if not line:
            return reference_step(u, params, grid, a, b, dt, absorption)
        ext, absorbed, out = reference_step(even_extension(u), params, grid, n + a, n + b,
                                            dt, absorption, line=True)
        return ext[n:], 2.0 * absorbed, 2.0 * out

    def reference_dt(u, a, b):
        if not line:
            return reference_stable_dt(u, params, grid, a, b, absorption)
        return reference_stable_dt(even_extension(u), params, grid, n + a, n + b,
                                   absorption, line=True)

    state = initial_state(params, grid, model.Bump(R0=2.0, H=1.0, m=2.0))
    u0 = state.values
    st = stepper(state, absorption)
    a, b = (st.lo_min, st.hi_max) if window == "full" else (3, grid.n - 4)
    dt_ref = reference_dt(u0, a, b)
    ref, absorbed, out = reference(u0, a, b, dt_ref)
    dt = st.stable_dt_from(*st.gradients(u0, a, b)[1:])
    got = u0.copy()
    st.step_window(got, a, b, dt_ref, st.gradients(got, a, b))
    got_absorbed, got_out = st.absorbed, st.boundary_out
    assert np.any(got != u0) and out != 0.0
    # bit for bit, absorption on or off: the reference forms the centered
    # difference as the kernel does, the sum of the cell's face differences
    assert got_out == out
    assert np.array_equal(got, ref)
    assert dt == dt_ref and got_absorbed == absorbed
    assert (absorbed > 0.0) == absorption

    # one stepper reused across two arrays and two windows: each step must
    # match the reference and leave the other array alone, so no step
    # writes through views bound to another array or window
    fields = [u0.copy(), initial_state(params, grid, model.Bump(R0=1.0, H=0.5)).values]
    windows = [(a, b), (st.lo_min + 2, st.hi_max - 5)]
    reused = stepper(state, absorption)
    for k, w in ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)):
        u, other = fields[k], fields[1 - k].copy()
        ref, _, _ = reference(u, *windows[w], dt_ref)
        reused.step_window(u, *windows[w], dt_ref, reused.gradients(u, *windows[w]))
        assert np.array_equal(fields[1 - k], other)
        assert np.array_equal(u, ref)


# (p, q) -> the power each coefficient takes: (4, 2) no call for either,
# (3, 4) np.sqrt and np.square, (3.5, 3) np.power for both
@pytest.mark.parametrize("p,q", [(4.0, 2.0), (3.0, 4.0), (3.5, 3.0)])
@pytest.mark.parametrize("geometry,N", KERNEL_GRIDS)
@pytest.mark.parametrize("absorption", [False, True])
@pytest.mark.parametrize("window", ["full", "interior"])
def test_step_kernel_matches_plain_reference_at_each_power(geometry, N, absorption, window,
                                                           p, q):
    test_step_kernel_matches_plain_reference(geometry, N, absorption, window, p, q)


def test_comparison_run_forms_gradients_once_per_field_per_step(monkeypatch):
    # both fields share one buffer, so a stage of the pair is one gradients
    # and one step_window call, and a step of the pair one CFL call; the step
    # count comes from the full-grid reference, which takes the same dt
    # sequence with one CFL call per field and step
    calls = {"gradients": 0, "stable_dt_from": 0, "step_window": 0}

    def counting(name):
        original = getattr(solver._Stepper, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver._Stepper, name, counting(name))
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=0.05)
    profiles = (model.Bump(H=1.0), model.Bump(H=1.5))
    comparison_run(*profiles, cfg)
    paired = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    reference_comparison_run(*profiles, cfg, True, True)
    steps = calls["stable_dt_from"] // 2
    S = solver.STAGES
    assert steps > 0 and calls == {"gradients": 2 * S * steps, "stable_dt_from": 2 * steps,
                                   "step_window": 2 * S * steps}
    assert paired == {"gradients": S * steps, "stable_dt_from": steps,
                      "step_window": S * steps}


def ssprk_step(pairs, lo, hi, dt_max):
    """One SSPRK(S, 2) step of every (stepper, field) pair on cells
    [lo, hi), written out plainly: the shared dt from the CFL bounds of u^n,
    S Euler stages of tau = dt/(S-1), then u += (u^n - u)/S, and each
    stepper's ledger increments scaled by (S-1)/S.  Returns dt."""
    S = solver.STAGES
    grads = [st.gradients(u, lo, hi) for st, u in pairs]
    dt = min((S - 1) * min(st.stable_dt_from(*g[1:]) for (st, _), g in zip(pairs, grads)),
             dt_max)
    tau = dt / (S - 1)
    starts = [(u.copy(), st.absorbed, st.boundary_out) for st, u in pairs]
    for stage in range(S):
        if stage:
            grads = [st.gradients(u, lo, hi) for st, u in pairs]
        for (st, u), g in zip(pairs, grads):
            st.step_window(u, lo, hi, tau, g)
    for (st, u), (u_n, absorbed, out) in zip(pairs, starts):
        u += (u_n - u) / S
        st.absorbed = absorbed + (st.absorbed - absorbed) * ((S - 1) / S)
        st.boundary_out = out + (st.boundary_out - out) * ((S - 1) / S)
    return dt


def reference_comparison_run(profile_a, profile_b, config, absorption_a, absorption_b):
    """The full-grid lockstep loop: both fields take SSPRK steps on every
    cell with a shared dt, one stepper each, and the gap is taken over the
    whole grid after every step.  Returns the final fields and max_violation."""
    params, grid = config.params(), config.grid()
    ua = initial_state(params, grid, profile_a).values
    ub = initial_state(params, grid, profile_b).values
    st_a = solver._Stepper(params, grid, absorption_a)
    st_b = solver._Stepper(params, grid, absorption_b)
    t = worst = 0.0
    while t < config.t_end:
        t += ssprk_step([(st_a, ua), (st_b, ub)], st_a.lo_min, st_a.hi_max, config.t_end - t)
        worst = max(worst, float((ua - ub).max()))
    return ua, ub, max(worst, 0.0)


def reference_run(config):
    """run's time loop on the full grid, one SSPRK step after another from
    record time to record time.  Returns the final field and the absorbed
    and boundary_out ledgers."""
    params, grid = config.params(), config.grid()
    state = initial_state(params, grid, config.profile_obj())
    st = solver._Stepper(params, grid, config.absorption)
    t = state.time
    for t_record in record_times(t, config.t_end, config.record_start):
        while t < t_record - 1e-15 * max(1.0, t_record):
            t += ssprk_step([(st, state.values)], st.lo_min, st.hi_max, t_record - t)
        t = t_record
    return state.values, st.absorbed, st.boundary_out


def line_reference_run(config, profiles, absorption, t_targets):
    """The line [-L, L] whose right half is the radial N = 1 grid, stepped
    plainly on all of its 2n cells from the even extensions of the fields'
    initial states, both end cells pinned: SSPRK steps with a shared dt from
    reference_stable_dt, ending on each of t_targets.  Returns the fields'
    right halves, the ledgers (absorbed, boundary_out) of each field, and
    max (u_0 - u_1)_+ after every step."""
    params, grid = config.params(), config.grid()
    S, lo, hi = solver.STAGES, 1, 2 * grid.n - 1
    states = [initial_state(params, grid, profile) for profile in profiles]
    us = [even_extension(state.values) for state in states]
    ledgers = [np.zeros(2) for _ in us]
    t, worst = states[0].time, 0.0
    for t_target in t_targets:
        while t < t_target - 1e-15 * max(1.0, t_target):
            dt = min((S - 1) * min(reference_stable_dt(u, params, grid, lo, hi, ab, line=True)
                                   for u, ab in zip(us, absorption)), t_target - t)
            starts = [u.copy() for u in us]
            for _ in range(S):
                for k, ab in enumerate(absorption):
                    us[k], absorbed, out = reference_step(us[k], params, grid, lo, hi,
                                                          dt / (S - 1), ab, line=True)
                    ledgers[k] += np.array([absorbed, out]) * ((S - 1) / S)
            for u, u_n in zip(us, starts):
                u += (u_n - u) / S
            t += dt
            if len(us) == 2:
                worst = max(worst, float((us[0] - us[1]).max()))
        t = t_target
    return [u[grid.n:] for u in us], ledgers, worst


def test_line_and_radial_agree_for_n1():
    # every profile is a function of |x|, so a run on the radial N = 1 grid
    # is the right half of the same run on the line [-L, L]
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=3.0, t_end=0.25)
    state, _ = run(cfg)
    (u,), ((absorbed, _),), _ = line_reference_run(
        cfg, [cfg.profile_obj()], [True], record_times(0.0, cfg.t_end, cfg.record_start))
    np.testing.assert_allclose(state.values, u, rtol=0.0, atol=1e-15)
    assert state.absorbed_mass == pytest.approx(absorbed, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("geometry,N", KERNEL_GRIDS)
@pytest.mark.parametrize("pair", ["ordered", "nested", "absorption_on_off",
                                  "absorption_off_on", "floor_below"])
def test_windowed_comparison_run_matches_full_grid(monkeypatch, geometry, N, pair):
    cfg = RunConfig(3.0, 2.0, N, h=0.02, L=4.0, t_end=0.25)
    # "nested": the upper field's support is wider than the lower field's
    # window; "floor_below": the lower field is the floor, a steady state
    profiles = {"ordered": (model.Bump(H=1.0), model.Bump(H=1.5)),
                "nested": (model.Bump(R0=0.25), model.Bump(R0=2.0)),
                "floor_below": (model.Bump(H=0.0), model.Bump(H=1.0))}.get(
                    pair, (model.Bump(), model.Bump()))
    absorption = {"absorption_on_off": (True, False),
                  "absorption_off_on": (False, True)}.get(pair, (True, True))
    ua, ub, violation, halves = windowed_and_reference(monkeypatch, profiles, cfg,
                                                       absorption)
    # each half of the packed window is narrower than the grid, yet the
    # result is bit for bit that of the full-grid loop
    n = cfg.grid().n
    assert max(max(h) for h in halves) < n - 2
    if pair == "absorption_off_on":
        assert violation > 0.0
    if pair == "floor_below":
        assert np.all(ua == cfg.params().floor) and violation == 0.0
    if geometry == "line":
        # the pair is also the right half of the same pair on the line
        (la, lb), _, line_violation = line_reference_run(cfg, profiles, absorption,
                                                         [cfg.t_end])
        for u, ref in ((ua, la), (ub, lb)):
            np.testing.assert_allclose(u, ref, rtol=0.0, atol=1e-15)
        assert violation == pytest.approx(line_violation, rel=1e-14, abs=0.0)


def windowed_and_reference(monkeypatch, profiles, cfg, absorption):
    """Run comparison_run and the full-grid reference on the same pair and
    assert that their final fields and violations are bit for bit equal.
    Returns the final fields, the violation and, per step, the widths of
    the B and A halves of the packed window [uB reversed | uA]."""
    ref_a, ref_b, ref_violation = reference_comparison_run(*profiles, cfg, *absorption)

    n = cfg.grid().n
    states, halves = [], []
    init, step_window = solver.initial_state, solver._Stepper.step_window

    def recording_init(*args):
        states.append(init(*args))
        return states[-1]

    def recording_step(self, u, a, b, *args, **kwargs):
        halves.append((max(n - a, 0), max(b - n, 0)))
        return step_window(self, u, a, b, *args, **kwargs)

    monkeypatch.setattr(solver, "initial_state", recording_init)
    monkeypatch.setattr(solver._Stepper, "step_window", recording_step)
    rep = comparison_run(*profiles, cfg, absorption_a=absorption[0],
                         absorption_b=absorption[1])
    monkeypatch.undo()
    assert halves and len(states) == 2
    assert np.array_equal(states[0].values, ref_a)
    assert np.array_equal(states[1].values, ref_b)
    assert rep["max_violation"] == ref_violation
    return states[0].values, states[1].values, ref_violation, halves


@pytest.mark.parametrize("absorption", [(True, True), (True, False), (False, True)])
def test_comparison_run_support_reaches_pinned_ends(monkeypatch, absorption):
    # the packed buffer's two end cells are the fields' pinned outer cells;
    # the supports reach the cells next to them, cell n - 2, which must not
    # leak into the pinned cells
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=1.2, t_end=0.25)
    profiles = (model.Bump(R0=1.0, H=1.0), model.Bump(R0=1.1, H=1.5))
    ua, ub, _, _ = windowed_and_reference(monkeypatch, profiles, cfg, absorption)
    floor = cfg.params().floor
    for u in (ua, ub):
        assert u[-1] == floor and u[-2] > floor


@pytest.mark.parametrize("geometry", ["radial", "line"])
@pytest.mark.parametrize("absorption", [True, False])
def test_run_books_outflow_through_the_pinned_cell(geometry, absorption):
    # at eps = 0.2 and p = 2.5 the floor's diffusivity is large, so the
    # field's tail reaches the pinned outer cell while its support, at
    # SUPPORT_REL_TOL of the peak, stays inside 0.9 L; outflow is about 1.5e-10
    # of the mass, so a step whose boundary_out increment were booked at
    # weight 1 instead of (S-1)/S would leave a residual near 1.5e-11
    cfg = RunConfig(2.5, 2.0, 1, eps=0.2, h=0.02, L=3.0, t_end=0.14,
                    absorption=absorption)
    state, series = run(cfg)
    l1 = series.column("l1_excess")
    assert state.boundary_out > 1e-10 * l1[0]
    assert (state.absorbed_mass > 0.0) == absorption
    assert observe.mass_balance_residual(series) <= 5e-15
    if geometry == "radial":
        u, absorbed, out = reference_run(cfg)
        assert np.array_equal(state.values, u)
        assert state.absorbed_mass == absorbed and state.boundary_out == out
    else:
        # on the line [-L, L] the same mass leaves through both ends
        (u,), ((absorbed, out),), _ = line_reference_run(
            cfg, [cfg.profile_obj()], [absorption],
            record_times(0.0, cfg.t_end, cfg.record_start))
        np.testing.assert_allclose(state.values, u, rtol=0.0, atol=1e-15)
        assert state.absorbed_mass == pytest.approx(absorbed, rel=1e-14, abs=0.0)
        assert state.boundary_out == pytest.approx(out, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("entry", ["run", "comparison_run"])
@pytest.mark.parametrize("p,q,eps", [(3.0, 2.0, 1e-3), (5.0, 4.5, 1e-3), (2.5, 2.0, 0.2)])
def test_no_stage_reads_or_writes_past_its_window(monkeypatch, entry, p, q, eps):
    # the stage of window [a, b) omits the fluxes through faces a and b, so
    # after every stage each cell outside [a, b), and each of its two edge
    # cells that is not the grid's own boundary, must still sit at the
    # floor; at eps = 0.2 the tail that the floor's diffusivity spreads
    # would cross the padding if the window were refreshed every
    # WINDOW_EVERY steps instead of stages
    cfg = RunConfig(p, q, 1, eps=eps, h=0.02, L=3.0, t_end=0.14)
    step_window, windows = solver._Stepper.step_window, []

    def checked_step(self, u, a, b, *args):
        step_window(self, u, a, b, *args)
        outside = np.concatenate((u[:a], u[b:]))
        edges = [u[a]] * (a > self.lo_min) + [u[b - 1]] * (b < self.hi_max)
        assert np.all(outside == self.floor) and np.all(np.array(edges) == self.floor)
        windows.append(b < self.hi_max)

    monkeypatch.setattr(solver._Stepper, "step_window", checked_step)
    if entry == "run":
        run(cfg)
    else:
        comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    # the run took several windows, and stepped some of them short of the
    # grid's outer boundary
    assert len(windows) > solver.WINDOW_EVERY and any(windows)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.0])
def test_no_stage_exceeds_the_euler_limit(monkeypatch, p, N):
    # the step takes its CFL bound at its first stage only; each later
    # stage's Euler step must still lie within SAFETY of its own monotone
    # limit h^2 / (w D_max), w = stencil_weight, and the pair must stay above
    # the floor and ordered
    cfg = RunConfig(p, 2.0, N, h=0.02, L=3.0, t_end=0.25, absorption=False)
    step_window, cfl, w = solver._Stepper.step_window, [], stencil_weight(cfg.grid())

    def measured_step(self, u, a, b, tau, grads):
        # grads[1] holds the squared face differences h^2 g^2
        dmax = model.effective_diffusivity(float(grads[1].max()) / cfg.h ** 2, self.eps,
                                           self.p)
        cfl.append(tau * w * dmax / cfg.h ** 2)
        step_window(self, u, a, b, tau, grads)

    states, init = [], solver.initial_state
    monkeypatch.setattr(solver, "initial_state",
                        lambda *args: states.append(init(*args)) or states[-1])
    monkeypatch.setattr(solver._Stepper, "step_window", measured_step)
    rep = comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    assert len(cfl) > solver.STAGES and max(cfl) <= solver.SAFETY * (1.0 + 1e-12)
    assert rep["max_violation"] == 0.0
    assert all(np.all(s.values >= s.floor) for s in states)


def textbook_stage(u, params, grid, dt):
    """One Euler stage of every unpinned cell in the unscaled algebra: face
    gradients g = (u_i - u_(i-1))/h, centered gradients gc = (g_l + g_r)/2,
    u += dt (div(r^(N-1) a(g^2) g) / r^(N-1) - b(gc^2)); and the stage's
    CFL bound SAFETY h^2 / (stencil_weight D_max), capped at
    SAFETY floor / b_max."""
    p, q, eps, h = params.p, params.q, params.eps, grid.h
    u = u.copy()
    g = np.concatenate(([0.0], np.diff(u) / h))
    gc = 0.5 * (g[:-1] + g[1:])
    flux = (np.arange(grid.n) * h) ** (grid.N - 1.0) * model.a_eps(g * g, eps, p) * g
    div = (flux[1:] - flux[:-1]) / (grid.centers()[:-1] ** (grid.N - 1.0) * h)
    u[:-1] += dt * (div - model.b_eps(gc * gc, eps, q))
    dt_max = solver.SAFETY * h * h / (stencil_weight(grid)
                                      * model.effective_diffusivity(float((g * g).max()), eps, p))
    bmax = model.b_eps(float((gc * gc).max()), eps, q)
    return u, min(dt_max, solver.SAFETY * params.floor / bmax)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_folded_stage_matches_the_textbook_formula(N):
    # the kernel drops 1/h and 1/2 from its gradients and takes the powers of
    # h back as scalars; on a smooth field of size ~1 its stage and its dt
    # must agree with the unscaled formula to roundoff (measured: 2.2e-16
    # relative on the field, 3.6e-16 on dt)
    for p in (2.5, 3.0, 3.5, 4.0, 5.0):
        for q in (1.2, 1.6, 2.0, 3.0, 4.0):
            params = ProblemParams(p, q, N)
            grid = Grid.from_extent(0.05, 1.5, N)
            u0 = params.floor + np.exp(-grid.centers() ** 2)
            st = solver._Stepper(params, grid, True)
            dt = stable_dt(st, u0)
            ref, dt_ref = textbook_stage(u0, params, grid, dt)
            got = step(st, u0.copy(), dt)
            assert np.max(np.abs(got - ref)) <= 3e-16 * np.max(np.abs(ref)), (p, q)
            assert abs(dt - dt_ref) <= 5e-16 * dt_ref, (p, q)


# (p, q) -> the power each coefficient takes: a np.sqrt and b none at (3, 2),
# none and np.square at (4, 4), np.square and np.power at (6, 3), np.power
# for both at (3.5, 1.6); b's np.sqrt (q = 1) is not an admissible q
@pytest.mark.parametrize("p,q", [(3.0, 2.0), (4.0, 4.0), (6.0, 3.0), (3.5, 1.6)])
def test_floor_cells_stay_exact(p, q):
    # b_eps regularized by 2 eps h subtracts the offset (2 eps h)^q, which
    # must be exactly its value at sc = 0: a cell whose face differences are
    # all 0 stays at the floor bit for bit and absorbs nothing, or the
    # active window would grow to the whole grid
    for eps in (1e-5, 1e-3, 0.3):
        for h in (0.0025, 0.01, 0.03, 0.05):
            params, grid = ProblemParams(p, q, 1, eps), Grid(h, 40, 1)
            st = solver._Stepper(params, grid, True)
            zero = np.zeros(4)
            assert not np.any(model.b_eps(zero, st.eps_b, q, zero.copy(), st.b_consts))
            assert not np.any(model.b_eps(zero, st.eps_b, 1.0, zero.copy(),
                                          model.Coefficient(st.eps_b, 0.5)))
            flat = np.full(grid.n, params.floor)
            assert np.array_equal(step(st, flat.copy(), stable_dt(st, flat)), flat)
            assert st.absorbed == st.boundary_out == 0.0
            bump = flat.copy()
            bump[15:25] += np.sin(np.linspace(0.0, np.pi, 12)[1:-1])
            new = step(st, bump.copy(), stable_dt(st, bump))
            assert np.array_equal(new[:14], flat[:14]) and np.array_equal(new[26:], flat[26:])
            assert np.any(new[14:26] != bump[14:26])


def test_a_step_allocates_nothing():
    # after the first step has bound its views, the stages, the SSPRK
    # combination and the ledgers allocate no array: the traced peak of
    # several steps is the same on windows of 200 and 2000 cells of the same
    # periodic field (the window is held fixed, since a refresh scans the
    # whole field)
    params = ProblemParams(3.0, 1.6, 1)
    peaks = []
    for n in (202, 2002):
        grid = Grid(0.01, n, 1)
        u = params.floor + 0.5 + 0.25 * np.cos(2.0 * np.pi * grid.centers() / 0.4)
        st = solver._Stepper(params, grid, True)
        st.active_window = lambda u, window=(st.lo_min, st.hi_max): window
        steps = []
        solver._advance(st, u, 0.0, 1e-6)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            solver._advance(st, u, 1e-6, 1e-3, lambda a, b: steps.append(b - a))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(steps) >= 5 and steps[0] == n - 1
    assert peaks[1] - peaks[0] < 1000, peaks
