import collections
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from barenblatt_oracle import barenblatt_time_derivative

from gradabs import model, observe, solver
from gradabs.exponents import InvalidParams, ProblemParams
from gradabs.solver import (FloorViolationError, Grid, RunConfig,
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


def bounds(st, u, a, b):
    """Each clock's CFL bound of u on cells [a, b), from the gradients
    that the stepper binds."""
    st.gradients(u, a, b)
    return st.stable_dt_from()


def stable_dt(st, u):
    (dt,) = bounds(st, u, 0, st.hi_max)
    return dt


def step(st, u, dt):
    """Advance every unpinned cell of u by dt, in place; returns u."""
    st.gradients(u, 0, st.hi_max)
    st.step_window(u, 0, st.hi_max, [dt], 1)
    return u


def test_grid_invariants():
    r = Grid(0.1, 40, 2)
    assert r.L == pytest.approx(4.0)
    assert r.centers()[0] == pytest.approx(0.05)
    assert Grid.from_extent(0.1, 4.0, 2) == r
    with pytest.raises(InvalidParams):
        Grid(0.1, 8, 1)               # too few cells
    # an extent of too few cells is rejected, not enlarged to 16 cells
    with pytest.raises(InvalidParams, match="^need at least 16 cells$"):
        Grid.from_extent(0.1, 1.0, 1)
    with pytest.raises(InvalidParams):
        Grid(0.0, 40, 1)
    # too many cells, L/h past every integer, and radial weights r^(N-1)
    # that overflow (N = 400) or underflow (N = 200)
    for h, L, N in ((1e-12, 8.0, 1), (5e-324, 8.0, 1), (0.02, 4.0, 400), (0.02, 4.0, 200)):
        with pytest.raises(InvalidParams):
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
    assert st.ledgers() == (0.0, 0.0)


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

    def spy(self):
        # the bound of the same gradients without the cap
        (dt,), cap = stable_dt_from(self), self.cap
        self.cap = [math.inf]
        (uncapped,), self.cap = stable_dt_from(self), cap
        capped.append(dt < uncapped)
        return [dt]

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
    st = stepper(state)
    step(st, vals, 1.0)                       # far beyond the stable dt
    assert list(st.failed) == [0] and type(st.failed[0]) is FloorViolationError
    assert str(st.failed[0]).startswith("floor violated by ")


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

    with pytest.raises(InvalidParams):
        parse_config("p = 3\nbogus = 1\n")
    with pytest.raises(InvalidParams):
        parse_config("p = 3\np = 4\n")
    with pytest.raises(InvalidParams):
        parse_config("absorption = maybe\n")
    with pytest.raises(InvalidParams):
        parse_config("p 3\n")
    with pytest.raises(InvalidParams, match="duplicate key 'geometry'"):
        parse_config("p = 3\nq = 2\ngeometry = radial\ngeometry = radial\n")
    for geometry in ("line", "cartesian"):
        with pytest.raises(InvalidParams, match=f"geometry must be radial, got '{geometry}'"):
            parse_config(f"p = 3\nq = 2\ngeometry = {geometry}\n")
    # the share of the monotone limit is the constant SAFETY, and the floor
    # exponent is gamma_cap(p, q, N), not keys
    for key, value in (("safety", 0.9), ("gamma", 0.75)):
        with pytest.raises(InvalidParams, match=f"line 3: unknown key '{key}'"):
            parse_config(f"p = 3\nq = 2\n{key} = {value}\n")
    with pytest.raises(InvalidParams):
        parse_config("p = 1.5\nq = 2\n")   # invalid exponent range
    # a missing required key is named, not a TypeError from RunConfig
    for text, missing in (("q = 2\n", "p"), ("p = 3\n", "q"), ("h = 0.02\n", "p, q")):
        with pytest.raises(InvalidParams, match=f"missing required key\\(s\\) {missing}$"):
            parse_config(text)
    # values a run cannot start from are rejected when the config is built
    for bad in ("record_start = 0", "t_end = 0", "profile = barenblatt:t0=1\nt_end = 1",
                "L = -2", "L = four", "profile = bump:R0=x", "profile = bump:R0=0.1",
                "profile = bump:H=-1"):
        with pytest.raises(InvalidParams):
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
        with pytest.raises(InvalidParams, match=f"^line 4: {re.escape(message)}$"):
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
    has no origin and no weights: its cell factor is 1/h and its outflow is
    not multiplied by a sphere area.  Returns (new values, each cell's
    absorption tau (2h)^(-q) b, boundary_out increment)."""
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
    else:
        rw = (np.arange(grid.n + 1) * h)[a:b + 1] ** (grid.N - 1.0)
        inv_rch = (1.0 / (grid.centers() ** (grid.N - 1.0) * h))[a:b]
        omega = solver.sphere_area(grid.N)
    div = (rw[1:] * flux[1:] - rw[:-1] * flux[:-1]) * (inv_rch * (dt * h ** (1.0 - p)))
    out = dt * (omega * h ** (1.0 - p)) * (rw[0] * flux[0] - rw[-1] * flux[-1])
    u[a:b] += div
    absorbed = np.zeros(b - a)
    if absorption:
        babs = model.b_eps((d[:-1] + d[1:]) ** 2, 2.0 * eps * h, q)   # (2h)^q b
        absorbed = dt * (2.0 * h) ** -q * babs
        u[a:b] -= absorbed
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
# right half of the even extension; the left half mirrors it, so the
# line's outflow is twice the half's, and each cell absorbs what its mirror
# cell does
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
        return ext[n:], absorbed, 2.0 * out

    def reference_dt(u, a, b):
        if not line:
            return reference_stable_dt(u, params, grid, a, b, absorption)
        return reference_stable_dt(even_extension(u), params, grid, n + a, n + b,
                                   absorption, line=True)

    state = initial_state(params, grid, model.Bump(R0=2.0, H=1.0, m=2.0))
    u0 = state.values
    st = stepper(state, absorption)
    a, b = (0, st.hi_max) if window == "full" else (3, grid.n - 4)
    dt_ref = reference_dt(u0, a, b)
    ref, absorbed, out = reference(u0, a, b, dt_ref)
    (dt,) = bounds(st, u0, a, b)
    got = u0.copy()
    st.gradients(got, a, b)
    st.step_window(got, a, b, [dt_ref], 1)
    assert np.any(got != u0) and out != 0.0
    # bit for bit, absorption on or off: the reference forms the centered
    # difference as the kernel does, the sum of the cell's face differences;
    # the stage books each cell's absorption in that cell's ledger entry, and
    # outflow only on a window that ends at the pinned cell (the interior
    # window's end fluxes are not 0 here, since the bump fills the grid)
    assert st.outflow.tolist() == [out if b == st.hi_max else 0.0]
    assert np.array_equal(got, ref)
    assert dt == dt_ref and np.array_equal(st.absorbed_cells[a:b], absorbed)
    assert not st.absorbed_cells[:a].any() and not st.absorbed_cells[b:].any()
    assert np.any(absorbed > 0.0) == absorption

    # one stepper reused across two arrays and two windows: each step must
    # match the reference and leave the other array alone, so no step
    # writes through views bound to another array or window
    fields = [u0.copy(), initial_state(params, grid, model.Bump(R0=1.0, H=0.5)).values]
    windows = [(a, b), (2, st.hi_max - 5)]
    reused = stepper(state, absorption)
    for k, w in ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)):
        u, other = fields[k], fields[1 - k].copy()
        ref, _, _ = reference(u, *windows[w], dt_ref)
        reused.gradients(u, *windows[w])
        reused.step_window(u, *windows[w], [dt_ref], 1)
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


def stage_by_stage(monkeypatch, params, grid, flags, u0, a, b, stages):
    """Advance a copy of u0 over cells [a, b) by STAGES Euler stages of the
    CFL bound of u0, through step_window calls of `stages` stages each, the
    first after the gradients of u0 and each later call after its own.
    Returns the field, the absorbed running sums, the outflow and, per
    failed column, its message and the stage (counted by model.a_eps
    calls) it failed at."""
    st, u, failed_at = solver._Stepper(params, grid, *flags), u0.copy(), {}
    a_eps, fail_below, count = model.a_eps, solver._Stepper._fail_below, []

    def counted(*args):
        count.append(1)
        return a_eps(*args)

    def recorded(self, *args):
        before = set(self.failed)
        fail_below(self, *args)
        failed_at.update(dict.fromkeys(set(self.failed) - before, len(count)))

    monkeypatch.setattr(model, "a_eps", counted)
    monkeypatch.setattr(solver._Stepper, "_fail_below", recorded)
    taus = bounds(st, u, a, b)
    for call in range(solver.STAGES // stages):
        if call:
            st.gradients(u, a, b)
        st.step_window(u, a, b, taus, stages)
    monkeypatch.undo()
    assert len(count) == solver.STAGES
    failed = {j: (str(exc), failed_at[j]) for j, exc in st.failed.items()}
    return u, st.absorbed_cells, st.outflow.tolist(), failed


# name -> params, absorption flags, one profile per column, h, L
STAGE_LOOP_CASES = {
    "field_N1": (ProblemParams(3.0, 1.6, 1), (True,), [model.Bump(R0=2.0)], 0.05, 1.5),
    # face weights r^(N-1)
    "field_N3": (ProblemParams(3.0, 1.6, 3), (True,), [model.Bump(R0=2.0)], 0.05, 1.5),
    "pair_on_off": (ProblemParams(3.0, 1.6, 1), (True, False),
                    [model.Bump(R0=2.0), model.Bump(R0=2.0, H=1.5)], 0.05, 1.5),
    # no sc at all
    "pair_off_off": (ProblemParams(3.0, 1.6, 1), (False, False),
                     [model.Bump(R0=2.0), model.Bump(R0=2.0, H=1.5)], 0.05, 1.5),
    # the second column undershoots its floor at a later stage (the fourth)
    "batch_fails": ([ProblemParams(3.0, 2.0, 1), ProblemParams(4.0, 1.5, 1)], (True, True),
                    [model.Bump(R0=0.5, H=4.0)] * 2, 0.02, 3.0),
}


@pytest.mark.parametrize("case,window", [(case, window) for case in STAGE_LOOP_CASES
                                         for window in ("full", "interior")
                                         if case != "batch_fails" or window == "full"])
def test_stage_loop_matches_single_stage_calls(monkeypatch, case, window):
    # one step_window call of S stages gives the bits of S calls of one
    # stage, each fed its own gradients: the field, the ledgers' running
    # sums, and each failed column's message and stage; the bump of R0 = 2
    # fills the grid, so a full window books outflow
    params, flags, profiles, h, L = STAGE_LOOP_CASES[case]
    columns = params if isinstance(params, list) else [params] * len(flags)
    grid = Grid.from_extent(h, L, columns[0].N)
    fields = [initial_state(P, grid, profile).values for P, profile in zip(columns, profiles)]
    u0 = fields[0] if len(fields) == 1 else np.stack(fields, axis=1)
    a, b = (0, grid.n - 1) if window == "full" else (3, grid.n - 4)
    u, absorbed, outflow, failed = stage_by_stage(monkeypatch, params, grid, flags, u0, a, b,
                                                  solver.STAGES)
    single = stage_by_stage(monkeypatch, params, grid, flags, u0, a, b, 1)
    assert np.array_equal(u, single[0]) and np.array_equal(absorbed, single[1])
    assert outflow == single[2] and failed == single[3]
    assert np.any(u != u0)
    if case == "batch_fails":
        assert list(failed) == [1] and failed[1][1] > 1
        assert failed[1][0].startswith("floor violated by")
    else:
        assert failed == {} and all((x != 0.0) == (window == "full") for x in outflow)
        columns = absorbed.reshape(grid.n, len(flags))
        assert [bool(columns[:, j].any()) for j in range(len(flags))] == list(flags)


def count_calls(monkeypatch, *names, owner=solver._Stepper):
    """A dict that counts the calls of the named _Stepper methods, or of
    the named functions of another owner."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(name))
    return calls


def test_comparison_run_forms_gradients_once_per_field_per_step(monkeypatch):
    # both fields are the columns of one array, so a step of the pair is one
    # gradients, CFL, step_window and active window call, and each of its S
    # stages forms the pair's differences once, through gradients at the
    # first stage and step_window at the others; the step count comes from
    # the full-grid reference, which takes the same dt sequence with one CFL
    # call per field and step, and steps each field one stage per call
    calls = count_calls(monkeypatch, "gradients", "stable_dt_from", "step_window",
                        "active_window")
    formed = count_calls(monkeypatch, "_differences", owner=solver)
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=0.05)
    profiles = (model.Bump(H=1.0), model.Bump(H=1.5))
    comparison_run(*profiles, cfg)
    paired, paired_formed = dict(calls), dict(formed)
    calls.update(dict.fromkeys(calls, 0))
    formed.update(dict.fromkeys(formed, 0))
    reference_comparison_run(*profiles, cfg, True, True)
    steps = calls["stable_dt_from"] // 2
    S = solver.STAGES
    assert steps > 3 and calls == {"gradients": 2 * S * steps, "stable_dt_from": 2 * steps,
                                   "step_window": 2 * S * steps, "active_window": 0}
    assert formed == {"_differences": 2 * S * steps}
    assert paired == {"gradients": steps, "stable_dt_from": steps,
                      "step_window": steps, "active_window": steps}
    assert paired_formed == {"_differences": S * steps}


def test_run_takes_the_active_window_once_per_step(monkeypatch):
    # _advance takes the window before every step, and a step takes one CFL
    # bound, so the two call counts agree
    calls = count_calls(monkeypatch, "active_window", "stable_dt_from")
    run(RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=0.25))
    assert calls["stable_dt_from"] > 3 and calls["active_window"] == calls["stable_dt_from"]


def test_comparison_run_starts_at_the_profiles_t0(monkeypatch):
    # a pair of source solutions frozen at t0 = 1 and advanced to t_end =
    # 1.5 without absorption ends on the exact solution at t = 1.5; from
    # t = 0 it would end near t = 2.5, 0.108 away
    cfg = RunConfig(3.0, 2.0, 1, h=0.01, L=6.0, t_end=1.5, absorption=False)
    states, init = [], solver.initial_state

    def recording_init(*args):
        states.append(init(*args))
        return states[-1]

    monkeypatch.setattr(solver, "initial_state", recording_init)
    profile = model.BarenblattAt(t0=1.0)
    assert comparison_run(profile, profile, cfg)["max_violation"] == 0.0
    exact = model.barenblatt_value(1.5, cfg.grid().centers(), 3.0, 1) + PARAMS.floor
    for state in states:
        assert np.max(np.abs(state.values - exact)) < 1e-4


def test_comparison_run_rejects_profiles_of_other_start_times():
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=6.0, t_end=1.5)
    for profiles in ((model.Bump(), model.BarenblattAt(t0=1.0)),
                     (model.BarenblattAt(t0=1.0), model.BarenblattAt(t0=1.25)),
                     (model.BarenblattAt(t0=1.5), model.BarenblattAt(t0=1.5)),
                     (model.BarenblattAt(t0=2.0), model.BarenblattAt(t0=2.0))):
        with pytest.raises(InvalidParams, match="^need two profiles of one start time"):
            comparison_run(*profiles, cfg)


# the steep bump of test_run_command_floor_violation, whose first failing
# stage undershoots the floor, a bump so high that the CFL maxima of its
# coefficients overflow a float, and a smooth bump stepped past its CFL
# bound, which undershoots the floor in its first step
FAILING_RUNS = {
    "steep": (RunConfig(3.0, 6.0, 1, eps=1e-3, h=0.01, L=6.0, t_end=0.25,
                        profile="bump:R0=0.25,H=16,m=2"),
              FloorViolationError, r"^floor violated by 2\.214e-03 at t-step dt=3\.506e-11$"),
    "overflowing": (RunConfig(5.0, 3.0, 1, h=0.01, L=6.0, t_end=1.0, profile="bump:H=1e150"),
                    solver.NumericalError, "^CFL bound overflows a float: "),
    "breached": (RunConfig(3.0, 2.0, 1, h=0.02, L=4.0, t_end=0.25),
                 FloorViolationError, r"^floor violated by 4\.662e-02 at t-step dt=2\.923e-04$"),
}

# the factor by which a spy scales every CFL bound of a case: at 5 the first
# step's stages undershoot the floor and stay finite, while at 3.5 and at 7
# the field overflows a float, in a later step or in the first
CFL_BREACHES = {"breached": 5.0}


@pytest.mark.parametrize("case", FAILING_RUNS)
def test_every_entry_point_ends_a_failed_run_with_its_error(monkeypatch, case):
    # a step records its failed clock and raises nothing; the error is the
    # field's outcome, which run raises, a batch of one returns and
    # comparison_run, whose pair has one clock, raises
    config, kind, message = FAILING_RUNS[case]
    if case in CFL_BREACHES:
        stable_dt_from = solver._Stepper.stable_dt_from
        monkeypatch.setattr(solver._Stepper, "stable_dt_from",
                            lambda self: [CFL_BREACHES[case] * dt for dt in stable_dt_from(self)])
    profile = config.profile_obj()
    with pytest.raises(kind, match=message) as raised:
        run(config)
    with pytest.raises(kind) as paired:
        comparison_run(profile, profile, config)
    (batched,) = solver.run_batch([config])
    for exc in (raised.value, paired.value, batched):
        assert type(exc) is kind and str(exc) == str(raised.value)


@pytest.mark.parametrize("entry", ["run", "comparison_run"])
def test_a_failed_clock_runs_its_step_out(monkeypatch, entry):
    # the steep bump's one clock undershoots at an early stage of its last
    # step, then runs the step's remaining stages with its floor check off:
    # the step makes all S model.a_eps calls, some of them after the
    # failure, and the error keeps the first failing stage's message
    config, kind, message = FAILING_RUNS["steep"]
    a_eps, step_window, stepping, failed_before = model.a_eps, solver._Stepper.step_window, [], []

    def counted(*args):
        failed_before.append(bool(stepping[0].failed))
        return a_eps(*args)

    def recorded(self, *args):
        stepping[:] = [self]
        failed_before.clear()
        step_window(self, *args)

    monkeypatch.setattr(model, "a_eps", counted)
    monkeypatch.setattr(solver._Stepper, "step_window", recorded)
    profile = config.profile_obj()
    with pytest.raises(kind, match=message) as raised:
        run(config) if entry == "run" else comparison_run(profile, profile, config)
    assert type(raised.value) is kind and list(stepping[0].failed) == [0]
    assert len(failed_before) == solver.STAGES and True in failed_before
    assert not failed_before[0]


def test_comparison_run_raises_on_a_non_finite_field(monkeypatch):
    # a NaN in the lower field gives dt = NaN, which ends the advance at
    # once, and max() would drop the NaN gap: the pair raises as run does
    # at its next record, with no report and no copy-back of the fields
    cfg = RunConfig(3.0, 2.0, 1, h=0.01, L=6.0, t_end=0.1)
    states, starts, init = [], [], solver.initial_state

    def poisoned(*args):
        states.append(init(*args))
        if len(states) == 1:
            states[0].values[0] = np.nan
        starts.append(states[-1].values.copy())
        return states[-1]

    monkeypatch.setattr(solver, "initial_state", poisoned)
    with pytest.raises(solver.NumericalError, match="^non-finite field at t=0.1$") as info:
        comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    assert type(info.value) is solver.NumericalError and len(states) == 2
    for state, start in zip(states, starts):
        assert np.array_equal(state.values, start, equal_nan=True)


def test_comparison_run_rejects_fields_whose_squares_overflow():
    # the squares of these bumps' face differences overflow a float; the
    # pair used to step them into 122 NaN cells per field and report 0.0
    cfg = RunConfig(3.0, 2.0, 1, h=0.01, L=6.0, t_end=0.1)
    with pytest.raises(InvalidParams, match="^the squares of the initial field's differences"):
        comparison_run(model.Bump(H=1e300), model.Bump(H=1.5e300), cfg)


def test_run_detects_support_overflow_at_t0(monkeypatch):
    # the t0 row goes through the checks of every record, so a support that
    # already passes 0.9 L fails before any step, and on_record sees nothing
    cfg = RunConfig(3.0, 2.0, 1, h=0.02, L=1.2, t_end=1.0, profile="bump:R0=1.15,H=1,m=2")
    recorded, steps = [], count_calls(monkeypatch, "step")
    with pytest.raises(SupportOverflowError, match=r"at t=0; enlarge L$"):
        run(cfg, on_record=recorded.append)
    assert recorded == [] and steps == {"step": 0}


def ssprk_step(pairs, lo, hi, dt_max):
    """One SSPRK(S, 2) step of every (stepper, field) pair on cells
    [lo, hi), written out plainly: the shared dt from the CFL bounds of u^n,
    S Euler stages of tau = dt/(S-1), then u += (u^n - u)/S.  Returns dt."""
    S = solver.STAGES
    dt = min((S - 1) * min(bound for st, u in pairs for bound in bounds(st, u, lo, hi)),
             dt_max)
    tau = dt / (S - 1)
    starts = [u.copy() for _, u in pairs]
    for stage in range(S):
        for st, u in pairs:
            if stage:
                st.gradients(u, lo, hi)
            st.step_window(u, lo, hi, [tau], 1)
    for (_, u), u_n in zip(pairs, starts):
        u += (u_n - u) / S
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
        t += ssprk_step([(st_a, ua), (st_b, ub)], 0, st_a.hi_max, config.t_end - t)
        worst = max(worst, float((ua - ub).max()))
    return ua, ub, max(worst, 0.0)


def reference_run(config):
    """run's time loop on the full grid, one SSPRK step after another from
    record time to record time.  Returns the final field and the stepper's
    ledgers (absorbed, boundary_out)."""
    params, grid = config.params(), config.grid()
    state = initial_state(params, grid, config.profile_obj())
    st = solver._Stepper(params, grid, config.absorption)
    t = state.time
    for t_record in record_times(t, config.t_end, config.record_start):
        while t < t_record - 1e-15 * max(1.0, t_record):
            t += ssprk_step([(st, state.values)], 0, st.hi_max, t_record - t)
        t = t_record
    return state.values, *st.ledgers()


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
                    ledgers[k] += np.array([grid.h * absorbed.sum(), out]) * ((S - 1) / S)
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
    ua, ub, violation, widths = windowed_and_reference(monkeypatch, profiles, cfg,
                                                       absorption)
    # every window of the pair is narrower than the grid, yet the result is
    # bit for bit that of the full-grid loop
    n = cfg.grid().n
    assert max(widths) < n - 2
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
    Returns the final fields, the violation and, per step, the width b - a
    of the window that holds both fields' columns."""
    ref_a, ref_b, ref_violation = reference_comparison_run(*profiles, cfg, *absorption)

    states, widths = [], []
    init, step_window = solver.initial_state, solver._Stepper.step_window

    def recording_init(*args):
        states.append(init(*args))
        return states[-1]

    def recording_step(self, u, a, b, *args, **kwargs):
        widths.append(b - a)
        return step_window(self, u, a, b, *args, **kwargs)

    monkeypatch.setattr(solver, "initial_state", recording_init)
    monkeypatch.setattr(solver._Stepper, "step_window", recording_step)
    rep = comparison_run(*profiles, cfg, absorption_a=absorption[0],
                         absorption_b=absorption[1])
    monkeypatch.undo()
    assert widths and len(states) == 2
    assert np.array_equal(states[0].values, ref_a)
    assert np.array_equal(states[1].values, ref_b)
    assert rep["max_violation"] == ref_violation
    return states[0].values, states[1].values, ref_violation, widths


@pytest.mark.parametrize("absorption", [(True, True), (True, False), (False, True)])
def test_comparison_run_support_reaches_pinned_ends(monkeypatch, absorption):
    # the last row of the pair's (n, 2) array holds the fields' pinned outer
    # cells; the supports reach the row next to it, cell n - 2, which must
    # not leak into the pinned cells
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
        # the stages sum it by ufuncs on the two end-face fluxes, bit for
        # bit as x + tau omega (f_a - f_b) summed in Python floats
        assert state.boundary_out == {True: 1.438248488903603e-10,
                                      False: 1.7830509635393992e-10}[absorption]
    else:
        # on the line [-L, L] the same mass leaves through both ends
        (u,), ((absorbed, out),), _ = line_reference_run(
            cfg, [cfg.profile_obj()], [absorption],
            record_times(0.0, cfg.t_end, cfg.record_start))
        np.testing.assert_allclose(state.values, u, rtol=0.0, atol=1e-15)
        assert state.absorbed_mass == pytest.approx(absorbed, rel=1e-14, abs=0.0)
        assert state.boundary_out == pytest.approx(out, rel=1e-14, abs=0.0)


def test_ledgers_do_not_depend_on_the_window(monkeypatch):
    # the annulus's window starts past the origin; widening it moves the
    # start and length of every stage's window but no bit of the field, and
    # each cell's absorption is summed in that cell's own entry, so the
    # ledgers keep their bits too
    cfg = RunConfig(3.0, 1.5, 1, eps=1e-5, h=0.01, L=9.0, t_end=4.0,
                    profile="annulus:R0=4,R1=6,H=1")
    active_window, runs = solver._Stepper.active_window, []
    for pad in (0, 3, 8):
        def widened(self, u, pad=pad):
            a, b = active_window(self, u)
            assert a > pad
            return a - pad, min(b + pad, self.hi_max)

        monkeypatch.setattr(solver._Stepper, "active_window", widened)
        state, _ = run(cfg)
        runs.append((state.values, state.absorbed_mass, state.boundary_out))
    assert runs[0][1] > 0.0
    for values, *ledgers in runs[1:]:
        assert np.array_equal(values, runs[0][0]) and ledgers == list(runs[0][1:])


@pytest.mark.parametrize("entry", ["run", "comparison_run"])
@pytest.mark.parametrize("p,q,eps", [(3.0, 2.0, 1e-3), (5.0, 4.5, 1e-3), (2.5, 2.0, 0.2)])
def test_no_stage_reads_or_writes_past_its_window(monkeypatch, entry, p, q, eps):
    # the stage of window [a, b) omits the fluxes through faces a and b, so
    # after every stage each cell outside [a, b), and each of its two edge
    # cells that is not the grid's own boundary, must still sit at the
    # floor; the window is taken before every step, and at eps = 0.2 the
    # tail that the floor's diffusivity spreads would cross the padding if
    # it were taken every STAGES steps instead.  A step is one step_window
    # call; its field is checked before each stage's model.a_eps, which sees
    # the stages before it, and after the call, which sees the last
    cfg = RunConfig(p, q, 1, eps=eps, h=0.02, L=3.0, t_end=0.14)
    step_window, a_eps, windows, checks, stepping = (solver._Stepper.step_window,
                                                     model.a_eps, [], [], [])

    def check():
        st, u, a, b = stepping
        outside = np.concatenate((u[:a], u[b:]))
        edges = [u[a]] * (a > 0) + [u[b - 1]] * (b < st.hi_max)
        assert np.all(outside == st.floor) and np.all(np.array(edges) == st.floor)
        checks.append(b)

    def checked_a_eps(*args):
        check()
        return a_eps(*args)

    def checked_step(self, u, a, b, *args):
        stepping[:] = [self, u, a, b]
        step_window(self, u, a, b, *args)
        check()
        windows.append(b < self.hi_max)

    monkeypatch.setattr(model, "a_eps", checked_a_eps)
    monkeypatch.setattr(solver._Stepper, "step_window", checked_step)
    if entry == "run":
        run(cfg)
    else:
        comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    # the run took several steps, each of STAGES stages, and stepped some of
    # them short of the grid's outer boundary
    assert len(windows) > 1 and any(windows)
    assert len(checks) == (solver.STAGES + 1) * len(windows)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.0])
def test_no_stage_exceeds_the_euler_limit(monkeypatch, p, N):
    # the step takes its CFL bound at its first stage only; each later
    # stage's Euler step must still lie within SAFETY of its own monotone
    # limit h^2 / (w D_max), w = stencil_weight, and the pair must stay above
    # the floor and ordered.  A step is one step_window call, and each of its
    # stages hands its squared face differences h^2 g^2 to model.a_eps
    cfg = RunConfig(p, 2.0, N, h=0.02, L=3.0, t_end=0.25, absorption=False)
    step_window, a_eps, w = solver._Stepper.step_window, model.a_eps, stencil_weight(cfg.grid())
    taus, cfl = [], []

    def measured_step(self, u, a, b, tau, stages):
        taus.extend(tau)                # the pair's one clock
        step_window(self, u, a, b, tau, stages)

    def measured_a_eps(s, *args):
        dmax = model.effective_diffusivity(float(s.max()) / cfg.h ** 2, cfg.eps, p)
        cfl.append(taus[-1] * w * dmax / cfg.h ** 2)
        return a_eps(s, *args)

    states, init = [], solver.initial_state
    monkeypatch.setattr(solver, "initial_state",
                        lambda *args: states.append(init(*args)) or states[-1])
    monkeypatch.setattr(solver._Stepper, "step_window", measured_step)
    monkeypatch.setattr(model, "a_eps", measured_a_eps)
    rep = comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
    assert len(taus) > 1 and len(cfl) == solver.STAGES * len(taus)
    assert max(cfl) <= solver.SAFETY * (1.0 + 1e-12)
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
            assert st.ledgers() == (0.0, 0.0)
            bump = flat.copy()
            bump[15:25] += np.sin(np.linspace(0.0, np.pi, 12)[1:-1])
            new = step(st, bump.copy(), stable_dt(st, bump))
            assert np.array_equal(new[:14], flat[:14]) and np.array_equal(new[26:], flat[26:])
            assert np.any(new[14:26] != bump[14:26])


def test_zero_gradients_absorb_exactly_nothing():
    # b_eps subtracts its offset (2 eps h)^q, taken by the stage's own
    # power, so it is exactly 0 where sc = 0, on zero arrays of every length
    # from 1 to 40, which cover numpy's SIMD body and its tail; Python's **
    # and np.power round the offset apart at some (eps, h, q), such as
    # eps = 0.2, h = 0.02, q = 1.5
    for eps in (1e-3, 1e-5, 0.2, 0.3):
        for h in (0.0025, 0.005, 0.01, 0.02, 0.03, 0.05):
            for q in (1.2, 1.5, 1.6, 3.0):
                st = solver._Stepper(ProblemParams(3.0, q, 1, eps), Grid(h, 40, 1), True)
                for m in range(1, 41):
                    absorbed = model.b_eps(np.zeros(m), st.eps_b, q, np.empty(m), st.b_consts)
                    assert not np.any(absorbed), (eps, h, q, m)


# a batch of three columns of their own p and q, one of them without
# absorption, on their own clocks
BATCH = (ProblemParams(3.0, 1.6, 2), ProblemParams(3.5, 2.0, 2), ProblemParams(4.0, 1.2, 2))


def advance_to(st, u, clocks, t, after_step=None):
    """Call _advance, which stops after the step at which a clock reads its
    target, until every clock reads t or a step fails a clock; a clock that
    already reads t has no time left, and steps at dt = 0 while the others
    catch up.  Returns the failed clocks of the last call."""
    failed = {}
    while not failed and clocks != [t] * len(clocks):
        failed = solver._advance(st, u, clocks, [t] * len(clocks), after_step)
    return failed


def test_a_step_allocates_nothing():
    # after the first step has bound its views, the stages, the SSPRK
    # combination and the ledgers allocate no array: the traced peak of
    # several steps is the same on windows of 200 and 2000 cells of the same
    # periodic field (the window is held fixed, since a refresh scans the
    # whole field); one field at N = 1, two fields as the columns of one
    # (n, 2) array at N = 2, with and without absorption in the second, and
    # the mixed (p, q) batch as the columns of one (n, 3) array
    for N, absorption in ((1, (True,)), (2, (True, True)), (2, (True, False)),
                          (2, (True, False, True))):
        params = list(BATCH) if len(absorption) == 3 else ProblemParams(3.0, 1.6, N)
        peaks = []
        for n in (202, 2002):
            grid = Grid(0.01, n, N)
            wave = 0.5 + 0.25 * np.cos(2.0 * np.pi * grid.centers() / 0.4)
            if len(absorption) == 3:
                u = np.stack([P.floor + (1.0 + 0.25 * j) * wave
                              for j, P in enumerate(params)], axis=1)
            elif len(absorption) == 2:
                u = np.stack((params.floor + wave, 1.5 * (params.floor + wave)), axis=1)
            else:
                u = params.floor + wave
            st = solver._Stepper(params, grid, *absorption)
            st.active_window = lambda u, window=(0, st.hi_max): window
            steps, clocks = [], [0.0] * (len(absorption) if st.rows else 1)
            advance_to(st, u, clocks, 1e-6)

            def spans(a, b, hi=st.hi_max):
                # a bool, not the width: an int past 256 would be a new
                # object kept per step, at n = 2002 alone
                steps.append(a == 0 and b == hi)

            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                advance_to(st, u, clocks, 1e-3, spans)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            # every step books outflow, on a window that ends at the pinned cell
            assert len(steps) >= 5 and all(steps) and clocks == [1e-3] * len(clocks)
        assert peaks[1] - peaks[0] < 1000, (N, absorption, peaks)


class OperandLog:
    """numpy, with every call counted by name and every call that gets a
    Python float or list as a positional operand logged: each such operand
    makes a temporary array."""

    def __init__(self):
        self.calls, self.counts = [], collections.Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr):
            return attr

        def logged(*args, **kwargs):
            self.counts[name] += 1
            scalars = [type(x).__name__ for x in args if isinstance(x, (float, list))]
            if scalars:
                self.calls.append((name, *scalars))
            return attr(*args, **kwargs)
        return logged


STEPPED_LAYOUTS = [(True,), (True, False), (True, False, True)]


def logged_steps(monkeypatch, absorption):
    """The stepper of a run, of an on/off pair or of the mixed batch, on a
    fixed window that books outflow, after a first step has bound its views,
    and the OperandLog and step count of the steps it takes next."""
    k = len(absorption)
    params = list(BATCH) if k == 3 else ProblemParams(3.0, 1.6, 2)
    grid = Grid(0.01, 202, 2)
    wave = 0.5 + 0.25 * np.cos(2.0 * np.pi * grid.centers() / 0.4)
    fields = [P.floor + (1.0 + 0.25 * j) * wave
              for j, P in enumerate(params if k == 3 else [params] * k)]
    u = np.stack(fields, axis=1) if k > 1 else fields[0]
    st = solver._Stepper(params, grid, *absorption)
    st.active_window = lambda u, window=(0, st.hi_max): window
    clocks = [0.0] * (k if st.rows else 1)
    advance_to(st, u, clocks, 1e-6)
    log, steps = OperandLog(), []
    monkeypatch.setattr(solver, "np", log)
    assert advance_to(st, u, clocks, 1e-3, lambda a, b: steps.append(b)) == {}
    monkeypatch.undo()
    assert len(steps) >= 5 and clocks == [1e-3] * len(clocks)
    return st, log, len(steps)


@pytest.mark.parametrize("absorption", STEPPED_LAYOUTS)
def test_a_step_hands_numpy_no_python_operand(monkeypatch, absorption):
    # once its first step has bound the views, a step of a run, of an on/off
    # pair and of a mixed batch passes numpy arrays alone, the dt of each
    # clock and its scales included, on a window that books outflow
    _, log, _ = logged_steps(monkeypatch, absorption)
    assert log.calls == []


@pytest.mark.parametrize("absorption", STEPPED_LAYOUTS)
def test_a_step_copies_only_what_its_layout_needs(monkeypatch, absorption):
    # a step copies u^n once; its one clock's stages read 0-d views of its
    # scaled taus, and only a batch copies its two scaled rows into its
    # (m, k) tables
    st, log, steps = logged_steps(monkeypatch, absorption)
    assert log.counts["copyto"] == (3 if st.rows else 1) * steps


def test_window_end_fluxes_vanish_past_the_origin(monkeypatch):
    # the annulus's window starts past cell 0, and in its early steps ends
    # short of the pinned cell; by the padding invariant the fluxes through
    # both of its end faces are exactly 0, so a stage books no outflow
    # there.  Each stage's fluxes are read when it calls model.b_eps, after
    # it has formed them (the CFL rule's own b_eps calls come between steps)
    cfg = RunConfig(3.0, 1.5, 1, eps=1e-5, h=0.01, L=9.0, t_end=0.5,
                    profile="annulus:R0=4,R1=6,H=1")
    step_window, b_eps, ends, stepping, steps = (solver._Stepper.step_window, model.b_eps,
                                                 [], [], [])

    def checked(self, u, a, b, *args):
        stepping[:] = [self, a, b]
        steps.append(a)
        step_window(self, u, a, b, *args)
        stepping.clear()

    def checked_b_eps(*args):
        if stepping:
            st, a, b = stepping
            ends.append((a, b < st.hi_max, st.flux[0], st.flux[b - a]))
        return b_eps(*args)

    monkeypatch.setattr(solver._Stepper, "step_window", checked)
    monkeypatch.setattr(model, "b_eps", checked_b_eps)
    state, _ = run(cfg)
    assert len(ends) == solver.STAGES * len(steps)
    assert ends and all(a > 0 and short for a, short, _, _ in ends)
    assert all(first == 0.0 and last == 0.0 for _, _, first, last in ends)
    assert state.boundary_out == 0.0 and state.absorbed_mass > 0.0


def test_row_coefficients_keep_floor_cells_exact():
    # a row stepper's coefficients take np.power with row exponents, and
    # their offsets by that same np.power, so b_eps is exactly 0 at sc = 0
    # at every (eps, h, q), including those (eps = 0.2, q = 1.5) at which
    # numpy's np.power and Python's ** round eps^q apart
    qs = (1.2, 1.5, 1.6, 2.0, 3.0, 4.0)
    for eps in (1e-5, 1e-3, 0.2, 0.3):
        for h in (0.0025, 0.01, 0.02, 0.03, 0.05):
            params = [ProblemParams(p, q, 1, eps) for p, q in zip((3.0, 3.5, 4.0) * 2, qs)]
            st = solver._Stepper(params, Grid(h, 40, 1), *[True] * len(qs))
            flat = np.repeat(st.floor[None, :], 40, axis=0)
            u = flat.copy()
            solver._advance(st, u, [0.0] * len(qs), [1e-3] * len(qs))
            assert np.array_equal(u, flat)
            assert [st.ledgers(j) for j in range(len(qs))] == [(0.0, 0.0)] * len(qs)


SWEEP_CELLS = [(p, q) for p in (3.0, 3.5, 4.0, 5.0) for q in (1.2, 1.5, 2.0, 3.0)]


def sweep_configs(cells):
    """The benchmark sweep's config (h = 0.01, L = 8, t_end = 0.5) at each
    (p, q) cell."""
    base = RunConfig(3.0, 2.0, 1, h=0.01, L=8.0, t_end=0.5)
    return [dataclasses.replace(base, p=p, q=q) for p, q in cells]


def outcome_of_run(config):
    try:
        return run(config)
    except solver.NumericalError as exc:
        return exc


def test_batch_columns_match_single_runs():
    # every cell of the benchmark's sweep, as a column of one batch, against
    # run at its config: the same error, or the same records and verdicts
    # and the same series to within 1e-14 of each column's largest value
    # (measured worst: 7.2e-15, on grad_sup).  Bit for bit wherever run's
    # coefficients take np.power or no call; at p = 3 run's a_eps takes
    # np.sqrt, where the batch's row takes np.power
    from gradabs import fit

    configs = sweep_configs(SWEEP_CELLS)
    batch = solver.run_batch(configs)
    completed = 0
    for config, got in zip(configs, batch):
        want = outcome_of_run(config)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        completed += 1
        (state, series), (ref_state, ref_series) = got, want
        assert len(series) == len(ref_series)
        if config.p != 3.0:
            assert series.to_csv() == ref_series.to_csv()
            assert np.array_equal(state.values, ref_state.values)
        for name in observe.CSV_COLUMNS:
            ref = ref_series.column(name)
            assert np.max(np.abs(series.column(name) - ref)) <= 1e-14 * np.max(np.abs(ref))
        passes = [[v.passed for v in fit.verdict(config.params(), s, h=config.h)]
                  for s in (series, ref_series)]
        assert passes[0] == passes[1]
    assert completed == 7


def test_batch_splits_configs_of_other_grids():
    # without L, a config's grid depends on p, so run_batch steps each grid's
    # configs as an array of its own, and returns the outcomes in order
    base = RunConfig(3.0, 2.0, 1, h=0.02, t_end=0.25)
    configs = [dataclasses.replace(base, p=p, q=q)
               for p, q in ((4.0, 3.0), (3.5, 2.0), (4.0, 2.5))]
    assert len({c.grid() for c in configs}) == 2
    for config, (state, series) in zip(configs, solver.run_batch(configs)):
        ref_state, ref_series = run(config)
        assert state.grid == ref_state.grid and series.to_csv() == ref_series.to_csv()


def test_a_failed_column_leaves_no_trace(monkeypatch):
    # (3.5, 1.5) breaks the floor at its 291st step, as in its own run; the
    # batch drops its column right after that step, and the other columns'
    # outputs are byte for byte those of the batch without it
    cells = [(3.0, 1.5), (3.5, 1.5), (3.5, 2.0), (4.0, 3.0)]
    step, steps = solver._Stepper.step, []

    def recording(self, u, a, b, dt_max):
        dts, failed = step(self, u, a, b, dt_max)
        steps.append((u.shape[1], dts[1] if u.shape[1] == 4 else None, dict(failed)))
        return dts, failed

    monkeypatch.setattr(solver._Stepper, "step", recording)
    with_it = solver.run_batch(sweep_configs(cells))
    monkeypatch.undo()
    without = solver.run_batch(sweep_configs(cells[:1] + cells[2:]))
    assert isinstance(with_it[1], FloorViolationError)
    assert str(with_it[1]) == str(outcome_of_run(sweep_configs(cells[1:2])[0]))
    last = max(i for i, (k, _, _) in enumerate(steps) if k == 4)
    assert list(steps[last][2]) == [1] and steps[last + 1][0] == 3
    assert sum(dt > 0.0 for k, dt, _ in steps if k == 4) == 291
    for (state, series), (ref_state, ref_series) in zip(with_it[:1] + with_it[2:], without):
        assert series.to_csv() == ref_series.to_csv()
        assert np.array_equal(state.values, ref_state.values)
        assert (state.absorbed_mass, state.boundary_out) == (ref_state.absorbed_mass,
                                                              ref_state.boundary_out)


def outcome_bytes(outcome):
    """An outcome of run_batch as bytes: its error's type and message, or its
    series CSV, final field and both ledgers in hex."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}".encode()
    state, series = outcome
    return b"|".join((series.to_csv().encode(), state.values.tobytes(),
                      state.absorbed_mass.hex().encode(), state.boundary_out.hex().encode()))


def batch_steps(monkeypatch, configs, spy=None):
    """run_batch of configs, and the dts, one per live column, of each step
    it took; spy(u), if given, is called before every step."""
    step, steps = solver._Stepper.step, []

    def recording(self, u, a, b, dt_max):
        if spy is not None:
            spy(u)
        dts, failed = step(self, u, a, b, dt_max)
        steps.append(dts)
        return dts, failed

    monkeypatch.setattr(solver._Stepper, "step", recording)
    try:
        return solver.run_batch(configs), steps
    finally:
        monkeypatch.undo()


def test_a_batch_does_its_columns_work_and_no_more(monkeypatch):
    # each column of a batch is its own run on its own clock: no live
    # column waits at dt = 0 for the others, so the 16 sweep-pq cells as one
    # batch and as the two worker halves take as many steps as their slowest
    # column alone and as many column-steps as their columns alone
    configs = sweep_configs(SWEEP_CELLS)
    alone = [batch_steps(monkeypatch, [c])[1] for c in configs]
    counts = []
    for members in (slice(None), slice(0, None, 2), slice(1, None, 2)):
        _, steps = batch_steps(monkeypatch, configs[members])
        solo = alone[members]
        assert all(dt > 0.0 for dts in steps for dt in dts)
        assert len(steps) == max(map(len, solo))
        assert sum(map(len, steps)) == sum(map(len, solo))
        counts.append((len(steps), sum(map(len, steps))))
    assert counts == [(690, 4930), (662, 1956), (690, 2974)]


def test_configs_that_share_a_grid_and_eps_share_one_array(monkeypatch):
    # configs of their own t0, t_end and recording times, one of them
    # failing, advance as the columns of one array, and each outcome is byte
    # for byte its own batch of one
    base = RunConfig(3.0, 1.5, 1, h=0.01, L=8.0, t_end=0.5)
    configs = [base, dataclasses.replace(base, p=3.5, q=2.0, t_end=0.25, record_start=0.125),
               dataclasses.replace(base, q=2.0, t_end=1.5, profile="barenblatt:t0=1",
                                   absorption=False, record_start=1.0),
               dataclasses.replace(base, p=4.0, q=1.2)]
    outcomes, steps = batch_steps(monkeypatch, configs)
    assert len(steps[0]) == 4
    assert isinstance(outcomes[3], FloorViolationError)
    for config, outcome in zip(configs, outcomes):
        assert outcome_bytes(outcome) == outcome_bytes(solver.run_batch([config])[0])


def test_a_nan_column_fails_alone_at_its_next_record(monkeypatch):
    # a NaN written into column 1 before the batch's first step gives that
    # column dt = NaN, a clock that counts as arrived: it fails at its first
    # record after t0, and the other columns are bit for bit their own runs
    configs = sweep_configs([(3.0, 1.5), (3.5, 2.0), (4.0, 3.0)])
    poisoned = []

    def poison(u):
        if not poisoned:
            u[0, 1] = np.nan
            poisoned.append(True)

    outcomes, _ = batch_steps(monkeypatch, configs, poison)
    assert type(outcomes[1]) is solver.NumericalError
    assert str(outcomes[1]) == "non-finite field at t=0.0625"
    for i in (0, 2):
        assert outcome_bytes(outcomes[i]) == outcome_bytes(solver.run_batch([configs[i]])[0])
