import dataclasses

import numpy as np
import pytest

from gradabs import model, observe, solver
from gradabs.exponents import InvalidParams, ProblemParams
from gradabs.solver import (ConfigError, FloorViolationError, Grid, RunConfig,
                            SupportOverflowError, comparison_run,
                            initial_state, parse_config, record_times, run)

PARAMS = ProblemParams(3.0, 2.0, 1)


def barenblatt_state(h=0.01, L=6.0):
    grid = Grid.from_extent("radial", h, L, 1)
    return initial_state(PARAMS, grid, model.BarenblattAt(t0=1.0))


# full-grid stepping through one _Stepper, which holds the ledgers of the
# steps it takes

def stepper(state, absorption=True, safety=0.5):
    return solver._Stepper(state.params, state.grid, absorption, safety)


def stable_dt(st, u):
    return st.stable_dt_from(*st.gradients(u, st.lo_min, st.hi_max)[1:])


def step(st, u, dt):
    """Advance every unpinned cell of u by dt, in place; returns u."""
    st.step_window(u, st.lo_min, st.hi_max, dt, st.gradients(u, st.lo_min, st.hi_max))
    return u


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
    dt = stable_dt(stepper(state), state.values)
    assert dt == pytest.approx(0.5 * 0.01 ** 2 / (2.0 * PARAMS.eps ** (PARAMS.p - 2.0)))


def test_stable_dt_against_independent_scan():
    state = barenblatt_state(h=0.01)
    dt = stable_dt(stepper(state, absorption=False), state.values)
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
    grid = Grid("radial", 0.01, 100, 1)
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
    expected = model.barenblatt_time_derivative(1.0, r[inside], 3.0, 1, gp) * dt
    got = (new - state.values)[inside]
    # the profile's second derivative blows up like r^(-1/2) at the origin,
    # so the truncation error there is O(h^(3/2)); 3 percent of the update
    # covers it at this resolution
    assert np.max(np.abs(got - expected)) <= 0.03 * np.max(np.abs(expected))
    # away from the origin the scheme is second order
    mid = (r > 0.2 * edge) & (r < 0.8 * edge)
    expected_mid = model.barenblatt_time_derivative(1.0, r[mid], 3.0, 1, gp) * dt
    got_mid = (new - state.values)[mid]
    assert np.max(np.abs(got_mid - expected_mid)) <= 1e-4 * (h ** 2 + dt)


def test_monotone_data_stay_monotone():
    # radial non-increasing fields remain non-increasing after one step
    rng = np.random.default_rng(9)
    st = solver._Stepper(PARAMS, Grid("radial", 0.05, 32, 1), True, 0.5)
    for _ in range(50):
        vals = np.sort(rng.uniform(0.0, 1.0, 32))[::-1] + PARAMS.floor
        vals[-1] = PARAMS.floor
        new = step(st, vals, stable_dt(st, vals))
        assert np.all(np.diff(new[:-1]) <= 1e-13)


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
    grid = Grid("radial", 0.01, 64, 1)
    vals = np.full(64, PARAMS.floor)
    vals[:20] += np.linspace(1.0, 0.0, 20)    # steep ramp
    state = solver.State(0.0, vals, PARAMS, grid)
    with pytest.raises(FloorViolationError):
        step(stepper(state), vals, 1.0)       # far beyond the stable dt


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
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=4.0, t_end=1.0)

    def poison(state):
        if state.time == 0.0:
            state.values[0] = np.nan

    with pytest.raises(solver.NumericalError, match="non-finite field at t=0.0625") as info:
        run(cfg, on_record=poison)
    assert type(info.value) is solver.NumericalError


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
    # a missing required key is named, not a TypeError from RunConfig
    for text, missing in (("q = 2\n", "p"), ("p = 3\n", "q"), ("h = 0.02\n", "p, q")):
        with pytest.raises(ConfigError, match=f"missing required key\\(s\\) {missing}$"):
            parse_config(text)
    # values a run cannot start from are rejected when the config is built
    for bad in ("safety = 0", "safety = -0.1", "safety = 1.5", "record_start = 0",
                "t_end = 0", "profile = barenblatt:t0=1\nt_end = 1", "L = -2",
                "L = four", "profile = bump:R0=x", "geometry = cartesian",
                "geometry = line\nN = 2", "profile = bump:R0=0.1",
                "profile = bump:H=-1"):
        with pytest.raises(ConfigError):
            parse_config("p = 3\nq = 2\nh = 0.02\n" + bad)
    with pytest.raises(InvalidParams):
        dataclasses.replace(cfg, safety=0.0)


def test_default_domain_extent():
    cfg = RunConfig(3.0, 2.0, 1, t_end=16.0)
    # margin * (R0 + 2 t^eta edge) with eta = 1/4 and edge = 6^(2/3)
    expected = 1.25 * (1.0 + 2.0 * 16.0 ** 0.25 * 6.0 ** (2.0 / 3.0))
    assert cfg.domain_extent() == pytest.approx(expected)
    assert cfg.grid().n == round(expected / cfg.h)
    assert dataclasses.replace(cfg, L=5.0).domain_extent() == 5.0


def test_comparison_identical_profiles(monkeypatch):
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=4.0, t_end=0.5)
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


def reference_step(u, params, grid, a, b, dt, absorption):
    """One explicit step of cells [a, b) written out plainly: np.diff face
    gradients (zero-flux face at r = 0), a concatenated mirror ghost for the
    centered gradient of cell 0, and the radial divergence as a difference
    of two weighted products.  Returns (new values, absorbed increment,
    boundary_out increment)."""
    p, q, eps = params.p, params.q, params.eps
    inv_h = 1.0 / grid.h
    radial = grid.geometry == "radial"
    u = u.copy()
    g = np.diff(u[max(a - 1, 0):b + 1]) * inv_h
    if radial and a == 0:
        g = np.concatenate(([0.0], g))
    left = np.concatenate((u[:1], u[:b - 1])) if radial and a == 0 else u[a - 1:b - 1]
    gc = (u[a + 1:b + 1] - left) * (0.5 * inv_h)
    flux = model.a_eps(g * g, eps, p) * g
    if radial:
        rw = (np.arange(grid.n + 1) * grid.h)[a:b + 1] ** (grid.N - 1.0)
        inv_rch = 1.0 / (grid.centers() ** (grid.N - 1.0) * grid.h)
        div = (rw[1:] * flux[1:] - rw[:-1] * flux[:-1]) * inv_rch[a:b]
        out = dt * solver.sphere_area(grid.N) * (rw[0] * flux[0] - rw[-1] * flux[-1])
    else:
        div = (flux[1:] - flux[:-1]) * inv_h
        out = dt * (flux[0] - flux[-1])
    u[a:b] += dt * div
    absorbed = 0.0
    if absorption:
        babs = model.b_eps(gc * gc, eps, q)
        u[a:b] -= dt * babs
        absorbed = dt * float(babs @ grid.cell_measures()[a:b])
    return u, absorbed, out


def reference_stable_dt(u, params, grid, a, b, safety, absorption):
    """The CFL rule of the step above, on the same plain gradients."""
    inv_h = 1.0 / grid.h
    radial = grid.geometry == "radial"
    s = (np.diff(u[max(a - 1, 0):b + 1]) * inv_h) ** 2
    dmax = model.effective_diffusivity(float(s.max()), params.eps, params.p)
    dt = safety * grid.h ** 2 / (2.0 * grid.N * dmax)
    if absorption:
        left = np.concatenate((u[:1], u[:b - 1])) if radial and a == 0 else u[a - 1:b - 1]
        scmax = float((((u[a + 1:b + 1] - left) * (0.5 * inv_h)) ** 2).max())
        if scmax > 0.0:
            dt = min(dt, safety * params.floor / model.b_eps(scmax, params.eps, params.q))
    return dt


KERNEL_GRIDS = [("line", 1), ("radial", 1), ("radial", 2), ("radial", 3)]


@pytest.mark.parametrize("geometry,N", KERNEL_GRIDS)
@pytest.mark.parametrize("absorption", [False, True])
@pytest.mark.parametrize("window", ["full", "interior"])
def test_step_kernel_matches_plain_reference(geometry, N, absorption, window, p=3.0, q=1.6):
    # at (3, 1.6) a_eps takes np.sqrt and b_eps np.power; the test below
    # runs these cases at the other powers
    params = ProblemParams(p, q, N)
    grid = Grid.from_extent(geometry, 0.05, 1.5, N)
    state = initial_state(params, grid, model.Bump(R0=2.0, H=1.0, m=2.0))
    u0 = state.values
    st = stepper(state, absorption)
    a, b = (st.lo_min, st.hi_max) if window == "full" else (3, grid.n - 4)
    dt_ref = reference_stable_dt(u0, params, grid, a, b, 0.5, absorption)
    ref, absorbed, out = reference_step(u0, params, grid, a, b, dt_ref, absorption)
    dt = st.stable_dt_from(*st.gradients(u0, a, b)[1:])
    got = u0.copy()
    st.step_window(got, a, b, dt_ref, st.gradients(got, a, b))
    got_absorbed, got_out = st.absorbed, st.boundary_out
    assert np.any(got != u0) and out != 0.0
    # the diffusive flux and its ledger term are formed as before
    assert got_out == out
    if not absorption:
        assert np.array_equal(got, ref)
        assert dt == dt_ref and got_absorbed == absorbed == 0.0
    else:
        # the centered gradient is now the mean of the two face gradients
        assert absorbed > 0.0
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert got_absorbed == pytest.approx(absorbed, rel=1e-14, abs=0.0)
        assert dt == pytest.approx(dt_ref, rel=1e-14, abs=0.0)

    # one stepper reused across two arrays and two windows: each step must
    # match the reference and leave the other array alone, so no step
    # writes through views bound to another array or window
    fields = [u0.copy(), initial_state(params, grid, model.Bump(R0=1.0, H=0.5)).values]
    windows = [(a, b), (st.lo_min + 2, st.hi_max - 5)]
    reused = stepper(state, absorption)
    for k, w in ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)):
        u, other = fields[k], fields[1 - k].copy()
        ref, _, _ = reference_step(u, params, grid, *windows[w], dt_ref, absorption)
        reused.step_window(u, *windows[w], dt_ref, reused.gradients(u, *windows[w]))
        assert np.array_equal(fields[1 - k], other)
        if absorption:
            np.testing.assert_allclose(u, ref, rtol=1e-14, atol=0.0)
        else:
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
    # both fields share one buffer, so a lockstep step of the pair is one
    # gradients, one CFL and one step_window call; the step count comes from
    # the full-grid reference, which takes the same dt sequence
    calls = {"gradients": 0, "stable_dt_from": 0, "step_window": 0}

    def counting(name):
        original = getattr(solver._Stepper, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver._Stepper, name, counting(name))
    cfg = RunConfig(3.0, 2.0, 1, geometry="radial", h=0.02, L=4.0, t_end=0.05)
    profiles = (model.Bump(H=1.0), model.Bump(H=1.5))
    comparison_run(*profiles, cfg)
    paired = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    reference_comparison_run(*profiles, cfg, True, True)
    steps = calls["step_window"] // 2
    assert steps > 0 and calls["step_window"] == 2 * steps
    assert paired == dict.fromkeys(calls, steps)


def reference_comparison_run(profile_a, profile_b, config, absorption_a, absorption_b):
    """The full-grid lockstep loop: both fields advance on every cell with a
    shared dt, and the gap is taken over the whole grid.  Returns the final
    fields and max_violation."""
    params, grid = config.params(), config.grid()
    ua = initial_state(params, grid, profile_a).values
    ub = initial_state(params, grid, profile_b).values
    st_a = solver._Stepper(params, grid, absorption_a, config.safety)
    st_b = solver._Stepper(params, grid, absorption_b, config.safety)
    lo, hi = st_a.lo_min, st_a.hi_max
    t = worst = 0.0
    while t < config.t_end:
        ga, gb = st_a.gradients(ua, lo, hi), st_b.gradients(ub, lo, hi)
        dt = min(st_a.stable_dt_from(*ga[1:]), st_b.stable_dt_from(*gb[1:]),
                 config.t_end - t)
        st_a.step_window(ua, lo, hi, dt=dt, grads=ga)
        st_b.step_window(ub, lo, hi, dt=dt, grads=gb)
        t += dt
        worst = max(worst, float((ua - ub).max()))
    return ua, ub, max(worst, 0.0)


@pytest.mark.parametrize("geometry,N", [("line", 1), ("radial", 1),
                                        ("radial", 2), ("radial", 3)])
@pytest.mark.parametrize("pair", ["ordered", "nested", "absorption_on_off",
                                  "absorption_off_on", "floor_below"])
def test_windowed_comparison_run_matches_full_grid(monkeypatch, geometry, N, pair):
    cfg = RunConfig(3.0, 2.0, N, geometry=geometry, h=0.02, L=4.0, t_end=0.25)
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
def test_comparison_run_line_support_reaches_pinned_ends(monkeypatch, absorption):
    # on a line the packed buffer joins the two fields' pinned end cells at
    # its junction; the supports reach the cells next to them, which must
    # not leak into the pinned cells or across the junction
    cfg = RunConfig(3.0, 2.0, 1, geometry="line", h=0.02, L=1.2, t_end=0.25)
    profiles = (model.Bump(R0=1.0, H=1.0), model.Bump(R0=1.1, H=1.5))
    ua, ub, _, _ = windowed_and_reference(monkeypatch, profiles, cfg, absorption)
    floor = cfg.params().floor
    for u in (ua, ub):
        assert u[0] == u[-1] == floor
        assert u[1] > floor and u[-2] > floor
