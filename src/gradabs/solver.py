"""Explicit conservative finite-difference evolution of the regularized
equation on line and radial grids.

The scheme is first order in time, monotone under the CFL restriction, and
preserves the floor eps**gamma without clamping.  Boundary cells are pinned
at the floor (the constant floor is an exact solution); the radial origin
uses a zero-flux face at r = 0 for the diffusive flux and a mirror ghost
cell for the centered gradient of the absorption term.

`_Stepper.gradients` is the one place the face and centered gradients are
formed, and `_Stepper.stable_dt_from` the one CFL rule: `run`, `step`,
`stable_dt` and `comparison_run` all take their dt from that pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, observe
from .exponents import InvalidParams, ProblemParams, eta_exponent

FLOOR_SLACK = 1e-14

# Active-window bookkeeping: the update front moves at most one cell per
# step, so refreshing every WINDOW_EVERY steps with WINDOW_EVERY + 2 cells
# of padding is exact.
WINDOW_EVERY = 64
WINDOW_PAD = WINDOW_EVERY + 2


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


class FloorViolationError(NumericalError):
    """Post-step floor undershoot beyond roundoff: the CFL bound was breached."""


class SupportOverflowError(NumericalError):
    """The support radius exceeded 0.9 L; the domain is too small."""


def sphere_area(N):
    """Area of the unit sphere in R^N: 2, 2*pi, 4*pi, ..."""
    return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid; 'line' covers [-L, L], 'radial' covers [0, L]
    with cell centers offset by h/2 from the origin."""

    geometry: str
    h: float
    n: int
    N: int = 1

    def __post_init__(self):
        if self.geometry not in ("line", "radial"):
            raise ConfigError(f"geometry must be line or radial, got {self.geometry!r}")
        if self.geometry == "line" and self.N != 1:
            raise ConfigError("line geometry requires N = 1")
        if not self.h > 0.0:
            raise ConfigError("h must be positive")
        if self.n < 16:
            raise ConfigError("need at least 16 cells")

    @classmethod
    def from_extent(cls, geometry, h, L, N=1):
        width = 2.0 * L if geometry == "line" else L
        n = max(16, int(round(width / h)))
        return cls(geometry, h, n, N)

    @property
    def L(self):
        return 0.5 * self.n * self.h if self.geometry == "line" else self.n * self.h

    def centers(self):
        i = np.arange(self.n)
        if self.geometry == "line":
            return -self.L + (i + 0.5) * self.h
        return (i + 0.5) * self.h

    def cell_measures(self):
        """Quadrature weights: h on a line, omega_N r^{N-1} h radially."""
        if self.geometry == "line":
            return np.full(self.n, self.h)
        r = self.centers()
        return sphere_area(self.N) * r ** (self.N - 1.0) * self.h


@dataclass
class State:
    """Discrete solution snapshot; values include the floor eps**gamma."""

    time: float
    values: np.ndarray
    params: ProblemParams
    grid: Grid
    absorbed_mass: float = 0.0
    boundary_out: float = 0.0

    @property
    def floor(self):
        return self.params.floor

    def copy(self):
        return State(self.time, self.values.copy(), self.params, self.grid,
                     self.absorbed_mass, self.boundary_out)


def initial_state(params, grid, profile):
    """Sampled profile lifted by the floor, with boundary cells pinned."""
    vals = model.sample_profile(profile, grid, params) + params.floor
    vals[-1] = params.floor
    if grid.geometry == "line":
        vals[0] = params.floor
    return State(profile.t0, vals, params, grid)


class _Stepper:
    """Precomputed geometry/coefficient data plus the in-place update kernel."""

    def __init__(self, params, grid, absorption=True, safety=0.4):
        self.params = params
        self.grid = grid
        self.absorption = absorption
        self.safety = safety
        self.p = params.p
        self.q = params.q
        self.floor = params.floor
        self.inv_h = 1.0 / grid.h
        n = grid.n
        self.radial = grid.geometry == "radial"
        self.neff = grid.N if self.radial else 1
        self.cellw = grid.cell_measures()
        if self.radial:
            faces = np.arange(n + 1) * grid.h
            self.rw = faces ** (grid.N - 1.0)
            self.inv_rch = 1.0 / (grid.centers() ** (grid.N - 1.0) * grid.h)
            self.omega = sphere_area(grid.N)
            self.lo_min = 0
        else:
            self.omega = 1.0
            self.lo_min = 1           # cell 0 is pinned at the floor
        self.hi_max = n - 1           # cell n-1 is pinned at the floor
        self.absorbed = 0.0
        self.boundary_out = 0.0

    # -- gradients and CFL ---------------------------------------------------

    def gradients(self, u, a, b):
        """Gradients seen by a step of cells [a, b): the face gradients g on
        the b - a + 1 bounding faces (zero-flux face at r = 0), their squares
        s, and the squared centered cell gradients sc (mirror ghost at
        r = 0), or sc = None when absorption is off."""
        seg = u[max(a - 1, 0):b + 1]
        g = np.diff(seg) * self.inv_h
        if self.radial and a == 0:
            g = np.concatenate(([0.0], g))
        sc = None
        if self.absorption:
            if self.radial and a == 0:
                left = np.concatenate((u[:1], u[:b - 1]))
            else:
                left = u[a - 1:b - 1]
            gc = (u[a + 1:b + 1] - left) * (0.5 * self.inv_h)
            sc = gc * gc
        return g, g * g, sc

    def stable_dt_from(self, s, sc):
        """Explicit CFL bound safety * h^2 / (2 N_eff D_max), capped so one
        absorption step cannot undershoot the floor; effective_diffusivity
        and b_eps are increasing in s, so the face/cell maxima suffice."""
        dmax = model.effective_diffusivity(float(s.max()), self.params.eps, self.p)
        dt = self.safety * self.grid.h ** 2 / (2.0 * self.neff * dmax)
        if sc is not None:
            scmax = float(sc.max())
            if scmax > 0.0:
                bmax = model.b_eps(scmax, self.params.eps, self.q)
                if bmax > 0.0:
                    dt = min(dt, self.safety * self.floor / bmax)
        return dt

    # -- one step on the active window --------------------------------------

    def step_window(self, u, a, b, dt=None, t_budget=np.inf):
        """Advance cells [a, b) by one explicit step; returns the dt used.

        Cells outside [a, b) must be at the floor beyond one padding cell so
        that the omitted fluxes vanish identically.
        """
        g, s, sc = self.gradients(u, a, b)
        if dt is None:
            dt = self.stable_dt_from(s, sc)
        dt = min(dt, t_budget)

        flux = model.a_eps(s, self.params.eps, self.p) * g
        if self.radial:
            rwin = self.rw[a:b + 1]
            div = (rwin[1:] * flux[1:] - rwin[:-1] * flux[:-1]) * self.inv_rch[a:b]
            self.boundary_out += dt * self.omega * (rwin[0] * flux[0] - rwin[-1] * flux[-1])
        else:
            div = (flux[1:] - flux[:-1]) * self.inv_h
            self.boundary_out += dt * (flux[0] - flux[-1])
        u[a:b] += dt * div

        if sc is not None:
            babs = model.b_eps(sc, self.params.eps, self.q)
            u[a:b] -= dt * babs
            self.absorbed += dt * float(babs @ self.cellw[a:b])

        umin = float(u[a:b].min())
        if umin < self.floor - FLOOR_SLACK:
            raise FloorViolationError(
                f"floor violated by {self.floor - umin:.3e} at t-step dt={dt:.3e}"
            )
        return dt

    # -- window tracking and time advancement --------------------------------

    def active_window(self, u):
        active = np.nonzero(u > self.floor)[0]
        if active.size == 0:
            return None
        a = max(int(active[0]) - WINDOW_PAD, self.lo_min)
        b = min(int(active[-1]) + 1 + WINDOW_PAD, self.hi_max)
        return a, b

    def advance(self, u, t, t_target):
        """Step in place until t_target (hit exactly); returns the new time."""
        while t < t_target - 1e-15 * max(1.0, t_target):
            win = self.active_window(u)
            if win is None:
                return t_target       # constant floor is a steady state
            a, b = win
            for _ in range(WINDOW_EVERY):
                dt = self.step_window(u, a, b, t_budget=t_target - t)
                t += dt
                if t >= t_target - 1e-15 * max(1.0, t_target):
                    return t_target
        return t_target


def stable_dt(state, safety=1.0, absorption=True):
    """CFL-stable time step of a full-grid step of state."""
    if not 0.0 < safety <= 1.0:
        raise InvalidParams("safety must lie in (0, 1]")
    st = _Stepper(state.params, state.grid, absorption=absorption, safety=safety)
    _, s, sc = st.gradients(state.values, st.lo_min, st.hi_max)
    return st.stable_dt_from(s, sc)


def step(state, dt, absorption=True):
    """One explicit step with a caller-supplied dt <= stable_dt(state, 1).
    Returns the new state."""
    st = _Stepper(state.params, state.grid, absorption=absorption)
    new = state.copy()
    st.absorbed = state.absorbed_mass
    st.boundary_out = state.boundary_out
    st.step_window(new.values, st.lo_min, st.hi_max, dt=dt)
    new.time = state.time + dt
    new.absorbed_mass = st.absorbed
    new.boundary_out = st.boundary_out
    return new


# ---------------------------------------------------------------------------
# run configuration


CONFIG_KEYS = ("p", "q", "N", "eps", "gamma", "geometry", "h", "L", "t_end",
               "safety", "profile", "absorption", "record_start")

DOMAIN_MARGIN = 1.25
SUPPORT_REL_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    p: float
    q: float
    N: int = 1
    eps: float = 1e-3
    gamma: float | None = None
    geometry: str = "radial"
    h: float = 0.005
    L: float | None = None
    t_end: float = 16.0
    safety: float = 0.4
    profile: str = "bump:R0=1,H=1,m=2"
    absorption: bool = True
    record_start: float = 0.0625

    def params(self):
        return ProblemParams(self.p, self.q, self.N, self.eps, self.gamma)

    def profile_obj(self):
        return model.parse_profile(self.profile)

    def domain_extent(self):
        """User-supplied L, or margin * (R0 + 2 t_end^eta * Barenblatt edge)."""
        if self.L is not None:
            return self.L
        r0 = self.profile_obj().support_radius(self.params())
        eta = eta_exponent(self.p, self.N)
        gp = model.gamma_p_constant(self.p, self.N)
        edge = gp ** (-(self.p - 1.0) / self.p)
        return DOMAIN_MARGIN * (r0 + 2.0 * self.t_end ** eta * edge)

    def grid(self):
        return Grid.from_extent(self.geometry, self.h, self.domain_extent(), self.N)


def parse_config(text) -> RunConfig:
    """Parse a plain-text key=value run configuration."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not val:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = val
    kwargs = {}
    for key, val in raw.items():
        if key in ("p", "q", "eps", "gamma", "h", "L", "t_end", "safety", "record_start"):
            kwargs[key] = float(val)
        elif key == "N":
            kwargs[key] = int(val)
        elif key == "absorption":
            if val not in ("on", "off"):
                raise ConfigError(f"absorption must be on or off, got {val!r}")
            kwargs[key] = val == "on"
        else:
            kwargs[key] = val
    try:
        cfg = RunConfig(**kwargs)
        cfg.params()
        cfg.profile_obj()
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def record_times(t_start, t_end, record_start):
    """Quarter-octave geometric recording times in (t_start, t_end]."""
    times = []
    j = 0
    while True:
        t = record_start * 2.0 ** (0.25 * j)
        if t > t_end * (1.0 + 1e-12):
            break
        if t > t_start * (1.0 + 1e-12):
            times.append(t)
        j += 1
    if not times or times[-1] < t_end * (1.0 - 1e-9):
        times.append(t_end)
    return times


def run(config: RunConfig, on_record=None):
    """Evolve the configured problem, recording observables at geometric
    times.  Returns (final state, time series)."""
    params = config.params()
    grid = config.grid()
    profile = config.profile_obj()
    state = initial_state(params, grid, profile)
    thetas = observe.default_thetas(params)

    series = observe.TimeSeries()
    ref_sup = float(state.values.max()) - params.floor
    obs0 = observe.observe(state, thetas, rel_tol=SUPPORT_REL_TOL, ref_sup=ref_sup)
    series.append(obs0, thetas)
    if on_record is not None:
        on_record(state)

    stepper = _Stepper(params, grid, absorption=config.absorption,
                       safety=config.safety)
    u = state.values
    t = state.time
    for t_rec in record_times(state.time, config.t_end, config.record_start):
        t = stepper.advance(u, t, t_rec)
        state.time = t
        state.absorbed_mass = stepper.absorbed
        state.boundary_out = stepper.boundary_out
        if not np.all(np.isfinite(u)):
            raise NumericalError(f"non-finite field at t={t:g}")
        obs = observe.observe(state, thetas, rel_tol=SUPPORT_REL_TOL, ref_sup=ref_sup)
        if obs.rho > 0.9 * grid.L:
            raise SupportOverflowError(
                f"support overflow: radius {obs.rho:.3g} exceeds 0.9 L = "
                f"{0.9 * grid.L:.3g} at t={t:g}; enlarge L"
            )
        series.append(obs, thetas)
        if on_record is not None:
            on_record(state)
    return state, series


def comparison_run(profile_a, profile_b, config: RunConfig,
                   absorption_a=None, absorption_b=None):
    """Evolve two ordered initial profiles with an identical dt sequence and
    report the worst ordering violation max_t max_i (uA - uB)_+."""
    params = config.params()
    grid = config.grid()
    sa = initial_state(params, grid, profile_a)
    sb = initial_state(params, grid, profile_b)
    if np.any(sa.values > sb.values + 1e-15):
        raise InvalidParams("profile_a must lie below profile_b pointwise")
    aa = config.absorption if absorption_a is None else absorption_a
    ab = config.absorption if absorption_b is None else absorption_b
    st_a = _Stepper(params, grid, absorption=aa, safety=config.safety)
    st_b = _Stepper(params, grid, absorption=ab, safety=config.safety)
    ua, ub = sa.values, sb.values
    t = 0.0
    worst = 0.0
    lo, hi = st_a.lo_min, st_a.hi_max
    while t < config.t_end:
        dt = min(st_a.stable_dt_from(*st_a.gradients(ua, lo, hi)[1:]),
                 st_b.stable_dt_from(*st_b.gradients(ub, lo, hi)[1:]),
                 config.t_end - t)
        st_a.step_window(ua, lo, hi, dt=dt)
        st_b.step_window(ub, lo, hi, dt=dt)
        t += dt
        worst = max(worst, float(np.max(ua - ub)))
    return {
        "max_violation": max(worst, 0.0),
        "t_end": config.t_end,
        "absorption_a": aa,
        "absorption_b": ab,
    }
