"""Explicit conservative finite-difference evolution of the regularized
equation on line and radial grids.

The scheme is first order in time, monotone under the CFL restriction, and
preserves the floor eps**gamma without clamping.  Boundary cells are pinned
at the floor (the constant floor is an exact solution); the radial origin
is a zero-flux face at r = 0.  The absorption term sees the centered cell
gradient, the mean of the cell's two face gradients; at r = 0 that equals
the mirror-ghost difference.

`_Stepper.gradients` is the one place the face and centered gradients are
formed, and `_Stepper.stable_dt_from` the one CFL rule.  `_advance` is the
one time loop: `run` drives it with one field and `comparison_run` with two
in lockstep, each field's gradients formed once per step.  A step writes
into the stepper's own scratch arrays, model.a_eps and model.b_eps included,
through views that are formed once per field and window, so it allocates
nothing.  The loop steps only the active window: the cells above the floor
plus a padding the front cannot cross before the window is refreshed.
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


def initial_state(params, grid, profile):
    """Sampled profile lifted by the floor, with boundary cells pinned."""
    vals = model.sample_profile(profile, grid, params) + params.floor
    vals[-1] = params.floor
    if grid.geometry == "line":
        vals[0] = params.floor
    return State(profile.t0, vals, params, grid)


class _Stepper:
    """Precomputed geometry data, per-step scratch and the in-place update
    kernel.  The views a step of cells [a, b) takes of its field and of the
    scratch are formed once per field and window, so a step allocates
    nothing."""

    def __init__(self, params, grid, absorption=True, safety=0.4):
        self.absorption = absorption
        self.safety = safety
        self.p, self.q, self.eps, self.floor = params.p, params.q, params.eps, params.floor
        self.cfl = safety * grid.h ** 2           # dt = cfl / (2 N_eff D_max)
        self.inv_h = 1.0 / grid.h
        n, self.neff = grid.n, grid.N
        self.cellw = grid.cell_measures()
        # face weights r^(N-1) and cell factors 1/(r^(N-1) h); a line has
        # N = 1, so its weights are 1 and its factors 1/h
        self.rw = (np.arange(n + 1) * grid.h) ** (grid.N - 1.0)
        self.inv_rch = 1.0 / (grid.centers() ** (grid.N - 1.0) * grid.h)
        radial = grid.geometry == "radial"
        self.omega = sphere_area(grid.N) if radial else 1.0
        self.lo_min = 0 if radial else 1      # a line's cell 0 is pinned at the floor
        self.hi_max = n - 1                   # cell n-1 is pinned at the floor
        # scratch: face i lies between cells i-1 and i; face 0 is never
        # written, so its gradient stays 0 (the zero-flux face at r = 0)
        self.g, self.s, self.flux = np.zeros(n + 1), np.empty(n + 1), np.empty(n + 1)
        self.sc, self.div, self.babs = np.empty(n), np.empty(n), np.empty(n)
        self.absorbed = 0.0
        self.boundary_out = 0.0
        self._u, self._a, self._b = None, -1, -1

    def _bind(self, u, a, b):
        """Form the views of u and of the scratch that a step of cells
        [a, b) uses, unless they are already formed for this very array and
        window.  The array is held by reference, not by id(), so a different
        array always gets views of its own."""
        if u is self._u and a == self._a and b == self._b:
            return
        lo, m = max(a, 1), b - a
        g, flux = self.g[a:b + 1], self.flux[:m + 1]
        self._grad_views = (u[lo:b + 1], u[lo - 1:b], self.g[lo:b + 1], g,
                            self.s[:m + 1], g[:-1], g[1:], self.sc[:m])
        self._step_views = (flux, flux[1:], flux[:-1], self.rw[a:b + 1],
                            self.div[:m], self.inv_rch[a:b], u[a:b],
                            self.babs[:m], self.cellw[a:b])
        self._u, self._a, self._b = u, a, b

    # -- gradients and CFL ---------------------------------------------------

    def gradients(self, u, a, b):
        """Gradients seen by a step of cells [a, b): the face gradients g on
        the b - a + 1 bounding faces (zero-flux face at r = 0), their squares
        s, and the squared centered cell gradients sc, or sc = None when
        absorption is off.  A centered gradient is the mean of its cell's two
        face gradients, which at r = 0 equals the mirror-ghost difference.

        The arrays are views on this stepper's scratch and are overwritten
        by its next call, so a caller that holds the gradients of several
        fields at once needs one stepper per field."""
        self._bind(u, a, b)
        u_right, u_left, inner, g, s, g_left, g_right, sc = self._grad_views
        np.subtract(u_right, u_left, out=inner)
        inner *= self.inv_h
        np.multiply(g, g, out=s)
        if not self.absorption:
            return g, s, None
        np.add(g_left, g_right, out=sc)
        sc *= 0.5
        np.multiply(sc, sc, out=sc)
        return g, s, sc

    def stable_dt_from(self, s, sc):
        """Explicit CFL bound safety * h^2 / (2 N_eff D_max), capped so one
        absorption step cannot undershoot the floor; effective_diffusivity
        and b_eps are increasing in s, so the face/cell maxima suffice."""
        dmax = model.effective_diffusivity(float(np.maximum.reduce(s)), self.eps, self.p)
        dt = self.cfl / (2.0 * self.neff * dmax)
        if sc is not None:
            bmax = model.b_eps(float(np.maximum.reduce(sc)), self.eps, self.q)
            if bmax > 0.0:
                dt = min(dt, self.safety * self.floor / bmax)
        return dt

    # -- one step on a window, and the active window -------------------------

    def step_window(self, u, a, b, dt, grads):
        """Advance cells [a, b) by one explicit step of size dt <= the
        stable_dt_from(grads), where grads is this stepper's gradients(u, a, b).

        Cells outside [a, b) must be at the floor beyond one padding cell so
        that the omitted fluxes vanish identically.
        """
        self._bind(u, a, b)
        g, s, sc = grads
        flux, flux_right, flux_left, rw, div, inv_rch, uw, babs, cellw = self._step_views

        # radially weighted flux r^(N-1) a_eps g on the faces (weight 1 on a line)
        model.a_eps(s, self.eps, self.p, out=flux)
        flux *= g
        flux *= rw
        np.subtract(flux_right, flux_left, out=div)
        div *= inv_rch
        div *= dt
        self.boundary_out += dt * self.omega * (flux[0] - flux[-1])
        uw += div

        if sc is not None:
            model.b_eps(sc, self.eps, self.q, out=babs)
            self.absorbed += dt * float(babs @ cellw)
            babs *= dt
            uw -= babs

        umin = float(np.minimum.reduce(uw))
        if umin < self.floor - FLOOR_SLACK:
            raise FloorViolationError(
                f"floor violated by {self.floor - umin:.3e} at t-step dt={dt:.3e}"
            )

    def active_window(self, u):
        active = np.nonzero(u > self.floor)[0]
        if active.size == 0:
            return None
        a = max(int(active[0]) - WINDOW_PAD, self.lo_min)
        b = min(int(active[-1]) + 1 + WINDOW_PAD, self.hi_max)
        return a, b


def _advance(pairs, t, t_target, after_step=None):
    """Step every (stepper, field) pair in place from t to t_target, hit
    exactly, with one shared dt, the least of their CFL bounds, on the union
    of their active windows, refreshed every WINDOW_EVERY steps.  Calls
    after_step(a, b), if given, after every step of window [a, b); returns
    early once every field is at the floor, a steady state."""
    t_stop = t_target - 1e-15 * max(1.0, t_target)
    while t < t_stop:
        wins = [w for w in (st.active_window(u) for st, u in pairs) if w]
        if not wins:
            return
        a, b = min(w[0] for w in wins), max(w[1] for w in wins)
        for _ in range(WINDOW_EVERY):
            # each field keeps its gradients, on its own stepper, until its step
            dt, steps = t_target - t, []
            for st, u in pairs:
                g = st.gradients(u, a, b)
                dt = min(st.stable_dt_from(g[1], g[2]), dt)
                steps.append((st, u, g))
            for st, u, g in steps:
                st.step_window(u, a, b, dt, g)
            t += dt
            if after_step is not None:
                after_step(a, b)
            if t >= t_stop:
                return


def _check_safety(safety):
    if not 0.0 < safety <= 1.0:
        raise InvalidParams(f"safety must lie in (0, 1], got {safety}")


def stable_dt(state, safety=1.0, absorption=True):
    """CFL-stable time step of a full-grid step of state."""
    _check_safety(safety)
    st = _Stepper(state.params, state.grid, absorption=absorption, safety=safety)
    _, s, sc = st.gradients(state.values, st.lo_min, st.hi_max)
    return st.stable_dt_from(s, sc)


def step(state, dt, absorption=True):
    """One explicit step with a caller-supplied dt <= stable_dt(state, 1).
    Returns the new state."""
    st = _Stepper(state.params, state.grid, absorption=absorption)
    st.absorbed, st.boundary_out = state.absorbed_mass, state.boundary_out
    values = state.values.copy()
    a, b = st.lo_min, st.hi_max
    st.step_window(values, a, b, dt, st.gradients(values, a, b))
    return State(state.time + dt, values, state.params, state.grid,
                 st.absorbed, st.boundary_out)


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

    def __post_init__(self):
        """A config that no run can start from is rejected when it is built."""
        self.params()
        _check_safety(self.safety)
        for ok, rule in ((self.record_start > 0.0, "record_start > 0"),
                         (self.t_end > self.profile_obj().t0, "t_end > the profile's t0"),
                         (self.L is None or self.L > 0.0, "L > 0")):
            if not ok:
                raise InvalidParams(f"need {rule}")

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
    kwargs = {}
    try:
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
            if key in kwargs:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            if key == "N":
                val = int(val)
            elif key == "absorption":
                if val not in ("on", "off"):
                    raise ConfigError(f"absorption must be on or off, got {val!r}")
                val = val == "on"
            elif key not in ("geometry", "profile"):
                val = float(val)
            kwargs[key] = val
        return RunConfig(**kwargs)
    except ValueError as exc:         # InvalidParams, or a value that is not a number
        raise ConfigError(str(exc)) from None


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
    state = initial_state(params, grid, config.profile_obj())
    thetas = observe.default_thetas(params)

    series = observe.TimeSeries()
    ref_sup = float(state.values.max()) - params.floor
    obs0 = observe.observe(state, thetas, rel_tol=SUPPORT_REL_TOL, ref_sup=ref_sup)
    series.append(obs0, thetas)
    if on_record is not None:
        on_record(state)

    stepper = _Stepper(params, grid, absorption=config.absorption,
                       safety=config.safety)
    for t in record_times(state.time, config.t_end, config.record_start):
        _advance(((stepper, state.values),), state.time, t)
        state.time = t
        state.absorbed_mass = stepper.absorbed
        state.boundary_out = stepper.boundary_out
        if not np.all(np.isfinite(state.values)):
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
    report the worst ordering violation max_t max_i (uA - uB)_+.

    Both fields advance through `_advance` on the union of their active
    windows, and the gap is taken on that window only.  Outside it both
    fields sit exactly at the floor: their fluxes and absorption vanish there
    identically, so a full-grid step would leave those cells unchanged and
    their gap exactly 0."""
    params = config.params()
    grid = config.grid()
    ua = initial_state(params, grid, profile_a).values
    ub = initial_state(params, grid, profile_b).values
    if np.any(ua > ub + 1e-15):
        raise InvalidParams("profile_a must lie below profile_b pointwise")
    aa = config.absorption if absorption_a is None else absorption_a
    ab = config.absorption if absorption_b is None else absorption_b
    st_a = _Stepper(params, grid, absorption=aa, safety=config.safety)
    st_b = _Stepper(params, grid, absorption=ab, safety=config.safety)
    worst, win, views = 0.0, None, None

    def take_gap(a, b):
        nonlocal worst, win, views
        if win != (a, b):             # the views are formed once per window
            win, views = (a, b), (ua[a:b], ub[a:b], np.empty(b - a))
        worst = max(worst, float(np.maximum.reduce(np.subtract(*views))))

    _advance(((st_a, ua), (st_b, ub)), 0.0, config.t_end, take_gap)
    return {
        "max_violation": max(worst, 0.0),
        "t_end": config.t_end,
        "absorption_a": aa,
        "absorption_b": ab,
    }
