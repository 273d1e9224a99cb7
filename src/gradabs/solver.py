"""Explicit conservative finite-difference evolution of the regularized
equation on line and radial grids.

The scheme is first order in time.  Its diffusion is monotone under the CFL
restriction; its absorption, which sees the centered cell gradient (the mean
of the cell's two face gradients, at r = 0 the mirror-ghost difference), is
not monotone where q < p - 1: a floor cell next to the support can
undershoot the floor eps**gamma, which the step checks for instead of
clamping, and which the CFL cap dt <= safety * floor / b_max only limits.
Boundary cells are pinned at the floor (the constant floor is an exact
solution); the radial origin is a zero-flux face at r = 0.

The entry points are `run` and `comparison_run`, both driven by a
`RunConfig`, which rejects when it is built any config that no run can start
from.  `_Stepper.gradients` is the one place the face and centered gradients
are formed, and `_Stepper.stable_dt_from` the one CFL rule.  `_advance` is
the one time loop, over one array: `run` drives it with the field, and
`comparison_run` with its two fields laid out in one mirrored buffer
[u_B reversed | u_A], so that one gradients, CFL and step call per step
advances both in lockstep with a shared dt.  A step writes into the
stepper's own scratch arrays, model.a_eps and model.b_eps included, through
views that are formed once per array and window, so it allocates nothing.
Every ufunc of a step gets array operands and its output positionally: its
constants (1/h, 1/2 and the coefficients' model.Coefficient) are 0-d arrays
built once per stepper, and dt is written into a 0-d array once per step.
A ufunc converts a Python float operand on every call and parses an out=
keyword, and on a window of a few hundred cells that is a large share of
the call.
A step's extrema (the CFL maxima, the floor check's minimum and the
comparison gap) are read by index, x.item(x.argmax()), which costs less
than a reduction to a numpy scalar and returns the first NaN just as the
reduction propagates it.  The loop steps only the active window: the cells
above the floor plus a padding the front cannot cross before the window is
refreshed.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import model, observe
from .exponents import InvalidParams, ProblemParams

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
    def from_extent(cls, geometry, h, L, N):
        width = 2.0 * L if geometry == "line" else L
        # a non-positive h is left for __post_init__ to reject
        n = max(16, int(round(width / h))) if h > 0.0 else 0
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
    kernel for one field of a grid, or, built by `mirrored`, for the two
    fields of a comparison laid out in one buffer.  The views a step of
    cells [a, b) takes of its field and of the scratch are formed once per
    field and window, so a step allocates nothing."""

    def __init__(self, params, grid, absorption, safety):
        self.absorption = absorption
        self.safety = safety
        self.p, self.q, self.eps, self.floor = params.p, params.q, params.eps, params.floor
        self.cfl = safety * grid.h ** 2           # dt = cfl / (2 N_eff D_max)
        # the step's ufunc operands as 0-d arrays: 1/h, 1/2, the coefficients'
        # constants, and dt, written once per step
        self.inv_h, self.half, self.dt = np.array(1.0 / grid.h), np.array(0.5), np.array(0.0)
        self.a_consts = model.Coefficient(self.eps, 0.5 * (self.p - 2.0))
        self.b_consts = model.Coefficient(self.eps, 0.5 * self.q)
        self.neff = grid.N
        radial = grid.geometry == "radial"
        self.omega = sphere_area(grid.N) if radial else 1.0
        # face weights r^(N-1) and cell factors 1/(r^(N-1) h); a line has
        # N = 1, so its weights are 1 and its factors 1/h.  Face 0 is the
        # zero-flux face at r = 0; a line's cell 0 is pinned at the floor.
        self._lay_out((np.arange(grid.n + 1) * grid.h) ** (grid.N - 1.0),
                      1.0 / (grid.centers() ** (grid.N - 1.0) * grid.h),
                      grid.cell_measures(), 0 if radial else 1, None, (0, 0))
        self.absorbed = 0.0
        self.boundary_out = 0.0

    def _lay_out(self, rw, inv_rch, cellw, lo_min, junction, no_absorption):
        """Set the geometry of a field of cellw.size cells and allocate the
        scratch.  Face i lies between cells i-1 and i; the junction face's
        gradient, if there is a junction, is 0 at every step, and the cells in
        the range no_absorption = (first, stop) see no absorption.  Face 0's
        gradient is never written, so it stays 0.  Face weights that are all
        exactly 1 (N = 1) are not multiplied in."""
        n = cellw.size
        self.rw, self.inv_rch, self.cellw = rw, inv_rch, cellw
        self.weighted = bool(np.any(rw != 1.0))
        self.lo_min, self.hi_max = lo_min, n - 1      # the last cell is pinned
        self.junction, self.no_absorption = junction, no_absorption
        self.g, self.s, self.flux = np.zeros(n + 1), np.empty(n + 1), np.empty(n + 1)
        self.sc, self.div, self.babs = np.empty(n), np.empty(n), np.empty(n)
        self._u, self._a, self._b = None, -1, -1

    @classmethod
    def mirrored(cls, params, grid, absorption_a, absorption_b, safety):
        """One stepper for fields A and B of grid laid out as [B reversed | A],
        their r = 0 faces meeting at face n.  Reversal negates B's face
        gradients and fluxes exactly, so a step of the buffer is bit for bit
        a step of each field, with dt the least of their CFL bounds.  A line's
        two pinned cells at the junction get no divergence and no absorption;
        a field without absorption sees sc = 0.  The ledgers mix the fields."""
        st = cls(params, grid, absorption_a or absorption_b, safety)
        n = grid.n
        inv_rch = np.concatenate((st.inv_rch[::-1], st.inv_rch))
        pinned = int(grid.geometry == "line")
        lo, hi = n - pinned, n + pinned
        inv_rch[lo:hi] = 0.0
        st._lay_out(np.concatenate((st.rw[:0:-1], st.rw)), inv_rch,
                    np.concatenate((st.cellw[::-1], st.cellw)), 1, n,
                    (lo if absorption_b else 0, hi if absorption_a else 2 * n))
        return st

    def _bind(self, u, a, b):
        """Form the views of u and of the scratch that a step of cells
        [a, b) uses, unless they are already formed for this very array and
        window.  The array is held by reference, not by id(), so a different
        array always gets views of its own."""
        if u is self._u and a == self._a and b == self._b:
            return
        lo, m = max(a, 1), b - a
        g, flux = self.g[a:b + 1], self.flux[:m + 1]
        z0, z1 = max(self.no_absorption[0], a), min(self.no_absorption[1], b)
        self._grad_views = (u[lo:b + 1], u[lo - 1:b], self.g[lo:b + 1], g,
                            self.s[:m + 1], g[:-1], g[1:], self.sc[:m],
                            self.sc[z0 - a:z1 - a] if z0 < z1 else None)
        self._step_views = (flux, flux[1:], flux[:-1],
                            self.rw[a:b + 1] if self.weighted else None,
                            self.div[:m], self.inv_rch[a:b], u[a:b],
                            self.babs[:m], self.cellw[a:b])
        self._u, self._a, self._b = u, a, b

    # -- gradients and CFL ---------------------------------------------------

    def gradients(self, u, a, b):
        """Gradients seen by a step of cells [a, b): the face gradients g on
        the b - a + 1 bounding faces (0 on the junction face), their squares
        s, and the squared centered cell gradients sc (0 on the cells without
        absorption), or sc = None when absorption is off.  A centered
        gradient is the mean of its cell's two face gradients, which at
        r = 0 equals the mirror-ghost difference.

        The arrays are views on this stepper's scratch and are overwritten
        by its next call, so a caller that holds the gradients of several
        fields at once needs one stepper per field."""
        self._bind(u, a, b)
        u_right, u_left, inner, g, s, g_left, g_right, sc, no_absorption = self._grad_views
        np.subtract(u_right, u_left, inner)
        np.multiply(inner, self.inv_h, inner)
        if self.junction is not None:
            self.g[self.junction] = 0.0
        np.multiply(g, g, s)
        if not self.absorption:
            return g, s, None
        np.add(g_left, g_right, sc)
        np.multiply(sc, self.half, sc)
        np.multiply(sc, sc, sc)
        if no_absorption is not None:
            no_absorption.fill(0.0)
        return g, s, sc

    def stable_dt_from(self, s, sc):
        """Explicit CFL bound safety * h^2 / (2 N_eff D_max), capped so one
        absorption step cannot undershoot the floor; effective_diffusivity
        and b_eps are increasing in s, so the face/cell maxima suffice.  A
        NaN gradient gives dt = NaN."""
        dmax = model.effective_diffusivity(s.item(s.argmax()), self.eps, self.p)
        dt = self.cfl / (2.0 * self.neff * dmax)
        if sc is not None:
            bmax = model.b_eps(sc.item(sc.argmax()), self.eps, self.q)
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

        # radially weighted flux r^(N-1) a_eps g on the faces; rw is None at
        # N = 1, where every weight is 1
        model.a_eps(s, self.eps, self.p, flux, self.a_consts)
        np.multiply(flux, g, flux)
        if rw is not None:
            np.multiply(flux, rw, flux)
        np.subtract(flux_right, flux_left, div)
        np.multiply(div, inv_rch, div)
        self.dt[()] = dt
        np.multiply(div, self.dt, div)
        self.boundary_out += dt * self.omega * (flux.item(0) - flux.item(-1))
        np.add(uw, div, uw)

        if sc is not None:
            model.b_eps(sc, self.eps, self.q, babs, self.b_consts)
            self.absorbed += dt * float(babs.dot(cellw))
            np.multiply(babs, self.dt, babs)
            np.subtract(uw, babs, uw)

        umin = uw.item(uw.argmin())
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


def _advance(stepper, u, t, t_target, after_step=None):
    """Step u in place from t to t_target, hit exactly, on its active
    window, refreshed every WINDOW_EVERY steps.  Calls after_step(a, b), if
    given, after every step of window [a, b); returns early once u is at
    the floor, a steady state."""
    t_stop = t_target - 1e-15 * max(1.0, t_target)
    while t < t_stop:
        win = stepper.active_window(u)
        if win is None:
            return
        a, b = win
        for _ in range(WINDOW_EVERY):
            g = stepper.gradients(u, a, b)
            dt = min(stepper.stable_dt_from(g[1], g[2]), t_target - t)
            stepper.step_window(u, a, b, dt, g)
            t += dt
            if after_step is not None:
                after_step(a, b)
            if t >= t_stop:
                return


# ---------------------------------------------------------------------------
# run configuration


DOMAIN_MARGIN = 1.25


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
        """A config that no run can start from is rejected when it is built:
        a number that is not finite, and the checks of ProblemParams, Grid
        and model.sample_profile."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParams(f"{f.name} must be a finite number, got {f.name}={value}")
        params = self.params()
        for ok, rule in ((0.0 < self.safety <= 1.0, "0 < safety <= 1"),
                         (self.record_start > 0.0, "record_start > 0"),
                         (self.t_end > self.profile_obj().t0, "t_end > the profile's t0"),
                         (self.L is None or self.L > 0.0, "L > 0")):
            if not ok:
                raise InvalidParams(f"need {rule}")
        model.sample_profile(self.profile_obj(), self.grid(), params)

    def params(self):
        return ProblemParams(self.p, self.q, self.N, self.eps, self.gamma)

    def profile_obj(self):
        return model.parse_profile(self.profile)

    def domain_extent(self):
        """User-supplied L, or margin * (R0 + 2 * the Barenblatt support
        radius at t_end)."""
        if self.L is not None:
            return self.L
        r0 = self.profile_obj().support_radius(self.params())
        edge = model.barenblatt_support_radius(self.t_end, self.p, self.N)
        return DOMAIN_MARGIN * (r0 + 2.0 * edge)

    def grid(self):
        return Grid.from_extent(self.geometry, self.h, self.domain_extent(), self.N)


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
REQUIRED_KEYS = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def parse_config(text) -> RunConfig:
    """Parse a plain-text key=value run configuration; p and q are required."""
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
        missing = [key for key in REQUIRED_KEYS if key not in kwargs]
        if missing:
            raise ConfigError(f"missing required key(s) {', '.join(missing)}")
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

    series = observe.TimeSeries()
    ref_sup = float(state.values.max()) - params.floor
    series.append(observe.observe(state, ref_sup))
    if on_record is not None:
        on_record(state)

    stepper = _Stepper(params, grid, config.absorption, config.safety)
    for t in record_times(state.time, config.t_end, config.record_start):
        _advance(stepper, state.values, state.time, t)
        state.time = t
        state.absorbed_mass = stepper.absorbed
        state.boundary_out = stepper.boundary_out
        if not np.all(np.isfinite(state.values)):
            raise NumericalError(f"non-finite field at t={t:g}")
        row = observe.observe(state, ref_sup)
        if row["rho"] > 0.9 * grid.L:
            raise SupportOverflowError(
                f"support overflow: radius {row['rho']:.3g} exceeds 0.9 L = "
                f"{0.9 * grid.L:.3g} at t={t:g}; enlarge L"
            )
        series.append(row)
        if on_record is not None:
            on_record(state)
    return state, series


def comparison_run(profile_a, profile_b, config: RunConfig,
                   absorption_a=None, absorption_b=None):
    """Evolve two ordered initial profiles with an identical dt sequence and
    report the worst ordering violation max_t max_i (uA - uB)_+.

    Both fields advance as one buffer [uB reversed | uA] through one
    `_Stepper.mirrored` and `_advance`, so each step makes one gradients,
    CFL and step call for the pair, on a window that holds each field's own
    active window.  The gap is taken on the cells where either field may
    lie above the floor; elsewhere both sit exactly at it.  The final fields
    are copied back into the two initial states' arrays."""
    params = config.params()
    grid = config.grid()
    ua = initial_state(params, grid, profile_a).values
    ub = initial_state(params, grid, profile_b).values
    if np.any(ua > ub + 1e-15):
        raise InvalidParams("profile_a must lie below profile_b pointwise")
    aa = config.absorption if absorption_a is None else absorption_a
    ab = config.absorption if absorption_b is None else absorption_b
    n = grid.n
    buf = np.concatenate((ub[::-1], ua))
    buf_a, buf_b = buf[n:], buf[n - 1::-1]    # ua[i] and ub[i]
    stepper = _Stepper.mirrored(params, grid, aa, ab, config.safety)
    worst, win, views = 0.0, None, None

    def take_gap(a, b):
        nonlocal worst, win, views
        if win != (a, b):             # the views are formed once per window
            m = max(b - n, n - a)     # from cell m on both fields sit at the floor
            win, views = (a, b), (buf_a[:m], buf_b[:m], np.empty(m))
        gap = np.subtract(*views)
        worst = max(worst, gap.item(gap.argmax()))

    _advance(stepper, buf, 0.0, config.t_end, take_gap)
    ua[:], ub[:] = buf_a, buf_b
    return {
        "max_violation": max(worst, 0.0),
        "t_end": config.t_end,
        "absorption_a": aa,
        "absorption_b": ab,
    }
