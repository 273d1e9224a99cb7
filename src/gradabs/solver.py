"""Explicit conservative finite-difference evolution of the regularized
equation for radial data on a radial grid over [0, L].

A time step is the low-storage SSPRK(S, 2) method of Ketcheson (SIAM J. Sci.
Comput. 30, 2008), S = STAGES = 20: S forward Euler stages of step
tau = dt/(S-1) = dt/19 from u^n, then u <- u + (u^n - u)/S.  It is second
order in time and its SSP coefficient is S - 1 = 19 (Gottlieb, Shu and
Tadmor, SIAM Rev. 43, 2001): each stage is an Euler step at tau, so the step
keeps the floor and the ordering that an Euler step at tau keeps, and the
last line, a convex combination, leaves a cell with u = u^n, a floor cell in
particular, exactly where it is.  A step advances (S-1)/S = 0.95 of S Euler
steps at tau, and no monotone explicit method advances more than one Euler
step per stage (Kraaijevanger, BIT 31, 1991).
tau is at most the Euler CFL bound of u^n, which is taken once per step, at
its first stage, and not again at the later stages.  It need not be: on the
perfbench workloads, the 16 sweep-pq cells (up to their floor violation, if
any), pure diffusion at p in {2.5, 3, 4, 5} x N in {1, 2, 3} and the
acceptance runs cut to t = 16, no later stage's Euler step was measured
above SAFETY = 0.9 of its own monotone limit; the largest was 0.899999, on
bb_h0025, and 0.8998 at N = 2 and 3 (a test keeps the pure-diffusion
part).  The stages add their absorption, cell by cell, and their outflow to
array running sums by ufuncs, which `_Stepper.ledgers` alone weights by
(S-1)/S = 19/20.

The diffusion of an Euler stage is monotone under the CFL restriction; its
absorption, which sees the centered cell gradient (the mean of the cell's
two face gradients, at r = 0 the mirror-ghost difference), is not: where
q < p - 1, and on steep data at q >= p - 1 too, a floor cell next to the
support can undershoot the floor eps**gamma, which the stage checks for
instead of clamping and the CFL cap dt <= SAFETY * floor / b_max only limits.
The outer cell is pinned at the floor (the constant floor is an exact
solution); the origin is a zero-flux face at r = 0.  Every profile is a
function of the radius, so at N = 1 the grid holds one half of an even
solution on [-L, L].

The entry points are `run`, `run_batch` and `comparison_run`, driven by
`RunConfig`s, each of which rejects when it is built a config that no run
can start from.  `_differences` is the one place the face and centered
differences are formed (by `_Stepper.gradients` for a step's first stage
and by `_Stepper.step_window` for the others), `_Stepper.stable_dt_from`
the one CFL rule, `_Stepper.step_window` the one stage kernel, which runs
all S stages of a step in one call, `_Stepper.step` the one SSPRK step and
`_Stepper.ledgers` the one ledger reader.  `_advance` is the one time loop,
over one array, and calls only `active_window` and `step` of its stepper; it
takes one target per clock and steps until some clock reaches its own.
`_record` is the one record loop, of `run` and `run_batch`, whose first pass
takes the t0 row, so that one body checks every row.  `run` steps its
field; `run_batch` the fields of configs that share a grid and eps (a
sweep's (p, q) cells) as the columns of one C-contiguous (n, k) array, each
column a run of its own, with its own p, q, clock and recording times, so
that one stage advances them all, each by its own dt; and `comparison_run`
its two fields as the columns of one (n, 2) array on one clock, so that
both advance in lockstep with a shared dt.  No column of a batch takes
dt = 0: each clock is handed the time left to its own next record, and a
column leaves the array when its run ends.  No method of `_Stepper` raises:
a step runs out, checking no floor, a clock that undershot it, and returns
it in `failed`; `_record` makes the error the field's outcome, which `run`
raises and `run_batch` returns (a failed batch column leaves the array by
the end of its step), and `comparison_run` raises it.  A stage writes into
the stepper's own scratch arrays, model.a_eps and model.b_eps included,
through views that are formed once per array and window, and the step's
combination writes into u^n and u.  The face differences and the centered
sums of a window share one buffer, so that one multiply squares both.
Every ufunc of a step gets array operands.  A stepper holds its constants
in per-clock arrays, each clock's tau too, which step_window writes by item:
one clock hands a stage 0-d views of them (and 0-d model.Coefficients), a
batch (n, k) tables of its rows.  So a step makes no temporary array, on any
window (a batch's CFL rule alone makes its column maxima), and it takes its
output positionally, not as an out= keyword that it would parse on every call.
A stage works in a folded algebra that drops every constant factor from
its cell loops.  It keeps the face differences d = u_i - u_(i-1) = h g and
sc = (d_l + d_r)^2 = (2h)^2 gc^2, and its coefficients are regularized by
eps h and 2 eps h, so that model.a_eps(d^2) = h^(p-2) a_eps(g^2) and
model.b_eps(sc) = (2h)^q b_eps(gc^2), each still exactly 0 where d = 0 or
sc = 0.  The powers of h return as scalars: the flux difference is
multiplied by one window operand W = tau h^(1-p) / (r^(N-1) h), formed
once per step_window call, that is once per step, the
absorption, and with it the absorbed ledger, by tau (2h)^(-q), and the
outflow and the CFL rule's two maxima by the matching constants.
The extrema (a step's CFL maxima and comparison gap, a stage's floor-check
minimum) are read by index, x.item(x.argmax()), which costs less
than a reduction to a numpy scalar and returns the first NaN just as the
reduction propagates it.  The loop steps only the active window, taken
before every step: the cells above the floor (for k fields, the rows
where any field is) plus a padding the front cannot cross within the step.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import model, observe
from .exponents import InvalidParams, ProblemParams

FLOOR_SLACK = 1e-14

# share of the Euler monotone limit that a stage's tau takes
SAFETY = 0.9

# Euler stages per SSPRK(S, 2) step
STAGES = 20

# the update front moves at most one cell per stage, so an active window
# taken before every step with STAGES + 2 cells of padding is exact
WINDOW_PAD = STAGES + 2


# the most cells a grid may have; the battery's largest has 3400
MAX_CELLS = 10 ** 6


class NumericalError(RuntimeError):
    pass


class FloorViolationError(NumericalError):
    """Post-stage floor undershoot beyond roundoff: the centered absorption
    is not monotone, where q < p - 1 and on steep data at q >= p - 1 too,
    which the CFL cap only limits; a breached CFL bound gives it too."""


class SupportOverflowError(NumericalError):
    """The support radius exceeded 0.9 L; the domain is too small."""


def sphere_area(N):
    """Area of the unit sphere in R^N: 2, 2*pi, 4*pi, ..."""
    return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)


@dataclass(frozen=True)
class Grid:
    """Uniform radial cell grid over [0, L] in R^N, cell centers offset by
    h/2 from the origin."""

    h: float
    n: int
    N: int

    def __post_init__(self):
        """Rejects, before anything is allocated, a grid of too few or too
        many cells, and one whose r^(N-1) h, its reciprocal or omega_N
        r^(N-1) h is not a finite positive float at the first cell center or
        the outer face; r^(N-1) is monotone, so the other cells lie between."""
        if not self.h > 0.0:
            raise InvalidParams("h must be positive")
        if self.n < 16:
            raise InvalidParams("need at least 16 cells")
        if self.n > MAX_CELLS:
            raise InvalidParams(f"need at most {MAX_CELLS} cells, h={self.h} gives more")
        try:
            ends = [r ** (self.N - 1) * self.h for r in (0.5 * self.h, self.L)]
            ends += [1.0 / x for x in ends] + [sphere_area(self.N) * x for x in ends]
        except (OverflowError, ZeroDivisionError):
            ends = [0.0]
        if not all(0.0 < x < math.inf for x in ends):
            raise InvalidParams(f"the radial weights of R^{self.N} on [0, {self.L:g}] "
                                f"at h={self.h} overflow or underflow")

    @classmethod
    def from_extent(cls, h, L, N):
        # a non-positive h is left for __post_init__ to reject; a cell count
        # past MAX_CELLS is not rounded, since L/h may be infinite
        n = round(min(L / h, MAX_CELLS + 1)) if h > 0.0 else 0
        return cls(h, n, N)

    @property
    def L(self):
        return self.n * self.h

    def centers(self):
        return (np.arange(self.n) + 0.5) * self.h

    def cell_measures(self):
        """Quadrature weights omega_N r^{N-1} h."""
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
    """Sampled profile lifted by the floor, with the outer cell pinned."""
    vals = model.sample_profile(profile, grid, params) + params.floor
    vals[-1] = params.floor
    return State(profile.t0, vals, params, grid)


class _Stepper:
    """Precomputed geometry, per-step scratch, the ledgers' array running
    sums and the in-place update kernel for one field, a 1-D array, or k fields
    as the columns of one (n, k) array, each column stepped bit for bit as
    its field alone, with one absorption flag and one pair of ledgers per
    field.  Given one ProblemParams, the fields share it and one clock; given
    a list of k, one per column, each column has its own p, q and clock, and
    the exponents are a row model.Coefficient.  Either way the clock is the
    unit of time: p, q, the CFL constants, tau and its scales hold one entry
    per clock, which one clock hands a stage as 0-d views and a row stepper
    copies into (n, k) tables, and a failed clock runs its step out and is
    reported only in `failed`.  Views are formed once per array and window."""

    def __init__(self, params, grid, *absorption):
        self.rows = isinstance(params, list)
        columns = params if self.rows else [params]
        self.params, self.grid, self.flags = columns, grid, absorption
        self.absorption = any(absorption)
        self.eps = columns[0].eps
        h, n, k = grid.h, grid.n, len(absorption)
        # the folded algebra: a stage works on the face differences
        # d = h g and on sc = (d_l + d_r)^2 = (2h)^2 gc^2, so the
        # coefficients regularized by eps h and 2 eps h return h^(p-2) a and
        # (2h)^q b; the powers of h come back as the scalars below
        self.eps_a, self.eps_b = self.eps * h, 2.0 * self.eps * h
        # dt = cfl / D_max is monotone while the divisor bounds every cell's
        # sum of flux-carrying face weights r^(N-1) over its own: 2 at N = 1
        # and N = 2 (every cell's sum), the origin cell's 2^(N-1) (face 1's
        # h^(N-1) over (h/2)^(N-1)) from N = 3 on; a power of two, so exact
        weight = max(2.0, 2.0 ** (grid.N - 1))
        ps, qs, floors = ([getattr(P, x) for P in columns] for x in ("p", "q", "floor"))
        # the CFL rule's exponents and constants, one per clock
        self.p, self.q = ps, qs
        self.cfl = [SAFETY * h ** p / weight for p in ps]
        self.cap = [SAFETY * f * (2.0 * h) ** q for f, q in zip(floors, qs)]   # dt <= cap / b_max
        # per clock: h^(1-p), (2h)^(-q) and omega_N h^(1-p), for the outflow,
        # and tau (written by item in step_window) times each
        self.flux_scale = np.array([h ** (1.0 - p) for p in ps])
        self.abs_scale = np.array([(2.0 * h) ** -q for q in qs])
        self.omega_out = sphere_area(grid.N) * self.flux_scale
        self.tau, self.tau_flux, self.tau_abs, self.tau_out = (np.zeros(len(ps)) for _ in range(4))
        faces, cells = (n + 1, k), (n, k)
        if self.rows:
            # rows for the step: a ufunc reads contiguous (n, k) tables of
            # the rows tau h^(1-p), tau (2h)^(-q) and the floor limits, not
            # the rows themselves, which it would broadcast through a buffer;
            # the limit of a column that has failed is set to -inf
            self.floor = np.array(floors)
            self.floor_lim = np.repeat([[f - FLOOR_SLACK for f in floors]], n, axis=0)
            self.tau_tables, self.below = (np.zeros(cells), np.zeros(cells)), np.empty(cells, bool)
            self.a_consts = model.Coefficient(self.eps_a, [0.5 * (p - 2.0) for p in ps], n + 1)
            self.b_consts = model.Coefficient(self.eps_b, [0.5 * q for q in qs], n)
        else:
            self.floor = floors[0]
            self.a_consts = model.Coefficient(self.eps_a, 0.5 * (ps[0] - 2.0))
            self.b_consts = model.Coefficient(self.eps_b, 0.5 * qs[0])
            if k == 1:
                faces, cells = (n + 1,), (n,)
        # k > 1 fields, and every row stepper's, take C-contiguous (n(+1), k)
        # geometry and scratch, a ufunc's fast path; the sc columns of fields
        # without absorption are 0
        two_d = len(cells) == 2
        self.off_columns = ([j for j, on in enumerate(absorption) if not on]
                            if two_d and self.absorption else [])
        # face weights r^(N-1), cell factors 1/(r^(N-1) h) and cell measures;
        # face i lies between cells i-1 and i, and face 0 is the zero-flux
        # face at r = 0, whose difference is 0 (see _bind).  Face weights
        # that are all exactly 1 (N = 1) are not multiplied in.
        rw = (np.arange(n + 1) * h) ** (grid.N - 1.0)
        self.weighted = bool(np.any(rw != 1.0))
        self.rw, self.inv_rch = (np.repeat(x[:, None], k, axis=1) if two_d else x
                                 for x in (rw, 1.0 / (grid.centers() ** (grid.N - 1.0) * h)))
        self.cellw = grid.cell_measures()
        self.hi_max = n - 1                             # the last cell is pinned
        # a window of m cells keeps its m + 1 face differences on the first
        # rows of diffs and, with absorption, their m centered sums on the
        # next m, so that one multiply squares both into squares
        joint = (2 * n + 1,) + cells[1:] if self.absorption else faces
        self.diffs, self.squares, self.flux = np.zeros(joint), np.empty(joint), np.empty(faces)
        self.div, self.babs, self.out_stage = np.empty(cells), np.empty(cells), np.empty(k)
        # tau h^(1-p) / (r^(N-1) h), u^n of an SSPRK step and S as a 0-d operand
        self.w, self.u_n = np.empty(cells), np.empty(cells)
        self.stages = np.array(float(STAGES))
        self._u, self._a, self._b = None, -1, -1
        self.absorbed_cells, self.outflow = np.zeros(cells), np.zeros(k)
        self.failed = {}

    def _bind(self, u, a, b):
        """Form the views of u and of the scratch that a step of cells
        [a, b) uses, unless they are already formed for this very array and
        window.  The array is held by reference, not by id(), so a different
        array always gets views of its own."""
        if u is self._u and a == self._a and b == self._b:
            return
        lo, m = max(a, 1), b - a
        flux, d, s = self.flux[:m + 1], self.diffs[:m + 1], self.squares[:m + 1]
        if a == 0:
            # face 0's difference is never formed, and a window that started
            # past the origin may have written its row
            d[0] = 0.0
        joint, squares, sums, sc = d, s, None, None
        if self.absorption:
            joint, squares = self.diffs[:2 * m + 1], self.squares[:2 * m + 1]
            sums, sc = joint[m + 1:], squares[m + 1:]
        self._grad_views = (u[lo:b + 1], u[lo - 1:b], d[lo - a:], d[:-1], d[1:], sums,
                            joint, squares, [sc[:, j] for j in self.off_columns])
        self._grads = d, s, sc
        if self.rows:
            operands = (self.tau_tables[0][:m], self.tau_tables[1][:m], self.below[:m],
                        self.floor_lim[:m])
        else:
            operands = (self.tau_flux.reshape(()), self.tau_abs.reshape(()), None,
                        self.floor - FLOOR_SLACK)
        self._step_views = (flux, flux[1:], flux[:-1], flux[:1].reshape(-1), flux[m:].reshape(-1),
                            self.rw[a:b + 1] if self.weighted else None,
                            self.div[:m], self.inv_rch[a:b], self.w[:m], u[a:b],
                            self.babs[:m], self.absorbed_cells[a:b],
                            self.a_consts.window(m + 1), self.b_consts.window(m), *operands)
        self._u, self._a, self._b = u, a, b

    # -- gradients and CFL ---------------------------------------------------

    def gradients(self, u, a, b):
        """Gradients seen by a step of cells [a, b), in the folded algebra:
        the face differences d = h g on the b - a + 1 bounding faces, their
        squares s, and sc = (d_l + d_r)^2, the squared centered cell gradient
        times (2h)^2 (0 in the columns of the fields without absorption), or
        sc = None when no field has absorption.  At r = 0 the centered
        gradient is the mirror-ghost difference.

        The arrays are views on this stepper's scratch and are overwritten
        by its next call and by the later stages of step_window, which form
        them by the same `_differences`; k fields stepped together are the
        columns of one (n, k) array, so that one call forms the gradients of
        them all."""
        self._bind(u, a, b)
        _differences(*self._grad_views)
        return self._grads

    def stable_dt_from(self):
        """Each clock's Euler stage bound SAFETY * h^2 / (max(2, 2^(N-1))
        D_max) of the gradients of the last gradients call, capped so one
        absorption stage cannot undershoot the floor; effective_diffusivity
        and b_eps are increasing in s, so the face/cell maxima suffice.  On
        the folded s and sc they return h^(p-2) D and (2h)^q b, which cfl and
        cap absorb.  Returns a list: the bound of a run's or a pair's one
        clock from the maxima over all its columns, or of each column of a
        row stepper from its own maxima, p and q.  A NaN gradient gives
        dt = NaN, and a clock whose coefficients overflow a float is failed
        (in `failed`) and bound by 0."""
        _, s, sc = self._grads
        if self.rows:
            smax = s.max(axis=0).tolist()
            scmax = [None] * len(smax) if sc is None else sc.max(axis=0).tolist()
        else:
            smax, scmax = [s.item(s.argmax())], [None if sc is None else sc.item(sc.argmax())]
        bounds = []
        for j, (sm, scm, p, q, cfl, cap) in enumerate(zip(smax, scmax, self.p, self.q,
                                                          self.cfl, self.cap)):
            try:
                dmax = model.effective_diffusivity(sm, self.eps_a, p)
                bmax = 0.0 if scm is None else model.b_eps(scm, self.eps_b, q)
            except OverflowError as exc:
                self.failed[j] = NumericalError(f"CFL bound overflows a float: {exc}")
                bounds.append(0.0)
                continue
            dt = cfl / dmax
            bounds.append(min(dt, cap / bmax) if bmax > 0.0 else dt)
        return bounds

    # -- one step on a window, and the active window -------------------------

    def step_window(self, u, a, b, taus, stages):
        """Advance cells [a, b) by `stages` forward Euler stages, of taus[j]
        on clock j: the first reads the gradients of this stepper's last
        gradients(u, a, b) call, and each later one forms them again into the
        same arrays, by the `_differences` that gradients calls.  taus, one
        per clock, is bounded by the stable_dt_from of the first stage of the
        step.  Every stage checks the floor, and on a window that ends at the
        pinned cell adds each column's outflow, (f_a - f_b) tau omega_N
        h^(1-p) of its end-face fluxes, to its running sum by ufuncs, as it
        adds the absorption.

        Cells outside [a, b) must be at the floor beyond one padding cell so
        that the omitted fluxes vanish identically; so do the fluxes through
        face a and through a face b short of the pinned cell.  A clock that
        undershoots its floor is failed (in `failed`) at its first failing
        stage, and runs the step's other stages with its floor limit at -inf.
        """
        self._bind(u, a, b)
        d, s, sc = self._grads
        grad_views = self._grad_views
        (flux, flux_right, flux_left, flux_a, flux_b, rw, div, inv_rch, w, uw, babs, absorbed,
         a_consts, b_consts, tau_flux, tau_abs, below, floor_lim) = self._step_views
        # tau_flux and tau_abs: a batch's (m, k) tables, else 0-d views of the one clock's
        for j, x in enumerate(taus):
            self.tau[j] = x
        np.multiply(self.tau, self.flux_scale, self.tau_flux)
        np.multiply(self.tau, self.abs_scale, self.tau_abs)
        if below is not None:
            np.copyto(tau_flux, self.tau_flux)
            np.copyto(tau_abs, self.tau_abs)
        np.multiply(inv_rch, tau_flux, w)
        pinned, eps_a, p, eps_b, q = b == self.hi_max, self.eps_a, self.p, self.eps_b, self.q
        if pinned:                  # only a window that books outflow forms tau omega
            np.multiply(self.tau, self.omega_out, self.tau_out)

        for stage in range(stages):
            if stage:
                _differences(*grad_views)
            # radially weighted flux h^(p-1) r^(N-1) a_eps g on the faces; rw
            # is None at N = 1, where every weight is 1
            model.a_eps(s, eps_a, p, flux, a_consts)
            np.multiply(flux, d, flux)
            if rw is not None:
                np.multiply(flux, rw, flux)
            np.subtract(flux_right, flux_left, div)
            np.multiply(div, w, div)
            if pinned:
                np.subtract(flux_a, flux_b, self.out_stage)
                np.multiply(self.out_stage, self.tau_out, self.out_stage)
                np.add(self.outflow, self.out_stage, self.outflow)
            np.add(uw, div, uw)

            if sc is not None:
                model.b_eps(sc, eps_b, q, babs, b_consts)
                np.multiply(babs, tau_abs, babs)
                np.add(absorbed, babs, absorbed)
                np.subtract(uw, babs, uw)

            if below is not None:
                np.less(uw, floor_lim, below)
                if below.item(below.argmax()):      # any(), read by index
                    self._fail_below(uw, below)
            elif (umin := uw.item(uw.argmin())) < floor_lim:
                self._fail(0, umin)
                floor_lim = -math.inf

    def _fail_below(self, uw, below):
        """Fail each column of a row stepper that undershot its floor, with
        the error its field alone would record, from its own minimum, read by
        index as there (a NaN read first is no undershoot)."""
        for j in np.flatnonzero(below.any(axis=0)).tolist():
            column = uw[:, j]
            umin = column.item(column.argmin())
            if umin < self.floor_lim[0, j]:
                self._fail(j, umin)
                self.floor_lim[:, j] = -np.inf

    def _fail(self, j, umin):
        """Fail clock j, whose least value umin undershot its floor."""
        self.failed[j] = FloorViolationError(
            f"floor violated by {self.params[j].floor - umin:.3e} "
            f"at t-step dt={self.tau.item(j):.3e}")

    def step(self, u, a, b, dt_max):
        """One SSPRK(S, 2) step of cells [a, b).  dt_max lists the time left
        on each clock: one for all columns, or one per column of a row
        stepper.  A clock's dt is the lesser of its dt_max and S - 1 times
        the CFL bound of u^n; the step is S Euler stages of tau = dt/(S-1),
        one step_window call, then u += (u^n - u)/S.  Returns (each clock's
        dt, failed): failed maps each clock that the step failed (the one
        clock of a run or a pair, or a column of a row stepper) to the
        NumericalError that ends its field's run."""
        self.gradients(u, a, b)
        self.failed = {}
        bounds = self.stable_dt_from()
        if self.failed:
            # a clock's coefficients overflow: no clock takes this step
            return [0.0] * len(dt_max), self.failed
        dts = [min((STAGES - 1) * x, m) for x, m in zip(bounds, dt_max)]
        taus = [dt / (STAGES - 1) for dt in dts]
        uw, un = u[a:b], self.u_n[:b - a]
        np.copyto(un, uw)
        self.step_window(u, a, b, taus, STAGES)
        np.subtract(un, uw, un)
        np.divide(un, self.stages, un)
        np.add(uw, un, uw)
        return dts, self.failed

    def ledgers(self, column=0):
        """(absorbed, boundary outflow) of a column: both running sums times
        (S-1)/S, read here alone, the absorbed one from a contiguous copy of
        the column of the (n, k) running sums (a strided vdot may round
        differently); for one 1-D field that copies nothing."""
        weight = (STAGES - 1) / STAGES
        cells = np.ascontiguousarray(self.absorbed_cells.reshape(self.cellw.size, -1)[:, column])
        return weight * float(np.vdot(cells, self.cellw)), weight * self.outflow.item(column)

    def keep(self, columns):
        """A row stepper of the given columns alone, which carries on their
        entries of both running sums."""
        kept = _Stepper([self.params[j] for j in columns], self.grid,
                        *[self.flags[j] for j in columns])
        kept.absorbed_cells[:] = self.absorbed_cells[:, columns]
        kept.outflow[:] = self.outflow[columns]
        return kept

    def active_window(self, u):
        active = np.nonzero(u > self.floor)[0]
        if active.size == 0:
            return None
        a = max(int(active[0]) - WINDOW_PAD, 0)
        b = min(int(active[-1]) + 1 + WINDOW_PAD, self.hi_max)
        return a, b


def _differences(u_right, u_left, inner, d_left, d_right, sums, joint, squares, off):
    """Form a stage's gradients on the views of _Stepper._bind: the face
    differences d (inner: all but face 0 at r = 0), with absorption their
    centered sums d_l + d_r, which follow them in one buffer, and the
    squares s and sc of both by one multiply; sc is 0 in the columns of the
    fields without absorption."""
    np.subtract(u_right, u_left, inner)
    if sums is not None:
        np.add(d_left, d_right, sums)
    np.multiply(joint, joint, squares)
    for column in off:
        column.fill(0.0)


def _check_squares(u, absorption):
    """Reject a field, one column or k, whose squares a stage cannot form
    in a float: those of its face differences and, with absorption, of their
    centered sums (see _differences).  A NaN is left to the stepper."""
    d = np.diff(u, axis=0, prepend=u[:1])
    if absorption:
        d = np.concatenate((d, d[:-1] + d[1:]))
    largest = float(np.max(np.abs(d)))
    if math.isinf(largest * largest):
        raise InvalidParams(f"the squares of the initial field's differences overflow a "
                            f"float: the largest is {largest:.3g}")


def _advance(stepper, u, clocks, targets, after_step=None):
    """Step u in place by SSPRK(STAGES, 2) steps, each on the active window
    taken before it, while some clock is short of its target, and stop after
    the step at which a clock reaches its target, which that clock then
    reads exactly, or fails.  clocks holds the time of all columns of u (one
    entry) or of each column (a row stepper), and is advanced in place;
    targets holds one time per clock, and a step hands each clock the time
    it has left, which is never 0 from _record, since a field that reaches
    its record time takes its next one or leaves the array.  A NaN clock
    counts as arrived.  Calls after_step(a, b), if given, after every step
    of window [a, b).  Returns the failed clocks of a step that failed any,
    right after it, for the caller to drop, and {} otherwise; once u is at
    the floor, a steady state, every clock takes its target."""
    stops = [t - 1e-15 * max(1.0, t) for t in targets]
    failed, going = {}, any(t < stop for t, stop in zip(clocks, stops))
    while going and not failed:
        win = stepper.active_window(u)
        if win is None:
            clocks[:] = targets
            return {}
        dts, failed = stepper.step(u, *win, [target - t for target, t in zip(targets, clocks)])
        clocks[:] = [t + dt for t, dt in zip(clocks, dts)]
        if after_step is not None:
            after_step(*win)
        going = all(t < stop for t, stop in zip(clocks, stops))
    clocks[:] = [t if t < stop else target for t, stop, target in zip(clocks, stops, targets)]
    return failed


# ---------------------------------------------------------------------------
# run configuration


DOMAIN_MARGIN = 1.25


@dataclass(frozen=True)
class RunConfig:
    p: float
    q: float
    N: int = 1
    eps: float = 1e-3
    h: float = 0.005
    L: float | None = None
    t_end: float = 16.0
    profile: str = "bump:R0=1,H=1,m=2"
    absorption: bool = True
    record_start: float = 0.0625

    def __post_init__(self):
        """A config that no run can start from is rejected when it is built:
        a number that is not finite, recording times, a step scalar, the
        squares of the initial field's differences or its observables that a
        float cannot hold, and the checks of ProblemParams, Grid and
        model.sample_profile."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParams(f"{f.name} must be a finite number, got {f.name}={value}")
        params = self.params()
        for ok, rule in ((self.record_start > 0.0, "record_start > 0"),
                         (self.t_end > self.profile_obj().t0, "t_end > the profile's t0"),
                         (self.L is None or self.L > 0.0, "L > 0")):
            if not ok:
                raise InvalidParams(f"need {rule}")
        try:
            record_times(self.profile_obj().t0, self.t_end, self.record_start)
        except OverflowError:
            raise InvalidParams(f"the recording times from record_start={self.record_start} "
                                f"to t_end={self.t_end} overflow a float") from None
        grid = self.grid()
        # the powers of h that a stage takes as scalars (_Stepper), checked
        # as Grid checks its radial weights
        h, p, q = self.h, self.p, self.q
        try:
            scalars = (h ** p, h ** (1.0 - p), (2.0 * h) ** q, (2.0 * h) ** -q)
        except OverflowError:
            scalars = (0.0,)
        if not all(0.0 < x < math.inf for x in scalars):
            raise InvalidParams(f"h^p, h^(1-p), (2h)^q or (2h)^(-q) at h={h}, p={p}, "
                                f"q={q} overflows or underflows")
        state = initial_state(params, grid, self.profile_obj())
        _check_squares(state.values, self.absorption)
        # the t0 row, which _record takes first and a float must hold
        with np.errstate(all="ignore"):
            row = observe.observe(state, float(state.values.max()) - state.floor)
        overflowing = [f"{key}={x}" for key, x in row.items() if not math.isfinite(x)]
        if overflowing:
            raise InvalidParams(f"the initial field's observables overflow a float: "
                                f"{', '.join(overflowing)}")

    def params(self):
        return ProblemParams(self.p, self.q, self.N, self.eps)

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
        return Grid.from_extent(self.h, self.domain_extent(), self.N)


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
REQUIRED_KEYS = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def parse_config(text) -> RunConfig:
    """Parse a plain-text key=value run configuration; p and q are required.
    The grid is radial, and `geometry = radial` is accepted for configs that
    say so."""
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not val:
            raise InvalidParams(f"line {lineno}: expected key=value, got {line!r}")
        if key not in CONFIG_KEYS and key != "geometry":
            raise InvalidParams(f"line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise InvalidParams(f"line {lineno}: duplicate key {key!r}")
        if key == "geometry":
            if val != "radial":
                raise InvalidParams(f"line {lineno}: geometry must be radial, got {val!r}")
        elif key == "absorption":
            if val not in ("on", "off"):
                raise InvalidParams(f"line {lineno}: absorption must be on or off, "
                                    f"got {val!r}")
            val = val == "on"
        elif key == "profile":
            try:
                model.parse_profile(val)
            except InvalidParams as exc:
                raise InvalidParams(f"line {lineno}: {exc}") from None
        else:
            kind, noun = (int, "an integer") if key == "N" else (float, "a number")
            try:
                val = kind(val)
            except ValueError:
                raise InvalidParams(f"line {lineno}: {key} must be {noun}, "
                                    f"got {val!r}") from None
        kwargs[key] = val
    missing = [key for key in REQUIRED_KEYS if key not in kwargs]
    if missing:
        raise InvalidParams(f"missing required key(s) {', '.join(missing)}")
    kwargs.pop("geometry", None)
    return RunConfig(**kwargs)


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


def _record(configs, on_record=None, batch=False):
    """The one record loop: evolve configs that share a grid and eps, and
    record each one's observables at its own geometric times, from its own
    t0 to its own t_end.  Returns one outcome per config: (final state, time
    series), or the NumericalError or InvalidParams that ended its run.  One
    body takes every row, t0's too, at which _advance takes no step.

    The stepper gives the clocks: one config that is not a batch steps its
    state's own array on one clock, a batch the fields as the columns of one
    C-contiguous (n, k) array through a row stepper, each column on its own
    clock, and copies each column into its state to record it.  _advance
    brings each clock to its own next record time, and a field is recorded
    when its own clock arrives.  A column leaves the array by one path when
    its run ends, at its last record or at a clock that fails, in a step or
    at its record, whose error is its outcome; the others go on bit for bit
    as they would without it."""
    grid = configs[0].grid()
    params = [c.params() for c in configs]
    states = [initial_state(P, grid, c.profile_obj()) for P, c in zip(params, configs)]
    flags = [c.absorption for c in configs]
    if batch:
        stepper = _Stepper(params, grid, *flags)
        u = np.stack([state.values for state in states], axis=1)
    else:
        stepper, u = _Stepper(params[0], grid, *flags), states[0].values
    series = [observe.TimeSeries() for _ in states]
    ref_sups = [float(state.values.max()) - state.floor for state in states]
    outcomes, live = list(zip(states, series)), list(range(len(states)))
    schedules = [[s.time, *record_times(s.time, c.t_end, c.record_start)]
                 for s, c in zip(states, configs)]
    clocks = [state.time for state in states]

    def drop(ended):
        nonlocal u, stepper, clocks, live
        for j, outcome in ended.items():
            outcomes[live[j]] = outcome
        keep = [j for j in range(len(live)) if j not in ended]
        live = [live[j] for j in keep]
        if keep:
            u, stepper = np.ascontiguousarray(u[:, keep]), stepper.keep(keep)
            clocks = [clocks[j] for j in keep]

    while live:
        # a config's next record time is the one after its last row
        targets = [schedules[i][len(series[i])] for i in live]
        ended = dict(_advance(stepper, u, clocks, targets))    # not the stepper's own dict
        for j, i in enumerate(live):
            t, state = targets[j], states[i]
            if j in ended or clocks[j] != t:
                continue
            if batch:
                np.copyto(state.values, u[:, j])
            state.time = t
            state.absorbed_mass, state.boundary_out = stepper.ledgers(j)
            try:
                if not np.all(np.isfinite(state.values)):
                    raise NumericalError(f"non-finite field at t={t:g}")
                row = observe.observe(state, ref_sups[i])
                if row["rho"] > 0.9 * grid.L:
                    raise SupportOverflowError(
                        f"support overflow: radius {row['rho']:.3g} exceeds 0.9 L = "
                        f"{0.9 * grid.L:.3g} at t={t:g}; enlarge L"
                    )
                series[i].append(row)
            except (NumericalError, InvalidParams) as exc:
                ended[j] = exc
                continue
            if on_record is not None:
                on_record(state)
            if len(series[i]) == len(schedules[i]):
                ended[j] = outcomes[i]
        if ended:
            drop(ended)
    return outcomes


def run(config: RunConfig, on_record=None):
    """Evolve the configured problem, recording observables at geometric
    times.  Returns (final state, time series)."""
    (outcome,) = _record([config], on_record)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_batch(configs):
    """Evolve each config's problem as `run` would, and return one outcome
    per config, in order: (final state, time series), or the NumericalError
    or InvalidParams that ended its run.  Configs that share a grid and
    eps, such as the cells of a (p, q) sweep, advance together as the
    columns of one array, each a run of its own, with its own p, q, dt and
    recording times, from its own t0 to its own t_end, which leaves the
    array when it ends; a column's bits do not depend on which configs
    share its array."""
    groups = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.grid(), c.eps), []).append(i)
    outcomes = [None] * len(configs)
    for members in groups.values():
        for i, outcome in zip(members, _record([configs[i] for i in members], batch=True)):
            outcomes[i] = outcome
    return outcomes


def comparison_run(profile_a, profile_b, config: RunConfig,
                   absorption_a=None, absorption_b=None):
    """Evolve two ordered profiles from their shared t0 with an identical dt
    sequence and report the worst ordering violation max_t max_i (uA - uB)_+.

    Both fields advance as the two columns of one (n, 2) array through one
    `_Stepper` and `_advance`, so each stage forms the pair's differences
    once, and each step makes one CFL and one step_window call, on the union
    of the two fields' active windows.  The gap is taken once per step, below the
    window's end, past which both sit exactly at the floor.  The final
    fields are copied back into the two initial states' arrays, unless the
    pair raises: a failed clock's error, NumericalError for a non-finite
    field at t_end, as a record of run does, or InvalidParams for initial
    fields whose squares overflow, as RunConfig rejects its own."""
    t0 = profile_a.t0
    if profile_b.t0 != t0 or not config.t_end > t0:
        raise InvalidParams(f"need two profiles of one start time t0 < t_end, got "
                            f"t0={t0} and {profile_b.t0}, t_end={config.t_end}")
    params, grid = config.params(), config.grid()
    ua = initial_state(params, grid, profile_a).values
    ub = initial_state(params, grid, profile_b).values
    if np.any(ua > ub + 1e-15):
        raise InvalidParams("profile_a must lie below profile_b pointwise")
    u = np.stack((ua, ub), axis=1)
    flags = [config.absorption if on is None else on for on in (absorption_a, absorption_b)]
    _check_squares(u, any(flags))
    stepper = _Stepper(params, grid, *flags)
    worst = 0.0

    def take_gap(a, b):
        nonlocal worst
        gap = u[:b, 0] - u[:b, 1]
        worst = max(worst, gap.item(gap.argmax()))

    if failed := _advance(stepper, u, [t0], [config.t_end], take_gap):
        raise failed[0]
    if not np.all(np.isfinite(u)):
        # a NaN dt ends the advance at once, and max() drops a NaN gap
        raise NumericalError(f"non-finite field at t={config.t_end:g}")
    ua[:], ub[:] = u[:, 0], u[:, 1]
    return {"max_violation": max(worst, 0.0), "t_end": config.t_end}
