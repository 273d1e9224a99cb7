"""Per-layer tracing from outside the program.

The tracer replaces the module and class attributes that each layer calls
through at run time with timing wrappers, and restores them afterwards.
Spans are aggregated per name in memory (calls, inclusive time, self time,
work units); only the step kernel keeps every call's duration, for its
percentiles.  A span's self time is its duration minus the time covered by
the traced calls it made.  A hook point that no longer exists is skipped
and listed in `absent`; the metrics that need it are left out, not faked.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# span name -> "module:attribute path" of the hook point
HOOKS = {
    "solver.step_window": "gradabs.solver:_Stepper.step_window",
    "solver.active_window": "gradabs.solver:_Stepper.active_window",
    "solver.stable_dt_from": "gradabs.solver:_Stepper.stable_dt_from",
    "model.a_eps": "gradabs.model:a_eps",
    "model.b_eps": "gradabs.model:b_eps",
    "model.effective_diffusivity": "gradabs.model:effective_diffusivity",
    "observe.observe": "gradabs.observe:observe",
    "observe.to_csv": "gradabs.observe:TimeSeries.to_csv",
    "fit.verdict": "gradabs.fit:verdict",
    "cli.write_text": "pathlib:Path.write_text",
}
BERNSTEIN_MODULE = "gradabs.bernstein"
BERNSTEIN_PREFIX = "check_"

SOLVER = ("solver.step_window", "solver.active_window", "solver.stable_dt_from")
MODEL = ("model.a_eps", "model.b_eps", "model.effective_diffusivity")


class Span:
    __slots__ = ("calls", "total", "own", "work")

    def __init__(self):
        self.calls = self.total = self.own = self.work = 0


def _step_cells(args):
    # step_window(self, u, a, b, ...) advances cells [a, b)
    return args[3] - args[2]


def _resolve(target):
    module, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = dict(hooks)
        self.spans = {}
        self.step_ns = []
        self.absent = []
        self._stack = []
        self._undo = []

    @classmethod
    def for_bernstein(cls):
        """Tracer over every bernstein.check_* scan."""
        try:
            mod = importlib.import_module(BERNSTEIN_MODULE)
        except ImportError:
            return cls({})
        return cls({f"bernstein.{n}": f"{BERNSTEIN_MODULE}:{n}"
                    for n in dir(mod) if n.startswith(BERNSTEIN_PREFIX)})

    def reset(self):
        self.spans = {name: Span() for name in self.hooks}
        self.step_ns = []

    def install(self):
        self.reset()
        self.absent = []
        for name, target in self.hooks.items():
            owner, attr = _resolve(target)
            if owner is None:
                self.absent.append(name)
                continue
            self._undo.append((owner, attr, vars(owner).get(attr)))
            is_step = name == "solver.step_window"
            setattr(owner, attr, self._wrap(
                getattr(owner, attr), self.spans[name],
                _step_cells if is_step else None,
                self.step_ns if is_step else None))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:      # the attribute was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, span, work, keep):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = stack.pop()
                span.calls += 1
                span.total += dur
                span.own += dur - inner
                if stack:
                    stack[-1] += dur
                if work is not None:
                    span.work += work(args)
                if keep is not None:
                    keep.append(dur)

        return traced

    def present(self, *names):
        return all(n in self.spans and n not in self.absent for n in names)

    def own_s(self, names):
        return sum(self.spans[n].own for n in names if n not in self.absent) / 1e9


def _per_call(span, scale):
    return span.total / span.calls / scale if span.calls else 0.0


def _own_per_call(span, scale):
    return span.own / span.calls / scale if span.calls else 0.0


# exact counts: they must repeat bit for bit between traced repetitions
COUNTS = ("solver.steps", "solver.cell_steps", "observe.records", "fit.calls")


def layer_metrics(tr: Tracer, wall, cli_cells):
    """Per-layer figures of one traced repetition that took `wall` seconds
    and ran `cli_cells` CLI cells (0 when it bypasses the CLI)."""
    s, m = tr.spans, {}
    if tr.present("solver.step_window"):
        st = s["solver.step_window"]
        m["solver.steps"] = st.calls
        m["solver.cell_steps"] = st.work
        m["solver.window_mean"] = st.work / st.calls if st.calls else 0.0
        p50, p99 = np.percentile(tr.step_ns, (50, 99)) / 1e3 if st.calls else (0.0, 0.0)
        m["solver.step_us_p50"], m["solver.step_us_p99"] = float(p50), float(p99)
        m["solver.cell_steps_per_s"] = st.work / (st.total / 1e9) if st.total else 0.0
    if tr.present("solver.stable_dt_from"):
        m["solver.cfl_us"] = _own_per_call(s["solver.stable_dt_from"], 1e3)
    if tr.present("solver.active_window"):
        m["solver.window_refresh_us"] = _own_per_call(s["solver.active_window"], 1e3)
        m["solver.window_share"] = s["solver.active_window"].total / 1e9 / wall
    for name, key in (("model.a_eps", "model.a_eps_us"), ("model.b_eps", "model.b_eps_us"),
                      ("model.effective_diffusivity", "model.diffusivity_us")):
        if tr.present(name):
            m[key] = _own_per_call(s[name], 1e3)
    if tr.present(*SOLVER, *MODEL):
        model_s = tr.own_s(MODEL)
        stepping = model_s + tr.own_s(SOLVER)
        m["model.share"] = model_s / stepping if stepping else 0.0
    if tr.present("observe.observe"):
        m["observe.records"] = s["observe.observe"].calls
        m["observe.us_per_record"] = _per_call(s["observe.observe"], 1e3)
    if tr.present("fit.verdict"):
        m["fit.calls"] = s["fit.verdict"].calls
        m["fit.verdict_ms"] = _per_call(s["fit.verdict"], 1e6)
    if tr.present("observe.to_csv", "cli.write_text"):
        io_ms = (s["observe.to_csv"].own + s["cli.write_text"].own) / 1e6
        m["cli.io_ms_per_cell"] = io_ms / cli_cells if cli_cells else 0.0
    if tr.present(*SOLVER, *MODEL, "observe.observe"):
        covered = tr.own_s(SOLVER + MODEL + ("observe.observe",))
        m["trace.coverage"] = covered / wall
    return m
