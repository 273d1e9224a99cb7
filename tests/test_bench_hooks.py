"""The benchmark calls the program by name: its per-layer tracer wraps
program functions, and its workloads call the program's API directly.  A
hook point that a refactor renames or drops is skipped by the tracer and its
metrics silently vanish; an API call that breaks fails only when the
benchmark runs.  These tests fail instead."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # the module's dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_point_resolves():
    spans = load("spans")
    absent = [name for name, target in spans.HOOKS.items()
              if spans._resolve(target) == (None, None)]
    assert absent == []
    assert spans.Tracer.for_bernstein().hooks


@pytest.mark.parametrize("name", ["decay-narrow", "barenblatt-wide", "sweep-pq", "lockstep"])
def test_every_benchmark_workload_sets_up(name):
    # parse_config, RunConfig.params/grid/profile_obj, initial_state and
    # model.Bump: what a workload calls before its first step
    workloads = load("workloads")
    assert set(workloads.WORKLOADS) == {"decay-narrow", "barenblatt-wide", "sweep-pq",
                                        "lockstep"}
    states = workloads.setup(name)
    assert len(states) == (2 if name == "lockstep" else 1)
    for state in states:
        assert state.values.shape == (state.grid.n,)
        assert state.values.min() == state.floor < state.values.max()


@pytest.mark.parametrize("entry", ["run", "comparison_run", "run_batch"])
def test_solver_entry_points_reach_every_solver_and_model_hook(entry):
    # a hook point the program stops calling reads 0 calls, and every
    # per-layer metric built on it would silently read 0 too; the traced
    # sweep runs its cells as one batch of mixed (p, q) columns
    import dataclasses

    from gradabs import model, solver

    spans = load("spans")
    cfg = solver.RunConfig(3.0, 1.6, 1, h=0.02, L=3.0, t_end=0.1)
    with spans.Tracer() as tracer:
        if entry == "run":
            solver.run(cfg)
        elif entry == "comparison_run":
            solver.comparison_run(model.Bump(H=1.0), model.Bump(H=1.5), cfg)
        else:
            outcomes = solver.run_batch([dataclasses.replace(cfg, p=p, q=q)
                                         for p, q in ((3.0, 1.6), (3.5, 2.0), (4.0, 3.0))])
            assert not any(isinstance(outcome, Exception) for outcome in outcomes)
    assert tracer.absent == []
    layers = [n for n in spans.HOOKS if n.startswith(("solver.", "model."))]
    assert layers and all(tracer.spans[n].calls > 0 for n in layers)


@pytest.mark.parametrize("name", ["decay-narrow", "barenblatt-wide", "lockstep", "sweep-pq"])
def test_benchmark_workload_operation_passes_its_checks(tmp_path, name):
    # one operation of the workload, with the checks the benchmark applies to
    # its output: a break in run, comparison_run, run_batch or the CLI run
    # and sweep paths fails here, not only when the benchmark runs
    workloads = load("workloads")
    workload = workloads.WORKLOADS[name](tmp_path, 0)
    if name == "sweep-pq":
        # one worker steps all 16 cells as one batch; 9 of them undershoot
        # their floor (the centered absorption, ROADMAP item 1)
        _, res = workload.run_op(workers=1)
        assert res.attempted == 16 and res.bad_output == []
        assert res.failed == 9 and res.errors == ["FloorViolationError"] * 9
        return
    _, res = workload.run_op()
    assert res.attempted == 1
    assert res.failed == 0 and res.bad_output == [] and res.errors == []
