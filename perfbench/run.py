"""gradabs benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's operation is repeated untraced for about S
seconds and the end-to-end metrics are reported; with --trace 1 untraced
and traced repetitions alternate and the per-layer metrics are reported.
Every operation's output is checked.  The last line of standard output is
the result object; the line before it holds the run's details (host,
per-repetition times, failures by exception type, output fingerprints).
Run from the repository root; see perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7          # fresh interpreters per run; setup_s is their median
MIN_REPS = 3              # untraced repetitions even if S is too short
TRACE_WORKERS = 1         # the traced sweep stays in one process
REF_CELLS = 600           # the reference kernel: an explicit-step-shaped
REF_CALLS = 3000          # update on 600 cells, about 0.05 s per measurement

# metric names and units come from the benchmark definition at the root
SPEC = ROOT / "BENCHMARK.json"


def import_program():
    """Import gradabs from this checkout's src/, never from elsewhere."""
    if not (SRC / "gradabs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gradabs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradabs
    if Path(gradabs.__file__).resolve().parent != SRC / "gradabs":
        sys.exit(f"perfbench: imported gradabs from {gradabs.__file__}, not {SRC}")


def guarded(op, **kwargs):
    """Run one operation; an exception the workload did not expect counts
    as a failed operation and its traceback goes to stderr."""
    from workloads import OpResult
    start = time.perf_counter()
    try:
        return op(**kwargs)
    except Exception as exc:
        traceback.print_exc()
        return time.perf_counter() - start, OpResult(1, 1, errors=[type(exc).__name__])


def reference_seconds():
    """Seconds for a fixed numpy kernel shaped like one explicit step.  It
    runs no program code, so its time moves only with the host's speed."""
    u = np.linspace(1.0, 0.0, REF_CELLS) ** 2
    start = time.perf_counter()
    for _ in range(REF_CALLS):
        g = np.diff(u) * 100.0
        f = (1e-6 + g * g) ** 0.5 * g
        float((u[1:-1] + 1e-6 * (f[1:] - f[:-1])).min())
    return time.perf_counter() - start


def repeat(op, seconds):
    """Repeat op, each time right after timing the reference kernel, until
    another repetition would overrun `seconds`."""
    start = time.perf_counter()
    refs, walls, results = [], [], []
    while True:
        refs.append(reference_seconds())
        wall, res = guarded(op)
        walls.append(wall)
        results.append(res)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            return refs, walls, results


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(name, n):
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), name],
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return out


def tally(results):
    errors = Counter(e for r in results for e in r.errors)
    bad = sorted({b for r in results for b in r.bad_output})
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return attempted, failed, errors, bad


def measure_untraced(wl, seconds):
    refs, walls, results = repeat(wl.run_op, seconds)
    rss = peak_rss_mb()          # before the probes below add children
    bb = wl.bb_sup_err(results)
    setup = setup_seconds(wl.name, SETUP_PROBES)
    attempted, failed, errors, bad = tally(results)
    metrics = {
        "setup_s": statistics.median(setup),
        # host speed drifts by up to 1.6x over minutes; the reference
        # kernel timed beside each repetition drifts with it (NOTES.md)
        "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "ok_frac": (attempted - failed) / attempted,
        "bb_sup_err": bb,
        "peak_rss_mb": rss,
    }
    details = {"walls_s": walls, "refs_s": refs,
               "wall_s_median": statistics.median(walls), "wall_s_min": min(walls),
               "setup_s_samples": setup,
               "fingerprints": [r.info for r in results]}
    return metrics, results, details


def pool_metrics(wall, res):
    """cli.* figures of one untraced sweep through the process pool."""
    cells = [c["wall_s"] for c in res.info.get("cells", {}).values() if c["status"] == "ok"]
    workers = res.info.get("workers", 1)
    return {"cli.cells_ok": len(cells),
            "cli.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "cli.pool_eff": sum(cells) / (workers * wall) if cells else 0.0}


def once_per_run():
    """Layers too cheap for a workload of their own, timed once: exponent
    arithmetic, the bernstein scans of `gradabs bernstein-check`, and the
    two simulation-free acceptance criteria."""
    from workloads import OpResult
    from gradabs import acceptance, cli, exponents

    res = OpResult()
    params = exponents.ProblemParams(3.0, 1.6, 1)
    n = 1000
    start = time.perf_counter_ns()
    for _ in range(n):
        exponents.compute_exponents(params)
    m = {"exponents.compute_us": (time.perf_counter_ns() - start) / n / 1e3}

    buf = io.StringIO()
    with spans.Tracer.for_bernstein() as tr, contextlib.redirect_stdout(buf):
        cli.main(["bernstein-check"])
    if tr.spans and not tr.absent:
        m["bernstein.scan_ms"] = tr.own_s(tr.spans) * 1e3
    scans = [json.loads(line) for line in buf.getvalue().splitlines()]
    res.attempted += 1
    res.failed += int(not res.check(bool(scans) and all(s["pass"] for s in scans),
                                    "bernstein-check scan failed"))

    lab = acceptance.AcceptanceLab()
    crits = [lab.run_criterion(c) for c in ("exponents", "bernstein")]
    m["acceptance.criterion_s"] = sum(c.seconds for c in crits)
    res.attempted += len(crits)
    res.failed += sum(not res.check(c.passed, f"criterion {c.name}") for c in crits)
    return m, res


def measure_traced(wl, seconds, seed):
    """Alternate untraced and traced repetitions (the seed picks which goes
    first in each pair) and derive the per-layer metrics from the traced
    ones.  The sweep runs with TRACE_WORKERS so its spans stay in this
    process; one extra untraced sweep through the pool gives cli.pool_eff."""
    rng = random.Random(seed)
    results, extra = [], {}
    kwargs = {}
    if wl.pooled:
        wall, res = guarded(wl.run_op)
        results.append(res)
        extra.update(pool_metrics(wall, res))
        kwargs = {"workers": TRACE_WORKERS}
    else:
        extra.update({"cli.cells_ok": 0, "cli.cell_s_p50": 0.0, "cli.pool_eff": 0.0})

    tracer = spans.Tracer()
    plain, traced, per_rep = [], [], []
    start = time.perf_counter()
    while True:
        order = [False, True]
        rng.shuffle(order)
        for traced_turn in order:
            if traced_turn:
                with tracer:
                    wall, res = guarded(wl.run_op, **kwargs)
                cells = res.attempted if wl.via_cli else 0
                per_rep.append(spans.layer_metrics(tracer, wall, cells))
                traced.append(wall)
            else:
                wall, res = guarded(wl.run_op, **kwargs)
                plain.append(wall)
            results.append(res)
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break

    once, res = once_per_run()
    results.append(res)
    metrics = {}
    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        if key in spans.COUNTS and len(set(values)) > 1:
            res.check(False, f"{key} differs between traced repetitions: {values}")
        metrics[key] = values[0] if key in spans.COUNTS else statistics.median(values)
    metrics.update(extra)
    metrics.update(once)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    details = {"walls_s": plain, "traced_walls_s": traced, "absent": tracer.absent,
               "traced_workers": kwargs.get("workers"),
               "fingerprints": [r.info for r in results]}
    return metrics, results, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        wl = workloads.WORKLOADS[args.workload](Path(tmp), args.seed)
        if args.trace:
            metrics, results, details = measure_traced(wl, seconds, args.seed)
        else:
            metrics, results, details = measure_untraced(wl, seconds)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    attempted, failed, errors, bad = tally(results)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / attempted, "errors": dict(errors), "bad_output": bad,
        "absent_metrics": [m["name"] for m in wanted if m["name"] not in metrics],
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))


if __name__ == "__main__":
    main()
