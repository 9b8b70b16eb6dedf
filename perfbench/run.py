"""Benchmark for spinkac. Run from the repository root:

    python3 perfbench/run.py --workload suite-quick [--seed N] [--seconds S] [--trace 0|1]

Workloads: suite-quick, flow-stream, shell-walks (see NOTES.md).

The package is imported from ``src/`` next to this directory. Set-up
(import, inputs, contexts, warm-up) is timed apart from the passes: the
import in fresh interpreters and the rest in this process, each
repeated and reported as its median.

With ``--trace 0``, at least two passes run, and more while the next
one still fits in ``--seconds``; the last stdout line reports the
end-to-end metrics. With ``--trace 1``, untraced passes run for half
the time (at least one), then one pass runs traced, and the last line
reports the per-layer metrics. Traced spans go to ``.perfbench/``.

Every time reported is rescaled by the speed sampler (speed.py) to a
machine of speed 1; the summary lines also print the unscaled wall
time. BLAS runs one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: the program then runs on the
# one CPU the speed sampler measures.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
# A quick-suite pass takes 8-15 s; two passes give each part a median.
MIN_PASSES = 2

# Run in a fresh interpreter: the rescaled seconds of the package import.
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import speed
with speed.Sampler() as sampler:
    t0 = time.perf_counter()
    import spinkac.verify
    t1 = time.perf_counter()
print(sampler.scaled(t0, t1))
"""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: verify.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_package():
    """Import the package from src/; return the median rescaled seconds
    a fresh interpreter takes for the same import (one sample is too
    noisy)."""
    if not (SRC / "spinkac" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC / 'spinkac'}")
    sys.path.insert(0, str(SRC))
    import spinkac.verify  # noqa: F401  (imports every measured module)

    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def _wall(passes, field="times"):
    """Sum over parts of each part's median time across passes, and
    the times by part."""
    parts = {}
    for rep in passes:
        for name, seconds in getattr(rep, field).items():
            parts.setdefault(name, []).append(seconds)
    return sum(statistics.median(v) for v in parts.values()), parts


def _checks(passes):
    """(attempted, names of failed checks, correct): a check fails if it
    fails in any pass; the output is incorrect if any fatal check failed."""
    status = {}
    fatal = False
    for rep in passes:
        for name, ok, is_fatal in rep.checks:
            status[name] = status.get(name, True) and ok
            fatal = fatal or (is_fatal and not ok)
    return len(status), [name for name, ok in status.items() if not ok], not fatal


def _rate(passes, parts, count, part):
    """Work counted by the passes per median second of `part`."""
    if part not in parts:
        return 0.0
    return passes[0].counts.get(count, 0) / statistics.median(parts[part])


def main(argv=None):
    args = _parse(argv)
    try:
        import_s = _import_package()
    except (FileNotFoundError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    from spinkac import verify
    import layers
    from speed import Sampler
    from tracer import Tracer
    from workloads import WORKLOADS, Rep, run_passes

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed

    with Sampler() as sampler:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = workload.setup(seed)
            setup_times.append(sampler.scaled(t0, time.perf_counter()))
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            passes = run_passes(workload, inp, args.seconds / 2, 1, sampler)
        else:
            passes = run_passes(workload, inp, args.seconds, MIN_PASSES, sampler)
    speed = sampler.speed()
    wall_s, parts = _wall(passes)
    wall_raw, raw_parts = _wall(passes, "raw")
    flow_rate = _rate(passes, parts, "flow_steps", "evolve.n8")
    kac_rate = _rate(passes, parts, "kac_events", "kac.simulate")

    traced = None
    if args.trace:
        watch = layers.Watch()
        tracer = Tracer("spinkac", layers.LAYERS, layers.PRIVATE, layers.HOT, watch.hooks())
        with Sampler() as traced_sampler, tracer:
            traced = Rep(traced_sampler)
            workload.rep(inp, traced)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"trace-{workload.name}-seed{seed}.json")

    every = passes + ([traced] if traced else [])
    attempted, failed_names, correct = _checks(every)
    failed = len(failed_names)
    for rep in every:
        for err in rep.errors:
            print(f"perfbench: {err}", file=sys.stderr)

    if args.trace:
        criteria = [fn.__name__ for fn in verify.ALL_CRITERIA]
        # spans hold wall time: rescale them by the traced pass's mean speed
        traced_speed = traced_sampler.speed() or speed
        metrics = {name: (value * traced_speed if unit == "s" else value, unit)
                   for name, (value, unit) in layers.layer_metrics(tracer, watch, criteria).items()}
        metrics["trace_overhead_frac"] = (sum(traced.times.values()) / wall_s - 1.0, "ratio")
        metrics["flow_steps_per_s"] = (flow_rate, "1/s")
        metrics["kac_events_per_s"] = (kac_rate, "1/s")
        metrics["fail_frac"] = (failed / attempted, "ratio")
        metrics["machine_speed"] = (speed, "ratio")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_mb, "MB")}

    print(f"workload {workload.name}  seed {seed}  untraced passes {len(passes)}"
          f"{'  traced passes 1' if args.trace else ''}")
    for name in sorted(parts):
        print(f"  part {name:<22} median {statistics.median(parts[name]):.4f} s"
              f" (unscaled {statistics.median(raw_parts[name]):.4f} s) over {len(parts[name])}")
    summary = dict(metrics)
    summary["unscaled_wall_s"] = (wall_raw, "s")
    summary["machine_speed"] = (speed, "ratio")
    if not args.trace:
        summary["fail_frac"] = (failed / attempted, "ratio")
        if flow_rate:
            summary["flow_steps_per_s"] = (flow_rate, "1/s")
        if kac_rate:
            summary["kac_events_per_s"] = (kac_rate, "1/s")
    for name, (value, unit) in summary.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  checks: {failed} of {attempted} failed{' (' + ', '.join(failed_names) + ')' if failed else ''};"
          f" output {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
