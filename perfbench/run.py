"""Benchmark of the zenograv toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload pattern --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client runs tasks back to back in this process (a closed loop),
with ``ZENOGRAV_THREADS`` unset, so the program uses one worker and no
process pool.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced input cycles and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from spans import TASK, TRACED, Tracer, summarize
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
RUN_CAP_S = 150.0      # stop starting tasks after this, so a run ends in time
# The yardsticks' times on this 2-CPU VM at its usual speed.  End-to-end
# times are reported in seconds at that speed (see Yardstick and
# _measure_setup).
YARDSTICK_S = 0.020
SETUP_YARDSTICK = ("import numpy, scipy.integrate, scipy.linalg, "
                   "scipy.special; print('ready', flush=True)")
SETUP_YARDSTICK_S = 0.7

FAIL_TYPES = ("UnterminatedTrajectoryError", "IntegratorFailureError",
              "ProjectionSingularError")


def _import_program():
    """Import zenograv from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "zenograv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'zenograv'}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(src))
    import zenograv
    if Path(zenograv.__file__).resolve().parent != (src / "zenograv").resolve():
        sys.exit(f"perfbench: zenograv imported from {zenograv.__file__}, "
                 f"not from {src}")


def _commit():
    # Only ask git about this checkout, not a repository above it.
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            proc = None
        if proc is not None and proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def _environment(seed, threads_was):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "seed": seed,
        "ZENOGRAV_THREADS": "unset" if threads_was is None
        else f"unset (was {threads_was!r})",
        "load": "closed loop, 1 client, 1 worker, no process pool",
    }


def _kepler_rhs(t, y):
    r3 = (y[0] * y[0] + y[1] * y[1]) ** 1.5
    return np.array([y[2], y[3], -y[0] / r3, -y[1] / r3])


class Yardstick:
    """A fixed piece of work, run between tasks, whose time tracks the
    host's speed.

    The host's speed drifts by tens of percent, over seconds and over
    minutes (README.md, Host speed), and a slower host slows the yardstick
    about as much as the program.  The yardstick runs once per ``EVERY_S``
    of other work, in the gaps between task steps and set-up probes, and
    ``factor`` turns a run's measured times into seconds at the host's
    usual speed.

    The work is of the program's kind, a Python loop and a scipy RK45
    Kepler orbit with a scalar right-hand side, on fixed inputs; it calls
    no program code, so a change to the program leaves its time alone.
    """

    EVERY_S = 0.125

    def __init__(self):
        self.samples = []
        self._sample()          # the first call is slower: it warms scipy
        self.samples.clear()
        self._sample()
        self._owed = 0.0
        self._mark = time.perf_counter()

    def _sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        solve_ivp(_kepler_rhs, (0.0, 10.0), [1.0, 0.0, 0.0, 1.1],
                  rtol=1e-9, atol=1e-12)
        self.samples.append(time.perf_counter() - t0)

    def catch_up(self):
        """Run the samples due for the work done since the last call."""
        self._owed += time.perf_counter() - self._mark
        while self._owed >= self.EVERY_S:
            self._owed -= self.EVERY_S
            self._sample()
        self._mark = time.perf_counter()

    def factor(self):
        """Measured seconds times this are seconds at the usual speed."""
        return YARDSTICK_S / statistics.median(self.samples)


def _setup_probe(args):
    """Child side of a set-up measurement: build inputs, warm up, say ready."""
    OUT.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(dir=OUT)
    try:
        WORKLOADS[args.workload](args.seed, args.tiny).warmup(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("ready", flush=True)


def _time_to_ready(cmd):
    """Seconds from spawning ``cmd`` to its line "ready"; it must exit 0."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: {' '.join(cmd[1:3])} failed "
                 f"(exit {proc.returncode})")
    return t1 - t0


def _measure_setup(args, repeats, yard):
    """Set-up times and set-up yardstick times, alternating.

    A set-up is the time from spawning a fresh interpreter to its first
    timed task.  Its yardstick is the time a fresh interpreter takes to
    import numpy and scipy, which tracks the host's speed at start-up
    work better than the compute yardstick does.
    """
    probe = [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-probe"]
    if args.tiny:
        probe.append("--tiny")
    ref = [sys.executable, "-c", SETUP_YARDSTICK]
    times, refs = [], []
    for _ in range(repeats):
        yard.catch_up()
        refs.append(_time_to_ready(ref))
        times.append(_time_to_ready(probe))
    yard.catch_up()
    return times, refs


class TaskRecord:
    def __init__(self, wall, outcome):
        self.wall = wall
        self.outcome = outcome


def _run_task(wl, k, yard, tracer):
    """Run task k step by step; its wall time is the sum of its steps',
    and the yardstick (if any) runs in the gaps between them."""
    out = tempfile.mkdtemp(dir=OUT)
    try:
        if tracer is not None:
            tracer.task = k
        result, wall, error = [], 0.0, None
        with tracer.span(TASK) if tracer is not None else nullcontext():
            for step in wl.steps(k, out):
                if yard is not None:
                    yard.catch_up()
                t0 = time.perf_counter()
                try:
                    result.append(step())
                except Exception as exc:    # a raising task is a failed task
                    error = f"task {k} raised {type(exc).__name__}: {exc}"
                    break
                finally:
                    wall += time.perf_counter() - t0
        if error is None:
            try:
                outcome = wl.check(k, wl.read_outputs(result, out))
            except (OSError, ValueError, KeyError) as exc:
                error = f"task {k} outputs unreadable: {exc}"
        if error is not None:
            outcome = Outcome(wl.items_per_task, wl.items_per_task, error)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return TaskRecord(wall, outcome)


def _run_cycle(wl, k0, yard, tracer=None):
    """One pass over the workload's input cycle, tasks back to back."""
    return [_run_task(wl, k0 + i, yard, tracer) for i in range(wl.cycle)]


def _busy(records):
    return sum(r.wall for r in records)


def _percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _tail(walls):
    """(value, percentile) with at least ten tasks beyond it, or None."""
    n = len(walls)
    if n < 11:
        return None
    ordered = sorted(walls)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _end_to_end(wl, records, setup, yard):
    setup_times, setup_refs = setup
    factor = yard.factor()
    setup_factor = SETUP_YARDSTICK_S / statistics.median(setup_refs)
    walls = [r.wall * factor for r in records]
    items = sum(r.outcome.items for r in records)
    failed = sum(r.outcome.failed for r in records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times) * setup_factor, "s"),
        "task_s": (statistics.median(walls), "s"),
        "items_per_s": ((items - failed) / sum(walls), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_times)} fresh-interpreter "
                        "set-ups",
             "task_s": f"median of {len(walls)} tasks, {wl.items_per_task} "
                       f"{wl.item_unit} per task",
             "items_per_s": f"{wl.item_unit} per second of task time",
             "peak_rss_mb": "of this process"}
    lines = [f"{name} = {value:.6g} {unit}  ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    lines.append(
        f"host: the times above are at the usual host speed. Task times are "
        f"measured times times {factor:.4g}: the yardstick took "
        f"{statistics.median(yard.samples):.4g} s (median of "
        f"{len(yard.samples)}), {YARDSTICK_S} s usual. Set-up times are "
        f"measured times times {setup_factor:.4g}: the set-up yardstick "
        f"took {statistics.median(setup_refs):.4g} s (median of "
        f"{len(setup_refs)}), {SETUP_YARDSTICK_S} s usual. Measured, "
        f"setup_s was {statistics.median(setup_times):.6g} s and task_s "
        f"{statistics.median(r.wall for r in records):.6g} s")
    tail = _tail(walls)
    if tail is None:
        lines.append(f"task_tail_s omitted: {len(walls)} tasks, fewer than "
                     "11 leave no percentile with ten tasks beyond it")
    else:
        lines.append(f"task_tail_s = {tail[0]:.6g} s  (p{tail[1]:.1f} of "
                     f"{len(walls)} tasks)")
    lines.append(f"fail_frac = {failed / items:.6g}  ({failed} of {items} "
                 f"{wl.item_unit})")
    return metrics, lines


def _per_layer(wl, untraced, traced, spans):
    n = len(traced)
    stats = summarize(spans, n)
    metrics = {}
    for mod, attr in TRACED:
        entry = stats.get(f"{mod}.{attr}", {"calls": 0, "self_s": 0.0})
        metrics[f"{mod}.{attr}.calls"] = (entry["calls"], "calls/task")
        metrics[f"{mod}.{attr}.self_s"] = (entry["self_s"], "s/task")

    def p_ms(name, q):
        durations = stats.get(name, {}).get("durations")
        return (1e3 * _percentile(durations, q) if durations else 0.0), "ms"
    metrics["scatter.integrate_trajectory.p50_ms"] = \
        p_ms("scatter.integrate_trajectory", 50)
    metrics["scatter.integrate_trajectory.p99_ms"] = \
        p_ms("scatter.integrate_trajectory", 99)
    metrics["feasibility.evaluate_point.p50_ms"] = \
        p_ms("feasibility.evaluate_point", 50)

    trajs = [s for s in spans if s.name == "scatter.integrate_trajectory"]
    returned = [s.seen for s in trajs if s.seen is not None]
    metrics["scatter.steps_per_traj"] = (
        sum(steps for steps, _ in returned) / len(returned) if returned
        else 0.0, "steps")
    metrics["scatter.clean_frac"] = (
        sum(1 for _, hit in returned if not hit) / len(trajs) if trajs
        else 0.0, "frac")
    metrics["scatter.energy_drift_max"] = (getattr(wl, "drift_max", 0.0),
                                           "rel")
    for err in FAIL_TYPES:
        metrics[f"scatter.fail_count.{err}"] = (sum(
            stats.get(name, {}).get("errors", {}).get(err, 0)
            for name in ("scatter.integrate_trajectory",
                         "scatter.stereographic_project")) / n, "count/task")

    traced_task = statistics.fmean(s.end - s.start for s in spans
                                   if s.name == TASK)
    uncovered = stats[TASK]["self_s"]
    metrics["trace.task_s"] = (traced_task, "s")
    metrics["trace.uncovered_s"] = (uncovered, "s/task")
    metrics["trace.overhead_frac"] = (
        traced_task / statistics.fmean(r.wall for r in untraced) - 1.0, "frac")

    self_sum = sum(e["self_s"] for name, e in stats.items() if name != TASK)
    lines = [f"trace: {n} traced tasks, cycles alternating with "
             f"{len(untraced)} untraced; "
             f"sum of self_s {self_sum:.6g} s + uncovered {uncovered:.6g} s "
             f"= {self_sum + uncovered:.6g} s; traced "
             f"task_s (mean) {traced_task:.6g} s"]
    lines += _baseline_lines(wl.name, metrics)
    return metrics, lines


# ROADMAP re-anchor baseline (2-CPU VM, Python 3.11, numpy 2.4,
# scipy 1.17): one figure-preset trajectory about 24 ms and 190 accepted
# steps; solve_eigen at n=4000 about 6 ms; find_wells about 14 ms.
def _baseline_lines(workload, metrics):
    m = {name: value for name, (value, _) in metrics.items()}

    def per_call_ms(name):
        calls = m[f"{name}.calls"]
        return 1e3 * m[f"{name}.self_s"] / calls if calls else float("nan")
    if workload == "pattern":
        return [f"baseline: figure-preset trajectory p50 "
                f"{m['scatter.integrate_trajectory.p50_ms']:.3g} ms "
                f"(ROADMAP ~24 ms), {m['scatter.steps_per_traj']:.4g} accepted "
                f"steps (ROADMAP ~190)"]
    if workload == "spectra":
        return [f"baseline: solve_eigen {per_call_ms('schrod1d.solve_eigen'):.3g}"
                f" ms per call at n=3000..6000 (ROADMAP ~6 ms at n=4000), "
                f"find_wells {per_call_ms('schrod1d.find_wells'):.3g} ms "
                f"(ROADMAP ~14 ms)"]
    return []


def _write_spans(args, env, spans):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"env": env, "spans": [s.as_dict() for s in spans]}, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs and two set-ups (smoke tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads_was = os.environ.pop("ZENOGRAV_THREADS", None)
    _import_program()
    if args.setup_probe:
        _setup_probe(args)
        return 0

    start = time.monotonic()
    env = _environment(args.seed, threads_was)
    print("env: " + json.dumps(env, sort_keys=True))
    # A traced run compares its traced and untraced tasks with each other,
    # so it needs no yardstick.
    yard = None if args.trace else Yardstick()
    setup = None if args.trace else _measure_setup(
        args, 2 if args.tiny else SETUP_REPEATS, yard)

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    warm = tempfile.mkdtemp(dir=OUT)
    try:
        wl.warmup(warm)
    finally:
        shutil.rmtree(warm, ignore_errors=True)

    deadline = start + RUN_CAP_S
    if args.trace:
        # Untraced and traced cycles alternate, so both halves see the
        # same machine and the overhead estimate is not a drift.
        untraced, traced = [], []
        tracer = Tracer()
        while _busy(traced) < args.seconds / 2 and time.monotonic() < deadline:
            untraced += _run_cycle(wl, len(untraced) + len(traced), yard)
            tracer.install()
            try:
                traced += _run_cycle(wl, len(untraced) + len(traced), yard,
                                     tracer)
            finally:
                tracer.restore()
        records = untraced + traced
        metrics, lines = _per_layer(wl, untraced, traced, tracer.spans)
        lines.append(f"spans written to {_write_spans(args, env, tracer.spans)}")
    else:
        records = []
        while _busy(records) < args.seconds and time.monotonic() < deadline:
            records += _run_cycle(wl, len(records), yard)
        yard.catch_up()
        metrics, lines = _end_to_end(wl, records, setup, yard)

    attempted = sum(r.outcome.items for r in records)
    failed = sum(r.outcome.failed for r in records)
    if wl.name == "trajectories" and not args.trace:
        lines.append(f"scatter.energy_drift_max = {wl.drift_max:.3g} "
                     "(relative, over every task)")
    for r in records:
        if r.outcome.note:
            lines.append(f"check failed: {r.outcome.note}")
    for line in lines:
        print(line)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
