"""The four benchmark workloads: seeded inputs, one task, correctness check.

A workload owns a short cycle of inputs drawn from the seed.  Task ``k``
runs input ``k % cycle``, and the runner always completes whole cycles, so
every run sees each input equally often and per-task counts repeat
exactly between runs with the same seed.  ``steps`` gives a task as its
program calls, one callable each; the runner times each and sums them,
so that it can time its yardstick between them.  ``read_outputs`` and
``check`` run outside the timed region.

Program calls go through module attributes (``cli.main``,
``scatter.integrate_trajectory``) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os

import numpy as np

# CODATA-2018 G, restated here so the region check does not use the
# program's own constant table.
G = 6.67430e-11
M_PROBE = 1e-18
DENSITY = 2600.0            # kg/m^3, the CLI default source density


def _cli(argv):
    """Run ``zenograv.cli.main(argv)`` in-process; returns (exit code, stderr)."""
    from zenograv import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def run_steps(steps):
    """Run a task's steps back to back; their results, in order."""
    return [step() for step in steps]


def _stratified(rng, lo, hi, n):
    """n draws from U(lo, hi), one in each of n equal strata, shuffled.

    Stratifying the inputs that set a task's cost keeps the cost mix of
    a cycle nearly the same for every seed, so the median task time
    varies with the machine, not with the seed.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def closed_form_theta(M, v, b):
    """Point-mass deflection 2*atan(G M / (v^2 b)) (rad)."""
    return 2.0 * math.atan(G * M / (v * v * b))


class Outcome:
    """What one task produced, reduced to what its check needs."""

    def __init__(self, items, failed=0, note=""):
        self.items = items
        self.failed = failed
        self.note = note


class Pattern:
    """Two-lobe pattern, then the annulus, on one seeded figure-preset grid."""

    name = "pattern"
    item_unit = "probes"
    cycle = 1

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.t_R = 10 ** rng.uniform(1.05, 1.15)
        self.beta_min = rng.uniform(1.15, 1.25)
        self.beta_max = rng.uniform(1.9, 2.1)
        self.n = 2 if tiny else 12
        # mirrored grid: every offset l > 0 also launches at -l
        self.per_scan = self.n * (2 * self.n - 1)
        self.items_per_task = 2 * self.per_scan
        self.first_bytes = None

    def _argvs(self, out, n):
        base = ["pattern", "--n_b", str(n), "--n_l", str(n),
                "--t_R", repr(self.t_R), "--beta_min", repr(self.beta_min),
                "--beta_max", repr(self.beta_max)]
        return [base + ["--output-dir", os.path.join(out, "two")],
                base + ["--d", "0", "--output-dir", os.path.join(out, "one")]]

    def warmup(self, out):
        # Every code path of a task on a 2x2 grid: a full 12x12 warm-up
        # would make each fresh-interpreter set-up cost a whole task.
        for argv in self._argvs(out, 2):
            _cli(argv)

    def steps(self, k, out):
        return [functools.partial(_cli, argv)
                for argv in self._argvs(out, self.n)]

    def read_outputs(self, result, out):
        return result, [_read(os.path.join(out, sub, "pattern.csv"), "rb")
                        for sub in ("two", "one")]

    def check(self, k, outputs):
        codes, files = outputs
        R = 1e-5
        M = 4.0 / 3.0 * math.pi * DENSITY * R ** 3
        theta_ref = closed_form_theta(M, R / self.t_R, self.beta_min * R)
        failed = 0
        notes = []
        if self.first_bytes is None:
            self.first_bytes = files
        for (code, err), data, ref, label in zip(codes, files,
                                                 self.first_bytes,
                                                 ("two-lobe", "annulus")):
            rows = _csv_rows(data.decode())
            if code != 0 or len(rows) != self.per_scan:
                failed += self.per_scan
                notes.append(f"{label}: exit {code} {err}, {len(rows)} rows")
                continue
            if data != ref:
                failed += self.per_scan
                notes.append(f"{label}: pattern.csv bytes differ from task 0")
                continue
            for row in rows:
                theta = float(row["theta_rad"])
                if math.isnan(theta):
                    failed += 1
                    notes.append(f"{label}: NaN row at beta={row['beta']}")
                elif row["hit"] == "0" and theta > theta_ref:
                    failed += 1
                    notes.append(f"{label}: theta {theta:.6g} above "
                                 f"closed form {theta_ref:.6g}")
        return Outcome(self.items_per_task, failed, "; ".join(notes))


class Trajectories:
    """Per task: one single-sphere and one two-lobe probe, each on a fresh
    source, launched far out as in the tests' oracle config."""

    name = "trajectories"
    item_unit = "trajectories"
    items_per_task = 2

    def __init__(self, seed, tiny=False):
        from zenograv import massdist, scatter
        rng = np.random.default_rng(seed)
        # A single sphere costs about twice a two-lobe source (its dt_max
        # is half as long), so each task runs one of each: task times stay
        # unimodal and their median steady.
        self.cycle = n = 1 if tiny else 32
        self.inputs = [[] for _ in range(n)]
        for lobes in (False, True):
            draws = zip(*(a.tolist() for a in (
                10 ** _stratified(rng, -5.5, -4.5, n),   # radius
                _stratified(rng, 1000.0, 5000.0, n),     # density
                10 ** _stratified(rng, 1.0, 1.2, n),     # t_R
                _stratified(rng, 1.2, 2.0, n),           # beta
                _stratified(rng, 0.0, 1.0, n))))         # l / R
            for pair, (radius, rho, t_R, beta, l_frac) in zip(self.inputs,
                                                              draws):
                src = massdist.make_superposed_source(
                    radius, rho, 2.0 * radius if lobes else 0.0)
                b = beta * radius
                scale = src.length_scale()
                cfg = scatter.ScatterConfig.for_source(
                    src, b=b, l=l_frac * radius, v=radius / t_R,
                    start_factor=200 * b / scale,
                    stop_factor=400 * b / scale, rtol=1e-10)
                pair.append((src, cfg, lobes))
        self.drift_max = 0.0

    def warmup(self, out):
        run_steps(self.steps(0, out))

    def steps(self, k, out):
        return [functools.partial(_trajectory, src, cfg)
                for src, cfg, _ in self.inputs[k % self.cycle]]

    def read_outputs(self, result, out):
        return result

    def check(self, k, outputs):
        failed = 0
        notes = []
        for (src, cfg, lobes), (traj, energy) in zip(
                self.inputs[k % self.cycle], outputs):
            drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
            self.drift_max = max(self.drift_max, drift)
            theta = traj.deflection_angle
            if not math.isfinite(theta) or traj.hit_source:
                failed += 1
                notes.append(f"task {k}: theta={theta} hit={traj.hit_source}")
            elif not lobes:
                ref = closed_form_theta(src.total_mass, cfg.v,
                                        math.hypot(cfg.b, cfg.l))
                err = abs(theta - ref) / ref
                if err > 1e-4:
                    failed += 1
                    notes.append(f"task {k}: deflection off the Rutherford "
                                 f"angle by {err:.2e} relative")
        return Outcome(self.items_per_task, failed, "; ".join(notes))


def _trajectory(src, cfg):
    from zenograv import scatter
    traj = scatter.integrate_trajectory(src, cfg, M_PROBE)
    return traj, scatter.energy_series(src, traj, M_PROBE)


# FIGURES.md axis presets as (axis1, a1 range, axis2, a2 range).  The
# (R, v) preset leaves R at the command's default range (1 to 100 m),
# where `feasibility` exits 2 on a negative scattering time, so R takes
# the 1e-6..1e-4 m range of the other presets.
REGION_PRESETS = (
    ("t_R", (1.0, 100.0), "R", (1e-5, 1e-5)),
    ("R", (1e-6, 1e-4), "v", (1e-7, 1e-5)),
    ("m_probe", (1e-19, 1e-17), "R", (1e-6, 1e-4)),
    ("p", (1e-15, 1e-9), "R", (1e-5, 1e-5)),
)
REPORT_THETA_MAX = 1.211e-4   # rad, the summary report's reference value


class Region:
    """Per task: `feasibility` on each of the four preset axis pairs, then
    `report`.  The pairs differ in cost by about 20%, so one task runs all
    four on 32x32 grids (4096 cells) rather than one pair on 64x64."""

    name = "region"
    item_unit = "cells"
    cycle = 1

    def __init__(self, seed, tiny=False):
        self.rng = np.random.default_rng(seed)
        self.n = 4 if tiny else 32
        self.items_per_task = len(REGION_PRESETS) * self.n * self.n
        # the seed orders the pairs and scales each axis range by up to
        # 10^0.1 either way (a pinned axis stays pinned)
        self.grids = []
        for i in self.rng.permutation(len(REGION_PRESETS)):
            ax1, (lo1, hi1), ax2, (lo2, hi2) = REGION_PRESETS[i]
            f1, f2 = 10 ** self.rng.uniform(-0.1, 0.1, size=2)
            self.grids.append(((ax1, ax2), [
                "--axis1", ax1, "--a1_min", repr(float(lo1 * f1)),
                "--a1_max", repr(float(hi1 * f1)),
                "--axis2", ax2, "--a2_min", repr(float(lo2 * f2)),
                "--a2_max", repr(float(hi2 * f2)),
                "--n1", str(self.n), "--n2", str(self.n)]))

    def warmup(self, out):
        run_steps(self.steps(0, out))

    def steps(self, k, out):
        argvs = [["feasibility"] + argv
                 + ["--output-dir", os.path.join(out, str(i))]
                 for i, (_, argv) in enumerate(self.grids)]
        argvs.append(["report", "--output-dir", out])
        return [functools.partial(_cli, argv) for argv in argvs]

    def read_outputs(self, result, out):
        regions = [_read(os.path.join(out, str(i), "region.csv"))
                   for i in range(len(self.grids))]
        return result, regions, _read(os.path.join(out, "report.json"))

    def check(self, k, outputs):
        codes, regions, report = outputs
        items = self.items_per_task
        bad = [f"exit {c} {e}" for c, e in codes if c != 0]
        if bad:
            return Outcome(items, items, "; ".join(bad))
        rep = json.loads(report)
        if not (rep["passed"] and
                abs(rep["theta_max_rad"] - REPORT_THETA_MAX)
                <= 1e-3 * REPORT_THETA_MAX):
            return Outcome(items, items, f"report: pass={rep['passed']} "
                                         f"theta_max={rep['theta_max_rad']}")
        failed = 0
        notes = []
        cells = self.n * self.n
        for (axes, _), region in zip(self.grids, regions):
            rows = _csv_rows(region)
            if len(rows) != cells:
                failed += cells
                notes.append(f"{axes}: region.csv has {len(rows)} rows")
                continue
            for i in self.rng.choice(cells, size=min(8, cells), replace=False):
                row = rows[i]
                expected = _region_theta(axes, float(row["axis1"]),
                                         float(row["axis2"]))
                got = float(row["theta_max"])
                if not abs(got - expected) <= 1e-6 * expected:
                    failed += 1
                    notes.append(f"{axes} row {i}: theta_max {got:.9g} "
                                 f"!= {expected:.9g}")
        return Outcome(items, failed, "; ".join(notes))


def _region_theta(axes, a1, a2, t_R=10.0, beta=1.2):
    """theta_max = 2 atan(G M / (v^2 beta R)) from a cell's axis values,
    with the `feasibility` defaults for the axes not swept."""
    values = dict(zip(axes, (a1, a2)))
    R = values.get("R", 1e-5)
    v = values["v"] if "v" in values else R / values.get("t_R", t_R)
    M = 4.0 / 3.0 * math.pi * DENSITY * R ** 3
    return closed_form_theta(M, v, beta * R)


E0_REF, E1_REF = -1.0e-47, -8.86e-48   # J, the triple-well references


class Spectra:
    """`eigen` on the triple-well preset, then a `zeno` survival scan."""

    name = "spectra"
    item_unit = "commands"
    items_per_task = 2

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.cycle = n = 2 if tiny else 32
        points = (1000, 1201) if tiny else (3000, 6001)
        measurements = (5, 11) if tiny else (80, 121)
        self.inputs = list(zip(
            _stratified(rng, *points, n).astype(int).tolist(),   # n_points
            _stratified(rng, 4.0, 5.0, n).tolist(),               # x_max
            _stratified(rng, *measurements, n).astype(int).tolist(),  # N
            _stratified(rng, 0.3, 1.0, n).tolist()))              # ratio

    def warmup(self, out):
        run_steps(self.steps(0, out))

    def steps(self, k, out):
        n_points, x_max, N, ratio = self.inputs[k % self.cycle]
        return [functools.partial(_cli, argv) for argv in (
            ["eigen", "--n_points", str(n_points), "--x_max", repr(x_max),
             "--output-dir", out],
            ["zeno", "--N", str(N), "--probe_splitting_ratio", repr(ratio),
             "--output-dir", out])]

    def read_outputs(self, result, out):
        return (result, _read(os.path.join(out, "eigen_summary.json")),
                _read(os.path.join(out, "zeno_scan.csv")))

    def check(self, k, outputs):
        (eigen, zeno_run), summary, scan = outputs
        failed = 0
        notes = []
        if eigen[0] != 0:
            failed += 1
            notes.append(f"eigen: exit {eigen[0]} {eigen[1]}")
        else:
            s = json.loads(summary)
            if not (abs(s["E0_J"] - E0_REF) <= 0.02 * abs(E0_REF)
                    and abs(s["E1_J"] - E1_REF) <= 0.02 * abs(E1_REF)
                    and s["label"] == "delocalized-triple-well"):
                failed += 1
                notes.append(f"eigen: E0={s['E0_J']} E1={s['E1_J']} "
                             f"label={s['label']}")
        if zeno_run[0] != 0:
            failed += 1
            notes.append(f"zeno: exit {zeno_run[0]} {zeno_run[1]}")
        else:
            for row in _csv_rows(scan):
                sim = float(row["survival_sim"])
                form = float(row["survival_formula"])
                # agree to 0.1% of the survival deficit
                if not abs(sim - form) <= 1e-3 * (1.0 - form):
                    failed += 1
                    notes.append(f"zeno: survival {sim} vs formula {form}")
                    break
        return Outcome(self.items_per_task, failed, "; ".join(notes))


def _read(path, mode="r"):
    """File contents, or empty when a failed command wrote none."""
    try:
        with open(path, mode) as fh:
            return fh.read()
    except FileNotFoundError:
        return b"" if "b" in mode else ""


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


WORKLOADS = {w.name: w for w in (Pattern, Trajectories, Region, Spectra)}
