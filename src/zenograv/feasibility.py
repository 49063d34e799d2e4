"""Constraint intersection over experiment parameters.

One ExperimentPoint fixes the source (radius, density), the probe (mass,
speed via t_R = R/v), the safety margins and the environment; evaluating
it runs every constraint of the proposal and reports margins:

  deflection      max deflection angle above the detector floor (sharp)
  time            scattering duration below the run budget (sharp)
  zeno-rate       required freeze rate from the freeze dynamics itself
  decoherence     required freeze rate from environmental localization
  classicality    probe wavepacket stays point-like over the run
  mean-free-path  probe flies collision-free through the gas

Strict "much greater/less than" conditions are operationalized with a
strictness factor (default 100): the interaction-timescale bound and the
momentum/path comparisons use it, while the survival bound already
carries the run duration and the two detector thresholds (theta_min,
t_total_cap) are sharp inequalities.  The required freeze rate reported
is the max of the decoherence total and the dynamics requirement, and
passes when it sits below an achievable-rate ceiling (default 1e3 1/s).

Evaluation is one array kernel.  The closed forms it calls (scatter,
zeno, decoherence) are elementwise, so a point whose R, t_R, m_probe and
environment pressure and temperatures are broadcastable arrays stands
for a grid of cells, and the kernel evaluates every cell in one pass.
:func:`sweep_region` builds such a point from two sweep axes;
:func:`evaluate_point` is the kernel's one-cell case.  A step that fails
in some cells names them and reruns as arrays on the rest (:func:`_by_cell`).
The kernel runs with numpy's overflow and divide-by-zero errors raised,
so a grid cell fails as float arithmetic does (an ArithmeticError)
rather than becoming an inf or NaN row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import decoherence as deco
from . import scatter, zeno
from .constants import joules_to_ev
from .elementwise import (csv_text, parameter, ratio_or_inf, require,
                          require_finite)
from .errors import InvalidParameterError, ZenogravError

SWEEP_AXES = ("R", "v", "t_R", "p", "T", "m_probe")


@dataclass(frozen=True)
class ExperimentPoint:
    """One point of experiment-parameter space (SI units).

    R, t_R, m_probe and the environment's pressure and temperatures may
    be broadcastable arrays; such a point is a grid of cells (see
    :func:`sweep_region`).  Each field's default, unit, CLI sign rule and
    ``report.json`` key are in its metadata (see ``elementwise.parameter``).
    """

    R: float = parameter(1e-5, "m, source sphere radius", "pos", "R_m")
    density: float = parameter(2600.0, "kg/m^3, source density", "pos", "density_kg_m3")
    beta: float = parameter(1.2, "impact margin, > 1", "pos", "beta")
    zeta: float = parameter(0.75, "anomaly fraction in (0,1)", "pos", "zeta")
    t_R: float = parameter(10.0, "s, R/v", "pos", "t_R_s")
    m_probe: float = parameter(1e-18, "kg, probe mass", "pos", "m_probe_kg")
    R_probe: float = parameter(1e-6, "m, probe radius (mean free path)",
                               "nonneg", "R_probe_m")
    env: deco.Environment = field(default_factory=deco.Environment)
    t_total_cap: float = parameter(100.0, "s, run-duration budget", "pos",
                                   "t_total_cap_s")
    theta_min: float = parameter(1e-4, "rad, detector angular floor", "pos",
                                 "theta_min_rad")
    strictness: float = parameter(100.0, "the >>-means->=-100x factor", "pos",
                                  "strictness")
    sigma_ratio_max: float = parameter(
        0.02, "classicality ceiling on sigma/R", "pos", "sigma_ratio_max")
    gamma_zeno_achievable: float = parameter(
        1e3, "1/s, achievable rate ceiling", "pos", "gamma_zeno_achievable_s")

    def __post_init__(self):
        # written as x > 0, not as not x <= 0, so that NaN fails
        require((self.R > 0) & (self.density > 0) & (self.t_R > 0),
                "R, density, t_R must all be > 0")
        require(self.beta > 1.0, "beta must be > 1, got {}", self.beta)
        require(0.0 < self.zeta < 1.0, "zeta must be in (0,1), got {}",
                self.zeta)
        require((self.m_probe > 0) & (self.R_probe >= 0),
                "m_probe must be > 0, R_probe >= 0")
        require((self.t_total_cap > 0) & (self.theta_min > 0)
                & (self.sigma_ratio_max > 0),
                "t_total_cap, theta_min and sigma_ratio_max must be > 0")
        require((self.strictness >= 1) & (self.gamma_zeno_achievable > 0),
                "strictness >= 1 and achievable rate > 0")
        require_finite(self)

    @property
    def v(self) -> float:
        """Probe speed R / t_R (m/s)."""
        return self.R / self.t_R

    @property
    def M(self) -> float:
        """Source mass (4/3) pi density R^3 (kg)."""
        return 4.0 / 3.0 * np.pi * self.density * self.R**3

    @property
    def b0(self) -> float:
        """Minimum safe impact parameter beta * R (m)."""
        return self.beta * self.R


def reference_point() -> ExperimentPoint:
    """The summary feasibility configuration: every field at its default.

    10 um silica sphere (mass ~1e-11 kg), probe of 1e-18 kg at 1 um/s
    (t_R = 10 s), cryogenic ultra-high vacuum (1e-15 Pa, 1 K).
    """
    return ExperimentPoint()


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    value: float
    threshold: float
    margin: float            # >= 1 means satisfied
    passed: bool | None      # None: sub-evaluation failed, indeterminate
    note: str = ""


@dataclass(frozen=True)
class ConstraintReport:
    point: ExperimentPoint
    theta_max: float               # rad
    t_total: float                 # s, uncapped scattering duration
    t_used: float                  # s, duration used in rate/spread bounds
    tau_Z: float                   # s, freeze timescale
    breakdown: deco.DecoherenceBreakdown | None
    gamma_dyn_required: float      # 1/s, freeze-dynamics requirement
    gamma_zeno_required: float     # 1/s, max of decoherence and dynamics
    sigma_ratio: float             # sigma_min / R
    dp_ratio: float                # dp_min / (m v)
    mfp: float                     # m
    kinetic_energy_eV: float
    constraints: tuple[ConstraintCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed is True for c in self.constraints)

    def constraint(self, name: str) -> ConstraintCheck:
        for c in self.constraints:
            if c.name == name:
                return c
        raise KeyError(name)


def _by_cell(sub, pt: ExperimentPoint):
    """(values, failed, note) of the sub-evaluation ``sub(pt)``.

    The cells a ZenogravError names in its ``cells`` fail (NaN), ``note``
    is its text, and ``sub`` reruns as arrays on the cells left: one pass
    per distinct failing check.  A one-cell point, or an error naming no
    cells, fails whole: (NaN, True, note).
    """
    try:
        return sub(pt), False, None
    except ZenogravError as exc:
        note = f"{type(exc).__name__}: {exc}"
        env = pt.env
        grid = (pt.R, pt.t_R, pt.m_probe, env.pressure, env.T_env, env.T_int)
        shape = np.broadcast_shapes(*map(np.shape, grid))
        if exc.cells is None or not shape:
            return math.nan, True, note
        failed = np.broadcast_to(exc.cells, shape).copy()
        R, t_R, m_probe, p, T_env, T_int = (np.broadcast_to(x, shape)[~failed]
                                            for x in grid)
        left = replace(pt, R=R, t_R=t_R, m_probe=m_probe, env=replace(
            env, pressure=p, T_env=T_env, T_int=T_int))
        values = np.full(shape, math.nan)
        values[~failed], failed[~failed], _ = _by_cell(sub, left)
        return values, failed, note


def _evaluate(pt: ExperimentPoint):
    """Every report quantity and constraint of ``pt``, for all its cells.

    Returns (quantities, checks).  quantities maps ConstraintReport field
    names to values; checks holds one (name, value, threshold, margin,
    failed, note) per constraint, where ``failed`` marks the cells named
    by a ZenogravError of its sub-evaluation and ``note`` is then the first
    such error's text.  A failed sub-evaluation marks only the constraints
    that depend on it.  Values broadcast over the grid fields of ``pt``.
    """
    v, M, b0 = pt.v, pt.M, pt.b0
    theta_max = scatter.rutherford_angle(M, v, b0)

    def duration(p):
        # past the parabolic limit the time underflows to 0 or is 0/0:
        # such a duration fails, as a non-hyperbolic orbit's does
        with np.errstate(invalid="ignore"):
            t = scatter.kepler_scatter_time(p.M, p.density, p.beta, p.zeta,
                                            p.t_R)
        require((t > 0) & (t < math.inf),
                "scattering duration not finite and > 0: {} s", t)
        return t

    t_total, time_failed, time_note = _by_cell(duration, pt)
    t_used = np.fmin(t_total, pt.t_total_cap)    # the cap where t_total is NaN

    tau_Z = zeno.zeno_time_estimate(pt.m_probe, M, b0)
    rate_dyn, rate_surv = zeno.zeno_rate_bounds(tau_Z, t_used)
    gamma_dyn_required = np.maximum(pt.strictness * rate_dyn, rate_surv)

    breakdowns = []     # one per decoherence pass that succeeds

    def decoherence(p):
        breakdowns.append(deco.total_decoherence(p.env, p.R))
        return breakdowns[-1].gamma_total

    gamma_deco, deco_failed, deco_note = _by_cell(decoherence, pt)
    gamma_required = np.where(np.isfinite(gamma_deco),
                              np.maximum(gamma_deco, gamma_dyn_required),
                              gamma_dyn_required)

    sigma_min, _ = deco.wavepacket_spread_min(pt.m_probe, t_used)
    sigma_ratio = sigma_min / pt.R
    _, dp_ratio = deco.momentum_floor(pt.m_probe, t_used, v)
    mfp = deco.mean_free_path(pt.env, pt.R_probe).value
    ke_eV = joules_to_ev(0.5 * pt.m_probe * v**2)
    path = v * t_used
    achievable = pt.gamma_zeno_achievable

    quantities = {
        "theta_max": theta_max, "t_total": t_total, "t_used": t_used,
        "tau_Z": tau_Z,
        "breakdown": None if np.any(deco_failed) else breakdowns[0],
        "gamma_dyn_required": gamma_dyn_required,
        "gamma_zeno_required": gamma_required, "sigma_ratio": sigma_ratio,
        "dp_ratio": dp_ratio, "mfp": mfp, "kinetic_energy_eV": ke_eV}
    checks = (
        ("deflection", theta_max, pt.theta_min, theta_max / pt.theta_min,
         False, "max deflection above detector floor (sharp)"),
        ("time", t_total, pt.t_total_cap,
         ratio_or_inf(pt.t_total_cap, t_total), time_failed,
         time_note or "scattering duration within the run budget (sharp)"),
        ("zeno-rate", gamma_dyn_required, achievable,
         achievable / gamma_dyn_required, False,
         "freeze-dynamics rate requirement achievable"),
        ("decoherence", gamma_deco, achievable,
         ratio_or_inf(achievable, gamma_deco), deco_failed,
         deco_note or "decoherence rate requirement achievable"),
        ("classicality", sigma_ratio, pt.sigma_ratio_max,
         np.minimum(pt.sigma_ratio_max / sigma_ratio,
                    (1.0 / pt.strictness) / dp_ratio), False,
         "wavepacket spread and momentum width stay negligible"),
        ("mean-free-path", mfp, pt.strictness * path,
         mfp / (pt.strictness * path), False,
         "collision-free flight over the full trajectory"),
    )
    return quantities, checks


def evaluate_point(pt: ExperimentPoint) -> ConstraintReport:
    """Evaluate every constraint at one parameter point.

    The one-cell case of the grid kernel behind :func:`sweep_region`.
    Sub-evaluation failures (e.g. a non-hyperbolic orbit, or a duration
    that underflows to 0) mark only the constraints that depend on them
    as indeterminate.
    """
    with np.errstate(over="raise", divide="raise"):
        quantities, checks = _evaluate(pt)
    constraints = []
    for name, value, threshold, margin, failed, note in checks:
        margin = math.nan if failed else float(margin)
        constraints.append(ConstraintCheck(
            name, float(value), float(threshold), margin,
            None if failed else margin >= 1.0, note))
    breakdown = quantities.pop("breakdown")
    return ConstraintReport(
        point=pt, breakdown=breakdown, constraints=tuple(constraints),
        **{name: float(x) for name, x in quantities.items()})


def report_to_dict(report: ConstraintReport) -> dict:
    pt = report.point
    point = {f.metadata["key"]: getattr(obj, f.name)
             for obj in (pt, pt.env) for f in fields(obj) if f.metadata}
    return {
        "point": {**point, "v_m_s": pt.v, "M_kg": pt.M},
        "theta_max_rad": report.theta_max,
        "t_total_s": report.t_total,
        "t_used_s": report.t_used,
        "tau_Z_s": report.tau_Z,
        **{f"{name}_s": getattr(report.breakdown, name, None) for name in (
            "gamma_gas", "gamma_bb_sc", "gamma_bb_abs", "gamma_bb_em")},
        "gamma_dyn_required_s": report.gamma_dyn_required,
        "gamma_zeno_required_s": report.gamma_zeno_required,
        "sigma_ratio": report.sigma_ratio,
        "dp_ratio": report.dp_ratio,
        "mean_free_path_m": report.mfp,
        "kinetic_energy_eV": report.kinetic_energy_eV,
        "constraints": {
            c.name: {"value": c.value, "threshold": c.threshold,
                     "margin": c.margin, "passed": c.passed, "note": c.note}
            for c in report.constraints},
        "passed": report.passed,
    }


def _apply_axes(base: ExperimentPoint, assignments: dict) -> ExperimentPoint:
    """Point with axis values applied and R = v * t_R kept consistent.

    With two of {R, v, t_R} assigned the third is derived; with one
    assigned, an R axis keeps the base t_R (deriving v), while a v or t_R
    axis keeps the base R.  A T axis sets both environment temperatures.
    Values may be broadcastable arrays (the axes of a grid).
    """
    if {"R", "v", "t_R"} <= set(assignments):
        raise InvalidParameterError("at most two of R, v, t_R may be axes")
    R = assignments.get("R", base.R)
    t_R = assignments.get("t_R", base.t_R)
    if "v" in assignments:   # derive whichever of R, t_R is not an axis
        if "t_R" in assignments:
            R = assignments["v"] * t_R
        else:
            t_R = R / assignments["v"]
    env = base.env
    if "p" in assignments:
        env = replace(env, pressure=assignments["p"])
    if "T" in assignments:
        env = replace(env, T_env=assignments["T"], T_int=assignments["T"])
    return replace(base, R=R, t_R=t_R, env=env,
                   m_probe=assignments.get("m_probe", base.m_probe))


@dataclass(frozen=True)
class RegionGrid:
    """The cells of a :func:`sweep_region` grid, axis1-major: one flat
    array per ``region.csv`` column, in column order (``passed`` is bool)."""

    axis1: np.ndarray
    axis2: np.ndarray
    theta_max: np.ndarray
    t_total: np.ndarray
    gamma_required: np.ndarray
    sigma_ratio: np.ndarray
    mfp: np.ndarray
    KE_eV: np.ndarray
    passed: np.ndarray


def sweep_region(axis1: tuple[str, np.ndarray], axis2: tuple[str, np.ndarray],
                 base: ExperimentPoint) -> RegionGrid:
    """Evaluate a 2D grid of points: one RegionGrid column per result,
    cells ordered axis1-major.

    Axis names come from {R, v, t_R, p, T, m_probe}; values should be
    log-spaced for the usual decade-spanning sweeps.  The two axes are
    broadcast against each other (axis1 down, axis2 across) and applied
    to ``base`` by the :func:`_apply_axes` rules, giving one grid point
    whose fields are per-cell arrays; it is validated as a whole and
    evaluated in one pass of the array kernel (see
    :func:`evaluate_point`, its one-cell case).  A cell whose duration
    or decoherence evaluation fails, or whose duration is not finite and
    > 0, is indeterminate and does not pass, and the others run on as
    arrays; an overflow or division by zero raises FloatingPointError.
    """
    name1, vals1 = axis1
    name2, vals2 = axis2
    for name in (name1, name2):
        if name not in SWEEP_AXES:
            raise InvalidParameterError(
                f"unknown axis {name!r}; choose from {SWEEP_AXES}")
    if name1 == name2:
        raise InvalidParameterError("the two axes must differ")
    a1 = np.asarray(vals1, dtype=float).reshape(-1, 1)
    a2 = np.asarray(vals2, dtype=float).reshape(1, -1)
    with np.errstate(over="raise", divide="raise"):
        grid = _apply_axes(base, {name1: a1, name2: a2})
        quantities, checks = _evaluate(grid)
    passed = True
    for _, _, _, margin, failed, _ in checks:
        passed = passed & np.logical_not(failed) & (margin >= 1.0)
    columns = (a1, a2, quantities["theta_max"], quantities["t_total"],
               quantities["gamma_zeno_required"], quantities["sigma_ratio"],
               quantities["mfp"], quantities["kinetic_energy_eV"], passed)
    return RegionGrid(*(c.ravel() for c in np.broadcast_arrays(*columns)))


def region_to_csv(grid: RegionGrid, fh, header_comment: str | None = None):
    """CSV: axis1,axis2,theta_max,t_total,gamma_required,sigma_ratio,mfp,KE_eV,pass."""
    fh.write(csv_text("axis1,axis2,theta_max,t_total,gamma_required,"
                      "sigma_ratio,mfp,KE_eV,pass",
                      [getattr(grid, f.name) for f in fields(grid)],
                      header_comment))
