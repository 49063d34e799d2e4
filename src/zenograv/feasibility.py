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
:func:`evaluate_point` is the kernel's one-cell case.  The kernel runs
with numpy's overflow and divide-by-zero errors raised, so a grid cell
fails as float arithmetic does (an ArithmeticError) rather than
becoming an inf or NaN row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import decoherence as deco
from . import scatter, zeno
from .constants import CONST, PhysicalConstants, joules_to_ev
from .elementwise import ratio_or_inf, require
from .errors import InvalidParameterError, ZenogravError

SWEEP_AXES = ("R", "v", "t_R", "p", "T", "m_probe")


@dataclass(frozen=True)
class ExperimentPoint:
    """One point of experiment-parameter space (SI units).

    R, t_R, m_probe and the environment's pressure and temperatures may
    be broadcastable arrays; such a point is a grid of cells (see
    :func:`sweep_region`).
    """

    R: float                       # source sphere radius (m)
    density: float                 # source density (kg/m^3)
    beta: float                    # impact-parameter margin, b0 = beta R
    zeta: float                    # anomaly fraction defining the run length
    t_R: float                     # R / v (s)
    m_probe: float                 # probe mass (kg)
    R_probe: float                 # probe radius, mean-free-path only (m)
    env: deco.Environment
    t_total_cap: float = 100.0     # run-duration budget (s)
    theta_min: float = 1e-4        # detector angular floor (rad)
    strictness: float = 100.0      # the ">> means >= 100x" factor
    sigma_ratio_max: float = 0.02  # classicality ceiling on sigma_min/R
    gamma_zeno_achievable: float = 1e3   # measurement-rate ceiling (1/s)

    def __post_init__(self):
        # written as x > 0, not as not x <= 0, so that NaN fails
        require((self.R > 0) & (self.density > 0) & (self.t_R > 0),
                "R, density, t_R must all be > 0")
        require(self.beta > 1.0, "beta must be > 1, got {}", self.beta)
        require(0.0 < self.zeta < 1.0, "zeta must be in (0,1), got {}",
                self.zeta)
        require((self.m_probe > 0) & (self.R_probe >= 0),
                "m_probe must be > 0, R_probe >= 0")
        require((self.t_total_cap > 0) & (self.theta_min > 0),
                "t_total_cap and theta_min must be > 0")
        require((self.strictness >= 1) & (self.gamma_zeno_achievable > 0),
                "strictness >= 1 and achievable rate > 0")

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
    """The summary feasibility configuration.

    10 um silica sphere (mass ~1e-11 kg), probe of 1e-18 kg at 1 um/s
    (t_R = 10 s), cryogenic ultra-high vacuum (1e-15 Pa, 1 K).
    """
    return ExperimentPoint(
        R=1e-5, density=2600.0, beta=1.2, zeta=0.75, t_R=10.0,
        m_probe=1e-18, R_probe=1e-6,
        env=deco.Environment(pressure=1e-15, T_env=1.0, T_int=1.0))


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


def _cell(pt: ExperimentPoint, shape, index) -> ExperimentPoint:
    """The one-cell point at ``index`` of a grid point of ``shape``."""
    def at(x):
        return float(np.broadcast_to(x, shape)[index])
    env = replace(pt.env, pressure=at(pt.env.pressure),
                  T_env=at(pt.env.T_env), T_int=at(pt.env.T_int))
    return replace(pt, R=at(pt.R), t_R=at(pt.t_R), m_probe=at(pt.m_probe),
                   env=env)


def _cell_by_cell(sub, pt: ExperimentPoint):
    """(values, failed) of a sub-evaluation that raised over the grid.

    ``sub(cell)`` runs on each cell alone: a cell where it raises a
    ZenogravError is NaN and flagged, the others keep their values.  A
    one-cell point has already failed: (NaN, True).
    """
    shape = np.broadcast_shapes(*map(np.shape, (
        pt.R, pt.t_R, pt.m_probe, pt.env.pressure, pt.env.T_env,
        pt.env.T_int)))
    if not shape:
        return math.nan, True
    values = np.full(shape, math.nan)
    failed = np.zeros(shape, dtype=bool)
    for index in np.ndindex(shape):
        try:
            values[index] = sub(_cell(pt, shape, index))
        except ZenogravError:
            failed[index] = True
    return values, failed


def _evaluate(pt: ExperimentPoint, constants: PhysicalConstants):
    """Every report quantity and constraint of ``pt``, for all its cells.

    Returns (quantities, checks).  quantities maps ConstraintReport field
    names to values; checks holds one (name, value, threshold, margin,
    failed, note) per constraint, where ``failed`` marks the cells whose
    sub-evaluation raised a ZenogravError and ``note`` is then that
    error's text.  A failed sub-evaluation marks only the constraints
    that depend on it.  Values broadcast over the grid fields of ``pt``.
    """
    v, M, b0 = pt.v, pt.M, pt.b0
    theta_max = scatter.rutherford_angle(M, v, b0, constants)

    def duration(p):
        return scatter.kepler_scatter_time(p.M, p.density, p.beta, p.zeta,
                                           p.t_R, constants)

    try:
        t_total, time_failed, time_note = duration(pt), False, None
    except ZenogravError as exc:
        t_total, time_failed = _cell_by_cell(duration, pt)
        time_note = f"{type(exc).__name__}: {exc}"
    t_used = np.where(np.isfinite(t_total),
                      np.minimum(t_total, pt.t_total_cap), pt.t_total_cap)

    tau_Z = zeno.zeno_time_estimate(pt.m_probe, M, b0, constants)
    rate_dyn, rate_surv = zeno.zeno_rate_bounds(tau_Z, t_used)
    gamma_dyn_required = np.maximum(pt.strictness * rate_dyn, rate_surv)

    try:
        breakdown = deco.total_decoherence(pt.env, pt.R, constants)
        gamma_deco, deco_failed, deco_note = breakdown.gamma_total, False, None
    except ZenogravError as exc:
        breakdown = None
        gamma_deco, deco_failed = _cell_by_cell(
            lambda p: deco.total_decoherence(p.env, p.R, constants).gamma_total,
            pt)
        deco_note = f"{type(exc).__name__}: {exc}"
    gamma_required = np.where(np.isfinite(gamma_deco),
                              np.maximum(gamma_deco, gamma_dyn_required),
                              gamma_dyn_required)

    sigma_min, _ = deco.wavepacket_spread_min(pt.m_probe, t_used, constants)
    sigma_ratio = sigma_min / pt.R
    _, dp_ratio = deco.momentum_floor(pt.m_probe, t_used, v, constants)
    mfp = deco.mean_free_path(pt.env, pt.R_probe, constants).value
    ke_eV = joules_to_ev(0.5 * pt.m_probe * v**2, constants)
    path = v * t_used
    achievable = pt.gamma_zeno_achievable

    quantities = {
        "theta_max": theta_max, "t_total": t_total, "t_used": t_used,
        "tau_Z": tau_Z, "breakdown": breakdown,
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


def evaluate_point(pt: ExperimentPoint,
                   constants: PhysicalConstants = CONST) -> ConstraintReport:
    """Evaluate every constraint at one parameter point.

    The one-cell case of the grid kernel behind :func:`sweep_region`.
    Sub-evaluation failures (e.g. a non-hyperbolic orbit) mark only the
    constraints that depend on them as indeterminate.
    """
    with np.errstate(over="raise", divide="raise"):
        quantities, checks = _evaluate(pt, constants)
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
    return {
        "point": {
            "R_m": pt.R, "density_kg_m3": pt.density, "beta": pt.beta,
            "zeta": pt.zeta, "t_R_s": pt.t_R, "v_m_s": pt.v,
            "M_kg": pt.M, "m_probe_kg": pt.m_probe, "R_probe_m": pt.R_probe,
            "pressure_Pa": pt.env.pressure, "T_env_K": pt.env.T_env,
            "T_int_K": pt.env.T_int, "t_total_cap_s": pt.t_total_cap,
            "theta_min_rad": pt.theta_min, "strictness": pt.strictness,
            "sigma_ratio_max": pt.sigma_ratio_max,
            "gamma_zeno_achievable_s": pt.gamma_zeno_achievable,
        },
        "theta_max_rad": report.theta_max,
        "t_total_s": report.t_total,
        "t_used_s": report.t_used,
        "tau_Z_s": report.tau_Z,
        "gamma_gas_s": report.breakdown.gamma_gas if report.breakdown else None,
        "gamma_bb_sc_s": report.breakdown.gamma_bb_sc if report.breakdown else None,
        "gamma_bb_abs_s": report.breakdown.gamma_bb_abs if report.breakdown else None,
        "gamma_bb_em_s": report.breakdown.gamma_bb_em if report.breakdown else None,
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
    pt = base
    env = base.env
    scatter_axes = {k: v for k, v in assignments.items() if k in ("R", "v", "t_R")}
    if len(scatter_axes) > 2:
        raise InvalidParameterError("at most two of R, v, t_R may be axes")
    if {"R", "v"} <= set(scatter_axes):
        pt = replace(pt, R=scatter_axes["R"],
                     t_R=scatter_axes["R"] / scatter_axes["v"])
    elif {"R", "t_R"} <= set(scatter_axes):
        pt = replace(pt, R=scatter_axes["R"], t_R=scatter_axes["t_R"])
    elif {"v", "t_R"} <= set(scatter_axes):
        pt = replace(pt, R=scatter_axes["v"] * scatter_axes["t_R"],
                     t_R=scatter_axes["t_R"])
    elif "R" in scatter_axes:
        pt = replace(pt, R=scatter_axes["R"])
    elif "v" in scatter_axes:
        pt = replace(pt, t_R=pt.R / scatter_axes["v"])
    elif "t_R" in scatter_axes:
        pt = replace(pt, t_R=scatter_axes["t_R"])
    if "p" in assignments:
        env = replace(env, pressure=assignments["p"])
    if "T" in assignments:
        env = replace(env, T_env=assignments["T"], T_int=assignments["T"])
    if env is not base.env:
        pt = replace(pt, env=env)
    if "m_probe" in assignments:
        pt = replace(pt, m_probe=assignments["m_probe"])
    return pt


@dataclass(frozen=True)
class RegionRow:
    axis1: float
    axis2: float
    theta_max: float
    t_total: float
    gamma_required: float
    sigma_ratio: float
    mfp: float
    KE_eV: float
    passed: bool


def sweep_region(axis1: tuple[str, np.ndarray], axis2: tuple[str, np.ndarray],
                 base: ExperimentPoint,
                 constants: PhysicalConstants = CONST) -> list[RegionRow]:
    """Evaluate a 2D grid of points; rows ordered axis1-major.

    Axis names come from {R, v, t_R, p, T, m_probe}; values should be
    log-spaced for the usual decade-spanning sweeps.  The two axes are
    broadcast against each other (axis1 down, axis2 across) and applied
    to ``base`` by the :func:`_apply_axes` rules, giving one grid point
    whose fields are per-cell arrays; it is validated as a whole and
    evaluated in one pass of the array kernel (see
    :func:`evaluate_point`, its one-cell case).  A cell whose duration
    or decoherence evaluation fails is indeterminate and does not pass;
    an overflow or division by zero anywhere raises FloatingPointError.
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
        quantities, checks = _evaluate(grid, constants)
    passed = True
    for _, _, _, margin, failed, _ in checks:
        passed = passed & np.logical_not(failed) & (margin >= 1.0)
    columns = (a1, a2, quantities["theta_max"], quantities["t_total"],
               quantities["gamma_zeno_required"], quantities["sigma_ratio"],
               quantities["mfp"], quantities["kinetic_energy_eV"], passed)
    shape = (a1.size, a2.size)
    return [RegionRow(*row) for row in zip(
        *(np.broadcast_to(c, shape).ravel().tolist() for c in columns))]


def region_to_csv(rows, fh, header_comment: str | None = None):
    """CSV: axis1,axis2,theta_max,t_total,gamma_required,sigma_ratio,mfp,KE_eV,pass."""
    if header_comment:
        fh.write(f"# {header_comment}\n")
    fh.write("axis1,axis2,theta_max,t_total,gamma_required,"
             "sigma_ratio,mfp,KE_eV,pass\n")
    for r in rows:
        fh.write(f"{r.axis1:.9g},{r.axis2:.9g},{r.theta_max:.9g},"
                 f"{r.t_total:.9g},{r.gamma_required:.9g},{r.sigma_ratio:.9g},"
                 f"{r.mfp:.9g},{r.KE_eV:.9g},{int(r.passed)}\n")
