"""Command-line front-end: reproducible figure and table generation.

Each subcommand drives one module pipeline and emits CSV/JSON/SVG files
whose first line embeds the fully resolved configuration, so any output
file can be regenerated from its own header.  Writes are atomic
(temp-file rename); identical config and seed give byte-identical output.

Exit codes: 0 success, 2 validation error, 3 numerical failure (a toolkit
error, or an overflow, division by zero or numpy/scipy domain error in
the arithmetic), 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import decoherence as deco
from . import feasibility, scatter, zeno
from .constants import CONST
from .errors import InvalidParameterError, ZenogravError
from .massdist import make_superposed_source
from .schrod1d import (PotentialSpec1D, classify_ground_state,
                       potential_gradient, solve_eigen)

T_R_FIGURE = 10 ** 1.1   # s, the two-lobe pattern preset
T_R_SUMMARY = 10.0       # s, the feasibility summary preset

# (type, default, unit, positivity) per parameter; default None means
# derived from other parameters at resolve time.
_POS = "pos"        # value must be > 0
_NONNEG = "nonneg"  # value must be >= 0
_ANY = "any"

PARAM_SCHEMAS = {
    "scatter": {
        "R": (float, 1e-5, "m, source sphere radius", _POS),
        "density": (float, 2600.0, "kg/m^3, source density", _POS),
        "d": (float, None, "m, lobe separation (default 2R)", _NONNEG),
        "beta": (float, 1.2, "impact parameter in units of R", _POS),
        "l": (float, 0.0, "m, launch offset along x", _ANY),
        "t_R": (float, T_R_FIGURE, "s, R/v", _POS),
        "m_probe": (float, 1e-18, "kg, probe mass", _POS),
        "collapsed": (str, "none", "none|left|right|random source coin", _ANY),
        "rtol": (float, scatter.DEFAULT_RTOL, "integrator tolerance", _POS),
    },
    "pattern": {
        "R": (float, 1e-5, "m, source sphere radius", _POS),
        "density": (float, 2600.0, "kg/m^3, source density", _POS),
        "d": (float, None, "m, lobe separation (default 2R)", _NONNEG),
        "beta_min": (float, 1.2, "grid lower beta", _POS),
        "beta_max": (float, 2.0, "grid upper beta", _POS),
        "l_min": (float, 0.0, "m, grid lower offset", _NONNEG),
        "l_max": (float, None, "m, grid upper offset (default 2R)", _NONNEG),
        "n_b": (int, 40, "beta grid points", _POS),
        "n_l": (int, 40, "offset grid points", _POS),
        "t_R": (float, T_R_FIGURE, "s, R/v", _POS),
        "m_probe": (float, 1e-18, "kg, probe mass", _POS),
        "svg": (int, 1, "also emit SVG (0/1)", _NONNEG),
        "mirror": (int, 1, "mirror offsets to -l (0/1)", _NONNEG),
    },
    "eigen": {
        "a": (float, 1.0, "x^2 coefficient (dimensionless)", _ANY),
        "b": (float, 4.0, "x^4 coefficient (dimensionless)", _ANY),
        "c": (float, 1.0, "x^6 coefficient (dimensionless)", _POS),
        "M": (float, 1e-11, "kg, source mass", _POS),
        "d": (float, 1e-5, "m, length unit", _POS),
        "n_states": (int, 2, "eigenstates to solve", _POS),
        "x_max": (float, 4.0, "half-width of the grid, units of d", _POS),
        "n_points": (int, 4000, "grid points", _POS),
    },
    "zeno": {
        "g_over_hbar": (float, 1.0, "1/s, coupling over hbar (freeze time 1/g)", _POS),
        "probe_splitting_ratio": (float, 0.7, "probe level splitting / g", _ANY),
        "N": (int, 100, "measurements per run", _POS),
        "tau_min_ratio": (float, 1e-4, "smallest tau over freeze time", _POS),
        "tau_max_ratio": (float, 1e-2, "largest tau over freeze time", _POS),
        "n_tau": (int, 9, "tau grid points (log)", _POS),
    },
    "decoherence": {
        "R_min": (float, 1e-7, "m, sweep lower radius", _POS),
        "R_max": (float, 1e-4, "m, sweep upper radius", _POS),
        "n_R": (int, 25, "radius grid points (log)", _POS),
        "pressure": (float, 1e-15, "Pa", _NONNEG),
        "T_env": (float, 1.0, "K, environment temperature", _POS),
        "T_int": (float, 1.0, "K, internal temperature", _POS),
    },
}

_POINT_SCHEMA = {
    "R": (float, 1e-5, "m, source sphere radius", _POS),
    "density": (float, 2600.0, "kg/m^3, source density", _POS),
    "beta": (float, 1.2, "impact margin, > 1", _POS),
    "zeta": (float, 0.75, "anomaly fraction in (0,1)", _POS),
    "t_R": (float, T_R_SUMMARY, "s, R/v", _POS),
    "m_probe": (float, 1e-18, "kg, probe mass", _POS),
    "R_probe": (float, 1e-6, "m, probe radius (mean free path)", _NONNEG),
    "pressure": (float, 1e-15, "Pa", _NONNEG),
    "T_env": (float, 1.0, "K, environment temperature", _POS),
    "T_int": (float, 1.0, "K, internal temperature", _POS),
    "t_total_cap": (float, 100.0, "s, run-duration budget", _POS),
    "theta_min": (float, 1e-4, "rad, detector angular floor", _POS),
    "strictness": (float, 100.0, "the >>-means->=-100x factor", _POS),
    "sigma_ratio_max": (float, 0.02, "classicality ceiling on sigma/R", _POS),
    "gamma_zeno_achievable": (float, 1e3, "1/s, achievable rate ceiling", _POS),
}

PARAM_SCHEMAS["report"] = dict(_POINT_SCHEMA)
PARAM_SCHEMAS["feasibility"] = dict(_POINT_SCHEMA)
PARAM_SCHEMAS["feasibility"].update({
    "axis1": (str, "t_R", f"first axis, one of {feasibility.SWEEP_AXES}", _ANY),
    "a1_min": (float, 1.0, "axis1 lower bound", _POS),
    "a1_max": (float, 100.0, "axis1 upper bound", _POS),
    "n1": (int, 16, "axis1 grid points (log)", _POS),
    "axis2": (str, "R", f"second axis, one of {feasibility.SWEEP_AXES}", _ANY),
    "a2_min": (float, 1e-6, "axis2 lower bound", _POS),
    "a2_max": (float, 1e-4, "axis2 upper bound", _POS),
    "n2": (int, 16, "axis2 grid points (log)", _POS),
})


def resolve_params(command: str, raw: dict) -> dict:
    """Validate raw key/value pairs against the command schema.

    Unknown keys are rejected; every value is type-coerced and checked
    against its documented domain, with the unit in the error message.
    """
    schema = PARAM_SCHEMAS[command]
    unknown = set(raw) - set(schema)
    if unknown:
        raise InvalidParameterError(
            f"unknown parameter(s) for {command!r}: {sorted(unknown)}; "
            f"valid keys: {sorted(schema)}")
    params = {}
    for key, (typ, default, unit, domain) in schema.items():
        if key in raw and raw[key] is not None:
            try:
                val = typ(raw[key])
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"--{key} ({unit}): cannot parse {raw[key]!r} as {typ.__name__}")
        else:
            val = default
        if val is not None and isinstance(val, (int, float)):
            # an int beyond the float range is no more usable than inf
            if not (abs(val) <= sys.float_info.max):
                raise InvalidParameterError(
                    f"--{key} must be finite ({unit}), got {raw[key]!r:.40}")
            if domain == _POS and val <= 0:
                raise InvalidParameterError(f"--{key} must be > 0 ({unit}), got {val}")
            if domain == _NONNEG and val < 0:
                raise InvalidParameterError(f"--{key} must be >= 0 ({unit}), got {val}")
        params[key] = val
    # derived defaults
    if command in ("scatter", "pattern") and params.get("d") is None:
        params["d"] = 2.0 * params["R"]
    if command == "pattern" and params.get("l_max") is None:
        params["l_max"] = 2.0 * params["R"]
    return params


def _atomic_write(path: str, text: str):
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".zenograv-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_line(command: str, params: dict, seed: int) -> str:
    payload = {"command": command, "params": params, "seed": seed}
    return "zenograv config: " + json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommand pipelines
# ---------------------------------------------------------------------------

def _run_scatter(params, outdir, seed):
    src = make_superposed_source(params["R"], params["density"], params["d"])
    v = params["R"] / params["t_R"]
    cfg = scatter.ScatterConfig.for_source(src, b=params["beta"] * params["R"],
                                           l=params["l"], v=v,
                                           rtol=params["rtol"])
    coin = params["collapsed"]
    if coin not in ("none", "left", "right", "random"):
        raise InvalidParameterError(
            f'--collapsed must be none|left|right|random, got {coin!r}')
    if coin == "random":
        coin = "left" if np.random.default_rng(seed).random() < 0.5 else "right"
    if coin == "none":
        traj = scatter.integrate_trajectory(src, cfg, params["m_probe"])
    else:
        left, right = scatter.make_collapsed_sources(
            params["R"], params["density"], params["d"])
        traj = scatter.collapsed_scatter(left, right, cfg,
                                         params["m_probe"], coin)
    lines = [f"# {_config_line('scatter', params, seed)}",
             "t,x,y,z,vx,vy,vz"]
    for t, x, vel in zip(traj.t, traj.x, traj.v):
        lines.append(f"{t:.9g},{x[0]:.9g},{x[1]:.9g},{x[2]:.9g},"
                     f"{vel[0]:.9g},{vel[1]:.9g},{vel[2]:.9g}")
    path = os.path.join(outdir, "trajectory.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return (f"theta={traj.deflection_angle:.6g} rad  hit={traj.hit_source}  "
            f"samples={len(traj.t)}  steps={traj.n_accepted}  "
            f"rejected={traj.n_rejected}  rhs_calls={traj.n_rhs}  "
            f"source={coin}  -> {path}")


def _run_pattern(params, outdir, seed):
    src = make_superposed_source(params["R"], params["density"], params["d"])
    v = params["R"] / params["t_R"]
    pattern = scatter.scan_pattern(
        src, (params["beta_min"], params["beta_max"]),
        (params["l_min"], params["l_max"]), params["n_b"], params["n_l"],
        v, params["m_probe"], mirror_l=bool(params["mirror"]))
    header = _config_line("pattern", params, seed)
    buf = io.StringIO()
    scatter.pattern_to_csv(pattern, buf, header_comment=header)
    csv_path = os.path.join(outdir, "pattern.csv")
    _atomic_write(csv_path, buf.getvalue())
    emitted = [csv_path]
    theta_ref = scatter.rutherford_angle(
        4.0 / 3.0 * np.pi * params["density"] * params["R"] ** 3, v,
        params["beta_min"] * params["R"])
    if params["svg"]:
        buf = io.StringIO()
        scatter.pattern_to_svg(pattern, buf,
                               dashed_radius=2 * math.tan(theta_ref / 2),
                               header_comment=header)
        svg_path = os.path.join(outdir, "pattern.svg")
        _atomic_write(svg_path, buf.getvalue())
        emitted.append(svg_path)
    pts = pattern.points
    rmax = max(math.hypot(*p.proj) for p in pts) if pts else float("nan")
    return (f"probes={len(pattern.records)}  hits={pattern.n_hit}  "
            f"failed={pattern.n_failed}  max|proj|={rmax:.4g}  "
            f"closed-form={2*math.tan(theta_ref/2):.4g}"
            f"  -> {', '.join(emitted)}")


def _run_eigen(params, outdir, seed):
    spec = PotentialSpec1D(a=params["a"], b=params["b"], c=params["c"],
                           M=params["M"], d=params["d"])
    grid = (-params["x_max"], params["x_max"], params["n_points"])
    sol = solve_eigen(spec, n_states=max(2, params["n_states"]), grid=grid)
    cls = classify_ground_state(sol, spec)
    x = sol.x
    V = spec.potential(x)
    lines = [f"# {_config_line('eigen', params, seed)}", "x,V_of_x,psi0,psi1"]
    for i in range(len(x)):
        lines.append(f"{x[i]:.9g},{V[i]:.9g},{sol.wavefunctions[0][i]:.9g},"
                     f"{sol.wavefunctions[1][i]:.9g}")
    csv_path = os.path.join(outdir, "eigen.csv")
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    summary = {
        "config": {"command": "eigen", "params": params, "seed": seed},
        "E0_J": sol.energies[0], "E1_J": sol.energies[1],
        "gap_J": sol.gap_01,
        "gradient_J_per_m": potential_gradient(spec, 1.0),
        "label": cls.label,
        "relative_gap": cls.relative_gap,
        "outside_fraction": cls.outside_fraction,
    }
    json_path = os.path.join(outdir, "eigen_summary.json")
    _atomic_write(json_path, json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return (f"E0={sol.energies[0]:.4g} J  E1={sol.energies[1]:.4g} J  "
            f"label={cls.label}  -> {csv_path}, {json_path}")


def _run_zeno(params, outdir, seed):
    g = params["g_over_hbar"] * CONST.hbar
    sys_model = zeno.spin_pair_model(g, probe_splitting=params[
        "probe_splitting_ratio"] * g)
    tau_Z = CONST.hbar / g
    alpha0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    taus = np.logspace(math.log10(params["tau_min_ratio"]),
                       math.log10(params["tau_max_ratio"]),
                       params["n_tau"]) * tau_Z
    N = params["N"]
    lines = [f"# {_config_line('zeno', params, seed)}",
             "tau,N,survival_sim,survival_formula,trace_dist"]
    for tau in taus:
        res = zeno.strobo_evolve(sys_model, tau, N, alpha0)
        p_form, _ = zeno.survival_probability(tau, tau_Z, N)
        lines.append(f"{tau:.9g},{N},{res.survival_prob:.9g},"
                     f"{p_form:.9g},{res.effective_H_error:.9g}")
    path = os.path.join(outdir, "zeno_scan.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return f"freeze_time={tau_Z:.6g} s  N={N}  tau points={len(taus)}  -> {path}"


def _run_decoherence(params, outdir, seed):
    env = deco.Environment(pressure=params["pressure"], T_env=params["T_env"],
                           T_int=params["T_int"])
    Rs = np.logspace(math.log10(params["R_min"]), math.log10(params["R_max"]),
                     params["n_R"])
    with np.errstate(over="raise", divide="raise"):
        b = deco.total_decoherence(env, Rs)
    lines = [f"# {_config_line('decoherence', params, seed)}",
             "R,p,T_env,T_int,gamma_gas,gamma_bb_sc,gamma_bb_abs,"
             "gamma_bb_em,gamma_total"]
    for R, gas, sc, ab, em, total in zip(
            *(x.tolist() for x in (Rs, b.gamma_gas, b.gamma_bb_sc,
                                   b.gamma_bb_abs, b.gamma_bb_em,
                                   b.gamma_total))):
        lines.append(f"{R:.9g},{env.pressure:.9g},{env.T_env:.9g},"
                     f"{env.T_int:.9g},{gas:.9g},{sc:.9g},{ab:.9g},{em:.9g},"
                     f"{total:.9g}")
    path = os.path.join(outdir, "decoherence_sweep.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return f"R points={len(Rs)}  p={env.pressure} Pa  T={env.T_env} K  -> {path}"


def _point_from_params(params) -> feasibility.ExperimentPoint:
    env = deco.Environment(pressure=params["pressure"], T_env=params["T_env"],
                           T_int=params["T_int"])
    return feasibility.ExperimentPoint(
        R=params["R"], density=params["density"], beta=params["beta"],
        zeta=params["zeta"], t_R=params["t_R"], m_probe=params["m_probe"],
        R_probe=params["R_probe"], env=env,
        t_total_cap=params["t_total_cap"], theta_min=params["theta_min"],
        strictness=params["strictness"],
        sigma_ratio_max=params["sigma_ratio_max"],
        gamma_zeno_achievable=params["gamma_zeno_achievable"])


def _run_report(params, outdir, seed):
    rep = feasibility.evaluate_point(_point_from_params(params))
    payload = feasibility.report_to_dict(rep)
    payload["config"] = {"command": "report", "params": params, "seed": seed}
    path = os.path.join(outdir, "report.json")
    _atomic_write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return (f"pass={rep.passed}  theta_max={rep.theta_max:.4g} rad  "
            f"t_total={rep.t_total:.4g} s  "
            f"gamma_required={rep.gamma_zeno_required:.4g} 1/s  "
            f"KE={rep.kinetic_energy_eV:.4g} eV  -> {path}")


def _run_feasibility(params, outdir, seed):
    base = _point_from_params(params)
    ax1 = (params["axis1"], np.logspace(math.log10(params["a1_min"]),
                                        math.log10(params["a1_max"]),
                                        params["n1"]))
    ax2 = (params["axis2"], np.logspace(math.log10(params["a2_min"]),
                                        math.log10(params["a2_max"]),
                                        params["n2"]))
    rows = feasibility.sweep_region(ax1, ax2, base)
    buf = io.StringIO()
    feasibility.region_to_csv(rows, buf,
                              header_comment=_config_line("feasibility",
                                                          params, seed))
    path = os.path.join(outdir, "region.csv")
    _atomic_write(path, buf.getvalue())
    n_pass = sum(r.passed for r in rows)
    return (f"grid={params['n1']}x{params['n2']} over "
            f"({params['axis1']},{params['axis2']})  pass={n_pass}/{len(rows)}"
            f"  -> {path}")


_RUNNERS = {
    "scatter": _run_scatter,
    "pattern": _run_pattern,
    "eigen": _run_eigen,
    "zeno": _run_zeno,
    "decoherence": _run_decoherence,
    "feasibility": _run_feasibility,
    "report": _run_report,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="zenograv",
        description="Frozen-source gravitational scattering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in PARAM_SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON file of parameters")
        p.add_argument("--output-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for stochastic sampling")
        for key, (typ, default, unit, _) in schema.items():
            p.add_argument(f"--{key}", type=str, default=None,
                           help=f"{unit} (default {default})")
    return parser


def run(command: str, raw_params: dict, output_dir: str, seed: int) -> str:
    """Resolve, validate and execute one subcommand; returns the summary line."""
    params = resolve_params(command, raw_params)
    os.makedirs(output_dir, exist_ok=True)
    return _RUNNERS[command](params, output_dir, seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw.update(json.load(fh))
        except OSError as exc:
            print(f"zenograv: cannot read config: {exc}", file=sys.stderr)
            return 4
        except json.JSONDecodeError as exc:
            print(f"zenograv: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
    schema = PARAM_SCHEMAS[args.command]
    for key in schema:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    try:
        summary = run(args.command, raw, args.output_dir, args.seed)
    except InvalidParameterError as exc:
        print(f"zenograv: validation error: {exc}", file=sys.stderr)
        return 2
    except (ZenogravError, ArithmeticError, ValueError) as exc:
        # ArithmeticError: float overflow or division by zero, including
        # numpy's FloatingPointError; ValueError: numpy/scipy domain errors
        message = " ".join(str(exc).split())
        print(f"zenograv: numerical failure: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"zenograv: I/O error: {exc}", file=sys.stderr)
        return 4
    print(f"zenograv {args.command}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
