"""Command-line front-end: reproducible figure and table generation.

Each subcommand runs in three stages in :func:`run`: resolve (validate
the parameters), compute (the command's runner maps them to its files
as text), write.  Every CSV/SVG file carries the fully resolved
configuration in a header line and every JSON file under ``"config"``,
so any output file can be regenerated from itself.  Files are written
only after the computation has finished: each to a temp file beside it
first, and these are renamed into place only once all are written and
no target is a directory, so a failed run leaves none of its files
(short of a failing rename) and no temp file.  Identical parameters
give byte-identical output: the one random draw, ``scatter
--collapsed random``, takes its ``--seed`` from them.

Exit codes: 0 success, 2 validation error, 3 numerical failure (a toolkit
error, or an overflow, division by zero or numpy/scipy domain error in
the arithmetic), 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import decoherence as deco
from . import feasibility, scatter, zeno
from .constants import CONST
from .elementwise import csv_text, require
from .errors import InvalidParameterError, ZenogravError
from .massdist import make_superposed_source
from .schrod1d import (DEFAULT_GRID, MAX_GRID_POINTS, PotentialSpec1D,
                       classify_ground_state, potential_gradient, solve_eigen)

T_R_FIGURE = 10 ** 1.1   # s, the two-lobe pattern preset

# (type, default, unit, positivity) per parameter; default None means
# derived from other parameters at resolve time.
_POS = "pos"        # value must be > 0
_NONNEG = "nonneg"  # value must be >= 0
_FLAG = "flag"      # value must be 0 or 1
_ANY = "any"

# The feasibility point's parameters, read from the metadata of its
# fields, with the environment's in place of ``env``.
_POINT_SCHEMA = {
    f.name: (float, f.default, f.metadata["help"], f.metadata["domain"])
    for point_field in fields(feasibility.ExperimentPoint)
    for f in (fields(deco.Environment) if point_field.name == "env"
              else [point_field])
    if f.metadata}

PARAM_SCHEMAS = {
    "scatter": {
        "R": _POINT_SCHEMA["R"],
        "density": _POINT_SCHEMA["density"],
        "d": (float, None, "m, lobe separation (default 2R)", _NONNEG),
        "beta": (float, 1.2, "impact parameter in units of R", _POS),
        "l": (float, 0.0, "m, launch offset along x", _ANY),
        "t_R": (float, T_R_FIGURE, "s, R/v", _POS),
        "collapsed": (str, "none", "none|left|right|random source coin", _ANY),
        "seed": (int, 0, "seed of the --collapsed random coin", _NONNEG),
        "rtol": (float, scatter.DEFAULT_RTOL, "integrator tolerance", _POS),
    },
    "pattern": {
        "R": _POINT_SCHEMA["R"],
        "density": _POINT_SCHEMA["density"],
        "d": (float, None, "m, lobe separation (default 2R)", _NONNEG),
        "beta_min": (float, 1.2, "grid lower beta", _POS),
        "beta_max": (float, 2.0, "grid upper beta", _POS),
        "l_min": (float, 0.0, "m, grid lower offset", _NONNEG),
        "l_max": (float, None, "m, grid upper offset (default 2R)", _NONNEG),
        "n_b": (int, 40, f"beta grid points; n_b*n_l, doubled if mirrored, "
                f"at most {MAX_GRID_POINTS}", _POS),
        "n_l": (int, 40, f"offset grid points; n_b*n_l, doubled if mirrored, "
                f"at most {MAX_GRID_POINTS}", _POS),
        "t_R": (float, T_R_FIGURE, "s, R/v", _POS),
        "svg": (int, 1, "also emit SVG (0/1)", _FLAG),
        "mirror": (int, 1, "mirror offsets to -l (0/1)", _FLAG),
    },
    "eigen": {
        "a": (float, 1.0, "x^2 coefficient (dimensionless)", _ANY),
        "b": (float, 4.0, "x^4 coefficient (dimensionless)", _ANY),
        "c": (float, 1.0, "x^6 coefficient (dimensionless)", _POS),
        "M": (float, 1e-11, "kg, source mass", _POS),
        "d": (float, 1e-5, "m, length unit", _POS),
        "x_max": (float, DEFAULT_GRID[1], "half-width of the grid, units of d", _POS),
        "n_points": (int, DEFAULT_GRID[2], f"grid points, at most {MAX_GRID_POINTS}",
                     _POS),
    },
    "zeno": {
        "g_over_hbar": (float, 1.0, "1/s, coupling over hbar (freeze time 1/g)", _POS),
        "probe_splitting_ratio": (float, 0.7, "probe level splitting / g", _ANY),
        "N": (int, 100, "measurements per run", _POS),
        "tau_min_ratio": (float, 1e-4, "smallest tau over freeze time", _POS),
        "tau_max_ratio": (float, 1e-2, "largest tau over freeze time", _POS),
        "n_tau": (int, 9, f"tau grid points (log), at most {MAX_GRID_POINTS}",
                  _POS),
    },
    "decoherence": {
        "R_min": (float, 1e-7, "m, sweep lower radius", _POS),
        "R_max": (float, 1e-4, "m, sweep upper radius", _POS),
        "n_R": (int, 25, f"radius grid points (log), at most {MAX_GRID_POINTS}",
                _POS),
        **{key: _POINT_SCHEMA[key] for key in ("pressure", "T_env", "T_int")},
    },
    "report": _POINT_SCHEMA,
    "feasibility": {
        **_POINT_SCHEMA,
        "axis1": (str, "t_R", f"first axis, one of {feasibility.SWEEP_AXES}", _ANY),
        "a1_min": (float, 1.0, "axis1 lower bound", _POS),
        "a1_max": (float, 100.0, "axis1 upper bound", _POS),
        "n1": (int, 16, f"axis1 grid points (log); n1*n2 at most "
               f"{MAX_GRID_POINTS} (~0.7 GB)", _POS),
        "axis2": (str, "R", f"second axis, one of {feasibility.SWEEP_AXES}", _ANY),
        "a2_min": (float, 1e-6, "axis2 lower bound", _POS),
        "a2_max": (float, 1e-4, "axis2 upper bound", _POS),
        "n2": (int, 16, f"axis2 grid points (log); n1*n2 at most "
               f"{MAX_GRID_POINTS} (~0.7 GB)", _POS),
    },
}


def resolve_params(command: str, raw: dict) -> dict:
    """Validate raw key/value pairs against the command schema.

    Unknown keys are rejected; every value is type-coerced and checked
    against its documented domain, with the unit in the error message.
    A value from a config file is held to what its text would pass on
    the command line: a bool is no value of any key, and a float is no
    int (1500.9 would be cut to 1500).
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
                # bool is an int subclass, and int() truncates a float
                if isinstance(raw[key], bool) or (
                        typ is int and isinstance(raw[key], float)):
                    raise TypeError
                val = typ(raw[key])
            except (TypeError, ValueError, OverflowError):
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
            if domain == _FLAG and val not in (0, 1):
                raise InvalidParameterError(f"--{key} must be 0 or 1 ({unit}), got {val}")
        params[key] = val
    # derived defaults
    if command in ("scatter", "pattern") and params.get("d") is None:
        params["d"] = 2.0 * params["R"]
    if command == "pattern" and params.get("l_max") is None:
        params["l_max"] = 2.0 * params["R"]
    return params


def _write_files(texts: dict):
    """Write each {path: text}: every text to a new temp file beside its
    path, then, once all are written and no path is a directory, each
    temp file renamed onto its path.  The temp files are opened as
    ``open(path, "w")`` opens a new file (mode 0o666 less the umask), and
    on any failure those not yet renamed are removed (a rename that fails
    leaves the files renamed before it)."""
    temps = {}
    try:
        for path, text in texts.items():
            tmp = os.path.join(os.path.dirname(path),
                               f".zenograv-{os.urandom(6).hex()}")
            with open(tmp, "x") as fh:
                temps[path] = tmp
                fh.write(text)
        for path in texts:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        path)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _within_budget(size_name: str, size: int) -> None:
    """Reject, before any array is made, a command whose arrays would hold
    more than MAX_GRID_POINTS elements, the eigen grid's budget (a
    300x300 feasibility grid peaks at 84 MB, so 10**6 cells take about
    0.7 GB)."""
    require(size <= MAX_GRID_POINTS, f"{size_name} must be <= "
            f"{MAX_GRID_POINTS} (the grid budget), got {{}}", size)


# ---------------------------------------------------------------------------
# Subcommand pipelines: runner(params, header) -> ({file name: text or
# JSON payload}, summary).  ``header`` is the config line of CSV and SVG
# files; a payload dict is written as JSON with the config under "config".
# ---------------------------------------------------------------------------

def _run_scatter(params, header):
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
        coin = ("left" if np.random.default_rng(params["seed"]).random() < 0.5
                else "right")
    if coin != "none":
        # the launch stays the superposed source's
        src = scatter.make_collapsed_sources(
            params["R"], params["density"], params["d"])[coin == "right"]
    traj = scatter.integrate_trajectory(src, cfg)
    files = {"trajectory.csv": csv_text("t,x,y,z,vx,vy,vz",
                                        [traj.t, *traj.x.T, *traj.v.T], header)}
    return files, (f"theta={traj.deflection_angle:.6g} rad  "
                   f"hit={traj.hit_source}  samples={len(traj.t)}  "
                   f"steps={traj.n_accepted}  rejected={traj.n_rejected}  "
                   f"rhs_calls={traj.n_rhs}  source={coin}")


def _run_pattern(params, header):
    _within_budget("n_b*n_l*(1+mirror)",
                   params["n_b"] * params["n_l"] * (1 + params["mirror"]))
    src = make_superposed_source(params["R"], params["density"], params["d"])
    v = params["R"] / params["t_R"]
    pattern = scatter.scan_pattern(
        src, (params["beta_min"], params["beta_max"]),
        (params["l_min"], params["l_max"]), params["n_b"], params["n_l"],
        v, mirror_l=bool(params["mirror"]))
    theta_ref = scatter.rutherford_angle(src.total_mass, v,
                                         params["beta_min"] * params["R"])
    files = {"pattern.csv": scatter.pattern_to_csv(pattern, header)}
    if params["svg"]:
        files["pattern.svg"] = scatter.pattern_to_svg(
            pattern, dashed_radius=2 * math.tan(theta_ref / 2),
            header_comment=header)
    clean = pattern.clean
    rmax = max(map(math.hypot, pattern.proj_x[clean].tolist(),
                   pattern.proj_y[clean].tolist()), default=float("nan"))
    return files, (f"probes={pattern.hit.size}  hits={pattern.n_hit}  "
                   f"failed={pattern.n_failed}  max|proj|={rmax:.4g}  "
                   f"closed-form={2*math.tan(theta_ref/2):.4g}")


def _run_eigen(params, header):
    spec = PotentialSpec1D(a=params["a"], b=params["b"], c=params["c"],
                           M=params["M"], d=params["d"])
    grid = (-params["x_max"], params["x_max"], params["n_points"])
    sol = solve_eigen(spec, grid=grid)
    cls = classify_ground_state(sol, spec)
    files = {
        "eigen.csv": csv_text(
            "x,V_of_x,psi0,psi1",
            [sol.x, sol.potential, *sol.wavefunctions[:2]], header),
        "eigen_summary.json": {
            "E0_J": sol.energies[0], "E1_J": sol.energies[1],
            "gap_J": sol.gap_01,
            "gradient_J_per_m": potential_gradient(spec, 1.0),
            "label": cls.label,
            "relative_gap": cls.relative_gap,
            "outside_fraction": cls.outside_fraction,
        },
    }
    return files, (f"E0={sol.energies[0]:.4g} J  E1={sol.energies[1]:.4g} J  "
                   f"label={cls.label}")


def _run_zeno(params, header):
    _within_budget("n_tau", params["n_tau"])
    g = params["g_over_hbar"] * CONST.hbar
    sys_model = zeno.spin_pair_model(g, probe_splitting=params[
        "probe_splitting_ratio"] * g)
    tau_Z = CONST.hbar / g
    alpha0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    taus = np.logspace(math.log10(params["tau_min_ratio"]),
                       math.log10(params["tau_max_ratio"]),
                       params["n_tau"]) * tau_Z
    N = params["N"]
    with np.errstate(over="raise"):
        run = zeno.strobo_evolve(sys_model, taus, N, alpha0)
        formula = zeno.survival_probability(taus, tau_Z, N)
    files = {"zeno_scan.csv": csv_text(
        "tau,N,survival_sim,survival_formula,trace_dist",
        [taus, N, run.survival_prob, formula, run.effective_H_error], header)}
    return files, f"freeze_time={tau_Z:.6g} s  N={N}  tau points={len(taus)}"


def _environment(params) -> deco.Environment:
    return deco.Environment(pressure=params["pressure"], T_env=params["T_env"],
                            T_int=params["T_int"])


def _run_decoherence(params, header):
    _within_budget("n_R", params["n_R"])
    env = _environment(params)
    Rs = np.logspace(math.log10(params["R_min"]), math.log10(params["R_max"]),
                     params["n_R"])
    with np.errstate(over="raise", divide="raise"):
        b = deco.total_decoherence(env, Rs)
    files = {"decoherence_sweep.csv": csv_text(
        "R,p,T_env,T_int,gamma_gas,gamma_bb_sc,gamma_bb_abs,gamma_bb_em,"
        "gamma_total",
        [Rs, env.pressure, env.T_env, env.T_int, b.gamma_gas, b.gamma_bb_sc,
         b.gamma_bb_abs, b.gamma_bb_em, b.gamma_total], header)}
    return files, f"R points={len(Rs)}  p={env.pressure} Pa  T={env.T_env} K"


def _point_from_params(params) -> feasibility.ExperimentPoint:
    return feasibility.ExperimentPoint(env=_environment(params), **{
        f.name: params[f.name] for f in fields(feasibility.ExperimentPoint)
        if f.name != "env"})


def _run_report(params, header):
    rep = feasibility.evaluate_point(_point_from_params(params))
    files = {"report.json": feasibility.report_to_dict(rep)}
    return files, (f"pass={rep.passed}  theta_max={rep.theta_max:.4g} rad  "
                   f"t_total={rep.t_total:.4g} s  "
                   f"gamma_required={rep.gamma_zeno_required:.4g} 1/s  "
                   f"KE={rep.kinetic_energy_eV:.4g} eV")


def _run_feasibility(params, header):
    _within_budget("n1*n2", params["n1"] * params["n2"])
    base = _point_from_params(params)
    axes = [(params[f"axis{i}"], np.logspace(math.log10(params[f"a{i}_min"]),
                                             math.log10(params[f"a{i}_max"]),
                                             params[f"n{i}"])) for i in (1, 2)]
    grid = feasibility.sweep_region(*axes, base)
    files = {"region.csv": feasibility.region_to_csv(grid, header)}
    n_pass = np.count_nonzero(grid.passed)
    return files, (f"grid={params['n1']}x{params['n2']} over "
                   f"({params['axis1']},{params['axis2']})  pass={n_pass}/"
                   f"{grid.passed.size}")


_RUNNERS = {
    "scatter": _run_scatter,
    "pattern": _run_pattern,
    "eigen": _run_eigen,
    "zeno": _run_zeno,
    "decoherence": _run_decoherence,
    "feasibility": _run_feasibility,
    "report": _run_report,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a malformed command line: one line, exit 2
        self.exit(2, f"zenograv: validation error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing does not change it)."""
    parser = _Parser(
        prog="zenograv",
        description="Frozen-source gravitational scattering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in PARAM_SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON file of parameters")
        p.add_argument("--output-dir", default=".", help="output directory")
        for key, (typ, default, unit, _) in schema.items():
            p.add_argument(f"--{key}", type=str, default=None,
                           help=f"{unit} (default {default})")
    return parser


def run(command: str, raw_params: dict, output_dir: str) -> str:
    """Resolve, compute and write one subcommand; returns the summary line.

    The output directory is made before the computation, so that a bad
    ``output_dir`` fails first; the files are written after it, so that
    a failed computation writes none.
    """
    params = resolve_params(command, raw_params)
    os.makedirs(output_dir, exist_ok=True)
    config = {"command": command, "params": params}
    header = "zenograv config: " + json.dumps(config, sort_keys=True)
    files, summary = _RUNNERS[command](params, header)
    texts = {}
    for name, content in files.items():
        if isinstance(content, dict):   # a JSON payload
            content = json.dumps({**content, "config": config}, indent=1,
                                 sort_keys=True) + "\n"
        texts[os.path.join(output_dir, name)] = content
    _write_files(texts)
    return f"{summary}  -> {', '.join(texts)}"


_VALUE_FLAGS = {f"--{key}" for schema in PARAM_SCHEMAS.values()
                for key in schema}


def _bind_dash_values(argv: list) -> list:
    """argv with ``--key -x`` joined into ``--key=-x`` for schema keys:
    argparse takes a token that starts with ``-`` for a flag unless it is
    a plain negative number such as -1 or -1.5 (``--`` stays a flag)."""
    out = []
    for arg in argv:
        if (out and out[-1] in _VALUE_FLAGS and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _bind_dash_values(sys.argv[1:] if argv is None else argv))
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            print(f"zenograv: cannot read config: {exc}", file=sys.stderr)
            return 4
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"zenograv: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(raw, dict):
            print("zenograv: validation error: config must be a JSON object, "
                  f"got {type(raw).__name__}", file=sys.stderr)
            return 2
    raw.update((key, getattr(args, key)) for key in PARAM_SCHEMAS[args.command]
               if getattr(args, key) is not None)
    try:
        with warnings.catch_warnings(record=True) as caught:
            summary = run(args.command, raw, args.output_dir)
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
    for w in caught:   # one line each, and none from a failed run
        print(f"zenograv: warning: {w.message}", file=sys.stderr)
    print(f"zenograv {args.command}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
