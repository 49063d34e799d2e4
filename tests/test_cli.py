import contextlib
import hashlib
import io
import json
import math
import stat
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenograv import cli
from zenograv import decoherence as deco
from zenograv import feasibility, scatter
from zenograv.errors import InvalidParameterError
from zenograv.schrod1d import (MAX_GRID_POINTS, PotentialSpec1D,
                               classify_ground_state, solve_eigen)


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestReport:
    def test_defaults_pass(self, tmp_path, capsys):
        assert run_cli(["report", "--output-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "pass=True" in out
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["passed"] is True
        assert data["kinetic_energy_eV"] == pytest.approx(3.12e-12, rel=1e-2)
        assert data["config"]["params"]["t_R"] == 10.0

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_R": 31.0, "pressure": 1e-15}))
        assert run_cli(["report", "--config", cfg, "--t_R", "10.0",
                        "--output-dir", tmp_path]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["point"]["t_R_s"] == 10.0
        assert data["point"]["pressure_Pa"] == 1e-15

    def test_file_mode_is_that_of_open(self, tmp_path):
        # a written file gets the mode a new file opened by open() gets,
        # 0o666 less the umask, not a temp file's owner-only 0o600
        assert run_cli(["report", "--output-dir", tmp_path / "out"]) == 0
        with open(tmp_path / "plain", "w"):
            pass
        assert (stat.S_IMODE((tmp_path / "out" / "report.json").stat().st_mode)
                == stat.S_IMODE((tmp_path / "plain").stat().st_mode))

    @pytest.mark.parametrize("argv", [[], ["--t_R", "1e100"]])
    def test_report_json_is_the_evaluated_point(self, tmp_path, argv):
        # the file is evaluate_point's payload with the config added; at
        # t_R = 1e100 the time constraint is indeterminate (NaN margin),
        # so the two are compared as JSON text
        assert run_cli(["report", *argv, "--output-dir", tmp_path]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        config = data.pop("config")
        rep = feasibility.evaluate_point(cli._point_from_params(
            config["params"]))
        assert json.dumps(rep, sort_keys=True) == json.dumps(data,
                                                             sort_keys=True)
        assert (rep["constraints"]["time"]["passed"] is None) == bool(argv)


class TestValidation:
    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1.0}))
        assert run_cli(["report", "--config", cfg,
                        "--output-dir", tmp_path]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_domain_violation_mentions_unit(self, tmp_path, capsys):
        assert run_cli(["report", "--R", "-3", "--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "--R" in err and "m, source sphere radius" in err

    def test_unparseable_value(self, tmp_path, capsys):
        assert run_cli(["report", "--R", "tiny", "--output-dir", tmp_path]) == 2

    # a launch whose r_stop**2 or t_max overflows would never end, and a
    # far one must end within its few error-controlled steps; each runs
    # in its own process, so that a hang fails on the timeout
    @pytest.mark.parametrize("args,code,err", [
        (["pattern", "--d", "1e300", "--n_b", "1", "--n_l", "1", "--svg", "0"],
         2, "zenograv: validation error: r_stop**2 must be finite, got "
         "r_stop=inf\n"),
        (["scatter", "--beta", "4e16"], 0, ""),
        # bound, and aimed into the source: it fails at launch
        (["scatter", "--t_R", "1e300", "--beta", "0.5", "--l", "1e-5"], 3,
         "zenograv: numerical failure: UnterminatedTrajectoryError: probe did "
         "not escape r_stop=0.002 within t_max=1.5e+304\n"),
    ], ids=["d-1e300", "beta-4e16", "bound-into-source"])
    def test_far_launch_ends(self, tmp_path, args, code, err):
        proc = subprocess.run([sys.executable, "-m", "zenograv.cli", *args,
                               "--output-dir", str(tmp_path)],
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stderr) == (code, err)

    def test_bad_coin(self, tmp_path):
        assert run_cli(["scatter", "--collapsed", "sideways",
                        "--output-dir", tmp_path]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["report", "--config", tmp_path / "nope.json",
                        "--output-dir", tmp_path]) == 4

    # not JSON (or not UTF-8 text), or JSON whose top level is not an
    # object: one line, exit 2
    @pytest.mark.parametrize("text,error", [
        ("{not json", "config is not valid JSON: "),
        ("\xff{}", "config is not valid JSON: "),
        ("[1, 2]", "validation error: config must be a JSON object, got list"),
        ('[["R", 1e-5]]', "validation error: config must be a JSON object, "
         "got list"),
        ('"abc"', "validation error: config must be a JSON object, got str"),
        ("3", "validation error: config must be a JSON object, got int"),
        ("null", "validation error: config must be a JSON object, got "
         "NoneType"),
        ("true", "validation error: config must be a JSON object, got bool"),
    ], ids=["not-json", "not-utf8", "array", "pairs", "string", "number",
            "null", "true"])
    def test_malformed_config_file(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out"
        assert run_cli(["pattern", "--n_b", 1, "--n_l", 1, "--svg", 0,
                        "--config", cfg, "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"zenograv: {error}")
        assert err.count("\n") == 1
        assert not out.exists()

    # JSON numbers that no text on the command line would pass as: a
    # float is not cut to an int, a bool is not 0 or 1, and an int
    # beyond the float range is a validation error, not an overflow
    @pytest.mark.parametrize("command,value,error", [
        ("eigen", {"n_points": 1500.9}, "--n_points (grid points, at most "
         "1000000): cannot parse 1500.9 as int"),
        ("eigen", {"n_points": True}, "--n_points (grid points, at most "
         "1000000): cannot parse True as int"),
        ("pattern", {"svg": 0.5}, "--svg (also emit SVG (0/1)): cannot "
         "parse 0.5 as int"),
        ("report", {"R": True}, "--R (m, source sphere radius): cannot "
         "parse True as float"),
        ("report", {"R": 10**400}, f"--R (m, source sphere radius): cannot "
         f"parse {10**400} as float"),
        ("pattern", {"svg": 7}, "--svg must be 0 or 1 (also emit SVG "
         "(0/1)), got 7"),
        ("pattern", {"mirror": 3}, "--mirror must be 0 or 1 (mirror offsets "
         "to -l (0/1)), got 3"),
    ], ids=["float-for-int", "bool-for-int", "fraction-for-flag",
            "bool-for-float", "int-beyond-float", "svg-not-0-or-1",
            "mirror-not-0-or-1"])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command,
                                        value, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        assert run_cli([command, "--config", cfg,
                        "--output-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"zenograv: validation error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,error", [
        (["--svg", "7"], "--svg must be 0 or 1 (also emit SVG (0/1)), got 7"),
        (["--mirror", "3"], "--mirror must be 0 or 1 (mirror offsets to -l "
         "(0/1)), got 3"),
        (["--svg", "-1"], "--svg must be 0 or 1 (also emit SVG (0/1)), got -1"),
    ], ids=["svg-7", "mirror-3", "svg-minus-1"])
    def test_flag_outside_0_or_1(self, tmp_path, capsys, args, error):
        assert run_cli(["pattern", "--n_b", 1, "--n_l", 1, *args,
                        "--output-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"zenograv: validation error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,value", [
        ("eigen", {"n_points": 1500}), ("report", {"density": 2600})],
        ids=["eigen", "report"])
    def test_config_int_values_run(self, tmp_path, command, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        assert run_cli([command, "--config", cfg,
                        "--output-dir", tmp_path]) == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", [
        ["pattern", "--t_R", "inf"],
        ["pattern", "--t_R", "nan"],
        ["report", "--R", "nan"],
        ["eigen", "--a", "nan"],
    ])
    def test_rejected_as_validation_error(self, tmp_path, capsys, args):
        assert run_cli(args + ["--output-dir", tmp_path]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestNumericalFailure:
    def test_narrow_eigen_grid_exits_3(self, tmp_path, capsys):
        assert run_cli(["eigen", "--x_max", "1.5",
                        "--output-dir", tmp_path]) == 3
        assert "GridInsufficientError" in capsys.readouterr().err

    @pytest.mark.parametrize("args,error", [
        # source mass (4/3) pi rho R^3 overflows, in one point as in a grid
        (["report", "--R", "1e200"], "FloatingPointError"),
        # R = v t_R ~ 1e300..1e302: the grid's source mass overflows
        (["feasibility", "--axis1", "v", "--axis2", "t_R",
          "--a1_min", "1e300", "--a1_max", "1e300"], "FloatingPointError"),
        # the gas thermal wavelength divides by an underflowed sqrt(T)
        (["feasibility", "--axis1", "T", "--a1_min", "1e-300",
          "--a1_max", "1e-300"], "FloatingPointError"),
        # the rest-gas rate overflows: a grid runs with float overflow
        # raised, where one point (report) marks the constraint instead
        (["feasibility", "--axis1", "p", "--a1_min", "1e300", "--a1_max",
          "1e300", "--n1", "2", "--axis2", "R", "--a2_min", "1e-5",
          "--a2_max", "1e-5", "--n2", "1"],
         "FloatingPointError: overflow encountered in multiply"),
        # (1 - (tau/tau_Z)^2)^N overflows far outside the freeze regime
        (["zeno", "--tau_max_ratio", "1e300"], "FloatingPointError"),
    ])
    def test_arithmetic_failure_exits_3(self, tmp_path, capsys, args, error):
        assert run_cli(args + ["--output-dir", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"zenograv: numerical failure: {error}")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestBoundProbes:
    """A probe below escape speed fails at launch: integrated until
    t_max, each of these runs took from 7.6 s (pattern) to minutes."""

    @pytest.mark.parametrize("flag", ["--density", "--t_R"])
    def test_scatter_exits_3(self, tmp_path, capsys, flag):
        start = time.perf_counter()
        assert run_cli(["scatter", flag, "1e300", "--output-dir", tmp_path]) == 3
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("zenograv: numerical failure: "
                              "UnterminatedTrajectoryError: probe did not "
                              "escape r_stop=")
        assert err.count("\n") == 1

    def test_pattern_counts_them_failed(self, tmp_path, capsys):
        start = time.perf_counter()
        assert run_cli(["pattern", "--n_b", 2, "--n_l", 1, "--t_R", "3e4",
                        "--svg", 0, "--output-dir", tmp_path]) == 0
        assert time.perf_counter() - start < 5
        assert "  hits=0  failed=2  " in capsys.readouterr().out


class TestFailedRunWritesNothing:
    # a step after the first file's text is made fails: no file is written
    @pytest.mark.parametrize("command,target", [
        ("pattern", (scatter, "pattern_to_svg")),
        ("eigen", (cli, "potential_gradient")),
    ], ids=["pattern", "eigen"])
    def test_output_dir_stays_empty(self, tmp_path, capsys, monkeypatch,
                                    command, target):
        def fail(*args, **kwargs):
            raise FloatingPointError("injected")
        monkeypatch.setattr(*target, fail)
        args = ["--n_b", 2, "--n_l", 2] if command == "pattern" else []
        assert run_cli([command, *args, "--output-dir", tmp_path]) == 3
        assert capsys.readouterr().err == (
            "zenograv: numerical failure: FloatingPointError: injected\n")
        assert not list(tmp_path.iterdir())

    def test_file_type_without_a_config_stamp(self, tmp_path, capsys,
                                              monkeypatch):
        # run stamps each file with its config: a file of a type it has
        # no stamp for fails the run (exit 4) before any file is written
        monkeypatch.setitem(cli._RUNNERS, "eigen", lambda params: (
            {"eigen.csv": "x\n1\n", "eigen.txt": "1\n"}, "E0=1"))
        assert run_cli(["eigen", "--output-dir", tmp_path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("zenograv: I/O error: ") and "eigen.txt" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_directory_in_place_of_a_file(self, tmp_path, capsys):
        # pattern.svg is a directory: the run fails before any rename, so
        # it leaves neither pattern.csv nor a temp file
        (tmp_path / "pattern.svg").mkdir()
        assert run_cli(["pattern", "--n_b", 1, "--n_l", 1,
                        "--output-dir", tmp_path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("zenograv: I/O error: ") and "pattern.svg" in err
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["pattern.svg"]
        assert not list((tmp_path / "pattern.svg").iterdir())


class TestEigen:
    def test_summary_values(self, tmp_path):
        assert run_cli(["eigen", "--output-dir", tmp_path]) == 0
        data = json.loads((tmp_path / "eigen_summary.json").read_text())
        assert data["E0_J"] == pytest.approx(-1.0e-47, rel=0.02)
        assert data["E1_J"] == pytest.approx(-8.86e-48, rel=0.02)
        assert data["gradient_J_per_m"] == pytest.approx(4e-42, rel=0.15)
        assert data["label"] == "delocalized-triple-well"
        lines = (tmp_path / "eigen.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# zenograv config:")
        assert lines[1] == "x,V_of_x,psi0,psi1"
        assert len(lines) == 2 + 4000

    def test_summary_holds_the_classification(self, tmp_path):
        assert run_cli(["eigen", "--output-dir", tmp_path]) == 0
        data = json.loads((tmp_path / "eigen_summary.json").read_text())
        params = data["config"]["params"]
        spec = PotentialSpec1D(**{key: params[key]
                                  for key in ("a", "b", "c", "M", "d")})
        sol = solve_eigen(spec, grid=(-params["x_max"], params["x_max"],
                                      params["n_points"]))
        cls = classify_ground_state(sol, spec)
        assert cls == {key: data[key] for key in (
            "label", "relative_gap", "outside_fraction")}

    def test_oversized_grid_exits_2_without_allocating(self, tmp_path, capsys,
                                                       monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")
        monkeypatch.setattr(np, "linspace", no_grid)
        for n in (MAX_GRID_POINTS + 1, 10**11):
            assert run_cli(["eigen", "--n_points", n,
                            "--output-dir", tmp_path]) == 2
            assert capsys.readouterr().err == (
                f"zenograv: validation error: n_points must be <= "
                f"{MAX_GRID_POINTS} (the grid budget), got {n}\n")
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, size_name, size", [
    (["feasibility", "--n1", 1001, "--n2", 1000], "n1*n2", 1_001_000),
    (["feasibility", "--n1", 10**10, "--n2", 10**10], "n1*n2", 10**20),
    (["decoherence", "--n_R", MAX_GRID_POINTS + 1], "n_R",
     MAX_GRID_POINTS + 1),
    (["decoherence", "--n_R", 10**11], "n_R", 10**11),
    (["zeno", "--n_tau", MAX_GRID_POINTS + 1], "n_tau", MAX_GRID_POINTS + 1),
    (["zeno", "--n_tau", 10**11], "n_tau", 10**11),
    (["pattern", "--n_b", 500_000, "--n_l", 2], "n_b*n_l*(1+mirror)",
     2_000_000),
    (["pattern", "--n_b", 10**7, "--n_l", 10**7, "--mirror", 0],
     "n_b*n_l*(1+mirror)", 10**14),
])
def test_oversized_sweep_exits_2_without_allocating(tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    size_name, size):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")
    monkeypatch.setattr(np, "linspace", no_grid)
    monkeypatch.setattr(np, "logspace", no_grid)
    assert run_cli([*argv, "--output-dir", tmp_path]) == 2
    assert capsys.readouterr().err == (
        f"zenograv: validation error: {size_name} must be <= "
        f"{MAX_GRID_POINTS} (the grid budget), got {size}\n")
    assert not list(tmp_path.iterdir())


class TestPattern:
    def test_emits_csv_and_svg(self, tmp_path):
        assert run_cli(["pattern", "--n_b", 2, "--n_l", 2,
                        "--output-dir", tmp_path]) == 0
        csv_lines = (tmp_path / "pattern.csv").read_text().strip().split("\n")
        assert csv_lines[1] == "beta,l,b,theta_rad,proj_x,proj_y,hit"
        # 2x2 grid, nonzero offsets mirrored: 2 * (1 + 2) = 6 probes
        assert len(csv_lines) == 2 + 6
        svg = (tmp_path / "pattern.svg").read_text()
        assert svg.splitlines()[0].startswith("<?xml")
        assert "stroke-dasharray" in svg

    def test_summary_counts_failures(self, tmp_path, capsys):
        assert run_cli(["pattern", "--n_b", 2, "--n_l", 2,
                        "--output-dir", tmp_path]) == 0
        assert "  hits=0  failed=0  " in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli(["pattern", "--n_b", 2, "--n_l", 2,
                            "--output-dir", d]) == 0
        assert (d1 / "pattern.csv").read_bytes() == (d2 / "pattern.csv").read_bytes()
        assert (d1 / "pattern.svg").read_bytes() == (d2 / "pattern.svg").read_bytes()

    # sha256 of pattern.csv and pattern.svg, as emitted once the step was
    # set by the error control alone (x86-64 Linux, numpy 2.4): an engine
    # change that moves one byte of these fails here.  The grids are the
    # benchmark-shaped 12x12 and the 6x5 one of which some probes hit the
    # source, each on the two-lobe source and with --d 0.
    GOLDEN = {
        ("--n_b", "12", "--n_l", "12"): (
            "2130e304cc11481da3b61ea6d175795af0e67eff88ecc660bbf7778d7d0d787b",
            "1097b0e19b3fd169f6f49d7e3d4cb4d61e11da7b3135d619551a11c46b57b770"),
        ("--n_b", "12", "--n_l", "12", "--d", "0"): (
            "61851dc32ced02feaccb5cecbcf72023f8555d6af598b2a2026d6e164ee53232",
            "ef9825f6e0394b3d6b88dcd109dabc731ac908452543296e9ac64184d7f57ce7"),
        ("--n_b", "6", "--n_l", "5", "--beta_min", "0.3", "--beta_max",
         "1.6"): (
            "c1f784b2270b2122e7a8b56f8090c10d54b3f83badc53f3c4083398c1b7a964e",
            "b3e57c5391b52d0f7e35a6ec21965fcef4efc7e9505e0f4430ecce14a2213ed6"),
        ("--n_b", "6", "--n_l", "5", "--beta_min", "0.3", "--beta_max",
         "1.6", "--d", "0"): (
            "3dcc5bcf602f4954bdabf2a8e6eb5cd191666cf39deeb9eb57b7392f04a354b9",
            "7f18bffc6e806ebbd6ce8053e63ea26b02ee757322a5685d5a26eced652c8808"),
    }

    @pytest.mark.parametrize("grid", GOLDEN, ids=["12x12", "12x12-d0",
                                                  "6x5-hits", "6x5-hits-d0"])
    def test_golden_digests(self, grid, tmp_path):
        assert run_cli(["pattern", *grid, "--output-dir", tmp_path]) == 0
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("pattern.csv", "pattern.svg")) \
            == self.GOLDEN[grid]

    def test_no_temp_residue(self, tmp_path):
        assert run_cli(["pattern", "--n_b", 2, "--n_l", 1,
                        "--output-dir", tmp_path]) == 0
        assert not list(tmp_path.glob(".zenograv-*"))


class TestScatter:
    def test_trajectory_csv(self, tmp_path, capsys):
        assert run_cli(["scatter", "--l", "1e-5", "--output-dir", tmp_path]) == 0
        assert "theta=" in capsys.readouterr().out
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert lines[1] == "t,x,y,z,vx,vy,vz"
        assert len(lines) > 50

    def test_summary_counts_integrator_work(self, tmp_path, capsys):
        assert run_cli(["scatter", "--output-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        fields = dict(f.split("=", 1) for f in out.split() if "=" in f)
        samples, steps, rejected, rhs_calls = (
            int(fields[k]) for k in ("samples", "steps", "rejected", "rhs_calls"))
        assert steps == samples - 1
        assert rhs_calls == 2 + 6 * (steps + rejected)

    def test_random_coin_deterministic_by_seed(self, tmp_path, capsys):
        # the seed is a parameter, so a config file sets it as --seed does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        outs = []
        for d, seed in (("a", ["--seed", 3]), ("b", ["--seed", 3]),
                        ("c", ["--config", cfg])):
            assert run_cli(["scatter", "--collapsed", "random", *seed,
                            "--output-dir", tmp_path / d]) == 0
            outs.append(capsys.readouterr().out)
        assert len({"source=left" in out for out in outs}) == 1
        assert len({(tmp_path / d / "trajectory.csv").read_bytes()
                    for d in "abc"}) == 1

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        assert run_cli(["scatter", "--collapsed", "random", "--seed", -1,
                        "--output-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "zenograv: validation error: --seed must be >= 0 (seed of the "
            "--collapsed random coin), got -1\n")
        assert not (tmp_path / "out").exists()


class TestSweeps:
    def test_decoherence_csv_schema(self, tmp_path):
        assert run_cli(["decoherence", "--n_R", 4, "--output-dir", tmp_path]) == 0
        lines = (tmp_path / "decoherence_sweep.csv").read_text().strip().split("\n")
        assert lines[1] == ("R,p,T_env,T_int,gamma_gas,gamma_bb_sc,"
                            "gamma_bb_abs,gamma_bb_em,gamma_total")
        assert len(lines) == 2 + 4

    def test_zeno_csv_schema(self, tmp_path):
        assert run_cli(["zeno", "--n_tau", 3, "--N", 20,
                        "--output-dir", tmp_path]) == 0
        lines = (tmp_path / "zeno_scan.csv").read_text().strip().split("\n")
        assert lines[1] == "tau,N,survival_sim,survival_formula,trace_dist"
        row = lines[2].split(",")
        assert int(row[1]) == 20
        assert 0.0 <= float(row[2]) <= 1.0

    # sha256 of the default run's zeno_scan.csv, as emitted by the
    # strobo_evolve that powers the small part E = w - 1 (x86-64 Linux,
    # numpy 2.4.6): a change that moves one byte of it fails here
    ZENO_DEFAULT_SHA256 = (
        "9b80e36d82c7efa7ee77a6d8383b6d58e7a6d927c352f2a3e3673204f680369b")

    def test_zeno_default_digest(self, tmp_path):
        assert run_cli(["zeno", "--output-dir", tmp_path]) == 0
        data = (tmp_path / "zeno_scan.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.ZENO_DEFAULT_SHA256

    def test_zeno_billion_measurements(self, tmp_path):
        # O(log N) products per tau: 1e9 measurements take milliseconds
        start = time.perf_counter()
        assert run_cli(["zeno", "--N", 10**9, "--n_tau", 3,
                        "--output-dir", tmp_path]) == 0
        assert time.perf_counter() - start < 5.0
        lines = (tmp_path / "zeno_scan.csv").read_text().strip().split("\n")
        rows = [dict(zip(lines[1].split(","), line.split(",")))
                for line in lines[2:]]
        assert [row["N"] for row in rows] == ["1000000000"] * 3
        # tau = 1e-4 freeze times: about exp(-10); the rest underflow to 0
        assert float(rows[0]["survival_formula"]) == pytest.approx(
            math.exp(-10), rel=1e-6)
        for row in rows:
            assert float(row["survival_sim"]) == pytest.approx(
                float(row["survival_formula"]), rel=1e-6, abs=1e-300)

    def test_zeno_hundred_thousand_taus(self, tmp_path):
        # the whole tau grid is one stacked strobo_evolve call: 1e5 points
        # take about 1.5 s in a fresh process (one call per tau: 25-55 s)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "zenograv.cli", "zeno",
                               "--n_tau", "100000", "--output-dir",
                               str(tmp_path)],
                              capture_output=True, text=True, timeout=10)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = (tmp_path / "zeno_scan.csv").read_text().strip().split("\n")
        assert len(lines) == 2 + 100000
        assert elapsed < 5.0

    def test_zeno_deficit_below_the_rounding_of_one(self, tmp_path):
        # tau = 1e-9 freeze times: a per-step deficit of 1e-18, and
        # 1 - 1e-9 after 1e9 measurements; the closed form agrees
        assert run_cli(["zeno", "--N", 10**9, "--tau_min_ratio", "1e-9",
                        "--n_tau", 3, "--output-dir", tmp_path]) == 0
        lines = (tmp_path / "zeno_scan.csv").read_text().split("\n")
        assert lines[2].split(",")[2:4] == ["0.999999999", "0.999999999"]
        # tau = 10^-5.5: exp(-0.01), 0.990049834 to 9 digits
        assert lines[3].split(",")[2:4] == ["0.990049834", "0.990049834"]

    @pytest.mark.parametrize("args,rows", [
        (["--N", 10000, "--tau_max_ratio", "0.3", "--n_tau", 400], 400),
        (["--N", 7100000, "--n_tau", 1, "--tau_min_ratio", "1e-2",
          "--tau_max_ratio", "1e-2"], 1),
        (["--N", 10**9, "--n_tau", 1, "--tau_min_ratio", "8.5e-4",
          "--tau_max_ratio", "8.5e-4"], 1),
    ])
    def test_zeno_subnormal_survival(self, tmp_path, capsys, args, rows):
        # N (tau/tau_Z)^2 between about 710 and 745: a survival below the
        # smallest normal float still normalizes its conditional state
        assert run_cli(["zeno", *args, "--output-dir", tmp_path]) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "zeno_scan.csv").read_text().strip().split("\n")
        assert len(lines) == 2 + rows

    @pytest.mark.parametrize("ratio,N", [("1.5", 101), ("2", 1000)])
    def test_zeno_formula_is_nan_outside_freeze_regime(self, tmp_path, capsys,
                                                        ratio, N):
        # (1 - x^2)^N at x = 1.5 is -6.1e9 for N = 101 and overflows for
        # N = 1000: the closed-form column is NaN there instead
        assert run_cli(["zeno", "--tau_max_ratio", ratio, "--N", N,
                        "--n_tau", 3, "--output-dir", tmp_path]) == 0
        assert "regime" in capsys.readouterr().err
        lines = (tmp_path / "zeno_scan.csv").read_text().strip().split("\n")
        rows = [dict(zip(lines[1].split(","), line.split(",")))
                for line in lines[2:]]
        assert [row["survival_formula"] for row in rows][-1] == "nan"
        for row in rows[:-1]:
            assert 0.0 <= float(row["survival_formula"]) <= 1.0
        for row in rows:
            assert 0.0 <= float(row["survival_sim"]) <= 1.0

    def test_decoherence_sweep_matches_scalar_rates(self, tmp_path):
        # one elementwise call over the R grid writes what per-R scalar
        # calls would
        assert run_cli(["decoherence", "--pressure", "1e-12", "--n_R", 9,
                        "--output-dir", tmp_path]) == 0
        lines = (tmp_path / "decoherence_sweep.csv").read_text().split("\n")
        env = deco.Environment(1e-12, 1.0, 1.0)
        for line, R in zip(lines[2:], np.logspace(-7, -4, 9)):
            b = deco.total_decoherence(env, float(R))
            assert line == (f"{R:.9g},{1e-12:.9g},{1.0:.9g},{1.0:.9g},"
                            f"{b.gamma_gas:.9g},{b.gamma_bb_sc:.9g},"
                            f"{b.gamma_bb_abs:.9g},{b.gamma_bb_em:.9g},"
                            f"{b.gamma_total:.9g}")

    def test_feasibility_R_v_figure_preset(self, tmp_path):
        # FIGURES.md crossing-time contours: R = 1..100 m and
        # v = 1e-7..1e-5 m/s put t_R = R/v at 1e5..1e9 s, near the
        # parabolic limit of the probe orbit
        assert run_cli(["feasibility", "--axis1", "R", "--axis2", "v",
                        "--a2_min", "1e-7", "--a2_max", "1e-5",
                        "--output-dir", tmp_path]) == 0
        lines = (tmp_path / "region.csv").read_text().strip().split("\n")
        assert len(lines) == 2 + 16 * 16
        t_total = [float(line.split(",")[3]) for line in lines[2:]]
        assert all(math.isfinite(t) and t > 0 for t in t_total)

    def test_feasibility_region(self, tmp_path):
        assert run_cli(["feasibility", "--n1", 6, "--n2", 2,
                        "--a2_min", "1e-5", "--a2_max", "2e-5",
                        "--output-dir", tmp_path]) == 0
        lines = (tmp_path / "region.csv").read_text().strip().split("\n")
        assert lines[1].startswith("axis1,axis2,theta_max")
        assert len(lines) == 2 + 12


# arbitrary text, plus number-like text that parses: huge and tiny
# magnitudes, non-finite spellings and integers beyond the float range
_VALUE_TEXT = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.integers().map(str),
    st.integers(min_value=10**300, max_value=10**1000).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e309", "-0", "0x10",
                     "1_000", " 7 ", "5e-324"]))


@settings(max_examples=150, deadline=None)
@given(text=_VALUE_TEXT)
def test_resolve_params_accepts_or_rejects_any_text(text):
    # every command and schema key: the value resolves or is a
    # validation error (exit 2); no other exception escapes
    for command, schema in cli.PARAM_SCHEMAS.items():
        for key in schema:
            try:
                cli.resolve_params(command, {key: text})
            except InvalidParameterError:
                pass


def test_integer_beyond_float_range_rejected(tmp_path, capsys):
    assert run_cli(["pattern", "--n_b", "9" * 400,
                    "--output-dir", tmp_path]) == 2
    assert "--n_b" in capsys.readouterr().err


# Every grid size is always set, at most to these caps, so that one
# example runs in milliseconds.  N, the zeno measurement count, costs
# O(log N) products, so its cap can be large.  solve_eigen needs at
# least 1000 points, so the base n_points is drawn from 1000 up to its
# cap of 2000 (a solve takes a few ms); an override may still draw any
# value up to the cap.
_GRID_CAPS = {"n_b": 2, "n_l": 2, "n1": 4, "n2": 4, "n_R": 4,
              "n_points": 2000, "N": 10**12, "n_tau": 3}
_GRID_FLOORS = {"n_points": 1000}
_SPECIAL = ["nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-5", "5e-324",
            "1e-300"]
_CHOICES = {"collapsed": ["none", "left", "right", "random"],
            "axis1": list(feasibility.SWEEP_AXES),
            "axis2": list(feasibility.SWEEP_AXES)}


def _value(command, key):
    """Text for one override: special values, or a finite number.

    scatter and pattern draw finite values within a factor 2 of the
    default: a slow probe (large t_R or density, or a source length
    scale far beyond R) orbits for tens of crossing times before it is
    reported unterminated, which takes seconds per probe.  The closed-form
    commands take any float; eigen also draws near its defaults, where
    most potentials pass validation and reach the solver.
    """
    typ, default, _, _ = cli.PARAM_SCHEMAS[command][key]
    if typ is str:
        return st.sampled_from(_CHOICES[key] + ["bogus", "nan"])
    special = st.sampled_from(_SPECIAL)
    if typ is int:
        cap = _GRID_CAPS.get(key, 3)
        return special | st.integers(-1, cap).map(str)
    scale = default or 1e-5
    near_default = st.floats(0.5, 2.0).map(lambda f: repr(f * scale))
    if command in ("scatter", "pattern"):
        return special | near_default
    finite = st.floats().map(repr)
    if command == "eigen":
        finite |= near_default
    return special | finite


@st.composite
def _command_line(draw):
    command = draw(st.sampled_from(sorted(cli.PARAM_SCHEMAS)))
    schema = cli.PARAM_SCHEMAS[command]
    params = {key: str(draw(st.integers(_GRID_FLOORS.get(key, 1), cap)))
              for key, cap in _GRID_CAPS.items() if key in schema}
    for key in draw(st.lists(st.sampled_from(sorted(schema)), min_size=1,
                             max_size=3, unique=True)):
        params[key] = draw(_value(command, key))
    return [command] + [f"--{k}={v}" for k, v in params.items()]


@settings(max_examples=120, deadline=None)
@given(argv=_command_line())
def test_exit_code_contract_end_to_end(argv):
    # overridden parameters of every command, run to the end: the exit
    # code is one of the documented four, and a failure is one line
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--output-dir", out])
        except SystemExit as exc:   # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("zenograv: "), (
            argv, lines)


def test_malformed_command_line_is_one_line(capsys):
    # a flag where the value of --R should be: --R has no value
    with pytest.raises(SystemExit) as exc:
        run_cli(["report", "--R", "--density", "2600"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("zenograv: validation error: argument --R")
    assert err.count("\n") == 1


# options that no computation reads are not options: each is an
# unrecognized argument
@pytest.mark.parametrize("argv", [
    ["pattern", "--m_probe", "1e-18"], ["pattern", "--seed", "7"],
    ["report", "--seed", "0"], ["eigen", "--n_states", "3"]],
    ids=["pattern-m_probe", "pattern-seed", "report-seed", "eigen-n_states"])
def test_unread_option_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--output-dir", tmp_path / "out"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("zenograv: validation error: unrecognized "
                          f"arguments: {' '.join(argv[1:])}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


class TestValueStartingWithDash:
    # argparse alone reads "-1e-5" or "-inf" as a flag, not as a value
    def test_binds_to_its_flag(self, tmp_path):
        for name, args in (("spaced", ["--l", "-1e-5"]),
                           ("joined", ["--l=-1e-5"])):
            assert run_cli(["scatter", *args,
                            "--output-dir", tmp_path / name]) == 0
        assert ((tmp_path / "spaced" / "trajectory.csv").read_bytes()
                == (tmp_path / "joined" / "trajectory.csv").read_bytes())

    def test_non_finite_is_one_validation_line(self, tmp_path, capsys):
        assert run_cli(["report", "--R", "-inf", "--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("zenograv: validation error: --R must be finite")
        assert err.count("\n") == 1


def test_huge_lobe_separation_is_one_validation_line(tmp_path, capsys):
    # the source length scale is 1e308 m without overflowing, and the
    # launch distance beyond it is what fails
    assert run_cli(["scatter", "--d", "1e308", "--output-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zenograv: validation error: r_stop")
    assert err.count("\n") == 1


def test_probe_faster_than_light_rejected(tmp_path, capsys):
    assert run_cli(["pattern", "--t_R", "1e-300", "--n_b", 1, "--n_l", 1,
                    "--output-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "v must be in (0, c)" in err and err.count("\n") == 1


def test_warning_of_finished_run_is_one_line(tmp_path, capsys):
    assert run_cli(["pattern", "--d", "1e-5", "--n_b", 1, "--n_l", 1,
                    "--output-dir", tmp_path]) == 0
    err = capsys.readouterr().err
    assert err == ("zenograv: warning: sphere components overlap; fields "
                   "still superpose but the two-position source model "
                   "assumes disjoint lobes\n")


FIGURE_T_R = 10 ** 1.1
SWEEP_AXES = "('R', 'v', 't_R', 'p', 'T', 'm_probe')"
POINT_SCHEMA = {
    "R": (float, 1e-5, "m, source sphere radius", "pos"),
    "density": (float, 2600.0, "kg/m^3, source density", "pos"),
    "beta": (float, 1.2, "impact margin, > 1", "pos"),
    "zeta": (float, 0.75, "anomaly fraction in (0,1)", "pos"),
    "t_R": (float, 10.0, "s, R/v", "pos"),
    "m_probe": (float, 1e-18, "kg, probe mass", "pos"),
    "R_probe": (float, 1e-6, "m, probe radius (mean free path)", "nonneg"),
    "pressure": (float, 1e-15, "Pa", "nonneg"),
    "T_env": (float, 1.0, "K, environment temperature", "pos"),
    "T_int": (float, 1.0, "K, internal temperature", "pos"),
    "t_total_cap": (float, 100.0, "s, run-duration budget", "pos"),
    "theta_min": (float, 1e-4, "rad, detector angular floor", "pos"),
    "strictness": (float, 100.0, "the >>-means->=-100x factor", "pos"),
    "sigma_ratio_max": (float, 0.02, "classicality ceiling on sigma/R", "pos"),
    "gamma_zeno_achievable": (float, 1e3, "1/s, achievable rate ceiling",
                              "pos"),
}
# every command's (type, default, help, domain) per key, spelled out
PARAM_SCHEMAS = {
    "scatter": {
        "R": (float, 1e-5, "m, source sphere radius", "pos"),
        "density": (float, 2600.0, "kg/m^3, source density", "pos"),
        "d": (float, None, "m, lobe separation (default 2R)", "nonneg"),
        "beta": (float, 1.2, "impact parameter in units of R", "pos"),
        "l": (float, 0.0, "m, launch offset along x", "any"),
        "t_R": (float, FIGURE_T_R, "s, R/v", "pos"),
        "collapsed": (str, "none", "none|left|right|random source coin",
                      "any"),
        "seed": (int, 0, "seed of the --collapsed random coin", "nonneg"),
        "rtol": (float, 1e-9, "integrator tolerance", "pos"),
    },
    "pattern": {
        "R": (float, 1e-5, "m, source sphere radius", "pos"),
        "density": (float, 2600.0, "kg/m^3, source density", "pos"),
        "d": (float, None, "m, lobe separation (default 2R)", "nonneg"),
        "beta_min": (float, 1.2, "grid lower beta", "pos"),
        "beta_max": (float, 2.0, "grid upper beta", "pos"),
        "l_min": (float, 0.0, "m, grid lower offset", "nonneg"),
        "l_max": (float, None, "m, grid upper offset (default 2R)", "nonneg"),
        "n_b": (int, 40, "beta grid points; n_b*n_l, doubled if mirrored, "
                "at most 1000000", "pos"),
        "n_l": (int, 40, "offset grid points; n_b*n_l, doubled if mirrored, "
                "at most 1000000", "pos"),
        "t_R": (float, FIGURE_T_R, "s, R/v", "pos"),
        "svg": (int, 1, "also emit SVG (0/1)", "flag"),
        "mirror": (int, 1, "mirror offsets to -l (0/1)", "flag"),
    },
    "eigen": {
        "a": (float, 1.0, "x^2 coefficient (dimensionless)", "any"),
        "b": (float, 4.0, "x^4 coefficient (dimensionless)", "any"),
        "c": (float, 1.0, "x^6 coefficient (dimensionless)", "pos"),
        "M": (float, 1e-11, "kg, source mass", "pos"),
        "d": (float, 1e-5, "m, length unit", "pos"),
        "x_max": (float, 4.0, "half-width of the grid, units of d", "pos"),
        "n_points": (int, 4000, "grid points, at most 1000000", "pos"),
    },
    "zeno": {
        "g_over_hbar": (float, 1.0, "1/s, coupling over hbar (freeze time 1/g)",
                        "pos"),
        "probe_splitting_ratio": (float, 0.7, "probe level splitting / g",
                                  "any"),
        "N": (int, 100, "measurements per run", "pos"),
        "tau_min_ratio": (float, 1e-4, "smallest tau over freeze time", "pos"),
        "tau_max_ratio": (float, 1e-2, "largest tau over freeze time", "pos"),
        "n_tau": (int, 9, "tau grid points (log), at most 1000000", "pos"),
    },
    "decoherence": {
        "R_min": (float, 1e-7, "m, sweep lower radius", "pos"),
        "R_max": (float, 1e-4, "m, sweep upper radius", "pos"),
        "n_R": (int, 25, "radius grid points (log), at most 1000000", "pos"),
        "pressure": (float, 1e-15, "Pa", "nonneg"),
        "T_env": (float, 1.0, "K, environment temperature", "pos"),
        "T_int": (float, 1.0, "K, internal temperature", "pos"),
    },
    "report": POINT_SCHEMA,
    "feasibility": {
        **POINT_SCHEMA,
        "axis1": (str, "t_R", f"first axis, one of {SWEEP_AXES}", "any"),
        "a1_min": (float, 1.0, "axis1 lower bound", "pos"),
        "a1_max": (float, 100.0, "axis1 upper bound", "pos"),
        "n1": (int, 16, "axis1 grid points (log); n1*n2 at most 1000000 "
               "(~0.4 GB)", "pos"),
        "axis2": (str, "R", f"second axis, one of {SWEEP_AXES}", "any"),
        "a2_min": (float, 1e-6, "axis2 lower bound", "pos"),
        "a2_max": (float, 1e-4, "axis2 upper bound", "pos"),
        "n2": (int, 16, "axis2 grid points (log); n1*n2 at most 1000000 "
               "(~0.4 GB)", "pos"),
    },
}


def test_param_schemas_are_the_spelled_out_table():
    # the report/feasibility entries come from the ExperimentPoint and
    # Environment fields; the table pins every key, type, default, help
    # text and domain
    assert cli.PARAM_SCHEMAS == PARAM_SCHEMAS


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "zenograv.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("scatter", "pattern", "eigen", "zeno", "decoherence",
                    "feasibility", "report"):
        assert command in proc.stdout


def test_gas_rate_overflow_is_a_numerical_failure(tmp_path, capsys):
    # (lambda_th/hbar)(16 pi/3) p overflows and R^2 underflows: their
    # product is NaN, which used to reach a check on Lambda (exit 2)
    assert run_cli(["decoherence", "--pressure", "1e300", "--R_min", "1e-168",
                    "--R_max", "1e-168", "--n_R", "1",
                    "--output-dir", tmp_path]) == 3
    assert capsys.readouterr().err == (
        "zenograv: numerical failure: RateOverflowError: rest-gas rate "
        "(lambda_th/hbar)(16 pi/3) p R^2 overflows the float range\n")
    assert not list(tmp_path.iterdir())


def test_gas_rate_overflow_in_report_is_indeterminate(tmp_path, capsys):
    # one point: only the decoherence sub-evaluation fails, so only its
    # constraint is indeterminate and the report is written
    assert run_cli(["report", "--pressure", "1e300",
                    "--output-dir", tmp_path]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    report = json.loads((tmp_path / "report.json").read_text())
    check = report["constraints"]["decoherence"]
    assert check["passed"] is None and math.isnan(check["margin"])
    assert check["note"].startswith("RateOverflowError: ")


@pytest.mark.parametrize("t_R", ["1e40", "1e60"])
def test_degenerate_duration_report_is_indeterminate(tmp_path, capsys, t_R):
    # the Kepler time underflows to 0 (1e40) or is 0/0 (1e60); either
    # used to reach a validation error or pass the time check
    assert run_cli(["report", "--t_R", t_R, "--output-dir", tmp_path]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("zenograv report: pass=False")
    report = json.loads((tmp_path / "report.json").read_text())
    time = report["constraints"]["time"]
    assert time["passed"] is None and math.isnan(time["margin"])
    assert report["t_used_s"] == report["point"]["t_total_cap_s"]


def test_degenerate_duration_cells_do_not_pass(tmp_path, capsys):
    assert run_cli(["feasibility", "--axis1", "t_R", "--a1_min", "10",
                    "--a1_max", "1e100", "--n1", "3", "--axis2", "R",
                    "--a2_min", "1e-5", "--a2_max", "1e-5", "--n2", "1",
                    "--output-dir", tmp_path]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "pass=1/3" in out
    rows = [line.split(",") for line in
            (tmp_path / "region.csv").read_text().splitlines()[2:]]
    assert [(row[3], row[-1]) for row in rows][1:] == [("nan", "0")] * 2
    assert rows[0][-1] == "1"
