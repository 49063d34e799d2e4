import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenograv import cli
from zenograv import decoherence as deco
from zenograv.errors import InvalidParameterError


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

    def test_bad_coin(self, tmp_path):
        assert run_cli(["scatter", "--collapsed", "sideways",
                        "--output-dir", tmp_path]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["report", "--config", tmp_path / "nope.json",
                        "--output-dir", tmp_path]) == 4

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli(["report", "--config", cfg,
                        "--output-dir", tmp_path]) == 2


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
        # source mass (4/3) pi rho R^3 overflows
        (["report", "--R", "1e200"], "OverflowError"),
        # R = v t_R ~ 1e300..1e302: the grid's source mass overflows
        (["feasibility", "--axis1", "v", "--axis2", "t_R",
          "--a1_min", "1e300", "--a1_max", "1e300"], "FloatingPointError"),
        # the gas thermal wavelength divides by an underflowed sqrt(T)
        (["feasibility", "--axis1", "T", "--a1_min", "1e-300",
          "--a1_max", "1e-300"], "FloatingPointError"),
    ])
    def test_arithmetic_failure_exits_3(self, tmp_path, capsys, args, error):
        assert run_cli(args + ["--output-dir", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"zenograv: numerical failure: {error}")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())


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
            assert run_cli(["pattern", "--n_b", 2, "--n_l", 2, "--seed", 7,
                            "--output-dir", d]) == 0
        assert (d1 / "pattern.csv").read_bytes() == (d2 / "pattern.csv").read_bytes()
        assert (d1 / "pattern.svg").read_bytes() == (d2 / "pattern.svg").read_bytes()

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
        outs = []
        for d in ("a", "b"):
            assert run_cli(["scatter", "--collapsed", "random", "--seed", 3,
                            "--output-dir", tmp_path / d]) == 0
            outs.append(capsys.readouterr().out)
        assert ("source=left" in outs[0]) == ("source=left" in outs[1])
        assert (tmp_path / "a/trajectory.csv").read_bytes() \
            == (tmp_path / "b/trajectory.csv").read_bytes()


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


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "zenograv.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("scatter", "pattern", "eigen", "zeno", "decoherence",
                    "feasibility", "report"):
        assert command in proc.stdout
