import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from zenograv import rk45, scatter
from zenograv.constants import CONST
from zenograv.errors import (IntegratorFailureError, InvalidParameterError,
                             ProjectionSingularError,
                             UnterminatedTrajectoryError, ZenogravError)
from zenograv.massdist import MassDistribution, make_superposed_source
from zenograv.scatter import (ScatterConfig, ScatterPattern,
                              _integrate_batch, _outgoing, _segment_hits,
                              energy_series, hyperbolic_time_from_anomaly,
                              integrate_trajectory, kepler_scatter_time,
                              make_collapsed_sources, pattern_to_csv,
                              pattern_to_svg, rutherford_angle, scan_pattern,
                              stereographic_project)

R = 1e-5
RHO = 2600.0
D = 2 * R
T_R = 10 ** 1.1
V = R / T_R
M_PROBE = 1e-18


import conftest
from conftest import (anomaly_crossing_elapsed, clean_rows, launch_configs,
                      oracle_config, outgoing_dir, reduce_stage_sum,
                      rutherford_angle_density, scipy_trajectory, stack)


def single_sphere(radius=R, rho=RHO):
    return make_superposed_source(radius, rho, 0.0)


def escape_speed(src, r):
    """The escape speed (m/s) from src at distance r (m)."""
    return math.sqrt(2 * CONST.G * src.total_mass / r)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ScatterConfig(b=R, l=0, v=-1, z_start=-1e-3, t_max=1, r_stop=1e-2)
        with pytest.raises(InvalidParameterError):
            ScatterConfig(b=R, l=0, v=V, z_start=1e-3, t_max=1, r_stop=1e-2)
        with pytest.raises(InvalidParameterError):
            ScatterConfig(b=R, l=0, v=V, z_start=-1e-3, t_max=1,
                          r_stop=0.5e-3)
        # a run that nothing would end: the escape test squares r_stop
        with pytest.raises(InvalidParameterError, match=r"r_stop\*\*2 must "
                           r"be finite, got r_stop=1e\+200"):
            ScatterConfig(b=R, l=0, v=V, z_start=-1e-3, t_max=1, r_stop=1e200)
        with pytest.raises(InvalidParameterError,
                           match="t_max must be finite and > 0, got inf"):
            ScatterConfig(b=R, l=0, v=V, z_start=-1e-3, t_max=math.inf,
                          r_stop=1e-2)

    def test_nan_launch_rejected(self):
        ok = dict(b=R, l=0.0, v=V, z_start=-1e-3, t_max=1.0, r_stop=1e-2,
                  rtol=1e-9)
        for key in ok:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidParameterError):
                    ScatterConfig(**{**ok, key: bad})

    def test_for_source_scales(self):
        src = make_superposed_source(R, RHO, D)
        cfg = ScatterConfig.for_source(src, b=1.2 * R, l=0.0, v=V)
        assert cfg.z_start == pytest.approx(-50 * D)
        assert cfg.r_stop == pytest.approx(100 * D)

    def test_for_source_floats_give_float_fields(self):
        # the plain-float stepper runs at Python float speed
        src = make_superposed_source(R, RHO, D)
        cfg = ScatterConfig.for_source(src, b=1.2 * R, l=0.5 * R, v=V)
        assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)
                ] == [float] * 7

    def test_table_equals_one_probe_configs(self):
        # the last launch is far enough out that r_stop is raised to 1.5
        # times its launch radius
        src = make_superposed_source(R, RHO, D)
        b = np.array([0.5, 1.2, 1.9]) * R
        l = np.array([-R, 0.0, 300 * R])
        table = ScatterConfig.for_source(src, b=b, l=l, v=V)
        assert table.r_stop[2] > 100 * D == table.r_stop[0]
        for k in range(3):
            one = ScatterConfig.for_source(src, b=float(b[k]), l=float(l[k]),
                                           v=V)
            for f in dataclasses.fields(one):
                column = np.broadcast_to(getattr(table, f.name), 3)
                assert column[k] == getattr(one, f.name), f.name

    def test_table_message_names_first_failing_element(self):
        src = make_superposed_source(R, RHO, D)
        for b in (math.nan, np.array([R, math.nan, math.inf])):
            with pytest.raises(InvalidParameterError) as exc:
                ScatterConfig.for_source(src, b=b, l=0.0, v=V)
            assert str(exc.value) == "b and l must be finite, got b=nan, l=0.0"
        with pytest.raises(InvalidParameterError) as exc:
            ScatterConfig.for_source(src, b=R, l=0.0,
                                     v=np.array([V, -1.0, -2.0]))
        assert str(exc.value).endswith("(Newtonian probe), got -1.0")
        with pytest.raises(InvalidParameterError) as exc:
            ScatterConfig(b=np.zeros(3), l=0.0, v=V, z_start=-1.0, t_max=1.0,
                          r_stop=np.array([2.0, 0.5, 0.25]))
        assert str(exc.value) == "r_stop (0.5) must exceed |z_start| (1.0)"


class TestIntegration:
    def test_negligible_mass_goes_straight(self):
        ghost = MassDistribution.from_dict(
            {"components": [{"center": [0, 0, 0], "radius": R, "mass": 1e-40}]})
        cfg = ScatterConfig.for_source(ghost, b=2 * R, l=0.0, v=V)
        traj = integrate_trajectory(ghost, cfg, M_PROBE)
        assert traj.deflection_angle < 1e-10
        assert_allclose(traj.v[-1], [0, 0, V], rtol=1e-10, atol=1e-15 * V)

    def test_matches_rutherford_reference_case(self):
        # beta = 1.2 sphere probed at v = R/t_R
        src = single_sphere()
        b0 = 1.2 * R
        traj = integrate_trajectory(src, oracle_config(src, b0, 0.0, V), M_PROBE)
        theta_exact = rutherford_angle(src.total_mass, V, b0)
        assert traj.deflection_angle == pytest.approx(theta_exact, rel=1e-4)
        assert not traj.hit_source

    def test_matches_rutherford_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(6):
            radius = 10 ** rng.uniform(-5.5, -4.5)
            rho = rng.uniform(1000, 5000)
            t_R = 10 ** rng.uniform(1.0, 1.2)
            beta = rng.uniform(1.2, 2.0)
            src = single_sphere(radius, rho)
            v = radius / t_R
            b0 = beta * radius
            traj = integrate_trajectory(src, oracle_config(src, b0, 0.0, v),
                                        M_PROBE)
            theta = rutherford_angle(src.total_mass, v, b0)
            assert traj.deflection_angle == pytest.approx(theta, rel=1e-4)

    def test_symmetric_launch_stays_in_plane(self):
        src = make_superposed_source(R, RHO, D)
        cfg = ScatterConfig.for_source(src, b=1.2 * R, l=0.0, v=V)
        traj = integrate_trajectory(src, cfg, M_PROBE)
        assert abs(traj.v[-1][0]) < 1e-9 * V

    def test_energy_conservation(self):
        src = make_superposed_source(R, RHO, D)
        cfg = ScatterConfig.for_source(src, b=1.2 * R, l=R, v=V)
        traj = integrate_trajectory(src, cfg, M_PROBE)
        E = energy_series(src, traj, M_PROBE)
        assert np.max(np.abs(E - E[0])) < 1e-6 * abs(E[0])

    def test_angular_momentum_conservation_single_sphere(self):
        src = single_sphere()
        cfg = ScatterConfig.for_source(src, b=1.3 * R, l=0.0, v=V)
        traj = integrate_trajectory(src, cfg, M_PROBE)
        L = np.cross(traj.x, traj.v)
        Lmag = np.linalg.norm(L, axis=1)
        assert np.max(np.abs(Lmag - Lmag[0])) < 1e-6 * Lmag[0]

    def test_z_start_convergence(self):
        src = single_sphere()
        b0 = 1.5 * R
        cfg1 = ScatterConfig.for_source(src, b=b0, l=0.0, v=V)
        cfg2 = ScatterConfig.for_source(src, b=b0, l=0.0, v=V,
                                        start_factor=100, stop_factor=200)
        th1 = integrate_trajectory(src, cfg1, M_PROBE).deflection_angle
        th2 = integrate_trajectory(src, cfg2, M_PROBE).deflection_angle
        assert abs(th2 - th1) / th1 < 1e-3

    def test_hit_flagging(self):
        src = single_sphere()
        cfg = ScatterConfig.for_source(src, b=0.5 * R, l=0.0, v=V)
        traj = integrate_trajectory(src, cfg, M_PROBE)
        assert traj.hit_source

    def test_unterminated_at_t_max(self):
        src = single_sphere()
        cfg = ScatterConfig(b=1.2 * R, l=0.0, v=V, z_start=-50 * R,
                            t_max=10.0, r_stop=100 * R)
        with pytest.raises(UnterminatedTrajectoryError) as exc_info:
            integrate_trajectory(src, cfg, M_PROBE)
        assert str(exc_info.value) == (
            f"probe did not escape r_stop={cfg.r_stop} within t_max=10.0")


class TestRutherfordFormulas:
    def test_weak_field_limit(self):
        assert rutherford_angle(1e-20, 1.0, 1.0) < 1e-28

    def test_density_parametrization_reference(self):
        # rho = 2600, beta = 1.2, t_R = 10^1.1: theta ~ 1.9e-4 rad
        theta = rutherford_angle_density(RHO, 1.2, T_R)
        assert theta == pytest.approx(1.92007e-4, rel=1e-4)
        approx = rutherford_angle_density(RHO, 1.2, T_R, approx=True)
        assert approx == pytest.approx(8 * np.pi * CONST.G * RHO * T_R**2 / 3.6,
                                       rel=1e-12)

    def test_density_equals_mass_parametrization(self):
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        assert rutherford_angle_density(RHO, 1.2, T_R) == pytest.approx(
            rutherford_angle(M, R / T_R, 1.2 * R), rel=1e-12)

    def test_exact_vs_small_angle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = rng.uniform(500, 5000)
            beta = rng.uniform(1.1, 3.0)
            t_R = 10 ** rng.uniform(0.0, 1.3)
            exact = rutherford_angle_density(rho, beta, t_R)
            if exact < 1e-2:
                approx = rutherford_angle_density(rho, beta, t_R, approx=True)
                assert approx == pytest.approx(exact, rel=1e-3)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            rutherford_angle(0.0, 1.0, 1.0)


class TestKeplerTime:
    def test_zeta_to_zero(self):
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        assert kepler_scatter_time(M, RHO, 1.2, 1e-12, T_R) < 1e-8

    def test_duration_window_boundary(self):
        # the < 100 s budget holds at t_R = 10^1.2 and breaks just above
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        assert kepler_scatter_time(M, RHO, 1.2, 0.75, 10 ** 1.2) < 100.0
        assert kepler_scatter_time(M, RHO, 1.2, 0.75, 10 ** 1.25) > 100.0

    def test_radius_independence(self):
        # (rho, beta, zeta, t_R) fix the duration; M only sets the scale R
        for radius in (3e-6, 1e-5, 4e-5):
            M = 4.0 / 3.0 * np.pi * RHO * radius**3
            assert kepler_scatter_time(M, RHO, 1.2, 0.75, T_R) == pytest.approx(
                72.935, rel=1e-3)

    def test_matches_ode_anomaly_crossings(self):
        # independent oracle: elapsed time between the +-zeta*phi_inf
        # true-anomaly crossings of the integrated trajectory
        zeta = 0.75
        src = single_sphere()
        M = src.total_mass
        b0 = 1.2 * R
        traj = integrate_trajectory(src, oracle_config(src, b0, 0.0, V), M_PROBE)
        theta = rutherford_angle(M, V, b0)
        phi_target = zeta * 0.5 * (np.pi + theta)
        elapsed = anomaly_crossing_elapsed(traj, phi_target, CONST.G * M)
        t_formula = kepler_scatter_time(M, RHO, 1.2, zeta, T_R)
        assert elapsed == pytest.approx(t_formula, rel=1e-5)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(InvalidParameterError):
            hyperbolic_time_from_anomaly(0.99, 0.3, 1.0, 1.0, 0.99**2 - 1)

    def test_anomaly_beyond_asymptote_rejected(self):
        # phi_inf = acos(-1/1.5) = 2.30; at 7 rad tan(phi/2) wraps back
        # below the asymptotic bound
        for phi in (3.0, 7.0):
            with pytest.raises(InvalidParameterError):
                hyperbolic_time_from_anomaly(1.5, phi, 1.0, 1.0, 1.25)

    def test_parameter_validation(self):
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        with pytest.raises(InvalidParameterError):
            kepler_scatter_time(M, RHO, 0.9, 0.75, T_R)
        with pytest.raises(InvalidParameterError):
            kepler_scatter_time(M, RHO, 1.2, 1.5, T_R)
        with pytest.raises(InvalidParameterError, match="t_R"):
            kepler_scatter_time(M, RHO, 1.2, 0.75, math.nan)

    @pytest.mark.parametrize("zeta", [0.3, 0.75, 0.95])
    def test_matches_high_precision_closed_form(self, zeta):
        # the same closed form in 60-digit arithmetic, from the float
        # inputs; the textbook difference of two terms lost up to 1e-2
        # (t_R = 1e5) here, and went negative near t_R = 1e7
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        G, rho, beta = mp.mpf(CONST.G), mp.mpf(RHO), mp.mpf(1.2)
        radius = (3 * mp.mpf(M) / (4 * mp.pi * rho)) ** (mp.mpf(1) / 3)
        for t_R in np.logspace(-2, 9, 45):
            t = mp.mpf(float(t_R))
            x = 4 * mp.pi * G * rho * t**2 / (3 * beta)
            theta = 2 * mp.atan(x)
            e = 1 / mp.sin(theta / 2)
            phi = mp.mpf(zeta) * (mp.pi + theta) / 2
            F = 2 * mp.atanh(mp.sqrt((e - 1) / (e + 1)) * mp.tan(phi / 2))
            h = (radius / t) * (beta * radius)
            exact = 2 * (h**3 / (G * mp.mpf(M)) ** 2) \
                * (e * mp.sinh(F) - F) / (e * e - 1) ** mp.mpf(1.5)
            got = kepler_scatter_time(M, RHO, 1.2, zeta, float(t_R))
            assert abs((got - exact) / exact) < 5e-14, t_R

    def test_parabolic_limit(self):
        # far beyond e = 1 + 1e-14 the time is Barker's parabolic
        # (h^3/GM^2)(D/2 + D^3/6), D = tan(phi/2), to within e - 1
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        for t_R in (1e7, 1e8, 1e9, 1e12):
            theta = rutherford_angle_density(RHO, 1.2, t_R)
            D = math.tan(0.75 * 0.5 * (np.pi + theta) / 2)
            h = (R / t_R) * (1.2 * R)
            barker = 2 * h**3 / (CONST.G * M) ** 2 * (D / 2 + D**3 / 6)
            got = kepler_scatter_time(M, RHO, 1.2, 0.75, t_R)
            assert got > 0
            assert got == pytest.approx(barker, rel=1e-11)

    def test_beyond_parabolic_rejected(self):
        # tan(theta/2) so large that e^2 - 1 = 1/x^2 underflows to zero
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        with pytest.raises(InvalidParameterError, match="not hyperbolic"):
            kepler_scatter_time(M, RHO, 1.2, 0.75, 1e100)

    def test_elementwise(self):
        # arrays broadcast, and each element is the scalar call's value
        M = 4.0 / 3.0 * np.pi * RHO * np.array([3e-6, 1e-5, 4e-5]) ** 3
        t_R = np.logspace(-1, 6, 5)[:, None]
        got = kepler_scatter_time(M, RHO, 1.2, 0.75, t_R)
        assert got.shape == (5, 3)
        for i, j in np.ndindex(got.shape):
            one = kepler_scatter_time(float(M[j]), RHO, 1.2, 0.75,
                                      float(t_R[i, 0]))
            assert type(one) is float
            assert got[i, j] == pytest.approx(one, rel=1e-14)
        theta = rutherford_angle_density(RHO, 1.2, t_R)
        assert theta.shape == (5, 1)
        assert type(rutherford_angle_density(RHO, 1.2, 10.0)) is float
        assert type(rutherford_angle(1e-11, 1e-6, 1.2e-5)) is float

    def test_elementwise_validation_names_first_bad_value(self):
        with pytest.raises(InvalidParameterError,
                           match=r"orbit not hyperbolic: e = 0\.5 <= 1"):
            e = np.array([1.5, 0.5, 0.2])
            hyperbolic_time_from_anomaly(e, 0.3, 1.0, 1.0, e * e - 1)
        with pytest.raises(InvalidParameterError, match="M, v, b0"):
            rutherford_angle(np.array([1.0, math.nan]), 1.0, 1.0)


class TestStereographic:
    def test_forward_maps_to_origin(self):
        assert_allclose(stereographic_project((0, 0, 1)), [0, 0])

    def test_equator_maps_to_radius_two(self):
        assert_allclose(stereographic_project((1, 0, 0)), [2, 0])
        assert_allclose(stereographic_project((0, 1, 0)), [0, 2])

    def test_small_angle_linear(self):
        for theta in (1e-6, 1e-4, 1e-3):
            u = (0.0, math.sin(theta), math.cos(theta))
            proj = stereographic_project(u)
            assert proj[0] == 0.0
            assert proj[1] == pytest.approx(theta, rel=1e-6)
            assert proj[1] == pytest.approx(2 * math.tan(theta / 2), rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(ProjectionSingularError):
            stereographic_project((0, 0, -1))

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidParameterError):
            stereographic_project((0, 0, 1.001))


class TestScanPattern:
    def test_single_sphere_radial_law(self):
        # central potential: |proj| depends only on the total impact
        # parameter sqrt(b^2 + l^2), matching the closed form
        src = single_sphere()
        pattern = scan_pattern(src, (1.2, 2.0), (0.0, 2 * R), 3, 3, V)
        assert pattern.n_hit == 0
        for b, l, x, y in clean_rows(pattern, "b", "l", "proj_x", "proj_y"):
            b_tot = math.hypot(b, l)
            theta = rutherford_angle(src.total_mass, V, b_tot)
            assert math.hypot(x, y) == pytest.approx(
                2 * math.tan(theta / 2), rel=2e-3)

    def test_length_scale_once_per_scan(self, monkeypatch):
        src = make_superposed_source(R, RHO, D)
        calls = []
        original = MassDistribution.length_scale
        monkeypatch.setattr(MassDistribution, "length_scale",
                            lambda self: calls.append(1) or original(self))
        pattern = scan_pattern(src, (1.2, 1.6), (0.0, 2 * R), 2, 2, V)
        assert len(pattern.hit) == 6 and len(calls) == 1

    def test_mirror_antisymmetry(self):
        src = make_superposed_source(R, RHO, D)
        pattern = scan_pattern(src, (1.2, 1.6), (0.0, 2 * R), 2, 3, V)
        pts = {(beta, l): (x, y, theta) for beta, l, x, y, theta in
               clean_rows(pattern, "beta", "l", "proj_x", "proj_y", "theta")}
        for (beta, l), (x, y, theta) in pts.items():
            if l > 0:
                mirror_x, mirror_y, mirror_theta = pts[(beta, -l)]
                assert mirror_x == pytest.approx(-x, rel=1e-12)
                assert mirror_y == pytest.approx(y, rel=1e-12)
                assert mirror_theta == pytest.approx(theta, rel=1e-12)

    def test_two_lobe_sign_separation(self):
        src = make_superposed_source(R, RHO, D)
        pattern = scan_pattern(src, (1.2, 1.6), (0.5 * R, 2 * R), 2, 3, V)
        for x, l in clean_rows(pattern, "proj_x", "l"):
            assert x * l < 0  # deflection tilts away from the near lobe

    def test_hits_counted_but_excluded(self):
        src = single_sphere()
        # beta below 1 guarantees the probe enters the sphere
        pattern = scan_pattern(src, (0.5, 1.5), (0.0, 0.0), 3, 1, V)
        assert pattern.n_hit >= 1
        assert np.count_nonzero(pattern.clean) == \
            len(pattern.hit) - pattern.n_hit
        assert not pattern.hit[pattern.clean].any()

    def test_grid_validation(self):
        src = single_sphere()
        with pytest.raises(InvalidParameterError):
            scan_pattern(src, (1.2, 2.0), (0.0, R), 0, 3, V)


def projection(cfg, traj):
    """Stereographic projection of the trajectory's outgoing direction."""
    return stereographic_project(outgoing_dir(cfg, traj.v[-1]))


def scalar_pattern(dist, pattern, v, **factors):
    """The scan's probes one by one through the scipy RK45 oracle."""
    rows = []
    for cfg in launch_configs(dist, pattern, v, **factors):
        try:
            traj = scipy_trajectory(dist, cfg)
            proj = projection(cfg, traj)
            rows.append((traj.deflection_angle, float(proj[0]),
                         float(proj[1]), traj.hit_source, None))
        except UnterminatedTrajectoryError as exc:
            rows.append((float("nan"), float("nan"), float("nan"), False,
                         f"{type(exc).__name__}: {exc}"))
    theta, proj_x, proj_y, hit, error = zip(*rows)
    return ScatterPattern(pattern.beta, pattern.l, pattern.b,
                          np.array(theta), np.array(proj_x),
                          np.array(proj_y), np.array(hit), error)


def csv_lines(pattern):
    return pattern_to_csv(pattern).splitlines()[1:]


def hit_grid(dist):
    """A mirrored (beta, l) probe grid of which some probes hit the source."""
    return scan_pattern(dist, (0.3, 1.6), (0.0, 2 * R), 4, 3, V)


class TestBatchEngineOracle:
    """The lockstep batch engine against the scipy RK45 oracle."""

    @pytest.mark.parametrize("d", [D, 0.0])
    def test_matches_scalar_path(self, d):
        src = make_superposed_source(R, RHO, d)
        batch = hit_grid(src)
        scalar = scalar_pattern(src, batch, V)
        assert 0 < batch.n_hit < len(batch.hit)
        assert batch.hit.tolist() == scalar.hit.tolist()
        for hit, theta_b, theta_s, line_b, line_s in zip(
                batch.hit, batch.theta, scalar.theta, csv_lines(batch),
                csv_lines(scalar)):
            if hit:
                # the field's derivative jumps at the sphere surface, which
                # amplifies round-off inside the source
                assert theta_b == pytest.approx(theta_s, rel=1e-6)
            else:
                assert line_b == line_s

    def test_buffered_hit_checks(self, monkeypatch):
        # the segments of a batch are checked for hits in buffered calls:
        # over many calls the flags still equal the per-probe ones, and a
        # probe that passed through the source before it failed (out of
        # time, or its step underflowed) still returns hit False
        src = single_sphere()
        cfgs = launch_configs(src, hit_grid(src), V)
        # out of time 50 R past the source, which it passed through
        late = dataclasses.replace(
            ScatterConfig.for_source(src, b=0.5 * R, l=0.0, v=V),
            t_max=100 * R / V)
        # not bound (1.5 times the escape speed at 1e8 R), it passes
        # through the source before its step underflows
        fall = ScatterConfig(b=0.5 * R, l=0.0, v=1.5 * escape_speed(src, 1e3),
                             z_start=-1e3, t_max=1e30, r_stop=2e3)
        checks = []
        original = scatter._segment_hits
        monkeypatch.setattr(scatter, "_segment_hits", lambda p0, p1, dist:
                            checks.append(original(p0, p1, dist)) or checks[-1])
        # a buffer smaller than the grid's steps, larger than one probe's
        monkeypatch.setattr(scatter, "_HIT_ROWS", 512)
        y_end, hits, errors = _integrate_batch(src,
                                               stack(cfgs + [late, fall]))
        trajs = [integrate_trajectory(src, cfg, M_PROBE) for cfg in cfgs]
        assert sum(traj.n_accepted for traj in trajs) > 2 * scatter._HIT_ROWS
        assert len(checks) > 3
        assert hits[:-2].tolist() == [traj.hit_source for traj in trajs]
        assert 0 < sum(hits) < len(cfgs)
        assert [type(e) for e in errors] == [type(None)] * len(cfgs) + [
            UnterminatedTrajectoryError, IntegratorFailureError]
        assert hits[-2:].tolist() == [False, False]
        for cfg in (late, fall):
            checks.clear()
            _, (hit,), (error,) = _integrate_batch(src, stack([cfg]))
            assert error is not None and not hit
            assert any(check.any() for check in checks)
        # one probe's steps fit in the buffer: they are checked at the end
        first = hits.tolist().index(True)
        assert trajs[first].n_accepted + trajs[first].n_rejected \
            < scatter._HIT_ROWS
        assert _integrate_batch(src, stack([cfgs[first]]))[1].tolist() == [
            True]

    def test_launch_order_invariance(self):
        src = make_superposed_source(R, RHO, D)
        cfgs = [ScatterConfig.for_source(src, b=beta * R, l=l, v=V)
                for beta in (0.5, 1.2, 1.9) for l in (-R, 0.0, 0.5 * R)]
        y_ref, hit_ref, err_ref = _integrate_batch(src, stack(cfgs))
        order = np.random.default_rng(3).permutation(len(cfgs))
        y_shuf, hit_shuf, err_shuf = _integrate_batch(
            src, stack([cfgs[i] for i in order]))
        assert np.array_equal(y_shuf, y_ref[order])
        assert np.array_equal(hit_shuf, hit_ref[order])
        assert hit_ref.any()
        assert err_ref == err_shuf == [None] * len(cfgs)

    def test_launch_outside_r_stop_is_no_escape(self):
        # solve_ivp counts only crossings from inside r_stop; a probe
        # launched outside it runs to t_max on both paths
        src = make_superposed_source(R, RHO, D)
        cfg = ScatterConfig(b=3e-3, l=0.0, v=V, z_start=-1e-3,
                            t_max=200 * R / V, r_stop=2e-3)
        with pytest.raises(UnterminatedTrajectoryError) as scalar:
            scipy_trajectory(src, cfg)
        _, _, (error,) = _integrate_batch(src, stack([cfg]))
        assert isinstance(error, UnterminatedTrajectoryError)
        assert str(error) == str(scalar.value)

    def test_overflowing_initial_norm_integrates_as_scipy(self):
        # rtol = 1e-300 leaves atol ~ 1e-307: the initial-step norm of f
        # overflows and its difference quotient is NaN, where scipy's
        # max(d1, d2) keeps d1 and integrates on
        src = make_superposed_source(R, RHO, D)
        cfg = ScatterConfig.for_source(src, b=1.2 * R, l=0.0, v=V, rtol=1e-300)
        (y,), _, (error,) = _integrate_batch(src, stack([cfg]))
        assert error is None
        with pytest.warns(UserWarning, match="rtol"), \
                np.errstate(over="ignore", invalid="ignore"):
            ref = scipy_trajectory(src, cfg)
        theta = _outgoing(cfg, y[3:])
        assert theta == pytest.approx(ref.deflection_angle, rel=1e-12)
        traj = integrate_trajectory(src, cfg, M_PROBE)
        assert np.array_equal(np.concatenate([traj.x[-1], traj.v[-1]]), y)

    def test_bound_orbits_fail_like_scalar_path(self, monkeypatch):
        # below escape speed the probes never reach r_stop: every probe
        # carries the scipy path's error, and the scan still returns.  A
        # near launch and a loose tolerance, for the scan and the oracle
        # alike, keep the bound orbits short.
        src = make_superposed_source(R, RHO, D)
        v_bound = 1.8e-9
        for_source = ScatterConfig.for_source
        monkeypatch.setattr(ScatterConfig, "for_source", staticmethod(
            lambda dist, **launch: for_source(
                dist, **launch, start_factor=5.0, stop_factor=12.0,
                rtol=1e-6)))
        batch = scan_pattern(src, (8.0, 10.0), (0.0, R), 2, 2, v_bound)
        scalar = scalar_pattern(src, batch, v_bound)
        assert batch.n_failed == len(batch.error) == 6
        assert all(error.startswith("UnterminatedTrajectoryError: ")
                   for error in batch.error)
        assert batch.error == scalar.error
        assert not batch.clean.any()

    def test_launch_inside_a_sphere_is_not_called_bound(self):
        # v^2/2 = 1.6 GM/R at 0.5 R from the centre: above the interior
        # potential's 1.375 GM/R, so the probe escapes, but below the
        # point mass's 2 GM/R, by which it would seem bound
        src = single_sphere()
        v = math.sqrt(3.2 * CONST.G * src.total_mass / R)
        cfg = ScatterConfig(b=0.0, l=0.0, v=v, z_start=-0.5 * R, t_max=1e7,
                            r_stop=100 * R)
        assert integrate_trajectory(src, cfg, M_PROBE).hit_source
        _, (hit,), (error,) = _integrate_batch(src, stack([cfg]))
        assert hit and error is None


class TestScalarPathOracle:
    """integrate_trajectory, the plain-float stepper, against scipy RK45
    and against the batch engine."""

    @pytest.mark.parametrize("d", [D, 0.0])
    def test_matches_scipy(self, d):
        src = make_superposed_source(R, RHO, d)
        pattern = hit_grid(src)
        assert 0 < sum(pattern.hit) < len(pattern.hit)
        for cfg in launch_configs(src, pattern, V):
            traj = integrate_trajectory(src, cfg, M_PROBE)
            ref = scipy_trajectory(src, cfg)
            assert traj.hit_source == ref.hit_source
            if traj.hit_source:
                # round-off amplified by the field's kink at the surface
                assert traj.deflection_angle == pytest.approx(
                    ref.deflection_angle, rel=1e-6)
            else:
                assert len(traj.t) == len(ref.t)
                assert traj.deflection_angle == pytest.approx(
                    ref.deflection_angle, rel=1e-12)
                assert traj.n_rhs == ref.n_rhs
            assert traj.n_accepted == len(traj.t) - 1
            assert traj.n_rhs == 2 + 6 * (traj.n_accepted + traj.n_rejected)

    @pytest.mark.parametrize("d", [D, 0.0])
    def test_bit_identical_to_batch_engine(self, d):
        # rows of a batch do not depend on each other (launch order
        # invariance), so the whole grid stands for one batch per probe
        src = make_superposed_source(R, RHO, d)
        pattern = hit_grid(src)
        cfgs = launch_configs(src, pattern, V)
        y_end, hits, errors = _integrate_batch(src, stack(cfgs))
        assert errors == [None] * len(cfgs)
        assert 0 < pattern.n_hit < len(cfgs)
        for i, (cfg, y, hit) in enumerate(zip(cfgs, y_end, hits)):
            traj = integrate_trajectory(src, cfg, M_PROBE)
            assert np.array_equal(np.concatenate([traj.x[-1], traj.v[-1]]), y)
            assert traj.hit_source == hit == pattern.hit[i]
            assert traj.deflection_angle == pattern.theta[i]
            assert tuple(projection(cfg, traj)) == (
                pattern.proj_x[i], pattern.proj_y[i])

    def test_no_lockstep_root_on_the_path(self, monkeypatch):
        # the one-probe path is plain floats from launch to escape: with
        # the lockstep root search made to raise, the scatter command's
        # default probe, a hitting probe and a collapsed source give the
        # same trajectories
        src = make_superposed_source(R, RHO, D)
        left, _ = make_collapsed_sources(R, RHO, D)
        cases = [(src, ScatterConfig.for_source(src, b=1.2 * R, l=0.0, v=V)),
                 (src, ScatterConfig.for_source(src, b=0.5 * R, l=R, v=V)),
                 (left, ScatterConfig.for_source(src, b=1.2 * R, l=0.0, v=V))]
        want = [integrate_trajectory(dist, cfg) for dist, cfg in cases]
        assert [traj.hit_source for traj in want] == [False, True, False]

        def lockstep(*args):
            raise AssertionError("lockstep root search called")

        monkeypatch.setattr(rk45, "escape_roots", lockstep)
        monkeypatch.setattr(rk45, "brentq", lockstep)
        for (dist, cfg), ref in zip(cases, want):
            traj = integrate_trajectory(dist, cfg)
            for name in ("t", "x", "v"):
                assert getattr(traj, name).tobytes() == \
                    getattr(ref, name).tobytes()
            for name in ("hit_source", "deflection_angle", "n_accepted",
                         "n_rejected", "n_rhs"):
                assert getattr(traj, name) == getattr(ref, name)

    def test_same_errors_as_batch_and_scipy(self):
        src = make_superposed_source(R, RHO, D)
        bound = ScatterConfig.for_source(src, b=8 * R, l=0.0, v=1.8e-9,
                                         start_factor=5.0, stop_factor=12.0,
                                         rtol=1e-6)
        bound = dataclasses.replace(bound, t_max=bound.t_max / 10)
        outside = ScatterConfig(b=3e-3, l=0.0, v=V, z_start=-1e-3,
                                t_max=200 * R / V, r_stop=2e-3)
        # not bound (1.01 times the escape speed at 1e10 R): near the
        # source, 10 ulp of the elapsed time exceed the step the tolerance
        # asks for
        tiny_step = ScatterConfig(
            b=0.5 * R, l=0.0, v=1.01 * escape_speed(single_sphere(), 1e5),
            z_start=-1e5, t_max=1e30, r_stop=2e5)
        cases = [(src, bound), (src, outside), (single_sphere(), tiny_step)]
        batch_errors = [_integrate_batch(dist, stack([cfg]))[2][0]
                        for dist, cfg in cases]
        assert [type(e) for e in batch_errors] == [
            UnterminatedTrajectoryError, UnterminatedTrajectoryError,
            IntegratorFailureError]
        assert str(batch_errors[2]).endswith("spacing between numbers.")
        for (dist, cfg), batch_error in zip(cases, batch_errors):
            with pytest.raises(ZenogravError) as ours:
                integrate_trajectory(dist, cfg, M_PROBE)
            with pytest.raises(ZenogravError) as ref:
                scipy_trajectory(dist, cfg)
            assert type(ours.value) is type(ref.value) is type(batch_error)
            assert str(ours.value) == str(ref.value) == str(batch_error)


class TestHitEdgeOracle:
    """Hit flags at the hit edge against scipy RK45 with its step capped
    at a twentieth of the source scale over v.  With no cap, the
    steppers' chords near the source are up to about 0.17 R long: near
    the edge a long chord could cut into a sphere the path misses."""

    @staticmethod
    def check(monkeypatch, src, pattern, v, rows):
        # at t_R = 300 the oracle's chords sag off the path by under
        # 5e-5 R, the steppers' by up to about 2.3e-4 R
        monkeypatch.setattr(conftest, "solve_ivp", functools.partial(
            solve_ivp, max_step=src.length_scale() / (20 * v)))
        cfgs = launch_configs(src, pattern, v)
        for i in rows:
            traj = integrate_trajectory(src, cfgs[i], M_PROBE)
            assert traj.hit_source == pattern.hit[i]
            assert scipy_trajectory(src, cfgs[i]).hit_source == pattern.hit[i]

    @pytest.mark.parametrize("t_R", [10.0, 100.0, 300.0])
    def test_one_sphere_at_closed_form_edge(self, monkeypatch, t_R):
        # outside the sphere the field is a point mass's: the periapsis is
        # R at b_crit^2 = R^2 (1 + 2GM/(R v^2) - 2GM/(r0 v^2)), with the
        # launch energy taken at r0 = |z_start|; the launch radius exceeds
        # it by under 1e-3 relative
        src = single_sphere()
        v = R / t_R
        two_gm = 2 * CONST.G * src.total_mass / (v * v)
        r0 = -ScatterConfig.for_source(src, b=R, l=0.0, v=v).z_start
        beta = math.sqrt(1 + two_gm / R - two_gm / r0)
        pattern = scan_pattern(src, (beta * (1 - 1e-3), beta * (1 + 1e-3)),
                               (0.0, 0.0), 2, 1, v)
        assert pattern.hit.tolist() == [True, False]
        self.check(monkeypatch, src, pattern, v, [0, 1])

    @pytest.mark.parametrize("t_R,l", [(10.0, -R), (100.0, 0.5 * R),
                                       (300.0, R)])
    def test_two_lobes_at_scanned_edge(self, monkeypatch, t_R, l):
        # the edge is where the scan's flag flips on a beta grid in steps
        # of 0.002; the probes on its two sides go to the oracle
        src = make_superposed_source(R, RHO, D)
        v = R / t_R
        pattern = scan_pattern(src, (0.6, 1.2), (abs(l), abs(l)), 301, 1, v)
        rows = np.flatnonzero(pattern.l == l)
        hit = pattern.hit[rows]
        (edge,) = np.flatnonzero(hit[:-1] != hit[1:])
        assert hit[edge]
        self.check(monkeypatch, src, pattern, v, rows[edge:edge + 2])


UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda u: np.linalg.norm(u) > 1e-3).map(lambda u: u / np.linalg.norm(u))


@st.composite
def chord(draw, dist):
    """A segment (p0, p1) through one component of dist: along a unit
    direction through a point q within 0.999 R of its center, with ends
    up to 1e12 R from q."""
    comp = draw(st.sampled_from(dist.components))
    radius = comp.radius
    q = np.array(comp.center) + (draw(st.floats(0.0, 0.999)) * radius
                                 * draw(UNIT))
    u = draw(UNIT)
    d0, d1 = (radius * 10.0 ** draw(st.floats(-3.0, 12.0)) for _ in "01")
    return q - d0 * u, q + d1 * u


class TestSegmentHits:
    """_segment_hits flags every finite segment through a sphere."""

    @pytest.mark.parametrize("dist", [single_sphere(),
                                      make_superposed_source(R, RHO, D)],
                             ids=["one-sphere", "two-lobe"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flags_every_chord_through_a_sphere(self, dist, data):
        p0, p1 = (np.array(ends) for ends in zip(*data.draw(
            st.lists(chord(dist), min_size=1, max_size=12))))
        assert _segment_hits(p0, p1, dist).all()


def same_bits(a, b):
    """Equal bit for bit where not NaN, and NaN in the same places."""
    a, b = np.ravel(np.asarray(a, float)), np.ravel(np.asarray(b, float))
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e300, -1e300, math.inf, -math.inf, math.nan, 1.0])
FLOAT = st.one_of(st.floats(-1e3, 1e3), EDGE, st.floats())
SIX = st.tuples(*[FLOAT] * 6)


class TestStageSums:
    """rk45.combine, an in-order loop, against the loops written out and
    against one reduce over the stage axis (``reduce_stage_sum``), and
    rk45.rms, one reduce, against its in-order loop, bit for bit (signed
    zeros included)."""

    @staticmethod
    def in_order(terms):
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    @pytest.mark.parametrize("m", [1, 2, 7, 144])
    def test_equal_to_loops(self, m):
        rng = np.random.default_rng(m)
        for coef in (*rk45.A_ROWS, rk45.B, rk45.E, *zip(*rk45.P)):
            for shape in ((len(coef), 6, m), (len(coef), m, 6)):
                K = rng.standard_normal(shape) * 10.0 ** rng.integers(
                    -8, 8, shape)
                K[rng.random(shape) < 0.3] = -0.0
                want = self.in_order([K[j] * c for j, c in enumerate(coef)
                                      if c])
                assert rk45.combine(K, coef).tobytes() == want.tobytes()
        x = rng.standard_normal((6, m)) * 10.0 ** rng.integers(-8, 8, (6, m))
        want = np.sqrt(self.in_order(list(x * x))) / 6 ** 0.5
        assert rk45.rms(x).tobytes() == want.tobytes()
        assert rk45.rms(np.ascontiguousarray(x.T).T).tobytes() == \
            want.tobytes()
        assert rk45.combine(np.full((2, 6, m), -0.0), rk45.A_ROWS[1]) \
            .tobytes() == np.full((6, m), -0.0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(K=arrays(float, st.tuples(st.just(7), st.just(6),
                                     st.integers(1, 8)), elements=FLOAT))
    def test_equal_to_reduce(self, K):
        # -0.0, subnormals, +-inf and NaN among the stages, on both
        # layouts the callers use: (k, 6, m) and (k, m, 6)
        with np.errstate(all="ignore"):
            for coef in (*rk45.A_ROWS, rk45.B, rk45.E, *zip(*rk45.P)):
                stages = K[:len(coef)]
                for layout in (stages, np.ascontiguousarray(
                        stages.transpose(0, 2, 1))):
                    assert same_bits(rk45.combine(layout, coef),
                                     reduce_stage_sum(layout, coef))


def field(v):
    """A test right-hand side on a state of 6 floats or 6 rows: the
    velocities, then accelerations that mix the coordinates."""
    x, y, z, vx, vy, vz = v
    return (vx, vy, vz, y * 0.5 - x, z - x * y, x * 1e-3 + vz * vy)


def engine_step(y, k1, h):
    """One Dormand-Prince attempt as ``_integrate_batch`` takes it, from
    ``rk45.combine`` on a (7, 6, 1) stage array: state, stages, error."""
    K = np.empty((7, 6, 1))
    K[0] = np.array(k1)[:, None]
    y = np.array(y)[:, None]
    for s in range(1, rk45.N_STAGES):
        K[s] = field(y + rk45.combine(K[:s], rk45.A_ROWS[s - 1]) * h)
    y_new = y + h * rk45.combine(K[:-1], rk45.B)
    K[-1] = field(y_new)
    return y_new, K, rk45.combine(K, rk45.E)


class TestDormandPrince:
    """rk45.dormand_prince, written out on plain floats, against the
    batch engine's stage sums."""

    @settings(max_examples=400, deadline=None)
    @given(y=SIX, k1=SIX, h=FLOAT)
    def test_equals_engine_stage_arithmetic(self, y, k1, h):
        y_new, K, error = rk45.dormand_prince(field, y, k1, h)
        with np.errstate(all="ignore"):
            want_y, want_K, want_error = engine_step(y, k1, h)
        assert same_bits(K, want_K)
        assert same_bits(y_new, want_y)
        assert same_bits(error, want_error)

    def test_finite_steps_equal_engine(self):
        # seeded finite draws over six decades, where a sum taken in
        # another order shows in the last bit of some coordinate
        rng = np.random.default_rng(5)
        for _ in range(500):
            y, k1 = rng.standard_normal((2, 6)) * 10.0 ** rng.integers(
                -3, 3, (2, 6))
            h = float(10.0 ** rng.uniform(-3, 1))
            got = rk45.dormand_prince(field, tuple(y.tolist()),
                                      tuple(k1.tolist()), h)
            for ours, want in zip(got, engine_step(y, k1, h)):
                assert same_bits(ours, want)


class TestCollapsed:
    def test_coins_give_distinct_angles_off_axis(self):
        left, right = make_collapsed_sources(R, RHO, D)
        cfg = ScatterConfig.for_source(left, b=1.2 * R, l=R, v=V)
        th_l = integrate_trajectory(left, cfg, M_PROBE)
        th_r = integrate_trajectory(right, cfg, M_PROBE)
        assert abs(th_l.deflection_angle - th_r.deflection_angle) \
            > 0.2 * th_r.deflection_angle

    def test_symmetric_launch_mirror_projections(self):
        left, right = make_collapsed_sources(R, RHO, D)
        cfg = ScatterConfig.for_source(left, b=1.2 * R, l=0.0, v=V)
        pl = projection(cfg, integrate_trajectory(left, cfg, M_PROBE))
        pr = projection(cfg, integrate_trajectory(right, cfg, M_PROBE))
        assert pl[0] == pytest.approx(-pr[0], rel=1e-9)
        assert pl[1] == pytest.approx(pr[1], rel=1e-9)

    def test_frozen_between_collapsed(self):
        # off-axis, the frozen-source deflection sits between the two
        # collapsed alternatives; on-axis its projection sits between theirs
        frozen = make_superposed_source(R, RHO, D)
        left, right = make_collapsed_sources(R, RHO, D)
        cfg = ScatterConfig.for_source(frozen, b=1.2 * R, l=R, v=V)
        th_f = integrate_trajectory(frozen, cfg, M_PROBE).deflection_angle
        th_l = integrate_trajectory(left, cfg, M_PROBE).deflection_angle
        th_r = integrate_trajectory(right, cfg, M_PROBE).deflection_angle
        assert min(th_l, th_r) < th_f < max(th_l, th_r)

        cfg0 = ScatterConfig.for_source(frozen, b=1.2 * R, l=0.0, v=V)
        pf = projection(cfg0, integrate_trajectory(frozen, cfg0, M_PROBE))
        pl = projection(cfg0, integrate_trajectory(left, cfg0, M_PROBE))
        pr = projection(cfg0, integrate_trajectory(right, cfg0, M_PROBE))
        assert min(pl[0], pr[0]) < pf[0] < max(pl[0], pr[0])


class TestEmission:
    def test_csv_format(self):
        src = single_sphere()
        pattern = scan_pattern(src, (1.2, 1.2), (0.0, 0.0), 1, 1, V)
        text = pattern_to_csv(pattern)
        lines = text.strip().split("\n")
        # the body alone: the writer stamps the config line above it
        assert "zenograv config" not in text
        assert lines[0] == "beta,l,b,theta_rad,proj_x,proj_y,hit"
        assert len(lines) == 2
        assert lines[1].endswith(",0")

    def test_svg_is_static(self):
        src = single_sphere()
        pattern = scan_pattern(src, (1.2, 1.4), (0.0, R), 2, 2, V)
        svg = pattern_to_svg(pattern, dashed_radius=2e-4)
        # the <svg> element alone: no XML declaration, no config comment
        assert svg.startswith("<svg")
        assert "zenograv config" not in svg and "<!--" not in svg
        assert "<script" not in svg
        assert "stroke-dasharray" in svg
        assert svg.count("<circle") == np.count_nonzero(pattern.clean) + 1
