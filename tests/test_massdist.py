import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import dblquad

from zenograv.constants import CONST
from zenograv.errors import InvalidParameterError
from zenograv.massdist import (MassDistribution, SphereComponent, force_at,
                               gravity_field, gravity_potential,
                               make_superposed_source, potential_at)

R = 1e-5
RHO = 2600.0
D = 2e-5
M_PROBE = 1e-18


def uniform_sphere_potential_quadrature(comp, x, m_probe):
    """Independent oracle: 3D quadrature of the defining volume integral.

    Azimuthal symmetry reduces -G m rho int d^3y / |x - y| to a 2D
    integral over (r, cos theta) in sphere-centered coordinates.
    """
    s = float(np.linalg.norm(np.asarray(x, float) - np.asarray(comp.center)))
    a = comp.radius
    rho_m = comp.mass / (4.0 / 3.0 * np.pi * a**3)

    def integrand(u, r):
        return r * r / np.sqrt(r * r + s * s - 2 * r * s * u)

    val, _ = dblquad(integrand, 0.0, a, -1.0, 1.0, epsabs=0.0, epsrel=1e-9)
    return -CONST.G * m_probe * rho_m * 2 * np.pi * val


class TestMakeSuperposedSource:
    def test_two_lobe_masses(self):
        src = make_superposed_source(R, RHO, D)
        M = 4.0 / 3.0 * np.pi * RHO * R**3
        assert len(src.components) == 2
        for comp in src.components:
            assert comp.mass == pytest.approx(M / 2, rel=1e-14)
            assert comp.mass == pytest.approx(5.445427e-12, rel=1e-6)
        assert src.total_mass == pytest.approx(1.0890854e-11, rel=1e-6)
        assert src.total_mass == pytest.approx(1e-11, rel=0.1)  # quoted 1 sig fig

    def test_collapsed_single_sphere(self):
        src = make_superposed_source(R, RHO, 0.0)
        assert len(src.components) == 1
        assert src.components[0].center == (0.0, 0.0, 0.0)
        assert src.components[0].mass == pytest.approx(1.0890854e-11, rel=1e-6)

    def test_centers_at_half_separation(self):
        src = make_superposed_source(R, RHO, 2 * R)
        xs = sorted(c.center[0] for c in src.components)
        assert xs == [-1e-5, 1e-5]

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_superposed_source(-R, RHO, D)
        with pytest.raises(InvalidParameterError):
            make_superposed_source(R, 0.0, D)
        with pytest.raises(InvalidParameterError):
            make_superposed_source(R, RHO, -1e-6)

    @pytest.mark.parametrize("args", [(np.nan, RHO, 0.0), (R, np.nan, 0.0),
                                      (R, RHO, np.nan)])
    def test_nan_rejected(self, args):
        with pytest.raises(InvalidParameterError):
            make_superposed_source(*args)

    def test_component_nan_rejected(self):
        with pytest.raises(InvalidParameterError):
            SphereComponent((0.0, 0.0, 0.0), np.nan, 1.0)
        with pytest.raises(InvalidParameterError):
            SphereComponent((0.0, 0.0, 0.0), 1.0, np.nan)

    def test_overlapping_lobes_warn(self):
        with pytest.warns(UserWarning, match="overlap"):
            make_superposed_source(R, RHO, R)  # d < 2R: lobes intersect

    @pytest.mark.parametrize("d", [2.5e-5, 1e-3, 1e200, 1e308])
    def test_length_scale_is_the_separation(self, d):
        # exact on the x axis, and no overflow near the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            src = make_superposed_source(R, RHO, d)
            assert src.length_scale() == d

    def test_length_scale_off_axis(self):
        src = MassDistribution((SphereComponent((0.0, 0.0, 0.0), 1.0, 1.0),
                                SphereComponent((3e300, 4e300, 0.0), 1.0, 1.0),
                                SphereComponent((0.0, 0.0, 10.0), 2.0, 1.0)))
        assert src.length_scale() == pytest.approx(5e300, rel=1e-15)

    def test_empty_distribution_rejected(self):
        with pytest.raises(InvalidParameterError):
            MassDistribution(())


class TestPotential:
    def test_exterior_point_mass_equivalence(self):
        src = make_superposed_source(R, RHO, 0.0)
        M = src.total_mass
        V = potential_at(src, (0.0, 2 * R, 0.0), M_PROBE)
        assert V == pytest.approx(-CONST.G * M_PROBE * M / (2 * R), rel=1e-14)

    def test_two_sphere_midpoint(self):
        src = make_superposed_source(R, RHO, D)
        M = src.total_mass
        V = potential_at(src, (0.0, 0.0, 0.0), M_PROBE)
        # both lobes at distance d/2: V = -2 G m M / d
        assert V == pytest.approx(-2 * CONST.G * M_PROBE * M / D, rel=1e-14)

    def test_against_volume_quadrature_exterior(self):
        src = make_superposed_source(R, RHO, D)
        x = (0.0, 2 * R, 0.0)
        expected = sum(uniform_sphere_potential_quadrature(c, x, M_PROBE)
                       for c in src.components)
        assert potential_at(src, x, M_PROBE) == pytest.approx(expected, rel=1e-6)

    def test_against_volume_quadrature_interior(self):
        src = make_superposed_source(R, RHO, D)
        x = (1.2 * R, 0.0, 0.0)   # inside the +x lobe
        expected = sum(uniform_sphere_potential_quadrature(c, x, M_PROBE)
                       for c in src.components)
        assert potential_at(src, x, M_PROBE) == pytest.approx(expected, rel=1e-6)

    def test_differs_from_collapsed(self):
        two = make_superposed_source(R, RHO, D)
        one = make_superposed_source(R, RHO, 0.0)
        x = (0.0, 2 * R, 0.0)
        assert potential_at(two, x, M_PROBE) != potential_at(one, x, M_PROBE)

    def test_linearity(self):
        src = make_superposed_source(R, RHO, D)
        singles = [MassDistribution((c,)) for c in src.components]
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-4 * R, 4 * R, 3)
            total = sum(potential_at(s, x, M_PROBE) for s in singles)
            assert potential_at(src, x, M_PROBE) == pytest.approx(total, rel=1e-14)

    def test_far_field_barycenter(self):
        src = make_superposed_source(R, RHO, D)
        M = src.total_mass
        r = 1e3 * (D + R)
        for direction in ((1, 0, 0), (0, 1, 0), (0.6, 0.48, 0.64)):
            x = r * np.asarray(direction) / np.linalg.norm(direction)
            V = potential_at(src, x, M_PROBE)
            assert V == pytest.approx(-CONST.G * M_PROBE * M / r, rel=1e-5)

    def test_continuity_across_boundary(self):
        src = make_superposed_source(R, RHO, D)
        center = np.asarray(src.components[1].center)
        for direction in ((0, 1, 0), (1, 0, 0), (0, 0, 1)):
            n = np.asarray(direction, float)
            V_out = potential_at(src, center + R * (1 + 1e-8) * n, M_PROBE)
            V_in = potential_at(src, center + R * (1 - 1e-8) * n, M_PROBE)
            assert V_out == pytest.approx(V_in, rel=1e-7)
            F_out = force_at(src, center + R * (1 + 1e-8) * n, M_PROBE)
            F_in = force_at(src, center + R * (1 - 1e-8) * n, M_PROBE)
            assert_allclose(F_out, F_in, rtol=1e-6)


class TestForce:
    def test_midpoint_equilibrium(self):
        src = make_superposed_source(R, RHO, D)
        F = force_at(src, (0.0, 0.0, 0.0), M_PROBE)
        scale = CONST.G * M_PROBE * src.total_mass / (D / 2) ** 2
        assert np.linalg.norm(F) < 1e-14 * scale

    def test_zero_and_silent_at_component_center(self):
        src = make_superposed_source(R, RHO, D)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for comp in src.components:
                F = force_at(MassDistribution((comp,)), comp.center, M_PROBE)
                assert np.array_equal(F, np.zeros(3))

    def test_field_rows_independent_of_batch(self):
        # the lockstep engine relies on each row's arithmetic not
        # depending on the other rows of the batch
        src = make_superposed_source(R, RHO, D)
        x = np.random.default_rng(4).uniform(-3 * R, 3 * R, (50, 3))
        rows = np.vstack([gravity_field(src, x[i:i + 1]) for i in range(50)])
        assert np.array_equal(gravity_field(src, x), rows)

    def test_point_mass_magnitude(self):
        src = make_superposed_source(R, RHO, 0.0)
        M = src.total_mass
        for beta in (1.5, 2.0, 7.3):
            F = force_at(src, (0.0, beta * R, 0.0), M_PROBE)
            assert np.linalg.norm(F) == pytest.approx(
                CONST.G * M_PROBE * M / (beta * R) ** 2, rel=1e-14)
            assert F[1] < 0  # attractive, toward the origin

    def test_matches_gradient_single_sphere(self):
        src = make_superposed_source(R, RHO, 0.0)
        x = np.array([0.7 * R, 1.1 * R, -0.4 * R])
        assert_allclose(force_at(src, x, M_PROBE),
                        _numeric_force(src, x), rtol=1e-6)

    def test_gradient_at_100_random_points(self):
        src = make_superposed_source(R, RHO, D)
        rng = np.random.default_rng(12345)
        n_interior = 0
        for _ in range(100):
            if rng.random() < 0.4:  # bias some draws into the lobes
                comp = src.components[rng.integers(2)]
                x = np.asarray(comp.center) + rng.uniform(-0.9, 0.9, 3) * R / 2
            else:
                x = rng.uniform(-5 * R, 5 * R, 3)
            for comp in src.components:
                if np.linalg.norm(x - np.asarray(comp.center)) < comp.radius:
                    n_interior += 1
                    break
            F = force_at(src, x, M_PROBE)
            F_num = _numeric_force(src, x)
            assert_allclose(F, F_num, rtol=1e-5,
                            atol=1e-5 * np.linalg.norm(F_num))
        assert n_interior > 10  # the sample really covers the interior


def per_point_potential(dist, x, m_probe):
    """The piecewise potential one point at a time, the distance summed in
    coordinate order."""
    Gm = CONST.G * m_probe
    V = 0.0
    for comp in dist.components:
        dx, dy, dz = (float(xi) - ci for xi, ci in zip(x, comp.center))
        s = math.sqrt(dx * dx + dy * dy + dz * dz)
        R = comp.radius
        if s >= R:
            V -= Gm * comp.mass / s
        else:
            V -= Gm * comp.mass * (3 * R**2 - s * s) / (2 * R**3)
    return V


class TestPotentialKernel:
    def test_matches_per_point_formula(self):
        src = make_superposed_source(R, RHO, D)
        rng = np.random.default_rng(11)
        left, right = (np.asarray(c.center) for c in src.components)
        points = np.array([
            *rng.uniform(-5 * R, 5 * R, (20, 3)),
            *(right + rng.uniform(-0.5, 0.5, (5, 3)) * R),   # interior
            *(left + rng.uniform(-0.5, 0.5, (5, 3)) * R),
            (0.0, 0.0, 0.0),          # s = R from both lobes at d = 2R
            right + (0.0, R, 0.0),    # s = R
            left,                     # a component center, s = 0
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V = gravity_potential(src, points, M_PROBE)
        assert V.shape == (len(points),)
        assert V.tolist() == [per_point_potential(src, x, M_PROBE)
                              for x in points]
        assert [potential_at(src, x, M_PROBE) for x in points] == V.tolist()


def _numeric_force(src, x, h_rel=1e-7):
    x = np.asarray(x, float)
    h = h_rel * max(np.linalg.norm(x), R)
    F = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        F[k] = -(potential_at(src, x + e, M_PROBE)
                 - potential_at(src, x - e, M_PROBE)) / (2 * h)
    return F


class TestSerialization:
    def test_round_trip(self):
        src = make_superposed_source(R, RHO, D)
        clone = MassDistribution.from_dict(src.to_dict())
        assert clone == src

    def test_dict_schema(self):
        src = make_superposed_source(R, RHO, D)
        data = src.to_dict()
        assert set(data) == {"components"}
        assert set(data["components"][0]) == {"center", "radius", "mass"}

    def test_total_mass_consistency_enforced(self):
        comp = SphereComponent((0.0, 0.0, 0.0), R, 1e-12)
        with pytest.raises(InvalidParameterError):
            MassDistribution((comp,), total_mass=2e-12)
