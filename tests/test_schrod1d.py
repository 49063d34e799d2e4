import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zenograv.errors import GridInsufficientError, InvalidParameterError
from zenograv.schrod1d import (PotentialSpec1D, classify_ground_state,
                               find_wells, potential_gradient, solve_eigen)

TRIPLE_WELL = PotentialSpec1D(a=1, b=4, c=1, M=1e-11, d=1e-5)


class TestSpec:
    def test_energy_unit(self):
        # hbar^2/(2 M d^2) with hbar = 1e-34, M = 1e-11, d = 1e-5
        assert TRIPLE_WELL.V0() == pytest.approx(5.0e-48, rel=1e-12)

    def test_non_confining_rejected(self):
        with pytest.raises(InvalidParameterError):
            PotentialSpec1D(a=1, b=4, c=0.0, M=1e-11, d=1e-5)
        with pytest.raises(InvalidParameterError):
            PotentialSpec1D(a=1, b=4, c=1, M=-1e-11, d=1e-5)

    @pytest.mark.parametrize("field, message", [
        ("a", "a and b must be finite"), ("b", "a and b must be finite"),
        ("c", r"c must be > 0 \(confining\)"), ("M", "M and d must be > 0"),
        ("d", "M and d must be > 0")])
    def test_nan_rejected(self, field, message):
        params = {**dict(a=1, b=4, c=1, M=1e-11, d=1e-5), field: math.nan}
        with pytest.raises(InvalidParameterError, match=message):
            PotentialSpec1D(**params)

    def test_potential_shape(self):
        # triple well: central minimum at 0, two deep side minima, two barriers
        wells = find_wells(TRIPLE_WELL)
        assert_allclose(wells["minima"], [-1.59223, 1.59223], rtol=1e-4)
        assert_allclose(wells["maxima"], [-0.362606, 0.362606], rtol=1e-4)
        assert TRIPLE_WELL.potential(0.0) == 0.0
        assert TRIPLE_WELL.potential(1.59223) < -6.8


class TestHarmonicOracle:
    def test_spectrum_2n_plus_1(self):
        # -psi'' + x^2 psi = E psi has E_n = 2n+1 exactly
        spec = PotentialSpec1D(a=1, b=0, c=1e-15, M=1e-11, d=1e-5)
        sol = solve_eigen(spec, n_states=4, grid=(-8.0, 8.0, 4000))
        assert_allclose(sol.energies_V0, [1.0, 3.0, 5.0, 7.0], rtol=1e-4)


class TestTripleWellSpectrum:
    def test_reference_energies(self):
        sol = solve_eigen(TRIPLE_WELL, n_states=2)
        assert sol.energies[0] == pytest.approx(-1.0e-47, rel=0.02)
        assert sol.energies[1] == pytest.approx(-8.86e-48, rel=0.02)
        # dimensionless eigenvalues, frozen from the converged solve
        assert sol.energies_V0[0] == pytest.approx(-2.00000, rel=1e-4)
        assert sol.energies_V0[1] == pytest.approx(-1.77273, rel=1e-4)
        assert sol.gap_01 == pytest.approx(sol.energies[1] - sol.energies[0])

    def test_grid_convergence(self):
        e1 = solve_eigen(TRIPLE_WELL, 1, grid=(-4.0, 4.0, 4000)).energies[0]
        e2 = solve_eigen(TRIPLE_WELL, 1, grid=(-4.0, 4.0, 8000)).energies[0]
        assert abs(e1 - e2) / abs(e1) < 1e-4

    def test_energies_ascending(self):
        sol = solve_eigen(TRIPLE_WELL, n_states=4)
        assert np.all(np.diff(sol.energies) > 0)

    def test_node_counts(self):
        sol = solve_eigen(TRIPLE_WELL, n_states=4)
        for k in range(4):
            psi = sol.wavefunctions[k]
            live = psi[np.abs(psi) > 1e-6 * np.abs(psi).max()]
            assert int(np.sum(np.diff(np.sign(live)) != 0)) == k

    def test_orthonormal_under_trapezoid(self):
        sol = solve_eigen(TRIPLE_WELL, n_states=3)
        h = sol.x[1] - sol.x[0]
        for i in range(3):
            for j in range(3):
                overlap = np.trapezoid(sol.wavefunctions[i] * sol.wavefunctions[j],
                                       dx=h)
                assert overlap == pytest.approx(float(i == j), abs=1e-8)

    def test_parity(self):
        sol = solve_eigen(TRIPLE_WELL, n_states=3)
        for k in range(3):
            psi = sol.wavefunctions[k]
            assert_allclose(np.abs(psi), np.abs(psi[::-1]), atol=1e-6)
            sign = 1.0 if k % 2 == 0 else -1.0   # symmetric V: definite parity
            assert_allclose(psi, sign * psi[::-1], atol=1e-6)

    def test_discrete_energy_consistency(self):
        # trapezoid quadrature of psi (H psi) reproduces the eigenvalue
        sol = solve_eigen(TRIPLE_WELL, n_states=2)
        x = sol.x
        h = x[1] - x[0]
        V = TRIPLE_WELL.potential(x)
        for k in range(2):
            psi = sol.wavefunctions[k]
            lap = np.zeros_like(psi)
            lap[1:-1] = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / h**2
            lap[0] = (psi[1] - 2 * psi[0]) / h**2
            lap[-1] = (psi[-2] - 2 * psi[-1]) / h**2
            E = np.trapezoid(psi * (-lap + V * psi), dx=h)
            assert E == pytest.approx(sol.energies_V0[k], rel=1e-6)

    def test_grid_too_narrow_raises(self):
        with pytest.raises(GridInsufficientError):
            solve_eigen(TRIPLE_WELL, n_states=2, grid=(-1.5, 1.5, 1500))

    def test_small_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            solve_eigen(TRIPLE_WELL, n_states=2, grid=(-4.0, 4.0, 500))

    @pytest.mark.parametrize("n_states", [0, 1001, 100000])
    def test_n_states_outside_grid_rejected(self, n_states):
        # more states than grid points used to reach scipy's select_range
        with pytest.raises(InvalidParameterError,
                           match=r"n_states must be in \[1, n_points = 1000\]"):
            solve_eigen(TRIPLE_WELL, n_states=n_states, grid=(-4.0, 4.0, 1000))

    @pytest.mark.parametrize("grid, message", [
        ((-4.0, math.nan, 4000), "grid bounds must be finite"),
        ((math.nan, 4.0, 4000), "grid bounds must be finite"),
        ((-4.0, math.inf, 4000), "grid bounds must be finite"),
        ((-math.inf, 4.0, 4000), "grid bounds must be finite"),
        ((4.0, -4.0, 4000), "x_max must exceed x_min")])
    def test_bad_grid_bounds_rejected(self, grid, message):
        with pytest.raises(InvalidParameterError, match=message):
            solve_eigen(TRIPLE_WELL, n_states=2, grid=grid)


class TestGradient:
    def test_reference_value(self):
        # |V'(d)| = 8 V0/d = 4.0e-42 J/m for the reference triple well
        grad = potential_gradient(TRIPLE_WELL, 1.0)
        assert grad == pytest.approx(4.0e-42, rel=1e-12)

    def test_symmetry_point(self):
        assert potential_gradient(TRIPLE_WELL, 0.0) == 0.0

    def test_matches_finite_difference(self):
        V0 = TRIPLE_WELL.V0()
        for x in (0.3, 1.0, 1.7, 2.5):
            h = 1e-5
            num = (TRIPLE_WELL.potential(x + h) - TRIPLE_WELL.potential(x - h)) \
                / (2 * h) * V0 / TRIPLE_WELL.d
            assert potential_gradient(TRIPLE_WELL, x) == pytest.approx(
                abs(num), rel=1e-8)


class TestClassification:
    def test_reference_is_delocalized_triple_well(self):
        sol = solve_eigen(TRIPLE_WELL, n_states=2)
        cls = classify_ground_state(sol, TRIPLE_WELL)
        assert cls.label == "delocalized-triple-well"
        assert cls.outside_fraction > 0.5
        assert cls.relative_gap == pytest.approx(0.11364, rel=1e-3)
        # delocalized across all three wells: two symmetric side peaks
        # connected through substantial central amplitude (a tunneling
        # doublet would have essentially zero weight at the origin)
        psi2 = sol.wavefunctions[0] ** 2
        x = sol.x
        peaks = np.nonzero((psi2[1:-1] > psi2[:-2]) & (psi2[1:-1] > psi2[2:]))[0] + 1
        assert len(peaks) == 2
        assert_allclose(x[peaks], [-1.41335, 1.41335], rtol=1e-3)
        i0 = int(np.argmin(np.abs(x)))
        assert psi2[i0] > 0.05 * psi2.max()

    def test_pure_well_is_harmonic_like(self):
        spec = PotentialSpec1D(a=1, b=0, c=1e-15, M=1e-11, d=1e-5)
        sol = solve_eigen(spec, n_states=2, grid=(-8.0, 8.0, 4000))
        assert classify_ground_state(sol, spec).label == "central-harmonic-like"

    def test_deep_central_well_is_harmonic_like(self):
        spec = PotentialSpec1D(a=5, b=4, c=1, M=1e-11, d=1e-5)
        sol = solve_eigen(spec, n_states=2)
        cls = classify_ground_state(sol, spec)
        assert cls.label == "central-harmonic-like"
        assert cls.outside_fraction < 0.25

    def test_deep_double_well_near_degenerate(self):
        spec = PotentialSpec1D(a=1, b=8, c=1, M=1e-11, d=1e-5)
        sol = solve_eigen(spec, n_states=2)
        with pytest.warns(UserWarning, match="degenerate"):
            cls = classify_ground_state(sol, spec)
        assert cls.label == "near-degenerate-double-well"
        assert cls.relative_gap < 1e-3

    def test_needs_two_states(self):
        sol = solve_eigen(TRIPLE_WELL, n_states=1)
        with pytest.raises(InvalidParameterError):
            classify_ground_state(sol, TRIPLE_WELL)
