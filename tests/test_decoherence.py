import math

import numpy as np
import pytest
from conftest import wavepacket_spread

from zenograv.constants import CONST
from zenograv.decoherence import (DecoherenceBreakdown, Environment,
                                  blackbody_rates, gamma_distance,
                                  mean_free_path, momentum_floor,
                                  rest_gas_rate, total_decoherence,
                                  wavepacket_spread_min)
from zenograv.errors import InvalidParameterError, RateOverflowError

# The rounded coefficients quoted in the reference tables these formulas
# are usually cited with (1 significant figure except the gas one); the
# first-principles rates are checked against them here, and no rate is
# computed from them.
GAS_COEFF = 1.96e26       # Gamma_gas ~ GAS_COEFF * p R^2 / sqrt(T_e)
BB_SC_COEFF = 5e36        # Lambda_bb_sc ~ BB_SC_COEFF * R^6 T_e^9
BB_ABEM_COEFF = 5e25      # Lambda_bb_ab/em ~ BB_ABEM_COEFF * R^3 T^6
# l_mfp ~ MFP_COEFF * T_e / p: its rounded form folds an area convention in
MFP_COEFF = 3.6e-15

REF_ENV = Environment(pressure=1e-15, T_env=1.0, T_int=1.0)
R = 1e-5


class TestGammaDistance:
    def test_zero_separation(self):
        assert gamma_distance(1e10, 1e-9, 0.0) == 0.0

    def test_saturation(self):
        lam, Lam = 1e-9, 1e10
        sat = lam**2 * Lam
        assert gamma_distance(Lam, lam, 100 * lam) == pytest.approx(sat, rel=1e-12)

    def test_midpoint(self):
        lam, Lam = 1e-9, 1e10
        assert gamma_distance(Lam, lam, lam) == pytest.approx(
            lam**2 * Lam * (1 - math.exp(-1)), rel=1e-12)

    def test_monotone_and_saturating(self):
        lam, Lam = 2e-3, 1e8
        xs = np.logspace(-6, 0, 40)
        g = [gamma_distance(Lam, lam, x) for x in xs]
        assert all(b >= a for a, b in zip(g, g[1:]))
        sat = lam**2 * Lam
        for x in xs[xs > 10 * lam]:
            assert gamma_distance(Lam, lam, x) == pytest.approx(sat, rel=1e-6)

    def test_quadratic_regime(self):
        lam, Lam = 2e-3, 1e8
        x = 1e-5   # x << lambda
        assert gamma_distance(Lam, lam, x) == pytest.approx(Lam * x**2, rel=1e-4)


class TestRestGas:
    def test_first_principles_coefficient(self):
        # Gamma_g * sqrt(T) / (p R^2), frozen from the pinned constants
        ch = rest_gas_rate(REF_ENV, R)
        coeff = ch.gamma * math.sqrt(REF_ENV.T_env) / (REF_ENV.pressure * R**2)
        assert coeff == pytest.approx(1.9537165e26, rel=1e-6)
        # reproduces the rounded reference value well within factor 1.5
        assert 1 / 1.5 < coeff / GAS_COEFF < 1.5

    def test_reference_rate(self):
        ch = rest_gas_rate(REF_ENV, R)
        rounded = GAS_COEFF * REF_ENV.pressure * R**2 / math.sqrt(REF_ENV.T_env)
        assert rounded == pytest.approx(19.6, rel=1e-12)
        assert ch.gamma == pytest.approx(19.537, rel=1e-3)

    def test_perfect_vacuum(self):
        env = Environment(pressure=0.0, T_env=1.0, T_int=1.0)
        assert rest_gas_rate(env, R).gamma == 0.0

    def test_short_wavelength_regime(self):
        ch = rest_gas_rate(REF_ENV, R)
        assert R >= ch.lambda_th
        assert ch.lambda_th < 1e-8  # ~1.2 nm at 1 K

    def test_saturated_form_accuracy(self):
        # beyond 10 thermal wavelengths the saturated value is exact to 1e-3
        ch = rest_gas_rate(REF_ENV, R)
        exact = gamma_distance(ch.Lambda, ch.lambda_th, 10 * ch.lambda_th)
        assert abs(ch.gamma - exact) / exact < 1e-3

    def test_power_laws(self):
        def rate(p, radius, T):
            return rest_gas_rate(Environment(p, T, T), radius).gamma
        assert _loglog_slope(lambda p: rate(p, R, 1.0), 1e-15, 1e-12) \
            == pytest.approx(1.0, abs=1e-6)
        assert _loglog_slope(lambda r: rate(1e-15, r, 1.0), 1e-7, 1e-5) \
            == pytest.approx(2.0, abs=1e-6)
        assert _loglog_slope(lambda T: rate(1e-15, R, T), 0.5, 8.0) \
            == pytest.approx(-0.5, abs=1e-6)


def _loglog_slope(f, x1, x2):
    return (math.log(f(x2)) - math.log(f(x1))) / (math.log(x2) - math.log(x1))


class TestBlackbody:
    def test_first_principles_coefficients(self):
        sc, ab, em = blackbody_rates(REF_ENV, R, R)
        assert sc.Lambda / R**6 == pytest.approx(3.1935e36, rel=1e-4)
        assert ab.Lambda / R**3 == pytest.approx(7.4098e25, rel=1e-4)
        assert em.Lambda == ab.Lambda  # T_int = T_env here

    def test_rounded_coefficients_within_factor_two(self):
        sc, ab, em = blackbody_rates(REF_ENV, R, R)
        for got, rounded in ((sc.Lambda / R**6, BB_SC_COEFF),
                             (ab.Lambda / R**3, BB_ABEM_COEFF),
                             (em.Lambda / R**3, BB_ABEM_COEFF)):
            ratio = got / rounded
            assert 0.5 < ratio < 2.0

    def test_long_wavelength_regime_and_quadratic_rate(self):
        sc, ab, em = blackbody_rates(REF_ENV, R, R)
        for ch in (sc, ab, em):
            assert R < ch.lambda_th
            assert ch.lambda_th > 1e-3
            assert ch.gamma == pytest.approx(ch.Lambda * R**2, rel=1e-3)

    def test_cold_limit(self):
        env = Environment(pressure=0.0, T_env=1e-3, T_int=1e-3)
        sc, ab, em = blackbody_rates(env, R, R)
        ref = blackbody_rates(REF_ENV, R, R)
        assert sc.gamma < 2e-27 * ref[0].gamma   # ~T^9 suppression
        assert ab.gamma < 2e-18 * ref[1].gamma   # ~T^6 suppression

    def test_zero_separation(self):
        sc, ab, em = blackbody_rates(REF_ENV, R, 0.0)
        assert sc.gamma == ab.gamma == em.gamma == 0.0

    def test_emission_uses_internal_temperature(self):
        env = Environment(pressure=1e-15, T_env=1.0, T_int=2.0)
        sc, ab, em = blackbody_rates(env, R, R)
        assert em.gamma == pytest.approx(2**6 * ab.gamma, rel=1e-4)

    def test_power_laws(self):
        def lam_sc(radius, T):
            return blackbody_rates(Environment(0.0, T, T), radius, radius)[0].Lambda

        def lam_ab(radius, T):
            return blackbody_rates(Environment(0.0, T, T), radius, radius)[1].Lambda
        assert _loglog_slope(lambda r: lam_sc(r, 1.0), 1e-6, 1e-4) \
            == pytest.approx(6.0, abs=1e-6)
        assert _loglog_slope(lambda T: lam_sc(R, T), 0.5, 4.0) \
            == pytest.approx(9.0, abs=1e-6)
        assert _loglog_slope(lambda r: lam_ab(r, 1.0), 1e-6, 1e-4) \
            == pytest.approx(3.0, abs=1e-6)
        assert _loglog_slope(lambda T: lam_ab(R, T), 0.5, 4.0) \
            == pytest.approx(6.0, abs=1e-6)


class TestTotal:
    def test_reference_breakdown(self):
        b = total_decoherence(REF_ENV, R)
        assert b.gamma_gas == pytest.approx(19.537, rel=1e-3)
        assert b.gamma_bb_abs == pytest.approx(7.410, rel=1e-3)
        assert b.gamma_bb_em == pytest.approx(7.410, rel=1e-3)
        assert b.gamma_bb_sc < 1e-3
        assert b.gamma_total == pytest.approx(
            b.gamma_gas + b.gamma_bb_sc + b.gamma_bb_abs + b.gamma_bb_em)
        # a freeze rate of 1e2..1e3 1/s comfortably beats this total
        assert 10.0 < b.gamma_total < 1e3

    def test_linear_in_pressure(self):
        b1 = total_decoherence(REF_ENV, R)
        b2 = total_decoherence(Environment(1e-12, 1.0, 1.0), R)
        assert b2.gamma_gas == pytest.approx(1e3 * b1.gamma_gas, rel=1e-12)
        assert b2.gamma_bb_abs == pytest.approx(b1.gamma_bb_abs, rel=1e-12)

    def test_channel_crossover_in_radius(self):
        small = total_decoherence(REF_ENV, 1e-6)
        large = total_decoherence(REF_ENV, 1e-4)
        bb_small = small.gamma_bb_abs + small.gamma_bb_em + small.gamma_bb_sc
        bb_large = large.gamma_bb_abs + large.gamma_bb_em + large.gamma_bb_sc
        assert small.gamma_gas > bb_small      # gas dominates small spheres
        assert bb_large > large.gamma_gas      # blackbody dominates large ones

    def test_total_is_the_channel_sum_not_an_argument(self):
        b = DecoherenceBreakdown(1.0, 2.0, 3.0, 4.0)
        assert b.gamma_total == 10.0
        with pytest.raises(TypeError):
            DecoherenceBreakdown(1.0, 2.0, 3.0, 4.0, gamma_total=10.0)
        # a NaN rate still fails, so its feasibility cell is indeterminate
        with pytest.raises(InvalidParameterError, match="gamma_gas"):
            DecoherenceBreakdown(math.nan, 2.0, 3.0, 4.0)



class TestProbeClassicality:
    def test_spread_at_t_zero(self):
        assert wavepacket_spread(1e-18, 0.0, 1e-8) == pytest.approx(
            math.sqrt(2) * 1e-8, rel=1e-12)

    def test_minimum_spread_reference(self):
        sigma = wavepacket_spread_min(1e-18, 100.0)
        assert sigma == pytest.approx(1.41421e-7, rel=1e-4)
        assert sigma == pytest.approx(1.45e-7, rel=0.03)
        assert sigma / R == pytest.approx(0.01414, rel=1e-3)

    def test_minimizer_is_optimal(self):
        m, t = 1e-18, 100.0
        sigma_min = wavepacket_spread_min(m, t)
        du_min = sigma_min / 2     # sqrt(hbar t/(2m)), the optimal start
        assert wavepacket_spread(m, t, du_min) == pytest.approx(sigma_min,
                                                                rel=1e-12)
        for q in (0.5, 2.0):
            assert wavepacket_spread(m, t, q * du_min) > sigma_min

    def test_momentum_floor_reference(self):
        # dp_min = 7.0711e-28 kg m/s against m v = 1e-24 kg m/s
        ratio = momentum_floor(1e-18, 100.0, 1e-6)
        assert ratio == pytest.approx(7.0711e-4, rel=1e-4)
        assert ratio == pytest.approx(7.3e-4, rel=0.05)
        assert ratio < 1e-3

    def test_momentum_floor_scalings(self):
        r1 = momentum_floor(1e-18, 100.0, 1e-6)
        r2 = momentum_floor(1e-18, 100.0, 0.5e-6)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)
        r3 = momentum_floor(1e-18, 1e12, 1e-6)
        assert r3 < 1e-4 * r1


class TestMeanFreePath:
    def test_reference_value(self):
        env = Environment(pressure=1e-12, T_env=1.0, T_int=1.0)
        mfp = mean_free_path(env, 1e-6)
        assert mfp == pytest.approx(3.1067, rel=1e-3)
        assert 1.0 < mfp < 100.0   # "very long" at these pressures
        area = np.pi * (CONST.d_H2 / 2 + 1e-6) ** 2
        assert mfp == pytest.approx(
            CONST.k_B * env.T_env / (math.sqrt(2) * area * env.pressure),
            rel=1e-12)

    def test_rounded_form_is_reported_not_used(self):
        env = Environment(pressure=1e-12, T_env=1.0, T_int=1.0)
        mfp = mean_free_path(env, 1e-6)
        rounded = MFP_COEFF * env.T_env / env.pressure
        assert rounded == pytest.approx(3.6e-3, rel=1e-9)
        assert mfp != pytest.approx(rounded, rel=0.5)

    def test_inverse_pressure_law(self):
        v1 = mean_free_path(Environment(1e-12, 1.0, 1.0), 1e-6)
        v2 = mean_free_path(Environment(2e-12, 1.0, 1.0), 1e-6)
        assert v1 == pytest.approx(2 * v2, rel=1e-12)

    def test_perfect_vacuum(self):
        env = Environment(pressure=0.0, T_env=1.0, T_int=1.0)
        assert mean_free_path(env, 1e-6) == math.inf


class TestValidation:
    def test_environment(self):
        with pytest.raises(InvalidParameterError):
            Environment(pressure=-1.0, T_env=1.0, T_int=1.0)
        with pytest.raises(InvalidParameterError):
            Environment(pressure=0.0, T_env=0.0, T_int=1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0),
                                      (1e-15, math.nan, 1.0),
                                      (1e-15, 1.0, math.nan)])
    def test_environment_rejects_nan(self, args):
        with pytest.raises(InvalidParameterError):
            Environment(*args)

    @pytest.mark.parametrize("field,args", [
        ("pressure", (math.inf, 1.0, 1.0)),
        ("T_env", (1e-15, math.inf, 1.0)),
        ("T_int", (1e-15, 1.0, math.inf)),
        ("pressure", (np.array([1e-15, math.inf]), 1.0, 1.0)),
    ])
    def test_environment_rejects_inf(self, field, args):
        with pytest.raises(InvalidParameterError,
                           match=f"^{field} must be finite, got inf$"):
            Environment(*args)

    def test_array_environment_names_first_bad_value(self):
        with pytest.raises(InvalidParameterError,
                           match="pressure must be >= 0, got -2.0"):
            Environment(np.array([1e-15, -2.0, -3.0]), 1.0, 1.0)

    def test_negative_radius(self):
        with pytest.raises(InvalidParameterError):
            rest_gas_rate(REF_ENV, -1e-5)
        with pytest.raises(InvalidParameterError):
            mean_free_path(REF_ENV, -1e-6)


class TestElementwise:
    def test_grid_of_environments_matches_scalar_calls(self):
        # one call over a (pressure, temperature) x radius grid equals the
        # scalar calls cell by cell, and scalar calls return floats
        p = np.array([0.0, 1e-15, 1e-9])[:, None, None]
        T = np.array([0.5, 4.0])[None, :, None]
        Rs = np.logspace(-7, -4, 4)
        env = Environment(p, T, 2 * T)
        b = total_decoherence(env, Rs)
        mfp = mean_free_path(env, 1e-6)
        shape = b.gamma_total.shape
        assert shape == (3, 2, 4)
        for i, j, k in np.ndindex(shape):
            one_env = Environment(float(p[i, 0, 0]), float(T[0, j, 0]),
                                  float(2 * T[0, j, 0]))
            one = total_decoherence(one_env, float(Rs[k]))
            for name in ("gamma_gas", "gamma_bb_sc", "gamma_bb_abs",
                         "gamma_bb_em", "gamma_total"):
                assert type(getattr(one, name)) is float
                grid = np.broadcast_to(getattr(b, name), shape)
                assert grid[i, j, k] == pytest.approx(getattr(one, name),
                                                      rel=1e-14, abs=0.0)
            one_mfp = mean_free_path(one_env, 1e-6)
            assert type(one_mfp) is float
            assert np.broadcast_to(mfp, (3, 2, 1))[i, j, 0] == \
                pytest.approx(one_mfp, rel=1e-15)
        assert np.all(np.isinf(mfp[0]))

    def test_probe_bounds_elementwise(self):
        t = np.array([1.0, 10.0, 100.0])
        sigma = wavepacket_spread_min(1e-18, t)
        ratio = momentum_floor(1e-18, t, 1e-6)
        for k, tk in enumerate(t):
            assert sigma[k] == wavepacket_spread_min(1e-18, float(tk))
            assert ratio[k] == momentum_floor(1e-18, float(tk), 1e-6)
        assert type(momentum_floor(1e-18, 1.0, 1e-6)) is float
        with pytest.raises(InvalidParameterError):
            momentum_floor(1e-18, np.array([1.0, 0.0]), 1e-6)


def test_rest_gas_overflow_is_a_numerical_error():
    # (lambda_th/hbar)(16 pi/3) p is inf, R^2 is 0 and their product NaN
    env = Environment(pressure=1e300)
    for R in (1e-168, np.array([1e-5, 1e-168])):
        with pytest.raises(RateOverflowError, match="overflows") as exc, \
                np.errstate(invalid="ignore"):
            total_decoherence(env, R)
        assert not isinstance(exc.value, InvalidParameterError)
    assert math.isfinite(rest_gas_rate(Environment(pressure=1e100),
                                       1e-168).gamma)
