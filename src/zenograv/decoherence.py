"""Localization rates of the levitated source and probe-side consistency checks.

Implements the standard collisional-decoherence model: a channel is a
localization parameter Lambda (m^-2 s^-1) and a thermal wavelength
lambda_th (m); the decoherence rate at separation x is the saturating
Gamma(x) = lambda_th^2 Lambda (1 - exp(-x^2/lambda_th^2)), which reduces
to Lambda x^2 for x << lambda_th and to lambda_th^2 Lambda for
x >> lambda_th.  Channels: rest-gas collisions (hydrogen background) and
blackbody photon scattering / absorption / emission.

Every rate is elementwise: radius, separation and the environment's
pressure and temperatures may be floats or broadcastable arrays (a grid
of environments), and a scalar call returns floats.

Each first-principles rate is paired with the rounded single-significant-
figure coefficient form quoted in the reference tables these formulas are
usually cited with; agreement within their rounding is a consistency
check, not a second model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CONST
from .elementwise import (parameter, ratio_or_inf, require, require_finite,
                          result)
from .errors import RateOverflowError

# rounded reference coefficients (1 significant figure except the gas one)
GAS_COEFF = 1.96e26       # Gamma_gas ~ GAS_COEFF * p R^2 / sqrt(T_e)
BB_SC_COEFF = 5e36        # Lambda_bb_sc ~ BB_SC_COEFF * R^6 T_e^9
BB_ABEM_COEFF = 5e25      # Lambda_bb_ab/em ~ BB_ABEM_COEFF * R^3 T^6
MFP_COEFF = 3.6e-15       # l_mfp ~ MFP_COEFF * T_e / p (area-convention bound)
# Riemann zeta(9): scipy.special.zeta(9) as a literal, so that importing the
# toolkit does not import scipy.  A numpy float like scipy's, so that an
# overflow in a product with it still raises under np.errstate.
ZETA_9 = np.float64(1.0020083928260821)


@dataclass(frozen=True)
class Environment:
    """Vacuum and thermal environment of the source.

    epsilon_factor holds (Re, Im) of (eps-1)/(eps+2), each clipped to the
    dielectric worst case [0, 1]; the default (1, 1) is maximal dispersion
    and absorption.  pressure, T_env and T_int may be broadcastable
    arrays, one environment per element.
    """

    pressure: float = parameter(1e-15, "Pa", "nonneg", "pressure_Pa")
    T_env: float = parameter(1.0, "K, environment temperature", "pos", "T_env_K")
    T_int: float = parameter(1.0, "K, internal temperature", "pos", "T_int_K")
    epsilon_factor: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        # written as x > 0, not as not x <= 0, so that NaN fails
        require(self.pressure >= 0, "pressure must be >= 0, got {}",
                self.pressure)
        require((self.T_env > 0) & (self.T_int > 0), "temperatures must be > 0")
        re, im = self.epsilon_factor
        require(0 <= re <= 1 and 0 <= im <= 1,
                "epsilon_factor components must lie in [0, 1]")
        require_finite(self)


@dataclass(frozen=True)
class ChannelRate:
    """One decoherence channel: localization strength and derived rates."""

    Lambda: float            # m^-2 s^-1
    lambda_th: float         # m
    gamma: float             # s^-1, rate actually used (exact saturating form)
    gamma_rounded: float     # s^-1, from the rounded reference coefficient
    regime: str              # "short" (x >= lambda_th) or "long"


@dataclass(frozen=True)
class DecoherenceBreakdown:
    gamma_gas: float
    gamma_bb_sc: float
    gamma_bb_abs: float
    gamma_bb_em: float
    gamma_total: float = field(init=False)   # the channel sum
    regime_flags: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("gamma_gas", "gamma_bb_sc", "gamma_bb_abs", "gamma_bb_em"):
            require(getattr(self, name) >= 0, f"{name} must be >= 0")
        object.__setattr__(self, "gamma_total",
                           self.gamma_gas + self.gamma_bb_sc
                           + self.gamma_bb_abs + self.gamma_bb_em)


def _regime(x, lambda_th):
    """"short" where x >= lambda_th, else "long" (a str or a str array)."""
    flag = np.where(x >= lambda_th, "short", "long")
    return str(flag) if flag.ndim == 0 else flag


def gamma_distance(Lambda, lambda_th, x):
    """Saturating decoherence rate lambda^2 Lambda (1 - exp(-x^2/lambda^2)).

    Monotone in x: ~Lambda x^2 well below the thermal wavelength,
    saturating at lambda^2 Lambda far above it.
    """
    require(Lambda >= 0, "Lambda must be >= 0, got {}", Lambda)
    require(lambda_th > 0, "lambda_th must be > 0, got {}", lambda_th)
    r = x / lambda_th
    return result(lambda_th**2 * Lambda * -np.expm1(-r * r))


def gas_thermal_wavelength(T_e):
    """2 pi hbar / sqrt(2 pi m_H2 k_B T_e) (m)."""
    return result(2 * np.pi * CONST.hbar / np.sqrt(
        2 * np.pi * CONST.m_H2 * CONST.k_B * T_e))


def rest_gas_rate(env: Environment, R) -> ChannelRate:
    """Saturated rest-gas localization rate (lambda_th/hbar)(16 pi/3) p R^2.

    The gas thermal wavelength is far below any superposition size of
    interest, so the saturated form is the channel rate; the Lambda field
    backs out the localization parameter for the exact distance form.
    """
    require(R > 0, "R must be > 0, got {}", R)
    lam = gas_thermal_wavelength(env.T_env)
    gamma_sat = (lam / CONST.hbar) * (16 * np.pi / 3) * env.pressure * R**2
    if not np.all(np.isfinite(gamma_sat)):
        # the prefactor times p overflows; times an underflowed R^2 it is NaN
        raise RateOverflowError("rest-gas rate (lambda_th/hbar)(16 pi/3) "
                                "p R^2 overflows the float range",
                                cells=~np.isfinite(gamma_sat))
    rounded = result(GAS_COEFF * env.pressure * R**2 / np.sqrt(env.T_env))
    Lambda = gamma_sat / lam**2
    return ChannelRate(Lambda=Lambda, lambda_th=lam, gamma=gamma_sat,
                       gamma_rounded=rounded, regime=_regime(R, lam))


def bb_thermal_wavelength(T):
    """pi^(2/3) hbar c / (k_B T) (m)."""
    return np.pi ** (2.0 / 3.0) * CONST.hbar * CONST.c / (CONST.k_B * T)


def blackbody_rates(env: Environment, R, x
                    ) -> tuple[ChannelRate, ChannelRate, ChannelRate]:
    """(scattering, absorption, emission) channel rates at separation x.

    Localization parameters:
      scattering  (1/lambda_e)^9 * (8! 8 zeta(9) pi^5 c R^6 / 9) * Re(f)^2
      absorption  (1/lambda_e)^6 * (16 pi^9 c R^3 / 189) * Im(f)
      emission    same as absorption with the internal temperature
    with f = (eps-1)/(eps+2).  Rates use the exact saturating distance
    form, which reproduces Lambda x^2 in the usual long-wavelength regime
    and caps the rate if x outruns the thermal wavelength.
    """
    require(R > 0, "R must be > 0, got {}", R)
    require(x >= 0, "x must be >= 0, got {}", x)
    re_f, im_f = env.epsilon_factor
    c = CONST.c
    lam_e = bb_thermal_wavelength(env.T_env)
    lam_i = bb_thermal_wavelength(env.T_int)

    L_sc = result((1.0 / lam_e) ** 9 * (math.factorial(8) * 8 * ZETA_9
                                        * np.pi**5 * c * R**6 / 9.0) * re_f**2)
    L_abs = (1.0 / lam_e) ** 6 * (16 * np.pi**9 * c * R**3 / 189.0) * im_f
    L_em = (1.0 / lam_i) ** 6 * (16 * np.pi**9 * c * R**3 / 189.0) * im_f

    def channel(L, lam, T, rounded_coeff, power):
        rounded = rounded_coeff * R**(6 if power == 9 else 3) * T**power * x**2
        return ChannelRate(Lambda=L, lambda_th=lam,
                           gamma=gamma_distance(L, lam, x),
                           gamma_rounded=rounded, regime=_regime(x, lam))

    sc = channel(L_sc, lam_e, env.T_env, BB_SC_COEFF * re_f**2, 9)
    ab = channel(L_abs, lam_e, env.T_env, BB_ABEM_COEFF * im_f, 6)
    em = channel(L_em, lam_i, env.T_int, BB_ABEM_COEFF * im_f, 6)
    return sc, ab, em


def total_decoherence(env: Environment, R) -> DecoherenceBreakdown:
    """All channels evaluated at separation x = R; total is their sum.

    The total is the decoherence-side lower bound on the freeze
    (measurement) rate needed to hold the superposition.
    """
    gas = rest_gas_rate(env, R)
    gamma_gas = gamma_distance(gas.Lambda, gas.lambda_th, R)
    sc, ab, em = blackbody_rates(env, R, R)
    return DecoherenceBreakdown(
        gamma_gas=gamma_gas, gamma_bb_sc=sc.gamma,
        gamma_bb_abs=ab.gamma, gamma_bb_em=em.gamma,
        regime_flags={"gas": gas.regime, "bb_sc": sc.regime,
                      "bb_abs": ab.regime, "bb_em": em.regime})


def wavepacket_spread(m, t, delta_u):
    """Free Gaussian wavepacket width sqrt(2 du^2 + (hbar t / (m du))^2 / 2) (m)."""
    require((m > 0) & (delta_u > 0) & (t >= 0),
            "m and delta_u must be > 0, t >= 0")
    return result(np.sqrt(2 * delta_u**2
                          + 0.5 * (CONST.hbar * t / (m * delta_u)) ** 2))


def wavepacket_spread_min(m, t):
    """(sigma_min, du_min): the optimum sqrt(2 hbar t/m) at du = sqrt(hbar t/(2m))."""
    require((m > 0) & (t >= 0), "m must be > 0 and t >= 0")
    return (result(np.sqrt(2 * CONST.hbar * t / m)),
            result(np.sqrt(CONST.hbar * t / (2 * m))))


def momentum_floor(m, t, v):
    """(dp_min, dp_min/(m v)): momentum width sqrt(hbar m / (2 t)) of the
    minimally spreading wavepacket, and its ratio to the mean momentum."""
    require((m > 0) & (t > 0) & (v > 0), "m, t, v must all be > 0")
    dp = result(np.sqrt(CONST.hbar * m / (2 * t)))
    return dp, dp / (m * v)


@dataclass(frozen=True)
class MeanFreePath:
    value: float             # m, first-principles k_B T/(sqrt(2) A p)
    rounded: float           # m, coefficient form MFP_COEFF * T/p
    cross_section: float     # m^2, pi (d_H2/2 + R_probe)^2


def mean_free_path(env: Environment, R_probe) -> MeanFreePath:
    """Probe mean free path against the hydrogen rest gas.

    First-principles value uses the geometric cross section of the probe
    and a gas molecule; the rounded coefficient form folds an area
    convention in and is carried for comparison only.  p = 0 gives an
    infinite path.
    """
    require(R_probe >= 0, "R_probe must be >= 0, got {}", R_probe)
    A = np.pi * (CONST.d_H2 / 2 + R_probe) ** 2
    value = ratio_or_inf(CONST.k_B * env.T_env,
                         math.sqrt(2) * A * env.pressure)
    rounded = ratio_or_inf(MFP_COEFF * env.T_env, env.pressure)
    return MeanFreePath(value=value, rounded=rounded, cross_section=A)
