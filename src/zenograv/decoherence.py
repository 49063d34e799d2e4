"""Localization rates of the levitated source and probe-side consistency checks.

Implements the standard collisional-decoherence model: a channel is a
localization parameter Lambda (m^-2 s^-1) and a thermal wavelength
lambda_th (m); the decoherence rate at separation x is the saturating
Gamma(x) = lambda_th^2 Lambda (1 - exp(-x^2/lambda_th^2)), which reduces
to Lambda x^2 for x << lambda_th and to lambda_th^2 Lambda for
x >> lambda_th.  Channels: rest-gas collisions (hydrogen background) and
blackbody photon scattering / absorption / emission, the latter for the
dielectric worst case Re f = Im f = 1 of f = (eps-1)/(eps+2), which is
fixed.

Every rate is elementwise: radius, separation and the environment's
pressure and temperatures may be floats or broadcastable arrays (a grid
of environments), and a scalar call returns floats.  A channel is in
the short-wavelength regime where x >= lambda_th, which callers read
from its lambda_th.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CONST
from .elementwise import (parameter, ratio_or_inf, require, require_finite,
                          result)
from .errors import RateOverflowError

# Riemann zeta(9): scipy.special.zeta(9) as a literal, so that importing the
# toolkit does not import scipy.  A numpy float like scipy's, so that an
# overflow in a product with it still raises under np.errstate.
ZETA_9 = np.float64(1.0020083928260821)


@dataclass(frozen=True)
class Environment:
    """Vacuum and thermal environment of the source.

    The source's dielectric response is fixed at the worst case,
    Re f = Im f = 1 of f = (eps-1)/(eps+2): maximal dispersion and
    absorption.  pressure, T_env and T_int may be broadcastable arrays,
    one environment per element.
    """

    pressure: float = parameter(1e-15, "Pa", "nonneg", "pressure_Pa")
    T_env: float = parameter(1.0, "K, environment temperature", "pos", "T_env_K")
    T_int: float = parameter(1.0, "K, internal temperature", "pos", "T_int_K")

    def __post_init__(self):
        # written as x > 0, not as not x <= 0, so that NaN fails
        require(self.pressure >= 0, "pressure must be >= 0, got {}",
                self.pressure)
        require((self.T_env > 0) & (self.T_int > 0), "temperatures must be > 0")
        require_finite(self)


@dataclass(frozen=True)
class ChannelRate:
    """One decoherence channel: localization strength and derived rates."""

    Lambda: float            # m^-2 s^-1
    lambda_th: float         # m
    gamma: float             # s^-1, exact saturating form


@dataclass(frozen=True)
class DecoherenceBreakdown:
    gamma_gas: float
    gamma_bb_sc: float
    gamma_bb_abs: float
    gamma_bb_em: float
    gamma_total: float = field(init=False)   # the channel sum

    def __post_init__(self):
        for name in ("gamma_gas", "gamma_bb_sc", "gamma_bb_abs", "gamma_bb_em"):
            require(getattr(self, name) >= 0, f"{name} must be >= 0")
        object.__setattr__(self, "gamma_total",
                           self.gamma_gas + self.gamma_bb_sc
                           + self.gamma_bb_abs + self.gamma_bb_em)


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
    return ChannelRate(Lambda=gamma_sat / lam**2, lambda_th=lam,
                       gamma=gamma_sat)


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
    with f = (eps-1)/(eps+2) fixed at the dielectric worst case
    Re f = Im f = 1, so both factors are 1.  Rates use the exact
    saturating distance form, which reproduces Lambda x^2 in the usual
    long-wavelength regime and caps the rate if x outruns the thermal
    wavelength.
    """
    require(R > 0, "R must be > 0, got {}", R)
    require(x >= 0, "x must be >= 0, got {}", x)
    c = CONST.c
    lam_e = bb_thermal_wavelength(env.T_env)
    lam_i = bb_thermal_wavelength(env.T_int)

    L_sc = result((1.0 / lam_e) ** 9 * (math.factorial(8) * 8 * ZETA_9
                                        * np.pi**5 * c * R**6 / 9.0))
    L_abs = (1.0 / lam_e) ** 6 * (16 * np.pi**9 * c * R**3 / 189.0)
    L_em = (1.0 / lam_i) ** 6 * (16 * np.pi**9 * c * R**3 / 189.0)

    return tuple(ChannelRate(Lambda=L, lambda_th=lam,
                             gamma=gamma_distance(L, lam, x))
                 for L, lam in ((L_sc, lam_e), (L_abs, lam_e), (L_em, lam_i)))


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
        gamma_bb_abs=ab.gamma, gamma_bb_em=em.gamma)


def wavepacket_spread_min(m, t):
    """sigma_min = sqrt(2 hbar t/m): the smallest width a wavepacket of
    mass m reaches after time t, which it does from the initial width
    sqrt(hbar t/(2m))."""
    require((m > 0) & (t >= 0), "m must be > 0 and t >= 0")
    return result(np.sqrt(2 * CONST.hbar * t / m))


def momentum_floor(m, t, v):
    """dp_min/(m v): the momentum width sqrt(hbar m / (2 t)) of the
    minimally spreading wavepacket over its mean momentum m v."""
    require((m > 0) & (t > 0) & (v > 0), "m, t, v must all be > 0")
    return result(np.sqrt(CONST.hbar * m / (2 * t))) / (m * v)


def mean_free_path(env: Environment, R_probe):
    """Probe mean free path k_B T / (sqrt(2) A p) against the hydrogen
    rest gas (m), with A = pi (d_H2/2 + R_probe)^2 the geometric cross
    section of the probe and a gas molecule.  p = 0 gives an infinite
    path.
    """
    require(R_probe >= 0, "R_probe must be >= 0, got {}", R_probe)
    A = np.pi * (CONST.d_H2 / 2 + R_probe) ** 2
    return ratio_or_inf(CONST.k_B * env.T_env,
                        math.sqrt(2) * A * env.pressure)
