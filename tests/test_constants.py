import pytest

from zenograv.constants import CONST, joules_to_ev
from zenograv.errors import InvalidParameterError

# CODATA-2018 hbar; CONST.hbar is pinned to the rounded 1.0e-34 instead.
HBAR_CODATA = 1.054571817e-34


def test_pinned_values():
    # acceptance tests rely on these exact numbers
    assert CONST.G == 6.67430e-11
    assert CONST.hbar == 1.0e-34
    assert CONST.k_B == 1.380649e-23
    assert CONST.c == 2.99792458e8
    assert CONST.eV == 1.602176634e-19
    assert CONST.d_H2 == 2.89e-10
    assert CONST.m_H2 == pytest.approx(2 * 1.00784 * 1.66053906660e-27, rel=1e-15)


def test_all_positive():
    for name in ("G", "hbar", "k_B", "c", "m_H2", "d_H2", "eV"):
        assert getattr(CONST, name) > 0


def test_hbar_near_codata():
    # the benchmark rounding stays within 6% of CODATA-2018
    assert abs(CONST.hbar - HBAR_CODATA) / HBAR_CODATA < 0.06


def test_joules_to_ev_zero():
    assert joules_to_ev(0.0) == 0.0


def test_joules_to_ev_definition():
    assert joules_to_ev(1.602176634e-19) == pytest.approx(1.0, rel=1e-15)


def test_slow_probe_kinetic_energy():
    # 1e-18 kg at 1e-6 m/s: E = 5e-31 J ~ 3.1e-12 eV
    E = 0.5 * 1e-18 * (1e-6) ** 2
    assert E == pytest.approx(5e-31)
    assert joules_to_ev(E) == pytest.approx(3.1207e-12, rel=1e-4)
    assert joules_to_ev(E) == pytest.approx(3e-12, rel=0.05)


def test_round_trip_identity():
    assert joules_to_ev(CONST.eV) == 1.0
    for val in (1.0, 3.7e-12, 8.2e19):
        assert joules_to_ev(val * CONST.eV) == pytest.approx(val, rel=1e-15)


def test_nonpositive_constant_rejected():
    from zenograv.constants import PhysicalConstants
    with pytest.raises(InvalidParameterError):
        PhysicalConstants(G=-1.0)
