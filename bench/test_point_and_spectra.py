"""Point and spectrum benchmarks: one feasibility point, the eigensolver,
the well finder and the stroboscopic freeze.

    PYTHONPATH=src python -m pytest bench/test_point_and_spectra.py

pytest-benchmark cases, outside the tier-1 ``testpaths``.  They time the
layers that the CLI's ``report``, ``eigen`` and ``zeno`` commands run:
``evaluate_point`` at the reference point, ``solve_eigen`` and
``find_wells`` on the triple well at 4000 grid points, and
``strobo_evolve`` on the spin pair of the ``zeno`` command's defaults
(freeze time 1 s, probe splitting 0.7 g, N = 100 measurements) at its
largest default tau, freeze time / 100.
"""

import numpy as np

from zenograv import feasibility, zeno
from zenograv.constants import CONST
from zenograv.schrod1d import PotentialSpec1D, find_wells, solve_eigen

TRIPLE_WELL = PotentialSpec1D(a=1.0, b=4.0, c=1.0, M=1e-11, d=1e-5)
G = CONST.hbar          # coupling: freeze time hbar/g = 1 s
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_evaluate_point_reference(benchmark):
    report = benchmark(feasibility.evaluate_point,
                       feasibility.reference_point())
    assert len(report.constraints) == 6


def test_solve_eigen_4000(benchmark):
    sol = benchmark(solve_eigen, TRIPLE_WELL, 2, (-4.0, 4.0, 4000))
    assert sol.wavefunctions.shape == (2, 4000) and sol.gap_01 > 0


def test_find_wells(benchmark):
    wells = benchmark(find_wells, TRIPLE_WELL)
    assert len(wells["minima"]) == 2 and len(wells["maxima"]) == 2


def test_strobo_evolve_spin_pair_100(benchmark):
    model = zeno.spin_pair_model(G, probe_splitting=0.7 * G)
    res = benchmark(zeno.strobo_evolve, model, 0.01, 100, PLUS)
    assert 0.99 < res.survival_prob <= 1.0
