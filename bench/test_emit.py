"""Emit-layer benchmarks: the feasibility grid and eigen.csv as CSV text.

    PYTHONPATH=src python -m pytest bench/

pytest-benchmark cases, outside the tier-1 ``testpaths``.  They time the
layers between the array kernels and the files: evaluating a 32x32
``sweep_region`` grid into columns, building its RegionRow objects,
``region_to_csv`` on it, and the ``eigen.csv`` text of a 4000-point
grid.
"""

import io

import numpy as np
import pytest

from zenograv import feasibility
from zenograv.elementwise import csv_text
from zenograv.schrod1d import PotentialSpec1D, solve_eigen

N = 32
AXES = (("m_probe", np.logspace(-19, -17, N)), ("R", np.logspace(-6, -4, N)))


@pytest.fixture(scope="module")
def grid():
    return feasibility.sweep_region(*AXES, feasibility.reference_point())


def test_sweep_region_32x32(benchmark):
    rows = benchmark(feasibility.sweep_region, *AXES,
                     feasibility.reference_point())
    assert len(rows) == N * N


def test_sweep_region_row_access_32x32(benchmark, grid):
    rows = benchmark(list, grid)
    assert len(rows) == N * N and type(rows[0].passed) is bool


def test_region_to_csv_32x32(benchmark, grid):
    def emit():
        buf = io.StringIO()
        feasibility.region_to_csv(grid, buf, header_comment="bench")
        return buf.getvalue()
    assert benchmark(emit).count("\n") == 2 + N * N


def test_eigen_csv_4000(benchmark):
    spec = PotentialSpec1D(a=1.0, b=4.0, c=1.0, M=1e-11, d=1e-5)
    sol = solve_eigen(spec, n_states=2, grid=(-4.0, 4.0, 4000))
    columns = [sol.x, spec.potential(sol.x), *sol.wavefunctions[:2]]
    text = benchmark(csv_text, "x,V_of_x,psi0,psi1", columns, "bench")
    assert text.count("\n") == 2 + 4000
