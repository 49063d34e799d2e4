"""Emit-layer benchmarks: the feasibility grid, the pattern and eigen.csv
as text.

    PYTHONPATH=src python -m pytest bench/

pytest-benchmark cases, outside the tier-1 ``testpaths``.  They time the
layers between the array kernels and the files: evaluating a 32x32
``sweep_region`` grid into columns, ``region_to_csv`` on it and on a
64x64 t_R x R grid with R pinned at 1e-5 m (the shape of the FIGURES
duration and mean-free-path rows, whose columns mostly repeat), the CSV and
SVG text of the 40x40 preset pattern (3160 probes, mirrored, on the
two-lobe source), and the ``eigen.csv`` text of a 4000-point grid.  Two
64x64 grids past the parabolic limit time the failed-cell path: every
cell's duration fails, as not hyperbolic (t_R 1e100..1e120) or as 0 or
0/0 (t_R 1e40..1e60).
"""

import numpy as np
import pytest

from zenograv import feasibility, scatter
from zenograv.cli import T_R_FIGURE
from zenograv.elementwise import csv_text
from zenograv.massdist import make_superposed_source
from zenograv.schrod1d import PotentialSpec1D, solve_eigen

N = 32
AXES = (("m_probe", np.logspace(-19, -17, N)), ("R", np.logspace(-6, -4, N)))


@pytest.fixture(scope="module")
def grid():
    return feasibility.sweep_region(*AXES, feasibility.ExperimentPoint())


def test_sweep_region_32x32(benchmark):
    grid = benchmark(feasibility.sweep_region, *AXES,
                     feasibility.ExperimentPoint())
    assert grid.passed.shape == (N * N,)


@pytest.mark.parametrize("t_R_range", [(1e100, 1e120), (1e40, 1e60)],
                         ids=["not-hyperbolic", "zero-duration"])
def test_sweep_region_64x64_degenerate(benchmark, t_R_range):
    axes = (("R", np.logspace(-6, -4, 64)),
            ("t_R", np.logspace(*np.log10(t_R_range), 64)))
    grid = benchmark(feasibility.sweep_region, *axes,
                     feasibility.ExperimentPoint())
    assert np.isnan(grid.t_total).all() and not grid.passed.any()


def test_region_to_csv_32x32(benchmark, grid):
    text = benchmark(feasibility.region_to_csv, grid)
    assert text.count("\n") == 1 + N * N


def test_region_to_csv_64x64_pinned(benchmark):
    grid = feasibility.sweep_region(("t_R", np.logspace(0, 2, 64)),
                                    ("R", np.full(64, 1e-5)),
                                    feasibility.ExperimentPoint())
    text = benchmark(feasibility.region_to_csv, grid)
    assert text.count("\n") == 1 + 64 * 64


@pytest.fixture(scope="module")
def pattern():
    """The 40x40 preset scan: beta in [1.2, 2.0], l in [0, 2R], mirrored."""
    R = 1e-5
    src = make_superposed_source(R, 2600.0, 2 * R)
    return scatter.scan_pattern(src, (1.2, 2.0), (0.0, 2 * R), 40, 40,
                                R / T_R_FIGURE)


def test_pattern_csv_and_svg_40x40(benchmark, pattern):
    def emit():
        return (scatter.pattern_to_csv(pattern),
                scatter.pattern_to_svg(pattern, dashed_radius=2e-4))
    csv, svg = benchmark(emit)
    assert csv.count("\n") == 1 + 3160
    assert svg.count("<circle") == 3160 + 1


def test_eigen_csv_4000(benchmark):
    spec = PotentialSpec1D(a=1.0, b=4.0, c=1.0, M=1e-11, d=1e-5)
    sol = solve_eigen(spec, n_states=2, grid=(-4.0, 4.0, 4000))
    columns = [sol.x, spec.potential(sol.x), *sol.wavefunctions[:2]]
    text = benchmark(csv_text, "x,V_of_x,psi0,psi1", columns)
    assert text.count("\n") == 1 + 4000
