"""Scatter-layer benchmarks: a mirrored pattern scan, the engine alone, one
trajectory.

    PYTHONPATH=src python -m pytest bench/test_scan.py

pytest-benchmark cases, outside the tier-1 ``testpaths``.  The grid has
the shape of the benchmark's ``pattern`` task: 12x12 (beta in
[1.2, 2.0], l in [0, 2R], mirrored) on the two-lobe source at
t_R = 10^1.1 s.  ``scan_pattern`` integrates its 144 l >= 0 probes and
mirrors the rest; the ``_integrate_batch`` case integrates all 276
launches of the same grid, with no mirror; the trajectory case is one
probe of that grid through the plain-float stepper.
"""

import numpy as np
import pytest

from zenograv.massdist import make_superposed_source
from zenograv.scatter import (ScatterConfig, _integrate_batch,
                              integrate_trajectory, scan_pattern)

R = 1e-5
V = R / 10 ** 1.1
M_PROBE = 1e-18
SRC = make_superposed_source(R, 2600.0, 2 * R)
GRID = ((1.2, 2.0), (0.0, 2 * R), 12, 12, V, M_PROBE)


@pytest.fixture(scope="module")
def cfgs():
    pattern = scan_pattern(SRC, *GRID)
    return [ScatterConfig.for_source(SRC, b=p.b, l=p.l, v=V)
            for p in pattern.records]


def test_scan_pattern_12x12_mirrored(benchmark):
    pattern = benchmark(scan_pattern, SRC, *GRID)
    assert len(pattern.records) == 276 and pattern.n_failed == 0


def test_integrate_batch_276(benchmark, cfgs):
    y_end, _, errors = benchmark(_integrate_batch, SRC, cfgs)
    assert errors == [None] * 276 and np.isfinite(y_end).all()


def test_integrate_trajectory(benchmark, cfgs):
    traj = benchmark(integrate_trajectory, SRC, cfgs[13], M_PROBE)
    assert not traj.hit_source
