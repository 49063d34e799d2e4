"""Scatter-layer benchmarks: a mirrored pattern scan, the engine alone (on
the grid and on one probe), one trajectory, and the field kernel.

    PYTHONPATH=src python -m pytest bench/test_scan.py

pytest-benchmark cases, outside the tier-1 ``testpaths``.  The grid has
the shape of the benchmark's ``pattern`` task: 12x12 (beta in
[1.2, 2.0], l in [0, 2R], mirrored) on the two-lobe source at
t_R = 10^1.1 s.  ``scan_pattern`` integrates its 144 l >= 0 probes and
mirrors the rest; the ``_integrate_batch`` case integrates all 276
launches of the same grid, with no mirror, and a second case one probe
of it; the trajectory case is that probe through the plain-float
stepper.  The field kernel ``gravity_field`` is timed on 144 and 1600
positions around the two-lobe source (the engine's batch sizes for the
benchmark grid and a 40x40 preset).
"""

import numpy as np
import pytest

from zenograv.massdist import gravity_field, make_superposed_source
from zenograv.scatter import (ScatterConfig, _integrate_batch,
                              integrate_trajectory, scan_pattern)

R = 1e-5
V = R / 10 ** 1.1
M_PROBE = 1e-18
SRC = make_superposed_source(R, 2600.0, 2 * R)
GRID = ((1.2, 2.0), (0.0, 2 * R), 12, 12, V)


@pytest.fixture(scope="module")
def cfg():
    """The launch table of every probe of the grid, in grid order."""
    pattern = scan_pattern(SRC, *GRID)
    return ScatterConfig.for_source(SRC, b=pattern.b, l=pattern.l, v=V)


@pytest.fixture(scope="module")
def probe(cfg):
    """The config of one probe of the grid."""
    return ScatterConfig.for_source(SRC, b=float(cfg.b[13]),
                                    l=float(cfg.l[13]), v=V)


def test_scan_pattern_12x12_mirrored(benchmark):
    pattern = benchmark(scan_pattern, SRC, *GRID)
    assert len(pattern.hit) == 276 and pattern.n_failed == 0


def test_integrate_batch_276(benchmark, cfg):
    y_end, _, errors = benchmark(_integrate_batch, SRC, cfg)
    assert errors == [None] * 276 and np.isfinite(y_end).all()


def test_integrate_batch_one_probe(benchmark, probe):
    y_end, _, errors = benchmark(_integrate_batch, SRC, probe)
    assert errors == [None] and np.isfinite(y_end).all()


@pytest.mark.parametrize("n", [144, 1600])
def test_gravity_field(benchmark, n):
    x = np.random.default_rng(n).uniform(-3 * R, 3 * R, (n, 3))
    assert np.isfinite(benchmark(gravity_field, SRC, x)).all()


def test_integrate_trajectory(benchmark, probe):
    traj = benchmark(integrate_trajectory, SRC, probe, M_PROBE)
    assert not traj.hit_source
