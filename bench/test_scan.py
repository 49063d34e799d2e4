"""Scatter-layer benchmarks: a mirrored pattern scan (at two sizes), the
engine alone (on the grid and on one probe), one trajectory, its escape
root, and the field kernel.

    PYTHONPATH=src python -m pytest bench/test_scan.py

pytest-benchmark cases, outside the tier-1 ``testpaths``.  The grid has
the shape of the benchmark's ``pattern`` task: 12x12 (beta in
[1.2, 2.0], l in [0, 2R], mirrored) on the two-lobe source at
t_R = 10^1.1 s.  ``scan_pattern`` integrates its 144 l >= 0 probes and
mirrors the rest.  The same ranges at 100x100 (10 000 probes
integrated, 19 900 rows) run only three rounds: there the engine's stage
arithmetic outweighs its per-call overhead.  The ``_integrate_batch``
case integrates all 276 launches of the 12x12 grid, with no mirror, and
a second case one probe of it; the trajectory case is that probe through
the plain-float stepper, and the escape-root case the one-lane root
search on that probe's last step.  The field kernel ``field_rows`` is
timed on 144 and 1600 positions around the two-lobe source (the engine's
batch sizes for the benchmark grid and a 40x40 preset), as the engine
holds them: one contiguous row per coordinate.
"""

import numpy as np
import pytest

from zenograv import rk45
from zenograv.massdist import field_rows, make_superposed_source
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


def test_scan_pattern_100x100_mirrored(benchmark):
    pattern = benchmark.pedantic(scan_pattern, (SRC, *GRID[:2], 100, 100, V),
                                 rounds=3)
    assert len(pattern.hit) == 100 * 199 and pattern.n_failed == 0


def test_integrate_batch_276(benchmark, cfg):
    y_end, _, errors = benchmark(_integrate_batch, SRC, cfg)
    assert errors == [None] * 276 and np.isfinite(y_end).all()


def test_integrate_batch_one_probe(benchmark, probe):
    y_end, _, errors = benchmark(_integrate_batch, SRC, probe)
    assert errors == [None] and np.isfinite(y_end).all()


@pytest.mark.parametrize("n", [144, 1600])
def test_field_rows(benchmark, n):
    x = np.random.default_rng(n).uniform(-3 * R, 3 * R, (n, 3))
    assert np.isfinite(benchmark(field_rows, SRC,
                                 np.ascontiguousarray(x.T))).all()


def test_integrate_trajectory(benchmark, probe):
    traj = benchmark(integrate_trajectory, SRC, probe, M_PROBE)
    assert not traj.hit_source


@pytest.fixture(scope="module")
def escape_step(probe):
    """The arguments of the probe's one-lane escape-root search."""
    steps = []
    original = rk45.escape_root
    rk45.escape_root = lambda *args: steps.append(args) or original(*args)
    try:
        integrate_trajectory(SRC, probe)
    finally:
        rk45.escape_root = original
    (args,) = steps
    return args


def test_escape_root(benchmark, escape_step):
    t_e, _ = benchmark(rk45.escape_root, *escape_step)
    assert escape_step[1] <= t_e <= escape_step[5]
