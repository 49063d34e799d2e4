"""The pattern scan's shortcuts against the work they replace.

* The lockstep escape root (``rk45.brentq`` via ``rk45.escape_roots``) against
  ``scipy.optimize.brentq`` on the same elementwise dense-output function,
  bracket by bracket, bit for bit.
* The mirror: for an x-symmetric source the -l probes are not integrated,
  and the rows still equal those of every launch integrated.
* The array tail: angles, projections and error strings per probe.
"""

import math

import numpy as np
import pytest
from conftest import launch_configs, stack
from scipy.optimize import brentq

from zenograv import rk45, scatter
from zenograv.errors import (IntegratorFailureError, InvalidParameterError,
                             ProjectionSingularError)
from zenograv.massdist import (MassDistribution, SphereComponent,
                               make_superposed_source)
from zenograv.rk45 import brentq as lockstep_brentq
from zenograv.rk45 import escape_roots
from zenograv.scatter import (ScatterConfig, _integrate_batch, _outgoing,
                              _x_symmetric, make_collapsed_sources,
                              scan_pattern, stereographic_project)

R = 1e-5
RHO = 2600.0
T_R = 10 ** 1.1
V = R / T_R
TOL = 4 * np.finfo(float).eps

# (beta range, n_b, n_l): the benchmark-shaped grid, the grid of which
# some probes hit the source, and the FIGURES preset
BENCH = ((1.2, 2.0), 12, 12)
HITS = ((0.3, 1.6), 6, 5)
PRESET = ((1.2, 2.0), 40, 40)


def scan(d, grid):
    betas, n_b, n_l = grid
    return scan_pattern(make_superposed_source(R, RHO, d), betas, (0.0, 2 * R),
                        n_b, n_l, V)


def dense_escape(K, t_old, h, y_old, r_stop):
    """One probe's r(t) - r_stop on its step's dense output, in plain
    floats: Q = K^T P summed in stage order (zero coefficients skipped),
    then y_old + h (Q_0 x + Q_1 x^2 + Q_2 x^3 + Q_3 x^4)."""
    P = rk45.P
    Q = [[sum_in_order([K[j][i] * P[j][k] for j in range(7) if P[j][k]])
          for k in range(4)] for i in range(3)]

    def f(t):
        x = (t - t_old) / h
        pos = []
        for i in range(3):
            p = x
            acc = Q[i][0] * p
            for k in range(1, 4):
                p = p * x
                acc = acc + Q[i][k] * p
            pos.append(h * acc + y_old[i])
        return math.sqrt(pos[0] * pos[0] + pos[1] * pos[1]
                         + pos[2] * pos[2]) - r_stop
    return f


def sum_in_order(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


@pytest.fixture(scope="module")
def crossings():
    """Every escape bracket of the benchmark-shaped scans, the hit grids
    and both 40x40 presets, with the lockstep roots found for them."""
    steps = []
    original = rk45.escape_roots

    def spy(*args):
        t_root, y_root = original(*args)
        steps.append((args, t_root))
        return t_root, y_root

    rk45.escape_roots = spy
    try:
        for grid in (BENCH, HITS, PRESET):
            for d in (2 * R, 0.0):
                scan(d, grid)
    finally:
        rk45.escape_roots = original
    return steps


def lanes(steps):
    for (K, t_old, h, y_old, r_stop, t_new), t_root in steps:
        for j in range(len(t_old)):
            yield (K[:, j].tolist(), float(t_old[j]), float(h[j]),
                   y_old[j].tolist(), float(r_stop[j]), float(t_new[j]),
                   float(t_root[j]))


class TestLockstepBrent:
    def test_roots_equal_scipy_brentq(self, crossings):
        n = 0
        for K, t_old, h, y_old, r_stop, t_new, root in lanes(crossings):
            f = dense_escape(K, t_old, h, y_old, r_stop)
            assert root == brentq(f, t_old, t_new, xtol=TOL, rtol=TOL), n
            n += 1
        assert n >= 3500

    def test_more_radii_on_the_same_steps(self, crossings):
        # each real step again, with the escape radius moved to r at 1/3
        # and 2/3 of the step: over 10^4 brackets with the real ones
        cases = []
        for (K, t_old, h, y_old, r_stop, t_new), _ in crossings:
            for frac in (1 / 3, 2 / 3):
                t_mid = t_old + frac * (t_new - t_old)
                r_mid = np.array([
                    dense_escape(K[:, j].tolist(), t_old[j], h[j],
                                 y_old[j].tolist(), 0.0)(t_mid[j])
                    for j in range(len(t_old))])
                cases.append((K, t_old, h, y_old, r_mid, t_new))
        n = 0
        for K, t_old, h, y_old, r_stop, t_new in cases:
            t_root, _ = escape_roots(K, t_old, h, y_old, r_stop, t_new)
            for j in range(len(t_old)):
                f = dense_escape(K[:, j].tolist(), t_old[j], h[j],
                                 y_old[j].tolist(), r_stop[j])
                assert t_root[j] == brentq(f, t_old[j], t_new[j],
                                           xtol=TOL, rtol=TOL)
                n += 1
        total = n + sum(len(args[1]) for args, _ in crossings)
        assert total >= 10_000

    def test_root_at_an_endpoint(self, crossings):
        (K, t_old, h, y_old, r_stop, t_new), _ = crossings[0]
        r_old = np.sqrt(scatter._dot3(y_old[:, :3], y_old[:, :3]))
        # f(t_old) = 0 exactly: the root is t_old, as brentq returns it
        t_root, y_root = escape_roots(K, t_old, h, y_old, r_old, t_new)
        assert np.array_equal(t_root, t_old)
        assert np.array_equal(y_root, y_old)
        # f(t_new) = 0 exactly
        r_new = np.array([dense_escape(K[:, i].tolist(), t_old[i], h[i],
                                       y_old[i].tolist(), 0.0)(t_new[i])
                          for i in range(len(t_old))])
        t_root, _ = escape_roots(K, t_old, h, y_old, r_new, t_new)
        assert np.array_equal(t_root, t_new)

    def test_synthetic_brackets(self):
        # one lockstep call per function, lanes converging at different
        # iterations, against brentq lane by lane
        rng = np.random.default_rng(7)
        c = rng.uniform(0.1, 7.9, 200)
        s = rng.uniform(0.1, 1.9, 200)
        lo = rng.uniform(1.0, 2.0, 200)
        hi = np.nextafter(lo, 3.0)
        cases = [
            # a smooth root
            (lambda x, k: x * x * x - c[k], np.zeros(200), np.full(200, 2.0)),
            # a step of width 1e-6: 23 to 27 iterations, mostly bisection
            (lambda x, k: (x - s[k]) / (1e-6 + np.abs(x - s[k])),
             np.zeros(200), np.full(200, 2.0)),
            # f(a) = 0 and f(b) = 0
            (lambda x, k: x - c[k], c, c + 1.0),
            (lambda x, k: x - c[k], c - 1.0, c),
            # brackets one ulp wide, f = -+ half an ulp at the ends
            (lambda x, k: (x - lo[k]) - 0.5 * (hi[k] - lo[k]), lo, hi),
        ]
        for n, (f, a, b) in enumerate(cases):
            got = lockstep_brentq(f, a, b)
            for k in range(len(a)):
                want = brentq(lambda x: float(f(np.float64(x), k)), a[k], b[k],
                              xtol=TOL, rtol=TOL)
                assert got[k] == want, (n, k)
        assert np.array_equal(lockstep_brentq(cases[2][0], c, c + 1.0), c)

    @pytest.mark.parametrize("f", [
        lambda x: x + 5.0,                              # no sign change
        lambda x: math.nan if x > 1 else -1.0,          # NaN at b
        lambda x: (x - 0.3) ** 5,                       # no convergence
    ])
    def test_failures_as_brentq(self, f):
        with pytest.raises((ValueError, RuntimeError)) as ref:
            brentq(f, 0.0, 2.0, xtol=TOL, rtol=TOL)
        with pytest.raises(type(ref.value)) as ours:
            lockstep_brentq(
                lambda x, k: np.array([f(v) for v in x.tolist()]),
                np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        assert str(ours.value) == str(ref.value)


class TestMirror:
    @pytest.mark.parametrize("d", [2 * R, 0.0])
    def test_equals_every_launch_integrated(self, d, monkeypatch):
        src = make_superposed_source(R, RHO, d)
        launched = []
        original = scatter._integrate_batch
        monkeypatch.setattr(scatter, "_integrate_batch",
                            lambda dist, cfg: launched.append(cfg)
                            or original(dist, cfg))
        pattern = scan(d, HITS)
        (table,) = launched
        assert table.l.tolist() == [l for l in pattern.l.tolist() if l >= 0]
        cfgs = launch_configs(src, pattern, V)
        y_end, hits, errors = original(src, stack(cfgs))
        assert errors == [None] * len(cfgs)
        assert 0 < pattern.n_hit < len(cfgs)
        rows = zip(pattern.theta.tolist(), pattern.proj_x.tolist(),
                   pattern.proj_y.tolist(), pattern.hit.tolist(),
                   pattern.error)
        for (theta_p, x, y_p, hit_p, error), cfg, y, hit in zip(
                rows, cfgs, y_end, hits):
            theta, u = _outgoing(cfg, y[3:])
            assert (theta_p, (x, y_p), hit_p, error) == (
                theta, tuple(stereographic_project(u)), hit, None)

    def test_final_state_is_the_mirror_image(self):
        src = make_superposed_source(R, RHO, 2 * R)
        cfgs = [ScatterConfig.for_source(src, b=beta * R, l=l, v=V)
                for beta in (0.5, 1.2) for l in (0.7 * R, -0.7 * R)]
        y_end, hits, _ = _integrate_batch(src, stack(cfgs))
        assert np.array_equal(y_end[1::2] * [-1, 1, 1, -1, 1, 1], y_end[::2])
        assert np.array_equal(hits[1::2], hits[::2]) and hits.any()

    @pytest.mark.parametrize("dist", [
        MassDistribution((SphereComponent((-R, 0, 0), R, 1e-11),
                          SphereComponent((R, 0, 0), R, 2e-11))),
        make_collapsed_sources(R, RHO, 2 * R)[0],
    ], ids=["unequal-lobes", "collapsed-left"])
    def test_asymmetric_source_launches_every_offset(self, dist, monkeypatch):
        assert not _x_symmetric(dist)
        launched = []
        original = scatter._integrate_batch
        monkeypatch.setattr(scatter, "_integrate_batch",
                            lambda d, cfg: launched.append(cfg)
                            or original(d, cfg))
        pattern = scan_pattern(dist, (1.2, 2.0), (0.0, 2 * R), 2, 3, V)
        (table,) = launched
        assert table.l.tolist() == pattern.l.tolist()
        assert any(l < 0 for l in table.l.tolist())

    def test_which_sources_are_symmetric(self):
        def two(c1, c2, r1=R, r2=R, m1=1e-11, m2=1e-11):
            return MassDistribution((SphereComponent(c1, r1, m1),
                                     SphereComponent(c2, r2, m2)))
        assert _x_symmetric(make_superposed_source(R, RHO, 0.0))
        assert _x_symmetric(make_superposed_source(R, RHO, 2 * R))
        assert _x_symmetric(two((3 * R, 0, 0), (-3 * R, 0, 0)))
        assert _x_symmetric(two((-3 * R, R, 1e-6), (3 * R, R, 1e-6)))
        assert not _x_symmetric(two((-3 * R, 0, 0), (3 * R, 0, 0), r2=2 * R))
        assert not _x_symmetric(two((-3 * R, 0, 0), (3 * R, 0, 0), m2=2e-11))
        assert not _x_symmetric(two((-3 * R, 0, 0), (4 * R, 0, 0)))
        assert not _x_symmetric(two((-3 * R, 0, 0), (3 * R, R, 0)))
        assert not _x_symmetric(MassDistribution(tuple(
            SphereComponent((x, 0, 0), R, 1e-11) for x in (-3 * R, 0, 3 * R))))


class TestLaunchTable:
    def test_one_config_per_scan(self, monkeypatch):
        # the 3160 launches of the FIGURES preset are one launch table
        made = []
        original = ScatterConfig.__post_init__
        monkeypatch.setattr(ScatterConfig, "__post_init__",
                            lambda cfg: made.append(cfg) or original(cfg))
        pattern = scan(0.0, PRESET)
        assert len(pattern.hit) == 40 * 79 and pattern.n_failed == 0
        assert len(made) == 1 and made[0].l.size == 40 * 40


class TestTail:
    def test_records_from_rows(self, monkeypatch):
        # fake final states: a clean probe, a failed one and one flying
        # straight back at the projection pole
        src = make_superposed_source(R, RHO, 0.0)
        failure = IntegratorFailureError("non-finite state during integration")

        def fake(dist, cfg):
            y = np.array([[0, 0, 1, 1e-9, -2e-9, V], [np.nan] * 6,
                          [0, 0, -1, 0, 0, -V]], dtype=float)
            return y, np.array([True, False, False]), [None, failure, None]

        monkeypatch.setattr(scatter, "_integrate_batch", fake)
        pattern = scan_pattern(src, (1.0, 3.0), (0.0, 0.0), 3, 1, V,
                               mirror_l=False)
        clean, failed, pole = zip(
            pattern.theta.tolist(), pattern.proj_x.tolist(),
            pattern.proj_y.tolist(), pattern.hit.tolist(), pattern.error)
        cfg = ScatterConfig.for_source(src, b=R, l=0.0, v=V)
        theta, u = _outgoing(cfg, np.array([1e-9, -2e-9, V]))
        assert clean == (theta, *stereographic_project(u), True, None)
        assert pattern.theta.dtype == float and pattern.hit.dtype == bool
        assert failed[4] == ("IntegratorFailureError: non-finite state "
                             "during integration")
        assert pole[4] == ("ProjectionSingularError: direction at the "
                           "projection pole (0,0,-1)")
        for theta, x, y, hit, _ in (failed, pole):
            assert math.isnan(theta) and math.isnan(x) and math.isnan(y)
            assert hit is False
        assert pattern.clean.tolist() == [False, False, False]
        assert (pattern.n_hit, pattern.n_failed) == (1, 2)

    def test_project_rows_and_one_row(self):
        u = np.array([[0, 0, 1], [1, 0, 0], [0, -1, 0], [0, 0, -1.0]])
        proj, pole = scatter._project(u)
        assert proj[:3].tolist() == [[0, 0], [2, 0], [0, -2]]
        assert pole.tolist() == [False, False, False, True]
        with pytest.raises(ProjectionSingularError, match="pole"):
            stereographic_project(u[3])
        with pytest.raises(InvalidParameterError, match="unit length"):
            scatter._project(np.array([[0, 0, 1], [0, 0, 1.001]]))
