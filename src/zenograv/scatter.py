"""Classical probe scattering in the field of a sphere-superposition source.

Both integrators are the adaptive Dormand-Prince 5(4) pair with scipy
RK45's step-size controller (relative tolerance 1e-9 per step by
default).  Pattern scans run every probe of a grid through one lockstep
batch engine over a (6, N) state array; a single trajectory runs the
same step on plain Python floats, in the same operation order, so both
give the same probe bit for bit.  Their numerics come from
:mod:`zenograv.rk45`, which also finds the escape crossing on the last
step's dense output with a lockstep port of scipy's ``brentq``; a scan
solves the crossings of all its probes at once after the engine
finishes.  scipy itself is not imported: its RK45 and ``brentq`` are the
oracles the tests check both paths against.  The launch plane at z_start
and the escape radius r_stop are finite stand-ins for the asymptotic
scattering problem.  Closed-form hyperbolic-orbit expressions
(deflection angle, time of flight between true anomalies) are provided
both as fast estimators and as independent oracles for the integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rk45
from .constants import CONST
from .elementwise import csv_text, require, result
from .errors import (IntegratorFailureError, InvalidParameterError,
                     ProjectionSingularError, UnterminatedTrajectoryError)
# potential_at is re-exported: the perfbench tracer wraps it under this name
from .massdist import (MassDistribution, SphereComponent, field_rows,
                       gravity_potential, potential_at)  # noqa: F401

DEFAULT_RTOL = 1e-9
# atol = ATOL_FACTOR * rtol * characteristic scale, separately for position
# and velocity; keeps the transverse velocity (the signal, ~theta*v) under
# tight control even though it is orders of magnitude below the speed.
ATOL_FACTOR = 1e-4

_NON_FINITE = "non-finite state during integration"
_TOO_SMALL = f"integrator failed: {rk45.TOO_SMALL_STEP}"
_HIT_ROWS = 1024   # batch engine: segments buffered per hit check
_POLE = "direction at the projection pole (0,0,-1)"
_SVG_SIZE = 640    # pattern.svg width and height (px)


@dataclass(frozen=True)
class ScatterConfig:
    """Launch and termination parameters for one probe, or a launch table.

    The probe starts at (l, b, z_start) with velocity (0, 0, v): b is the
    impact parameter (y offset), l the offset along the source's
    delocalization axis (x).  Fields may be broadcastable arrays: the
    config then describes one probe per element of their broadcast, and
    a failed check names the values at its first failing element.
    """

    b: float                 # impact parameter (m)
    l: float                 # offset along x (m)
    v: float                 # launch speed along +z (m/s)
    z_start: float           # launch z, negative (m)
    t_max: float             # integration cutoff (s)
    r_stop: float            # escape radius (m)
    rtol: float = DEFAULT_RTOL

    def __post_init__(self):
        # written as x > 0, not as not x <= 0, so that NaN fails
        require(np.isfinite(self.b) & np.isfinite(self.l),
                "b and l must be finite, got b={}, l={}", self.b, self.l)
        require((self.v > 0) & (self.v < CONST.c),
                "v must be in (0, c) m/s (Newtonian probe), got {}", self.v)
        require(self.z_start < 0, "z_start must be < 0, got {}", self.z_start)
        require(self.r_stop > abs(self.z_start),
                "r_stop ({}) must exceed |z_start| ({})", self.r_stop,
                -self.z_start)
        # an infinite r_stop**2 (the escape test squares radii) or t_max
        # would never end a run
        with np.errstate(over="ignore"):
            require(np.isfinite(self.r_stop * self.r_stop),
                    "r_stop**2 must be finite, got r_stop={}", self.r_stop)
        require((self.t_max > 0) & np.isfinite(self.t_max),
                "t_max must be finite and > 0, got {}", self.t_max)
        require(self.rtol > 0, "rtol must be > 0, got {}", self.rtol)

    @classmethod
    def for_source(cls, dist: MassDistribution, b, l, v, *,
                   start_factor: float = 50.0, stop_factor: float = 100.0,
                   rtol: float = DEFAULT_RTOL) -> "ScatterConfig":
        """Config with termination scales set from the source geometry.

        z_start = -start_factor * scale and r_stop = stop_factor * scale,
        where scale is the larger of the component radii and separations;
        r_stop is raised to 1.5 times the launch radius where that is
        larger.  The defaults truncate the incoming/outgoing asymptotes at
        the <~1e-3 relative level in the deflection angle; raise the
        factors when comparing against asymptotic closed forms.  Elementwise
        in b, l and v: float arguments give float fields, arrays a launch
        table.
        """
        scale = dist.length_scale()
        z_start = -start_factor * scale
        launch = np.sqrt(b * b + l * l + z_start * z_start)
        r_stop = result(np.maximum(stop_factor * scale, 1.5 * launch))
        return cls(b=b, l=l, v=v, z_start=z_start,
                   t_max=50.0 * (abs(z_start) + r_stop) / v,
                   r_stop=r_stop, rtol=rtol)


@dataclass(frozen=True)
class ProbeTrajectory:
    """Integrated probe path plus derived scattering quantities."""

    t: np.ndarray            # (n,) sample times (s)
    x: np.ndarray            # (n, 3) positions (m)
    v: np.ndarray            # (n, 3) velocities (m/s)
    hit_source: bool
    deflection_angle: float  # rad, in [0, pi]
    outgoing_dir: np.ndarray  # unit 3-vector
    n_accepted: int = 0      # accepted integrator steps
    n_rejected: int = 0      # rejected step attempts
    n_rhs: int = 0           # right-hand-side evaluations


@dataclass(frozen=True)
class ScatterPattern:
    """Outgoing-direction pattern of a probe grid, stereographically
    projected: one array per ``pattern.csv`` column, one element per
    launched probe in grid order, plus each probe's ``error`` (None, or
    ``"<Type>: <message>"`` when its integration or projection failed)."""

    beta: np.ndarray
    l: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    proj_x: np.ndarray
    proj_y: np.ndarray
    hit: np.ndarray
    error: tuple[str | None, ...]

    @property
    def clean(self) -> np.ndarray:
        """Mask of the probes that neither hit the source nor failed."""
        return ~self.hit & np.array([e is None for e in self.error], bool)

    @property
    def n_hit(self) -> int:
        return int(np.count_nonzero(self.hit))

    @property
    def n_failed(self) -> int:
        return sum(e is not None for e in self.error)


def integrate_trajectory(dist: MassDistribution, cfg: ScatterConfig,
                         m_probe=None) -> ProbeTrajectory:
    """Integrate one probe through the source field until escape.

    Integration runs until |x| crosses r_stop moving outward, or t_max is
    exceeded (UnterminatedTrajectoryError, carrying the partial
    trajectory).  A probe that enters a sphere component keeps evolving in
    the interior field but is flagged ``hit_source``; entry is detected on
    every accepted-step segment, not just at the sample points.  One
    sample is kept per accepted step, the last at the escape crossing.

    The stepper is the lockstep engine of :func:`scan_pattern` written on
    plain floats: the same Dormand-Prince 5(4) step, controller, escape
    root and failure rules in the same operation order, so the final
    state and hit flag equal ``_integrate_batch(dist, cfg)`` bit for bit.
    scipy's ``solve_ivp`` (RK45) is the oracle both are tested against.

    The acceleration does not depend on the probe's mass (equivalence
    principle), so ``m_probe`` is not read: it is accepted only for
    callers that still pass it, such as perfbench's ``trajectories``
    workload.  The mass enters :func:`energy_series` alone.
    """
    centers, *columns = dist._field_stack
    terms = np.hstack((centers[:, :, 0], *columns)).tolist()
    n_rhs = 0

    def rhs(y):
        # field_rows' arithmetic, one point at a time
        nonlocal n_rhs
        n_rhs += 1
        x, yy, z, vx, vy, vz = y
        ax = ay = az = 0.0
        for (cx, cy, cz, R, neg_gm, interior) in terms:
            dx = x - cx
            dy = yy - cy
            dz = z - cz
            s2 = dx * dx + dy * dy + dz * dz
            s = math.sqrt(s2)
            f = neg_gm / (s2 * s) if s >= R else interior
            ax += f * dx
            ay += f * dy
            az += f * dz
        return (vx, vy, vz, ax, ay, az)

    y, atol = _launch(cfg)
    if not all(map(math.isfinite, y)):
        raise IntegratorFailureError(_NON_FINITE)
    rtol = max(cfg.rtol, rk45.RTOL_FLOOR)
    t_bound, r_stop = cfg.t_max, cfg.r_stop
    f = rhs(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_abs = float(rk45.initial_step(lambda rows: np.array([rhs(rows[0])]),
                                    np.array([y]), np.array([f]),
                                    np.array(atol), rtol, t_bound)[0])
    t = 0.0
    g = _radius(y) - r_stop
    retry = False
    ts, ys = [t], [y]
    n_accepted = n_rejected = 0

    def trajectory():
        states = np.array(ys)
        pos, vel = states[:, :3].copy(), states[:, 3:].copy()
        theta, out_dir = _outgoing(cfg, vel[-1])
        return ProbeTrajectory(
            t=np.array(ts), x=pos, v=vel,
            hit_source=bool(_segment_hits(pos[:-1], pos[1:], dist).any()),
            deflection_angle=theta, outgoing_dir=out_dir,
            n_accepted=n_accepted, n_rejected=n_rejected, n_rhs=n_rhs)

    while True:
        min_step = 10 * math.ulp(t)
        if not retry and h_abs < min_step:
            h_abs = min_step
        if not (h_abs >= min_step):
            raise IntegratorFailureError(_TOO_SMALL)
        t_new = min(t + h_abs, t_bound)
        h = t_new - t

        y_new, K, e = rk45.dormand_prince(rhs, y, f, h)
        err = rk45.rms_floats([
            ei * h / (a + max(abs(yi), abs(yn)) * rtol)
            for ei, a, yi, yn in zip(e, atol, y, y_new)])

        if not (err < 1):
            power = rk45.SAFETY * rk45.error_power(err)
            h_abs = h * (power if power > rk45.MIN_FACTOR
                         else rk45.MIN_FACTOR)
            retry = True
            n_rejected += 1
            continue
        grow = rk45.MAX_FACTOR if err == 0 else min(
            rk45.MAX_FACTOR, rk45.SAFETY * rk45.error_power(err))
        h_abs = h * (min(1.0, grow) if retry else grow)
        retry = False
        n_accepted += 1
        if not all(map(math.isfinite, y_new)):
            raise IntegratorFailureError(_NON_FINITE)

        g_new = _radius(y_new) - r_stop
        if g <= 0 <= g_new:
            (t_e,), (y_e,) = rk45.escape_roots(
                np.array(K)[:, None], np.array([t]), np.array([h]),
                np.array([y]), np.array([r_stop]), np.array([t_new]))
            if not np.isfinite(y_e).all():
                raise IntegratorFailureError(_NON_FINITE)
            ts.append(float(t_e))
            ys.append(y_e)
            return trajectory()
        ts.append(t_new)
        ys.append(y_new)
        if t_new >= t_bound:
            raise _unterminated(r_stop, t_bound, trajectory())
        t, y, f, g = t_new, y_new, K[-1], g_new


def _radius(y):
    return math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])


def _launch(cfg: ScatterConfig):
    """Initial state (x, y, z, vx, vy, vz) and per-component atol of a
    probe, or of each probe of a launch table as broadcastable columns."""
    y0 = [cfg.l, cfg.b, cfg.z_start, 0.0, 0.0, cfg.v]
    scale_pos = result(np.maximum(abs(cfg.z_start), abs(cfg.b) + abs(cfg.l)))
    atol = [ATOL_FACTOR * cfg.rtol * scale_pos] * 3 \
        + [ATOL_FACTOR * cfg.rtol * cfg.v] * 3
    return y0, atol


def _outgoing(cfg: ScatterConfig, v_out):
    """Deflection angle from the launch velocity and the outgoing unit
    vector: :func:`_deflection` on one row."""
    (theta,), (u,) = _deflection(cfg.v, np.reshape(v_out, (1, 3)))
    return float(theta), u


def _deflection(v, v_out):
    """Per row of v_out (n, 3): the angle from the launch velocity
    (0, 0, v) and the outgoing unit vector.

    The angle is atan2(|a x b|, a . b) for a = (0, 0, v), whose cross
    product with b is (-v b_y, v b_x, 0); the norms are summed in column
    order, and atan2 is the math module's, row by row (numpy's array
    arctan2 may differ from it in the last bit).
    """
    bx, by, bz = v_out.T
    cross = np.sqrt((v * by) ** 2 + (v * bx) ** 2)
    theta = np.array(list(map(math.atan2, cross.tolist(), (v * bz).tolist())))
    return theta, v_out / np.sqrt(_dot3(v_out, v_out))[:, None]


def _unterminated(r_stop, t_max, traj=None) -> UnterminatedTrajectoryError:
    return UnterminatedTrajectoryError(
        f"probe did not escape r_stop={r_stop} within t_max={t_max}",
        trajectory=traj)


def _dot3(u, w):
    """Row-wise dot product of two (n, 3) arrays, summed in column order."""
    return u[:, 0] * w[:, 0] + u[:, 1] * w[:, 1] + u[:, 2] * w[:, 2]


def _segment_hits(p0, p1, dist: MassDistribution) -> np.ndarray:
    """Per segment p0[i] -> p1[i]: does it pass inside a sphere component?"""
    seg = p1 - p0
    seg2 = _dot3(seg, seg)
    hit = np.zeros(len(seg), dtype=bool)
    for comp in dist.components:
        a = p0 - comp.center
        tstar = np.where(seg2 > 0.0,
                         np.clip(-_dot3(a, seg) / np.where(seg2 > 0, seg2, 1.0),
                                 0.0, 1.0),
                         0.0)
        nearest = a + tstar[:, None] * seg
        hit |= _dot3(nearest, nearest) < comp.radius ** 2
    return hit


def energy_series(dist: MassDistribution, traj: ProbeTrajectory,
                  m_probe: float) -> np.ndarray:
    """Total energy E = m|v|^2/2 + V(x) at every sample (J)."""
    kin = 0.5 * m_probe * np.einsum("ij,ij->i", traj.v, traj.v)
    pot = gravity_potential(dist, traj.x, m_probe)
    return kin + pot


# ---------------------------------------------------------------------------
# Closed-form hyperbolic-orbit expressions
# ---------------------------------------------------------------------------

def rutherford_angle(M, v, b0):
    """Deflection angle 2*acot(v^2 b0 / (G M)) off a point mass M (rad).

    Elementwise over floats or broadcastable arrays.
    """
    require((M > 0) & (v > 0) & (b0 > 0), "M, v, b0 must all be > 0")
    return result(2.0 * np.arctan(CONST.G * M / (v * v * b0)))


def rutherford_angle_density(rho, beta, t_R, approx: bool = False):
    """Max deflection in the (density, beta, t_R) parametrization (rad).

    For a sphere of density rho probed at impact parameter beta*R with
    speed R/t_R the radius cancels: the exact angle is
    2*atan((4 pi G rho / (3 beta)) t_R^2); ``approx=True`` returns the
    small-angle form (8 pi G rho / (3 beta)) t_R^2.  Elementwise.
    """
    require((rho > 0) & (beta > 0) & (t_R > 0), "rho, beta, t_R must all be > 0")
    x = 4.0 * np.pi * CONST.G * rho * t_R**2 / (3.0 * beta)
    return 2.0 * x if approx else result(2.0 * np.arctan(x))


def hyperbolic_time_from_anomaly(e, phi, h, GM, e2m1=None):
    """Time (s) from periapsis to true anomaly phi on a hyperbolic orbit.

    h is the angular momentum per unit mass (m^2/s), GM the gravitational
    parameter (m^3/s^2).  Valid for 0 <= phi < phi_inf = acos(-1/e).
    ``e2m1`` is e^2 - 1 where the caller knows it more precisely than
    e itself carries it (near a parabola e rounds to 1); by default it is
    (e - 1)(e + 1).  Elementwise.

    The form avoids the cancellation of the textbook difference near
    e = 1: with the hyperbolic anomaly F = 2 atanh(sqrt((e-1)/(e+1))
    tan(phi/2)) the time is (h^3/GM^2) ((e-1) sinh F + (sinh F - F))
    / (e^2-1)^(3/2), with e - 1 = (e^2-1)/(e+1) and sinh F - F from its
    series below F = 0.5.
    """
    if e2m1 is None:
        e2m1 = (e - 1.0) * (e + 1.0)
    require((e >= 1.0) & (e2m1 > 0), "orbit not hyperbolic: e = {} <= 1", e)
    require(phi >= 0, "phi must be >= 0, got {}", phi)
    em1 = e2m1 / (e + 1.0)
    tanh_half_F = np.sqrt(em1 / (e + 1.0)) * np.tan(phi / 2.0)
    require((phi < np.pi) & (tanh_half_F < 1.0),
            "phi at or beyond the asymptotic anomaly")
    F = 2.0 * np.arctanh(tanh_half_F)
    sinh_F = np.sinh(F)
    # sinh F - F = sum F^(2k+1)/(2k+1)!, k >= 1, nested; below F = 0.5
    # the omitted terms are under 1e-21 of the sum
    F2 = F * F
    series = 1.0
    for k in range(8, 1, -1):
        series = 1.0 + F2 / ((2 * k) * (2 * k + 1)) * series
    series = F * F2 / 6.0 * series
    sinh_F_minus_F = np.where(F < 0.5, series, sinh_F - F)
    # np.divide: underflowed float h^3 and GM^2 give NaN, not ZeroDivisionError
    return result(np.divide(h**3, GM**2) * (em1 * sinh_F + sinh_F_minus_F)
                  / e2m1**1.5)


def kepler_scatter_time(M, rho, beta, zeta, t_R):
    """Scattering duration: twice the periapsis-to-zeta*phi_inf flight time (s).

    The probe's hyperbola is fixed by (rho, beta, t_R): impact parameter
    b0 = beta*R, speed v = R/t_R with R the sphere radius implied by
    (M, rho).  phi_inf is the asymptotic true anomaly, related to the
    deflection angle theta by theta = 2*phi_inf - pi, equivalently
    e = -1/cos(phi_inf) = 1/sin(theta/2).  Elementwise.

    Stable near the parabolic limit (large t_R): with x = tan(theta/2),
    e^2 - 1 = 1/x^2 exactly, and :func:`hyperbolic_time_from_anomaly`
    takes it from there without forming e - 1 from a rounded e.
    """
    require(beta > 1.0, "beta must be > 1, got {}", beta)
    require((zeta > 0.0) & (zeta < 1.0), "zeta must be in (0, 1), got {}", zeta)
    require((t_R > 0) & (M > 0) & (rho > 0), "M, rho, t_R must all be > 0")
    theta = rutherford_angle_density(rho, beta, t_R)
    x = 0.5 * rutherford_angle_density(rho, beta, t_R,
                                       approx=True)   # tan(theta/2)
    # (1/x)^2 underflows to 0 past the parabolic limit, where x * x would
    # overflow: such an orbit is rejected as not hyperbolic
    e2m1 = (1.0 / x) ** 2
    e = np.sqrt(1.0 + e2m1)
    phi_inf = 0.5 * (np.pi + theta)
    R = (3.0 * M / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    h = (R / t_R) * (beta * R)       # v * b0
    t_half = hyperbolic_time_from_anomaly(e, zeta * phi_inf, h, CONST.G * M,
                                          e2m1=e2m1)
    return 2.0 * t_half


# ---------------------------------------------------------------------------
# Lockstep batch engine (pattern scans)
# ---------------------------------------------------------------------------

def _integrate_batch(dist: MassDistribution, cfg: ScatterConfig):
    """Integrate the probes of a launch table in lockstep, in the flat
    order of its broadcast fields; per probe (final state, hit, error).

    One Dormand-Prince 5(4) attempt per active probe per iteration, with
    scipy RK45's controller reproduced probe by probe: the initial step
    of ``select_initial_step``, the RMS error norm with scale
    atol + max(|y|, |y_new|) rtol, safety 0.9, step factors clamped to
    [0.2, 10] and no growth right after a rejection, min_step = 10 ulp(t)
    and clipping at t_max; no cap on the step.  A probe retires at its
    outward r_stop crossing, at t_max (UnterminatedTrajectoryError), on a
    non-finite accepted state or when its step underflows
    (IntegratorFailureError); the error slot then holds the exception, the
    final state is NaN and the hit flag False.  The state is
    coordinate-major, one column per active probe: y, its slope and atol
    are (6, m), the stages (7, 6, m), per-probe scalars (m,); rows are
    transposed only for :func:`rk45.initial_step`, :func:`rk45.escape_roots`
    and :func:`_segment_hits`.  Source hits are checked on every
    accepted-step segment, buffered: one call per _HIT_ROWS / n
    iterations of n probes, and one at the end.  A crossing probe's last
    step is only recorded: once every probe has retired, all crossings
    are located on their steps' dense output by one lockstep Brent search
    (:func:`rk45.escape_roots`, solve_ivp's event root), and the partial
    segments up to them are checked for hits in one call.
    """
    y0, atol0 = _launch(cfg)
    columns = np.reshape(np.broadcast_arrays(
        *y0, *atol0, np.maximum(cfg.rtol, rk45.RTOL_FLOOR), cfg.t_max,
        cfg.r_stop), (15, -1))
    y, atol = columns[:6], columns[6:12]
    rtol, t_bound, r_stop = columns[12:]
    n = y.shape[1]

    y_end = np.full((n, 6), np.nan)
    hit_end, hit = np.zeros((2, n), dtype=bool)  # hit: a checked segment hit
    done = ~np.isfinite(y).all(axis=0)
    errors = [IntegratorFailureError(_NON_FINITE) if bad else None
              for bad in done.tolist()]
    idx = np.arange(n)           # original index of each active probe
    crossings = []               # per iteration: the crossing probes' steps
    segments = []                # per iteration: steps not yet hit-checked

    def fun(y):
        return np.concatenate((y[3:], field_rows(dist, y[:3])))

    def radius(y):
        return np.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2)

    def check_hits():
        lanes, y0, y1, moved = (np.concatenate(a, axis=-1)
                                for a in zip(*segments))
        segments.clear()
        hit[lanes[moved][_segment_hits(y0[:3, moved].T, y1[:3, moved].T,
                                       dist)]] = True

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = fun(y)
        h_abs = rk45.initial_step(lambda rows: fun(rows.T).T, y.T, f.T,
                                  atol.T, rtol[:, None], t_bound)
        t = np.zeros(n)
        g = radius(y) - r_stop           # escape event value
        retry = np.zeros(n, dtype=bool)  # last attempt was rejected

        while True:
            if done.any():
                keep = ~done
                idx, t, h_abs, retry, g, rtol, t_bound, r_stop = (
                    a[keep] for a in (idx, t, h_abs, retry, g, rtol, t_bound,
                                      r_stop))
                y, f, atol = y[:, keep], f[:, keep], atol[:, keep]
            m = len(idx)
            if m == 0:
                break
            min_step = 10 * np.spacing(t)
            h_abs = np.where(~retry & (h_abs < min_step), min_step, h_abs)
            stuck = ~(h_abs >= min_step)
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t

            K = np.empty((rk45.N_STAGES + 1, 6, m))
            K[0] = f
            for s in range(1, rk45.N_STAGES):
                K[s] = fun(y + rk45.combine(K[:s], rk45.A_ROWS[s - 1]) * h)
            y_new = y + h * rk45.combine(K[:-1], rk45.B)
            f_new = K[-1] = fun(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = rk45.rms(rk45.combine(K, rk45.E) * h / scale)

            accept = (err < 1) & ~stuck
            power = rk45.SAFETY * err ** rk45.ERROR_EXPONENT
            grow = np.where(err == 0, rk45.MAX_FACTOR,
                            np.minimum(rk45.MAX_FACTOR, power))
            grow = np.where(retry, np.minimum(1.0, grow), grow)
            h_abs = h * np.where(accept, grow, np.fmax(rk45.MIN_FACTOR, power))
            retry = ~accept

            ok = accept & np.isfinite(y_new).all(axis=0)
            g_new = radius(y_new) - r_stop
            crossed = ok & (g <= 0) & (g_new >= 0)
            moved = ok & ~crossed
            late = moved & (t_new >= t_bound)
            done = stuck | (accept & ~ok) | late
            if done.any():
                for j in np.flatnonzero(done).tolist():
                    errors[idx[j]] = _unterminated(
                        float(r_stop[j]), float(t_bound[j])) if late[j] \
                        else IntegratorFailureError(_TOO_SMALL if stuck[j]
                                                    else _NON_FINITE)
            segments.append((idx, y, y_new, moved))
            if len(segments) * n >= _HIT_ROWS:
                check_hits()
            if crossed.any():
                crossings.append((idx[crossed], K[:, :, crossed].transpose(
                    0, 2, 1), t[crossed], h[crossed], y[:, crossed].T,
                    r_stop[crossed], t_new[crossed]))
                done |= crossed

            t = np.where(accept, t_new, t)
            y = np.where(accept, y_new, y)
            f = np.where(accept, f_new, f)
            g = np.where(accept, g_new, g)

        if segments:
            check_hits()
        if crossings:
            steps = list(zip(*crossings))
            K = np.concatenate(steps.pop(1), axis=1)
            lanes, t, h, y, r_stop, t_new = map(np.concatenate, steps)
            _, y_end[lanes] = rk45.escape_roots(K, t, h, y, r_stop, t_new)
            hit_end[lanes] = hit[lanes] | _segment_hits(y[:, :3],
                                                        y_end[lanes, :3], dist)
            for j in lanes[~np.isfinite(y_end[lanes]).all(axis=1)]:
                errors[j] = IntegratorFailureError(_NON_FINITE)
    return y_end, hit_end, errors


# ---------------------------------------------------------------------------
# Stereographic projection and pattern scans
# ---------------------------------------------------------------------------

def stereographic_project(outgoing_dir) -> np.ndarray:
    """Project a unit direction from the pole (0,0,-1) onto the z=+1 plane.

    (0,0,1) maps to the origin, the equator to the circle of radius 2; a
    small deflection theta lands at radius 2*tan(theta/2) ~ theta.
    """
    proj, (pole,) = _project(
        np.reshape(np.asarray(outgoing_dir, dtype=float), (1, 3)))
    if pole:
        raise ProjectionSingularError(_POLE)
    return proj[0]


def _project(u):
    """:func:`stereographic_project` of each row of u (n, 3): the (n, 2)
    projections, and a mask of the rows at the pole, whose projection is
    not a number."""
    norm = np.sqrt(_dot3(u, u))
    bad = np.abs(norm - 1.0) > 1e-9
    if bad.any():
        raise InvalidParameterError(
            f"direction must be unit length, |u| = {norm[bad][0]}")
    den = 1.0 + u[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * u[:, :2] / den[:, None], den < 1e-12


def _x_symmetric(dist: MassDistribution) -> bool:
    """Is the source's field odd in x bit for bit, so that a probe
    launched at -l is the exact mirror image of the one at +l?

    True for one component centered on x = 0, and for two components that
    are mirror images of each other with equal radius and mass: their two
    terms swap places in the field sum, and a two-term sum commutes.
    """
    comps = dist.components
    if len(comps) == 1:
        return comps[0].center[0] == 0.0
    if len(comps) == 2:
        a, b = comps
        return (a.center[0] == -b.center[0] and a.center[1:] == b.center[1:]
                and a.radius == b.radius and a.mass == b.mass)
    return False


def scan_pattern(dist: MassDistribution, beta_range, l_range, n_b: int,
                 n_l: int, v: float, *, mirror_l: bool = True) -> ScatterPattern:
    """Launch a (beta, l) grid of probes and collect projected outgoing angles.

    Impact parameters are b = beta * R with R the largest component
    radius; with ``mirror_l`` every offset l > 0 is also launched at -l.
    The probes form one :meth:`ScatterConfig.for_source` launch table
    with its default launch distance, stop radius and tolerance,
    which the lockstep batch engine integrates at once; their escape
    crossings are solved together by one lockstep Brent search after it
    finishes.  If the source is x-mirror symmetric (one
    sphere centered on x = 0, or two mirror-image spheres of equal radius
    and mass), a -l probe is not integrated: its final state is its +l
    partner's with x and vx negated, which is what integrating it gives
    bit for bit.  Angles and projections are then computed for all
    probes at once, as columns.  Each probe's theta, projection and hit
    flag equal what :func:`integrate_trajectory` gives for it.  Probes
    that hit the source are flagged in ``hit`` and left out of ``clean``;
    a probe whose integration or projection fails gets its ``error``
    text, NaN theta and projection and ``hit`` False, without aborting
    the scan.  Rows are in grid order, and each probe's result does not
    depend on the rest of the grid.
    """
    if n_b < 1 or n_l < 1:
        raise InvalidParameterError("n_b and n_l must be >= 1")
    b_lo, b_hi = beta_range
    l_lo, l_hi = l_range
    if b_lo <= 0 or b_hi < b_lo or l_lo < 0 or l_hi < l_lo:
        raise InvalidParameterError("invalid beta_range or l_range")
    R = max(c.radius for c in dist.components)
    offsets = np.linspace(l_lo, l_hi, n_l)
    launched = np.column_stack((np.full(n_l, True), mirror_l & (offsets > 0)))
    offsets = np.column_stack((offsets, -offsets))[launched]
    beta = np.repeat(np.linspace(b_lo, b_hi, n_b), len(offsets))
    l = np.tile(offsets, n_b)
    b = beta * R
    # a -l launch follows its +l partner; for a symmetric source it takes
    # the partner's row, mirrored
    mirrored = (l < 0) & _x_symmetric(dist)
    y_run, hit_run, err_run = _integrate_batch(dist, ScatterConfig.for_source(
        dist, b=b[~mirrored], l=l[~mirrored], v=v))
    row = np.cumsum(~mirrored) - 1
    y_end, hits = y_run[row], hit_run[row]
    y_end[mirrored, 0] *= -1.0
    y_end[mirrored, 3] *= -1.0

    theta, u = _deflection(v, y_end[:, 3:])
    proj, pole = _project(u)
    errors = tuple(f"{type(exc).__name__}: {exc}" if exc is not None else
                   f"ProjectionSingularError: {_POLE}" if at_pole else None
                   for exc, at_pole in zip((err_run[k] for k in row),
                                           pole.tolist()))
    failed = np.array([e is not None for e in errors], dtype=bool)
    theta[failed] = np.nan
    proj[failed] = np.nan
    return ScatterPattern(beta, l, b, theta, *proj.T, hits & ~failed, errors)


def make_collapsed_sources(R: float, density: float, d: float):
    """The two localized alternatives: one full-mass sphere at -d/2 or +d/2."""
    M = 4.0 / 3.0 * np.pi * density * R**3
    return tuple(MassDistribution((SphereComponent((x, 0.0, 0.0), R, M),))
                 for x in (-d / 2, +d / 2))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def pattern_to_csv(pattern: ScatterPattern, header_comment: str | None = None) -> str:
    """CSV text: beta,l,b,theta_rad,proj_x,proj_y,hit, one row per launched probe."""
    return csv_text("beta,l,b,theta_rad,proj_x,proj_y,hit",
                    (pattern.beta, pattern.l, pattern.b, pattern.theta,
                     pattern.proj_x, pattern.proj_y, pattern.hit),
                    header_comment)


def pattern_to_svg(pattern: ScatterPattern, dashed_radius: float | None = None,
                   header_comment: str | None = None) -> str:
    """Static SVG text of the projected pattern, colored by the sign of l.

    A dashed circle (the closed-form maximum-deflection radius) can be
    overlaid for comparison with the simulated points.
    """
    clean = pattern.clean
    pts = list(zip(pattern.proj_x[clean].tolist(),
                   pattern.proj_y[clean].tolist(), pattern.l[clean].tolist()))
    rmax = max([math.hypot(x, y) for x, y, _ in pts] + [dashed_radius or 0.0])
    if rmax <= 0:
        rmax = 1.0
    pad = 1.15
    size = _SVG_SIZE
    scale = (size / 2.0) / (rmax * pad)

    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    if header_comment:
        out.append(f"<!-- {header_comment} -->\n")
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
               f'height="{size}" viewBox="0 0 {size} {size}">\n')
    out.append(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    out.append(f'<line x1="0" y1="{size/2}" x2="{size}" y2="{size/2}" '
               'stroke="#cccccc" stroke-width="1"/>\n')
    out.append(f'<line x1="{size/2}" y1="0" x2="{size/2}" y2="{size}" '
               'stroke="#cccccc" stroke-width="1"/>\n')
    if dashed_radius:
        out.append(f'<circle cx="{size/2}" cy="{size/2}" r="{dashed_radius*scale:.2f}" '
                   'fill="none" stroke="black" stroke-width="1" '
                   'stroke-dasharray="6,4"/>\n')
    for x, y, l in pts:
        color = "#d62728" if l > 0 else ("#1f77b4" if l < 0 else "#2ca02c")
        out.append(f'<circle cx="{size / 2.0 + x * scale:.2f}" '
                   f'cy="{size / 2.0 - y * scale:.2f}" '
                   f'r="2" fill="{color}" fill-opacity="0.7"/>\n')
    out.append("</svg>\n")
    return "".join(out)
