"""Classical probe scattering in the field of a sphere-superposition source.

Both integrators are the adaptive Dormand-Prince 5(4) pair with scipy
RK45's step-size controller (relative tolerance 1e-9 per step by
default).  Pattern scans run every probe of a grid through one lockstep
batch engine over an (N, 6) state array; a single trajectory runs the
same step on plain Python floats, in the same operation order, so both
give the same probe bit for bit.  scipy's RK45 itself is not used here: it
is the oracle the tests check both against.  The launch plane at z_start and
the escape radius r_stop are finite stand-ins for the asymptotic
scattering problem.  Closed-form hyperbolic-orbit expressions (deflection
angle, time of flight between true anomalies) are provided both as fast
estimators and as independent oracles for the integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .constants import CONST, PhysicalConstants
from .elementwise import require, result
from .errors import (IntegratorFailureError, InvalidParameterError,
                     ProjectionSingularError, UnterminatedTrajectoryError)
# potential_at is re-exported: the perfbench tracer wraps it under this name
from .massdist import (MassDistribution, gravity_field, gravity_potential,
                       potential_at)  # noqa: F401

DEFAULT_RTOL = 1e-9
# atol = ATOL_FACTOR * rtol * characteristic scale, separately for position
# and velocity; keeps the transverse velocity (the signal, ~theta*v) under
# tight control even though it is orders of magnitude below the speed.
ATOL_FACTOR = 1e-4

# scipy's RK45 step-size controller, restated for the lockstep engine.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / (RK45.error_estimator_order + 1)
# solve_ivp's event-root tolerance (xtol = rtol = 4 eps)
_EVENT_TOL = 4 * np.finfo(float).eps
# scipy RK45's floor on rtol
_RTOL_FLOOR = 100 * np.finfo(float).eps
_NON_FINITE = "non-finite state during integration"


@dataclass(frozen=True)
class ScatterConfig:
    """Launch and termination parameters for one probe.

    The probe starts at (l, b, z_start) with velocity (0, 0, v): b is the
    impact parameter (y offset), l the offset along the source's
    delocalization axis (x).
    """

    b: float                 # impact parameter (m)
    l: float                 # offset along x (m)
    v: float                 # launch speed along +z (m/s)
    z_start: float           # launch z, negative (m)
    dt_max: float            # max integrator step (s)
    t_max: float             # integration cutoff (s)
    r_stop: float            # escape radius (m)
    rtol: float = DEFAULT_RTOL

    def __post_init__(self):
        # written as not (x > 0) so that NaN fails every check
        if not (math.isfinite(self.b) and math.isfinite(self.l)):
            raise InvalidParameterError(
                f"b and l must be finite, got b={self.b}, l={self.l}")
        if not (self.v > 0):
            raise InvalidParameterError(f"v must be > 0, got {self.v}")
        if not (self.z_start < 0):
            raise InvalidParameterError(f"z_start must be < 0, got {self.z_start}")
        if not (self.dt_max > 0):
            raise InvalidParameterError(f"dt_max must be > 0, got {self.dt_max}")
        if not (self.t_max > 0):
            raise InvalidParameterError(f"t_max must be > 0, got {self.t_max}")
        if not (self.r_stop > abs(self.z_start)):
            raise InvalidParameterError(
                f"r_stop ({self.r_stop}) must exceed |z_start| ({-self.z_start})")
        if not (self.rtol > 0):
            raise InvalidParameterError(f"rtol must be > 0, got {self.rtol}")

    @classmethod
    def for_source(cls, dist: MassDistribution, b: float, l: float, v: float,
                   *, start_factor: float = 50.0, stop_factor: float = 100.0,
                   rtol: float = DEFAULT_RTOL) -> "ScatterConfig":
        """Config with termination scales set from the source geometry.

        z_start = -start_factor * scale and r_stop = stop_factor * scale,
        where scale is the larger of the component radii and separations.
        The defaults truncate the incoming/outgoing asymptotes at the
        <~1e-3 relative level in the deflection angle; raise the factors
        when comparing against asymptotic closed forms.
        """
        return cls.for_scale(dist.length_scale(), b, l, v,
                             start_factor=start_factor,
                             stop_factor=stop_factor, rtol=rtol)

    @classmethod
    def for_scale(cls, scale: float, b: float, l: float, v: float, *,
                  start_factor: float = 50.0, stop_factor: float = 100.0,
                  rtol: float = DEFAULT_RTOL) -> "ScatterConfig":
        """:meth:`for_source` given the source's ``length_scale()`` (m)."""
        z_start = -start_factor * scale
        r_stop = stop_factor * scale
        launch = math.sqrt(b * b + l * l + z_start * z_start)
        r_stop = max(r_stop, 1.5 * launch)
        return cls(b=b, l=l, v=v, z_start=z_start,
                   dt_max=scale / v,
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
class PatternPoint:
    beta: float
    l: float
    b: float
    theta: float
    proj: tuple[float, float]
    hit: bool
    error: str | None = None


@dataclass(frozen=True)
class ScatterPattern:
    """Outgoing-direction pattern of a probe grid, stereographically projected."""

    records: tuple[PatternPoint, ...]   # every launched probe, grid order
    projection_pole: str = "(0,0,-1), plane tangent at +z, scale 2"

    @property
    def points(self):
        """Clean pattern points: excludes source hits and failed integrations."""
        return [p for p in self.records if not p.hit and p.error is None]

    @property
    def n_hit(self):
        return sum(1 for p in self.records if p.hit)

    @property
    def n_failed(self):
        """Records whose integration or projection failed (``error`` set)."""
        return sum(1 for p in self.records if p.error is not None)


def _acceleration_terms(dist: MassDistribution, constants: PhysicalConstants):
    """(cx, cy, cz, R, G*M) per component, for the tight RHS loop."""
    return [(c.center[0], c.center[1], c.center[2], c.radius,
             constants.G * c.mass) for c in dist.components]


def integrate_trajectory(dist: MassDistribution, cfg: ScatterConfig,
                         m_probe: float,
                         constants: PhysicalConstants = CONST) -> ProbeTrajectory:
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
    state and hit flag equal ``_integrate_batch([cfg])`` bit for bit.
    scipy's ``solve_ivp`` (RK45) is the oracle both are tested against.

    The acceleration is independent of m_probe (equivalence principle);
    the probe mass only enters energy bookkeeping.
    """
    terms = _acceleration_terms(dist, constants)
    n_rhs = 0

    def rhs(y):
        # gravity_field's arithmetic, one point at a time
        nonlocal n_rhs
        n_rhs += 1
        x, yy, z, vx, vy, vz = y
        ax = ay = az = 0.0
        for (cx, cy, cz, R, GM) in terms:
            dx = x - cx
            dy = yy - cy
            dz = z - cz
            s2 = dx * dx + dy * dy + dz * dz
            s = math.sqrt(s2)
            f = -GM / (s2 * s) if s >= R else -GM / (R * R * R)
            ax += f * dx
            ay += f * dy
            az += f * dz
        return (vx, vy, vz, ax, ay, az)

    y, atol = _launch(cfg)
    if not all(map(math.isfinite, y)):
        raise IntegratorFailureError(_NON_FINITE)
    rtol = max(cfg.rtol, _RTOL_FLOOR)
    t_bound, max_step, r_stop = cfg.t_max, cfg.dt_max, cfg.r_stop
    f = rhs(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_abs = float(_initial_step(lambda rows: np.array([rhs(rows[0])]),
                                    np.array([y]), np.array([f]),
                                    np.array(atol), rtol, t_bound,
                                    max_step)[0])
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
        if not retry:
            if h_abs > max_step:
                h_abs = max_step
            elif h_abs < min_step:
                h_abs = min_step
        if not (h_abs >= min_step):
            raise IntegratorFailureError(
                f"integrator failed: {RK45.TOO_SMALL_STEP}")
        t_new = min(t + h_abs, t_bound)
        h = t_new - t

        y_new, K, e = _dormand_prince(rhs, y, f, h)
        err = _rms_floats([
            ei * h / (a + max(abs(yi), abs(yn)) * rtol)
            for ei, a, yi, yn in zip(e, atol, y, y_new)])

        if not (err < 1):
            power = _SAFETY * _pow(err)
            h_abs = h * (power if power > _MIN_FACTOR else _MIN_FACTOR)
            retry = True
            n_rejected += 1
            continue
        grow = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR,
                                                  _SAFETY * _pow(err))
        h_abs = h * (min(1.0, grow) if retry else grow)
        retry = False
        n_accepted += 1
        if not all(map(math.isfinite, y_new)):
            raise IntegratorFailureError(_NON_FINITE)

        g_new = _radius(y_new) - r_stop
        if g <= 0 <= g_new:
            t_e, y_e = _escape_root(np.array(K), t, h, np.array(y), r_stop,
                                    t_new)
            if not np.isfinite(y_e).all():
                raise IntegratorFailureError(_NON_FINITE)
            ts.append(t_e)
            ys.append(y_e)
            return trajectory()
        ts.append(t_new)
        ys.append(y_new)
        if t_new >= t_bound:
            raise _unterminated(cfg, trajectory())
        t, y, f, g = t_new, y_new, K[-1], g_new


# RK45's Dormand-Prince 5(4) tableau as plain floats: per stage the
# coefficients of the earlier stages, then B and E.
_A_ROWS = tuple(tuple(RK45.A[s, :s].tolist())
                for s in range(1, RK45.n_stages))
_B = tuple(RK45.B.tolist())
_E = tuple(RK45.E.tolist())


def _dormand_prince(rhs, y, k1, h):
    """One Dormand-Prince 5(4) attempt on 6 floats from y with slope k1.

    Returns the 5th-order state, the seven stage slopes and the error
    estimate sum_j E[j] k_j (not yet times h).  Every stage sum runs in
    stage order and skips the zero coefficients B[1] and E[1], as
    :func:`_combine` does, so each value equals the batch engine's.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A_ROWS
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    k2 = rhs([yi + p1 * a21 * h for yi, p1 in zip(y, k1)])
    k3 = rhs([yi + (p1 * a31 + p2 * a32) * h
              for yi, p1, p2 in zip(y, k1, k2)])
    k4 = rhs([yi + (p1 * a41 + p2 * a42 + p3 * a43) * h
              for yi, p1, p2, p3 in zip(y, k1, k2, k3)])
    k5 = rhs([yi + (p1 * a51 + p2 * a52 + p3 * a53 + p4 * a54) * h
              for yi, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
    k6 = rhs([yi + (p1 * a61 + p2 * a62 + p3 * a63 + p4 * a64 + p5 * a65) * h
              for yi, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
    y_new = [yi + h * (p1 * b1 + p3 * b3 + p4 * b4 + p5 * b5 + p6 * b6)
             for yi, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(y_new)
    error = [p1 * e1 + p3 * e3 + p4 * e4 + p5 * e5 + p6 * e6 + p7 * e7
             for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)]
    return y_new, (k1, k2, k3, k4, k5, k6, k7), error


def _rms_floats(x):
    """:func:`_rms` of one row of floats."""
    total = x[0] * x[0]
    for v in x[1:]:
        total = total + v * v
    return math.sqrt(total) / len(x) ** 0.5


def _pow(err):
    """err ** _ERROR_EXPONENT through numpy's array power, as the batch
    engine computes it (libm's pow differs in the last bit for some err)."""
    return float(np.power(err, _ERROR_EXPONENT))


def _radius(y):
    return math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])


def _launch(cfg: ScatterConfig):
    """Initial state (x, y, z, vx, vy, vz) and per-component atol of a probe."""
    y0 = [cfg.l, cfg.b, cfg.z_start, 0.0, 0.0, cfg.v]
    scale_pos = max(abs(cfg.z_start), abs(cfg.b) + abs(cfg.l))
    atol = [ATOL_FACTOR * cfg.rtol * scale_pos] * 3 \
        + [ATOL_FACTOR * cfg.rtol * cfg.v] * 3
    return y0, atol


def _outgoing(cfg: ScatterConfig, v_out):
    """Deflection angle from the launch velocity and the outgoing unit vector."""
    theta = _angle_between(np.array([0.0, 0.0, cfg.v]), v_out)
    return theta, v_out / np.linalg.norm(v_out)


def _unterminated(cfg: ScatterConfig, traj=None) -> UnterminatedTrajectoryError:
    return UnterminatedTrajectoryError(
        f"probe did not escape r_stop={cfg.r_stop} within t_max={cfg.t_max}",
        trajectory=traj)


def _angle_between(a, b) -> float:
    cross = np.linalg.norm(np.cross(a, b))
    dot = float(np.dot(a, b))
    return math.atan2(cross, dot)


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


def energy_series(dist: MassDistribution, traj: ProbeTrajectory, m_probe: float,
                  constants: PhysicalConstants = CONST) -> np.ndarray:
    """Total energy E = m|v|^2/2 + V(x) at every sample (J)."""
    kin = 0.5 * m_probe * np.einsum("ij,ij->i", traj.v, traj.v)
    pot = gravity_potential(dist, traj.x, m_probe, constants)
    return kin + pot


# ---------------------------------------------------------------------------
# Closed-form hyperbolic-orbit expressions
# ---------------------------------------------------------------------------

def rutherford_angle(M, v, b0, constants: PhysicalConstants = CONST):
    """Deflection angle 2*acot(v^2 b0 / (G M)) off a point mass M (rad).

    Elementwise over floats or broadcastable arrays.
    """
    require((M > 0) & (v > 0) & (b0 > 0), "M, v, b0 must all be > 0")
    return result(2.0 * np.arctan(constants.G * M / (v * v * b0)))


def rutherford_angle_density(rho, beta, t_R, approx: bool = False,
                             constants: PhysicalConstants = CONST):
    """Max deflection in the (density, beta, t_R) parametrization (rad).

    For a sphere of density rho probed at impact parameter beta*R with
    speed R/t_R the radius cancels: the exact angle is
    2*atan((4 pi G rho / (3 beta)) t_R^2); ``approx=True`` returns the
    small-angle form (8 pi G rho / (3 beta)) t_R^2.  Elementwise.
    """
    require((rho > 0) & (beta > 0) & (t_R > 0), "rho, beta, t_R must all be > 0")
    x = 4.0 * np.pi * constants.G * rho * t_R**2 / (3.0 * beta)
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
    return result((h**3 / GM**2) * (em1 * sinh_F + sinh_F_minus_F)
                  / e2m1**1.5)


def kepler_scatter_time(M, rho, beta, zeta, t_R,
                        constants: PhysicalConstants = CONST):
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
    theta = rutherford_angle_density(rho, beta, t_R, constants=constants)
    x = 0.5 * rutherford_angle_density(rho, beta, t_R, approx=True,
                                       constants=constants)   # tan(theta/2)
    # (1/x)^2 underflows to 0 past the parabolic limit, where x * x would
    # overflow: such an orbit is rejected as not hyperbolic
    e2m1 = (1.0 / x) ** 2
    e = np.sqrt(1.0 + e2m1)
    phi_inf = 0.5 * (np.pi + theta)
    R = (3.0 * M / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    h = (R / t_R) * (beta * R)       # v * b0
    t_half = hyperbolic_time_from_anomaly(e, zeta * phi_inf, h, constants.G * M,
                                          e2m1=e2m1)
    return 2.0 * t_half


# ---------------------------------------------------------------------------
# Lockstep batch engine (pattern scans)
# ---------------------------------------------------------------------------

def _rms(x):
    """Row-wise RMS norm of an (n, 6) array (scipy's ``norm`` per probe)."""
    x2 = x * x
    total = x2[:, 0]
    for k in range(1, x.shape[1]):
        total = total + x2[:, k]
    return np.sqrt(total) / x.shape[1] ** 0.5


def _combine(K, coef):
    """sum_j coef[j] * K[j], accumulated in stage order.

    Elementwise accumulation (not a BLAS product) keeps every probe's
    arithmetic independent of its row in the batch.  Zero coefficients
    (the second stage in B and E) are skipped.
    """
    acc = K[0] * coef[0]
    for j in range(1, len(coef)):
        if coef[j]:
            acc += K[j] * coef[j]
    return acc


def _escape_root(K, t_old, h, y_old, r_stop, t_new):
    """First outward r_stop crossing within one accepted step.

    The step's quartic dense output (scipy's RkDenseOutput form) is
    root-searched with brentq at solve_ivp's event tolerances; returns
    the time and the state of the crossing.
    """
    Q = K.T.dot(RK45.P)

    def state(t):
        p = np.cumprod(np.full(4, (t - t_old) / h))
        return h * Q.dot(p) + y_old

    def escape(t):
        y = state(t)
        return math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2) - r_stop

    t_root = brentq(escape, t_old, t_new, xtol=_EVENT_TOL, rtol=_EVENT_TOL)
    return t_root, state(t_root)


def _initial_step(fun, y, f, atol, rtol, t_bound, max_step):
    """scipy's ``select_initial_step`` for each probe, from t0 = 0."""
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    d2 = _rms((fun(y + h0[:, None] * f) - f) / scale) / h0
    # max(d1, d2) as Python's max takes it: a NaN d2 leaves d1
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(d2 > d1, d2, d1)) ** (-_ERROR_EXPONENT))
    return np.minimum(np.minimum(100 * h0, h1), np.minimum(t_bound, max_step))


def _integrate_batch(dist: MassDistribution, cfgs,
                     constants: PhysicalConstants = CONST):
    """Integrate many probes in lockstep; per probe (final state, hit, error).

    One Dormand-Prince 5(4) attempt per active probe per iteration, with
    scipy RK45's controller reproduced probe by probe: the initial step
    of ``select_initial_step``, the RMS error norm with scale
    atol + max(|y|, |y_new|) rtol, safety 0.9, step factors clamped to
    [0.2, 10] and no growth right after a rejection, min_step = 10 ulp(t),
    max_step = dt_max and clipping at t_max.  A probe retires at its
    outward r_stop crossing (located on the dense output as solve_ivp
    does), at t_max (UnterminatedTrajectoryError), on a non-finite
    accepted state or when its step underflows (IntegratorFailureError);
    the error slot then holds the exception and the final state is NaN.
    Source hits are checked on every accepted-step segment.
    """
    n = len(cfgs)
    launch = [_launch(c) for c in cfgs]
    y = np.array([y0 for y0, _ in launch])
    atol = np.array([a for _, a in launch])
    rtol = np.array([[max(c.rtol, _RTOL_FLOOR)] for c in cfgs])
    t_bound = np.array([c.t_max for c in cfgs])
    max_step = np.array([c.dt_max for c in cfgs])
    r_stop = np.array([c.r_stop for c in cfgs])

    y_end = np.full((n, 6), np.nan)
    hit_end = np.zeros(n, dtype=bool)
    errors = [None] * n
    idx = np.arange(n)           # original index of each active probe

    def fun(y):
        f = np.empty_like(y)
        f[:, :3] = y[:, 3:]
        f[:, 3:] = gravity_field(dist, y[:, :3], constants)
        return f

    def radius(y):
        return np.sqrt(y[:, 0] ** 2 + y[:, 1] ** 2 + y[:, 2] ** 2)

    def fail(mask, make_error):
        for j in np.flatnonzero(mask):
            errors[idx[j]] = make_error(j)
        return mask

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = fun(y)
        h_abs = _initial_step(fun, y, f, atol, rtol, t_bound, max_step)
        t = np.zeros(n)
        g = radius(y) - r_stop           # escape event value
        retry = np.zeros(n, dtype=bool)  # last attempt was rejected
        hit = np.zeros(n, dtype=bool)
        done = fail(~np.isfinite(y).all(axis=1),
                    lambda j: IntegratorFailureError(_NON_FINITE))

        while True:
            if done.any():
                keep = ~done
                (idx, t, y, f, h_abs, retry, g, hit, atol, rtol, t_bound,
                 max_step, r_stop) = (
                    a[keep] for a in (idx, t, y, f, h_abs, retry, g, hit, atol,
                                      rtol, t_bound, max_step, r_stop))
            m = len(idx)
            if m == 0:
                break
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            fresh = ~retry
            h_abs = np.where(fresh & (h_abs > max_step), max_step,
                             np.where(fresh & (h_abs < min_step), min_step,
                                      h_abs))
            stuck = ~(h_abs >= min_step)
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t
            hc = h[:, None]

            K = np.empty((RK45.n_stages + 1, m, 6))
            K[0] = f
            for s in range(1, RK45.n_stages):
                K[s] = fun(y + _combine(K[:s], RK45.A[s, :s]) * hc)
            y_new = y + hc * _combine(K[:-1], RK45.B)
            f_new = K[-1] = fun(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(_combine(K, RK45.E) * hc / scale)

            accept = (err < 1) & ~stuck
            power = _SAFETY * err ** _ERROR_EXPONENT
            grow = np.where(err == 0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, power))
            grow = np.where(retry, np.minimum(1.0, grow), grow)
            h_abs = h * np.where(accept, grow, np.fmax(_MIN_FACTOR, power))
            retry = ~accept

            finite = np.isfinite(y_new).all(axis=1)
            ok = accept & finite
            done = fail(stuck, lambda j: IntegratorFailureError(
                f"integrator failed: {RK45.TOO_SMALL_STEP}"))
            done |= fail(accept & ~finite,
                         lambda j: IntegratorFailureError(_NON_FINITE))

            g_new = radius(y_new) - r_stop
            crossed = ok & (g <= 0) & (g_new >= 0)
            seg_end = y_new[:, :3].copy()
            for j in np.flatnonzero(crossed):
                _, y_e = _escape_root(K[:, j].copy(), t[j], h[j], y[j],
                                      r_stop[j], t_new[j])
                seg_end[j] = y_e[:3]
                y_end[idx[j]] = y_e
                if not np.isfinite(y_e).all():
                    errors[idx[j]] = IntegratorFailureError(_NON_FINITE)
            hit[ok] |= _segment_hits(y[ok, :3], seg_end[ok], dist)
            hit_end[idx[crossed]] = hit[crossed]
            done |= crossed
            done |= fail(ok & ~crossed & (t_new >= t_bound),
                         lambda j: _unterminated(cfgs[idx[j]]))

            t = np.where(accept, t_new, t)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], f_new, f)
            g = np.where(accept, g_new, g)
    return y_end, hit_end, errors


# ---------------------------------------------------------------------------
# Stereographic projection and pattern scans
# ---------------------------------------------------------------------------

def stereographic_project(outgoing_dir) -> np.ndarray:
    """Project a unit direction from the pole (0,0,-1) onto the z=+1 plane.

    (0,0,1) maps to the origin, the equator to the circle of radius 2; a
    small deflection theta lands at radius 2*tan(theta/2) ~ theta.
    """
    u = np.asarray(outgoing_dir, dtype=float)
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-9:
        raise InvalidParameterError(f"direction must be unit length, |u| = {norm}")
    if 1.0 + u[2] < 1e-12:
        raise ProjectionSingularError("direction at the projection pole (0,0,-1)")
    return np.array([2.0 * u[0] / (1.0 + u[2]), 2.0 * u[1] / (1.0 + u[2])])


def scan_pattern(dist: MassDistribution, beta_range, l_range, n_b: int,
                 n_l: int, v: float, m_probe: float, *,
                 mirror_l: bool = True,
                 start_factor: float = 50.0, stop_factor: float = 100.0,
                 rtol: float = DEFAULT_RTOL) -> ScatterPattern:
    """Launch a (beta, l) grid of probes and collect projected outgoing angles.

    Impact parameters are b = beta * R with R the largest component
    radius; with ``mirror_l`` every offset l > 0 is also launched at -l.
    Each probe gets the :meth:`ScatterConfig.for_source` launch and
    termination (the source's length scale is computed once per scan),
    and the whole grid is integrated at once by the lockstep batch
    engine; each record's theta, projection and hit flag equal what
    :func:`integrate_trajectory` gives for that probe.  Probes
    that hit the source stay in ``records`` (flagged) but are excluded
    from ``points``; per-point integration failures are recorded (theta
    NaN, ``error`` set) without aborting the scan.  Records are in grid
    order, and each probe's result does not depend on the rest of the grid.
    """
    if n_b < 1 or n_l < 1:
        raise InvalidParameterError("n_b and n_l must be >= 1")
    b_lo, b_hi = beta_range
    l_lo, l_hi = l_range
    if b_lo <= 0 or b_hi < b_lo or l_lo < 0 or l_hi < l_lo:
        raise InvalidParameterError("invalid beta_range or l_range")
    R = max(c.radius for c in dist.components)
    betas = np.linspace(b_lo, b_hi, n_b)
    ls = np.linspace(l_lo, l_hi, n_l)

    launches = []
    for beta in betas:
        for l in ls:
            offsets = (l, -l) if (mirror_l and l > 0) else (l,)
            for off in offsets:
                launches.append((float(beta), float(off), float(beta * R)))
    scale = dist.length_scale()
    cfgs = [ScatterConfig.for_scale(scale, b=b, l=off, v=v,
                                    start_factor=start_factor,
                                    stop_factor=stop_factor, rtol=rtol)
            for _, off, b in launches]
    y_end, hits, errors = _integrate_batch(dist, cfgs)

    records = []
    for (beta, off, b), cfg, y, hit, exc in zip(launches, cfgs, y_end, hits,
                                                 errors):
        if exc is None:
            theta, out_dir = _outgoing(cfg, y[3:])
            try:
                proj = stereographic_project(out_dir)
            except ProjectionSingularError as singular:
                exc = singular
        if exc is None:
            records.append(PatternPoint(beta=beta, l=off, b=b, theta=theta,
                                        proj=(float(proj[0]), float(proj[1])),
                                        hit=bool(hit)))
        else:
            records.append(PatternPoint(beta=beta, l=off, b=b,
                                        theta=float("nan"),
                                        proj=(float("nan"), float("nan")),
                                        hit=False,
                                        error=f"{type(exc).__name__}: {exc}"))
    return ScatterPattern(records=tuple(records))


def make_collapsed_sources(R: float, density: float, d: float):
    """The two localized alternatives: one full-mass sphere at -d/2 or +d/2."""
    M = 4.0 / 3.0 * np.pi * density * R**3
    left = MassDistribution.from_dict(
        {"components": [{"center": [-d / 2, 0.0, 0.0], "radius": R, "mass": M}]})
    right = MassDistribution.from_dict(
        {"components": [{"center": [+d / 2, 0.0, 0.0], "radius": R, "mass": M}]})
    return left, right


def collapsed_scatter(dist_left: MassDistribution, dist_right: MassDistribution,
                      cfg: ScatterConfig, m_probe: float, which: str,
                      constants: PhysicalConstants = CONST) -> ProbeTrajectory:
    """Scatter off one localized alternative selected by the coin ``which``.

    Models the per-probe collapsed situation: each probe sees the full
    mass at a single position, producing a bimodal trajectory set instead
    of the single frozen-source pattern.
    """
    if which not in ("left", "right"):
        raise InvalidParameterError(f'which must be "left" or "right", got {which!r}')
    dist = dist_left if which == "left" else dist_right
    return integrate_trajectory(dist, cfg, m_probe, constants)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def pattern_rows(pattern: ScatterPattern):
    """CSV rows beta,l,b,theta_rad,proj_x,proj_y,hit, one per launched probe."""
    for p in pattern.records:
        yield (p.beta, p.l, p.b, p.theta, p.proj[0], p.proj[1], int(p.hit))


def pattern_to_csv(pattern: ScatterPattern, fh, header_comment: str | None = None):
    if header_comment:
        fh.write(f"# {header_comment}\n")
    fh.write("beta,l,b,theta_rad,proj_x,proj_y,hit\n")
    for beta, l, b, theta, px, py, hit in pattern_rows(pattern):
        fh.write(f"{beta:.9g},{l:.9g},{b:.9g},{theta:.9g},{px:.9g},{py:.9g},{hit}\n")


def pattern_to_svg(pattern: ScatterPattern, fh, dashed_radius: float | None = None,
                   size: int = 640, header_comment: str | None = None):
    """Static SVG of the projected pattern, colored by the sign of l.

    A dashed circle (the closed-form maximum-deflection radius) can be
    overlaid for comparison with the simulated points.
    """
    pts = pattern.points
    rmax = max([math.hypot(*p.proj) for p in pts] + [dashed_radius or 0.0])
    if rmax <= 0:
        rmax = 1.0
    pad = 1.15
    scale = (size / 2.0) / (rmax * pad)

    def sx(val):
        return size / 2.0 + val * scale

    def sy(val):
        return size / 2.0 - val * scale

    fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    if header_comment:
        fh.write(f"<!-- {header_comment} -->\n")
    fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">\n')
    fh.write(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    fh.write(f'<line x1="0" y1="{size/2}" x2="{size}" y2="{size/2}" '
             'stroke="#cccccc" stroke-width="1"/>\n')
    fh.write(f'<line x1="{size/2}" y1="0" x2="{size/2}" y2="{size}" '
             'stroke="#cccccc" stroke-width="1"/>\n')
    if dashed_radius:
        fh.write(f'<circle cx="{size/2}" cy="{size/2}" r="{dashed_radius*scale:.2f}" '
                 'fill="none" stroke="black" stroke-width="1" '
                 'stroke-dasharray="6,4"/>\n')
    for p in pts:
        color = "#d62728" if p.l > 0 else ("#1f77b4" if p.l < 0 else "#2ca02c")
        fh.write(f'<circle cx="{sx(p.proj[0]):.2f}" cy="{sy(p.proj[1]):.2f}" '
                 f'r="2" fill="{color}" fill-opacity="0.7"/>\n')
    fh.write("</svg>\n")
