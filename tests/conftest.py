"""Shared test oracles: asymptotic launch configs, orbit timing and the
scipy RK45 trajectory integrator; a probe's outgoing direction, the rows
of a pattern scan, and launch tables stacked from one-probe configs; a
Dormand-Prince stage sum as one reduce, and the density-form Rutherford
angle; the field and force at rows of points, the freeze projector and
variance, and the free wavepacket width."""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from zenograv.constants import CONST
from zenograv.elementwise import result
from zenograv.errors import IntegratorFailureError
from zenograv.massdist import field_rows
from zenograv.scatter import (ProbeTrajectory, ScatterConfig, _deflection,
                              _launch, _outgoing, _segment_hits, _unterminated)
from zenograv.zeno import _phi_block, effective_hamiltonian


def oracle_config(dist, b, l, v, rtol=1e-10):
    """Launch far enough out that asymptote truncation is ~1e-5 of theta."""
    scale = dist.length_scale()
    return ScatterConfig.for_source(dist, b=b, l=l, v=v,
                                    start_factor=200 * b / scale,
                                    stop_factor=400 * b / scale, rtol=rtol)


def outgoing_dir(cfg, v_out):
    """The unit vector of the outgoing velocity v_out, as the scan takes
    it from ``_deflection``."""
    return _deflection(cfg.v, np.reshape(v_out, (1, 3)))[1][0]


def clean_rows(pattern, *names):
    """The named columns of a scan's clean probes, one tuple of Python
    floats per probe, in grid order."""
    clean = pattern.clean
    return list(zip(*(getattr(pattern, name)[clean].tolist()
                      for name in names)))


def launch_configs(dist, pattern, v, **factors):
    """The launch config of each probe of a scan, in grid order."""
    return [ScatterConfig.for_source(dist, b=b, l=l, v=v, **factors)
            for b, l in zip(pattern.b.tolist(), pattern.l.tolist())]


def stack(cfgs):
    """One launch table of the one-probe configs cfgs, in their order."""
    return ScatterConfig(**{name: np.array([getattr(c, name) for c in cfgs])
                            for name in ScatterConfig.__dataclass_fields__})


def anomaly_crossing_elapsed(traj, phi_target, GM):
    """Elapsed time between the +-phi_target true-anomaly crossings of a
    trajectory about a point mass GM at the origin.

    Independent timing oracle: the periapsis direction is that of the
    eccentricity (Laplace-Runge-Lenz) vector v x (x x v)/GM - x/|x| of the
    closest-approach sample, and each crossing is the root of the anomaly
    on the cubic Hermite interpolant of the positions and velocities of
    the two samples that bracket it.
    """
    rn = np.linalg.norm(traj.x, axis=1)
    ip = int(np.argmin(rn))
    x, v = traj.x[ip], traj.v[ip]
    ecc = np.cross(v, np.cross(x, v)) / GM - x / rn[ip]
    peri = ecc / np.linalg.norm(ecc)
    cos_target = math.cos(phi_target)
    cos_phi = traj.x @ peri / rn

    def crossing(i):
        # samples i and i + 1 bracket the crossing
        (t0, t1), (p0, p1), (v0, v1) = (traj.t[i:i + 2], traj.x[i:i + 2],
                                        traj.v[i:i + 2])
        h = t1 - t0

        def excess(s):
            p = ((2 * s**3 - 3 * s**2 + 1) * p0
                 + (s**3 - 2 * s**2 + s) * h * v0
                 + (-2 * s**3 + 3 * s**2) * p1 + (s**3 - s**2) * h * v1)
            return p @ peri / np.linalg.norm(p) - cos_target

        return t0 + h * brentq(excess, 0.0, 1.0, xtol=1e-15, rtol=1e-15)

    before = np.nonzero(cos_phi[:ip] <= cos_target)[0][-1]
    after = np.nonzero(cos_phi[ip:] <= cos_target)[0][0] + ip - 1
    return crossing(after) - crossing(before)


def scipy_trajectory(dist, cfg):
    """One probe through scipy's ``solve_ivp`` (RK45), the oracle of the
    toolkit's own Dormand-Prince steppers.

    Same contract as ``integrate_trajectory``: launch and tolerances from
    ``_launch``, a terminal outward r_stop event, hits on every sample
    segment, and the same errors.  ``n_rhs`` is scipy's ``nfev``; the
    step counters stay 0.
    """
    centers, *columns = dist._field_stack
    terms = np.hstack((centers[:, :, 0], *columns)).tolist()

    def rhs(t, y):
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

    def escape(t, y):
        return math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2) - cfg.r_stop
    escape.terminal = True
    escape.direction = 1.0   # outward crossing only

    y0, atol = _launch(cfg)
    sol = solve_ivp(rhs, (0.0, cfg.t_max), y0, method="RK45",
                    rtol=cfg.rtol, atol=atol, events=escape,
                    dense_output=False)

    pos = sol.y[:3].T.copy()
    vel = sol.y[3:].T.copy()
    if not np.all(np.isfinite(sol.y)):
        raise IntegratorFailureError("non-finite state during integration")

    hit = bool(_segment_hits(pos[:-1], pos[1:], dist).any())
    traj = ProbeTrajectory(t=sol.t, x=pos, v=vel, hit_source=hit,
                           deflection_angle=_outgoing(cfg, vel[-1]),
                           n_rhs=sol.nfev)
    if sol.status == 0:
        raise _unterminated(cfg.r_stop, cfg.t_max)
    if sol.status < 0:
        raise IntegratorFailureError(f"integrator failed: {sol.message}")
    return traj


def reduce_stage_sum(K, coef):
    """Oracle kept out of the package: sum_j coef[j] K[j] as one reduce,
    the stages with a nonzero coefficient times their coefficient
    column, added over the stage axis from -0.0."""
    stages = [j for j, c in enumerate(coef) if c]
    weights = np.array([coef[j] for j in stages])[:, None, None]
    return np.add.reduce(K[stages] * weights, axis=0, initial=-0.0)


def rutherford_angle_density(rho, beta, t_R, approx=False):
    """Oracle kept out of the package: the maximum deflection (rad) off a
    sphere of density rho at impact parameter beta*R and speed R/t_R, in
    which R cancels: 2*atan((4 pi G rho / (3 beta)) t_R^2), or with
    ``approx`` its small-angle form (8 pi G rho / (3 beta)) t_R^2.
    Elementwise: float arguments give a float."""
    x = 4.0 * np.pi * CONST.G * rho * t_R**2 / (3.0 * beta)
    return result(2.0 * x if approx else 2.0 * np.arctan(x))


def gravity_field(dist, x):
    """Oracle kept out of the package: the field at each row of x (n, 3)."""
    with np.errstate(divide="ignore", over="ignore"):
        return field_rows(dist, np.ascontiguousarray(np.asarray(x, float).T)).T


def force_at(dist, x, m_probe):
    """Oracle kept out of the package: the force (N) on a probe at x."""
    return m_probe * gravity_field(dist, np.reshape(x, (1, 3)))[0]


def projector_phi(sys):
    """Oracle kept out of the package: 1 x P_phi on the product space."""
    return np.kron(np.eye(len(sys.H_P)), np.outer(sys.phi, sys.phi.conj()))


def zeno_variance(sys):
    """Oracle kept out of the package: <phi|H^2|phi> - H_phi^2."""
    H = sys.total_hamiltonian()
    H_phi = effective_hamiltonian(sys)
    return _phi_block(sys, H @ H) - H_phi @ H_phi


def wavepacket_spread(m, t, delta_u):
    """Oracle kept out of the package: the free Gaussian packet width (m)."""
    return math.sqrt(2 * delta_u**2
                     + 0.5 * (CONST.hbar * t / (m * delta_u)) ** 2)
