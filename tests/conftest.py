"""Shared test oracles: asymptotic launch configs, orbit timing and the
scipy RK45 trajectory integrator; and the rows of a pattern scan."""

import math

import numpy as np
from scipy.integrate import solve_ivp

from zenograv.errors import IntegratorFailureError
from zenograv.scatter import (ProbeTrajectory, ScatterConfig,
                              _acceleration_terms, _launch, _outgoing,
                              _segment_hits, _unterminated)


def oracle_config(dist, b, l, v, rtol=1e-10):
    """Launch far enough out that asymptote truncation is ~1e-5 of theta."""
    scale = dist.length_scale()
    return ScatterConfig.for_source(dist, b=b, l=l, v=v,
                                    start_factor=200 * b / scale,
                                    stop_factor=400 * b / scale, rtol=rtol)


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


def anomaly_crossing_elapsed(traj, phi_target):
    """Elapsed time between the +-phi_target true-anomaly crossings.

    Independent timing oracle: reads the crossing times straight off the
    integrated samples (linear interpolation), with the periapsis
    direction taken from the closest-approach sample.
    """
    rn = np.linalg.norm(traj.x, axis=1)
    ip = int(np.argmin(rn))
    peri = traj.x[ip] / rn[ip]
    phi = np.arccos(np.clip(traj.x @ peri / rn, -1.0, 1.0))
    pre = np.nonzero(phi[:ip] >= phi_target)[0]
    i0 = pre[-1]
    t_pre = np.interp(phi_target, [phi[i0 + 1], phi[i0]],
                      [traj.t[i0 + 1], traj.t[i0]])
    post = np.nonzero(phi[ip:] >= phi_target)[0] + ip
    i1 = post[0]
    t_post = np.interp(phi_target, [phi[i1 - 1], phi[i1]],
                       [traj.t[i1 - 1], traj.t[i1]])
    return t_post - t_pre


def scipy_trajectory(dist, cfg):
    """One probe through scipy's ``solve_ivp`` (RK45), the oracle of the
    toolkit's own Dormand-Prince steppers.

    Same contract as ``integrate_trajectory``: launch and tolerances from
    ``_launch``, a terminal outward r_stop event, hits on every sample
    segment, and the same errors.  ``n_rhs`` is scipy's ``nfev``; the
    step counters stay 0.
    """
    terms = _acceleration_terms(dist)

    def rhs(t, y):
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

    def escape(t, y):
        return math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2) - cfg.r_stop
    escape.terminal = True
    escape.direction = 1.0   # outward crossing only

    y0, atol = _launch(cfg)
    sol = solve_ivp(rhs, (0.0, cfg.t_max), y0, method="RK45",
                    rtol=cfg.rtol, atol=atol, max_step=cfg.dt_max,
                    events=escape, dense_output=False)

    pos = sol.y[:3].T.copy()
    vel = sol.y[3:].T.copy()
    if not np.all(np.isfinite(sol.y)):
        raise IntegratorFailureError("non-finite state during integration")

    hit = bool(_segment_hits(pos[:-1], pos[1:], dist).any())
    theta, out_dir = _outgoing(cfg, vel[-1])
    traj = ProbeTrajectory(t=sol.t, x=pos, v=vel, hit_source=hit,
                           deflection_angle=theta, outgoing_dir=out_dir,
                           n_rhs=sol.nfev)
    if sol.status == 0:
        raise _unterminated(cfg, traj)
    if sol.status < 0:
        raise IntegratorFailureError(f"integrator failed: {sol.message}")
    return traj
