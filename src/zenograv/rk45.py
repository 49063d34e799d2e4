"""scipy's RK45 and solve_ivp's event root, reproduced operation for operation.

The numerics both probe integrators of :mod:`zenograv.scatter` share: the
Dormand-Prince 5(4) tableau, RK45's step-size controller and initial
step, one step on plain floats, and the root on a step's dense output at
which solve_ivp locates a terminal event, found by a lockstep port of
scipy's ``brentq``.  The values are scipy's, copied as literals (a test
checks each against scipy bit for bit) so that importing the toolkit
does not import scipy, and every sum runs in a fixed order, so that a
probe's arithmetic does not depend on its batch.
"""

from __future__ import annotations

import math

import numpy as np

# RK45's Dormand-Prince 5(4) tableau: per stage s = 1..5 its coefficients
# of the earlier stages (RK45.A[s, :s]), then RK45.B, RK45.E and the
# dense-output matrix RK45.P (one row per stage).  The nodes RK45.C are
# not needed: the field does not depend on t.
N_STAGES = 6
ERROR_ESTIMATOR_ORDER = 4
A_ROWS = (
    (0.2,),
    (0.075, 0.225),
    (0.9777777777777777, -3.7333333333333334, 3.5555555555555554),
    (2.9525986892242035, -11.595793324188385, 9.822892851699436,
     -0.2908093278463649),
    (2.8462752525252526, -10.757575757575758, 8.906422717743473,
     0.2784090909090909, -0.2735313036020583))
B = (0.09114583333333333, 0.0, 0.44923629829290207, 0.6510416666666666,
     -0.322376179245283, 0.13095238095238096)
E = (-0.0012326388888888888, 0.0, 0.0042527702905061394,
     -0.03697916666666667, 0.05086379716981132, -0.0419047619047619, 0.025)
P = (
    (1.0, -2.8535800653862835, 3.0717434641059005, -1.1270175653862835),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 4.023133379230305, -6.249321565289, 2.675424484351598),
    (0.0, -3.7324019615885042, 10.068970589843675, -5.685526961588504),
    (0.0, 2.5548038301849423, -6.399112377351017, 3.5219323679207912),
    (0.0, -1.3744241142186024, 3.272657752246729, -1.7672812570757455),
    (0.0, 1.3824689317781436, -3.764937863556287, 2.382468931778144))
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# RK45's step-size controller
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / (ERROR_ESTIMATOR_ORDER + 1)
# solve_ivp's event-root tolerance (xtol = rtol = 4 eps)
EVENT_TOL = 4 * np.finfo(float).eps
# scipy RK45's floor on rtol
RTOL_FLOOR = 100 * np.finfo(float).eps


def dormand_prince(rhs, y, k1, h):
    """One Dormand-Prince 5(4) attempt on 6 floats from y with slope k1.

    Returns the 5th-order state, the seven stage slopes and the error
    estimate sum_j E[j] k_j (not yet times h).  Every stage sum runs in
    stage order and skips the zero coefficients B[1] and E[1], as
    :func:`combine` does, so each value equals the batch engine's.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = A_ROWS
    b1, _, b3, b4, b5, b6 = B
    e1, _, e3, e4, e5, e6, e7 = E
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


def rms_floats(x):
    """:func:`rms` of one row of floats."""
    total = x[0] * x[0]
    for v in x[1:]:
        total = total + v * v
    return math.sqrt(total) / len(x) ** 0.5


def error_power(err):
    """err ** ERROR_EXPONENT through numpy's array power, as the batch
    engine computes it (libm's pow differs in the last bit for some err)."""
    return float(np.power(err, ERROR_EXPONENT))


def rms(x):
    """Row-wise RMS norm of an (n, 6) array (scipy's ``norm`` per probe)."""
    x2 = x * x
    total = x2[:, 0]
    for k in range(1, x.shape[1]):
        total = total + x2[:, k]
    return np.sqrt(total) / x.shape[1] ** 0.5


def combine(K, coef):
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


def escape_roots(K, t_old, h, y_old, r_stop, t_new):
    """First outward r_stop crossing within one accepted step, per probe.

    K (7, m, 6) holds the stage slopes of each probe's step from (t_old,
    y_old) over h to t_new.  The step's quartic dense output (scipy's
    RkDenseOutput form, y_old + h sum_k Q_k x^(k+1) with Q = K^T P and
    x = (t - t_old)/h) is summed elementwise in a fixed order, not by a
    BLAS product, so a probe's value does not depend on the batch; every
    probe's root is then searched by :func:`brentq` at solve_ivp's event
    tolerances.  Returns the times (m,) and the states (m, 6) of the
    crossings.
    """
    Q = np.stack([combine(K, column) for column in zip(*P)], axis=1)

    def state(t, lanes, cols):
        x = ((t - t_old[lanes]) / h[lanes])[:, None]
        q = Q[lanes][:, :, cols]
        p = x
        acc = q[:, 0] * p
        for k in range(1, 4):
            p = p * x
            acc = acc + q[:, k] * p
        return h[lanes, None] * acc + y_old[lanes, cols]

    def escape(t, lanes):
        pos = state(t, lanes, slice(0, 3))
        return np.sqrt(pos[:, 0] * pos[:, 0] + pos[:, 1] * pos[:, 1]
                       + pos[:, 2] * pos[:, 2]) - r_stop[lanes]

    t_root = brentq(escape, t_old, t_new)
    return t_root, state(t_root, slice(None), slice(None))


def brentq(f, xa, xb):
    """Roots of f on the brackets [xa[i], xb[i]], all lanes in lockstep.

    Each lane does exactly what scipy's ``brentq(f, a, b, xtol=4 eps,
    rtol=4 eps)`` does: Brent's method (Brent 1973, ch. 4) in the
    xpre/xcur/xblk form of scipy's C ``brentq.c``, with its convergence
    test and its failures (ValueError for a bracket without a sign change
    or a NaN value, RuntimeError after its default 100 iterations).
    ``f(x, lanes)`` returns the value of lane ``lanes[k]`` at ``x[k]``;
    converged lanes drop out.
    """
    def value(x, lanes):
        fx = f(x, lanes)
        nan = np.isnan(fx)
        if nan.any():
            raise ValueError(f"The function value at x={float(x[nan][0])} "
                             "is NaN; solver cannot continue.")
        return fx

    lanes = np.arange(len(xa))
    root = np.array(xb, dtype=float)
    xpre, xcur = np.array(xa, dtype=float), root.copy()
    fpre, fcur = value(xpre, lanes), value(xcur, lanes)
    root[fpre == 0] = xpre[fpre == 0]
    live = (fpre != 0) & (fcur != 0)
    if (np.signbit(fpre) == np.signbit(fcur))[live].any():
        raise ValueError("f(a) and f(b) must have different signs")
    lanes, xpre, xcur, fpre, fcur = (a[live] for a in
                                     (lanes, xpre, xcur, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros(len(lanes)) for _ in range(4))
    for _ in range(100):
        if not len(lanes):
            return root
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre)
                                            != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                            np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                            np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (EVENT_TOL + EVENT_TOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            root[lanes[done]] = xcur[done]
            live = ~done
            (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (a[live] for a in (lanes, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
            if not len(lanes):
                continue

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # interpolate (secant) where xpre == xblk, else extrapolate
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre)
                / (dblk * dpre * (fblk - fpre)))
        a, b = np.abs(spre), 3 * np.abs(sbis) - delta
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.where(a < b, a, b)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = value(xcur, lanes)
    if len(lanes):
        raise RuntimeError("Failed to converge after 100 iterations.")
    return root


def initial_step(fun, y, f, atol, rtol, t_bound, max_step):
    """scipy's ``select_initial_step`` for each probe, from t0 = 0."""
    scale = atol + np.abs(y) * rtol
    d0 = rms(y / scale)
    d1 = rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    d2 = rms((fun(y + h0[:, None] * f) - f) / scale) / h0
    # max(d1, d2) as Python's max takes it: a NaN d2 leaves d1
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(d2 > d1, d2, d1)) ** (-ERROR_EXPONENT))
    return np.minimum(np.minimum(100 * h0, h1), np.minimum(t_bound, max_step))
