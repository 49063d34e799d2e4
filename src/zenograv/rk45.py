"""scipy's RK45 and solve_ivp's event root, reproduced operation for operation.

The numerics both probe integrators of :mod:`zenograv.scatter` share: the
Dormand-Prince 5(4) tableau, RK45's step-size controller and initial
step, one step on plain floats with its six coordinates written out, and
the root on a step's dense output at which solve_ivp locates a terminal
event, found by a port of scipy's ``brentq``: in lockstep over numpy
lanes for a scan (:func:`escape_roots`), and on plain floats for one
probe (:func:`escape_root`), with the same operations in each lane.  The
values are scipy's, copied as literals (a test checks each against scipy
bit for bit) so that importing the toolkit does not import scipy, and
every sum runs in a fixed order, so that a probe's arithmetic does not
depend on its batch, and its one-probe path gives the same bits.
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
# solve_ivp's event-root tolerance (xtol = rtol = 4 eps) and scipy RK45's
# floor on rtol, as Python floats so that the one-probe path stays on them
EVENT_TOL = 4 * float(np.finfo(float).eps)
RTOL_FLOOR = 100 * float(np.finfo(float).eps)
# scipy brentq's failures
_NAN_VALUE = "The function value at x={} is NaN; solver cannot continue."
_NO_SIGN_CHANGE = "f(a) and f(b) must have different signs"
_NO_CONVERGENCE = "Failed to converge after 100 iterations."


def dormand_prince(rhs, y, k1, h):
    """One Dormand-Prince 5(4) attempt on 6 floats from y with slope k1.

    Returns the 5th-order state, the seven stage slopes and the error
    estimate sum_j E[j] k_j (not yet times h), each a tuple of 6 floats.
    Every stage sum runs in stage order and skips the zero coefficients
    B[1] and E[1], the order and skips of :func:`combine`, so each value
    equals the batch engine's.  The six coordinates are written out: one
    expression each, no per-coordinate loop.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = A_ROWS
    b1, _, b3, b4, b5, b6 = B
    e1, _, e3, e4, e5, e6, e7 = E
    y0, y1, y2, y3, y4, y5 = y
    p0, p1, p2, p3, p4, p5 = k1
    k2 = rhs((y0 + p0 * a21 * h, y1 + p1 * a21 * h, y2 + p2 * a21 * h,
              y3 + p3 * a21 * h, y4 + p4 * a21 * h, y5 + p5 * a21 * h))
    q0, q1, q2, q3, q4, q5 = k2
    k3 = rhs((y0 + (p0 * a31 + q0 * a32) * h, y1 + (p1 * a31 + q1 * a32) * h,
              y2 + (p2 * a31 + q2 * a32) * h, y3 + (p3 * a31 + q3 * a32) * h,
              y4 + (p4 * a31 + q4 * a32) * h, y5 + (p5 * a31 + q5 * a32) * h))
    r0, r1, r2, r3, r4, r5 = k3
    k4 = rhs((y0 + (p0 * a41 + q0 * a42 + r0 * a43) * h,
              y1 + (p1 * a41 + q1 * a42 + r1 * a43) * h,
              y2 + (p2 * a41 + q2 * a42 + r2 * a43) * h,
              y3 + (p3 * a41 + q3 * a42 + r3 * a43) * h,
              y4 + (p4 * a41 + q4 * a42 + r4 * a43) * h,
              y5 + (p5 * a41 + q5 * a42 + r5 * a43) * h))
    s0, s1, s2, s3, s4, s5 = k4
    k5 = rhs((y0 + (p0 * a51 + q0 * a52 + r0 * a53 + s0 * a54) * h,
              y1 + (p1 * a51 + q1 * a52 + r1 * a53 + s1 * a54) * h,
              y2 + (p2 * a51 + q2 * a52 + r2 * a53 + s2 * a54) * h,
              y3 + (p3 * a51 + q3 * a52 + r3 * a53 + s3 * a54) * h,
              y4 + (p4 * a51 + q4 * a52 + r4 * a53 + s4 * a54) * h,
              y5 + (p5 * a51 + q5 * a52 + r5 * a53 + s5 * a54) * h))
    u0, u1, u2, u3, u4, u5 = k5
    k6 = rhs((y0 + (p0 * a61 + q0 * a62 + r0 * a63 + s0 * a64 + u0 * a65) * h,
              y1 + (p1 * a61 + q1 * a62 + r1 * a63 + s1 * a64 + u1 * a65) * h,
              y2 + (p2 * a61 + q2 * a62 + r2 * a63 + s2 * a64 + u2 * a65) * h,
              y3 + (p3 * a61 + q3 * a62 + r3 * a63 + s3 * a64 + u3 * a65) * h,
              y4 + (p4 * a61 + q4 * a62 + r4 * a63 + s4 * a64 + u4 * a65) * h,
              y5 + (p5 * a61 + q5 * a62 + r5 * a63 + s5 * a64 + u5 * a65) * h))
    w0, w1, w2, w3, w4, w5 = k6
    y_new = (y0 + h * (p0 * b1 + r0 * b3 + s0 * b4 + u0 * b5 + w0 * b6),
             y1 + h * (p1 * b1 + r1 * b3 + s1 * b4 + u1 * b5 + w1 * b6),
             y2 + h * (p2 * b1 + r2 * b3 + s2 * b4 + u2 * b5 + w2 * b6),
             y3 + h * (p3 * b1 + r3 * b3 + s3 * b4 + u3 * b5 + w3 * b6),
             y4 + h * (p4 * b1 + r4 * b3 + s4 * b4 + u4 * b5 + w4 * b6),
             y5 + h * (p5 * b1 + r5 * b3 + s5 * b4 + u5 * b5 + w5 * b6))
    k7 = rhs(y_new)
    z0, z1, z2, z3, z4, z5 = k7
    error = (p0 * e1 + r0 * e3 + s0 * e4 + u0 * e5 + w0 * e6 + z0 * e7,
             p1 * e1 + r1 * e3 + s1 * e4 + u1 * e5 + w1 * e6 + z1 * e7,
             p2 * e1 + r2 * e3 + s2 * e4 + u2 * e5 + w2 * e6 + z2 * e7,
             p3 * e1 + r3 * e3 + s3 * e4 + u3 * e5 + w3 * e6 + z3 * e7,
             p4 * e1 + r4 * e3 + s4 * e4 + u4 * e5 + w4 * e6 + z4 * e7,
             p5 * e1 + r5 * e3 + s5 * e4 + u5 * e5 + w5 * e6 + z5 * e7)
    return y_new, (k1, k2, k3, k4, k5, k6, k7), error


def error_power(err):
    """err ** ERROR_EXPONENT through numpy's array power, as the batch
    engine computes it (libm's pow differs in the last bit for some err)."""
    return float(np.power(err, ERROR_EXPONENT))


def rms(x):
    """RMS norm of each column of a (6, m) array (scipy's ``norm`` per
    probe).

    The squares are added in coordinate order by one reduce started from
    -0.0, an exact identity (-0.0 + a == a), not from numpy's 0.0, which
    turns a sum of -0.0 into 0.0.  numpy adds the slices of a leading
    axis in order, and a contiguous run of fewer than 8 elements (m = 1)
    too, so this is the in-order loop's sum bit for bit.
    """
    return np.sqrt(np.add.reduce(x * x, axis=0, initial=-0.0)) / len(x) ** 0.5


def combine(K, coef):
    """sum_j coef[j] * K[j], accumulated in stage order, for coef one of
    A_ROWS, B, E or a column of P; a new array of K[0]'s shape.

    K_0 c_0 first, then each further K_j c_j added in place, with the
    zero coefficients skipped (the second stage of B, E and every column
    of P, and the first of three columns of P), so the sum is
    K_0 c_0 + K_1 c_1 + ... in that order.  This is the reduce over the
    stage axis from -0.0 (as in :func:`rms`) bit for bit, -0.0 + a being
    a for every a, without the stage copy and the (k, ...) product that
    the reduce forms first.  Elementwise accumulation (not a BLAS
    product) keeps every probe's arithmetic independent of its place in
    the batch.  K has the stages on its first axis.
    """
    acc = None
    for k, c in zip(K, coef):
        if c:
            if acc is None:
                acc = k * c
            else:
                acc += k * c
    return acc


def escape_roots(K, t_old, h, y_old, r_stop, t_new):
    """First outward r_stop crossing within one accepted step, per probe.

    K (7, m, 6) holds the stage slopes of each probe's step from (t_old,
    y_old) over h to t_new.  The step's quartic dense output (scipy's
    RkDenseOutput form, y_old + h sum_k Q_k x^(k+1) with Q = K^T P and
    x = (t - t_old)/h) is summed elementwise in a fixed order, not by a
    BLAS product, so a probe's value does not depend on the batch; every
    probe's root is then searched by :func:`brentq` at solve_ivp's event
    tolerances.  Returns the states (m, 6) at the crossings.
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

    return state(brentq(escape, t_old, t_new), slice(None), slice(None))


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
            raise ValueError(_NAN_VALUE.format(float(x[nan][0])))
        return fx

    lanes = np.arange(len(xa))
    root = np.array(xb, dtype=float)
    xpre, xcur = np.array(xa, dtype=float), root.copy()
    fpre, fcur = value(xpre, lanes), value(xcur, lanes)
    root[fpre == 0] = xpre[fpre == 0]
    live = (fpre != 0) & (fcur != 0)
    if (np.signbit(fpre) == np.signbit(fcur))[live].any():
        raise ValueError(_NO_SIGN_CHANGE)
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
        raise RuntimeError(_NO_CONVERGENCE)
    return root


def escape_root(K, t_old, h, y_old, r_stop, t_new):
    """:func:`escape_roots` of one probe on plain floats: its crossing
    time and state (a tuple of 6 floats).

    K is the step's seven stage slopes of 6 floats each.  Q = K^T P is
    summed in stage order with the zero coefficients skipped, as
    :func:`combine` sums it, the dense output is evaluated as in
    :func:`escape_roots`, and the root is found by :func:`brentq_lane`,
    so time and state equal that probe's lane of the lockstep search bit
    for bit.
    """
    Q = []
    for i in range(6):
        row = []
        for column in zip(*P):
            total = -0.0
            for k, c in zip(K, column):
                if c:
                    total = total + k[i] * c
            row.append(total)
        Q.append(row)

    def coordinate(x, i):
        q0, q1, q2, q3 = Q[i]
        p = x
        acc = q0 * p
        p = p * x
        acc = acc + q1 * p
        p = p * x
        acc = acc + q2 * p
        p = p * x
        return h * (acc + q3 * p) + y_old[i]

    def escape(t):
        x = (t - t_old) / h
        px, py, pz = coordinate(x, 0), coordinate(x, 1), coordinate(x, 2)
        return math.sqrt(px * px + py * py + pz * pz) - r_stop

    t_root = brentq_lane(escape, t_old, t_new)
    x = (t_root - t_old) / h
    return t_root, tuple(coordinate(x, i) for i in range(6))


def brentq_lane(f, xa, xb):
    """One lane of :func:`brentq` on plain floats: the root of f on
    [xa, xb], the same iterates and the same failures.

    Where the lockstep search divides by zero in its interpolation (numpy
    gives inf or NaN there, and the step falls back to bisection), this
    one catches the ZeroDivisionError and bisects.
    """
    def value(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(_NAN_VALUE.format(x))
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(_NO_SIGN_CHANGE)
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (math.copysign(1.0, fpre)
                                        != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (EVENT_TOL + EVENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        try:
            if xpre == xblk:   # interpolate (secant)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        except ZeroDivisionError:
            stry = math.inf    # numpy's x / 0: not short, so bisect
        a, b = abs(spre), 3 * abs(sbis) - delta
        if (abs(spre) > delta and abs(fcur) < abs(fpre)
                and 2 * abs(stry) < (a if a < b else b)):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur = xcur + (scur if abs(scur) > delta
                       else delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(_NO_CONVERGENCE)


def initial_step(fun, y, f, atol, rtol, t_bound):
    """scipy's ``select_initial_step`` for each probe, from t0 = 0.

    Takes rows: y and f are (n, 6), atol and rtol broadcast against
    them, and ``fun`` maps (n, 6) states to their slopes."""
    scale = atol + np.abs(y) * rtol
    d0 = rms((y / scale).T)
    d1 = rms((f / scale).T)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    d2 = rms(((fun(y + h0[:, None] * f) - f) / scale).T) / h0
    # max(d1, d2) as Python's max takes it: a NaN d2 leaves d1
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(d2 > d1, d2, d1)) ** (-ERROR_EXPONENT))
    return np.minimum(np.minimum(100 * h0, h1), t_bound)
