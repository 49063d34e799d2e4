"""Helpers for closed forms that take floats or broadcastable arrays.

A closed form written with Python operators and numpy ufuncs works on
both; these helpers keep the two cases alike at the edges: validation
that holds for every element (NaN fails it), a float result for scalar
input, and the ``den = 0 -> inf`` ratios the formulas use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError


def require(ok, message: str, value=None) -> None:
    """Raise InvalidParameterError(message) unless ``ok`` holds everywhere.

    ``ok`` is a bool or a bool array.  Write it as ``x > 0``, never as
    ``not x <= 0``, so that a NaN fails.  With ``value``, ``{}`` in the
    message is filled with it: for an array, its first element where
    ``ok`` fails.
    """
    if ok is True or (ok is not False and np.all(ok)):
        return
    if value is not None and np.ndim(value):
        ok = np.broadcast_to(ok, np.broadcast_shapes(np.shape(ok),
                                                     np.shape(value)))
        value = float(np.broadcast_to(value, ok.shape)[~ok].flat[0])
    raise InvalidParameterError(message.format(value))


def result(x):
    """``x`` as a float if it is a scalar or 0-d array, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def ratio_or_inf(num, den):
    """num / den where den > 0, inf elsewhere (a zero or NaN den)."""
    if np.ndim(num) == 0 and np.ndim(den) == 0:
        return num / den if den > 0 else math.inf
    den = np.asarray(den, dtype=float)
    out = np.full(np.broadcast_shapes(np.shape(num), den.shape), np.inf)
    return np.divide(num, den, out=out, where=den > 0)
