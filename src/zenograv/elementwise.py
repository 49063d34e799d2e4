"""Helpers for closed forms that take floats or broadcastable arrays.

A closed form written with Python operators and numpy ufuncs works on
both; these helpers keep the two cases alike at the edges: validation
that holds for every element (NaN fails it), a float result for scalar
input, and the ``den = 0 -> inf`` ratios the formulas use.  The results
leave the toolkit as CSV columns through :func:`csv_text`; the inputs
enter as dataclass fields made by :func:`parameter`.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from itertools import chain

import numpy as np

from .errors import InvalidParameterError


def require(ok, message: str, value=None) -> None:
    """Raise InvalidParameterError(message) unless ``ok`` holds everywhere.

    ``ok`` is a bool or a bool array.  Write it as ``x > 0``, never as
    ``not x <= 0``, so that a NaN fails; the error's ``cells`` are ~ok.
    With ``value``, ``{}`` in the message is filled with it: for an
    array, its first element where ``ok`` fails.
    """
    if ok is True or (ok is not False and np.all(ok)):
        return
    if value is not None and np.ndim(value):
        ok = np.broadcast_to(ok, np.broadcast_shapes(np.shape(ok),
                                                     np.shape(value)))
        value = float(np.broadcast_to(value, ok.shape)[~ok].flat[0])
    raise InvalidParameterError(message.format(value),
                                cells=np.logical_not(ok))


def require_finite(obj) -> None:
    """Raise InvalidParameterError naming the first :func:`parameter` field
    of the dataclass ``obj`` that is not finite everywhere."""
    for f in fields(obj):
        x = getattr(obj, f.name)
        if f.metadata and not (math.isfinite(x) if isinstance(x, float)
                               else np.isfinite(x).all()):
            require(np.isfinite(x), f"{f.name} must be finite, got {{}}", x)


def parameter(default, help: str, domain: str, key: str):
    """A dataclass field with its schema in ``metadata``: ``help``, the CLI
    help text (unit first); ``domain``, the CLI sign rule ("pos": > 0,
    "nonneg": >= 0, "any"); ``key``, its name in ``report.json``."""
    return field(default=default,
                 metadata={"help": help, "domain": domain, "key": key})


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


def csv_text(names: str, columns, comment: str | None = None) -> str:
    """CSV text: ``# comment``, the ``names`` line, one row per element.

    The columns broadcast against each other (a scalar is a constant
    column) and are read in C order.  Integer and bool columns are written
    as ``%d``, others as ``%.9g`` (the text of ``f"{x:.9g}"``, NaN, inf and
    -0 included), all rows by one formatting call on a repeated template.
    """
    arrays = np.broadcast_arrays(*map(np.asarray, columns))
    row = ",".join("%d" if a.dtype.kind in "biu" else "%.9g"
                   for a in arrays) + "\n"
    values = chain.from_iterable(zip(*(a.ravel().tolist() for a in arrays)))
    head = f"# {comment}\n" if comment else ""
    return f"{head}{names}\n" + row * arrays[0].size % tuple(values)
