"""Helpers for closed forms that take floats or broadcastable arrays.

A closed form written with Python operators and numpy ufuncs works on
both; these helpers keep the two cases alike at the edges: validation
that holds for every element (NaN fails it), a float result for scalar
input, and the ``den = 0 -> inf`` ratios the formulas use.  The results
leave the toolkit as CSV columns through :func:`csv_text`, which formats
each distinct value of a mostly repeated float column once (a grid's
axis and constant columns repeat); the inputs enter as dataclass fields
made by :func:`parameter`.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from itertools import chain

import numpy as np

from .errors import InvalidParameterError


def require(ok, message: str, *values) -> None:
    """Raise InvalidParameterError(message) unless ``ok`` holds everywhere.

    ``ok`` is a bool or a bool array.  Write it as ``x > 0``, never as
    ``not x <= 0``, so that a NaN fails; the error's ``cells`` are ~ok.
    The ``{}`` in the message are filled with ``values``: for an array,
    its element at the first place where ``ok`` fails.
    """
    if ok is True or ok is np.True_ or (ok is not False and np.all(ok)):
        return
    if any(map(np.ndim, values)):
        ok = np.broadcast_to(ok, np.broadcast_shapes(
            np.shape(ok), *map(np.shape, values)))
        values = [float(np.broadcast_to(x, ok.shape)[~ok].flat[0])
                  for x in values]
    raise InvalidParameterError(message.format(*values),
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


def csv_text(names: str, columns, comment: str) -> str:
    """CSV text: ``# comment``, the ``names`` line, one row per element.

    The columns broadcast against each other (a scalar is a constant
    column) and are read in C order.  Integer and bool columns are written
    as ``%d``, others as ``%.9g`` (the text of ``f"{x:.9g}"``, NaN, inf and
    -0 included), all rows by one formatting call on a repeated template.
    A float64 column with at most half its cells distinct, by bit pattern,
    has each distinct value formatted once and its cells filled in as
    ``%s``: the same bits give the same text, so the bytes do not change.
    The rule follows the column alone: formatting value by value costs
    more per value than the template, so only a repeated column gains.
    """
    arrays = np.broadcast_arrays(*map(np.asarray, columns))
    formats, cells = [], []
    for a in arrays:
        flat = a.ravel()
        fmt = "%d" if a.dtype.kind in "biu" else "%.9g"
        if a.dtype == np.float64:
            bits = flat.view(np.int64)
            keys = np.sort(bits)
            first = np.ones(keys.size, dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            distinct = keys[first]
            if 2 * distinct.size <= keys.size:
                texts = np.array(["%.9g" % x for x in
                                  distinct.view(np.float64).tolist()],
                                 dtype=object)
                flat, fmt = texts[np.searchsorted(distinct, bits)], "%s"
        formats.append(fmt)
        cells.append(flat.tolist())
    row = ",".join(formats) + "\n"
    values = chain.from_iterable(zip(*cells))
    return f"# {comment}\n{names}\n" + row * arrays[0].size % tuple(values)
