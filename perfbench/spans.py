"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper wherever
the ``zenograv`` package looks it up: the defining module and every
module that imported it by name (``cli`` imports ``solve_eigen``,
``classify_ground_state`` and ``make_superposed_source``; ``scatter``
imports ``potential_at``).  ``restore`` puts every original back.  Spans
live in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute) of every traced function, named <module>.<function>
# in the metrics.  ``massdist.from_dict`` is the classmethod
# MassDistribution.from_dict: the per-probe dict round trip in the scan.
TRACED = (
    ("cli", "main"),
    ("scatter", "scan_pattern"),
    ("scatter", "integrate_trajectory"),
    ("scatter", "stereographic_project"),
    ("scatter", "energy_series"),
    ("scatter", "pattern_to_csv"),
    ("scatter", "pattern_to_svg"),
    ("scatter", "kepler_scatter_time"),
    ("massdist", "from_dict"),
    ("massdist", "make_superposed_source"),
    ("massdist", "potential_at"),
    ("feasibility", "sweep_region"),
    ("feasibility", "evaluate_point"),
    ("feasibility", "region_to_csv"),
    ("decoherence", "total_decoherence"),
    ("decoherence", "mean_free_path"),
    ("zeno", "zeno_time_estimate"),
    ("zeno", "strobo_evolve"),
    ("schrod1d", "solve_eigen"),
    ("schrod1d", "find_wells"),
    ("schrod1d", "classify_ground_state"),
)
TASK = "task"


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "error", "seen")

    def __init__(self, name, parent, task):
        self.name = name
        self.parent = parent
        self.task = task
        self.start = self.end = 0.0
        self.error = None       # exception type name, if the call raised
        self.seen = None        # what ``observe`` kept of the return value

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "task": self.task, "error": self.error,
                "seen": self.seen}


def _trajectory_counts(traj):
    """(accepted steps, hit flag) of a returned ProbeTrajectory."""
    return len(traj.t) - 1, bool(traj.hit_source)


# What a span keeps of its function's return value, by function.
OBSERVE = {"scatter.integrate_trajectory": _trajectory_counts}


class Tracer:
    """Records one span per call of a traced function, nested by caller."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the ``with`` body, child of the open span."""
        span = Span(name, self._stack[-1] if self._stack else -1, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _call(self, name, fn, args, kwargs):
        # span() inlined: this runs on every traced call
        span = Span(name, self._stack[-1] if self._stack else -1, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        observe = OBSERVE.get(name)
        if observe is not None:
            span.seen = observe(result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def install(self):
        """Wrap every traced function under every name the package uses."""
        for mod_name, _ in TRACED:
            importlib.import_module(f"zenograv.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "zenograv"
                                         or n.startswith("zenograv."))]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            module = sys.modules[f"zenograv.{mod_name}"]
            if attr == "from_dict":
                cls = module.MassDistribution
                original = cls.__dict__["from_dict"]
                self._patches.append((cls, "from_dict", original))
                setattr(cls, "from_dict",
                        classmethod(self._wrap(name, original.__func__)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)
        return self

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @property
    def patched(self):
        return list(self._patches)


def self_times(spans):
    """Per-span duration minus the part its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans, n_tasks):
    """Per-function totals over the traced tasks.

    Returns {name: {"calls", "self_s", "durations", "errors"}}: calls and
    self_s per task, every span's wall time (s), and a Counter of the
    exception types its calls raised.
    """
    own = self_times(spans)
    stats = {}
    for span, self_s in zip(spans, own):
        entry = stats.setdefault(span.name, {"calls": 0, "self_s": 0.0,
                                             "durations": [],
                                             "errors": Counter()})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["durations"].append(span.end - span.start)
        if span.error:
            entry["errors"][span.error] += 1
    for entry in stats.values():
        entry["calls"] /= n_tasks
        entry["self_s"] /= n_tasks
    return stats
