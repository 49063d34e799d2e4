"""pytest-benchmark settings shared by the ``bench/`` cases.

Every ``--benchmark-json`` record carries, under ``machine_info``, the
numpy and scipy versions and ``host_speed_s``: the median time of a
fixed reference workload (:func:`host_speed_s`), taken once when the run
starts and once when it ends.  The reference runs no zenograv code, so
a change to the program leaves its time alone, while a slower host slows
it about as much as the cases.  The host has a fast and a slow mode that
differ by more than most changes, so compare two records by each case's
time divided by its record's reference, not by raw times; or else run
the parent and the change alternately on the same host.

A record keeps each case's summary stats (median, IQR, rounds, ...) but
not the list of every round's time, which would make it megabytes.
"""

import statistics
import time

import numpy
import pytest
import scipy

_START = pytest.StashKey[float]()


def host_speed_s() -> float:
    """Median seconds of 7 rounds of a fixed pure-Python loop and a numpy
    sort and ufunc on fixed inputs (10-15 ms a round on a 2 GHz core)."""
    x = numpy.random.default_rng(0).random(100_000)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        numpy.sort(x)
        numpy.exp(x).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pytest_sessionstart(session):
    session.config.stash[_START] = host_speed_s()


def pytest_benchmark_update_machine_info(config, machine_info):
    """Record the library versions and the host-speed reference, at the
    run's start and now, at its end, with the machine info."""
    machine_info["numpy_version"] = numpy.__version__
    machine_info["scipy_version"] = scipy.__version__
    machine_info["host_speed_s"] = {"start": config.stash[_START],
                                    "end": host_speed_s()}


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Drop each case's raw per-round samples from the JSON record."""
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
