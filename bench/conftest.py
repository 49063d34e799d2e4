"""pytest-benchmark settings shared by the ``bench/`` cases."""

import numpy
import scipy


def pytest_benchmark_update_machine_info(config, machine_info):
    """Record the numpy and scipy versions with the machine info that a
    ``--benchmark-json`` record carries."""
    machine_info["numpy_version"] = numpy.__version__
    machine_info["scipy_version"] = scipy.__version__
