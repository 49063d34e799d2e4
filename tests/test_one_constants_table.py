"""Every formula reads the one constants table, ``CONST``: no function or
method takes a ``constants`` argument, and a distribution's field stack
is built once and kept."""

import importlib
import inspect
import pkgutil

import zenograv
from zenograv.massdist import make_superposed_source


def _functions():
    """(qualified name, function) for every function and method defined in
    a zenograv module, properties and class/static methods included."""
    for info in pkgutil.iter_modules(zenograv.__path__):
        module = importlib.import_module(f"zenograv.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    for unwrap in ("__func__", "func", "fget"):
                        member = getattr(member, unwrap, member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_constants():
    found = dict(_functions())
    # the walk reaches functions, methods, classmethods and cached properties
    for name in ("zenograv.scatter.integrate_trajectory",
                 "zenograv.schrod1d.PotentialSpec1D.V0",
                 "zenograv.scatter.ScatterConfig.for_scale",
                 "zenograv.massdist.MassDistribution._field_stack"):
        assert name in found, name
    taking = [name for name, func in found.items()
              if "constants" in inspect.signature(func).parameters]
    assert taking == []


def test_field_stack_built_once():
    dist = make_superposed_source(1e-5, 2600.0, 2e-5)
    assert len(dist.components) == 2
    assert dist._field_stack is dist._field_stack
    assert not hasattr(dist, "_stacks")
