"""No ``**`` of a variable on the path of the feasibility kernel.

A point and a grid cell run the same closed forms, on a float and on
an array.  Python's ``**`` on a float calls libm's ``pow``, while an
array's calls numpy's ``square`` or ``power``, and the two round
differently in the last bit: one report would then differ from its own
grid cell.  On the kernel's path a square is a product and any other
power is ``np.power``, which rounds alike on a float and on an array.
A power of a numeric literal or of ``np.pi`` is the same constant on
both paths and is left alone.
"""

import ast
import pathlib

import zenograv

PACKAGE = pathlib.Path(zenograv.__file__).parent

# The kernel's path: whole modules, and (module, function) pairs.
MODULES = ("feasibility", "decoherence")
FUNCTIONS = (
    ("scatter", "rutherford_angle"),
    ("scatter", "hyperbolic_time_from_anomaly"),
    ("scatter", "kepler_scatter_time"),
    ("scatter", "_bound"),
    ("zeno", "zeno_time_estimate"),
    ("zeno", "zeno_rate_bounds"),
)


def _tree(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _constant_base(node):
    """Is node a numeric literal or ``np.pi``?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float))
    return (isinstance(node, ast.Attribute) and node.attr == "pi"
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def variable_powers(tree):
    """Line of every ``a ** b`` or ``a **= b`` under tree whose base a is
    not a constant (see :func:`_constant_base`)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            base = node.target
        else:
            continue
        if not _constant_base(base):
            lines.append(node.lineno)
    return sorted(lines)


def kernel_powers():
    """``module:line`` of every variable power on the kernel's path."""
    found = [f"{module}:{line}" for module in MODULES
             for line in variable_powers(_tree(module))]
    for module, name in FUNCTIONS:
        (func,) = [node for node in _tree(module).body
                   if isinstance(node, ast.FunctionDef) and node.name == name]
        found += [f"{module}.{name}:{line}" for line in variable_powers(func)]
    return found


def test_kernel_path_has_no_variable_power():
    assert kernel_powers() == []


def test_variable_powers_are_found():
    tree = ast.parse("y = x ** 2 + 2 ** x + np.pi ** 2 + (1 / x) ** 0.5\n"
                     "y **= 3\n")
    assert variable_powers(tree) == [1, 1, 2]
