"""Every parameter of every function in the package is read, every
public function is called, every public constant is read, every import
is used, and every element of a returned tuple is read by some caller.

A parameter that its function's body never names is a setting that
changes no result; a public function or constant that no code of the
package names is API that no program path uses; an import that its
module never reads is a second path to a name that has one already; a
tuple element that every caller discards is a result computed for no
reader.  All are deleted, not kept.  The few kept on purpose are listed,
each with its reason.
"""

import ast
import pathlib
from collections import Counter

import zenograv

PACKAGE = pathlib.Path(zenograv.__file__).parent

ALLOWED = {
    # perfbench's trajectories workload passes the probe mass
    # positionally; the acceleration does not depend on it
    "scatter.integrate_trajectory.m_probe",
}

# Public functions named only outside the package: perfbench, which
# may not change with the package, traces or calls each by name.
UNCALLED = {
    # the per-probe dict round trip that massdist.from_dict.calls counts
    "massdist.MassDistribution.from_dict",
    # traced through its scatter re-export as massdist.potential_at
    "massdist.potential_at",
    # traced, and read by the scatter.fail_count counters
    "scatter.stereographic_project",
    # the trajectories workload calls it after each integration
    "scatter.energy_series",
}

# Imports their module never reads: perfbench's tracer test checks that
# it wraps this alias of massdist.potential_at.
UNUSED_IMPORTS = {
    "scatter.potential_at",
}


def _modules():
    """(module name, syntax tree) of every module of the package."""
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def _parameters(args):
    return [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                            *args.kwonlyargs, args.kwarg)
            if a is not None and a.arg not in ("self", "cls")]


def unread_parameters():
    """``module.function.parameter`` for every function parameter (a
    lambda's too, under ``<lambda>``) that no name in the body reads."""
    unread = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread |= {f"{module}.{name}.{arg}"
                       for arg in _parameters(node.args) if arg not in named}
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == ALLOWED


def _public_functions(module, tree):
    """(``module.function`` or ``module.Class.method``, definition) of
    every public module-level function and public method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{module}.{node.name}.{m.name}", m)
                        for m in node.body if isinstance(m, functions)
                        and not m.name.startswith("_"))
        elif isinstance(node, functions) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node


def _names(node):
    """How often each name is named by a Name or Attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_functions(modules):
    """Each public function or method of ``modules`` that no Name or
    Attribute of theirs refers to outside its own definition.  A
    re-export in ``__init__`` is an import, which names no Name, so it
    is no call; nor is a docstring."""
    named = sum((_names(tree) for _, tree in modules), Counter())
    return {key for module, tree in modules
            for key, node in _public_functions(module, tree)
            if named[node.name] == _names(node)[node.name]}


def test_every_public_function_is_called():
    assert uncalled_functions(_modules()) == UNCALLED


def _loads(tree):
    """Every name read in tree: a loaded Name's id or Attribute's attr."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _public_constants(module, tree):
    """``module.NAME`` and NAME of every public name that a module-level
    assignment binds (``__version__``, underscored, is not public)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name) and not n.id.startswith("_"):
                    yield f"{module}.{n.id}", n.id


def unread_constants(modules):
    """Each public module-level constant of ``modules`` that no code of
    theirs reads."""
    read = set().union(*(_loads(tree) for _, tree in modules))
    return {key for module, tree in modules
            for key, name in _public_constants(module, tree)
            if name not in read}


def test_every_public_constant_is_read():
    assert unread_constants(_modules()) == set()


def unused_imports(modules):
    """``module.name`` for each name that an import of the module binds
    (a ``__future__`` feature aside) and the module itself never reads."""
    unused = set()
    for module, tree in modules:
        read = _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {(a.asname or a.name).split(".")[0]
                         for a in node.names}
                unused |= {f"{module}.{name}" for name in bound
                           if name not in read}
    return unused


def test_every_import_is_used():
    assert unused_imports(_modules()) == UNUSED_IMPORTS


def _tuple_returns(modules):
    """{name: n} for every function or method of ``modules`` whose own
    returns (not those of a function nested in it) are all tuple
    displays of length n."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for _, tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, functions):
                continue
            returns, todo = [], list(node.body)
            while todo:
                n = todo.pop()
                if isinstance(n, ast.Return):
                    returns.append(n.value)
                if not isinstance(n, (*functions, ast.Lambda, ast.ClassDef)):
                    todo.extend(ast.iter_child_nodes(n))
            lengths = {len(r.elts) if isinstance(r, ast.Tuple) else None
                       for r in returns}
            if len(lengths) == 1 and None not in lengths:
                found[node.name] = lengths.pop()
    return found


def _positions_read(call, parent, n):
    """The positions of an n-tuple result that ``call`` reads: all of
    them, but for a ``_`` in a tuple it is unpacked into, or the one
    constant index it is subscripted with."""
    if isinstance(parent, ast.Subscript) and parent.value is call:
        if isinstance(parent.slice, ast.Constant):
            return {parent.slice.value}
    if (isinstance(parent, ast.Assign) and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Tuple)):
        return {i for i, t in enumerate(parent.targets[0].elts)
                if not (isinstance(t, ast.Name) and t.id == "_")}
    return set(range(n))


def unread_returned_values(modules):
    """``name[i]`` for each position i of a tuple-returning function
    (see :func:`_tuple_returns`) that no direct call in ``modules``
    reads; functions that ``modules`` never call directly are skipped."""
    lengths = _tuple_returns(modules)
    read = {}
    for _, tree in modules:
        for parent in ast.walk(tree):
            for call in ast.iter_child_nodes(parent):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name in lengths:
                    read.setdefault(name, set()).update(
                        _positions_read(call, parent, lengths[name]))
    return {f"{name}[{i}]" for name, positions in read.items()
            for i in range(lengths[name]) if i not in positions}


def test_every_returned_value_is_read():
    assert unread_returned_values(_modules()) == set()
