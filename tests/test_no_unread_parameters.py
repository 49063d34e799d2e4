"""Every parameter of every function in the package is read.

A parameter that its function's body never names is a setting that
changes no result; it is deleted, not kept.  The few kept on purpose
are listed, each with its reason.
"""

import ast
import pathlib

import zenograv

PACKAGE = pathlib.Path(zenograv.__file__).parent

ALLOWED = {
    # perfbench's trajectories workload passes the probe mass
    # positionally; the acceleration does not depend on it
    "scatter.integrate_trajectory.m_probe",
    # every runner takes (params, header); a report is JSON, which
    # carries the config under "config", not in a header line
    "cli._run_report.header",
}


def _parameters(args):
    return [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                            *args.kwonlyargs, args.kwarg)
            if a is not None and a.arg not in ("self", "cls")]


def unread_parameters():
    """``module.function.parameter`` for every function parameter (a
    lambda's too, under ``<lambda>``) that no name in the body reads."""
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread |= {f"{path.stem}.{name}.{arg}"
                       for arg in _parameters(node.args) if arg not in named}
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == ALLOWED
