"""The one CSV writer against the per-row f-string form it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenograv import cli
from zenograv.elementwise import csv_text
from zenograv.feasibility import reference_point, sweep_region
from zenograv.schrod1d import PotentialSpec1D, solve_eigen


def reference_csv(names, columns, comment=None):
    """Row by row with f-strings: ``:.9g`` floats, ints and bools as ints."""
    def cell(x):
        if isinstance(x, (bool, int, np.bool_, np.integer)):
            return f"{int(x)}"
        return f"{x:.9g}"
    lines = [f"# {comment}"] if comment else []
    lines.append(names)
    lines += [",".join(map(cell, row)) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
               1.7976931348623157e308, 1.0, -1.0, 0.1, 1 / 3, 123456789.5,
               1e9, 1e-5, 12345678.9, 99999999.95, 6.02214076e23]


def test_edge_values_match_reference():
    n = len(EDGE_FLOATS)
    floats = np.array(EDGE_FLOATS)
    ints = (np.arange(n) - n // 2) * 1_000_003
    bools = np.arange(n) % 3 == 0
    columns = [floats, ints, bools, floats[::-1].copy()]
    want = reference_csv("f,i,b,r", [c.tolist() for c in columns], "cfg")
    assert csv_text("f,i,b,r", columns, "cfg") == want


def test_scalar_columns_broadcast():
    got = csv_text("x,N,p", [np.array([0.5, -0.0]), 20, 1e-15])
    assert got == "x,N,p\n0.5,20,1e-15\n-0,20,1e-15\n"


def test_grid_columns_read_in_c_order():
    a1 = np.array([[1.0], [2.0]])
    a2 = np.array([[10.0, 20.0, 30.0]])
    got = csv_text("a1,a2,ok", [a1, a2, a1 * a2 > 25])
    assert got.splitlines()[1:] == ["1,10,0", "1,20,0", "1,30,1",
                                    "2,10,0", "2,20,1", "2,30,1"]


def test_no_rows_and_no_comment():
    assert csv_text("a,b", [np.array([]), np.array([])]) == "a,b\n"
    assert csv_text("a", [np.array([1.0])], comment="") == "a\n1\n"


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(), st.floats(width=32),
                               st.integers(-2**62, 2**62), st.booleans()),
                     max_size=20))
def test_any_columns_match_reference(rows):
    columns = [np.array(c) for c in zip(*rows)] or [np.array([])] * 4
    want = reference_csv("a,b,c,d", [c.tolist() for c in columns])
    assert csv_text("a,b,c,d", columns) == want


@pytest.mark.parametrize("axes", [
    ("t_R", 1.0, 100.0, "R", 1e-5, 1e-5),
    ("m_probe", 1e-19, 1e-17, "R", 1e-6, 1e-4),
    ("R", 1.0, 100.0, "v", 1e-7, 1e-5),
])
def test_region_csv_from_cli_matches_rows(tmp_path, axes):
    ax1, lo1, hi1, ax2, lo2, hi2 = axes
    assert cli.main(["feasibility", "--axis1", ax1, "--a1_min", str(lo1),
                     "--a1_max", str(hi1), "--n1", "5", "--axis2", ax2,
                     "--a2_min", str(lo2), "--a2_max", str(hi2), "--n2", "3",
                     "--output-dir", str(tmp_path)]) == 0
    text = (tmp_path / "region.csv").read_text()
    comment = text.splitlines()[0][2:]
    rows = sweep_region((ax1, np.logspace(math.log10(lo1), math.log10(hi1),
                                          5)),
                        (ax2, np.logspace(math.log10(lo2), math.log10(hi2),
                                          3)), reference_point())
    want = [f"# {comment}", "axis1,axis2,theta_max,t_total,gamma_required,"
            "sigma_ratio,mfp,KE_eV,pass"]
    for r in rows:
        want.append(f"{r.axis1:.9g},{r.axis2:.9g},{r.theta_max:.9g},"
                    f"{r.t_total:.9g},{r.gamma_required:.9g},"
                    f"{r.sigma_ratio:.9g},{r.mfp:.9g},{r.KE_eV:.9g},"
                    f"{int(r.passed)}")
    assert text == "\n".join(want) + "\n"


def test_eigen_csv_from_cli_matches_solver_arrays(tmp_path):
    assert cli.main(["eigen", "--n_points", "1200", "--x_max", "4.2",
                     "--output-dir", str(tmp_path)]) == 0
    text = (tmp_path / "eigen.csv").read_text()
    spec = PotentialSpec1D(a=1.0, b=4.0, c=1.0, M=1e-11, d=1e-5)
    sol = solve_eigen(spec, n_states=2, grid=(-4.2, 4.2, 1200))
    x, V, psi = sol.x, spec.potential(sol.x), sol.wavefunctions
    want = [text.splitlines()[0], "x,V_of_x,psi0,psi1"]
    for i in range(len(x)):
        want.append(f"{x[i]:.9g},{V[i]:.9g},{psi[0][i]:.9g},{psi[1][i]:.9g}")
    assert text == "\n".join(want) + "\n"
