"""The one CSV writer against the per-row f-string form it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenograv import cli
from zenograv.elementwise import csv_text
from zenograv.feasibility import ExperimentPoint, sweep_region
from zenograv.schrod1d import PotentialSpec1D, solve_eigen


def reference_csv(names, columns):
    """Row by row with f-strings: ``:.9g`` floats, ints and bools as ints."""
    def cell(x):
        if isinstance(x, (bool, int, np.bool_, np.integer)):
            return f"{int(x)}"
        return f"{x:.9g}"
    lines = [names]
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
    want = reference_csv("f,i,b,r", [c.tolist() for c in columns])
    assert csv_text("f,i,b,r", columns) == want


def test_scalar_columns_broadcast():
    got = csv_text("x,N,p", [np.array([0.5, -0.0]), 20, 1e-15])
    assert got == "x,N,p\n0.5,20,1e-15\n-0,20,1e-15\n"


def test_grid_columns_read_in_c_order():
    a1 = np.array([[1.0], [2.0]])
    a2 = np.array([[10.0, 20.0, 30.0]])
    got = csv_text("a1,a2,ok", [a1, a2, a1 * a2 > 25])
    assert got.splitlines()[1:] == ["1,10,0", "1,20,0", "1,30,1",
                                    "2,10,0", "2,20,1", "2,30,1"]


def test_no_rows():
    assert csv_text("a,b", [np.array([]), np.array([])]) == "a,b\n"


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(), st.floats(width=32),
                               st.integers(-2**62, 2**62), st.booleans()),
                     max_size=20))
def test_any_columns_match_reference(rows):
    columns = [np.array(c) for c in zip(*rows)] or [np.array([])] * 4
    want = reference_csv("a,b,c,d", [c.tolist() for c in columns])
    assert csv_text("a,b,c,d", columns) == want


# Bit patterns that format alike but must stay apart when a repeated
# column has each distinct value formatted once: NaNs of both signs and
# several payloads (quiet and signalling), 0.0 beside -0.0, subnormals.
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                dtype=np.uint64).view(np.float64).tolist()
POOL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
        2.2250738585072009e-308, 1.0, 1 / 3, 1e300, *NANS]


def test_repeated_columns_on_both_sides_of_the_half_rule():
    a, b, c = 0.0, -0.0, math.nan
    columns = [np.array([a, b, a, b]),                  # 2 of 4 distinct
               np.array([a, b, c, a]),                  # 3 of 4 distinct
               np.array(NANS[:2] * 2), np.array([math.inf, 5e-324] * 2)]
    want = reference_csv("h,m,n,s", [col.tolist() for col in columns])
    assert csv_text("h,m,n,s", columns) == want
    assert want.splitlines()[1:] == [
        "0,0,nan,inf", "-0,-0,nan,4.94065646e-324", "0,nan,nan,inf",
        "-0,0,nan,4.94065646e-324"]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 12), m=st.integers(1, 6), data=st.data())
def test_pooled_columns_match_reference(n, m, data):
    """Repeats are common: floats come from a small pool, broadcast from
    (n, 1) and (1, m), or fill the grid mixed with arbitrary floats, so
    columns fall on both sides of the at-most-half-distinct rule."""
    pooled = st.sampled_from(POOL)

    def column(size, elements=pooled):
        return np.array(data.draw(st.lists(elements, min_size=size,
                                           max_size=size)), dtype=float)

    rows, cols = column(n).reshape(n, 1), column(m).reshape(1, m)
    mixed = column(n * m, st.one_of(pooled, st.floats())).reshape(n, m)
    columns = [rows, cols, mixed, data.draw(pooled),
               np.arange(n * m).reshape(n, m) % 3 - 1, rows > cols, rows]
    want = reference_csv("r,c,x,s,i,b,r", [
        np.broadcast_to(col, (n, m)).ravel().tolist()
        for col in map(np.asarray, columns)])
    assert csv_text("r,c,x,s,i,b,r", columns) == want


@pytest.mark.parametrize("axes", [
    ("t_R", 1.0, 100.0, "R", 1e-5, 1e-5),
    ("p", 1e-15, 1e-9, "R", 1e-5, 1e-5),
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
    grid = sweep_region((ax1, np.logspace(math.log10(lo1), math.log10(hi1),
                                          5)),
                        (ax2, np.logspace(math.log10(lo2), math.log10(hi2),
                                          3)), ExperimentPoint())
    want = [f"# {comment}", "axis1,axis2,theta_max,t_total,gamma_required,"
            "sigma_ratio,mfp,KE_eV,pass"]
    for *values, passed in zip(*(c.tolist() for c in vars(grid).values())):
        want.append(",".join(f"{x:.9g}" for x in values) + f",{int(passed)}")
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
