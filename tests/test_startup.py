"""The toolkit starts without scipy: the values it copies from scipy
equal scipy's bit for bit, and a command line loads no scipy module.
Importing a module loads only the modules it uses."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import RK45
from scipy.special import zeta

from zenograv import decoherence, rk45

SRC = Path(__file__).resolve().parents[1] / "src"


def same_bits(ours, theirs):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs)
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def test_rk45_tableau_literals():
    assert rk45.N_STAGES == RK45.n_stages
    assert rk45.ERROR_ESTIMATOR_ORDER == RK45.error_estimator_order
    for s, row in enumerate(rk45.A_ROWS, start=1):
        assert same_bits(row, RK45.A[s, :s])
    assert len(rk45.A_ROWS) == RK45.n_stages - 1
    assert not np.triu(RK45.A).any()     # nothing beyond the rows
    assert same_bits(rk45.B, RK45.B)
    assert same_bits(rk45.E, RK45.E)
    assert same_bits(rk45.P, RK45.P)
    assert rk45.TOO_SMALL_STEP == RK45.TOO_SMALL_STEP


def test_zeta_9_literal():
    assert type(decoherence.ZETA_9) is type(zeta(9))
    assert same_bits(decoherence.ZETA_9, zeta(9))


def run_python(code):
    """stdout lines of ``python -c code`` in a fresh interpreter that
    imports the package from this checkout; asserts it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_only_what_it_uses():
    code = """
import sys
def loaded():
    print(sorted(m for m in sys.modules if m.startswith("zenograv.")))
import zenograv
loaded()
import zenograv.scatter
loaded()
"""
    package, scatter = run_python(code)
    assert package == "[]"
    assert scatter == str([f"zenograv.{m}" for m in (
        "constants", "elementwise", "errors", "massdist", "rk45", "scatter")])


def test_command_line_loads_no_scipy(tmp_path):
    code = f"""
import sys
from zenograv import cli
for argv in (["report"], ["feasibility"], ["decoherence"], ["scatter"],
             ["pattern", "--n_b", "1", "--n_l", "1"], ["zeno"]):
    assert cli.main(argv + ["--output-dir", {str(tmp_path)!r}]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert run_python(code)[-1] == "[]"
    assert (tmp_path / "pattern.csv").exists()
    assert (tmp_path / "zeno_scan.csv").exists()
