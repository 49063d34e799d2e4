"""Fresh-process CLI benchmarks: interpreter start-up, imports and one command.

    PYTHONPATH=src python -m pytest bench/test_cli_startup.py

pytest-benchmark cases, outside the tier-1 ``testpaths``.  Each round
runs ``python -m zenograv.cli`` in a new interpreter, so a case times
what a user waits for: start-up and imports as well as the command's
work, which for most of these commands is a few milliseconds
(``scatter``, one trajectory, takes about 30 ms).  ``feasibility`` runs
its default 16x16 grid, ``pattern`` a 1x1 grid and the 40x40 FIGURES
preset, whose scan takes about half a second.  ``zeno`` and ``eigen`` run
their defaults; ``eigen`` is the one command that imports scipy
(``eigh_tridiagonal``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "report": ["report"],
    "feasibility_16x16": ["feasibility"],
    "decoherence": ["decoherence"],
    "scatter": ["scatter"],
    "pattern_1x1": ["pattern", "--n_b", "1", "--n_l", "1"],
    "pattern_40x40": ["pattern", "--n_b", "40", "--n_l", "40"],
    "zeno": ["zeno"],
    "eigen": ["eigen"],
    "help": ["--help"],
}


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES)
def test_cli_fresh_process(benchmark, argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "zenograv.cli", *argv]
    if argv != ["--help"]:
        cmd += ["--output-dir", str(tmp_path)]

    def run():
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    proc = benchmark.pedantic(run, rounds=5, warmup_rounds=1)
    assert proc.returncode == 0, proc.stderr
