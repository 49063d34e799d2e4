"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import TASK, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ")
                   and f" {m['unit']}" in line for line in lines[:-1]), m
    assert any(line.startswith("env: ") for line in lines)


def _namespace():
    """Every attribute of every zenograv module, plus from_dict's descriptor."""
    from zenograv import massdist
    mods = {n: m for n, m in sys.modules.items()
            if n == "zenograv" or n.startswith("zenograv.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    snap[("MassDistribution", "from_dict")] = \
        massdist.MassDistribution.__dict__["from_dict"]
    return snap


def test_tracer_patches_every_alias_and_restores_them():
    tracer = Tracer().install()
    try:
        from zenograv import cli, massdist, schrod1d, scatter
        # names imported by name into another module are wrapped there too
        for owner, attr in ((cli, "solve_eigen"),
                            (cli, "classify_ground_state"),
                            (cli, "make_superposed_source"),
                            (scatter, "potential_at"),
                            (schrod1d, "find_wells"),
                            (cli, "main")):
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
        assert hasattr(massdist.MassDistribution.__dict__["from_dict"]
                       .__func__, "__wrapped__")
    finally:
        tracer.restore()
    before = _namespace()
    tracer = Tracer().install()
    assert tracer.patched
    tracer.restore()
    after = _namespace()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert not tracer.patched


def _check_self_times(recorded):
    own = self_times(recorded)
    for i, span in enumerate(recorded):
        below = [j for j in range(len(recorded))
                 if _descends(recorded, j, i)]
        total = own[i] + sum(own[j] for j in below)
        assert total == pytest.approx(span.end - span.start, abs=1e-9)


def _descends(recorded, j, i):
    p = recorded[j].parent
    while p >= 0:
        if p == i:
            return True
        p = recorded[p].parent
    return False


def test_self_times_sum_to_parent_span():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.002)
        with tracer.span("a"):
            time.sleep(0.001)
            with tracer.span("a.inner"):
                time.sleep(0.001)
        with tracer.span("b"):
            time.sleep(0.001)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    _check_self_times(tracer.spans)
    own = self_times(tracer.spans)
    assert own[0] >= 0.002 and all(o > 0 for o in own)


def test_self_times_of_a_traced_task():
    wl = workloads.Spectra(5, tiny=True)
    tracer = Tracer().install()
    try:
        with tempfile.TemporaryDirectory() as out, tracer.span(TASK):
            workloads.run_steps(wl.steps(0, out))
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "schrod1d.solve_eigen", "schrod1d.find_wells",
            "zeno.strobo_evolve"} <= names
    _check_self_times(tracer.spans)
    stats = spans.summarize(tracer.spans, 1)
    root = tracer.spans[0]
    assert sum(e["self_s"] for e in stats.values()) == \
        pytest.approx(root.end - root.start, abs=1e-9)


def test_yardstick_samples_once_per_interval_of_other_work():
    yard = run.Yardstick()
    assert len(yard.samples) == 1
    yard.catch_up()
    assert len(yard.samples) == 1           # no work done yet
    time.sleep(2.2 * yard.EVERY_S)
    yard.catch_up()
    assert len(yard.samples) == 3
    assert yard.factor() == pytest.approx(
        run.YARDSTICK_S / sorted(yard.samples)[1])
