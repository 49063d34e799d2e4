import io
import itertools
import math
import time
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from conftest import anomaly_crossing_elapsed, oracle_config

from zenograv import decoherence as deco
from zenograv import scatter, zeno
from zenograv.constants import joules_to_ev
from zenograv.decoherence import Environment
from zenograv.errors import InvalidParameterError, ZenogravError
from zenograv.feasibility import (SWEEP_AXES, ExperimentPoint, _apply_axes,
                                  evaluate_point, reference_point,
                                  region_to_csv, report_to_dict, sweep_region)
from zenograv.massdist import make_superposed_source
from zenograv.scatter import integrate_trajectory

REF = reference_point()


class TestExperimentPoint:
    def test_derived_quantities(self):
        assert REF.v * REF.t_R == pytest.approx(REF.R, rel=1e-12)
        assert REF.v == pytest.approx(1e-6, rel=1e-12)
        assert REF.M == pytest.approx(1.0890854e-11, rel=1e-6)
        assert REF.b0 == pytest.approx(1.2e-5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            replace(REF, beta=0.9)
        with pytest.raises(InvalidParameterError):
            replace(REF, zeta=1.0)
        with pytest.raises(InvalidParameterError):
            replace(REF, t_R=-1.0)

    @pytest.mark.parametrize("field", ["R", "density", "t_R", "beta",
                                       "m_probe"])
    def test_nan_rejected(self, field):
        with pytest.raises(InvalidParameterError):
            replace(REF, **{field: math.nan})

    @pytest.mark.parametrize("field", ["R", "t_R", "R_probe", "t_total_cap",
                                       "strictness", "gamma_zeno_achievable"])
    def test_inf_rejected(self, field):
        # the sign checks pass +inf; the finiteness check names the field
        with pytest.raises(InvalidParameterError,
                           match=f"^{field} must be finite, got inf$"):
            replace(REF, **{field: math.inf})
        with pytest.raises(InvalidParameterError,
                           match=f"^{field} must be finite, got inf$"):
            replace(REF, **{field: np.array([1.0, math.inf])})

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan])
    def test_sigma_ratio_max_must_be_positive(self, value):
        with pytest.raises(InvalidParameterError, match="sigma_ratio_max"):
            replace(REF, sigma_ratio_max=value)

    def test_defaults_are_the_summary_configuration(self):
        # the literals reference_point() spelled out before the field
        # defaults took them over
        assert ExperimentPoint() == ExperimentPoint(
            R=1e-5, density=2600.0, beta=1.2, zeta=0.75, t_R=10.0,
            m_probe=1e-18, R_probe=1e-6,
            env=Environment(pressure=1e-15, T_env=1.0, T_int=1.0),
            t_total_cap=100.0, theta_min=1e-4, strictness=100.0,
            sigma_ratio_max=0.02, gamma_zeno_achievable=1e3)
        assert reference_point() == ExperimentPoint()

    def test_grid_fields_validated_whole(self):
        # an array field is checked in every cell, NaN included, with the
        # scalar message
        with pytest.raises(InvalidParameterError,
                           match="R, density, t_R must all be > 0"):
            replace(REF, R=np.array([1e-5, math.nan]))
        with pytest.raises(InvalidParameterError,
                           match="m_probe must be > 0"):
            replace(REF, m_probe=np.array([[1e-18], [0.0]]))


class TestReferenceReport:
    def test_all_constraints_pass(self):
        rep = evaluate_point(REF)
        assert rep.passed
        for c in rep.constraints:
            assert c.passed is True, c

    def test_reference_values(self):
        rep = evaluate_point(REF)
        assert rep.theta_max == pytest.approx(1.21148e-4, rel=1e-4)
        assert rep.t_total == pytest.approx(57.937, rel=1e-3)
        assert rep.t_used == rep.t_total
        assert rep.tau_Z == pytest.approx(1.65086, rel=1e-4)
        # binding requirement is the interaction-timescale bound 100/tau_Z
        assert rep.gamma_dyn_required == pytest.approx(100 / rep.tau_Z, rel=1e-12)
        assert rep.gamma_zeno_required == pytest.approx(60.574, rel=1e-3)
        assert rep.breakdown.gamma_total == pytest.approx(34.357, rel=1e-3)
        assert rep.sigma_ratio == pytest.approx(0.010766, rel=1e-3)
        assert rep.mfp == pytest.approx(3106.7, rel=1e-3)
        assert rep.kinetic_energy_eV == pytest.approx(3.1208e-12, rel=1e-4)
        assert rep.kinetic_energy_eV == pytest.approx(3e-12, rel=0.10)

    def test_slow_probe_fails_deflection(self):
        rep = evaluate_point(replace(REF, t_R=1.0))
        assert not rep.passed
        assert rep.constraint("deflection").passed is False
        assert rep.theta_max < 1e-4

    def test_poor_vacuum_fails_decoherence(self):
        rep = evaluate_point(replace(REF, env=Environment(1e-6, 1.0, 1.0)))
        assert not rep.passed
        assert rep.constraint("decoherence").passed is False
        # gas channel scales linearly: 1e9 times the reference pressure
        ref_gas = evaluate_point(REF).breakdown.gamma_gas
        assert rep.breakdown.gamma_gas == pytest.approx(1e9 * ref_gas, rel=1e-9)

    def test_duration_capped(self):
        rep = evaluate_point(replace(REF, t_R=10 ** 1.3))
        assert rep.t_total > 100.0
        assert rep.t_used == 100.0
        assert rep.constraint("time").passed is False

    def test_pressure_monotonicity(self):
        # raising the pressure never turns a fail back into a pass
        states = []
        for p in np.logspace(-16, -6, 11):
            rep = evaluate_point(replace(REF, env=Environment(p, 1.0, 1.0)))
            states.append(rep.passed)
        flips = sum(1 for a, b in zip(states, states[1:]) if a != b)
        assert flips <= 1
        assert states[0] and not states[-1]

    def test_report_dict_round_trip(self):
        d = report_to_dict(evaluate_point(REF))
        assert d["passed"] is True
        assert set(d["constraints"]) == {"deflection", "time", "zeno-rate",
                                         "decoherence", "classicality",
                                         "mean-free-path"}
        assert d["point"]["v_m_s"] == pytest.approx(1e-6)


class TestAgainstSimulation:
    def test_theta_and_time_match_ode(self):
        # closed forms vs direct integration at feasible points (5%)
        rng = np.random.default_rng(31)
        for _ in range(5):
            pt = replace(REF, R=10 ** rng.uniform(-5.3, -4.7),
                         t_R=10 ** rng.uniform(1.0, 1.2),
                         beta=rng.uniform(1.2, 1.8))
            src = make_superposed_source(pt.R, pt.density, 0.0)
            cfg = oracle_config(src, pt.b0, 0.0, pt.v)
            traj = integrate_trajectory(src, cfg, pt.m_probe)
            rep = evaluate_point(pt)
            assert rep.theta_max == pytest.approx(traj.deflection_angle,
                                                  rel=0.05)
            phi_target = pt.zeta * 0.5 * (np.pi + rep.theta_max)
            elapsed = anomaly_crossing_elapsed(traj, phi_target)
            assert rep.t_total == pytest.approx(elapsed, rel=0.05)


class TestDurationWindow:
    def test_t_R_window_interval(self):
        # {t_R : theta > 1e-4 and t_total < 100 s} on a log grid is an
        # interval with endpoints near 10^1.0 and 10^1.2
        logs = np.linspace(0.5, 1.5, 201)
        passes = []
        for lt in logs:
            rep = evaluate_point(replace(REF, t_R=10 ** lt))
            ok = (rep.constraint("deflection").passed
                  and rep.constraint("time").passed)
            passes.append(ok)
        idx = np.nonzero(passes)[0]
        assert len(idx) > 0
        assert np.all(np.diff(idx) == 1)  # contiguous: an interval
        lo, hi = logs[idx[0]], logs[idx[-1]]
        assert abs(lo - 1.0) <= 0.1 * 1.0
        assert abs(hi - 1.2) <= 0.1 * 1.2


class TestSweep:
    def test_axis_consistency_R_v(self):
        grid = sweep_region(("R", np.array([1e-5])), ("v", np.array([1e-6])),
                            REF)
        # t_R = R/v = 10 s at this cell: same report as the reference
        ref = evaluate_point(REF)
        assert grid.theta_max[0] == pytest.approx(ref.theta_max, rel=1e-12)
        assert grid.t_total[0] == pytest.approx(ref.t_total, rel=1e-12)
        assert grid.passed[0]

    def test_R_axis_keeps_t_R(self):
        grid = sweep_region(("R", np.array([2e-5])), ("p", np.array([1e-15])),
                            REF)
        # deflection and duration depend only on (rho, beta, zeta, t_R)
        ref = evaluate_point(REF)
        assert grid.theta_max[0] == pytest.approx(ref.theta_max, rel=1e-9)
        assert grid.t_total[0] == pytest.approx(ref.t_total, rel=1e-9)
        assert grid.KE_eV[0] == pytest.approx(4 * ref.kinetic_energy_eV,
                                              rel=1e-9)  # v = R/t_R doubled

    def test_classicality_contour_location(self):
        # sigma_min/R = 1e-2 contour at R = 1e-5 sits between 1e-18 and
        # 2.2e-18 kg (inverting sigma_min = sqrt(2 hbar t / m))
        masses = np.logspace(-18.2, -17.6, 25)
        ratios = sweep_region(("m_probe", masses), ("p", np.array([1e-15])),
                              REF).sigma_ratio
        assert ratios[0] > 1e-2 > ratios[-1]
        k = int(np.nonzero(ratios < 1e-2)[0][0])
        crossing = masses[k]
        assert 1e-18 < crossing < 2.2e-18

    def test_t_R_band_in_sweep(self):
        grid = sweep_region(("t_R", np.logspace(0.5, 1.5, 21)),
                            ("p", np.array([1e-15])), REF)
        n_pass = sum(grid.passed)
        assert 0 < n_pass < len(grid.passed)

    def test_axis_validation(self):
        with pytest.raises(InvalidParameterError):
            sweep_region(("bogus", np.array([1.0])), ("p", np.array([1e-15])),
                         REF)
        with pytest.raises(InvalidParameterError):
            sweep_region(("R", np.array([1e-5])), ("R", np.array([1e-5])), REF)

    def test_grid_is_a_table_of_columns(self):
        grid = sweep_region(("t_R", np.logspace(0.5, 1.5, 7)),
                            ("p", np.array([1e-15, 1e-12])), REF)
        assert {len(column) for column in vars(grid).values()} == {14}
        buf = io.StringIO()
        region_to_csv(grid, buf)
        assert len(buf.getvalue().splitlines()) == 1 + 14
        assert sum(grid.passed.tolist()) == np.count_nonzero(grid.passed)

    def test_csv_deterministic(self):
        rows = sweep_region(("t_R", np.logspace(0.9, 1.3, 5)),
                            ("p", np.array([1e-15, 1e-12])), REF)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            region_to_csv(rows, buf, header_comment="sweep")
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        lines = bufs[0].strip().split("\n")
        assert lines[1] == ("axis1,axis2,theta_max,t_total,gamma_required,"
                            "sigma_ratio,mfp,KE_eV,pass")
        assert len(lines) == 2 + 5 * 2


# ---------------------------------------------------------------------------
# Grid kernel against a per-cell reference
# ---------------------------------------------------------------------------

AXIS_VALUES = {
    "R": np.logspace(-6, -4, 5),
    "v": np.logspace(-7, -5, 4),
    "t_R": np.logspace(-1, 3, 6),
    "p": np.array([0.0, 1e-15, 1e-12, 1e-9]),
    "T": np.logspace(-1, 2.5, 4),
    "m_probe": np.logspace(-19, -17, 5),
}
COLUMNS = ("axis1", "axis2", "theta_max", "t_total", "gamma_required",
           "sigma_ratio", "mfp", "KE_eV")


def _reference_cell(pt):
    """One cell as the per-cell loop evaluated it: scalar closed forms and
    Python branches, with a failed duration or decoherence evaluation
    leaving the cell indeterminate (not passed).  A duration that is not
    finite and > 0 (0, or 0/0 past the parabolic limit) fails as a raised
    one does."""
    theta = scatter.rutherford_angle(pt.M, pt.v, pt.b0)
    try:
        with np.errstate(invalid="ignore"):
            t_total = scatter.kepler_scatter_time(pt.M, pt.density, pt.beta,
                                                  pt.zeta, pt.t_R)
    except ZenogravError:
        t_total = math.nan
    time_ok = 0 < t_total < math.inf
    if not time_ok:
        t_total = math.nan
    t_used = min(t_total, pt.t_total_cap) if math.isfinite(t_total) \
        else pt.t_total_cap
    tau_Z = zeno.zeno_time_estimate(pt.m_probe, pt.M, pt.b0)
    rate_dyn, rate_surv = zeno.zeno_rate_bounds(tau_Z, t_used)
    gamma_dyn = max(pt.strictness * rate_dyn, rate_surv)
    try:
        gamma_deco = deco.total_decoherence(pt.env, pt.R).gamma_total
        deco_ok = True
    except ZenogravError:
        gamma_deco, deco_ok = math.nan, False
    sigma_ratio = deco.wavepacket_spread_min(pt.m_probe, t_used)[0] / pt.R
    dp_ratio = deco.momentum_floor(pt.m_probe, t_used, pt.v)[1]
    mfp = deco.mean_free_path(pt.env, pt.R_probe).value
    path = pt.v * t_used
    margins = (
        theta / pt.theta_min,
        pt.t_total_cap / t_total if t_total > 0 else math.inf,
        pt.gamma_zeno_achievable / gamma_dyn,
        pt.gamma_zeno_achievable / gamma_deco if gamma_deco > 0 else math.inf,
        min(pt.sigma_ratio_max / sigma_ratio,
            (1.0 / pt.strictness) / dp_ratio),
        mfp / (pt.strictness * path))
    passed = time_ok and deco_ok and all(m >= 1.0 for m in margins)
    gamma_required = max(gamma_deco, gamma_dyn) if deco_ok else gamma_dyn
    return (theta, t_total, gamma_required, sigma_ratio, mfp,
            joules_to_ev(0.5 * pt.m_probe * pt.v**2), passed)


def _reference_sweep(axis1, axis2, base):
    """The per-cell loop the grid kernel replaced."""
    (name1, vals1), (name2, vals2) = axis1, axis2
    rows = []
    for v1 in vals1:
        for v2 in vals2:
            pt = _apply_axes(base, {name1: float(v1), name2: float(v2)})
            rows.append((float(v1), float(v2)) + _reference_cell(pt))
    return rows


def _same(a, b, rel=1e-13):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _assert_parity(axis1, axis2, base=REF):
    grid = sweep_region(axis1, axis2, base)
    expected = _reference_sweep(axis1, axis2, base)
    assert len(grid.passed) == len(expected)
    rows = zip(*(getattr(grid, name).tolist() for name in COLUMNS),
               grid.passed.tolist())
    for row, ref in zip(rows, expected):
        for name, got, want in zip(COLUMNS, row, ref):
            assert type(got) is float
            assert _same(got, want), (name, row, ref)
        assert row[-1] is ref[-1], (row, ref)
    return grid


class TestGridKernelParity:
    @pytest.mark.parametrize("name1,name2",
                             list(itertools.combinations(SWEEP_AXES, 2)))
    def test_axis_pair(self, name1, name2):
        grid = _assert_parity((name1, AXIS_VALUES[name1]),
                              (name2, AXIS_VALUES[name2]))
        assert len(grid.passed) == \
            AXIS_VALUES[name1].size * AXIS_VALUES[name2].size

    def test_derived_R_from_v_and_t_R(self):
        grid = _assert_parity(("t_R", AXIS_VALUES["t_R"]),
                              ("v", AXIS_VALUES["v"]))
        # the probe flies at the v axis value: R = v t_R is derived
        for ke, v in zip(grid.KE_eV, grid.axis2):
            assert ke == pytest.approx(
                joules_to_ev(0.5 * REF.m_probe * v**2), rel=1e-12)

    def test_vacuum_gives_infinite_mean_free_path(self):
        base = replace(REF, env=Environment(0.0, 1.0, 1.0))
        grid = _assert_parity(("t_R", np.array([3.0, 10.0, 12.0, 30.0])),
                              ("R", AXIS_VALUES["R"]), base)
        assert all(mfp == math.inf for mfp in grid.mfp)
        assert any(grid.passed)

    def test_one_by_one_grid(self):
        grid = _assert_parity(("t_R", np.array([10.0])),
                              ("R", np.array([1e-5])))
        assert len(grid.passed) == 1 and grid.passed[0]

    def test_indeterminate_cells(self, monkeypatch):
        # past t_R ~ 1e80 tan(theta/2) is so large that e^2 - 1 underflows
        # (1e100, 3e120: orbit not hyperbolic); at 1e40 the duration
        # underflows to 0 and at 1e60 it is 0/0 (not finite and > 0).
        # Two distinct checks fail, so two sets of cells are peeled off in
        # three array passes, and only those cells are indeterminate
        original, shapes = scatter.kepler_scatter_time, []

        def spy(*args):
            shapes.append(np.shape(args[4]))
            return original(*args)

        monkeypatch.setattr(scatter, "kepler_scatter_time", spy)
        t_R = np.array([10.0, 12.0, 1e40, 1e60, 1e100, 3e120])
        grid = _assert_parity(("t_R", t_R), ("R", np.array([1e-5, 1.2e-5])))
        # three grid passes, then the reference's twelve cells
        assert shapes == [(6, 1), (8,), (4,)] + [()] * 12
        failed = [math.isnan(t) for t in grid.t_total]
        assert failed == [False] * 4 + [True] * 8
        assert grid.passed[0] and not any(grid.passed[4:])

    @pytest.mark.parametrize("t_R_range", [(1e100, 1e120), (1e40, 1e60)])
    def test_degenerate_grid_is_one_array_pass(self, t_R_range):
        # every cell's duration fails: the failed cells are peeled off in
        # array passes, never evaluated one by one
        axes = (("R", np.logspace(-6, -4, 64)),
                ("t_R", np.logspace(*np.log10(t_R_range), 64)))
        sweep_region(*axes, REF)   # warm-up
        start = time.perf_counter()
        grid = sweep_region(*axes, REF)
        assert time.perf_counter() - start < 0.1
        assert np.isnan(grid.t_total).all() and not grid.passed.any()

    @pytest.mark.parametrize("module,name,marked,cell_marked", [
        (scatter, "kepler_scatter_time", lambda args: args[4] == 12.0,
         lambda t_R, p: t_R == 12.0),
        (deco, "total_decoherence", lambda args: args[0].pressure == 1e-16,
         lambda t_R, p: p == 1e-16),
    ])
    def test_failed_sub_evaluation_marks_only_its_cells(
            self, monkeypatch, module, name, marked, cell_marked):
        # every cell of this grid passes; the sub-evaluation is made to
        # fail in the marked cells and names them in the error's cells, so
        # the kernel peels them off and reruns the others as one array
        # pass: only the marked cells become indeterminate
        original = getattr(module, name)

        def failing(*args):
            cells = marked(args)
            if np.any(cells):
                raise InvalidParameterError("forced failure", cells=cells)
            return original(*args)

        axis1, axis2 = ("t_R", np.array([10.0, 12.0])), \
            ("p", np.array([1e-15, 1e-16]))
        assert all(sweep_region(axis1, axis2, REF).passed)
        monkeypatch.setattr(module, name, failing)
        grid = _assert_parity(axis1, axis2)
        assert grid.passed.tolist() == [
            not cell_marked(t_R, p)
            for t_R, p in itertools.product(axis1[1], axis2[1])]

    @pytest.mark.filterwarnings("error")
    def test_evaluate_point_is_a_cell_of_the_sweep(self):
        # R = 2.25e-67 m: h^3 and (G M)^2 underflow to 0, so the duration
        # is 0/0, in one cell as in the grid
        for (name1, vals1), (name2, vals2) in [
                (("t_R", [3.0, 10.0, 10 ** 1.3]), ("p", [0.0, 1e-15, 1e-6])),
                (("R", [2.25e-67, 1e-5]), ("t_R", [1.0, 10.0]))]:
            grid = sweep_region((name1, np.array(vals1)),
                                (name2, np.array(vals2)), REF)
            cells = itertools.product(vals1, vals2)
            for i, (v1, v2) in enumerate(cells):
                rep = evaluate_point(_apply_axes(REF, {name1: v1, name2: v2}))
                got = (rep.theta_max, rep.t_total, rep.gamma_zeno_required,
                       rep.sigma_ratio, rep.mfp, rep.kinetic_energy_eV)
                want = tuple(getattr(grid, name)[i] for name in (
                    "theta_max", "t_total", "gamma_required", "sigma_ratio",
                    "mfp", "KE_eV"))
                assert all(_same(a, b) for a, b in zip(got, want)), (got,
                                                                     want)
                assert rep.passed is grid.passed.tolist()[i]
        check = evaluate_point(replace(REF, R=2.25e-67)).constraint("time")
        assert check.passed is None and check.note == (
            "InvalidParameterError: scattering duration not finite and > 0: "
            "nan s")

    def test_one_cell_indeterminate_report(self):
        rep = evaluate_point(replace(REF, t_R=1e100))
        time = rep.constraint("time")
        assert time.passed is None and math.isnan(time.margin)
        assert time.note.startswith("InvalidParameterError: orbit not hyperbolic")
        assert rep.constraint("deflection").passed is True
        assert not rep.passed

    def test_degenerate_duration_is_indeterminate(self):
        # past the parabolic limit the Kepler time underflows to 0
        # (t_R = 1e40) or is 0/0 (t_R = 1e60): such a duration is
        # indeterminate, and the run budget stands in for it
        for t_R, t_total in ((1e40, "0.0"), (1e60, "nan")):
            rep = evaluate_point(replace(REF, t_R=t_R))
            time = rep.constraint("time")
            assert time.passed is None and math.isnan(time.margin)
            assert time.note == ("InvalidParameterError: scattering duration "
                                 f"not finite and > 0: {t_total} s")
            assert math.isnan(rep.t_total) and rep.t_used == REF.t_total_cap
            assert not rep.passed
        grid = sweep_region(("t_R", np.array([10.0, 1e40, 1e60])),
                            ("R", np.array([1e-5])), REF)
        assert grid.passed.tolist() == [True, False, False]
        assert [math.isnan(t) for t in grid.t_total] == [False, True, True]

    def test_inf_axis_value_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="pressure must be finite, got inf"):
            sweep_region(("p", np.array([1e-15, np.inf])),
                         ("R", np.array([1e-5])), REF)

    def test_nan_axis_value_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="R, density, t_R must all be > 0"):
            sweep_region(("t_R", np.array([10.0, math.nan])),
                         ("R", np.array([1e-5])), REF)
        with pytest.raises(InvalidParameterError, match="pressure must be"):
            sweep_region(("p", np.array([1e-15, math.nan])),
                         ("R", np.array([1e-5])), REF)

    def test_overflow_raises_instead_of_inf_rows(self):
        # R = v t_R ~ 1e300 overflows the source mass: float arithmetic
        # raises OverflowError here, the grid FloatingPointError
        with pytest.raises(FloatingPointError):
            sweep_region(("v", np.array([1e300])),
                         ("t_R", np.array([1.0, 10.0])), REF)


# report.json "point" key -> the ExperimentPoint attribute it holds
REPORT_POINT_KEYS = {
    "R_m": "R", "density_kg_m3": "density", "beta": "beta", "zeta": "zeta",
    "t_R_s": "t_R", "v_m_s": "v", "M_kg": "M", "m_probe_kg": "m_probe",
    "R_probe_m": "R_probe", "pressure_Pa": "env.pressure",
    "T_env_K": "env.T_env", "T_int_K": "env.T_int",
    "t_total_cap_s": "t_total_cap", "theta_min_rad": "theta_min",
    "strictness": "strictness", "sigma_ratio_max": "sigma_ratio_max",
    "gamma_zeno_achievable_s": "gamma_zeno_achievable",
}


@pytest.mark.parametrize("pt", [
    ExperimentPoint(),
    # every field distinct, so that two swapped keys would show
    ExperimentPoint(R=2e-5, density=2000.0, beta=1.5, zeta=0.6, t_R=12.0,
                    m_probe=3e-18, R_probe=4e-6,
                    env=Environment(pressure=5e-15, T_env=1.5, T_int=2.5),
                    t_total_cap=90.0, theta_min=7e-5, strictness=50.0,
                    sigma_ratio_max=0.03, gamma_zeno_achievable=2e3),
])
def test_report_point_block_holds_every_parameter(pt):
    point = report_to_dict(evaluate_point(pt))["point"]
    assert len(REPORT_POINT_KEYS) == 17
    assert point == {key: attrgetter(name)(pt)
                     for key, name in REPORT_POINT_KEYS.items()}
