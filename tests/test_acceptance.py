"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import (clean_rows, force_at, oracle_config,
                      rutherford_angle_density)

from zenograv.constants import CONST
from zenograv.decoherence import (Environment, blackbody_rates,
                                  gamma_distance, rest_gas_rate,
                                  total_decoherence)
from zenograv.feasibility import ExperimentPoint, evaluate_point
from zenograv.massdist import make_superposed_source, potential_at
from zenograv.scatter import (ScatterConfig, energy_series,
                              integrate_trajectory, kepler_scatter_time,
                              pattern_to_csv, rutherford_angle, scan_pattern)
from zenograv.schrod1d import PotentialSpec1D, potential_gradient, solve_eigen
from zenograv.zeno import spin_pair_model, strobo_evolve

RHO = 2600.0
R = 1e-5
M_PROBE = 1e-18


def _line(num, name, ok, detail):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'} | {detail}")


def test_criterion_1_triple_well_spectrum():
    t0 = time.perf_counter()
    spec = PotentialSpec1D(a=1, b=4, c=1, M=1e-11, d=1e-5)
    sol = solve_eigen(spec, n_states=2)
    grad = potential_gradient(spec, 1.0)
    elapsed = time.perf_counter() - t0

    e0_ok = abs(sol.energies[0] - (-1.0e-47)) <= 0.02 * 1.0e-47
    e1_ok = abs(sol.energies[1] - (-8.86e-48)) <= 0.02 * 8.86e-48
    g_ok = abs(grad - 4e-42) <= 0.15 * 4e-42
    _line(1, "triple-well spectrum", e0_ok and e1_ok and g_ok and elapsed < 5,
          f"E0={sol.energies[0]:.4e} J, E1={sol.energies[1]:.4e} J, "
          f"grad={grad:.3e} J/m, {elapsed:.2f}s")
    assert e0_ok and e1_ok and g_ok
    assert elapsed < 5.0


def test_criterion_2_rutherford_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for _ in range(20):
        radius = 10 ** rng.uniform(-5.5, -4.5)
        rho = rng.uniform(1000, 5000)
        t_R = 10 ** rng.uniform(1.0, 1.2)
        beta = rng.uniform(1.2, 2.0)
        src = make_superposed_source(radius, rho, 0.0)
        v = radius / t_R
        b0 = beta * radius
        traj = integrate_trajectory(src, oracle_config(src, b0, 0.0, v),
                                    M_PROBE)
        theta = rutherford_angle(src.total_mass, v, b0)
        worst = max(worst, abs(traj.deflection_angle - theta) / theta)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30
    _line(2, "closed-form deflection oracle", ok,
          f"worst rel err {worst:.2e} over 20 draws, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_3_duration_window():
    logs = np.linspace(0.7, 1.5, 321)
    M = 4.0 / 3.0 * np.pi * RHO * R**3
    ok_set = []
    for lt in logs:
        t_R = 10 ** lt
        theta = rutherford_angle_density(RHO, 1.2, t_R)
        t_tot = kepler_scatter_time(M, RHO, 1.2, 0.75, t_R)
        ok_set.append(theta > 1e-4 and t_tot < 100.0)
    idx = np.nonzero(ok_set)[0]
    contiguous = bool(np.all(np.diff(idx) == 1))
    lo, hi = logs[idx[0]], logs[idx[-1]]
    ok = contiguous and abs(lo - 1.0) <= 0.1 * 1.0 and abs(hi - 1.2) <= 0.1 * 1.2
    _line(3, "probe-crossing-time window", ok,
          f"window [10^{lo:.3f}, 10^{hi:.3f}] s vs [10^1.0, 10^1.2]")
    assert contiguous
    assert abs(lo - 1.0) <= 0.1 * 1.0
    assert abs(hi - 1.2) <= 0.1 * 1.2


def test_criterion_4_scattering_pattern():
    t0 = time.perf_counter()
    v = R / 10 ** 1.1
    M_total = 4.0 / 3.0 * np.pi * RHO * R**3
    dashed = 2 * math.tan(rutherford_angle(M_total, v, 1.2 * R) / 2)

    two = scan_pattern(make_superposed_source(R, RHO, 2 * R), (1.2, 2.0),
                       (0.0, 2 * R), 40, 40, v)
    # the collapsed-source pattern is mirror symmetric by construction, so
    # the comparison annulus needs no sign-mirrored offsets
    one = scan_pattern(make_superposed_source(R, RHO, 0.0), (1.2, 2.0),
                       (0.0, 2 * R), 40, 40, v, mirror_l=False)
    elapsed = time.perf_counter() - t0

    # two-sphere pattern: two disjoint clusters paired by x-reflection
    two_pts = clean_rows(two, "beta", "l", "proj_x", "proj_y")
    pos = [x for _, l, x, _ in two_pts if l >= 0.1 * R]
    neg = [x for _, l, x, _ in two_pts if l <= -0.1 * R]
    lobes_ok = max(pos) < 0.0 < min(neg)
    mirrored = all(
        any(abs(x + qx) < 1e-12 + 1e-9 * abs(x)
            and abs(y - qy) < 1e-12 + 1e-9 * abs(y)
            for q_beta, q_l, qx, qy in two_pts if q_l == -l and q_beta == beta)
        for beta, l, x, y in two_pts if l > 0)

    # collapsed source: a single annulus (radius a function of total
    # impact parameter only), outer edge on the closed-form circle
    one_pts = clean_rows(one, "b", "l", "proj_x", "proj_y")
    radii = np.array([math.hypot(x, y) for _, _, x, y in one_pts])
    annulus_ok = True
    for b, l, x, y in one_pts:
        b_tot = math.hypot(b, l)
        expected = 2 * math.tan(rutherford_angle(M_total, v, b_tot) / 2)
        if abs(math.hypot(x, y) - expected) > 0.01 * expected:
            annulus_ok = False
    inner_positive = radii.min() > 0.3 * radii.max()

    d0_max = radii.max()
    max_ok = abs(d0_max - dashed) <= 0.05 * dashed
    two_max = max(math.hypot(x, y) for _, _, x, y in two_pts)
    bounded_ok = two_max <= 1.05 * dashed

    ok = (lobes_ok and mirrored and annulus_ok and inner_positive and max_ok
          and bounded_ok and elapsed < 120)
    _line(4, "two-lobe vs annulus pattern", ok,
          f"probes={len(two.hit)}+{len(one.hit)}, "
          f"annulus max {d0_max:.4g} vs closed form {dashed:.4g}, "
          f"two-lobe max {two_max:.4g}, {elapsed:.0f}s")
    assert lobes_ok and mirrored
    assert annulus_ok and inner_positive
    assert max_ok and bounded_ok
    assert elapsed < 120.0


def test_criterion_5_freeze_scaling():
    t0 = time.perf_counter()
    g = CONST.hbar * 1.0          # freeze timescale 1 s
    tau_Z = 1.0
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

    model = spin_pair_model(g)
    taus = np.logspace(-4, -2, 9) * tau_Z
    deficits = np.array([1 - strobo_evolve(model, tau, 100, plus).survival_prob
                         for tau in taus])
    slope = float(np.polyfit(np.log(taus), np.log(deficits), 1)[0])

    model_dyn = spin_pair_model(g, probe_splitting=0.7 * g)
    res = strobo_evolve(model_dyn, 1e-3 * tau_Z, 200, plus)
    elapsed = time.perf_counter() - t0

    slope_ok = abs(slope - 2.0) <= 0.1
    dist_ok = res.effective_H_error < 1e-3
    _line(5, "freeze-dynamics scaling", slope_ok and dist_ok and elapsed < 10,
          f"slope={slope:.3f}, trace distance={res.effective_H_error:.2e} "
          f"at tau=1e-3*tau_Z, {elapsed:.1f}s")
    assert slope_ok
    assert dist_ok
    assert elapsed < 10.0


def test_criterion_6_decoherence_coefficients():
    env = Environment(pressure=1e-15, T_env=1.0, T_int=1.0)
    gas = rest_gas_rate(env, R)
    gas_coeff = gas.gamma * math.sqrt(env.T_env) / (env.pressure * R**2)
    sc, ab, em = blackbody_rates(env, R, R)
    sc_coeff = sc.Lambda / R**6
    ab_coeff = ab.Lambda / R**3

    ratios = {
        "gas": gas_coeff / 1.96e26,
        "bb_sc": sc_coeff / 5e36,
        "bb_abem": ab_coeff / 5e25,
    }
    within2 = all(0.5 <= r <= 2.0 for r in ratios.values())
    total = total_decoherence(env, R).gamma_total
    total_ok = 1e1 <= total <= 1e3
    _line(6, "decoherence coefficients", within2 and total_ok,
          "first-principles/rounded = "
          + ", ".join(f"{k}:{v:.3f}" for k, v in ratios.items())
          + f"; total at reference {total:.1f} 1/s")
    assert within2, ratios
    assert total_ok


def test_criterion_7_reference_feasibility_report():
    rep = evaluate_point(ExperimentPoint())
    ke_ok = abs(rep["kinetic_energy_eV"] - 3e-12) <= 0.1 * 3e-12
    gamma_ok = 100.0 / 3 <= rep["gamma_zeno_required_s"] <= 100.0 * 3
    sigma_ok = rep["sigma_ratio"] <= 2e-2
    mfp_ok = rep["mean_free_path_m"] > 1.0
    ok = rep["passed"] and ke_ok and gamma_ok and sigma_ok and mfp_ok

    # the two-lobe-figure probe speed (t_R = 10^1.1 s) also satisfies
    # every constraint; its kinetic energy is lower by (10/10^1.1)^2
    rep_fig = evaluate_point(replace(ExperimentPoint(), t_R=10 ** 1.1))

    _line(7, "summary feasibility report", ok and rep_fig["passed"],
          f"pass={rep['passed']}, KE={rep['kinetic_energy_eV']:.3e} eV, "
          f"required rate={rep['gamma_zeno_required_s']:.1f} 1/s, "
          f"sigma/R={rep['sigma_ratio']:.4f}, "
          f"mfp={rep['mean_free_path_m']:.0f} m; "
          f"t_R=10^1.1 variant pass={rep_fig['passed']} "
          f"(KE={rep_fig['kinetic_energy_eV']:.3e} eV)")
    assert rep["passed"]
    assert ke_ok and gamma_ok and sigma_ok and mfp_ok
    assert rep_fig["passed"]
    assert rep_fig["kinetic_energy_eV"] == pytest.approx(
        3.121e-12 / 10 ** 0.2, rel=1e-3)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    src = make_superposed_source(R, RHO, 2 * R)
    v = R / 10 ** 1.1

    # energy and angular momentum conservation along a trajectory
    cfg = ScatterConfig.for_source(src, b=1.2 * R, l=R, v=v)
    traj = integrate_trajectory(src, cfg, M_PROBE)
    E = energy_series(src, traj, M_PROBE)
    energy_ok = np.max(np.abs(E - E[0])) < 1e-6 * abs(E[0])

    single = make_superposed_source(R, RHO, 0.0)
    cfg1 = ScatterConfig.for_source(single, b=1.3 * R, l=0.0, v=v)
    traj1 = integrate_trajectory(single, cfg1, M_PROBE)
    L = np.linalg.norm(np.cross(traj1.x, traj1.v), axis=1)
    ang_ok = np.max(np.abs(L - L[0])) < 1e-6 * L[0]

    # force is minus the potential gradient at random points
    rng = np.random.default_rng(99)
    force_ok = True
    for _ in range(100):
        x = rng.uniform(-5 * R, 5 * R, 3)
        F = force_at(src, x, M_PROBE)
        h = 1e-7 * max(np.linalg.norm(x), R)
        F_num = np.array([
            -(potential_at(src, x + dx, M_PROBE)
              - potential_at(src, x - dx, M_PROBE)) / (2 * h)
            for dx in (np.array([h, 0, 0]), np.array([0, h, 0]),
                       np.array([0, 0, h]))])
        if not np.allclose(F, F_num, rtol=1e-5,
                           atol=1e-5 * np.linalg.norm(F_num)):
            force_ok = False

    # eigensolver orthonormality and parity
    spec = PotentialSpec1D(a=1, b=4, c=1, M=1e-11, d=1e-5)
    sol = solve_eigen(spec, n_states=3)
    h = sol.x[1] - sol.x[0]
    gram = np.array([[np.trapezoid(sol.wavefunctions[i] * sol.wavefunctions[j],
                                   dx=h) for j in range(3)] for i in range(3)])
    ortho_ok = np.allclose(gram, np.eye(3), atol=1e-8)
    parity_ok = all(
        np.allclose(np.abs(psi), np.abs(psi[::-1]), atol=1e-6)
        for psi in sol.wavefunctions)

    # decoherence distance law: monotone, saturating
    lam, Lam = 2e-3, 1e8
    xs = np.logspace(-6, 0, 50)
    gs = [gamma_distance(Lam, lam, x) for x in xs]
    mono_ok = all(b >= a for a, b in zip(gs, gs[1:]))
    sat_ok = all(abs(gamma_distance(Lam, lam, x) - lam**2 * Lam)
                 < 1e-6 * lam**2 * Lam for x in xs if x > 10 * lam)

    # CSV determinism
    pattern = scan_pattern(single, (1.2, 1.5), (0.0, R), 2, 2, v)
    outs = [pattern_to_csv(pattern) for _ in range(2)]
    det_ok = outs[0] == outs[1]

    elapsed = time.perf_counter() - t0
    ok = (energy_ok and ang_ok and force_ok and ortho_ok and parity_ok
          and mono_ok and sat_ok and det_ok and elapsed < 180)
    _line(8, "property suites", ok,
          f"energy={energy_ok}, angmom={ang_ok}, force-grad={force_ok}, "
          f"orthonormal={ortho_ok}, parity={parity_ok}, monotone={mono_ok}, "
          f"saturation={sat_ok}, determinism={det_ok}, {elapsed:.1f}s")
    assert energy_ok and ang_ok and force_ok
    assert ortho_ok and parity_ok
    assert mono_ok and sat_ok
    assert det_ok
    assert elapsed < 180.0
