import math
import warnings

import mpmath
import numpy as np
import pytest
from conftest import projector_phi, zeno_variance
from numpy.testing import assert_allclose
from scipy.linalg import expm

from zenograv import zeno
from zenograv.constants import CONST
from zenograv.errors import InvalidParameterError
from zenograv.zeno import (BipartiteSystem, effective_hamiltonian,
                           spin_pair_model, strobo_evolve,
                           survival_probability, trace_distance,
                           zeno_rate_bounds, zeno_time_estimate)

HBAR = CONST.hbar
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # |+><+|

G_COUPLING = HBAR * 1.0          # freeze timescale hbar/g = 1 s
TAU_Z = 1.0


def xx_model(probe_splitting=0.0):
    return spin_pair_model(G_COUPLING, probe_splitting=probe_splitting)


def zz_model():
    """Commuting freeze: H_int = g sz x sz leaves P_phi invariant."""
    return BipartiteSystem(H_P=0.3 * G_COUPLING * SZ,
                           H_S=np.zeros((2, 2)), H_int=G_COUPLING * np.kron(SZ, SZ),
                           phi=np.array([1.0, 0.0]))


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


def random_system(rng, dP=3, dS=3):
    phi = rng.normal(size=dS) + 1j * rng.normal(size=dS)
    phi /= np.linalg.norm(phi)
    return BipartiteSystem(H_P=random_hermitian(rng, dP) * HBAR,
                           H_S=random_hermitian(rng, dS) * HBAR,
                           H_int=random_hermitian(rng, dP * dS) * HBAR,
                           phi=phi)


def loop_reference(sys_m, tau, n, alpha0):
    """(survival, probe state) from one (evolve, project)
    step per measurement with scipy's expm: the loop that strobo_evolve's
    matrix power replaced, kept as its oracle."""
    U = expm(-1j * sys_m.total_hamiltonian() * tau / HBAR)
    P = projector_phi(sys_m)
    rho = np.kron(alpha0, np.outer(sys_m.phi, sys_m.phi.conj()))
    for _ in range(n):
        rho = P @ (U @ rho @ U.conj().T) @ P
    survival = float(np.trace(rho).real)
    dP, dS = len(sys_m.H_P), len(sys_m.H_S)
    probe = np.einsum("psqs->pq", rho.reshape(dP, dS, dP, dS)) / survival
    return survival, probe


class TestValidation:
    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InvalidParameterError):
            BipartiteSystem(bad, np.zeros((2, 2)), np.zeros((4, 4)),
                            np.array([1.0, 0.0]))

    def test_non_unit_phi_rejected(self):
        with pytest.raises(InvalidParameterError):
            BipartiteSystem(np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((4, 4)), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("H_P, H_S, H_int, phi, match", [
        (np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((4, 4)), [1, 0],
         "square"),
        (np.zeros((2, 2)), np.zeros(2), np.zeros((4, 4)), [1, 0], "square"),
        (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((4, 4)), [1, 0, 0],
         "product space"),
        (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 4)), [1, 0, 0],
         "phi dimension"),
    ])
    def test_malformed_shapes_rejected(self, H_P, H_S, H_int, phi, match):
        # the dimensions are read from H_P and H_S, which must be square
        with pytest.raises(InvalidParameterError, match=match):
            BipartiteSystem(H_P, H_S, H_int, np.array(phi, dtype=float))

    def test_bad_density_matrix_rejected(self):
        sys_m = xx_model()
        with pytest.raises(InvalidParameterError):
            strobo_evolve(sys_m, 0.01, 5, np.array([[1.0, 0], [0, 1.0]]))
        with pytest.raises(InvalidParameterError):
            strobo_evolve(sys_m, -0.1, 5, PLUS)


class TestEffectiveHamiltonian:
    def test_decoupled_is_probe_plus_energy(self):
        E = 0.7 * HBAR
        sys_m = BipartiteSystem(0.3 * HBAR * SZ, E * np.eye(2),
                                np.zeros((4, 4)), np.array([1.0, 0.0]))
        assert_allclose(effective_hamiltonian(sys_m),
                        0.3 * HBAR * SZ + E * np.eye(2), atol=1e-18 * HBAR)

    def test_product_interaction_rule(self):
        # H_int = A x B  ->  H_phi = H_P + <phi|H_S|phi> + <phi|B|phi> A
        rng = np.random.default_rng(11)
        for _ in range(5):
            sys_m = random_system(rng)
            A = (lambda M: (M + M.conj().T) / 2)(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            B = (lambda M: (M + M.conj().T) / 2)(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            sys_ab = BipartiteSystem(sys_m.H_P, sys_m.H_S,
                                     np.kron(A, B) * HBAR, sys_m.phi)
            phi = sys_ab.phi
            expected = (sys_ab.H_P
                        + np.vdot(phi, sys_ab.H_S @ phi) * np.eye(3)
                        + np.vdot(phi, B @ phi) * A * HBAR)
            assert_allclose(effective_hamiltonian(sys_ab), expected,
                            atol=1e-12 * HBAR)

    def test_strobo_converges_to_effective_evolution(self):
        # conditional probe state approaches exp(-i H_phi t / hbar) evolution
        sys_m = xx_model(probe_splitting=0.7 * G_COUPLING)
        t = 0.1 * TAU_Z
        res = strobo_evolve(sys_m, TAU_Z / 1e3, 100, PLUS)
        assert res.effective_H_error < 1e-3


class TestZenoVariance:
    def test_commuting_freeze_zero_variance(self):
        assert_allclose(zeno_variance(zz_model()), np.zeros((2, 2)),
                        atol=1e-20 * HBAR**2)

    def test_xx_model_identity(self):
        assert_allclose(zeno_variance(xx_model()),
                        G_COUPLING**2 * np.eye(2), atol=1e-16 * G_COUPLING**2)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            var = zeno_variance(random_system(rng))
            evals = np.linalg.eigvalsh(var)
            assert evals.min() > -1e-10 * np.linalg.norm(var, 2)

    def test_per_step_deficit(self):
        # one-step survival deficit = Tr[alpha DeltaH^2] tau^2/hbar^2 within 1%
        sys_m = xx_model(probe_splitting=0.4 * G_COUPLING)
        tau = TAU_Z / 100
        res = strobo_evolve(sys_m, tau, 1, PLUS)
        var = zeno_variance(sys_m)
        expected = float(np.trace(PLUS @ var).real) * tau**2 / HBAR**2
        assert (1 - res.survival_prob) == pytest.approx(expected, rel=0.01)


class TestPropagator:
    """The eigh propagator against scipy's expm, the oracle it replaced."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 30.0])
    def test_random_hermitian_joule_scale(self, seed, t):
        rng = np.random.default_rng(seed)
        n = 2 + seed
        H = random_hermitian(rng, n) * HBAR      # ~1e-34 J
        assert_allclose(zeno._propagator(H, t), expm(-1j * H * t / HBAR),
                        rtol=0, atol=1e-13 * max(1.0, t))

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(4)
        V, _ = np.linalg.qr(random_hermitian(rng, 5))
        H = (V * np.array([1.0, 1.0, 1.0, -2.0, -2.0])) @ V.conj().T * HBAR
        for t in (0.01, 0.7, 5.0):
            assert_allclose(zeno._propagator(H, t), expm(-1j * H * t / HBAR),
                            rtol=0, atol=1e-13)

    def test_spin_pair(self):
        H = xx_model(probe_splitting=0.7 * G_COUPLING).total_hamiltonian()
        for t in (1e-4, 1e-2, 1.0, 1e3):
            assert_allclose(zeno._propagator(H, t), expm(-1j * H * t / HBAR),
                            rtol=0, atol=1e-13 * max(1.0, t))

    def test_tiny_phase_is_exactly_the_identity(self):
        # as with expm: no rounding of V V^dagger to compound over 1e9 steps
        H = xx_model(probe_splitting=0.7 * G_COUPLING).total_hamiltonian()
        assert (zeno._propagator(H, 1e-300) == np.eye(4)).all()


class TestMatrixPowerAgainstLoop:
    """strobo_evolve's matrix power against the per-step expm loop."""

    MODELS = {
        "xx": (lambda: xx_model(probe_splitting=0.7 * G_COUPLING), 0.01),
        "zz": (zz_model, 0.3),
        "random-3x3": (lambda: random_system(np.random.default_rng(21)),
                       0.01),
        # survival 1.8e-2 at n = 100 and 4e-18 at n = 1000: decayed far
        # below the absolute rounding of tr alpha_0 + tr D
        "xx-decayed": (lambda: xx_model(probe_splitting=0.7 * G_COUPLING), 0.2),
    }

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 1000])
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_reference_loop(self, model, n):
        make, tau = self.MODELS[model]
        sys_m = make()
        alpha0 = PLUS if len(sys_m.H_P) == 2 else np.eye(3) / 3
        survival, probe = loop_reference(sys_m, tau, n, alpha0)
        res = strobo_evolve(sys_m, tau, n, alpha0)
        assert res.survival_prob == pytest.approx(survival, rel=1e-12, abs=0)
        assert_allclose(res.probe_state, probe, rtol=0, atol=1e-12)

    def test_1e9_measurements(self):
        # splitting 0: w = cos(g tau/hbar) 1, so the survival is exactly
        # cos(x)^(2N) = exp(2N (-x^2/2 - x^4/12 - ...)); the rounding of w
        # can compound to about N * 2.2e-16
        N, x = 10**9, 1e-4
        res = strobo_evolve(xx_model(), x * TAU_Z, N, PLUS)
        exact = math.exp(2 * N * (-x**2 / 2 - x**4 / 12))
        assert res.survival_prob == pytest.approx(exact, rel=N * 2.2e-16)


class TestPrecisionFloor:
    """Per-step deficits far below the rounding of 1: the power carries
    only the small part E = w - 1."""

    @pytest.mark.parametrize("x", [1e-8, 1e-6, 1e-4])
    def test_deficit_at_1e9_measurements(self, x):
        # splitting 0: w = cos(x) 1, so 1 - survival = 1 - cos(x)^(2N)
        N = 10**9
        res = strobo_evolve(xx_model(), x * TAU_Z, N, PLUS)
        with mpmath.workdps(40):
            exact = float(1 - mpmath.cos(mpmath.mpf(x)) ** (2 * N))
        assert 1.0 - res.survival_prob == pytest.approx(exact, rel=1e-6, abs=0)

    def test_default_scan_trace_distance(self):
        # the zeno command's default run against the same chain at 50
        # digits: w^N alpha_0 w^N^dagger normalized, against alpha_0
        # evolved under the effective Hamiltonian
        sys_m = xx_model(probe_splitting=0.7 * G_COUPLING)
        H = sys_m.total_hamiltonian().tolist()
        worst = 0.0
        with mpmath.workdps(50):
            alpha0 = mpmath.matrix(PLUS.tolist())
            phase = -1j / mpmath.mpf(HBAR)
            for tau in np.logspace(-4, -2, 9).tolist():
                U = mpmath.expm(mpmath.matrix(H) * (phase * tau))
                w = mpmath.matrix([[U[0, 0], U[0, 2]], [U[2, 0], U[2, 2]]])
                alpha = w ** 100 * alpha0 * (w ** 100).H
                Ue = mpmath.expm(mpmath.matrix(
                    effective_hamiltonian(sys_m).tolist()) * (phase * 100 * tau))
                diff = alpha / (alpha[0, 0] + alpha[1, 1]) - Ue * alpha0 * Ue.H
                exact = mpmath.sqrt(mpmath.re(diff[0, 0]) ** 2
                                    + abs(diff[0, 1]) ** 2)
                err = strobo_evolve(sys_m, tau, 100, PLUS).effective_H_error
                worst = max(worst, float(abs(err - exact) / exact))
        assert worst < 1e-7


class TestStroboEvolve:
    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
    def test_tau_must_be_finite_and_positive(self, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError,
                               match="tau must be finite and > 0"):
                strobo_evolve(xx_model(), tau, 10, PLUS)

    def test_commuting_freeze_survives_exactly(self):
        res = strobo_evolve(zz_model(), 0.3, 50, PLUS)
        assert res.survival_prob == pytest.approx(1.0, abs=1e-12)
        # probe still evolves unitarily under H_phi = H_P + g <0|sz|0> sz
        Hphi = effective_hamiltonian(zz_model())
        U = expm(-1j * Hphi * (0.3 * 50) / HBAR)
        assert trace_distance(res.probe_state, U @ PLUS @ U.conj().T) < 1e-10

    def test_decoupled_probe_unitary(self):
        E = 0.9 * HBAR
        sys_m = BipartiteSystem(0.5 * HBAR * SX, E * np.eye(2),
                                np.zeros((4, 4)), np.array([1.0, 0.0]))
        res = strobo_evolve(sys_m, 0.2, 40, PLUS)
        assert res.survival_prob == pytest.approx(1.0, abs=1e-12)
        U = expm(-1j * (0.5 * HBAR * SX) * 8.0 / HBAR)
        assert trace_distance(res.probe_state, U @ PLUS @ U.conj().T) < 1e-10

    def test_deficit_scales_quadratically_at_fixed_step_count(self):
        for n in (10, 100, 1000):
            taus = np.logspace(-4, -2, 7) * TAU_Z
            deficits = np.array(
                [1 - strobo_evolve(xx_model(), tau, n, PLUS).survival_prob
                 for tau in taus])
            slope = np.polyfit(np.log(taus), np.log(deficits), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.1)

    def test_frozen_limit_monotone_in_n(self):
        sys_m = xx_model(probe_splitting=0.7 * G_COUPLING)
        t = 0.2 * TAU_Z
        dists = []
        for k in range(3, 9):
            n = 2 ** k
            res = strobo_evolve(sys_m, t / n, n, PLUS)
            dists.append(res.effective_H_error)
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        # at least first-order convergence in tau
        ratios = [d2 / d1 for d1, d2 in zip(dists, dists[1:])]
        assert max(ratios) < 0.6

    def test_probability_conservation(self):
        # phi branch + accumulated rejected probability = 1
        sys_m = xx_model(probe_splitting=0.3 * G_COUPLING)
        tau = 0.05 * TAU_Z
        H = sys_m.total_hamiltonian()
        U = expm(-1j * H * tau / HBAR)
        P = projector_phi(sys_m)
        rho = np.kron(PLUS, np.outer(sys_m.phi, sys_m.phi.conj()))
        rejected = 0.0
        for _ in range(30):
            rho = U @ rho @ U.conj().T
            pre = float(np.trace(rho).real)
            rho = P @ rho @ P
            rejected += pre - float(np.trace(rho).real)
        survival = float(np.trace(rho).real)
        assert survival + rejected == pytest.approx(1.0, abs=1e-10)
        res = strobo_evolve(sys_m, tau, 30, PLUS)
        assert res.survival_prob == pytest.approx(survival, abs=1e-12)

    def test_probe_state_is_valid_density_matrix(self):
        sys_m = xx_model(probe_splitting=0.5 * G_COUPLING)
        res = strobo_evolve(sys_m, 0.02 * TAU_Z, 25, PLUS)
        assert 0.0 <= res.survival_prob <= 1.0
        assert np.trace(res.probe_state).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(res.probe_state).min() > -1e-10

    @pytest.mark.parametrize("N", [7_100_000, 10**9])
    @pytest.mark.parametrize("Nx2", [710, 720, 740])
    def test_subnormal_survival(self, N, Nx2):
        # splitting 0: w = cos(x) 1, so the survival exp(-N x^2) falls
        # below the smallest normal float while the conditional state stays
        # |+><+| and H_phi = 0; the normalization must not overflow
        with np.errstate(over="raise"):
            res = strobo_evolve(xx_model(), math.sqrt(Nx2 / N) * TAU_Z, N, PLUS)
        assert 0 < res.survival_prob < np.finfo(float).tiny
        assert_allclose(res.probe_state, PLUS, rtol=0, atol=1e-12)
        assert res.effective_H_error < 1e-12


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


class TestStackedTau:
    """A tau array is one computation; each row must be the scalar call."""

    def assert_rows_are_scalar_calls(self, sys_m, taus, n, alpha0):
        stacked = strobo_evolve(sys_m, taus, n, alpha0)
        scalars = [strobo_evolve(sys_m, tau, n, alpha0) for tau in taus]
        assert_same_bits(stacked.survival_prob,
                         [r.survival_prob for r in scalars])
        assert_same_bits(stacked.effective_H_error,
                         [r.effective_H_error for r in scalars])
        assert_same_bits(stacked.probe_state,
                         [r.probe_state for r in scalars])
        return stacked

    def test_mixed_grid_bit_for_bit(self):
        # 1e9 measurements up to the freeze time: undecayed rows, decayed
        # rows (the plain matrix power) and rows whose survival is 0
        sys_m = xx_model(probe_splitting=0.7 * G_COUPLING)
        taus = np.logspace(-7, 0, 15) * TAU_Z
        res = self.assert_rows_are_scalar_calls(sys_m, taus, 10**9, PLUS)
        s = res.survival_prob
        assert (s >= 0.5).any() and ((0 < s) & (s < 0.5)).any()
        zero = s == 0
        assert zero.any()
        assert np.isnan(res.probe_state[zero]).all()
        assert np.isnan(res.effective_H_error[zero]).all()
        assert not np.isnan(res.effective_H_error[~zero]).any()

    @pytest.mark.parametrize("n", [0, 1, 100])
    def test_random_system_against_loop(self, n):
        sys_m = random_system(np.random.default_rng(21))
        alpha0 = np.eye(3) / 3
        taus = np.logspace(-3, -0.5, 5)
        res = self.assert_rows_are_scalar_calls(sys_m, taus, n, alpha0)
        for i, tau in enumerate(taus):
            survival, probe = loop_reference(sys_m, tau, n, alpha0)
            assert res.survival_prob[i] == pytest.approx(survival, rel=1e-12,
                                                         abs=0)
            assert_allclose(res.probe_state[i], probe, rtol=0, atol=1e-12)

    def test_scalar_gives_scalars(self):
        res = strobo_evolve(xx_model(), 0.01, 10, PLUS)
        assert type(res.survival_prob) is float
        assert type(res.effective_H_error) is float
        assert res.probe_state.shape == (2, 2)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    def test_each_tau_validated(self, bad):
        taus = np.array([1e-3, 1e-2, bad, 1e-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError,
                               match="tau must be finite and > 0"):
                strobo_evolve(xx_model(), taus, 10, PLUS)


class TestRateEstimates:
    def test_zeno_time_reference_values(self):
        # m = 1e-18 kg, M = 1e-11 kg, b0 = 1.2e-5 m
        tau = zeno_time_estimate(1e-18, 1e-11, 1.2e-5)
        assert tau == pytest.approx(CONST.hbar * 1.2e-5
                                    / (CONST.G * 1e-18 * 1e-11), rel=1e-12)
        assert tau == pytest.approx(1.79794, rel=1e-4)
        assert tau == pytest.approx(1.9, rel=0.1)

    def test_zeno_time_linearity(self):
        t1 = zeno_time_estimate(1e-18, 1e-11, 1.2e-5)
        assert zeno_time_estimate(1e-18, 1e-11, 2.4e-5) == pytest.approx(2 * t1)
        assert zeno_time_estimate(2e-18, 1e-11, 1.2e-5) == pytest.approx(t1 / 2)

    def test_zeno_time_diverges_without_interaction(self):
        # vanishing probe mass: no coupling, no freeze deadline
        assert zeno_time_estimate(1e-30, 1e-11, 1.2e-5) > 1e10

    def test_zeno_time_validation(self):
        with pytest.raises(InvalidParameterError):
            zeno_time_estimate(0.0, 1e-11, 1e-5)

    def test_rate_bounds_arithmetic(self):
        lo, hi = zeno_rate_bounds(1.9, 100.0)
        assert lo == pytest.approx(0.5263, rel=1e-3)
        assert hi == pytest.approx(27.70, rel=1e-3)
        assert zeno_rate_bounds(10.0, 100.0) == (0.1, 1.0)
        assert zeno_rate_bounds(1.9, 0.0)[1] == 0.0

    def test_elementwise(self):
        m = np.array([1e-18, 2e-18])
        tau = zeno_time_estimate(m, 1e-11, 1.2e-5)
        assert list(tau) == [zeno_time_estimate(x, 1e-11, 1.2e-5)
                             for x in (1e-18, 2e-18)]
        lo, hi = zeno_rate_bounds(np.array([1.9, 10.0]), 100.0)
        assert list(lo) == [1 / 1.9, 0.1] and list(hi) == [100 / 1.9**2, 1.0]
        for bad in (np.nan, -1.0):
            with pytest.raises(InvalidParameterError, match="t_total"):
                zeno_rate_bounds(np.array([1.9, 10.0]), np.array([1.0, bad]))
            with pytest.raises(InvalidParameterError):
                zeno_time_estimate(np.array([1e-18, bad]), 1e-11, 1.2e-5)

    def test_survival_probability_forms(self):
        assert survival_probability(1e-3, 1.0, 0) == 1.0
        prod = survival_probability(1e-3, 1.0, 100000)
        assert prod == pytest.approx(0.904837, rel=1e-4)

    @pytest.mark.parametrize("x", [1e-9, 1e-6, 1e-4])
    def test_survival_formula_at_1e9_measurements(self, x):
        # a per-step deficit x^2 down to 1e-18, below the rounding of 1
        N = 10**9
        prod = survival_probability(x * TAU_Z, TAU_Z, N)
        with mpmath.workdps(40):
            exact = float((1 - mpmath.mpf(x) ** 2) ** N)
        assert prod == pytest.approx(exact, rel=1e-12, abs=0)

    def test_survival_matches_simulation(self):
        for tau in (TAU_Z / 100, TAU_Z / 300):
            res = strobo_evolve(xx_model(), tau, 50, PLUS)
            prod = survival_probability(tau, TAU_Z, 50)
            assert res.survival_prob == pytest.approx(prod, rel=0.05)

    def test_survival_probability_elementwise(self):
        # one call on a tau grid gives each tau's own value, bit for bit
        taus = np.logspace(-9, 0.1, 301).reshape(7, 43) * TAU_Z
        with pytest.warns(UserWarning, match="regime"):
            got = survival_probability(taus, TAU_Z, 1000)
        with pytest.warns(UserWarning, match="regime"):
            want = [survival_probability(tau, TAU_Z, 1000)
                    for tau in taus.ravel()]
        assert got.shape == taus.shape
        assert got.tobytes() == np.array(want).tobytes()
        taus[3, 5] = math.nan
        with pytest.raises(InvalidParameterError, match="tau and tau_Z"):
            survival_probability(taus, TAU_Z, 10)

    def test_out_of_regime_warns(self):
        with pytest.warns(UserWarning, match="regime"):
            survival_probability(2.0, 1.0, 3)

    def test_survival_is_nan_outside_freeze_regime(self):
        # (1 - x^2)^N is no probability for x >= 1: -6.1e9 at x = 1.5,
        # N = 101, and an overflow at N = 1000
        taus = np.array([0.5, 1.0, 1.5, 2.0])
        for N in (101, 1000):
            with pytest.warns(UserWarning, match="regime"):
                got = survival_probability(taus, 1.0, N)
            assert 0.0 <= got[0] <= 1.0
            assert np.isnan(got[1:]).all()
        # just inside, the deficit 1 - x^2 ~ eps still gives a value
        assert 0.0 < survival_probability(np.nextafter(1.0, 0.0), 1.0, 3) \
            < 1e-40

    @pytest.mark.parametrize("tau, tau_Z", [(math.nan, 1.0), (0.1, math.nan),
                                            (0.0, 1.0), (0.1, -1.0)])
    def test_survival_probability_rejects_nan_and_nonpositive(self, tau,
                                                              tau_Z):
        with pytest.raises(InvalidParameterError,
                           match="tau and tau_Z must be > 0"):
            survival_probability(tau, tau_Z, 10)
