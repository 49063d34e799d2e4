import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from zenograv.constants import CONST
from zenograv.errors import InvalidParameterError
from zenograv.zeno import (BipartiteSystem, effective_hamiltonian,
                           spin_pair_model, strobo_evolve,
                           survival_probability, system_from_json,
                           system_to_json, trace_distance,
                           zeno_rate_bounds, zeno_time_estimate, zeno_variance)

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
    return BipartiteSystem(dim_P=2, dim_S=2, H_P=0.3 * G_COUPLING * SZ,
                           H_S=np.zeros((2, 2)), H_int=G_COUPLING * np.kron(SZ, SZ),
                           phi=np.array([1.0, 0.0]))


def random_system(rng, dP=3, dS=3):
    def herm(n):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (A + A.conj().T) / 2
    phi = rng.normal(size=dS) + 1j * rng.normal(size=dS)
    phi /= np.linalg.norm(phi)
    return BipartiteSystem(dim_P=dP, dim_S=dS, H_P=herm(dP) * HBAR,
                           H_S=herm(dS) * HBAR, H_int=herm(dP * dS) * HBAR,
                           phi=phi)


class TestValidation:
    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InvalidParameterError):
            BipartiteSystem(2, 2, bad, np.zeros((2, 2)), np.zeros((4, 4)),
                            np.array([1.0, 0.0]))

    def test_non_unit_phi_rejected(self):
        with pytest.raises(InvalidParameterError):
            BipartiteSystem(2, 2, np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((4, 4)), np.array([1.0, 1.0]))

    def test_bad_density_matrix_rejected(self):
        sys_m = xx_model()
        with pytest.raises(InvalidParameterError):
            strobo_evolve(sys_m, 0.01, 5, np.array([[1.0, 0], [0, 1.0]]))
        with pytest.raises(InvalidParameterError):
            strobo_evolve(sys_m, -0.1, 5, PLUS)

    def test_eigenstate_flag(self):
        assert xx_model().phi_is_eigenstate()
        sys_m = BipartiteSystem(2, 2, np.zeros((2, 2)), G_COUPLING * SX,
                                np.zeros((4, 4)), np.array([1.0, 0.0]))
        assert not sys_m.phi_is_eigenstate()


class TestEffectiveHamiltonian:
    def test_decoupled_is_probe_plus_energy(self):
        E = 0.7 * HBAR
        sys_m = BipartiteSystem(2, 2, 0.3 * HBAR * SZ, E * np.eye(2),
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
            sys_ab = BipartiteSystem(3, 3, sys_m.H_P, sys_m.H_S,
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
        assert res.frozen_fidelity == pytest.approx(1.0, abs=1e-12)
        # probe still evolves unitarily under H_phi = H_P + g <0|sz|0> sz
        Hphi = effective_hamiltonian(zz_model())
        U = expm(-1j * Hphi * (0.3 * 50) / HBAR)
        assert trace_distance(res.probe_state, U @ PLUS @ U.conj().T) < 1e-10

    def test_decoupled_probe_unitary(self):
        E = 0.9 * HBAR
        sys_m = BipartiteSystem(2, 2, 0.5 * HBAR * SX, E * np.eye(2),
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
        P = sys_m.projector_phi()
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
        prod, lin = survival_probability(1e-3, 1.0, 0)
        assert prod == 1.0 and lin == 1.0
        prod, lin = survival_probability(1e-3, 1.0, 100000)
        assert prod == pytest.approx(0.904837, rel=1e-4)
        assert lin == pytest.approx(0.9, rel=1e-12)
        assert prod == pytest.approx(lin, rel=0.01)

    def test_survival_matches_simulation(self):
        for tau in (TAU_Z / 100, TAU_Z / 300):
            res = strobo_evolve(xx_model(), tau, 50, PLUS)
            prod, _ = survival_probability(tau, TAU_Z, 50)
            assert res.survival_prob == pytest.approx(prod, rel=0.05)

    def test_out_of_regime_warns(self):
        with pytest.warns(UserWarning, match="regime"):
            survival_probability(2.0, 1.0, 3)

    @pytest.mark.parametrize("tau, tau_Z", [(math.nan, 1.0), (0.1, math.nan),
                                            (0.0, 1.0), (0.1, -1.0)])
    def test_survival_probability_rejects_nan_and_nonpositive(self, tau,
                                                              tau_Z):
        with pytest.raises(InvalidParameterError,
                           match="tau and tau_Z must be > 0"):
            survival_probability(tau, tau_Z, 10)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        sys_m = random_system(rng, dP=2, dS=3)
        clone = system_from_json(system_to_json(sys_m))
        assert clone.dim_P == sys_m.dim_P and clone.dim_S == sys_m.dim_S
        assert_allclose(clone.H_int, sys_m.H_int, atol=0)
        assert_allclose(clone.phi, sys_m.phi, atol=0)

    def test_re_im_pair_layout(self):
        data = json.loads(system_to_json(xx_model()))
        # row-major [re, im] pairs: kron(sx, sx) has g at (0, 3)
        assert data["H_int"][0][3] == [G_COUPLING, 0.0]
        assert data["H_int"][0][1] == [0.0, 0.0]
        assert data["phi"][0] == [1.0, 0.0]
