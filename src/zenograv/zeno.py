"""Stroboscopic freeze dynamics on finite-dimensional probe-source models.

A bipartite system (probe P tensor source S) evolves unitarily for a step
tau, then the source is projectively measured against a target state phi.
Conditioning on the phi outcome every time ("selective" semantics) freezes
the source and steers the probe toward unitary evolution under the
effective Hamiltonian Tr_S[(1 x P_phi) H]; the survival probability of the
phi branch and its scaling in tau are the quantitative content.

Matrix exponentials use scipy's Pade scaling-and-squaring expm; system
dimensions are small (toy models up to ~16 x 16 per factor), so the exact
propagator is both the engine and the brute-force oracle.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .elementwise import require
from .errors import InvalidParameterError

_HERM_TOL = 1e-12
_EIGEN_TOL = 1e-10   # phi_is_eigenstate: residual relative to ||H_S||


def _check_hermitian(A: np.ndarray, name: str):
    # relative check: Hamiltonians carry joule scales (~1e-34), so an
    # absolute tolerance would be meaningless
    scale = np.linalg.norm(A, 2)
    if np.linalg.norm(A - A.conj().T, 2) > _HERM_TOL * scale:
        raise InvalidParameterError(f"{name} is not Hermitian within {_HERM_TOL}")


@dataclass(frozen=True)
class BipartiteSystem:
    """Probe-source Hamiltonian triple plus the source state to freeze.

    H_int lives on the product space with the probe factor first:
    kron(probe, source) ordering throughout.
    """

    dim_P: int
    dim_S: int
    H_P: np.ndarray          # (dim_P, dim_P), J
    H_S: np.ndarray          # (dim_S, dim_S), J
    H_int: np.ndarray        # (dim_P*dim_S, dim_P*dim_S), J
    phi: np.ndarray          # (dim_S,), unit vector

    def __post_init__(self):
        H_P = np.asarray(self.H_P, dtype=complex)
        H_S = np.asarray(self.H_S, dtype=complex)
        H_int = np.asarray(self.H_int, dtype=complex)
        phi = np.asarray(self.phi, dtype=complex).ravel()
        object.__setattr__(self, "H_P", H_P)
        object.__setattr__(self, "H_S", H_S)
        object.__setattr__(self, "H_int", H_int)
        object.__setattr__(self, "phi", phi)
        dP, dS = self.dim_P, self.dim_S
        if H_P.shape != (dP, dP) or H_S.shape != (dS, dS):
            raise InvalidParameterError("H_P/H_S shapes inconsistent with dims")
        if H_int.shape != (dP * dS, dP * dS):
            raise InvalidParameterError("H_int must act on the product space")
        if phi.shape != (dS,):
            raise InvalidParameterError("phi dimension inconsistent with dim_S")
        _check_hermitian(H_P, "H_P")
        _check_hermitian(H_S, "H_S")
        _check_hermitian(H_int, "H_int")
        if abs(np.linalg.norm(phi) - 1.0) > _HERM_TOL:
            raise InvalidParameterError("phi must be a unit vector")

    def total_hamiltonian(self) -> np.ndarray:
        IP = np.eye(self.dim_P)
        IS = np.eye(self.dim_S)
        return (np.kron(self.H_P, IS) + np.kron(IP, self.H_S) + self.H_int)

    def projector_phi(self) -> np.ndarray:
        """1 x P_phi on the product space."""
        P = np.outer(self.phi, self.phi.conj())
        return np.kron(np.eye(self.dim_P), P)

    def phi_is_eigenstate(self) -> bool:
        """Whether the source Hamiltonian leaves phi invariant (trapped source)."""
        norm = np.linalg.norm(self.H_S, 2)
        if norm == 0.0:
            return True
        r = self.H_S @ self.phi
        E = np.vdot(self.phi, r)
        return bool(np.linalg.norm(r - E * self.phi) <= _EIGEN_TOL * norm)


@dataclass(frozen=True)
class StroboscopicResult:
    n_steps: int
    tau: float                    # s
    survival_prob: float          # cumulative phi-branch probability
    probe_state: np.ndarray       # conditional probe density matrix
    frozen_fidelity: float        # last pre-measurement source overlap with phi
    effective_H_error: float      # trace distance to effective-Hamiltonian evolution

    def __post_init__(self):
        if not -1e-10 <= self.survival_prob <= 1.0 + 1e-10:
            raise InvalidParameterError("survival probability out of [0, 1]")


def _check_density_matrix(rho: np.ndarray, dim: int):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise InvalidParameterError(f"density matrix must be {dim}x{dim}")
    _check_hermitian(rho, "density matrix")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise InvalidParameterError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise InvalidParameterError("density matrix must be positive semidefinite")
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2)||rho - sigma||_1 for Hermitian matrices."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def effective_hamiltonian(sys: BipartiteSystem) -> np.ndarray:
    """H_phi = Tr_S[(1 x P_phi) H]: the probe generator once S is frozen.

    Equals the partial matrix element <phi|H|phi>, i.e.
    H_P + <phi|H_S|phi> + <phi|H_int|phi>.
    """
    H = sys.total_hamiltonian()
    H4 = H.reshape(sys.dim_P, sys.dim_S, sys.dim_P, sys.dim_S)
    return np.einsum("s,psqt,t->pq", sys.phi.conj(), H4, sys.phi)


def zeno_variance(sys: BipartiteSystem) -> np.ndarray:
    """DeltaH^2_phi = Tr_S[(1 x P_phi) H^2] - H_phi^2 (positive semidefinite).

    Its operator norm sets the freeze timescale hbar/sqrt(||DeltaH^2_phi||):
    the per-step survival deficit is Tr[alpha DeltaH^2_phi] (tau/hbar)^2 at
    second order.
    """
    H = sys.total_hamiltonian()
    H2 = (H @ H).reshape(sys.dim_P, sys.dim_S, sys.dim_P, sys.dim_S)
    mom2 = np.einsum("s,psqt,t->pq", sys.phi.conj(), H2, sys.phi)
    Hphi = effective_hamiltonian(sys)
    return mom2 - Hphi @ Hphi


def strobo_evolve(sys: BipartiteSystem, tau: float, n: int,
                  initial_probe: np.ndarray) -> StroboscopicResult:
    """n cycles of (evolve tau, project source onto phi), selectively.

    The source starts in phi.  The unnormalized phi-branch state is
    propagated; its trace after k steps is the probability that all k
    measurements found phi.  ``probe_state`` is the conditional probe
    state at the end, ``effective_H_error`` its trace distance from plain
    unitary evolution under the effective Hamiltonian for the same total
    time n*tau.
    """
    # written as x > 0, not as not x <= 0, so that NaN fails
    require(0 < tau < math.inf, "tau must be finite and > 0, got {}", tau)
    require(n >= 0, "n must be >= 0, got {}", n)
    alpha0 = _check_density_matrix(initial_probe, sys.dim_P)
    from scipy.linalg import expm   # here: no scipy at start-up

    hbar = CONST.hbar
    H = sys.total_hamiltonian()
    U = expm(-1j * H * tau / hbar)
    P = sys.projector_phi()
    Pphi = np.outer(sys.phi, sys.phi.conj())

    rho = np.kron(alpha0, Pphi)      # unnormalized phi branch
    survival = before = float(np.trace(rho).real)
    for _ in range(n):
        rho = P @ (U @ rho @ U.conj().T) @ P
        before, survival = survival, float(np.trace(rho).real)
    # U is unitary, so the last step's pre-measurement trace is tr rho_{n-1}
    frozen_fidelity = 1.0 if n == 0 else survival / before if before > 0 else 0.0
    if survival > 0:
        probe = np.einsum("psqs->pq",
                          rho.reshape(sys.dim_P, sys.dim_S,
                                      sys.dim_P, sys.dim_S)) / survival
    else:
        probe = np.full((sys.dim_P, sys.dim_P), np.nan, dtype=complex)

    Hphi = effective_hamiltonian(sys)
    Uphi = expm(-1j * Hphi * (n * tau) / hbar)
    target = Uphi @ alpha0 @ Uphi.conj().T
    err = trace_distance(probe, target) if survival > 0 else float("nan")

    return StroboscopicResult(n_steps=n, tau=tau, survival_prob=survival,
                              probe_state=probe, frozen_fidelity=frozen_fidelity,
                              effective_H_error=err)


def zeno_time_estimate(m, M, b0):
    """Freeze timescale hbar * b0 / (G m M) for a gravitating probe-source pair (s).

    b0 is the closest-approach scale of the scattering trajectory; the
    measurement interval must sit well below this time for the freeze to
    hold.  Elementwise over floats or broadcastable arrays.
    """
    require((m > 0) & (M > 0) & (b0 > 0), "m, M, b0 must all be > 0")
    return CONST.hbar * b0 / (CONST.G * m * M)


def zeno_rate_bounds(tau_Z, t_total):
    """Lower bounds on the measurement rate: (1/tau_Z, t_total/tau_Z^2).

    The first keeps each interval short against the interaction timescale;
    the second keeps the cumulative survival probability of a t_total-long
    run near one.  The binding bound is their maximum.  Elementwise.
    """
    require(tau_Z > 0, "tau_Z must be > 0, got {}", tau_Z)
    require(t_total >= 0, "t_total must be >= 0, got {}", t_total)
    return 1.0 / tau_Z, t_total / tau_Z**2


def survival_probability(tau: float, tau_Z: float, N: int) -> tuple[float, float]:
    """Survival after N measurements: ((1-(tau/tau_Z)^2)^N, 1 - N (tau/tau_Z)^2)."""
    require((tau > 0) & (tau_Z > 0), "tau and tau_Z must be > 0")
    require(N >= 0, "N must be >= 0, got {}", N)
    if tau >= tau_Z:
        warnings.warn("tau >= tau_Z: outside the freeze regime, the quadratic "
                      "survival model is unreliable here", stacklevel=2)
    x2 = (tau / tau_Z) ** 2
    return (1.0 - x2) ** N, 1.0 - N * x2


# ---------------------------------------------------------------------------
# Model serialization: dense complex matrices as [re, im] pairs, row-major
# ---------------------------------------------------------------------------

def _matrix_to_json(A: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(A, complex)]


def _matrix_from_json(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def system_to_json(sys: BipartiteSystem) -> str:
    data = {
        "dim_P": sys.dim_P,
        "dim_S": sys.dim_S,
        "H_P": _matrix_to_json(sys.H_P),
        "H_S": _matrix_to_json(sys.H_S),
        "H_int": _matrix_to_json(sys.H_int),
        "phi": [[float(z.real), float(z.imag)] for z in sys.phi],
    }
    return json.dumps(data, indent=1)


def system_from_json(text: str) -> BipartiteSystem:
    data = json.loads(text)
    return BipartiteSystem(
        dim_P=data["dim_P"], dim_S=data["dim_S"],
        H_P=_matrix_from_json(data["H_P"]),
        H_S=_matrix_from_json(data["H_S"]),
        H_int=_matrix_from_json(data["H_int"]),
        phi=np.array([complex(re, im) for re, im in data["phi"]]),
    )


def spin_pair_model(g: float, probe_splitting: float = 0.0) -> BipartiteSystem:
    """Minimal 2x2 test model: H_int = g sx x sx, source target state |0>.

    The freeze-variance operator is g^2 * identity, so the freeze
    timescale is exactly hbar/g.  ``probe_splitting`` adds eps*sz on the
    probe, making the conditional probe dynamics nontrivial.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return BipartiteSystem(
        dim_P=2, dim_S=2,
        H_P=probe_splitting * sz,
        H_S=np.zeros((2, 2), dtype=complex),
        H_int=g * np.kron(sx, sx),
        phi=np.array([1.0, 0.0], dtype=complex),
    )
