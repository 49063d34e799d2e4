"""Stroboscopic freeze dynamics on finite-dimensional probe-source models.

A bipartite system (probe P tensor source S) evolves unitarily for a step
tau, then the source is projectively measured against a target state phi.
Conditioning on the phi outcome every time ("selective" semantics) freezes
the source and steers the probe toward unitary evolution under the
effective Hamiltonian Tr_S[(1 x P_phi) H]; the survival probability of the
phi branch and its scaling in tau are the quantitative content.

The propagator exp(-iHt/hbar) comes from numpy's Hermitian
eigendecomposition H = V diag(lam) V^dagger; the tests check it against
scipy's expm.  The phi branch of n cycles is one matrix power, O(log n)
products, so the cost barely grows with n.  The power and the branch
carry only their small parts, the one-step block minus the identity,
so a per-step deficit far below the rounding of 1 is not lost; a branch
that has decayed below 1/2 is formed as the plain power instead, whose
relative error is about n x 1e-16.
A grid of measurement intervals tau is one stacked computation: H is
diagonalised once, every tau's one-step block is one row of a
(k, dP, dP) stack, and the power, the branch and the trace distance run
on the whole stack, each row with the bits of a call with its tau alone.
System dimensions are small (toy models up to ~16 x 16 per factor).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .elementwise import require, result
from .errors import InvalidParameterError

_HERM_TOL = 1e-12


def _check_hermitian(A: np.ndarray, name: str):
    # relative check: Hamiltonians carry joule scales (~1e-34), so an
    # absolute tolerance would be meaningless
    scale = np.linalg.norm(A, 2)
    if np.linalg.norm(A - A.conj().T, 2) > _HERM_TOL * scale:
        raise InvalidParameterError(f"{name} is not Hermitian within {_HERM_TOL}")


@dataclass(frozen=True)
class BipartiteSystem:
    """Probe-source Hamiltonian triple plus the source state to freeze.

    The probe dimension dP is ``len(H_P)`` and the source dimension dS
    is ``len(H_S)``; both must be square.  H_int lives on the product
    space with the probe factor first: kron(probe, source) ordering
    throughout.
    """

    H_P: np.ndarray          # (dP, dP), J
    H_S: np.ndarray          # (dS, dS), J
    H_int: np.ndarray        # (dP*dS, dP*dS), J
    phi: np.ndarray          # (dS,), unit vector

    def __post_init__(self):
        H_P = np.asarray(self.H_P, dtype=complex)
        H_S = np.asarray(self.H_S, dtype=complex)
        H_int = np.asarray(self.H_int, dtype=complex)
        phi = np.asarray(self.phi, dtype=complex).ravel()
        object.__setattr__(self, "H_P", H_P)
        object.__setattr__(self, "H_S", H_S)
        object.__setattr__(self, "H_int", H_int)
        object.__setattr__(self, "phi", phi)
        if not all(A.ndim == 2 and A.shape[0] == A.shape[1]
                   for A in (H_P, H_S)):
            raise InvalidParameterError("H_P and H_S must be square matrices")
        dP, dS = len(H_P), len(H_S)
        if H_int.shape != (dP * dS, dP * dS):
            raise InvalidParameterError("H_int must act on the product space")
        if phi.shape != (dS,):
            raise InvalidParameterError("phi dimension inconsistent with H_S")
        _check_hermitian(H_P, "H_P")
        _check_hermitian(H_S, "H_S")
        _check_hermitian(H_int, "H_int")
        if abs(np.linalg.norm(phi) - 1.0) > _HERM_TOL:
            raise InvalidParameterError("phi must be a unit vector")

    def total_hamiltonian(self) -> np.ndarray:
        IP = np.eye(len(self.H_P))
        IS = np.eye(len(self.H_S))
        return (np.kron(self.H_P, IS) + np.kron(IP, self.H_S) + self.H_int)


@dataclass(frozen=True)
class StroboscopicResult:
    """The phi branch after the cycles of :func:`strobo_evolve`: floats and
    one probe state for one tau, arrays stacked over the taus of a grid."""

    survival_prob: float | np.ndarray      # cumulative phi-branch probability
    probe_state: np.ndarray                # conditional probe density matrix
    effective_H_error: float | np.ndarray  # trace distance to effective-Hamiltonian evolution

    def __post_init__(self):
        s = self.survival_prob
        require((s >= -1e-10) & (s <= 1.0 + 1e-10),
                "survival probability out of [0, 1]")


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


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """(1/2)||rho - sigma||_1 for Hermitian matrices; a float for one pair,
    an array for stacks of them."""
    return result(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1))


def _phi_block(sys: BipartiteSystem, A: np.ndarray) -> np.ndarray:
    """<phi|A|phi>: the probe operator of A (on the product space) between
    source states phi, so that (1 x P_phi) A (1 x P_phi) = <phi|A|phi> x P_phi.
    Stacked over the leading axes of A."""
    dP, dS = len(sys.H_P), len(sys.H_S)
    A4 = A.reshape(A.shape[:-2] + (dP, dS, dP, dS))
    return np.einsum("s,...psqt,t->...pq", sys.phi.conj(), A4, sys.phi)


def _expm1(H: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(-iHt/hbar) - 1 for Hermitian H: V diag(expm1(-i lam t/hbar)) V^dagger.

    Stacked over the elements of t (one eigendecomposition of H for all)."""
    lam, V = np.linalg.eigh(H)
    phases = np.expm1(-1j * lam * np.asarray(t)[..., None] / CONST.hbar)
    return (V * phases[..., None, :]) @ V.conj().T


def _propagator(H: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(-iHt/hbar) for Hermitian H: 1 + :func:`_expm1`, stacked over t.

    The identity is added exactly, so a step with tiny phases is exactly
    the identity, as scipy's expm gives, and not V V^dagger, which is one
    only to rounding: a rounding of 1e-16 per step is 1e-7 after 1e9 steps.
    """
    return np.eye(len(H)) + _expm1(H, t)


def _dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def _trace(A: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix of a stack."""
    return np.trace(A, axis1=-2, axis2=-1).real


def _power_minus_one(E: np.ndarray, n: int) -> np.ndarray:
    """(1 + E)^n - 1 by repeated squaring, carrying only the small parts:
    (1 + A)(1 + B) - 1 = A + B + AB.  Stacked over the leading axes of E."""
    P = np.zeros_like(E)
    while n:
        if n & 1:
            P = P + E + P @ E
        E = E + E + E @ E
        n >>= 1
    return P


def effective_hamiltonian(sys: BipartiteSystem) -> np.ndarray:
    """H_phi = Tr_S[(1 x P_phi) H]: the probe generator once S is frozen.

    Equals the partial matrix element <phi|H|phi>, i.e.
    H_P + <phi|H_S|phi> + <phi|H_int|phi>.
    """
    return _phi_block(sys, sys.total_hamiltonian())


def strobo_evolve(sys: BipartiteSystem, tau: float | np.ndarray, n: int,
                  initial_probe: np.ndarray) -> StroboscopicResult:
    """n cycles of (evolve tau, project source onto phi), selectively.

    The source starts in phi.  The unnormalized phi-branch state is
    propagated; its trace after k steps is the probability that all k
    measurements found phi.  ``probe_state`` is the conditional probe
    state at the end, ``effective_H_error`` its trace distance from plain
    unitary evolution under the effective Hamiltonian for the same total
    time n*tau.

    Elementwise over tau: a float gives a float survival and error and a
    (dP, dP) probe state; an array of taus gives them stacked over its
    shape, from one computation over the whole grid.  H and the effective
    Hamiltonian are diagonalised once per call, and each row gets the
    bits that a call with its tau alone gives.

    With P = 1 x P_phi and rho_0 = alpha_0 x P_phi, P rho_0 P = rho_0, so
    the branch after k steps is W^k rho_0 (W^k)^dagger with W = P U P =
    w x P_phi, w = <phi|U|phi>: that is (w^k alpha_0 (w^k)^dagger) x P_phi.
    w is kept as 1 + E, E = <phi|U - 1|phi> straight from expm1, and w^n
    as 1 + E_n: E_(n-1) is one power by squaring (O(log n) products), one
    more product gives E_n (a rounding that ``zeno_scan.csv`` pins), and
    the branch is alpha_0 + D with D = E_n alpha_0 + alpha_0 E_n^dagger +
    E_n alpha_0 E_n^dagger, its trace tr alpha_0 + tr D; below a trace of
    1/2, it is formed from the plain power (1 + E)^n.  A row whose
    survival is 0 has a NaN probe state and error.
    """
    # written as x > 0, not as not x <= 0, so that NaN fails
    require((tau > 0) & (tau < math.inf),
            "tau must be finite and > 0, got {}", tau)
    require(n >= 0, "n must be >= 0, got {}", n)
    dP = len(sys.H_P)
    alpha0 = _check_density_matrix(initial_probe, dP)
    shape = np.shape(tau)
    t = np.ravel(tau).astype(float)
    alpha = np.broadcast_to(alpha0, t.shape + alpha0.shape)
    survival = np.full(t.shape, float(np.trace(alpha0).real))
    if n > 0:
        E = _phi_block(sys, _expm1(sys.total_hamiltonian(), t))
        E_prev = _power_minus_one(E, n - 1)
        E_n = E + E_prev + E @ E_prev
        E_n_dagger = _dagger(E_n)
        D = E_n @ alpha0 + alpha0 @ E_n_dagger + E_n @ alpha0 @ E_n_dagger
        alpha, survival = alpha0 + D, survival + _trace(D)
        decayed = ~(survival >= 0.5)
        if decayed.any():
            # tr D cancels tr alpha_0 to an absolute 1e-16, so form the
            # plain power, whose relative error is about n x 1e-16
            w_n = np.linalg.matrix_power(np.eye(dP) + E[decayed], n)
            alpha[decayed] = w_n @ alpha0 @ _dagger(w_n)
            survival[decayed] = _trace(alpha[decayed])
    probe = np.full(alpha.shape, np.nan, dtype=complex)
    err = np.full(t.shape, np.nan)
    live = survival > 0
    # numpy's complex division takes the divisor's reciprocal, which
    # overflows for a subnormal survival; a power-of-two scale is exact
    # and leaves every quotient of a normal survival bit for bit
    probe[live] = ((alpha[live] * 2.0**64)
                   / (survival[live, None, None] * 2.0**64))
    Uphi = _propagator(effective_hamiltonian(sys), n * t[live])
    err[live] = trace_distance(probe[live], Uphi @ alpha0 @ _dagger(Uphi))
    return StroboscopicResult(survival_prob=result(survival.reshape(shape)),
                              probe_state=probe.reshape(shape + (dP, dP)),
                              effective_H_error=result(err.reshape(shape)))


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


def survival_probability(tau, tau_Z: float, N: int):
    """Survival after N measurements: (1 - x^2)^N with x = tau/tau_Z.

    In the freeze regime the power is exp(N log1p(-x^2)), so a per-step
    deficit x^2 below the rounding of 1 is kept.  Outside it, at
    tau >= tau_Z, the short-time law gives no probability ((1 - x^2)^N is
    negative for odd N and overflows for large N), so the value is NaN
    there; only an x^2 that overflows raises, under the caller's errstate.
    Elementwise in tau: a float gives a float, an array an array of its
    shape.  The inputs are checked once; each element is then computed on
    its own scalar, as a float tau is (numpy's array power rounds some
    x^2 differently).
    """
    require((tau > 0) & (tau_Z > 0), "tau and tau_Z must be > 0")
    require(N >= 0, "N must be >= 0, got {}", N)
    if np.any(tau >= tau_Z):
        warnings.warn("tau >= tau_Z: outside the freeze regime, the quadratic "
                      "survival model is unreliable here", stacklevel=2)

    def survival(t):
        x2 = (t / tau_Z) ** 2
        return math.exp(N * math.log1p(-x2)) if x2 < 1 else math.nan

    if np.ndim(tau) == 0:
        return survival(tau)
    return np.reshape([survival(t) for t in np.ravel(tau)], np.shape(tau))


def spin_pair_model(g: float, probe_splitting: float = 0.0) -> BipartiteSystem:
    """Minimal 2x2 test model: H_int = g sx x sx, source target state |0>.

    The freeze-variance operator is g^2 * identity, so the freeze
    timescale is exactly hbar/g.  ``probe_splitting`` adds eps*sz on the
    probe, making the conditional probe dynamics nontrivial.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return BipartiteSystem(
        H_P=probe_splitting * sz,
        H_S=np.zeros((2, 2), dtype=complex),
        H_int=g * np.kron(sx, sx),
        phi=np.array([1.0, 0.0], dtype=complex),
    )
