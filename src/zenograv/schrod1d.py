"""Finite-difference eigensolver for 1D polynomial multiwell potentials.

The problem is reduced to dimensionless form -psi'' + V(x) psi = E psi
with lengths in units of the well half-separation d and energies in units
of V0 = hbar^2 / (2 M d^2); conversion to joules happens only at the
boundary, which keeps the numerics away from 1e-47-joule underflow
territory.  The discrete operator is the three-point Laplacian with
Dirichlet boundaries, diagonalized as a symmetric tridiagonal matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .elementwise import require
from .errors import GridInsufficientError, InvalidParameterError

DEFAULT_GRID = (-4.0, 4.0, 4000)
# the largest grid solve_eigen accepts: on a 2-CPU machine 10**6 points
# solve in about 1.1 s, and the eigen command, CSV included, takes about
# 4 s and 0.4 GB
MAX_GRID_POINTS = 10**6
_BOUNDARY_AMPLITUDE = 1e-6

# classification thresholds (dimensionless, documented):
# relative gap below GAP_DEGENERATE flags a near-degenerate doublet;
# side-well probability below OUTSIDE_MIN means the state is essentially
# the central-well (harmonic-like) ground state.
GAP_DEGENERATE = 1e-3
OUTSIDE_MIN = 0.25


@dataclass(frozen=True)
class PotentialSpec1D:
    """V(x) = a x^2 - b x^4 + c x^6 in units of V0, x in units of d.

    a, b, c are dimensionless; M (kg) and d (m) fix the energy unit
    V0 = hbar^2/(2 M d^2).
    """

    a: float
    b: float
    c: float
    M: float     # source mass (kg)
    d: float     # length unit (m)

    def __post_init__(self):
        # written as x > 0, not as not x <= 0, so that NaN fails
        require(math.isfinite(self.a) and math.isfinite(self.b),
                "a and b must be finite")
        require(self.c > 0, "c must be > 0 (confining), got {}", self.c)
        require((self.M > 0) & (self.d > 0), "M and d must be > 0")

    def V0(self) -> float:
        """Energy unit hbar^2/(2 M d^2) in joules."""
        return CONST.hbar**2 / (2.0 * self.M * self.d**2)

    def potential(self, x):
        """Dimensionless V at dimensionless x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        return self.a * x**2 - self.b * x**4 + self.c * x**6

    def potential_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return 2 * self.a * x - 4 * self.b * x**3 + 6 * self.c * x**5


@dataclass(frozen=True)
class EigenSolution:
    energies: np.ndarray          # (k,) in joules, ascending
    energies_V0: np.ndarray       # (k,) dimensionless
    wavefunctions: np.ndarray     # (k, n) real, trapezoid-orthonormal
    grid: tuple[float, float, int]  # (x_min, x_max, n_points), units of d
    gap_01: float                 # E1 - E0 (J)
    potential: np.ndarray         # (n,) dimensionless V on the grid :attr:`x`

    @property
    def x(self) -> np.ndarray:
        x_min, x_max, n = self.grid
        return np.linspace(x_min, x_max, n)


def solve_eigen(spec: PotentialSpec1D, n_states: int = 2,
                grid: tuple[float, float, int] = DEFAULT_GRID) -> EigenSolution:
    """Lowest n_states eigenpairs of -psi'' + V psi = E psi on the grid.

    Raises GridInsufficientError when any returned wavefunction has
    boundary amplitude above 1e-6 of its peak (the Dirichlet box is then
    biasing the spectrum).
    """
    x_min, x_max, n = grid
    # written as x > 0, not as not x <= 0, so that NaN fails
    require(n >= 1000, "n_points must be >= 1000, got {}", n)
    require(n <= MAX_GRID_POINTS,
            f"n_points must be <= {MAX_GRID_POINTS} (the grid budget), got {{}}",
            n)
    require(1 <= n_states <= n,
            f"n_states must be in [1, n_points = {n}], got {{}}", n_states)
    require(math.isfinite(x_min) and math.isfinite(x_max),
            f"grid bounds must be finite, got [{x_min}, {x_max}]")
    require(x_max > x_min, "x_max must exceed x_min")
    x = np.linspace(x_min, x_max, n)
    h = x[1] - x[0]
    V = spec.potential(x)
    diag = 2.0 / h**2 + V
    off = np.full(n - 1, -1.0 / h**2)
    from scipy.linalg import eigh_tridiagonal   # here: no scipy at start-up
    energies, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, n_states - 1))

    # eigenvectors are l2-orthonormal; /sqrt(h) makes them trapezoid-
    # orthonormal (boundary values vanish with Dirichlet conditions)
    psi = (vecs / np.sqrt(h)).T

    for k in range(n_states):
        peak = np.abs(psi[k]).max()
        edge = max(abs(psi[k][0]), abs(psi[k][-1]))
        if edge > _BOUNDARY_AMPLITUDE * peak:
            raise GridInsufficientError(
                f"state {k} has boundary amplitude {edge/peak:.2e} of peak; "
                f"widen the grid beyond [{x_min}, {x_max}]")
        # fix sign: positive lobe first
        first = np.argmax(np.abs(psi[k]) > 1e-3 * peak)
        if psi[k][first] < 0:
            psi[k] = -psi[k]

    V0 = spec.V0()
    energies_J = energies * V0
    gap = energies_J[1] - energies_J[0] if n_states >= 2 else float("nan")
    return EigenSolution(energies=energies_J, energies_V0=energies,
                         wavefunctions=psi, grid=(x_min, x_max, n), gap_01=gap,
                         potential=V)


def potential_gradient(spec: PotentialSpec1D, x: float) -> float:
    """|dV/dx| in J/m at dimensionless position x: (V0/d)|2ax - 4bx^3 + 6cx^5|."""
    return spec.V0() / spec.d * abs(float(spec.potential_derivative(x)))


def find_wells(spec: PotentialSpec1D, x_max: float = DEFAULT_GRID[1]) -> dict:
    """Nonzero sign-changing critical points of V with |x| <= x_max.

    V'(x) = x (2a - 4b u + 6c u^2) with u = x^2, so the critical points
    besides x = 0 are x = +-sqrt(u) for the positive roots u of that
    quadratic, taken in the cancellation-free form.  x = 0, a critical
    point of every such V, is never returned, and neither is a double
    root (zero discriminant), where V' does not change sign.  At a simple
    root V'' = 2u (12 c u - 4b), whose sign tells a minimum from a maximum.

    Returns {"minima": [...], "maxima": [...]} in units of d, ascending.
    """
    A, B, C = 6.0 * spec.c, -4.0 * spec.b, 2.0 * spec.a
    disc = B * B - 4.0 * A * C
    minima, maxima = [], []
    if disc > 0:
        q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
        for u in (q / A, C / q):
            if u > 0 and math.sqrt(u) <= x_max:
                x = math.sqrt(u)
                (minima if 2.0 * A * u + B > 0 else maxima).extend((-x, x))
    return {"minima": sorted(minima), "maxima": sorted(maxima)}


@dataclass(frozen=True)
class GroundStateClassification:
    label: str                 # see classify_ground_state
    relative_gap: float        # (E1 - E0)/|E0|
    outside_fraction: float    # |psi0|^2 probability beyond the central barrier


def classify_ground_state(sol: EigenSolution, spec: PotentialSpec1D
                          ) -> GroundStateClassification:
    """Classify the ground state by gap and spatial delocalization.

    A relative gap below 1e-3 marks the near-degenerate (double-well
    tunneling doublet) regime; otherwise the probability weight outside
    the central barrier decides between a genuinely delocalized multiwell
    state (>= 0.25 outside) and an essentially central, harmonic-like one.
    """
    if len(sol.energies) < 2:
        raise InvalidParameterError("need at least 2 solved states to classify")
    E0, E1 = sol.energies[0], sol.energies[1]
    if E0 == 0.0:
        raise InvalidParameterError("E0 = 0: relative gap undefined")
    rel_gap = (E1 - E0) / abs(E0)

    solver_floor = 1e-10 * max(abs(sol.energies_V0[0]), 1.0)
    if abs(sol.energies_V0[1] - sol.energies_V0[0]) < solver_floor:
        warnings.warn("spectrum numerically degenerate beyond solver accuracy; "
                      "classification unreliable", stacklevel=2)

    wells = find_wells(spec, x_max=max(abs(sol.grid[0]), abs(sol.grid[1])))
    barriers = [b for b in wells["maxima"] if b > 0]
    x = sol.x
    psi0 = sol.wavefunctions[0]
    h = x[1] - x[0]
    if barriers:
        x_b = min(barriers)
        outside = float(np.trapezoid(np.where(np.abs(x) > x_b, psi0**2, 0.0), dx=h))
    else:
        x_b = None
        outside = 0.0

    if rel_gap < GAP_DEGENERATE:
        label = "near-degenerate-double-well"
    elif x_b is None or outside < OUTSIDE_MIN:
        label = "central-harmonic-like"
    else:
        label = "delocalized-triple-well"
    return GroundStateClassification(label=label, relative_gap=float(rel_gap),
                                     outside_fraction=outside)
