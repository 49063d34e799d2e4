"""Source mass distributions built from weighted uniform spheres.

A delocalized source is represented as a finite set of uniform spheres:
each sphere carries the probability weight of one position of the source's
centre of mass, so the effective potential felt by a probe is the plain
Newtonian potential of the weighted collection.  The canonical case is the
symmetric two-position superposition: two spheres of half the total mass
on the x axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import CONST, PhysicalConstants
from .errors import InvalidParameterError

_TOTAL_MASS_RTOL = 1e-12


@dataclass(frozen=True)
class SphereComponent:
    """One uniform sphere: center (m, 3-vector), radius (m), mass (kg)."""

    center: tuple[float, float, float]
    radius: float
    mass: float

    def __post_init__(self):
        if len(self.center) != 3:
            raise InvalidParameterError("center must be a 3-vector")
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        # written as not (x > 0) so that NaN fails every check
        if not (self.radius > 0):
            raise InvalidParameterError(f"radius must be > 0, got {self.radius}")
        if not (self.mass > 0):
            raise InvalidParameterError(f"mass must be > 0, got {self.mass}")


@dataclass(frozen=True)
class MassDistribution:
    """Weighted collection of uniform spheres; immutable after construction."""

    components: tuple[SphereComponent, ...]
    total_mass: float = field(default=None)  # kg; defaults to sum of components

    def __post_init__(self):
        if not self.components:
            raise InvalidParameterError("need at least one sphere component")
        object.__setattr__(self, "components", tuple(self.components))
        msum = sum(c.mass for c in self.components)
        if self.total_mass is None:
            object.__setattr__(self, "total_mass", msum)
        elif not (abs(self.total_mass - msum) <= _TOTAL_MASS_RTOL * msum):
            raise InvalidParameterError(
                f"total_mass {self.total_mass} != sum of component masses {msum}")
        if self._has_overlap():
            warnings.warn("sphere components overlap; fields still superpose "
                          "but the two-position source model assumes disjoint lobes",
                          stacklevel=3)

    def _has_overlap(self) -> bool:
        comps = self.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                sep = np.linalg.norm(np.subtract(comps[i].center, comps[j].center))
                if sep < comps[i].radius + comps[j].radius:
                    return True
        return False

    def length_scale(self) -> float:
        """Max of component radii and pairwise center separations (m)."""
        comps = self.components
        scale = max(c.radius for c in comps)
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                sep = float(np.linalg.norm(
                    np.subtract(comps[i].center, comps[j].center)))
                scale = max(scale, sep)
        return scale

    def to_dict(self) -> dict:
        return {"components": [{"center": list(c.center),
                                "radius": c.radius,
                                "mass": c.mass} for c in self.components]}

    @classmethod
    def from_dict(cls, data: dict) -> "MassDistribution":
        comps = [SphereComponent(tuple(c["center"]), c["radius"], c["mass"])
                 for c in data["components"]]
        return cls(tuple(comps))


def make_superposed_source(R: float, density: float, d: float) -> MassDistribution:
    """Two-position superposed sphere: lobes of mass M/2 at x = -d/2 and +d/2.

    Parameters
    ----------
    R : sphere radius (m)
    density : material density (kg/m^3); M = (4/3) pi density R^3
    d : separation of the two positions (m); d = 0 collapses to a single
        sphere of mass M at the origin.
    """
    if not (R > 0):
        raise InvalidParameterError(f"R must be > 0, got {R}")
    if not (density > 0):
        raise InvalidParameterError(f"density must be > 0, got {density}")
    if not (d >= 0):
        raise InvalidParameterError(f"d must be >= 0, got {d}")
    M = 4.0 / 3.0 * np.pi * density * R**3
    if d == 0:
        return MassDistribution((SphereComponent((0.0, 0.0, 0.0), R, M),))
    return MassDistribution((
        SphereComponent((-d / 2, 0.0, 0.0), R, M / 2),
        SphereComponent((+d / 2, 0.0, 0.0), R, M / 2),
    ))


def potential_at(dist: MassDistribution, x, m_probe: float,
                 constants: PhysicalConstants = CONST) -> float:
    """Gravitational potential energy (J) of a point probe at position x.

    One row of :func:`gravity_potential`.
    """
    return float(gravity_potential(dist, np.reshape(x, (1, 3)), m_probe,
                                   constants)[0])


def gravity_potential(dist: MassDistribution, x, m_probe: float,
                      constants: PhysicalConstants = CONST) -> np.ndarray:
    """Potential energy (J) of a point probe of mass m_probe at each row of x.

    x has shape (n, 3); the result has shape (n,).  Exterior of a
    component the sphere acts as a point mass, -G m M/s; in the interior
    the exact uniform-sphere form -G m M (3R^2 - s^2)/(2R^3) keeps
    grazing/penetrating trajectories well defined.  The distance s is
    formed as in :func:`gravity_field`, and the exterior divide is masked
    to the exterior, so a point at a component center gives no
    floating-point warning.
    """
    x = np.asarray(x, dtype=float)
    Gm = constants.G * m_probe
    V = np.zeros(len(x))
    for comp in dist.components:
        d = x - comp.center
        s = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
        R = comp.radius
        GmM = Gm * comp.mass
        term = GmM * (3 * R**2 - s * s) / (2 * R**3)
        np.divide(GmM, s, out=term, where=s >= R)
        V -= term
    return V


def gravity_field(dist: MassDistribution, x,
                  constants: PhysicalConstants = CONST) -> np.ndarray:
    """Gravitational acceleration (m/s^2) at each row of x, shape (n, 3).

    Per component, -G M (x-c)/s^3 outside the sphere and -G M (x-c)/R^3
    inside (linear restoring field), evaluated in the same operation order
    as the scalar integrator right-hand side.  The exterior divide is
    masked to the exterior, so a point at a component center (interior,
    x-c = 0) contributes zero without a floating-point warning.
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros(x.shape)
    for comp in dist.components:
        d = x - comp.center
        s2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        s = np.sqrt(s2)
        GM = constants.G * comp.mass
        R = comp.radius
        f = np.full(s.shape, -GM / (R * R * R))
        np.divide(-GM, s2 * s, out=f, where=s >= R)
        acc += f[:, None] * d
    return acc


def force_at(dist: MassDistribution, x, m_probe: float,
             constants: PhysicalConstants = CONST) -> np.ndarray:
    """Gravitational force (N, 3-vector) on a point probe at position x.

    Analytic gradient of :func:`potential_at`: m_probe times
    :func:`gravity_field` at the single point x.
    """
    return m_probe * gravity_field(dist, np.reshape(x, (1, 3)), constants)[0]
