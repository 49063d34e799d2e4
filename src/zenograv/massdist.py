"""Source mass distributions built from weighted uniform spheres.

A delocalized source is represented as a finite set of uniform spheres:
each sphere carries the probability weight of one position of the source's
centre of mass, so the effective potential felt by a probe is the plain
Newtonian potential of the weighted collection.  The canonical case is the
symmetric two-position superposition: two spheres of half the total mass
on the x axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import CONST
from .elementwise import require
from .errors import InvalidParameterError


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
        # written as x > 0, not as not x <= 0, so that NaN fails
        require(self.radius > 0, "radius must be > 0, got {}", self.radius)
        require(self.mass > 0, "mass must be > 0, got {}", self.mass)


@dataclass(frozen=True)
class MassDistribution:
    """Weighted collection of uniform spheres; immutable after construction."""

    components: tuple[SphereComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise InvalidParameterError("need at least one sphere component")
        object.__setattr__(self, "components", tuple(self.components))
        if any(sep < a.radius + b.radius for a, b, sep in self._pairs()):
            warnings.warn("sphere components overlap; fields still superpose "
                          "but the two-position source model assumes disjoint lobes",
                          stacklevel=3)

    def _pairs(self):
        """(a, b, center separation) per pair of components; ``math.hypot``
        does not overflow for separations near the float range."""
        comps = self.components
        return [(a, b, math.hypot(*(p - q for p, q in zip(a.center, b.center))))
                for i, a in enumerate(comps) for b in comps[i + 1:]]

    @property
    def total_mass(self) -> float:
        """Sum of the component masses (kg), in component order."""
        return sum(c.mass for c in self.components)

    @cached_property
    def _field_stack(self):
        """The components as the stacked arrays of :func:`field_rows`,
        built once per distribution: centers (C, 3, 1), and radii, -G M
        and the interior factor -G M / R^3 as (C, 1) columns, each value
        computed as the per-component field computes it."""
        comps = self.components
        neg_gm = [-(CONST.G * c.mass) for c in comps]
        return (np.array([c.center for c in comps])[:, :, None],
                np.array([[c.radius] for c in comps]),
                np.array(neg_gm)[:, None],
                np.array([[ng / (c.radius * c.radius * c.radius)]
                          for ng, c in zip(neg_gm, comps)]))

    def length_scale(self) -> float:
        """Max of component radii and pairwise center separations (m)."""
        return max([c.radius for c in self.components]
                   + [sep for _, _, sep in self._pairs()])

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
    require(R > 0, "R must be > 0, got {}", R)
    require(density > 0, "density must be > 0, got {}", density)
    require(d >= 0, "d must be >= 0, got {}", d)
    M = 4.0 / 3.0 * np.pi * density * R**3
    if d == 0:
        return MassDistribution((SphereComponent((0.0, 0.0, 0.0), R, M),))
    return MassDistribution((
        SphereComponent((-d / 2, 0.0, 0.0), R, M / 2),
        SphereComponent((+d / 2, 0.0, 0.0), R, M / 2),
    ))


def potential_at(dist: MassDistribution, x, m_probe: float) -> float:
    """Gravitational potential energy (J) of a point probe at position x.

    One row of :func:`gravity_potential`.
    """
    return float(gravity_potential(dist, np.reshape(x, (1, 3)), m_probe)[0])


def gravity_potential(dist: MassDistribution, x, m_probe: float) -> np.ndarray:
    """Potential energy (J) of a point probe of mass m_probe at each row of x.

    x has shape (n, 3); the result has shape (n,).  Exterior of a
    component the sphere acts as a point mass, -G m M/s; in the interior
    the exact uniform-sphere form -G m M (3R^2 - s^2)/(2R^3) keeps
    grazing/penetrating trajectories well defined.  The distance s is
    formed as in :func:`field_rows`, and the exterior divide is masked
    to the exterior, so a point at a component center gives no
    floating-point warning.
    """
    x = np.asarray(x, dtype=float)
    Gm = CONST.G * m_probe
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


def field_rows(dist: MassDistribution, x, out=None) -> np.ndarray:
    """The field kernel: accelerations (3, m) at the points whose
    coordinates are the rows of x (3, m), all components at once.

    On the distribution's field stack (``MassDistribution._field_stack``,
    built on first use and kept), d = x - c is (C, 3, m), s^2 is summed
    in coordinate order by a reduce from -0.0 (see :func:`rk45.rms`), the
    factor is where(s >= R, -G M/(s^2 s), -G M/R^3), and the terms are
    added in component order by a reduce from 0.0, the zeroed
    accumulator.  Every element's arithmetic is the
    scalar right-hand side's, whatever the batch.  The result goes into
    ``out`` when one is given (any (3, m) float view, such as rows of the
    engine's stage array), else into a new array; either is returned.
    Floating-point warnings are the caller's: the exterior branch
    divides by zero at a component center.
    """
    centers, radius, neg_gm, interior = dist._field_stack
    d = x - centers
    s2 = np.add.reduce(d * d, axis=1, initial=-0.0)
    s = np.sqrt(s2)
    f = np.where(s >= radius, neg_gm / (s2 * s), interior)
    return np.add.reduce(f[:, None] * d, axis=0, initial=0.0, out=out)
