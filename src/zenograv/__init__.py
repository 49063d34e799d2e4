"""Toolkit for probing the gravity of a measurement-frozen delocalized source.

Submodules
----------
constants     shared physical constants and eV conversion
massdist      sphere-superposition sources: potential and field kernel
scatter       probe trajectories, deflection angles, pattern scans
rk45          scipy's RK45 step, controller and event root, reproduced
zeno          stroboscopic freeze dynamics on finite-dimensional models
schrod1d      1D multiwell eigensolver for the source's trap ground state
decoherence   environmental localization rates and probe classicality
feasibility   constraint intersection over experiment parameters
cli           command-line front-end (``zenograv <command>``)
"""

from .constants import CONST, PhysicalConstants, joules_to_ev
from .errors import (GridInsufficientError, IntegratorFailureError,
                     InvalidParameterError, ProjectionSingularError,
                     RateOverflowError, UnterminatedTrajectoryError,
                     ZenogravError)
from .massdist import (MassDistribution, SphereComponent, gravity_potential,
                       make_superposed_source, potential_at)
from .scatter import (ProbeTrajectory, ScatterConfig, ScatterPattern,
                      integrate_trajectory, kepler_scatter_time,
                      rutherford_angle, rutherford_angle_density,
                      scan_pattern, stereographic_project)
from .zeno import (BipartiteSystem, StroboscopicResult, effective_hamiltonian,
                   strobo_evolve, survival_probability, zeno_rate_bounds,
                   zeno_time_estimate)
from .schrod1d import (EigenSolution, PotentialSpec1D, classify_ground_state,
                       potential_gradient, solve_eigen)
from .decoherence import (DecoherenceBreakdown, Environment, blackbody_rates,
                          gamma_distance, mean_free_path, momentum_floor,
                          rest_gas_rate, total_decoherence)
from .feasibility import (ConstraintReport, ExperimentPoint, evaluate_point,
                          sweep_region)

__version__ = "0.1.0"
