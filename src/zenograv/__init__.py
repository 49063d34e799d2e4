"""Toolkit for probing the gravity of a measurement-frozen delocalized source.

The package re-exports nothing: import the submodule that defines a
name, as in ``from zenograv import scatter``.

Submodules
----------
constants     shared physical constants and eV conversion
errors        the toolkit's exception hierarchy
elementwise   float-or-array helpers for closed forms, and the CSV writer
massdist      sphere-superposition sources: potential and field kernel
scatter       probe trajectories, deflection angles, pattern scans
rk45          scipy's RK45 step, controller and event root, reproduced
zeno          stroboscopic freeze dynamics on finite-dimensional models
schrod1d      1D multiwell eigensolver for the source's trap ground state
decoherence   environmental localization rates and probe classicality
feasibility   constraint intersection over experiment parameters
cli           command-line front-end (``zenograv <command>``)
"""

__version__ = "0.1.0"
