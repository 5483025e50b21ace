"""stefanlab: a numerical laboratory for one-phase free-boundary particle systems.

Four subsystems: density families (densities), admission-condition checks
(conditions), the cascade-resolving particle solver and minimal-solution
iteration (solver), and the closed-form constant / Monte Carlo bound
verification (bounds). The cli module binds them into one executable.
"""
from .densities import (
    Density,
    DensityError,
    GaussianPathDensity,
    PeriodicOscillatoryDensity,
    PiecewiseGeometricDensity,
    TabulatedDensity,
    build_gaussian_path,
    make_density,
    make_piecewise,
    tabulated_from_csv,
    uniform_density,
)

__version__ = "0.1.0"

__all__ = [
    "Density",
    "DensityError",
    "GaussianPathDensity",
    "PeriodicOscillatoryDensity",
    "PiecewiseGeometricDensity",
    "TabulatedDensity",
    "build_gaussian_path",
    "make_density",
    "make_piecewise",
    "tabulated_from_csv",
    "uniform_density",
    "__version__",
]
