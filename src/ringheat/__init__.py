"""Exact temperature fields in an expanding rotating liquid ring.

The ring of incompressible liquid (two viscosities: dissipative mu,
nondissipative mu0) expands by inertia with both free boundaries stress
free.  This package carries the exact flow branch, the closed-form
temperature solutions in reduced and dimensional variables, a residual
engine that substitutes each form back into its governing equation, and an
independent finite-difference solver that must converge to the closed forms
at second order (method of manufactured solutions).
"""

from .core import (
    C5_MIN,
    PhysicalParams,
    ReducedParams,
    ReferenceCase,
    SingularConstantError,
    SingularTimeError,
    SolutionConstants,
    ValidationError,
    from_reduced,
    reduce_params,
    reference_case_K,
    to_reduced,
    unit_embedding,
)
from .flow import (
    angular_momentum,
    exact_omega,
    pressure,
    radii,
    stress_components,
    velocities,
)
from .temperature import (
    BoundaryTraces,
    InvariantSolutionGeneral,
    InvariantSolutionSimple,
    boundary_difference_C,
    boundary_traces,
    c5_nonnegativity_bound,
    dimensional_T,
    initial_profile,
    k_for_equal_boundaries,
    theta_general,
    theta_reference,
    theta_simple,
)
from .verification import (
    DerivativeEngine,
    ResidualReport,
    published_flux_discrepancy,
    run_suite,
)
from .solver import (
    DivergenceError,
    Grid1D,
    SolveResult,
    SolverConfig,
    convergence_study,
    solve_general,
    solve_reference,
)

__version__ = "0.1.0"
