"""Planar Kirchhoff rod dynamics with a semi-analytic integration scheme."""

from .errors import (
    ConfigurationError,
    DegeneracyError,
    DivergenceError,
    DomainError,
    InputError,
    InstabilityError,
    NumericalError,
    OutOfRangeError,
    RodSimError,
    SingularSystemError,
    SizeError,
)
from .grid_fields import (
    Grid1D,
    SampledFn,
    central_diff,
    cumtrapz,
    integrate_ode_rk4,
)
from .integrators import max_stable_dt
from .reduction import (
    developable_residuals,
    extract_speed_profile,
    potential_system_residuals,
    reconstruct_potentials,
)
from .rod_model import (
    BoundaryConditions,
    MaterialParams,
    reconstruct_centerline,
)
from .scenarios import (
    ScenarioConfig,
    Trajectory,
    benchmark_stability,
    default_config,
    run_scenario,
)
from .solution_family import (
    CauchyTrace,
    SolutionFamily,
    evaluate_family,
    family_to_json,
    match_boundary_trace,
    parameter_free_residuals,
    random_family,
    sample_state,
    verify_trace_match,
)

__version__ = "0.1.0"
