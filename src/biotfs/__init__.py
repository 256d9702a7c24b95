"""Fixed-stress splitting solver for impermeable linear poroelasticity.

The package discretizes the quasi-static two-field problem with inf-sup
stable P2/P1 triangles on the unit square, solves it by the fixed-stress
splitting scheme and computes the provably optimal stabilization parameter
a priori from the extreme eigenvalues of the pressure Schur complement
pencil.
"""

__version__ = "0.1.0"

from .assembly import (
    BiotSystem,
    MaterialParams,
    apply_boundary_conditions,
    assemble_coupling,
    assemble_divdiv,
    assemble_elasticity,
    assemble_momentum_load,
    assemble_pressure_mass,
    assemble_source_moment,
    build_system,
    manufactured_sources,
    reduced_divdiv,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    SpectralConfig,
    SweepGrid,
    config_hash,
    default_config,
    load_config,
    parse_config,
)
from .linalg import (
    ConvergenceError,
    Factorization,
    FactorizationError,
    dense_generalized_symmetric_eigen,
    factorize,
    load_matrix_market,
    m_norm,
    save_matrix_market,
)
from .mesh import (
    DofMap,
    Mesh,
    build_structured_mesh,
    build_taylor_hood_dofs,
    mesh_to_text,
    triangle_areas,
    write_mesh_text,
)
from .solver import (
    IterationTrace,
    SolverConfig,
    TimeGrid,
    TimeMarchResult,
    TransientProblem,
    build_problem,
    dense_schur,
    fixed_stress_solve,
    fixed_stress_step,
    monolithic_solve,
    richardson_step,
    schur_rhs,
    step_loads,
    time_march,
)
from .spectral import (
    EstimationError,
    Pencil,
    SpectralEstimates,
    estimate_k_star,
    estimate_spectrum,
    optimal_parameters,
    schur_apply,
)
from .experiment import (
    estimate_report,
    solve_report,
    sweep_csv,
    sweep_report,
    verify_report,
)
