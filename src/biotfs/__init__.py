"""Fixed-stress splitting solver for impermeable linear poroelasticity.

The package discretizes the quasi-static two-field problem with inf-sup
stable P2/P1 triangles on the unit square, solves it by the fixed-stress
splitting scheme and computes the provably optimal stabilization parameter
a priori from the extreme eigenvalues of the pressure Schur complement
pencil.
"""

__version__ = "0.1.0"

from .assembly import MaterialParams, assemble_momentum_load, assemble_source_moment
from .config import default_config
from .linalg import (
    ConvergenceError,
    FactorizationError,
    dense_generalized_symmetric_eigen,
    m_norm,
)
from .solver import (
    SolverConfig,
    TimeGrid,
    build_problem,
    dense_schur,
    fixed_stress_solve,
    monolithic_solve,
    step_loads,
    time_march,
)
from .spectral import (
    EstimationError,
    estimate_k_star,
    estimate_spectrum,
    optimal_parameters,
    schur_apply,
)
from .experiment import sweep_csv, sweep_report
