"""Exactly solvable Hermitian dilation of a swept two-level PT-symmetric model.

Analytic Whittaker/closed-form solutions, the two-parameter metric operator
with validity analysis, the 4x4 Hermitian embedding, and verified
co-simulation of both systems.
"""

from .dilation import (
    DilatedHamiltonian,
    H4Mode,
    assemble_dilated,
    hermiticity_defect,
    tau_derivative,
    tau_from_metric,
)
from .errors import (
    BreakdownError,
    DegenerateDenominatorError,
    DomainError,
    IntegrationError,
    InvalidMetricError,
    NearBreakdownError,
    OverflowRangeError,
    PTDilateError,
    ValidationError,
)
from .evolve import (
    EvolutionConfig,
    Trajectory,
    dilation_efficiency,
    integrate_linear,
    propagate_analytic,
    simulate_dilated,
)
from .metric import (
    DilationParams,
    MetricState,
    Region,
    approx_bounds_interval,
    breakdown_time,
    eigenvalues,
    equal_d_bound,
    eta_evolution_residual,
    metric,
    metric_asymptotics,
    refined_d1_bound,
    validity,
)
from .model import (
    HamiltonianParams,
    PhaseLabel,
    Spectrum,
    SIGMA_X,
    hamiltonian,
    instantaneous_spectrum,
)
from .solutions import (
    Representation,
    SolutionBasis,
    model_kappas,
    solution_basis,
    wronskian,
)
from .specfun import (
    Ray,
    RayArgument,
    WhittakerIndex,
    erfi,
    hermite_poly,
    whittaker_w,
)

__version__ = "0.1.0"
