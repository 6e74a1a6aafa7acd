"""Numerical toolkit for singular and relaxed stochastic control problems:
forward simulation, first-order adjoints and maximum-principle verification."""

from .adjoint import (
    AdjointPair,
    AuxiliaryProcesses,
    adjoint_bsde,
    adjoint_explicit,
    auxiliary_processes,
    duality_residual,
    martingale_route_P,
    variational_inequality_value,
)
from .controls import (
    RelaxedControl,
    SingularControl,
    StrictControl,
    as_relaxed,
    chattering,
    convex_combine,
    dirac_embed,
    regrid_relaxed,
)
from .model import (
    NoiseBatch,
    ProblemSpec,
    TimeGrid,
    builtin_problem,
    problem_from_json,
    problem_to_json,
    validate_problem,
)
from .optimality import (
    SufficiencyCertificate,
    Tolerances,
    VerificationReport,
    certify_sufficient,
    minimize_hamiltonian,
    relaxed_hamiltonian_batch,
    strict_hamiltonian_batch,
    verify_necessary,
)
from .sde import (
    FundamentalPair,
    TrajectoryEnsemble,
    VariationalEnsemble,
    estimate_cost,
    fundamental_solutions,
    simulate_relaxed,
    simulate_variational,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
