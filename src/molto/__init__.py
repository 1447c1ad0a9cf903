"""Multi-objective level set topology optimization with adaptive simplex
refinement of the Pareto frontier."""

from .asd import (ASDConfig, ASDResult, SimplexComplex, SolutionRegister,
                  build_complex, dedup, mark_and_refine, mean_edge_length,
                  normalize_objectives, pareto_filter, run_asd)
from .elasticity import (FactorizedSystem, FixedBoundary, MaterialParams,
                         PointConstraint, Spring, StiffnessPattern,
                         StressAggregate, assemble_state, boundary_vector,
                         ersatz_dtau, ersatz_tau, heaviside, stress_aggregate)
from .errors import ConfigError, InvalidArgument, MoltoError, SolverFailure
from .levelset import (LevelSetState, WaveFactors, assemble_wave, factorize,
                       initialize)
from .mesh import Mesh, build_lshape_mesh, build_rect_mesh, tag_boundary
from .optimizer import RunConfig, SolutionCandidate, run_candidate, stationarity
from .problems import (ComplianceProblem, LoadCase, MechanismProblem,
                       StressVolumeProblem, SurrogateProblem, make_clamped_tri,
                       make_girder, make_gripper, make_lbracket)
from .sensitivity import (PerturbationResult, helmholtz_filter, normalize,
                          perturbation_compliance, perturbation_mechanism,
                          perturbation_stress_volume, reference_values,
                          update_multipliers)
from .weights import (WeightState, forcing, stick_jacobian, stick_to_weights,
                      weights_to_stick)

__version__ = "0.1.0"
