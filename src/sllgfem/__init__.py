"""Finite element solver for the stochastic Landau-Lifshitz-Gilbert
equation with multi-dimensional Stratonovich noise.

The stochastic PDE is rewritten pathwise as a random-coefficient
deterministic PDE through a rotation-valued transformation; a linear
theta-scheme then advances the transformed field on the unit sphere one
tangent-space solve per step, unconditionally stable for theta > 1/2.
Submodules: mesh (simplicial meshes), fem (P1 spaces and assembly),
wiener (Brownian drivers), noise (coefficient fields), rotation (the
pointwise rotation process and its gradient), scheme (the time stepper),
reconstruct (physical-field recovery and residual monitors), config /
studies / cli (run orchestration), vtkio (snapshots).
"""

from .config import SimulationConfig, load_config
from .errors import (AssemblyError, ConfigError, MeshError,
                     NormalizationError, SLLGError, SolverFailure,
                     TimeMismatchError)
from .fem import (OffdiagReport, P1Space, assemble_lumped_mass,
                  assemble_stiffness, check_offdiag_condition,
                  discrete_lp_norm, interpolate_nodal, normalize_nodal)
from .mesh import Mesh, build_structured_mesh, read_mesh_text, write_mesh_text
from .noise import (NoiseCoefficients, NoiseComponent, PRESETS,
                    constant_component, linear_gradient_component,
                    make_noise)
from .reconstruct import (TestField, TrajectoryInterpolants,
                          interpolant_errors, reconstruct_M, solve_phi,
                          make_test_field, weak_residual)
from .rotation import (RotationField, apply_Z, assemble_rotated_stiffness,
                       compute_F_direct, compute_F_identity, cross_matrix,
                       evolve_point_rotation, evolve_step, grad_Z_apply,
                       init_rotation_field, rodrigues_exp)
from .scheme import (NodalState, SchemeParams, SolveResult, StepSystem,
                     TangentFrame, Trajectory, advance, assemble_step_system,
                     build_tangent_frame, check_theta_guard,
                     energy_inequality_gaps, run, solve_step)
from .studies import (StudyReport, diagnostics_csv_text, run_monte_carlo,
                      run_refinement_study, run_single, run_study)
from .vtkio import write_vtk
from .wiener import WienerPath, coarsen, sample_path

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "ConfigError", "Mesh", "MeshError", "NodalState",
    "NoiseCoefficients", "NoiseComponent", "NormalizationError",
    "OffdiagReport", "P1Space",
    "PRESETS", "RotationField", "SchemeParams", "SimulationConfig",
    "SLLGError", "SolveResult", "SolverFailure", "StepSystem",
    "StudyReport", "TangentFrame", "TestField", "TimeMismatchError",
    "Trajectory", "TrajectoryInterpolants", "WienerPath", "advance",
    "apply_Z", "assemble_lumped_mass", "assemble_rotated_stiffness",
    "assemble_step_system", "assemble_stiffness", "build_structured_mesh",
    "build_tangent_frame", "check_offdiag_condition", "check_theta_guard",
    "coarsen", "compute_F_direct", "compute_F_identity",
    "constant_component", "cross_matrix", "diagnostics_csv_text",
    "discrete_lp_norm", "energy_inequality_gaps", "evolve_point_rotation",
    "evolve_step", "grad_Z_apply", "init_rotation_field",
    "interpolant_errors", "interpolate_nodal", "linear_gradient_component",
    "load_config", "make_noise", "normalize_nodal", "read_mesh_text",
    "reconstruct_M", "rodrigues_exp", "run", "run_monte_carlo",
    "run_refinement_study", "run_single", "run_study", "sample_path",
    "solve_phi", "solve_step", "make_test_field", "weak_residual",
    "write_mesh_text", "write_vtk", "__version__",
]
