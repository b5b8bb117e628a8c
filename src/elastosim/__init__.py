"""Mesh-free soft-tissue deformation simulation driven by per-voxel stiffness maps.

The package covers the full pipeline: voxel stiffness volumes and cohort
statistics (`volume`), mesh-free model construction with Voronoi-sampled DOF nodes and
Shepard shape functions (`meshfree`), implicit-Euler dynamics with a conjugate
gradient core (`solver`), a cantilever-beam validation suite against
closed-form bending theory and a hexahedral FEA baseline (`beam`), and the
retraction / cohort experiment harness (`experiment`, `cli`).
"""

from elastosim.beam import (
    BeamSpec,
    DeflectionCurve,
    build_beam_phantom,
    convergence_error,
    euler_bernoulli_deflection,
    fea_baseline,
    simulate_beam,
    theory_curve,
)
from elastosim.cli import cli_main
from elastosim.experiment import (
    CohortCase,
    ComparisonReport,
    RetractionConfig,
    RetractorSpec,
    SyntheticCohortSpec,
    compare_case,
    compare_placements,
    run_cohort_retractions,
    simulate_retraction,
    stiff_inclusion_case,
    synth_cohort,
    young_material_field,
)
from elastosim.meshfree import (
    MaterialField,
    MeshFreeModel,
    build_model,
    load_model,
    sample_dofs,
    save_model,
    shape_weights,
)
from elastosim.solver import (
    IndefiniteSystemError,
    LoadCase,
    NonConvergenceError,
    SimState,
    cg_solve,
    displace_landmarks,
    prepare_settle,
    run_to_steady_state,
    step,
)
from elastosim.volume import (
    CohortRecord,
    RoiMask,
    VolumeFormatError,
    VoxelVolume,
    cohort_stats,
    load_volume,
    mean_shear_modulus,
    shear_to_young,
    stiffness_histogram,
    write_volume,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSpec",
    "CohortCase",
    "CohortRecord",
    "ComparisonReport",
    "DeflectionCurve",
    "IndefiniteSystemError",
    "LoadCase",
    "MaterialField",
    "MeshFreeModel",
    "NonConvergenceError",
    "RetractionConfig",
    "RetractorSpec",
    "RoiMask",
    "SimState",
    "SyntheticCohortSpec",
    "VolumeFormatError",
    "VoxelVolume",
    "build_beam_phantom",
    "build_model",
    "cg_solve",
    "cli_main",
    "cohort_stats",
    "compare_case",
    "compare_placements",
    "convergence_error",
    "displace_landmarks",
    "euler_bernoulli_deflection",
    "fea_baseline",
    "load_model",
    "load_volume",
    "mean_shear_modulus",
    "prepare_settle",
    "run_cohort_retractions",
    "run_to_steady_state",
    "sample_dofs",
    "save_model",
    "shape_weights",
    "shear_to_young",
    "simulate_beam",
    "simulate_retraction",
    "step",
    "stiff_inclusion_case",
    "stiffness_histogram",
    "synth_cohort",
    "theory_curve",
    "write_volume",
    "young_material_field",
    "__version__",
]
