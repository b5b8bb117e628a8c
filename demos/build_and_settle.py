"""Build a mesh-free model from an elastogram and settle a hoisted retraction.

Synthesizes one liver-like stiffness volume, converts it to a material field,
samples DOF nodes by Lloyd-relaxed Voronoi decomposition, assembles the
matrices, then hoists a 10 mm retractor region against gravity until the
velocities die out. Prints where the three probe landmarks end up.

Run from the repository root:  python3 demos/build_and_settle.py
"""

import numpy as np

from elastosim import (
    build_model,
    displace_landmarks,
    simulate_retraction,
    synth_cohort,
    young_material_field,
)
from elastosim.experiment import (
    SyntheticCohortSpec,
    default_landmarks,
    default_retractor,
)


def main():
    case = synth_cohort(SyntheticCohortSpec(n=1, seed=11, heterogeneity=0.3))[0]
    print(f"case {case.record.id}: mean shear {case.record.mean_shear_G:.2f} kPa, "
          f"{case.mask.n_selected} tissue voxels")

    field = young_material_field(case.volume, case.mask)
    model = build_model(field, n_nodes=300, k=8, seed=0)
    print(f"model: {model.n_nodes} nodes / {model.n_dofs} DOFs, "
          f"mass {model.total_mass_kg * 1000:.0f} g, "
          f"K has {model.matrices.K.nnz} nonzeros")

    retractor = default_retractor(field)
    region = retractor.map_region(model.dofs.nodes)
    print(f"retractor at {np.round(retractor.center, 1)} mm grabs "
          f"{len(region)} nodes; hoist force {model.total_mass_kg * 9.81:.3f} N")

    state = simulate_retraction(model, retractor)
    print(f"steady state at t = {state.t:.2f} s, "
          f"max velocity {np.abs(state.qdot).max():.1e} mm/s")

    marks = default_landmarks(model, retractor)
    for (label, rest), (_, moved) in zip(marks, displace_landmarks(model, state.q, marks)):
        shift = np.linalg.norm(moved - rest)
        print(f"  {label:9s} moved {shift:6.2f} mm  "
              f"{np.round(rest, 1)} -> {np.round(moved, 1)}")


if __name__ == "__main__":
    main()
