"""Walk the stiffness-volume pipeline: elastogram -> tissue mask -> cohort statistics.

Builds a small synthetic elastogram whose tissue is its positive voxels,
measures the masked mean shear modulus the way every cohort case is read,
converts it to Young's modulus, and then summarizes a 120-record synthetic
cohort the same way the `cohort-stats` subcommand does.

Run from the repository root:  python3 demos/volume_pipeline.py
"""

from pathlib import Path

import numpy as np

from elastosim import (
    RoiMask,
    VoxelVolume,
    cohort_stats,
    mean_shear_modulus,
    shear_to_young,
    stiffness_histogram,
    synth_cohort,
    write_volume,
)
from elastosim.experiment import RetractionConfig, SyntheticCohortSpec

OUT = Path(__file__).parent / "out"


def main():
    OUT.mkdir(exist_ok=True)

    # A 20x16x8 elastogram at 1.64 mm: a block of tissue at a constant
    # 0.7 kPa shear stiffness, which is exactly the 2.1 kPa atlas Young's
    # modulus at the conversion's Poisson ratio, inside a zero background.
    dims = (20, 16, 8)
    grid = np.zeros(dims[::-1], dtype=np.float32)
    grid[2:6, 2:14, 2:18] = 0.7
    vol = VoxelVolume(dims=dims, spacing_mm=(1.64, 1.64, 1.64),
                      kind="elastogram_shear_kPa", data=grid)
    header = write_volume(vol, OUT / "demo_elastogram.json")
    print(f"wrote {header} (+ .raw), {vol.n_voxels} voxels")

    # The tissue is every strictly positive voxel, as for a cohort case.
    mask = RoiMask(dims=vol.dims, flags=vol.data > 0)
    print(f"tissue mask selects {mask.n_selected} voxels")

    g = mean_shear_modulus(vol, mask)
    e = shear_to_young(g, nu=RetractionConfig.conversion_nu)
    print(f"mean shear G = {g:.4f} kPa -> Young E = 2G(1+nu) = {e:.4f} kPa")

    # The same summary over a whole synthetic cohort.
    records = [c.record for c in synth_cohort(SyntheticCohortSpec(n=120, seed=0))]
    edges, counts = stiffness_histogram(records, bin_width=1.0)
    frac_plus1, frac_double = cohort_stats(records, atlas_E=2.1)
    print(f"\n120-record synthetic cohort, E median "
          f"{np.median([r.young_E for r in records]):.2f} kPa")
    top = counts.argmax()
    print(f"busiest bin [{edges[top]:.0f}, {edges[top + 1]:.0f}) kPa "
          f"holds {counts[top]} records")
    print(f"{frac_plus1:.0%} exceed atlas + 1 kPa; "
          f"{frac_double:.0%} exceed twice the atlas")


if __name__ == "__main__":
    main()
