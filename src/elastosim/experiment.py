"""Retraction experiments on synthetic stiffness volumes.

This module wires the full pipeline together: generate a cohort of
elastogram-like stiffness volumes on ellipsoidal masks, build a mesh-free
model per case, hoist a retractor region against gravity to steady state,
and compare the per-case (measured-stiffness) deformation against the same
run with a single population atlas stiffness.  The headline quantity is the
displacement difference at the retractor: when it exceeds the clinical
significance threshold, atlas-based guidance would misplace landmarks.

Patient scans are not distributable, so cohorts here are synthetic and the
statistics demonstrate the machinery rather than reproduce clinical rates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from elastosim.meshfree import RAYLEIGH_ALPHA, RAYLEIGH_BETA, MaterialField, MeshFreeModel, build_model
from elastosim.solver import (
    LoadCase,
    NonConvergenceError,
    SimState,
    _finite_3_vector,
    displace_landmarks,
    run_to_steady_state,
)
from elastosim.volume import (
    CohortRecord,
    RoiMask,
    VolumeFormatError,
    VoxelVolume,
    _finite,
    _read_csv,
    _write_csv,
    mean_shear_modulus,
    shear_to_young,
    voxel_centers,
)

STANDARD_G_M_S2 = 9.81  # hoist force per kg, in N
GRAVITY_MM_S2 = (0.0, 0.0, -STANDARD_G_M_S2 * 1000.0)
SYNTH_DIMS = (32, 26, 16)  # synthetic volume grid (nx, ny, nz)
INCLUSION_RADIUS_MM = 9.0  # stiff_inclusion_case's sphere under the tool


@dataclass(frozen=True)
class RetractionConfig:
    """Every knob of a retraction comparison, each with its one default.

    The measured run and its atlas twin are built, hoisted and settled from
    the same config, so the two differ only in stiffness.  The CLI flags and
    the keyword defaults of the pipeline functions read their defaults here.
    The CLI has no flag for the settle's time step h, damping alpha and beta,
    or stopping rule v_tol and max_steps.  They change how the settle reaches
    its steady state, not the state itself, so they are set here alone.

    liver_mass_kg None derives the hoisted mass from the masked volume and
    density; tool_center None places the retractor at the +x pole of each
    case's mask.  voxel_ref_mm is the voxel pitch of synthesized cohorts.
    """

    n_nodes: int = 300
    k: int = 8
    seed: int = 0
    atlas_e_kpa: float = 2.1
    significance_mm: float = 5.0
    conversion_nu: float = 0.5
    sim_nu: float = 0.45
    density: float = 1060.0
    abdomen_k: float = 0.05
    liver_mass_kg: float | None = None
    tool_center: tuple[float, float, float] | None = None
    diameter: float = 10.0
    alpha: float = RAYLEIGH_ALPHA
    beta: float = RAYLEIGH_BETA
    h: float = 0.05
    v_tol: float = 1e-6
    max_steps: int = 5000
    cg_tol: float = 1e-6
    cg_max: int = 200
    voxel_ref_mm: float = 1.64

    def __post_init__(self):
        """Reject a knob no run can use, naming its field.

        Raises:
            ValueError: a value that is not a number, a non-finite number, or
                a number past the largest float in a float field; h, v_tol,
                cg_tol, diameter, voxel_ref_mm, atlas_e_kpa or a set
                liver_mass_kg not > 0; cg_tol >= 1; significance_mm, alpha,
                beta or seed < 0; k < 2; cg_max or max_steps < 1.
        """
        positive = ("h", "v_tol", "cg_tol", "diameter", "voxel_ref_mm", "atlas_e_kpa",
                    "liver_mass_kg")
        for f in fields(self):
            value = getattr(self, f.name)
            # An int field may hold an int of any size.  A float field reaches
            # float arithmetic, so even a Python int there must fit a float.
            if value is None or (f.type == "int" and isinstance(value, int)):
                continue
            for x in np.ravel(value):
                _finite(x, f.name, above=0 if f.name in positive else None,
                        at_least=0 if f.name in ("significance_mm", "alpha", "beta") else None)
        if self.cg_tol >= 1:  # CG starts at relative residual 1, so it would solve nothing
            raise ValueError(f"cg_tol must be < 1, got {self.cg_tol}")
        for name, least in (("seed", 0), ("k", 2), ("cg_max", 1), ("max_steps", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")

    def measured_model(self, case: CohortCase) -> MeshFreeModel:
        """The case's measured-stiffness model."""
        field = young_material_field(case.volume, case.mask, conversion_nu=self.conversion_nu,
                                     sim_nu=self.sim_nu, density=self.density)
        return build_model(field, n_nodes=self.n_nodes, k=self.k, seed=self.seed,
                           alpha=self.alpha, beta=self.beta)

    def retractor(self, field: MaterialField) -> RetractorSpec:
        """The tool of ``diameter`` at ``tool_center``, or at the field's +x pole."""
        center = default_retractor(field).center if self.tool_center is None else self.tool_center
        return RetractorSpec(diameter=self.diameter, center=center)

    def settle(self, model: MeshFreeModel, retractor: RetractorSpec) -> SimState:
        """Hoist the model with the config's loads and settle it with its solver knobs."""
        return simulate_retraction(
            model, retractor,
            liver_mass_kg=self.liver_mass_kg, abdomen_k=self.abdomen_k, h=self.h,
            v_tol=self.v_tol, max_steps=self.max_steps, cg_max=self.cg_max, cg_tol=self.cg_tol,
        )


@dataclass(frozen=True)
class RetractorSpec:
    """Hook retractor contact: it grabs every node within ``diameter / 2`` of
    ``center`` and hoists them straight up (+z).

    Attributes:
        center: contact point on the tissue surface in mm.
        diameter: contact diameter in mm.
    """

    center: tuple[float, float, float]
    diameter: float = RetractionConfig.diameter

    def __post_init__(self):
        """Reject a tool no region can come from, naming the field.

        Raises:
            ValueError: a diameter not finite and > 0, or a center that is not
                a finite 3-vector; a Python int past the largest float counts
                as not finite.
        """
        _finite(self.diameter, "retractor diameter", above=0)
        center = _finite_3_vector(self.center, "retractor center")
        object.__setattr__(self, "center", tuple(center.tolist()))

    def map_region(self, node_positions: np.ndarray) -> np.ndarray:
        """Node indices the retractor grabs, sorted ascending.

        Raises:
            ValueError: the region maps to no node.
        """
        radius = self.diameter / 2.0
        d = np.linalg.norm(node_positions - np.asarray(self.center), axis=1)
        region = np.flatnonzero(d <= radius)
        if len(region) == 0:
            raise ValueError(
                f"no node within {radius} mm of retractor center "
                f"{self.center}; application region is empty"
            )
        return region


@dataclass(frozen=True)
class ComparisonReport:
    """Displacement differences between a measured-stiffness run and its atlas twin.

    Attributes:
        case_id: cohort case label.
        per_landmark: (label, |d_measured - d_atlas| in mm) per landmark.
        mean_volume_diff: mean node displacement difference over all nodes, mm.
        at_tool_diff: max node displacement difference over the application
            region, mm.
        threshold_mm: the clinical significance threshold.
    """

    case_id: str
    per_landmark: tuple
    mean_volume_diff: float
    at_tool_diff: float
    threshold_mm: float = RetractionConfig.significance_mm

    def __post_init__(self):
        """Reject a threshold or difference a comparison cannot hold, naming it.

        Raises:
            ValueError: threshold_mm, a landmark difference or a displacement
                difference that is not finite and >= 0.
        """
        for name in ("threshold_mm", "mean_volume_diff", "at_tool_diff"):
            _finite(getattr(self, name), name, at_least=0)
        marks = tuple((str(label), float(_finite(d, f"landmark difference of {str(label)!r}",
                                                 at_least=0)))
                      for label, d in self.per_landmark)
        object.__setattr__(self, "per_landmark", marks)

    @property
    def significant(self) -> bool:
        """True iff at_tool_diff exceeds the threshold."""
        return bool(self.at_tool_diff > self.threshold_mm)


@dataclass(frozen=True)
class SyntheticCohortSpec:
    """Log-normal stiffness cohort parameters.

    Attributes:
        n: number of cases.
        seed: RNG seed; fixes records, masks, and volumes.
        median_kpa: median of the log-normal mean shear modulus G.
        log_sd: standard deviation of log G.
        heterogeneity: spatial variation amplitude within each volume, as a
            fraction of the case's G.  At 0 the first masked voxel takes up
            the float32 rounding of the mean, so each volume holds two values.
    """

    n: int
    seed: int = 0
    median_kpa: float = 2.8
    log_sd: float = 0.45
    heterogeneity: float = 0.0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"cohort size must be >= 0, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _finite(self.median_kpa, "median_kpa", above=0)
        _finite(self.log_sd, "log_sd", at_least=0)
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError(
                f"heterogeneity must lie in [0, 1), got {self.heterogeneity}"
            )


@dataclass(frozen=True)
class CohortCase:
    """One synthetic scan: stiffness record, elastogram volume, tissue mask."""

    record: CohortRecord
    volume: VoxelVolume
    mask: RoiMask


def case_from_volume(volume: VoxelVolume, case_id: str) -> CohortCase:
    """Cohort case of an elastogram whose tissue is its strictly positive voxels.

    The mask matches how the synthetic generator zeroes everything outside
    the organ; the record holds the masked mean shear modulus and its
    Young's modulus at the default conversion Poisson ratio.

    Raises:
        ValueError: not an elastogram, or no positive voxel.
    """
    mask = RoiMask(dims=volume.dims, flags=volume.data > 0)
    g = mean_shear_modulus(volume, mask)
    record = CohortRecord(id=case_id, mean_shear_G=g,
                          young_E=shear_to_young(g, RetractionConfig.conversion_nu))
    return CohortCase(record=record, volume=volume, mask=mask)


def ellipsoid_mask(
    dims: tuple[int, int, int], voxel_mm: float, semi_axes_mm: tuple[float, float, float]
) -> RoiMask:
    """Mask of voxels whose centers fall inside an axis-aligned ellipsoid centered in the grid."""
    center_mm = np.asarray(dims, dtype=float) * voxel_mm / 2.0
    centers = voxel_centers(dims, (voxel_mm,) * 3)
    rel = (centers - center_mm) / np.asarray(semi_axes_mm)
    flags = (rel**2).sum(axis=1) <= 1.0
    return RoiMask(dims=dims, flags=flags)


def _smooth_pattern(centers: np.ndarray, extent_mm: np.ndarray, rng) -> np.ndarray:
    """Smooth zero-ish-mean spatial pattern normalized to max |value| = 1."""
    acc = np.zeros(len(centers))
    for _ in range(3):
        freq = rng.integers(1, 3, size=3)  # 1 or 2 periods per axis
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        waves = np.sin(2.0 * np.pi * freq * centers / extent_mm + phase)
        acc += rng.uniform(0.3, 1.0) * waves.prod(axis=1)
    peak = np.abs(acc).max()
    return acc / peak if peak > 0 else acc


def _exact_mean_volume(
    dims: tuple[int, int, int],
    voxel_mm: float,
    mask: RoiMask,
    values: np.ndarray,
    target_mean: float,
) -> VoxelVolume:
    """Elastogram whose float64 masked mean equals target_mean almost exactly.

    Values are stored as float32; a multiplicative rescale plus a one-voxel
    trim pins the mean to within a few 1e-11 relative despite the rounding.
    """
    data = np.zeros(int(np.prod(dims)), dtype=np.float32)
    flat = np.flatnonzero(mask.flags)
    data[flat] = values.astype(np.float32)
    current = float(data[flat].astype(np.float64).mean())
    data[flat] = (data[flat].astype(np.float64) * (target_mean / current)).astype(
        np.float32
    )
    total = data[flat].astype(np.float64).sum()
    want = target_mean * len(flat)
    data[flat[0]] = np.float32(data[flat[0]].astype(np.float64) + (want - total))
    return VoxelVolume(
        dims=dims,
        spacing_mm=(voxel_mm,) * 3,
        kind="elastogram_shear_kPa",
        data=data,
    )


def synth_cohort(
    spec: SyntheticCohortSpec,
    dims: tuple[int, int, int] = SYNTH_DIMS,
    voxel_mm: float = RetractionConfig.voxel_ref_mm,
) -> list[CohortCase]:
    """Generate a deterministic cohort of stiffness volumes on ellipsoidal masks.

    Each case draws a mean shear modulus G from the log-normal distribution,
    jitters the ellipsoid shape, optionally adds smooth spatial variation,
    and pins the masked mean of the stored volume to G within 1e-9 relative,
    not exactly: a statistic of the volumes can differ from the records'.

    Raises:
        ValueError: voxel_mm not finite and > 0, or a case's ellipsoid
            selects no voxel of the grid.
    """
    _finite(voxel_mm, "voxel_mm", above=0)
    master = np.random.default_rng(spec.seed)
    # One child stream per case so records and masks do not depend on the
    # heterogeneity setting (patterns draw extra numbers only when enabled).
    case_seeds = master.integers(0, 2**63 - 1, size=spec.n, dtype=np.uint64)
    extent = np.array(dims, dtype=float) * voxel_mm
    cases = []
    for i in range(spec.n):
        rng = np.random.default_rng(int(case_seeds[i]))
        g = spec.median_kpa * np.exp(spec.log_sd * rng.standard_normal())
        axes = rng.uniform(0.72, 0.92, size=3) * extent / 2.0
        mask = ellipsoid_mask(dims, voxel_mm, tuple(axes))
        if mask.n_selected == 0:
            raise ValueError(f"case_{i:03d}: the ellipsoid mask selects no voxel of dims {dims}")
        if spec.heterogeneity > 0:
            centers = voxel_centers(dims, (voxel_mm,) * 3)[mask.flags]
            pattern = _smooth_pattern(centers, extent, rng)
            values = g * (1.0 + spec.heterogeneity * pattern)
        else:
            values = np.full(mask.n_selected, g)
        volume = _exact_mean_volume(dims, voxel_mm, mask, values, g)
        record = CohortRecord(id=f"case_{i:03d}", mean_shear_G=g,
                              young_E=shear_to_young(g, RetractionConfig.conversion_nu))
        cases.append(CohortCase(record=record, volume=volume, mask=mask))
    return cases


def stiff_inclusion_case(contrast: float) -> CohortCase:
    """Atlas-stiffness ellipsoid with a spherical inclusion at contrast x atlas.

    The volume is a SYNTH_DIMS grid at the default voxel pitch, and the
    atlas stiffness and shear-to-Young conversion are RetractionConfig's
    defaults.  The inclusion, of radius INCLUSION_RADIUS_MM, sits under the
    default retractor site (the +x pole), so raising the contrast stiffens
    exactly the region the tool displaces.  contrast = 1 reproduces the
    constant atlas volume.
    """
    _finite(contrast, "inclusion contrast", above=0)
    dims, voxel_mm = SYNTH_DIMS, RetractionConfig.voxel_ref_mm
    g_atlas = RetractionConfig.atlas_e_kpa / shear_to_young(1.0, RetractionConfig.conversion_nu)
    extent = np.array(dims, dtype=float) * voxel_mm
    axes = 0.85 * extent / 2.0
    mask = ellipsoid_mask(dims, voxel_mm, tuple(axes))
    centers = voxel_centers(dims, (voxel_mm,) * 3)
    site = np.array([extent[0] / 2.0 + axes[0], extent[1] / 2.0, extent[2] / 2.0])
    inside = np.linalg.norm(centers - site, axis=1) <= INCLUSION_RADIUS_MM
    data = np.zeros(len(centers), dtype=np.float32)
    data[mask.flags] = np.float32(g_atlas)
    data[mask.flags & inside] = np.float32(g_atlas * contrast)
    volume = VoxelVolume(
        dims=dims, spacing_mm=(voxel_mm,) * 3, kind="elastogram_shear_kPa", data=data
    )
    return case_from_volume(volume, f"inclusion_{contrast:g}x")


def young_material_field(
    volume: VoxelVolume,
    mask: RoiMask,
    conversion_nu: float = RetractionConfig.conversion_nu,
    sim_nu: float = RetractionConfig.sim_nu,
    density: float = RetractionConfig.density,
) -> MaterialField:
    """Material field with Young's modulus converted voxelwise from shear.

    The conversion uses E = 2 G (1 + conversion_nu), by default at
    `RetractionConfig.conversion_nu` (the imaging side's incompressible
    limit); the simulation itself then runs at a numerically safe sim_nu < 0.5.
    """
    factor = shear_to_young(1.0, conversion_nu)
    young = VoxelVolume(
        dims=volume.dims,
        spacing_mm=volume.spacing_mm,
        kind="elastogram_shear_kPa",  # same container; values are E in kPa
        data=(volume.data.astype(np.float64) * factor).astype(np.float32),
    )
    return MaterialField(volume=young, mask=mask, nu=sim_nu, density=density)


def default_retractor(field: MaterialField) -> RetractorSpec:
    """Retractor at the +x pole of the field's mask, hoisting straight up."""
    centers = field.masked_centers()
    pole = centers[np.argmax(centers[:, 0])]
    return RetractorSpec(center=tuple(pole))


def inferior_support_springs(
    model: MeshFreeModel, abdomen_k: float
) -> tuple[tuple[int, float, np.ndarray], ...]:
    """Springs anchoring the inferior third of the nodes at their rest spots.

    Stands in for the abdomen's elastic resistance under the liver; the
    anchor at the rest position means zero force in the rest state.
    """
    z = model.dofs.nodes[:, 2]
    cut = z.min() + (z.max() - z.min()) / 3.0
    picked = np.flatnonzero(z <= cut)
    return tuple((int(i), float(abdomen_k), model.dofs.nodes[i].copy()) for i in picked)


def retraction_load_case(
    model: MeshFreeModel,
    retractor: RetractorSpec,
    liver_mass_kg: float | None = RetractionConfig.liver_mass_kg,
    abdomen_k: float = RetractionConfig.abdomen_k,
) -> LoadCase:
    """Gravity, hoist loads totaling the liver weight, and abdomen springs.

    Raises:
        ValueError: empty application region.
    """
    region = retractor.map_region(model.dofs.nodes)
    mass_kg = model.total_mass_kg if liver_mass_kg is None else float(liver_mass_kg)
    total_n = mass_kg * STANDARD_G_M_S2
    per_node = np.array([0.0, 0.0, total_n / len(region)])
    return LoadCase(
        gravity=GRAVITY_MM_S2,
        point_loads=tuple((int(i), per_node.copy()) for i in region),
        support_springs=inferior_support_springs(model, abdomen_k),
    )


def simulate_retraction(
    model: MeshFreeModel,
    retractor: RetractorSpec,
    liver_mass_kg: float | None = RetractionConfig.liver_mass_kg,
    abdomen_k: float = RetractionConfig.abdomen_k,
    h: float = RetractionConfig.h,
    v_tol: float = RetractionConfig.v_tol,
    max_steps: int = RetractionConfig.max_steps,
    cg_max: int = RetractionConfig.cg_max,
    cg_tol: float = RetractionConfig.cg_tol,
) -> SimState:
    """Hoist the retractor region against gravity and settle to steady state.

    The hoisting force equals the liver weight (mass x STANDARD_G_M_S2), split
    equally over the application-region nodes; gravity acts on every node
    and spring supports under the inferior third resist rigid sinking.

    Raises:
        ValueError: empty application region.
        NonConvergenceError: no steady state within max_steps.
    """
    loads = retraction_load_case(model, retractor, liver_mass_kg, abdomen_k)
    return run_to_steady_state(
        model, loads, h=h, max_steps=max_steps, v_tol=v_tol, N_max=cg_max, tol=cg_tol
    )


def compare_placements(
    model: MeshFreeModel,
    q_measured: np.ndarray,
    q_atlas: np.ndarray,
    landmarks: list[tuple[str, np.ndarray]],
    retractor: RetractorSpec,
    significance_mm: float = RetractionConfig.significance_mm,
    case_id: str = "case",
) -> ComparisonReport:
    """Quantify how far atlas-stiffness guidance lands from the measured run.

    The atlas twin shares the measured model's nodes and shape functions, so
    both runs are displacement vectors of `model` and their difference
    dq = q_measured - q_atlas is one field: the node differences, the tool
    region and the landmark differences are all read from it.

    Raises:
        ValueError: a vector not of the model's length, an empty tool
            region, or a landmark outside the mask.
    """
    for name, q in (("q_measured", q_measured), ("q_atlas", q_atlas)):
        if len(q) != model.n_dofs:
            raise ValueError(f"{name} has {len(q)} entries, model has {model.n_dofs} DOFs")
    dq = q_measured - q_atlas
    node_diff = np.linalg.norm(dq.reshape(-1, 3), axis=1)
    region = retractor.map_region(model.dofs.nodes)
    per_landmark = tuple(
        (label, float(np.linalg.norm(pos - rest)))
        for (label, rest), (_, pos) in zip(landmarks, displace_landmarks(model, dq, landmarks))
    )
    return ComparisonReport(
        case_id=case_id,
        per_landmark=per_landmark,
        mean_volume_diff=float(node_diff.mean()),
        at_tool_diff=float(node_diff[region].max()),
        threshold_mm=significance_mm,
    )


def default_landmarks(
    model: MeshFreeModel, retractor: RetractorSpec
) -> list[tuple[str, np.ndarray]]:
    """Three probe points: at the tool, deep in the volume, and inferior."""
    nodes = model.dofs.nodes
    tool = nodes[np.argmin(np.linalg.norm(nodes - np.asarray(retractor.center), axis=1))]
    centroid = nodes[np.argmin(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1))]
    inferior = nodes[np.argmin(nodes[:, 2])]
    return [
        ("tool", tool.copy()),
        ("interior", centroid.copy()),
        ("inferior", inferior.copy()),
    ]


@dataclass(frozen=True)
class CohortRunResult:
    """Per-case comparison reports plus the cases that had to be skipped."""

    reports: tuple
    skipped: tuple


def compare_case(case: CohortCase, config: RetractionConfig) -> ComparisonReport:
    """Run one cohort case measured-vs-atlas and report the differences."""
    model = config.measured_model(case)
    atlas = model.with_constant_young(config.atlas_e_kpa)
    retractor = config.retractor(model.field)
    return compare_placements(
        model,
        config.settle(model, retractor).q,
        config.settle(atlas, retractor).q,
        default_landmarks(model, retractor),
        retractor,
        significance_mm=config.significance_mm,
        case_id=case.record.id,
    )


def run_cohort_retractions(cases: list[CohortCase], config: RetractionConfig) -> CohortRunResult:
    """Compare every cohort case against its atlas twin, skipping failures.

    Cases whose model build or simulation fails are recorded in ``skipped``
    (id and reason) instead of aborting the run, mirroring how unusable
    scans drop out of a clinical cohort.

    Raises:
        ValueError: empty cohort, or every case failed and at least one
            on its data.
        NonConvergenceError: every case failed in the solver.
    """
    if not cases:
        raise ValueError("cohort is empty")
    reports = []
    skipped = []
    solver_failures = 0
    for case in cases:
        try:
            reports.append(compare_case(case, config))
        except (ValueError, NonConvergenceError) as exc:
            skipped.append((case.record.id, str(exc)))
            solver_failures += isinstance(exc, NonConvergenceError)
    if not reports:
        message = f"all {len(cases)} cohort cases failed; first: {skipped[0][1]}"
        if solver_failures == len(cases):
            raise NonConvergenceError(message)
        raise ValueError(message)
    return CohortRunResult(reports=tuple(reports), skipped=tuple(skipped))


def write_comparison_csv(reports, path: str | Path) -> Path:
    """Write per-case comparison rows: case,mean_volume_diff_mm,at_tool_diff_mm,significant."""
    return _write_csv(
        path,
        ["case", "mean_volume_diff_mm", "at_tool_diff_mm", "significant"],
        ((r.case_id, r.mean_volume_diff, r.at_tool_diff, "true" if r.significant else "false")
         for r in reports),
    )


def load_comparison_csv(path: str | Path) -> list[dict]:
    """Read rows written by write_comparison_csv back into dicts.

    Raises:
        FileNotFoundError: CSV missing.
        VolumeFormatError: a bad header, or a row that is not four fields
            with finite, non-negative differences and a true or false flag;
            the message names the file and the line.
    """
    rows = []
    for line, row in _read_csv(path, ["case", "mean_volume_diff_mm", "at_tool_diff_mm",
                                      "significant"]):
        case, mean_volume, at_tool, significant = row
        try:
            if significant not in ("true", "false"):
                raise ValueError(f"significant must be true or false, got {significant!r}")
            rows.append({
                "case": case,
                "mean_volume_diff_mm": _finite(float(mean_volume), "mean_volume_diff_mm",
                                               at_least=0),
                "at_tool_diff_mm": _finite(float(at_tool), "at_tool_diff_mm", at_least=0),
                "significant": significant == "true",
            })
        except ValueError as exc:
            raise VolumeFormatError(f"{path}, line {line}, row {row}: {exc}") from exc
    return rows
