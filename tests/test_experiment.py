"""Tests for synthetic cohorts, retraction runs, and measured-vs-atlas reports."""

import inspect
from dataclasses import fields

import numpy as np
import pytest
from conftest import make_field
from hypothesis import given, settings
from hypothesis import strategies as st

from elastosim.experiment import (
    CohortCase,
    CohortRunResult,
    ComparisonReport,
    RetractionConfig,
    RetractorSpec,
    SyntheticCohortSpec,
    compare_case,
    compare_placements,
    default_landmarks,
    default_retractor,
    ellipsoid_mask,
    inferior_support_springs,
    load_comparison_csv,
    retraction_load_case,
    run_cohort_retractions,
    simulate_retraction,
    stiff_inclusion_case,
    synth_cohort,
    write_comparison_csv,
    young_material_field,
)
from elastosim.meshfree import build_model
from elastosim.solver import (
    LoadCase,
    NonConvergenceError,
    displace_landmarks,
    run_to_steady_state,
    step,
)
from elastosim.volume import (
    CohortRecord,
    RoiMask,
    VolumeFormatError,
    VoxelVolume,
    mean_shear_modulus,
    shear_to_young,
)


def small_model(young=2.1, n_nodes=24, k=6, seed=0):
    field = make_field(dims=(6, 5, 4), spacing=(2.0, 2.0, 2.0), young=young)
    return build_model(field, n_nodes=n_nodes, k=k, seed=seed)


def tiny_case(g=0.7, dims=(10, 9, 8), voxel_mm=2.0):
    """Constant-G ellipsoid case small enough for fast simulation."""
    extent = np.array(dims) * voxel_mm
    mask = ellipsoid_mask(dims, voxel_mm, tuple(0.85 * extent / 2.0))
    data = np.zeros(int(np.prod(dims)), dtype=np.float32)
    data[mask.flags] = np.float32(g)
    vol = VoxelVolume(dims=dims, spacing_mm=(voxel_mm,) * 3,
                      kind="elastogram_shear_kPa", data=data)
    record = CohortRecord(id="tiny", mean_shear_G=float(mean_shear_modulus(vol, mask)),
                          young_E=shear_to_young(g, RetractionConfig.conversion_nu))
    return CohortCase(record=record, volume=vol, mask=mask)


def retractor_on(model, node, n=1):
    """Retractor centered on `node` whose region is that node and its n - 1 nearest others."""
    center = model.dofs.nodes[node]
    d = np.sort(np.linalg.norm(model.dofs.nodes - center, axis=1))
    return RetractorSpec(center=tuple(center), diameter=d[n - 1] + d[n])


class TestRetractorSpec:
    def test_default_radius_is_half_diameter(self):
        spec = RetractorSpec(center=(0.0, 0.0, 0.0))
        assert spec.diameter == 10.0
        nodes = np.array([[5.0, 0.0, 0.0], [0.0, 5.000001, 0.0]])
        np.testing.assert_array_equal(spec.map_region(nodes), [0])

    def test_rejects_nonpositive_diameter(self):
        with pytest.raises(ValueError, match="diameter"):
            RetractorSpec(diameter=0.0, center=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("diameter", [np.inf, np.nan, -1.0])
    def test_rejects_diameter_not_finite_and_positive(self, diameter):
        with pytest.raises(ValueError, match="retractor diameter must be finite and > 0"):
            RetractorSpec(center=(0.0, 0.0, 0.0), diameter=diameter)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_center(self, value):
        with pytest.raises(ValueError, match="retractor center must be finite"):
            RetractorSpec(center=(0.0, value, 0.0))

    @pytest.mark.parametrize("spec, message", [
        ({"center": (10**400, 0, 0)}, "retractor center must be finite"),
        ({"center": (0.0, 0.0, 0.0), "diameter": 10**400},
         "retractor diameter must be finite and > 0"),
    ], ids=["center", "diameter"])
    def test_int_past_every_float_is_rejected_by_name(self, spec, message):
        with pytest.raises(ValueError, match=message):
            RetractorSpec(**spec)

    def test_center_must_be_a_3_vector(self):
        with pytest.raises(ValueError, match="retractor center must be a 3-vector"):
            RetractorSpec(center=(0.0, 0.0))

    def test_requires_center(self):
        with pytest.raises(TypeError, match="center"):
            RetractorSpec()

    def test_map_region_by_center(self):
        nodes = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
        spec = RetractorSpec(center=(0.0, 0.0, 0.0))
        np.testing.assert_array_equal(spec.map_region(nodes), [0, 1])

    def test_empty_region_raises(self):
        nodes = np.zeros((4, 3))
        spec = RetractorSpec(center=(100.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="application region is empty"):
            spec.map_region(nodes)

    @given(r1=st.floats(0.5, 10.0), r2=st.floats(0.5, 10.0))
    @settings(max_examples=30)
    def test_region_grows_with_radius(self, r1, r2):
        rng = np.random.default_rng(0)
        nodes = rng.uniform(-10, 10, size=(40, 3))
        lo, hi = sorted([r1, r2])
        spec_lo = RetractorSpec(center=(0.0, 0.0, 0.0), diameter=2.0 * lo)
        spec_hi = RetractorSpec(center=(0.0, 0.0, 0.0), diameter=2.0 * hi)
        try:
            small = set(spec_lo.map_region(nodes).tolist())
        except ValueError:
            small = set()
        try:
            large = set(spec_hi.map_region(nodes).tolist())
        except ValueError:
            large = set()
        assert small <= large


class TestComparisonReport:
    def test_rejects_negative_differences(self):
        with pytest.raises(ValueError, match=">= 0"):
            ComparisonReport(case_id="c", per_landmark=(), mean_volume_diff=-0.1,
                             at_tool_diff=0.0)
        with pytest.raises(ValueError, match=">= 0"):
            ComparisonReport(case_id="c", per_landmark=(("a", -1.0),),
                             mean_volume_diff=0.0, at_tool_diff=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 10**400])
    @pytest.mark.parametrize("field", ["mean_volume_diff", "at_tool_diff"])
    def test_rejects_non_finite_differences_by_name(self, field, value):
        diffs = {"mean_volume_diff": 0.0, "at_tool_diff": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            ComparisonReport(case_id="c", per_landmark=(), **diffs)
        with pytest.raises(ValueError, match="landmark difference of 'a' must be finite"):
            ComparisonReport(case_id="c", per_landmark=(("a", value),),
                             mean_volume_diff=0.0, at_tool_diff=0.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -0.5])
    def test_rejects_threshold_not_finite_and_non_negative(self, threshold):
        with pytest.raises(ValueError, match="threshold_mm must be finite and >= 0"):
            ComparisonReport(case_id="c", per_landmark=(), mean_volume_diff=0.0,
                             at_tool_diff=5.5, threshold_mm=threshold)

    def test_boundary_is_not_significant(self):
        rep = ComparisonReport(case_id="c", per_landmark=(), mean_volume_diff=0.0,
                               at_tool_diff=5.0)
        assert not rep.significant

    def test_significance_follows_the_threshold(self):
        rep = ComparisonReport(case_id="c", per_landmark=(), mean_volume_diff=0.0,
                               at_tool_diff=5.5)
        assert rep.significant
        assert not ComparisonReport(case_id="c", per_landmark=(), mean_volume_diff=0.0,
                                    at_tool_diff=5.5, threshold_mm=6.0).significant


class TestSyntheticCohortSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="cohort size"):
            SyntheticCohortSpec(n=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SyntheticCohortSpec(n=1, seed=-1)
        with pytest.raises(ValueError, match="median"):
            SyntheticCohortSpec(n=1, median_kpa=0.0)
        with pytest.raises(ValueError, match="log_sd"):
            SyntheticCohortSpec(n=1, log_sd=-0.1)
        with pytest.raises(ValueError, match="heterogeneity"):
            SyntheticCohortSpec(n=1, heterogeneity=1.0)

    @pytest.mark.parametrize("name", ["median_kpa", "log_sd"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_field_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >=? 0, got {value}"):
            SyntheticCohortSpec(n=1, **{name: value})

    @pytest.mark.parametrize("name", ["median_kpa", "log_sd"])
    def test_int_past_every_float_is_rejected_by_name(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and >=? 0, got 1000"):
            SyntheticCohortSpec(n=1, **{name: 10**400})


class TestSynthCohort:
    def test_empty_cohort(self):
        assert synth_cohort(SyntheticCohortSpec(n=0, seed=3)) == []

    @pytest.mark.parametrize("voxel_mm", [0.0, -1.0, np.nan, np.inf, 10**400])
    def test_rejects_voxel_pitch_not_finite_and_positive(self, voxel_mm):
        with pytest.raises(ValueError, match="voxel_mm must be finite and > 0"):
            synth_cohort(SyntheticCohortSpec(n=0), voxel_mm=voxel_mm)

    def test_empty_mask_names_the_case_and_the_dims(self):
        # A 2-voxel axis puts every center 0.5 voxel off the middle; at
        # semi-axes under 0.87 of the half-extent no center is inside.
        with pytest.raises(ValueError, match=r"case_\d{3}: .* no voxel of dims \(2, 2, 2\)"):
            synth_cohort(SyntheticCohortSpec(n=20, seed=0), dims=(2, 2, 2))

    def test_deterministic_given_seed(self):
        spec = SyntheticCohortSpec(n=4, seed=9, heterogeneity=0.3)
        a = synth_cohort(spec)
        b = synth_cohort(spec)
        for ca, cb in zip(a, b):
            assert ca.record == cb.record
            assert np.array_equal(ca.volume.data, cb.volume.data)
            assert np.array_equal(ca.mask.flags, cb.mask.flags)

    def test_seed_changes_cohort(self):
        a = synth_cohort(SyntheticCohortSpec(n=4, seed=1))
        b = synth_cohort(SyntheticCohortSpec(n=4, seed=2))
        assert any(ca.record.mean_shear_G != cb.record.mean_shear_G
                   for ca, cb in zip(a, b))

    def test_masked_mean_matches_record(self):
        for het in (0.0, 0.35):
            cases = synth_cohort(SyntheticCohortSpec(n=6, seed=5, heterogeneity=het))
            for case in cases:
                mean = mean_shear_modulus(case.volume, case.mask)
                assert abs(mean - case.record.mean_shear_G) <= 1e-9 * case.record.mean_shear_G

    def test_records_independent_of_heterogeneity(self):
        flat = synth_cohort(SyntheticCohortSpec(n=5, seed=5, heterogeneity=0.0))
        wavy = synth_cohort(SyntheticCohortSpec(n=5, seed=5, heterogeneity=0.5))
        for cf, cw in zip(flat, wavy):
            assert cf.record == cw.record
            assert np.array_equal(cf.mask.flags, cw.mask.flags)

    def test_median_near_target_for_large_cohort(self):
        cases = synth_cohort(SyntheticCohortSpec(n=120, seed=11))
        med = np.median([c.record.mean_shear_G for c in cases])
        assert abs(med - 2.8) <= 0.15 * 2.8

    def test_young_conversion_on_records(self):
        for case in synth_cohort(SyntheticCohortSpec(n=3, seed=2)):
            assert case.record.young_E == pytest.approx(3.0 * case.record.mean_shear_G)

    def test_masked_values_stay_positive(self):
        cases = synth_cohort(SyntheticCohortSpec(n=4, seed=8, heterogeneity=0.9))
        for case in cases:
            assert np.all(case.volume.data[case.mask.flags] > 0)

    def test_outside_mask_is_zero(self):
        case = synth_cohort(SyntheticCohortSpec(n=1, seed=4))[0]
        assert np.all(case.volume.data[~case.mask.flags] == 0.0)


class TestStiffInclusion:
    def test_unit_contrast_is_constant_atlas(self):
        case = stiff_inclusion_case(1.0)
        vals = case.volume.data[case.mask.flags]
        assert np.all(vals == np.float32(0.7))
        assert case.record.mean_shear_G == pytest.approx(0.7, rel=1e-6)

    def test_contrast_raises_inclusion_only(self):
        base = stiff_inclusion_case(1.0)
        bumped = stiff_inclusion_case(4.0)
        lo = np.float32(0.7)
        hi = np.float32(0.7 * 4.0)
        vals = bumped.volume.data[bumped.mask.flags]
        assert set(np.unique(vals)) == {lo, hi}
        assert (vals == hi).sum() > 0
        assert bumped.record.mean_shear_G > base.record.mean_shear_G

    def test_rejects_nonpositive_contrast(self):
        with pytest.raises(ValueError, match="contrast"):
            stiff_inclusion_case(0.0)

    @pytest.mark.parametrize("contrast", [np.nan, np.inf])
    def test_rejects_non_finite_contrast_by_name(self, contrast):
        with pytest.raises(ValueError, match="inclusion contrast must be finite and > 0"):
            stiff_inclusion_case(contrast)


class TestYoungMaterialField:
    def test_converts_shear_to_young_voxelwise(self):
        case = tiny_case(g=0.7)
        field = young_material_field(case.volume, case.mask)
        masked = field.volume.data[case.mask.flags]
        np.testing.assert_allclose(masked, 3.0 * 0.7, rtol=1e-6)
        assert field.nu == 0.45
        assert field.density == 1060.0


class TestRetractionLoadCase:
    def test_hoist_totals_liver_weight(self):
        model = small_model()
        retr = retractor_on(model, 0, n=4)
        loads = retraction_load_case(model, retr, liver_mass_kg=0.02)
        total = np.sum([f for _, f in loads.point_loads], axis=0)
        np.testing.assert_allclose(total, [0.0, 0.0, 0.02 * 9.81], rtol=1e-12)

    def test_mass_defaults_to_model_mass(self):
        model = small_model()
        retr = retractor_on(model, 0, n=4)
        loads = retraction_load_case(model, retr)
        total_z = sum(f[2] for _, f in loads.point_loads)
        assert total_z == pytest.approx(model.total_mass_kg * 9.81, rel=1e-12)

    def test_springs_sit_on_inferior_third_at_rest(self):
        model = small_model()
        springs = inferior_support_springs(model, 0.25)
        assert springs
        z = model.dofs.nodes[:, 2]
        cut = z.min() + (z.max() - z.min()) / 3.0
        picked = {i for i, _, _ in springs}
        assert picked == set(np.flatnonzero(z <= cut).tolist())
        for i, k, anchor in springs:
            assert k == 0.25
            np.testing.assert_array_equal(anchor, model.dofs.nodes[i])

    def test_gravity_points_down(self):
        model = small_model()
        loads = retraction_load_case(model, retractor_on(model, 0))
        assert loads.gravity == (0.0, 0.0, -9810.0)

    def test_empty_region_raises(self):
        model = small_model()
        far = RetractorSpec(center=(500.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="application region is empty"):
            retraction_load_case(model, far)


class TestSimulateRetraction:
    def test_rigid_support_limit(self):
        model = small_model()
        retr = retractor_on(model, 0, n=3)
        region = retr.map_region(model.dofs.nodes)
        per_node = model.total_mass_kg * 9.81 / len(region)
        springs = tuple((int(i), 1e9, model.dofs.nodes[i].copy())
                        for i in range(model.n_nodes))
        loads = LoadCase(
            gravity=(0.0, 0.0, -9810.0),
            point_loads=tuple((int(i), np.array([0.0, 0.0, per_node])) for i in region),
            support_springs=springs,
        )
        state = run_to_steady_state(model, loads, h=0.05, max_steps=2000,
                                    v_tol=1e-9, N_max=2000, tol=1e-10)
        assert np.abs(state.q).max() < 1e-6

    def test_uniform_stiffness_scaling_halves_displacement(self):
        case = tiny_case()
        field = young_material_field(case.volume, case.mask)
        model = build_model(field, n_nodes=40, k=6, seed=0)
        retr = default_retractor(field)
        tight = dict(h=5.0, v_tol=1e-10, max_steps=2000,
                     cg_max=4 * model.n_dofs, cg_tol=1e-12)
        atlas = model.with_constant_young(2.1)
        doubled = model.with_constant_young(4.2)
        qa = simulate_retraction(atlas, retr, abdomen_k=0.05, **tight).q
        # Uniform scaling doubles every elastic element, springs included.
        qd = simulate_retraction(doubled, retr, abdomen_k=0.10, **tight).q
        assert np.abs(2.0 * qd - qa).max() <= 1e-6 * np.abs(qa).max()

    def test_reaches_quiet_velocities(self):
        case = tiny_case()
        field = young_material_field(case.volume, case.mask)
        model = build_model(field, n_nodes=40, k=6, seed=0)
        state = simulate_retraction(model, default_retractor(field))
        assert np.abs(state.qdot).max() < 1e-6


# A value past the largest float for each float field of RetractionConfig
# but density, which test_density_past_every_float_is_a_value_error passes
# through compare_case.
FLOAT_FIELDS_PAST_EVERY_FLOAT = [
    ("atlas_e_kpa", 10**400), ("significance_mm", 10**400), ("conversion_nu", 10**400),
    ("sim_nu", 10**400), ("abdomen_k", 10**400), ("liver_mass_kg", 10**400),
    ("tool_center", (0.0, 10**400, 0.0)), ("diameter", 10**400), ("alpha", 10**400),
    ("beta", 10**400), ("h", 10**400), ("v_tol", 10**400), ("cg_tol", -10**400),
    ("voxel_ref_mm", 10**400),
]


class TestRetractionConfig:
    def test_retractor_at_pole_takes_the_diameter(self):
        case = tiny_case()
        field = young_material_field(case.volume, case.mask)
        retr = RetractionConfig(diameter=30.0).retractor(field)
        assert retr.diameter == 30.0
        assert retr.center == default_retractor(field).center

    def test_retractor_at_tool_center(self):
        case = tiny_case()
        field = young_material_field(case.volume, case.mask)
        retr = RetractionConfig(tool_center=(1.0, 2.0, 3.0), diameter=4.0).retractor(field)
        assert retr.center == (1.0, 2.0, 3.0) and retr.diameter == 4.0

    @pytest.mark.parametrize("voxel_ref_mm", [0.0, -2.0])
    def test_rejects_voxel_pitch_not_positive(self, voxel_ref_mm):
        with pytest.raises(ValueError, match="voxel_ref_mm must be finite and > 0"):
            RetractionConfig(voxel_ref_mm=voxel_ref_mm)

    def test_density_past_every_float_is_a_value_error(self):
        # A Python int compares below inf, but no float array can hold it;
        # the config rejects it by name, so a cohort run cannot fail with an
        # OverflowError in assembly.
        with pytest.raises(ValueError, match="density must be finite, got"):
            compare_case(tiny_case(), RetractionConfig(density=10**400))

    @pytest.mark.parametrize("name, value", [
        ("max_steps", 0), ("h", float("nan")), ("h", float("inf")), ("h", -1.0),
        ("v_tol", -1.0), ("alpha", float("nan")), ("alpha", -1.0), ("beta", -1.0),
    ])
    def test_bad_settle_knob_is_rejected_by_name(self, name, value):
        # The settle's stepping and damping have no CLI flag; only the config checks them.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RetractionConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in ("h", "v_tol", "alpha", "beta")
        for value in (float("nan"), float("inf"))
    ])
    def test_non_finite_settle_knob_is_a_value_error(self, name, value):
        # Rejected before any arithmetic: warnings are errors, so none may come first.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            RetractionConfig(**{name: value})

    @pytest.mark.parametrize("name, value", FLOAT_FIELDS_PAST_EVERY_FLOAT)
    def test_float_field_past_every_float_is_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite( and >=? 0)?, got"):
            RetractionConfig(**{name: value})

    def test_every_float_field_has_an_overflow_row(self):
        float_fields = {f.name for f in fields(RetractionConfig) if f.type != "int"}
        assert float_fields == {"density"} | {name for name, _ in FLOAT_FIELDS_PAST_EVERY_FLOAT}

    @pytest.mark.parametrize("k", [0, 1])
    def test_support_size_below_two_is_rejected_by_name(self, k):
        # A lone support node has zero gradients, so the model's K would be empty.
        with pytest.raises(ValueError, match=f"^k must be >= 2, got {k}$"):
            RetractionConfig(k=k)

    def test_integer_knobs_of_any_size_pass_the_finite_check(self):
        assert RetractionConfig(seed=2**70, cg_max=10**30).seed == 2**70

    def test_pipeline_defaults_are_the_config_defaults(self):
        config = RetractionConfig()
        assert RetractorSpec(center=(0.0, 0.0, 0.0)).diameter == config.diameter
        defaults = inspect.signature(simulate_retraction).parameters
        for name in ("liver_mass_kg", "abdomen_k", "h", "v_tol", "max_steps", "cg_max", "cg_tol"):
            assert defaults[name].default == getattr(config, name), name
        # build_model reads its damping from the module constants the config reads.
        build = inspect.signature(build_model).parameters
        assert (build["alpha"].default, build["beta"].default) == (config.alpha, config.beta)
        # The settle below simulate_retraction has no defaults of its own.
        for fn, names in ((run_to_steady_state, ("h", "max_steps", "v_tol", "N_max", "tol")),
                          (step, ("N_max", "tol"))):
            params = inspect.signature(fn).parameters
            for name in names:
                assert params[name].default is inspect.Parameter.empty, (fn.__name__, name)


class TestComparePlacements:
    def test_identical_runs_report_zero(self):
        model = small_model()
        q = np.zeros(model.n_dofs)
        retr = retractor_on(model, 1, n=2)
        rep = compare_placements(model, q, q, [], retr, case_id="same")
        assert rep.mean_volume_diff == 0.0
        assert rep.at_tool_diff == 0.0
        assert not rep.significant
        assert rep.per_landmark == ()

    def test_six_mm_offset_at_region_node_is_significant(self):
        model = small_model()
        qa = np.zeros(model.n_dofs)
        qb = np.zeros(model.n_dofs)
        qb[3 * 2 + 2] = 6.0  # node 2, z component
        retr = retractor_on(model, 2, n=2)
        rep = compare_placements(model, qa, qb, [], retr)
        assert rep.at_tool_diff == pytest.approx(6.0)
        assert rep.significant
        assert rep.mean_volume_diff == pytest.approx(6.0 / model.n_nodes)

    def test_offset_outside_region_moves_mean_not_tool(self):
        model = small_model()
        qa = np.zeros(model.n_dofs)
        qb = np.zeros(model.n_dofs)
        qb[3 * 5 + 0] = 2.0  # node 5 is not in the region
        retr = retractor_on(model, 0)
        rep = compare_placements(model, qa, qb, [], retr)
        assert rep.at_tool_diff == 0.0
        assert rep.mean_volume_diff > 0.0

    def test_landmark_differences_reported(self):
        case = tiny_case()
        field = young_material_field(case.volume, case.mask)
        model = build_model(field, n_nodes=40, k=6, seed=0)
        retr = default_retractor(field)
        marks = default_landmarks(model, retr)
        qb = np.zeros(model.n_dofs)
        qb[0::3] = 1.0  # rigid +x shift of every node
        rep = compare_placements(model, np.zeros(model.n_dofs), qb, marks, retr)
        assert [label for label, _ in rep.per_landmark] == ["tool", "interior", "inferior"]
        for _, d in rep.per_landmark:
            assert d == pytest.approx(1.0, rel=1e-9)

    def test_one_evaluation_matches_two(self):
        # The landmark differences read from dq once equal the distance
        # between each run's own mapped landmarks.
        config = RetractionConfig(n_nodes=40, k=6)
        model = config.measured_model(synth_cohort(
            SyntheticCohortSpec(n=1, seed=5, heterogeneity=0.35), dims=(10, 9, 8), voxel_mm=2.0
        )[0])
        atlas = model.with_constant_young(config.atlas_e_kpa)
        retr = config.retractor(model.field)
        qm, qa = config.settle(model, retr).q, config.settle(atlas, retr).q
        marks = default_landmarks(model, retr)
        rep = compare_placements(model, qm, qa, marks, retr)
        two = [np.linalg.norm(pm - pa) for (_, pm), (_, pa) in
               zip(displace_landmarks(model, qm, marks), displace_landmarks(atlas, qa, marks))]
        assert min(two) > 0.01
        np.testing.assert_allclose([d for _, d in rep.per_landmark], two, rtol=0, atol=1e-12)

    def test_rejects_runs_of_another_model(self):
        model = small_model()
        q = np.zeros(model.n_dofs + 3)
        with pytest.raises(ValueError, match="DOFs"):
            compare_placements(model, q, q, [], retractor_on(model, 0))

    @pytest.mark.parametrize("extra_measured, extra_atlas", [(3, 0), (0, -3), (3, -3)])
    def test_rejects_runs_of_unequal_length_naming_the_dof_count(self, extra_measured,
                                                                 extra_atlas):
        model = small_model()
        qm = np.zeros(model.n_dofs + extra_measured)
        qa = np.zeros(model.n_dofs + extra_atlas)
        name = "q_measured" if extra_measured else "q_atlas"
        with pytest.raises(ValueError, match=f"{name} has .* entries, model has 72 DOFs"):
            compare_placements(model, qm, qa, [], retractor_on(model, 0))


class TestInclusionOrdering:
    def test_at_tool_exceeds_volume_mean(self):
        rep = compare_case(stiff_inclusion_case(3.0), RetractionConfig())
        assert rep.at_tool_diff > rep.mean_volume_diff

    def test_contrast_monotone_and_crosses_threshold(self):
        reports = [compare_case(stiff_inclusion_case(c), RetractionConfig())
                   for c in (1.0, 2.0, 4.0)]
        diffs = [r.at_tool_diff for r in reports]
        assert diffs[0] < diffs[1] < diffs[2]
        assert not reports[0].significant
        assert reports[2].significant


class TestCohortRun:
    def test_atlas_equal_cohort_reports_no_differences(self):
        spec = SyntheticCohortSpec(n=3, seed=2, median_kpa=0.7, log_sd=0.0)
        cases = synth_cohort(spec, dims=(10, 9, 8), voxel_mm=2.0)
        result = run_cohort_retractions(cases, RetractionConfig(n_nodes=40, k=6))
        assert len(result.reports) == 3
        assert result.skipped == ()
        for rep in result.reports:
            assert rep.at_tool_diff <= 1e-6
            assert rep.mean_volume_diff <= 1e-6
            assert not rep.significant

    def test_skips_and_counts_failing_cases(self):
        good = synth_cohort(SyntheticCohortSpec(n=4, seed=2, median_kpa=0.7, log_sd=0.0),
                            dims=(10, 9, 8), voxel_mm=2.0)
        tiny_mask = np.zeros(10 * 9 * 8, dtype=bool)
        tiny_mask[:2] = True
        bad = CohortCase(
            record=CohortRecord(id="bad", mean_shear_G=0.7, young_E=2.1),
            volume=good[0].volume,
            mask=RoiMask(dims=(10, 9, 8), flags=tiny_mask),
        )
        cases = [good[0], bad, good[1], good[2], good[3]]
        result = run_cohort_retractions(cases, RetractionConfig(n_nodes=40, k=6))
        assert len(result.reports) == 4
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == "bad"
        assert [r.case_id for r in result.reports] == [c.record.id for c in cases if c.record.id != "bad"]

    def test_all_failures_raise(self):
        tiny_mask = np.zeros(10 * 9 * 8, dtype=bool)
        tiny_mask[:2] = True
        good = synth_cohort(SyntheticCohortSpec(n=1, seed=2), dims=(10, 9, 8), voxel_mm=2.0)
        bad = CohortCase(
            record=CohortRecord(id="bad", mean_shear_G=0.7, young_E=2.1),
            volume=good[0].volume,
            mask=RoiMask(dims=(10, 9, 8), flags=tiny_mask),
        )
        with pytest.raises(ValueError, match="all 1 cohort cases failed"):
            run_cohort_retractions([bad], RetractionConfig(n_nodes=40, k=6))

    def test_capped_settle_is_skipped_with_its_reason(self):
        config = RetractionConfig(n_nodes=40, k=6, cg_max=1, cg_tol=1e-30)
        with pytest.raises(NonConvergenceError,
                           match=r"all 1 cohort cases failed; first: step at t=0 s: "
                                 r"CG stopped .* after the cap of 1 iterations"):
            run_cohort_retractions([tiny_case()], config)

    def test_data_and_solver_failures_together_are_a_data_error(self):
        tiny_mask = np.zeros(10 * 9 * 8, dtype=bool)
        tiny_mask[:2] = True
        capped = tiny_case()
        bad = CohortCase(record=CohortRecord(id="bad", mean_shear_G=0.7, young_E=2.1),
                         volume=capped.volume, mask=RoiMask(dims=(10, 9, 8), flags=tiny_mask))
        config = RetractionConfig(n_nodes=40, k=6, cg_max=1, cg_tol=1e-30)
        with pytest.raises(ValueError, match="all 2 cohort cases failed; first: step at t=0 s"):
            run_cohort_retractions([capped, bad], config)

    def test_empty_cohort_raises(self):
        with pytest.raises(ValueError, match="empty"):
            run_cohort_retractions([], RetractionConfig())


class TestComparisonCsv:
    def reports(self):
        return [
            ComparisonReport(case_id="case_000", per_landmark=(("tool", 1.0),),
                             mean_volume_diff=0.25, at_tool_diff=1.5),
            ComparisonReport(case_id="case_001", per_landmark=(),
                             mean_volume_diff=2.0, at_tool_diff=6.25),
        ]

    def test_layout_and_roundtrip(self, tmp_path):
        path = write_comparison_csv(self.reports(), tmp_path / "comparison.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "case,mean_volume_diff_mm,at_tool_diff_mm,significant"
        assert lines[1] == "case_000,0.25,1.5,false"
        assert lines[2] == "case_001,2.0,6.25,true"
        rows = load_comparison_csv(path)
        assert rows[0]["at_tool_diff_mm"] == 1.5
        assert rows[1]["significant"] is True

    def test_byte_identical_rewrites(self, tmp_path):
        a = write_comparison_csv(self.reports(), tmp_path / "a.csv").read_bytes()
        b = write_comparison_csv(self.reports(), tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_load_rejects_other_headers(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_comparison_csv(p)

    @pytest.mark.parametrize("mean, at_tool, field", [
        ("nan", "1.5", "mean_volume_diff_mm"), ("0.25", "inf", "at_tool_diff_mm"),
        ("0.25", "-inf", "at_tool_diff_mm"), ("-0.5", "1.5", "mean_volume_diff_mm"),
    ])
    def test_load_rejects_a_difference_not_finite_and_non_negative(self, tmp_path, mean,
                                                                    at_tool, field):
        path = write_comparison_csv(self.reports(), tmp_path / "comparison.csv")
        path.write_text(path.read_text() + f"case_002,{mean},{at_tool},false\n")
        with pytest.raises(VolumeFormatError, match=rf"comparison\.csv, line 4, row \['case_002'.*"
                                                    rf"{field} must be finite and >= 0"):
            load_comparison_csv(path)
