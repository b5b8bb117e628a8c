"""Tests for DOF sampling, Shepard shape functions, and matrix assembly."""

import json
import struct
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from elastosim import meshfree
from elastosim.beam import (
    VALIDATION_BEAMS,
    VALIDATION_K,
    VALIDATION_SEED,
    BeamSpec,
    _hex_grid,
    _hex_unit_sums,
    build_beam_phantom,
)
from elastosim.experiment import (
    RetractionConfig,
    SyntheticCohortSpec,
    case_from_volume,
    stiff_inclusion_case,
    synth_cohort,
    young_material_field,
)
from elastosim.meshfree import (
    DofSet,
    MaterialField,
    ShapeMap,
    SystemMatrices,
    _isotropic_stiffness,
    _lame,
    _pair_pattern,
    assemble_mass,
    assemble_stiffness,
    build_model,
    correct_gradients,
    load_model,
    sample_dofs,
    save_model,
    shape_weights,
    shepard_weights,
)
from elastosim.volume import RoiMask, VolumeFormatError, VoxelVolume, voxel_centers

from conftest import (
    assert_same_csr,
    block_assembly,
    einsum_corrected_gradients,
    elasticity_matrix,
    full_pair_pattern,
    full_pair_stiffness,
    hex_element_stiffness,
    reference_read_archive,
    reference_save_model,
    strain_displacement,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import _model_arrays, model_digest  # noqa: E402


def make_field(dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0), young=2.1, nu=0.45,
               density=1000.0, mask_flags=None):
    n = dims[0] * dims[1] * dims[2]
    vol = VoxelVolume(dims=dims, spacing_mm=spacing, kind="elastogram_shear_kPa",
                      data=np.full(n, young))
    flags = np.ones(n, dtype=bool) if mask_flags is None else mask_flags
    return MaterialField(volume=vol, mask=RoiMask(dims=dims, flags=flags), nu=nu,
                         density=density)


class TestMaterialField:
    def test_rejects_zero_young_in_mask(self):
        vol = VoxelVolume(dims=(2, 1, 1), spacing_mm=(1.0, 1.0, 1.0),
                          kind="elastogram_shear_kPa", data=np.array([0.0, 1.0]))
        mask = RoiMask(dims=(2, 1, 1), flags=np.array([True, True]))
        with pytest.raises(ValueError, match="Young"):
            MaterialField(volume=vol, mask=mask, nu=0.45, density=1000.0)

    def test_rejects_non_finite_young_in_mask(self):
        # The volume checks its data on construction; a later in-place edit
        # must still be caught before it reaches assembly.
        vol = VoxelVolume(dims=(2, 1, 1), spacing_mm=(1.0, 1.0, 1.0),
                          kind="elastogram_shear_kPa", data=np.array([1.0, 1.0]))
        vol.data[0] = np.nan
        mask = RoiMask(dims=(2, 1, 1), flags=np.array([True, True]))
        with pytest.raises(ValueError, match="finite"):
            MaterialField(volume=vol, mask=mask, nu=0.45, density=1000.0)

    def test_zero_young_outside_mask_ok(self):
        vol = VoxelVolume(dims=(2, 1, 1), spacing_mm=(1.0, 1.0, 1.0),
                          kind="elastogram_shear_kPa", data=np.array([0.0, 1.0]))
        mask = RoiMask(dims=(2, 1, 1), flags=np.array([False, True]))
        field = MaterialField(volume=vol, mask=mask, nu=0.45, density=1000.0)
        assert field.masked_young().tolist() == [1.0]

    @pytest.mark.parametrize("density", [0.0, -1.0, float("nan"), float("inf"),
                                         pytest.param(10**400, id="int_past_every_float")])
    def test_rejects_density_not_finite_and_positive(self, density):
        with pytest.raises(ValueError, match="density must be finite and > 0"):
            make_field(density=density)

    def test_rejects_nu_half(self):
        with pytest.raises(ValueError, match="Poisson"):
            make_field(nu=0.5)

    def test_with_young_scalar(self):
        field = make_field(young=3.0).with_young(2.1)
        assert np.all(field.masked_young() == np.float32(2.1))


class TestSampleDofs:
    @pytest.mark.parametrize("n_nodes", [0, 1, 3])
    def test_fewer_than_four_nodes_rejected_by_name(self, n_nodes):
        with pytest.raises(ValueError, match=f"^a 3D model needs at least 4 nodes, got {n_nodes}$"):
            sample_dofs(make_field(), n_nodes=n_nodes, seed=0)

    def test_eight_nodes_on_eight_voxels(self):
        field = make_field(dims=(2, 2, 2))
        dofs = sample_dofs(field, n_nodes=8, seed=0)
        centers = field.masked_centers()
        # Exhaustive assignment check: each node sits on a distinct voxel
        # center and owns exactly that voxel.
        matched = set()
        for i, node in enumerate(dofs.nodes):
            d = np.linalg.norm(centers - node, axis=1)
            j = int(np.argmin(d))
            assert d[j] < 1e-12, f"node {i} not on a voxel center"
            assert j not in matched
            matched.add(j)
            assert dofs.owner[j] == i
        assert len(matched) == 8

    def test_too_many_nodes_rejected(self):
        field = make_field(dims=(2, 2, 1))
        with pytest.raises(ValueError, match="exceeds"):
            sample_dofs(field, n_nodes=5, seed=0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample_dofs(make_field(), n_nodes=4, seed=-1)

    def test_owner_matches_final_nodes(self):
        field = make_field(dims=(6, 5, 4))
        dofs = sample_dofs(field, n_nodes=10, seed=1)
        centers = field.masked_centers()
        for v in range(len(centers)):
            d2 = np.sum((dofs.nodes - centers[v]) ** 2, axis=1)
            assert d2[dofs.owner[v]] == d2.min()

    def test_every_masked_voxel_owned(self):
        field = make_field(dims=(6, 6, 3))
        dofs = sample_dofs(field, n_nodes=7, seed=2)
        assert len(dofs.owner) == field.mask.n_selected
        assert dofs.owner.min() >= 0 and dofs.owner.max() < 7

    def test_deterministic_given_seed(self):
        field = make_field(dims=(6, 6, 3))
        a = sample_dofs(field, n_nodes=9, seed=5)
        b = sample_dofs(field, n_nodes=9, seed=5)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.owner, b.owner)


def lloyd_step(points, nodes):
    """Reference: one full-query Lloyd step, the route `sample_dofs` replaced.

    Every point is searched for its nearest node; each node moves to the
    centroid of its points, and a node nearest to no point respawns at the
    point farthest from its nearest node.  Returns (moved nodes, nearest
    input node of each point).
    """
    idx, d2 = meshfree._nearest_nodes(points, nodes, 1)
    owner, nearest_d2 = idx[:, 0], d2[:, 0]
    counts = np.bincount(owner, minlength=len(nodes))
    sums = np.stack(
        [np.bincount(owner, weights=points[:, c], minlength=len(nodes)) for c in range(3)], axis=1
    )
    owned = counts > 0
    new_nodes = np.empty_like(nodes)
    new_nodes[owned] = sums[owned] / counts[owned, None]
    new_nodes[~owned] = points[np.argmax(nearest_d2)]
    return new_nodes, owner


def loop_lloyd_step(points, nodes):
    """Reference: the per-node centroid loop that `lloyd_step` replaced."""
    d2 = cdist(points, nodes, "sqeuclidean")
    owner = np.argmin(d2, axis=1)
    nearest_d2 = d2[np.arange(len(points)), owner]
    new_nodes = nodes.copy()
    for i in range(len(nodes)):
        sel = owner == i
        if sel.any():
            new_nodes[i] = points[sel].mean(axis=0)
        else:
            new_nodes[i] = points[np.argmax(nearest_d2)]
    return new_nodes, owner


def lloyd_history(field, n_nodes, seed, step=lloyd_step):
    """Reference Lloyd run with one full query per step: [(queried nodes, owner)] per step."""
    centers = field.masked_centers()
    rng = np.random.default_rng(seed)
    nodes = centers[rng.choice(len(centers), size=n_nodes, replace=False)].copy()
    history = []
    for _ in range(meshfree._LLOYD_MAX_ITERS):
        queried = nodes
        nodes, owner = step(centers, queried)
        history.append((queried, owner))
        if np.array_equal(nodes, queried):
            break
    return history


def assert_matches_full_query(field, n_nodes, seed):
    """`sample_dofs` returns the reference's last nodes and owners bit for bit."""
    ref_nodes, ref_owner = lloyd_history(field, n_nodes, seed)[-1]
    dofs = sample_dofs(field, n_nodes=n_nodes, seed=seed)
    assert dofs.nodes.tobytes() == ref_nodes.tobytes()
    assert np.array_equal(dofs.owner, ref_owner)


def tolerance_stop_sample_dofs(field, n_nodes, seed):
    """Reference: Lloyd stopped once no node moves 1e-6 mm, then one more owner query."""
    centers = field.masked_centers()
    rng = np.random.default_rng(seed)
    nodes = centers[rng.choice(len(centers), size=n_nodes, replace=False)].copy()
    for _ in range(meshfree._LLOYD_MAX_ITERS):
        new_nodes, _ = lloyd_step(centers, nodes)
        movement = float(np.linalg.norm(new_nodes - nodes, axis=1).max())
        nodes = new_nodes
        if movement < 1e-6:
            break
    owner, _ = meshfree._nearest_nodes(centers, nodes, 1)
    return nodes, owner[:, 0]


def ellipsoid_field(dims=(14, 11, 9), spacing=(0.7, 1.1, 1.3)):
    n = dims[0] * dims[1] * dims[2]
    field = make_field(dims=dims, spacing=spacing)
    centers = voxel_centers(dims, spacing)
    rel = (centers - centers.mean(axis=0)) / (0.45 * np.array(dims) * np.array(spacing))
    flags = (rel**2).sum(axis=1) <= 1.0
    young = np.random.default_rng(4).uniform(1.0, 5.0, n)
    return make_field(dims=dims, spacing=spacing, mask_flags=flags).with_young(young)


def cohort_field(seed, index):
    """`cohort-run --seed seed`'s case `index`, which that run samples with Lloyd seed `seed`."""
    case = synth_cohort(SyntheticCohortSpec(n=3, seed=seed))[index]
    return young_material_field(case.volume, case.mask)


def inclusion_field(contrast):
    case = stiff_inclusion_case(contrast)
    return young_material_field(case.volume, case.mask)


def beam_field(spec):
    return make_field(dims=spec.cells(), spacing=(spec.resolution,) * 3, young=spec.E)


SLENDER = BeamSpec(L=50.0, w=10.0, h_beam=2.5, E=12.0, q_load=6e-8, resolution=0.625)
STOCKY = BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12.0, q_load=1e-4, resolution=1.64)


class TestLloydStep:
    def test_matches_per_node_loop_bit_for_bit(self):
        points = ellipsoid_field().masked_centers()
        nodes = points[np.random.default_rng(0).choice(len(points), 40, replace=False)]
        for _ in range(8):
            step, owner = lloyd_step(points, nodes)
            ref_step, ref_owner = loop_lloyd_step(points, nodes)
            assert np.array_equal(step, ref_step)
            assert np.array_equal(owner, ref_owner)
            nodes = step

    def test_empty_cells_respawn_at_farthest_point(self):
        points = ellipsoid_field().masked_centers()
        nodes = points[np.random.default_rng(1).choice(len(points), 12, replace=False)]
        nodes[5] = nodes[2]  # a duplicate loses every tie to the lower index
        nodes[9] = [1e3, 1e3, 1e3]  # far outside the points
        d2 = cdist(points, nodes, "sqeuclidean")
        assert set(np.argmin(d2, axis=1)).isdisjoint({5, 9})
        step, owner = lloyd_step(points, nodes)
        ref_step, ref_owner = loop_lloyd_step(points, nodes)
        assert np.array_equal(step, ref_step) and np.array_equal(owner, ref_owner)
        farthest = points[np.argmax(d2.min(axis=1))]
        assert np.array_equal(step[5], farthest) and np.array_equal(step[9], farthest)

    def test_sample_dofs_matches_per_node_loop(self):
        field = ellipsoid_field()
        dofs = sample_dofs(field, n_nodes=60, seed=3)
        ref_nodes, ref_owner = lloyd_history(field, 60, 3, step=loop_lloyd_step)[-1]
        assert np.array_equal(dofs.nodes, ref_nodes)
        assert np.array_equal(dofs.owner, ref_owner)


class TestLloydStop:
    def test_capped_run_returns_the_last_queried_nodes_and_their_owners(self, monkeypatch):
        field = ellipsoid_field()
        centers = field.masked_centers()
        seeds = centers[np.random.default_rng(3).choice(len(centers), 60, replace=False)]
        first, _ = lloyd_step(centers, seeds)
        second, _ = lloyd_step(centers, first)
        assert not np.array_equal(second, first), "two steps must not reach the fixed point"
        monkeypatch.setattr(meshfree, "_LLOYD_MAX_ITERS", 2)
        dofs = sample_dofs(field, n_nodes=60, seed=3)
        assert np.array_equal(dofs.nodes, first)
        ref_idx, _ = nearest_oracle(centers, dofs.nodes, 1)
        assert np.array_equal(dofs.owner, ref_idx[:, 0])

    @pytest.mark.parametrize("source", ["cohort", "slender beam"])
    def test_fixed_point_stop_matches_tolerance_stop(self, source):
        if source == "cohort":
            cases = [case for seed in (3, 4, 5)
                     for case in synth_cohort(SyntheticCohortSpec(n=3, seed=seed))]
            fields, n_nodes = [young_material_field(c.volume, c.mask) for c in cases], 300
        else:
            fields, n_nodes = [beam_field(SLENDER)], 2441
        for field in fields:
            dofs = sample_dofs(field, n_nodes=n_nodes, seed=0)
            ref_nodes, ref_owner = tolerance_stop_sample_dofs(field, n_nodes, seed=0)
            assert np.array_equal(dofs.nodes, ref_nodes)
            assert np.array_equal(dofs.owner, ref_owner)


class TestIncrementalLloyd:
    """`sample_dofs`, which re-queries only the voxels a step can reassign,
    against `lloyd_history`, which queries every voxel at every step."""

    @pytest.mark.parametrize("build", [
        *[f"cohort seed {s} case {i}" for s in (3, 4, 5, 7) for i in range(3)],
        *[f"inclusion {c}x" for c in (1, 2, 4)],
        "slender beam", "stocky beam",
    ])
    def test_pipeline_builds(self, build):
        if build.startswith("cohort"):
            seed, index = int(build.split()[2]), int(build.split()[4])
            assert_matches_full_query(cohort_field(seed, index), 300, seed)
        elif build.startswith("inclusion"):
            assert_matches_full_query(inclusion_field(float(build.split()[1][:-1])), 300, 0)
        elif build == "slender beam":
            assert_matches_full_query(beam_field(SLENDER), 2441, 0)
        else:
            assert_matches_full_query(beam_field(STOCKY), 500, 0)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("n_nodes", [4, 40, 600])
    def test_inclusion_across_seeds_and_node_counts(self, seed, n_nodes):
        assert_matches_full_query(inclusion_field(4.0), n_nodes, seed)

    def test_respawned_node(self):
        # Two slabs, 2 mm apart: some step leaves a node between them with no voxel.
        dims = (20, 2, 2)
        x = np.arange(80) % dims[0]
        field = make_field(dims=dims, mask_flags=(x < 2) | (x > 6))
        history = lloyd_history(field, 12, 3)
        assert any(len(np.unique(owner)) < 12 for _, owner in history)
        assert_matches_full_query(field, 12, 3)

    def test_moved_node_ties_the_owner_with_a_lower_index(self):
        # Unit spacing: every d^2 is exact, so distinct nodes tie exactly.
        field = make_field(dims=(6, 5, 4))
        centers = field.masked_centers()
        history = lloyd_history(field, 17, 5)
        ties = 0
        for (before, old_owner), (nodes, owner) in zip(history, history[1:]):
            d2 = cdist(centers, nodes, "sqeuclidean")
            rows = np.arange(len(centers))
            moved = (nodes != before).any(axis=1)
            ties += np.sum(moved[owner] & (owner < old_owner)
                           & (d2[rows, owner] == d2[rows, old_owner]))
        assert ties > 0
        assert_matches_full_query(field, 17, 5)

    def test_rival_beyond_the_search_radius(self):
        # A node that moves while farther than every owner distance is never
        # compared; only the cap of each bound at the radius keeps it
        # counted when a later step moves the voxel's owner away.
        flags = np.zeros(45, dtype=bool)
        flags[[1, 3, 5, 6, 9, 10, 14, 15, 16, 17, 18, 19, 20, 23, 25, 26, 29, 30, 31, 32, 33, 34,
               35, 36, 38, 40, 42]] = True
        field = make_field(dims=(3, 5, 3), spacing=(0.5, 1.3, 1.0), mask_flags=flags)
        assert_matches_full_query(field, 4, 26)

    def test_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            dims = tuple(int(d) for d in rng.integers(2, 8, 3))
            flags = rng.random(int(np.prod(dims))) < rng.uniform(0.3, 1.0)
            if flags.sum() < 4:
                continue
            spacing = tuple(float(h) for h in rng.choice([0.5, 0.7, 1.0, 1.3], 3))
            field = make_field(dims=dims, spacing=spacing, mask_flags=flags)
            n_nodes = int(rng.integers(4, flags.sum() + 1))
            assert_matches_full_query(field, n_nodes, int(rng.integers(0, 100)))

    def test_as_many_nodes_as_voxels(self):
        field = make_field(dims=(4, 3, 2))
        assert_matches_full_query(field, 24, 0)
        assert_matches_full_query(ellipsoid_field(), field.mask.n_selected, 1)

    @pytest.mark.parametrize("cap", [1, 2, 3, 7])
    def test_capped_runs(self, monkeypatch, cap):
        monkeypatch.setattr(meshfree, "_LLOYD_MAX_ITERS", cap)
        history = lloyd_history(ellipsoid_field(), 60, 3)
        assert len(history) == cap
        assert_matches_full_query(ellipsoid_field(), 60, 3)

    def test_requeries_under_a_quarter_of_the_voxels(self, monkeypatch):
        field = cohort_field(7, 1)
        queried, steps = [], []
        nearest, centroids = meshfree._nearest_nodes, meshfree._centroids

        def counted_nearest(points, nodes, k):
            queried.append(len(points))
            return nearest(points, nodes, k)

        def counted_centroids(*args):
            steps.append(1)
            return centroids(*args)

        monkeypatch.setattr(meshfree, "_nearest_nodes", counted_nearest)
        monkeypatch.setattr(meshfree, "_centroids", counted_centroids)
        sample_dofs(field, n_nodes=300, seed=7)
        n_vox = field.mask.n_selected
        assert queried[0] == n_vox and len(steps) > 5
        assert sum(queried[1:]) < 0.25 * len(steps) * n_vox


def nearest_oracle(points, nodes, k):
    """Brute force: every point-to-node d^2, each row ordered by (d^2, node index)."""
    d2 = cdist(points, nodes, "sqeuclidean")
    idx = np.array([np.lexsort((np.arange(len(nodes)), row))[:k] for row in d2])
    idx = idx.reshape(len(points), k)
    return idx, np.take_along_axis(d2, idx, axis=1)


def assert_matches_oracle(points, nodes, k):
    idx, d2 = meshfree._nearest_nodes(points, nodes, k)
    ref_idx, ref_d2 = nearest_oracle(points, nodes, k)
    assert idx.dtype == ref_idx.dtype and idx.shape == ref_idx.shape == (len(points), k)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(d2, ref_d2)


def record_query_widths(monkeypatch):
    """Record (rows, width) of every k-d tree query `_nearest_nodes` makes."""
    widths = []

    class Recorded(cKDTree):
        def query(self, x, k):
            widths.append((len(x), k))
            return super().query(x, k)

    monkeypatch.setattr(meshfree, "cKDTree", Recorded)
    return widths


class TestNearestNode:
    def test_k1_ties_go_to_the_lowest_index(self):
        rng = np.random.default_rng(0)
        points = rng.integers(-3, 4, size=(57, 3)).astype(float)
        nodes = rng.integers(-3, 4, size=(6, 3)).astype(float)
        nodes[4] = nodes[1]  # an exact duplicate: every point near it ties
        d2 = cdist(points, nodes, "sqeuclidean")
        assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum() >= 5
        idx, nearest_d2 = meshfree._nearest_nodes(points, nodes, 1)
        assert idx.shape == nearest_d2.shape == (57, 1)
        owner, nearest_d2 = idx[:, 0], nearest_d2[:, 0]
        assert np.array_equal(owner, np.argmin(d2, axis=1))
        assert np.array_equal(nearest_d2, d2.min(axis=1))
        assert not (owner == 4).any(), "ties go to the lowest node index"

    def test_k_nearest_sorted_by_distance_then_index(self):
        rng = np.random.default_rng(1)
        points = rng.integers(-3, 4, size=(41, 3)).astype(float)
        nodes = rng.integers(-3, 4, size=(40, 3)).astype(float)  # integer grid: many ties
        d2 = cdist(points, nodes, "sqeuclidean")
        idx, nearest_d2 = meshfree._nearest_nodes(points, nodes, 3)
        ref = np.array([np.lexsort((np.arange(len(nodes)), row))[:3] for row in d2])
        # Rows where nodes tie at the third distance keep the lowest indices too.
        straddles = (d2 <= nearest_d2[:, 2:]).sum(axis=1) > 3
        assert 0 < straddles.sum() < len(points) - 5
        assert np.array_equal(idx, ref)
        assert np.array_equal(nearest_d2, np.take_along_axis(d2, ref, axis=1))
        tied = np.diff(nearest_d2, axis=1) == 0
        assert tied.any(), "ties within a row check the index order"
        assert (np.diff(idx, axis=1)[tied] > 0).all()

    @pytest.mark.parametrize("k", [1, 6])
    def test_tie_heavy_search_holds_no_distance_block(self, k):
        # Integer-grid points and nodes tie at the k-th distance in many rows.
        # A dense block of 1 000 rows against all 2 000 nodes is 16 MB.
        rng = np.random.default_rng(3)
        points = rng.integers(0, 40, size=(20_000, 3)).astype(float)
        nodes = rng.integers(0, 40, size=(2_000, 3)).astype(float)
        block = 8 * 1_000 * len(nodes)
        tracemalloc.start()
        try:
            meshfree._nearest_nodes(points, nodes, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block, f"peak {peak / block:.2f} blocks"

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=30),
        nodes=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=14),
    )
    @example(points=[(0, 0, 0)], nodes=[(1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                                       (-1, 0, 0), (0, 1, 0), (2, 2, 2)])
    def test_matches_the_oracle_on_integer_grids(self, points, nodes):
        # Small grids tie and repeat nodes often; every k covers n = k + 1 and k = n.
        points, nodes = np.array(points, dtype=float), np.array(nodes, dtype=float)
        for k in range(1, len(nodes) + 1):
            assert_matches_oracle(points, nodes, k)

    def test_a_wide_tie_widens_until_the_last_candidate_is_clear(self, monkeypatch):
        # Six nodes tie at distance 1: more than 2(k + 1) of them for k = 2.
        face = [(1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (-1, 0, 0), (0, 1, 0)]
        far = [(5, 5, 5 + i) for i in range(10)]
        nodes = np.array(far[:4] + face + far[4:], dtype=float)
        points = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 3.0]])
        widths = record_query_widths(monkeypatch)
        idx, d2 = meshfree._nearest_nodes(points, nodes, 2)
        assert widths == [(2, 3), (1, 6), (1, 12)]
        assert idx[0].tolist() == [4, 5] and d2[0].tolist() == [1.0, 1.0]
        assert_matches_oracle(points, nodes, 2)


class TestTreeSearch:
    """`_nearest_nodes` against the brute-force (d^2, index) oracle."""

    @pytest.mark.parametrize("k", [1, 3, 6, 8])
    def test_tie_heavy_integer_grid(self, monkeypatch, k):
        rng = np.random.default_rng(10 + k)
        points = rng.integers(-4, 5, size=(300, 3)).astype(float)
        nodes = rng.integers(-4, 5, size=(60, 3)).astype(float)
        widths = record_query_widths(monkeypatch)
        assert_matches_oracle(points, nodes, k)
        # The first query settled most rows; the tied rest asked again, wider.
        assert widths[0] == (len(points), k + 1)
        assert 0 < widths[1][0] < len(points) and widths[1][1] == 2 * (k + 1)

    def test_k_equal_to_node_count_is_searched_exactly(self, monkeypatch):
        rng = np.random.default_rng(5)
        points = rng.integers(-3, 4, size=(50, 3)).astype(float)
        nodes = rng.integers(-3, 4, size=(9, 3)).astype(float)
        widths = record_query_widths(monkeypatch)
        assert_matches_oracle(points, nodes, 9)
        assert_matches_oracle(points, nodes, 8)  # k + 1 = n: the first query holds every node
        assert widths == [(len(points), 9), (len(points), 9)]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_duplicate_nodes(self, k):
        rng = np.random.default_rng(6)
        points = rng.uniform(0.0, 10.0, size=(400, 3))
        nodes = rng.uniform(0.0, 10.0, size=(30, 3))
        nodes[10:20] = nodes[:10]
        nodes[25] = nodes[3]
        assert_matches_oracle(points, nodes, k)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_points_on_nodes(self, k):
        rng = np.random.default_rng(7)
        nodes = rng.uniform(-5.0, 5.0, size=(40, 3))
        points = np.concatenate([nodes, rng.uniform(-5.0, 5.0, size=(100, 3)), nodes[::3]])
        assert_matches_oracle(points, nodes, k)
        idx, d2 = meshfree._nearest_nodes(points, nodes, k)
        assert np.array_equal(idx[:40, 0], np.arange(40)) and (d2[:40, 0] == 0.0).all()

    @pytest.mark.parametrize("name", ["ellipsoid", "beam"])
    def test_sampling_and_shapes_match_the_cdist_path(self, monkeypatch, name):
        if name == "ellipsoid":
            field, n_nodes, k = ellipsoid_field(), 60, 8
        else:
            # The slender cantilever at 1.25 mm voxels with 150 nodes: a
            # regular grid whose Lloyd seeds are voxel centers.
            field, n_nodes, k = make_field(dims=(40, 8, 2), spacing=(1.25,) * 3), 150, 6
        dofs = sample_dofs(field, n_nodes=n_nodes, seed=0)
        shape = shape_weights(dofs, field, k=k)
        monkeypatch.setattr(meshfree, "_nearest_nodes", nearest_oracle)
        ref_dofs = sample_dofs(field, n_nodes=n_nodes, seed=0)
        ref_shape = shape_weights(ref_dofs, field, k=k)
        assert np.array_equal(dofs.nodes, ref_dofs.nodes)
        assert np.array_equal(dofs.owner, ref_dofs.owner)
        for attr in ("indices", "weights", "gradients", "corrected_gradients"):
            assert np.array_equal(getattr(shape, attr), getattr(ref_shape, attr)), attr


class TestShepardWeights:
    def test_coincident_point_gets_unit_weight(self):
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        idx, w, gw = shepard_weights(nodes[[1]], nodes, k=3)
        j = int(np.argmax(w[0]))
        assert idx[0, j] == 1
        assert w[0, j] == 1.0
        assert np.all(np.delete(w[0], j) == 0.0)
        assert np.all(gw[0] == 0.0)

    def test_equidistant_pair_splits_evenly(self):
        nodes = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [9.0, 9.0, 9.0]])
        _, w, _ = shepard_weights(np.array([[1.0, 0.0, 0.0]]), nodes, k=2)
        assert w[0] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_gradients_match_finite_differences(self):
        # Central-difference oracle with the full node set as support so the
        # k-nearest selection cannot switch between evaluations.
        rng = np.random.default_rng(12)
        nodes = rng.uniform(0.0, 10.0, size=(9, 3))
        points = rng.uniform(2.0, 8.0, size=(20, 3))
        k = len(nodes)
        idx, w, gw = shepard_weights(points, nodes, k=k)
        h = 1e-4
        for p in range(len(points)):
            for axis in range(3):
                lo, hi = points[p].copy(), points[p].copy()
                lo[axis] -= h
                hi[axis] += h
                idx_hi, w_hi, _ = shepard_weights(hi[None], nodes, k=k)
                idx_lo, w_lo, _ = shepard_weights(lo[None], nodes, k=k)
                # Align by node index before differencing.
                w_hi_by = {int(i): v for i, v in zip(idx_hi[0], w_hi[0])}
                w_lo_by = {int(i): v for i, v in zip(idx_lo[0], w_lo[0])}
                for slot, node_i in enumerate(idx[p]):
                    fd = (w_hi_by[int(node_i)] - w_lo_by[int(node_i)]) / (2 * h)
                    an = gw[p, slot, axis]
                    scale = max(abs(fd), abs(an), 1e-12)
                    assert abs(fd - an) <= 1e-5 * scale, (
                        f"point {p} axis {axis} node {node_i}: fd={fd} analytic={an}"
                    )

    def test_rejects_bad_k(self):
        nodes = np.zeros((3, 3))
        with pytest.raises(ValueError, match="support size"):
            shepard_weights(np.zeros((1, 3)), nodes, k=4)

    def test_rejects_support_size_one_by_name(self):
        # A lone support node has zero gradients, so K would store no entry.
        nodes = np.random.default_rng(0).uniform(0.0, 10.0, size=(5, 3))
        with pytest.raises(ValueError,
                           match=r"^support size k=1 must lie in \[2, 5\], the node count$"):
            shepard_weights(np.zeros((1, 3)), nodes, k=1)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(4, 20), k=st.integers(2, 8))
    def test_partition_of_unity_and_zero_sum_gradients(self, seed, n_nodes, k):
        rng = np.random.default_rng(seed)
        nodes = rng.uniform(0.0, 20.0, size=(n_nodes, 3))
        points = rng.uniform(0.0, 20.0, size=(30, 3))
        _, w, gw = shepard_weights(points, nodes, k=min(k, n_nodes))
        assert np.all(w >= 0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(gw.sum(axis=1))) <= 1e-7


class TestCorrectGradients:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e60])
    def test_linear_fields_are_exact_at_any_length_scale(self, scale):
        # det(C) is in length^6, so at 1e60 mm it overflows unless C is made unit-free.
        rng = np.random.default_rng(0)
        nodes = rng.uniform(0.0, 20.0, size=(12, 3)) * scale
        points = rng.uniform(0.0, 20.0, size=(30, 3)) * scale
        idx, _, raw = shepard_weights(points, nodes, k=6)
        corrected = correct_gradients(raw, nodes[idx])
        identity = np.einsum("mka,mkb->mab", corrected, nodes[idx])
        assert np.abs(identity - np.eye(3)).max() <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e60])
    def test_matches_the_einsum_reference_on_degenerate_supports(self, scale):
        # Spanning supports, points on a node (raw gradients 0), coplanar
        # supports and supports of one repeated point (the last two keep
        # their raw gradients).
        rng = np.random.default_rng(1)
        nodes = rng.uniform(0.0, 20.0, size=(12, 3)) * scale
        points = np.vstack([rng.uniform(0.0, 20.0, size=(30, 3)) * scale, nodes[:3]])
        idx, _, raw = shepard_weights(points, nodes, k=6)
        spanning = nodes[idx]
        coplanar = spanning.copy()
        coplanar[..., 2] = 5.0 * scale
        one_point = np.broadcast_to(spanning[:, :1], spanning.shape)
        gradients = np.concatenate([raw] * 3)
        positions = np.concatenate([spanning, coplanar, one_point])
        corrected = correct_gradients(gradients, positions)
        want, ok = einsum_corrected_gradients(gradients, positions)
        assert np.array_equal(ok, np.arange(len(ok)) < len(raw))
        assert np.array_equal(corrected[~ok], gradients[~ok])
        assert np.abs(corrected - want).max() <= 1e-13 * np.abs(want).max()


def hand_stiffness_single_voxel(center, nodes, young_kpa, nu, v_mm3):
    """Scalar-loop oracle: IDW2 weights, quotient-rule gradients, the minimal
    linear-consistency shift via cofactor 3x3 inversion, then B^T D B * V."""
    n = len(nodes)
    s = [1.0 / sum((center[a] - nodes[i][a]) ** 2 for a in range(3)) for i in range(n)]
    S = sum(s)
    w = [si / S for si in s]
    gs = []
    for i in range(n):
        d2 = 1.0 / s[i]
        gs.append([-2.0 * (center[a] - nodes[i][a]) / d2**2 for a in range(3)])
    gS = [sum(gs[i][a] for i in range(n)) for a in range(3)]
    gw_raw = [[(gs[i][a] - w[i] * gS[a]) / S for a in range(3)] for i in range(n)]

    # Min-norm shift: ghat_i = g_i + xc_i C^-1 (I - A)^T with A = sum g_i x_i^T,
    # xc the mean-centered node positions and C = sum xc_i xc_i^T.
    mean = [sum(nodes[i][a] for i in range(n)) / n for a in range(3)]
    xc = [[nodes[i][a] - mean[a] for a in range(3)] for i in range(n)]
    A = [[sum(gw_raw[i][a] * nodes[i][b] for i in range(n)) for b in range(3)]
         for a in range(3)]
    C = [[sum(xc[i][a] * xc[i][b] for i in range(n)) for b in range(3)]
         for a in range(3)]
    detC = (
        C[0][0] * (C[1][1] * C[2][2] - C[1][2] * C[2][1])
        - C[0][1] * (C[1][0] * C[2][2] - C[1][2] * C[2][0])
        + C[0][2] * (C[1][0] * C[2][1] - C[1][1] * C[2][0])
    )
    inv = [
        [(C[1][1] * C[2][2] - C[1][2] * C[2][1]) / detC,
         (C[0][2] * C[2][1] - C[0][1] * C[2][2]) / detC,
         (C[0][1] * C[1][2] - C[0][2] * C[1][1]) / detC],
        [(C[1][2] * C[2][0] - C[1][0] * C[2][2]) / detC,
         (C[0][0] * C[2][2] - C[0][2] * C[2][0]) / detC,
         (C[0][2] * C[1][0] - C[0][0] * C[1][2]) / detC],
        [(C[1][0] * C[2][1] - C[1][1] * C[2][0]) / detC,
         (C[0][1] * C[2][0] - C[0][0] * C[2][1]) / detC,
         (C[0][0] * C[1][1] - C[0][1] * C[1][0]) / detC],
    ]
    resid = [[(1.0 if a == b else 0.0) - A[a][b] for b in range(3)] for a in range(3)]
    # shift_i[c] = sum_{a,b} xc_i[a] * inv[a][b] * resid[c][b]
    gw = [[gw_raw[i][c]
           + sum(xc[i][a] * inv[a][b] * resid[c][b] for a in range(3) for b in range(3))
           for c in range(3)]
          for i in range(n)]

    e = young_kpa * 1e-3
    c = e / ((1 + nu) * (1 - 2 * nu))
    D = [[0.0] * 6 for _ in range(6)]
    for a in range(3):
        for b in range(3):
            D[a][b] = c * ((1 - nu) if a == b else nu)
    for a in range(3, 6):
        D[a][a] = c * (1 - 2 * nu) / 2

    B = [[0.0] * (3 * n) for _ in range(6)]
    for i in range(n):
        gx, gy, gz = gw[i]
        B[0][3 * i + 0] = gx
        B[1][3 * i + 1] = gy
        B[2][3 * i + 2] = gz
        B[3][3 * i + 0] = gy
        B[3][3 * i + 1] = gx
        B[4][3 * i + 1] = gz
        B[4][3 * i + 2] = gy
        B[5][3 * i + 0] = gz
        B[5][3 * i + 2] = gx

    ke = [[0.0] * (3 * n) for _ in range(3 * n)]
    for a in range(3 * n):
        for b in range(3 * n):
            acc = 0.0
            for p in range(6):
                for q in range(6):
                    acc += B[p][a] * D[p][q] * B[q][b]
            ke[a][b] = acc * v_mm3
    return np.array(ke)


class TestAssembleStiffness:
    def make_single_voxel_setup(self):
        vol = VoxelVolume(dims=(1, 1, 1), spacing_mm=(2.0, 2.0, 2.0),
                          kind="elastogram_shear_kPa", data=np.array([5.0]))
        mask = RoiMask(dims=(1, 1, 1), flags=np.array([True]))
        field = MaterialField(volume=vol, mask=mask, nu=0.3, density=1000.0)
        nodes = np.array([
            [0.0, 0.0, 0.0],
            [2.5, 0.3, 0.1],
            [0.4, 2.2, 0.2],
            [0.1, 0.5, 2.4],
        ])
        dofs = DofSet(nodes=nodes, owner=np.array([0]))
        return field, dofs

    def test_single_voxel_matches_hand_oracle(self):
        field, dofs = self.make_single_voxel_setup()
        shape = shape_weights(dofs, field, k=4)
        K = assemble_stiffness(shape, field, n_nodes=4).toarray()
        center = field.masked_centers()[0]
        # Oracle indexes nodes in shape-map order.
        order = shape.indices[0]
        expected_local = hand_stiffness_single_voxel(
            center, dofs.nodes[order], 5.0, 0.3, 8.0)
        expected = np.zeros((12, 12))
        for a, na in enumerate(order):
            for b, nb in enumerate(order):
                expected[3 * na:3 * na + 3, 3 * nb:3 * nb + 3] = \
                    expected_local[3 * a:3 * a + 3, 3 * b:3 * b + 3]
        assert np.allclose(K, expected, rtol=1e-12, atol=1e-18)

    def test_doubling_young_doubles_K(self):
        field = make_field(dims=(4, 4, 2), young=2.0)
        model = build_model(field, n_nodes=6, k=4, seed=0)
        K2 = assemble_stiffness(model.shape, field.with_young(4.0), n_nodes=6)
        diff = (K2 - 2.0 * model.matrices.K)
        assert abs(diff).max() == 0.0, "K is exactly linear in E"

    def test_rigid_translation_annihilated(self):
        field = make_field(dims=(5, 4, 3))
        model = build_model(field, n_nodes=8, k=6, seed=1)
        K = model.matrices.K
        norm_K = sp.linalg.norm(K)
        for axis in range(3):
            t = np.zeros(K.shape[0])
            t[axis::3] = 1.0
            assert np.linalg.norm(K @ t) <= 1e-7 * norm_K * np.linalg.norm(t)

    def test_symmetry_and_psd(self):
        field = make_field(dims=(4, 4, 4))
        model = build_model(field, n_nodes=10, k=6, seed=2)
        K = model.matrices.K
        asym = abs(K - K.T).max()
        assert asym <= 1e-9 * abs(K).max()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(K.shape[0])
            assert x @ (K @ x) >= -1e-9 * (x @ x)


def element_dofs(nodes):
    return (3 * nodes[:, :, None] + np.arange(3)).reshape(len(nodes), -1)


def dense_scatter(nodes, blocks, n_nodes):
    """Reference: add every block entry into a dense matrix, then symmetrize."""
    gdofs = element_dofs(nodes)
    K = np.zeros((3 * n_nodes, 3 * n_nodes))
    np.add.at(K, (gdofs[:, :, None], gdofs[:, None, :]), blocks)
    return (K + K.T) * 0.5


def coo_assembly(nodes, blocks, n_nodes):
    """Reference: the per-entry COO assembly that the node-pair sum replaced."""
    gdofs = element_dofs(nodes)
    w = gdofs.shape[1]
    rows = np.repeat(gdofs, w, axis=1).ravel()
    cols = np.tile(gdofs, (1, w)).ravel()
    K = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(3 * n_nodes,) * 2).tocsr()
    K = (K + K.T) * 0.5
    K.sum_duplicates()
    return K


def assert_matches_dense(K, nodes, blocks, n_nodes):
    dense = dense_scatter(nodes, blocks, n_nodes)
    assert np.abs(K.toarray() - dense).max() <= 1e-13 * np.abs(dense).max()


def assert_same_pattern(K, ref):
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)


def kernel_stiffness(nodes, sums, nu, n_nodes):
    """`_isotropic_stiffness` of per-entry sums given as one (3, 3, e, m, m) array.

    Each row of the table, of distinct nodes, is sorted, and the kernel gets
    the sums at the sorted rows' upper entries.
    """
    order = np.argsort(nodes, axis=1)
    a, b = np.triu_indices(np.shape(nodes)[1])
    upper = sums[:, :, np.arange(len(nodes))[:, None], order[:, a], order[:, b]]
    return _isotropic_stiffness(_pair_pattern(np.take_along_axis(nodes, order, axis=1)),
                                lambda i, j: upper[i, j], nu, n_nodes)


class TestAssembleBlocks:
    # `_isotropic_stiffness`, the one kernel of both stiffness matrices,
    # against dense element blocks B^T D B built with the 6x6 D.
    def test_meshfree_stiffness_matches_references(self):
        field = ellipsoid_field(dims=(8, 7, 6))
        model = build_model(field, n_nodes=25, k=6, seed=1)
        shape, young = model.shape, field.masked_young()
        d = elasticity_matrix(1.0, field.nu)
        blocks = np.array([
            b.T @ d @ b * e * field.voxel_volume_mm3
            for b, e in zip(strain_displacement(shape.corrected_gradients), young)
        ])
        K = model.matrices.K
        assert_matches_dense(K, shape.indices, blocks, 25)
        assert_same_pattern(K, coo_assembly(shape.indices, blocks, 25))

    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_hex_grid_matches_references(self, nu):
        ids, conn = _hex_grid((4, 3, 2))
        n_nodes = ids.size
        assert n_nodes == 5 * 4 * 3
        p = 12.0 * _hex_unit_sums(0.8)
        sums = np.broadcast_to(p[:, :, None], (3, 3, len(conn), 8, 8))
        K = kernel_stiffness(conn, sums, nu, n_nodes)
        blocks = np.broadcast_to(hex_element_stiffness(0.8, 12.0, nu), (len(conn), 24, 24))
        assert_matches_dense(K, conn, blocks, n_nodes)
        # Identical element blocks cancel exactly to zero in some summation
        # orders and to roundoff residues in others, so only the entries above
        # roundoff must share their positions with the COO path's.
        ref = coo_assembly(conn, blocks, n_nodes)
        tol = 1e-13 * abs(ref).max()
        assert np.array_equal(np.abs(K.toarray()) > tol, np.abs(ref.toarray()) > tol)

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(1, 6), m=st.integers(1, 4), spare=st.integers(0, 4),
           q=st.sampled_from([1, 2, 8]), nu=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_node_tables_match_references(self, e, m, spare, q, nu, seed):
        n_nodes = m + spare
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.permuted(np.tile(np.arange(n_nodes), (e, 1)), axis=1)[:, :m], axis=1)
        grads = rng.standard_normal((e, q, m, 3))  # q points per element
        w = rng.uniform(0.1, 10.0, size=(e, q))
        K = kernel_stiffness(nodes, np.einsum("ep,epai,epbj->ijeab", w, grads, grads), nu, n_nodes)
        b = strain_displacement(grads.reshape(e * q, m, 3)).reshape(e, q, 6, 3 * m)
        blocks = np.einsum("ep,epia,ij,epjb->eab", w, b, elasticity_matrix(1.0, nu), b)
        assert K.shape == (3 * n_nodes, 3 * n_nodes)
        assert_matches_dense(K, nodes, blocks, n_nodes)
        assert_same_pattern(K, coo_assembly(nodes, blocks, n_nodes))

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(1, 6), m=st.integers(1, 4), spare=st.integers(0, 4),
           q=st.sampled_from([1, 2, 8]), nu=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_mirror_exact_sums_give_K_equal_to_its_transpose(self, e, m, spare, q, nu, seed):
        # The kernel's contract: rows of distinct nodes and sums that form each
        # product before its weight, as `assemble_stiffness` does.
        n_nodes = m + spare
        rng = np.random.default_rng(seed)
        nodes = rng.permuted(np.tile(np.arange(n_nodes), (e, 1)), axis=1)[:, :m]
        grads = rng.standard_normal((e, q, m, 3))
        w = rng.uniform(0.1, 10.0, size=(e, q))
        sums = np.zeros((3, 3, e, m, m))
        for p in range(q):
            g = grads[:, p].transpose(2, 0, 1)  # (i, e, a)
            sums += g[:, None, :, :, None] * g[None, :, :, None, :] * w[:, p, None, None]
        K = kernel_stiffness(nodes, sums, nu, n_nodes)
        b = strain_displacement(grads.reshape(e * q, m, 3)).reshape(e, q, 6, 3 * m)
        blocks = np.einsum("ep,epia,ij,epjb->eab", w, b, elasticity_matrix(1.0, nu), b)
        assert (K != K.T).nnz == 0
        assert_matches_dense(K, nodes, blocks, n_nodes)

    @pytest.mark.parametrize("nodes", [[[0, 2, 2]], [[2, 1, 3]], [[0, 1, 2], [3, 3, 4]],
                                       [[0, 1, 2], [4, 3, 5]]],
                             ids=["repeated", "descending", "second row repeated",
                                  "second row descending"])
    def test_rows_not_distinct_and_ascending_rejected(self, nodes):
        # The kernel sums each unordered pair once, from the upper entries of
        # sorted rows: a repeated node would be counted once, not twice.
        with pytest.raises(ValueError, match="distinct and in ascending order"):
            _pair_pattern(np.array(nodes))


def block_reference_stiffness(shape, field, n_nodes):
    """Reference: every voxel's dense B^T D B block, summed per node pair.

    This is the route that the closed-form per-pair sum of
    `assemble_stiffness` replaced.
    """
    b = strain_displacement(shape.corrected_gradients)
    ke = np.einsum("via,ij,vjb->vab", b, elasticity_matrix(1.0, field.nu), b, optimize=True)
    ke *= (field.masked_young() * field.voxel_volume_mm3)[:, None, None]
    return block_assembly(shape.indices, ke, n_nodes)


@pytest.fixture(scope="module")
def cohort_seed_7_model():
    """`cohort-run --seed 7`'s case_001: 300 nodes, k = 8, 4 264 masked voxels."""
    case = synth_cohort(SyntheticCohortSpec(n=3, seed=7))[1]
    return RetractionConfig(seed=7).measured_model(case)


@pytest.fixture(scope="module")
def slender_beam_model():
    """The mesh-free model of `validate-beam --slender`."""
    spec, n_nodes = VALIDATION_BEAMS["slender"]
    return build_beam_phantom(spec, n_nodes=n_nodes, k=VALIDATION_K, seed=VALIDATION_SEED).model


@pytest.fixture(scope="module")
def benchmark_beam_model():
    """The mesh-free model of the default `validate-beam`."""
    spec, n_nodes = VALIDATION_BEAMS["benchmark"]
    return build_beam_phantom(spec, n_nodes=n_nodes, k=VALIDATION_K, seed=VALIDATION_SEED).model


def full_pair_meshfree_stiffness(shape, field, n_nodes):
    """Reference: `assemble_stiffness` as it summed both ordered pairs of each support row."""
    g = shape.corrected_gradients
    w = field.masked_young() * field.voxel_volume_mm3

    def sums(i, j):
        s = g[:, :, i, None] * g[:, None, :, j]
        s *= w[:, None, None]
        return s

    return full_pair_stiffness(full_pair_pattern(shape.indices), sums, field.nu, n_nodes)


class TestClosedFormStiffness:
    @pytest.mark.parametrize("model_name", ["cohort_seed_7_model", "slender_beam_model"])
    def test_matches_the_voxel_block_route(self, request, model_name):
        model = request.getfixturevalue(model_name)
        K = model.matrices.K
        ref = block_reference_stiffness(model.shape, model.field, model.n_nodes)
        assert_same_pattern(K, ref)
        assert np.abs(K.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
        assert (K != K.T).nnz == 0
        norm_K = sp.linalg.norm(K)
        for axis in range(3):
            t = np.zeros(K.shape[0])
            t[axis::3] = 1.0
            assert np.linalg.norm(K @ t) <= 1e-13 * norm_K * np.linalg.norm(t)

    @pytest.mark.parametrize("model_name", ["cohort_seed_7_model", "slender_beam_model",
                                            "benchmark_beam_model"])
    def test_equals_the_full_pair_kernel_bit_for_bit(self, request, model_name):
        # Each upper pair adds the products that the full-pair kernel added for
        # (a, b), in the same voxel order, and its mirror holds what it added
        # for (b, a).  The atlas twin reuses the model's cached pattern.
        model = request.getfixturevalue(model_name)
        twin = model.with_constant_young(2.1)
        for m in (model, twin):
            ref = full_pair_meshfree_stiffness(m.shape, m.field, m.n_nodes)
            assert_same_csr(m.matrices.K, ref)

    def test_atlas_twin_equals_a_fresh_assembly(self, cohort_seed_7_model):
        model = cohort_seed_7_model
        twin = model.with_constant_young(2.1)
        assert twin.shape is model.shape, "the twin shares the shape map and its node pairs"
        # replace() copies the shape map without its node-pair pattern.
        fresh = assemble_stiffness(replace(model.shape), model.field.with_young(2.1), model.n_nodes)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(twin.matrices.K, name), getattr(fresh, name)), name

    def test_peak_memory_is_below_half_of_the_voxel_blocks(self, cohort_seed_7_model):
        model = cohort_seed_7_model
        shape = replace(model.shape)  # no node-pair pattern yet: the call builds it
        v, k = shape.indices.shape
        assert v >= 4000
        voxel_blocks = v * (3 * k) ** 2 * 8  # the bytes of one (v, 3k, 3k) float64 array
        tracemalloc.start()
        try:
            assemble_stiffness(shape, model.field, model.n_nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * voxel_blocks, f"peak {peak / voxel_blocks:.2f} of the voxel blocks"


class TestAssembleMass:
    def test_total_mass_conserved(self):
        field = make_field(dims=(4, 4, 2), density=1050.0)
        model = build_model(field, n_nodes=5, k=4, seed=0)
        M = model.matrices.M
        expected = 1050.0 * 1e-12 * field.voxel_volume_mm3 * field.mask.n_selected
        total = M[0::3].sum()
        assert abs(total - expected) <= 1e-12 * expected
        # The three components of each node carry the same lumped value.
        assert np.array_equal(M[0::3], M[1::3])
        assert np.array_equal(M[0::3], M[2::3])

    def test_density_scaling(self):
        field = make_field(density=1000.0)
        dofs = sample_dofs(field, n_nodes=6, seed=0)
        shape = shape_weights(dofs, field, k=4)
        m1 = assemble_mass(shape, field, n_nodes=6)
        m2 = assemble_mass(shape, make_field(density=2000.0), n_nodes=6)
        assert np.allclose(m2, 2.0 * m1, rtol=1e-15)

    def test_matches_bruteforce_accumulation(self):
        rng = np.random.default_rng(9)
        flags = rng.random(6**3) < 0.5
        flags[:4] = True
        field = make_field(dims=(6, 6, 6), mask_flags=flags, density=1200.0)
        dofs = sample_dofs(field, n_nodes=8, seed=4)
        shape = shape_weights(dofs, field, k=5)
        M = assemble_mass(shape, field, n_nodes=8)
        per_voxel = 1200.0 * 1e-12 * field.voxel_volume_mm3
        brute = np.zeros(8)
        for v in range(len(shape.indices)):
            for slot in range(shape.k):
                brute[shape.indices[v, slot]] += shape.weights[v, slot] * per_voxel
        assert np.allclose(M[0::3], brute, rtol=1e-12)

    def test_strictly_positive(self):
        field = make_field(dims=(5, 5, 2))
        model = build_model(field, n_nodes=12, k=8, seed=3)
        assert model.matrices.M.min() > 0


class TestAssembleDamping:
    def test_zero_coefficients_give_zero(self):
        field = make_field()
        model = build_model(field, n_nodes=5, k=4, seed=0, alpha=0.0, beta=0.0)
        assert model.matrices.C.nnz == 0 or abs(model.matrices.C).max() == 0.0

    def test_alpha_one_beta_zero_equals_mass(self):
        field = make_field()
        model = build_model(field, n_nodes=5, k=4, seed=0, alpha=1.0, beta=0.0)
        C = model.matrices.C.toarray()
        assert np.allclose(C, np.diag(model.matrices.M), rtol=1e-15)

    def test_rayleigh_combination_elementwise(self):
        field = make_field(dims=(4, 3, 2))
        model = build_model(field, n_nodes=5, k=4, seed=1, alpha=0.1, beta=0.01)
        C = model.matrices.C.toarray()
        expected = 0.1 * np.diag(model.matrices.M) + 0.01 * model.matrices.K.toarray()
        assert np.allclose(C, expected, rtol=1e-12, atol=1e-300)

    def test_rejects_negative(self):
        model = build_model(make_field(), n_nodes=4, k=4, seed=0)
        for name in ("alpha", "beta"):
            with pytest.raises(ValueError, match=f"damping {name} must be finite and >= 0, got -0.1"):
                replace(model.matrices, **{name: -0.1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_rejects_non_finite(self, name, value):
        mats = build_model(make_field(), n_nodes=4, k=4, seed=0).matrices
        with pytest.raises(ValueError, match=f"damping {name} must be finite and >= 0"):
            SystemMatrices(M=mats.M, K=mats.K, **{"alpha": 0.1, "beta": 0.01, name: value})


class TestBuildModel:
    def test_rejects_small_node_count(self):
        with pytest.raises(ValueError, match="^a 3D model needs at least 4 nodes, got 3$"):
            build_model(make_field(), n_nodes=3, k=2, seed=0)

    @pytest.mark.parametrize("k", [0, 1])
    def test_rejects_support_size_below_two(self, k):
        # A lone support node has zero gradients, so K would store no entry.
        with pytest.raises(ValueError,
                           match=rf"^support size k={k} must lie in \[2, 4\], the node count$"):
            build_model(make_field(), n_nodes=4, k=k, seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, value", [
        (name, value) for name in ("alpha", "beta") for value in (float("nan"), float("inf"))
    ])
    def test_rejects_non_finite_damping_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"damping {name} must be finite and >= 0"):
            build_model(make_field(), n_nodes=4, k=4, seed=0, **{name: value})

    def test_homogeneous_cube_invariants(self):
        field = make_field(dims=(5, 5, 5), young=3.0)
        model = build_model(field, n_nodes=15, k=8, seed=7)
        K, M = model.matrices.K, model.matrices.M
        assert M.min() > 0
        assert abs(K - K.T).max() <= 1e-9 * abs(K).max()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(K.shape[0])
        assert x @ (K @ x) >= -1e-9 * (x @ x)
        norm_K = sp.linalg.norm(K)
        for axis in range(3):
            t = np.zeros(K.shape[0])
            t[axis::3] = 1.0
            assert np.linalg.norm(K @ t) <= 1e-7 * norm_K * np.linalg.norm(t)
        assert model.q0.shape == (model.n_dofs,) and np.all(model.q0 == 0.0)

    def test_same_seed_bit_identical(self):
        field = make_field(dims=(5, 4, 3))
        a = build_model(field, n_nodes=8, k=6, seed=11)
        b = build_model(field, n_nodes=8, k=6, seed=11)
        assert np.array_equal(a.dofs.nodes, b.dofs.nodes)
        assert np.array_equal(a.matrices.M, b.matrices.M)
        assert np.array_equal(a.matrices.K.data, b.matrices.K.data)
        assert np.array_equal(a.matrices.K.indices, b.matrices.K.indices)

    def test_constant_young_twin_shares_geometry(self):
        field = make_field(dims=(5, 4, 3), young=4.2)
        model = build_model(field, n_nodes=8, k=6, seed=0)
        twin = model.with_constant_young(2.1)
        assert twin.dofs is model.dofs
        assert twin.shape is model.shape
        assert np.array_equal(twin.matrices.M, model.matrices.M)
        # Constant 4.2 versus constant 2.1 halves K exactly.
        assert abs(twin.matrices.K * 2.0 - model.matrices.K).max() <= 1e-12 * abs(model.matrices.K).max()
        assert (twin.matrices.alpha, twin.matrices.beta) == (model.matrices.alpha, model.matrices.beta)


def assert_owner_is_first_support_node(model):
    """The Lloyd owner of each voxel is the first node of its Shepard support."""
    assert model.dofs.owner.dtype == model.shape.indices.dtype
    assert np.array_equal(model.dofs.owner, model.shape.indices[:, 0])


class TestOwnerIsFirstSupportNode:
    # The archive stores no owners: `load_model` reads them from the first
    # column of shape_indices.  Both come from `_nearest_nodes`, ordered by
    # (d^2, node index), so the two must agree bit for bit.
    def test_randomized_fields(self):
        rng = np.random.default_rng(4321)
        for _ in range(12):
            dims = tuple(int(d) for d in rng.integers(4, 8, size=3))
            n_vox = dims[0] * dims[1] * dims[2]
            flags = rng.random(n_vox) < 0.7
            flags[: max(0, 12 - int(flags.sum()))] = True  # keep enough voxels to sample
            data = np.zeros(n_vox, dtype=np.float32)
            data[flags] = rng.uniform(0.5, 8.0, size=int(flags.sum()))
            field = MaterialField(
                volume=VoxelVolume(dims=dims, spacing_mm=tuple(rng.uniform(0.8, 2.2, size=3)),
                                   kind="elastogram_shear_kPa", data=data),
                mask=RoiMask(dims=dims, flags=flags), nu=0.45, density=1000.0,
            )
            n_nodes = int(rng.integers(6, min(24, field.mask.n_selected) + 1))
            k = int(rng.integers(4, min(8, n_nodes) + 1))
            assert_owner_is_first_support_node(
                build_model(field, n_nodes=n_nodes, k=k, seed=int(rng.integers(0, 1000))))

    def test_unit_spacing_ties(self):
        # Nodes on voxel centers of a unit grid tie at many distances.
        field = make_field(dims=(6, 6, 6))
        for seed in range(4):
            assert_owner_is_first_support_node(build_model(field, n_nodes=20, k=8, seed=seed))

    def test_cohort_cases(self):
        for case in synth_cohort(SyntheticCohortSpec(n=3, seed=7, heterogeneity=0.3)):
            field = young_material_field(case.volume, case.mask)
            assert_owner_is_first_support_node(build_model(field, n_nodes=300, k=8, seed=0))


class TestModelArchive:
    def test_roundtrip_bit_exact(self, tmp_path):
        field = make_field(dims=(4, 4, 3), young=2.5, nu=0.4, density=1100.0)
        model = build_model(field, n_nodes=6, k=5, seed=9, alpha=0.2, beta=0.02)
        path = save_model(model, tmp_path / "model.esim")
        back = load_model(path)
        assert np.array_equal(back.dofs.nodes, model.dofs.nodes)
        # The owners are read from the first column of shape_indices.
        assert np.array_equal(back.dofs.owner, model.dofs.owner)
        assert back.dofs.owner.dtype == model.dofs.owner.dtype
        assert back.shape.k == model.shape.k == 5
        assert np.array_equal(back.shape.indices, model.shape.indices)
        assert np.array_equal(back.shape.weights, model.shape.weights)
        assert np.array_equal(back.shape.gradients, model.shape.gradients)
        assert np.array_equal(back.shape.corrected_gradients, model.shape.corrected_gradients)
        assert np.array_equal(back.matrices.M, model.matrices.M)
        assert np.array_equal(back.q0, model.q0)
        assert (back.matrices.alpha, back.matrices.beta) == (0.2, 0.02)
        # C is derived from alpha, beta, M and K; it must match the built C bit for bit.
        for name in ("K", "C"):
            built, loaded = getattr(model.matrices, name).tocsr(), getattr(back.matrices, name)
            assert np.array_equal(loaded.indptr, built.indptr)
            assert np.array_equal(loaded.indices, built.indices)
            assert np.array_equal(loaded.data, built.data)
        assert back.field.nu == model.field.nu
        assert back.field.density == model.field.density

    def test_stores_each_fact_once(self, tmp_path):
        model = build_model(make_field(dims=(4, 4, 3)), n_nodes=6, k=5, seed=9)
        raw = save_model(model, tmp_path / "model.esim").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        assert header["version"] == 4 and "seed" not in header
        assert [item["name"] for item in header["arrays"]] == [
            "volume_data", "mask_flags", "nodes", "shape_indices", "shape_corrected",
            "K_data", "K_indices", "K_indptr"]

    def test_mass_follows_the_header_density(self, tmp_path):
        # M is assembled from the header's density on load, so an edited
        # density cannot leave a stale M behind.  Doubling rho is exact in
        # floating point, so M doubles bit for bit.
        model = build_model(make_field(dims=(4, 4, 3), density=1000.0), n_nodes=6, k=5, seed=9)
        raw = save_model(model, tmp_path / "model.esim").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        header["density"] = 2000.0
        blob = json.dumps(header).encode()
        path = tmp_path / "denser.esim"
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])
        back = load_model(path)
        assert back.field.density == 2000.0
        assert np.array_equal(back.matrices.M, 2.0 * model.matrices.M)

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_support_size_outside_node_count_rejected(self, tmp_path, k):
        model = build_model(make_field(dims=(4, 4, 3)), n_nodes=6, k=5, seed=9)
        cols = np.arange(k) % 5  # shape arrays that all hold k columns
        shape = ShapeMap(indices=model.shape.indices[:, cols], weights=model.shape.weights[:, cols],
                         gradients=model.shape.gradients[:, cols],
                         corrected_gradients=model.shape.corrected_gradients[:, cols])
        path = save_model(replace(model, shape=shape), tmp_path / "model.esim")
        with pytest.raises(VolumeFormatError, match=rf"support size k={k} must lie in \[2, 6\]"):
            load_model(path)

    def test_flat_shape_indices_rejected(self, tmp_path):
        model = build_model(make_field(dims=(4, 4, 3)), n_nodes=6, k=5, seed=9)
        shape = replace(model.shape, indices=model.shape.indices.ravel())
        path = save_model(replace(model, shape=shape), tmp_path / "model.esim")
        with pytest.raises(VolumeFormatError, match=r"'shape_indices' has shape \(240,\); 48 masked"):
            load_model(path)

    @pytest.mark.parametrize("name, value", [
        ("shape_indices", 99),
        ("owner", 99),
        ("owner", -1),
    ])
    def test_node_index_outside_node_count_rejected(self, tmp_path, name, value):
        # A voxel's owner is stored as the first column of its shape_indices row.
        model = build_model(make_field(dims=(4, 4, 3)), n_nodes=6, k=5, seed=9)
        indices = model.shape.indices.copy()
        indices[7, 0 if name == "owner" else 3] = value
        path = save_model(replace(model, shape=replace(model.shape, indices=indices)),
                          tmp_path / "model.esim")
        with pytest.raises(VolumeFormatError,
                           match=r"'shape_indices' holds a node index outside \[0, 6\)"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.esim"
        p.write_bytes(b"NOTAMODL" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_model(p)


def assert_loads_as_built(model, path):
    """The archive loads to the built model, bit for bit in every array the benchmark digests.

    `save_model` writes the bytes the whole-payload reference writer writes,
    and `_read_archive` returns the arrays the reference reader returns, in
    dtype, shape and bits.
    """
    save_model(model, path)
    reference = reference_save_model(model, path.with_suffix(".reference"))
    assert path.read_bytes() == reference.read_bytes()
    header, arrays = meshfree._read_archive(path)
    want_header, want_arrays = reference_read_archive(path)
    assert header == want_header and list(arrays) == list(want_arrays)
    for name, want in want_arrays.items():
        got = arrays[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    back = load_model(path)
    built_arrays, loaded_arrays = _model_arrays(model), _model_arrays(back)
    for name, built in built_arrays.items():
        loaded = loaded_arrays[name]
        assert loaded.shape == built.shape, name
        if built.dtype.kind == "f":
            assert loaded.dtype == built.dtype, name
        assert np.array_equal(loaded, built), name
    assert model_digest(back) == model_digest(model)


class TestArchiveRebuild:
    # The archive stores no Shepard weights, raw gradients or M; `load_model`
    # recomputes them with the build's own code, on the pipeline's models.
    def test_cohort_run_seed_7_cases(self, tmp_path):
        config = RetractionConfig(seed=7)
        for case in synth_cohort(SyntheticCohortSpec(n=3, seed=7)):
            assert_loads_as_built(config.measured_model(case), tmp_path / f"{case.record.id}.esm")

    def test_build_workload_seed_1_cases(self, tmp_path):
        # `synth-cohort --n 8 --seed 1 --heterogeneity 0.3`, then `build-model --seed 1`.
        config = RetractionConfig(seed=1)
        for case in synth_cohort(SyntheticCohortSpec(n=8, seed=1, heterogeneity=0.3)):
            case = case_from_volume(case.volume, case.record.id)
            assert_loads_as_built(config.measured_model(case), tmp_path / f"{case.record.id}.esm")

    @pytest.mark.parametrize("spec, n_nodes", [
        pytest.param(BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12.0, q_load=1e-4, resolution=1.64),
                     500, id="benchmark"),
        # Nodes on a unit-pitch grid tie at many distances.
        pytest.param(BeamSpec(L=50.0, w=10.0, h_beam=2.5, E=12.0, q_load=6e-8, resolution=0.625),
                     2441, id="slender"),
    ])
    def test_validate_beam_phantoms(self, tmp_path, spec, n_nodes):
        phantom = build_beam_phantom(spec, n_nodes=n_nodes, k=6, seed=0)
        assert_loads_as_built(phantom.model, tmp_path / "beam.esm")


class TestArchiveMemory:
    # A save writes each array from its own buffer and a load reads each into
    # its own array; neither holds the payload as one more bytes object.
    def test_save_peaks_below_half_the_archive(self, tmp_path, cohort_seed_7_model):
        path = tmp_path / "model.esm"
        tracemalloc.start()
        try:
            save_model(cohort_seed_7_model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 0.5 * size, f"peak {peak / size:.2f} of the archive"

    def test_read_peaks_below_1_1_payloads(self, tmp_path, cohort_seed_7_model):
        raw = save_model(cohort_seed_7_model, tmp_path / "model.esm").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        payload = len(raw) - 16 - hlen
        tracemalloc.start()
        try:
            meshfree._read_archive(tmp_path / "model.esm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * payload, f"peak {peak / payload:.2f} of the payload"

    def test_loaded_arrays_are_aligned_and_contiguous(self, tmp_path, cohort_seed_7_model):
        back = load_model(save_model(cohort_seed_7_model, tmp_path / "model.esm"))
        for name, arr in _model_arrays(back).items():
            assert arr.flags.aligned and arr.flags.c_contiguous, name


class TestStiffnessEqualsItsTranspose:
    # `load_model` rejects a K that differs from its transpose, so every K the
    # build assembles must equal its transpose bit for bit: `_isotropic_stiffness`
    # sums each unordered node pair once and writes its mirror as the transpose.
    @pytest.mark.parametrize("source", ["cohort-run --seed 7", "inclusion 4x", "build workload"])
    def test_pipeline_models_and_their_atlas_twins(self, source):
        if source == "cohort-run --seed 7":
            config, cases = RetractionConfig(seed=7), synth_cohort(SyntheticCohortSpec(n=3, seed=7))
        elif source == "inclusion 4x":
            config, cases = RetractionConfig(), [stiff_inclusion_case(4.0)]
        else:
            # `synth-cohort --n 8 --seed 1 --heterogeneity 0.3`, then `build-model --seed 1`.
            config = RetractionConfig(seed=1)
            cases = [case_from_volume(case.volume, case.record.id)
                     for case in synth_cohort(SyntheticCohortSpec(n=8, seed=1, heterogeneity=0.3))]
        for case in cases:
            model = config.measured_model(case)
            for K in (model.matrices.K, model.with_constant_young(config.atlas_e_kpa).matrices.K):
                assert (K != K.T).nnz == 0, case.record.id

    @pytest.mark.parametrize("name", sorted(VALIDATION_BEAMS))
    def test_validation_beams(self, name):
        spec, n_nodes = VALIDATION_BEAMS[name]
        model = build_beam_phantom(spec, n_nodes=n_nodes, k=VALIDATION_K, seed=VALIDATION_SEED).model
        assert (model.matrices.K != model.matrices.K.T).nnz == 0


class TestElasticityMatrix:
    # The isotropic law enters K only through `_lame`.
    def test_unit_young_structure(self):
        # nu = 0: lam = 0 and mu = E / 2, E = 1 kPa = 1e-3 N/mm^2.
        assert _lame(0.0) == (0.0, 5e-4)
        for nu in (0.0, 0.3, 0.45):
            d = elasticity_matrix(1.0, nu)
            assert _lame(nu) == (d[0, 1], d[3, 3])  # bit for bit
            assert d[0, 0] == pytest.approx(d[0, 1] + 2.0 * d[3, 3], rel=1e-15)

    def test_linear_in_young(self):
        # Scaling E by 4 scales every product and sum exactly.
        field = ellipsoid_field(dims=(8, 7, 6))
        model = build_model(field, n_nodes=25, k=6, seed=1)
        K4 = assemble_stiffness(model.shape, field.with_young(4.0 * field.volume.data), 25)
        assert np.array_equal(K4.data, 4.0 * model.matrices.K.data)
