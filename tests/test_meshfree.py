"""Tests for DOF sampling, Shepard shape functions, and matrix assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from elastosim import meshfree
from elastosim.beam import _hex_element_stiffness, _hex_grid_connectivity
from elastosim.meshfree import (
    DofSet,
    MaterialField,
    _strain_displacement,
    assemble_blocks,
    assemble_damping,
    assemble_mass,
    assemble_stiffness,
    build_model,
    elasticity_matrix,
    load_model,
    sample_dofs,
    save_model,
    shape_weights,
    shepard_weights,
)
from elastosim.volume import RoiMask, VoxelVolume


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
            MaterialField(volume=vol, mask=mask)

    def test_rejects_non_finite_young_in_mask(self):
        # The volume checks its data on construction; a later in-place edit
        # must still be caught before it reaches assembly.
        vol = VoxelVolume(dims=(2, 1, 1), spacing_mm=(1.0, 1.0, 1.0),
                          kind="elastogram_shear_kPa", data=np.array([1.0, 1.0]))
        vol.data[0] = np.nan
        mask = RoiMask(dims=(2, 1, 1), flags=np.array([True, True]))
        with pytest.raises(ValueError, match="finite"):
            MaterialField(volume=vol, mask=mask)

    def test_zero_young_outside_mask_ok(self):
        vol = VoxelVolume(dims=(2, 1, 1), spacing_mm=(1.0, 1.0, 1.0),
                          kind="elastogram_shear_kPa", data=np.array([0.0, 1.0]))
        mask = RoiMask(dims=(2, 1, 1), flags=np.array([False, True]))
        field = MaterialField(volume=vol, mask=mask)
        assert field.masked_young().tolist() == [1.0]

    @pytest.mark.parametrize("density", [0.0, -1.0, float("nan"), float("inf")])
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
    def test_single_node_lands_on_centroid(self):
        field = make_field(dims=(5, 4, 3))
        dofs = sample_dofs(field, n_nodes=1, seed=3)
        centroid = field.masked_centers().mean(axis=0)
        assert np.allclose(dofs.nodes[0], centroid, atol=1e-9)
        assert np.all(dofs.owner == 0)

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


def loop_lloyd_step(points, nodes):
    """Reference: the per-node centroid loop that meshfree._lloyd_step replaces."""
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
    return new_nodes


def ellipsoid_field(dims=(14, 11, 9), spacing=(0.7, 1.1, 1.3)):
    n = dims[0] * dims[1] * dims[2]
    field = make_field(dims=dims, spacing=spacing)
    rel = (field.volume.voxel_centers() - field.volume.voxel_centers().mean(axis=0)) / (
        0.45 * np.array(dims) * np.array(spacing))
    flags = (rel**2).sum(axis=1) <= 1.0
    young = np.random.default_rng(4).uniform(1.0, 5.0, n)
    return make_field(dims=dims, spacing=spacing, mask_flags=flags).with_young(young)


class TestLloydStep:
    def test_matches_per_node_loop_bit_for_bit(self):
        points = ellipsoid_field().masked_centers()
        nodes = points[np.random.default_rng(0).choice(len(points), 40, replace=False)]
        for _ in range(8):
            step = meshfree._lloyd_step(points, nodes)
            assert np.array_equal(step, loop_lloyd_step(points, nodes))
            nodes = step

    def test_empty_cells_respawn_at_farthest_point(self):
        points = ellipsoid_field().masked_centers()
        nodes = points[np.random.default_rng(1).choice(len(points), 12, replace=False)]
        nodes[5] = nodes[2]  # a duplicate loses every tie to the lower index
        nodes[9] = [1e3, 1e3, 1e3]  # far outside the points
        d2 = cdist(points, nodes, "sqeuclidean")
        assert set(np.argmin(d2, axis=1)).isdisjoint({5, 9})
        step = meshfree._lloyd_step(points, nodes)
        assert np.array_equal(step, loop_lloyd_step(points, nodes))
        farthest = points[np.argmax(d2.min(axis=1))]
        assert np.array_equal(step[5], farthest) and np.array_equal(step[9], farthest)

    def test_sample_dofs_matches_per_node_loop(self, monkeypatch):
        field = ellipsoid_field()
        fast = sample_dofs(field, n_nodes=60, seed=3)
        monkeypatch.setattr(meshfree, "_lloyd_step", loop_lloyd_step)
        ref = sample_dofs(field, n_nodes=60, seed=3)
        assert np.array_equal(fast.nodes, ref.nodes)
        assert np.array_equal(fast.owner, ref.owner)


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
    """Reference: the per-entry COO assembly that the node-pair block sum replaced."""
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


class TestAssembleBlocks:
    def test_meshfree_stiffness_matches_references(self):
        field = ellipsoid_field(dims=(8, 7, 6))
        model = build_model(field, n_nodes=25, k=6, seed=1)
        shape, young = model.shape, field.masked_young()
        d = elasticity_matrix(1.0, field.nu)
        blocks = np.array([
            b.T @ d @ b * e * field.voxel_volume_mm3
            for b, e in zip(_strain_displacement(shape.corrected_gradients), young)
        ])
        K = model.matrices.K
        assert_matches_dense(K, shape.indices, blocks, 25)
        assert_same_pattern(K, coo_assembly(shape.indices, blocks, 25))

    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_hex_grid_matches_references(self, nu):
        cells = (4, 3, 2)
        conn = _hex_grid_connectivity(cells)
        n_nodes = 5 * 4 * 3
        blocks = np.broadcast_to(_hex_element_stiffness(0.8, 12.0, nu), (len(conn), 24, 24))
        K = assemble_blocks(conn, blocks, n_nodes)
        assert_matches_dense(K, conn, blocks, n_nodes)
        # Identical element blocks cancel exactly to zero in some summation
        # orders and to roundoff residues in others, so only the entries above
        # roundoff must share their positions with the COO path's.
        ref = coo_assembly(conn, blocks, n_nodes)
        tol = 1e-13 * abs(ref).max()
        assert np.array_equal(np.abs(K.toarray()) > tol, np.abs(ref.toarray()) > tol)

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(1, 6), m=st.integers(1, 4), spare=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_random_node_tables_match_references(self, e, m, spare, seed):
        n_nodes = m + spare
        rng = np.random.default_rng(seed)
        nodes = rng.integers(0, n_nodes, size=(e, m))  # repeats within an element too
        a = rng.standard_normal((e, 3 * m, 3 * m))
        blocks = a + a.transpose(0, 2, 1)
        K = assemble_blocks(nodes, blocks, n_nodes)
        assert K.shape == (3 * n_nodes, 3 * n_nodes)
        assert_matches_dense(K, nodes, blocks, n_nodes)
        assert_same_pattern(K, coo_assembly(nodes, blocks, n_nodes))


    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(1, 6), m=st.integers(1, 4), spare=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_non_symmetric_blocks_average_with_their_mirror(self, e, m, spare, seed):
        n_nodes = m + spare
        rng = np.random.default_rng(seed)
        nodes = rng.integers(0, n_nodes, size=(e, m))
        blocks = rng.standard_normal((e, 3 * m, 3 * m))
        K = assemble_blocks(nodes, blocks, n_nodes)
        assert_matches_dense(K, nodes, blocks, n_nodes)  # 0.5 (D + D^T) of the dense scatter
        assert (K != K.T).nnz == 0
        assert_same_pattern(K, coo_assembly(nodes, blocks, n_nodes))


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
        for v in range(shape.n_voxels):
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
        field = make_field()
        dofs = sample_dofs(field, n_nodes=4, seed=0)
        shape = shape_weights(dofs, field, k=4)
        K = assemble_stiffness(shape, field, n_nodes=4)
        M = assemble_mass(shape, field, n_nodes=4)
        with pytest.raises(ValueError, match="damping"):
            assemble_damping(M, K, alpha=-0.1, beta=0.0)


class TestBuildModel:
    def test_rejects_small_node_count(self):
        with pytest.raises(ValueError, match="at least 4"):
            build_model(make_field(), n_nodes=3)

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
        assert np.all(model.q0 == 0.0)

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


class TestModelArchive:
    def test_roundtrip_bit_exact(self, tmp_path):
        field = make_field(dims=(4, 4, 3), young=2.5, nu=0.4, density=1100.0)
        model = build_model(field, n_nodes=6, k=5, seed=9, alpha=0.2, beta=0.02)
        path = save_model(model, tmp_path / "model.esim")
        back = load_model(path)
        assert np.array_equal(back.dofs.nodes, model.dofs.nodes)
        assert np.array_equal(back.dofs.owner, model.dofs.owner)
        assert np.array_equal(back.shape.weights, model.shape.weights)
        assert np.array_equal(back.shape.gradients, model.shape.gradients)
        assert np.array_equal(back.matrices.M, model.matrices.M)
        # C is rebuilt on load as alpha*M + beta*K; it must match the built C bit for bit.
        for name in ("K", "C"):
            built, loaded = getattr(model.matrices, name).tocsr(), getattr(back.matrices, name)
            assert np.array_equal(loaded.indptr, built.indptr)
            assert np.array_equal(loaded.indices, built.indices)
            assert np.array_equal(loaded.data, built.data)
        assert back.field.nu == model.field.nu
        assert back.field.density == model.field.density
        assert back.seed == model.seed

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.esim"
        p.write_bytes(b"NOTAMODL" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_model(p)


class TestElasticityMatrix:
    def test_unit_young_structure(self):
        d = elasticity_matrix(1.0, 0.0)
        # nu = 0: D = E * diag(1,1,1,.5,.5,.5) in engineering shear, E in N/mm^2.
        assert np.allclose(np.diag(d), [1e-3, 1e-3, 1e-3, 5e-4, 5e-4, 5e-4])
        assert d[0, 1] == 0.0

    def test_linear_in_young(self):
        assert np.allclose(elasticity_matrix(4.0, 0.3), 4.0 * elasticity_matrix(1.0, 0.3))
