"""Tests for the cantilever benchmark: analytic curve, FEA baseline, mesh-free run."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import elastosim.beam
import elastosim.solver
from elastosim.beam import (
    BeamSpec,
    DeflectionCurve,
    _fea_system,
    _hex_grid,
    _hex_unit_sums,
    _meshfree_system,
    _trilinear_sample,
    axis_samples,
    build_beam_phantom,
    convergence_error,
    euler_bernoulli_deflection,
    fea_baseline,
    second_moment_rect,
    simulate_beam,
    theory_curve,
    write_beam_convergence_csv,
)
from elastosim.meshfree import _isotropic_stiffness, _pair_pattern
from elastosim.solver import (
    BandedCholesky,
    NonConvergenceError,
    _factored_cg,
    cg_solve,
    displace_landmarks,
)

from conftest import (
    assert_same_csr,
    block_assembly,
    elasticity_matrix,
    full_pair_pattern,
    full_pair_stiffness,
    hex_element_stiffness,
    product_dirichlet,
)

# Resolution 1.25 divides the benchmark box 50 x 10 x 10 exactly, so snapped
# extents equal the nominal ones and hand-derived values apply unchanged.
EXACT = BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12.0, q_load=1e-4, resolution=1.25)
# A small beam for the FEA's solver checks: 16 x 4 x 4 cells, 1275 DOFs.
SMALL = BeamSpec(L=20.0, w=5.0, h_beam=5.0, E=12.0, q_load=1e-4, resolution=1.25)
# The slender cantilever at 1.25 mm voxels, for the mesh-free solver checks.
SLENDER_SMOKE = BeamSpec(L=50.0, w=10.0, h_beam=2.5, E=12.0, q_load=6e-8, resolution=1.25)
# The FEA grids of validate-beam --slender (80 x 16 x 4 cells), of validate-beam
# (30 x 6 x 6), and one with odd cell counts (50 x 9 x 3).
GRID_SPECS = [
    BeamSpec(L=50.0, w=10.0, h_beam=2.5, E=12.0, q_load=6e-8, resolution=0.625),
    BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12.0, q_load=1e-4, resolution=1.64),
    BeamSpec(L=50.0, w=9.0, h_beam=3.0, E=12.0, q_load=1e-4, resolution=1.0),
]


def clamped_dofs(phantom):
    return np.array([3 * i + c for i in sorted(phantom.fixed_nodes) for c in range(3)])


def hex_grid_reference(cells):
    """Node ids and element table built node by node from the numbering formula."""
    cx, cy, cz = cells
    nny, nnz = cy + 1, cz + 1

    def node_id(i, j, k):
        return k + nnz * (j + nny * i)

    ni, nj, nk = np.meshgrid(np.arange(cx + 1), np.arange(cy + 1), np.arange(cz + 1),
                             indexing="ij")
    ei, ej, ek = np.meshgrid(np.arange(cx), np.arange(cy), np.arange(cz), indexing="ij")
    ei, ej, ek = ei.ravel(), ej.ravel(), ek.ravel()
    conn = np.stack(
        [
            node_id(ei, ej, ek),
            node_id(ei + 1, ej, ek),
            node_id(ei + 1, ej + 1, ek),
            node_id(ei, ej + 1, ek),
            node_id(ei, ej, ek + 1),
            node_id(ei + 1, ej, ek + 1),
            node_id(ei + 1, ej + 1, ek + 1),
            node_id(ei, ej + 1, ek + 1),
        ],
        axis=1,
    )
    return node_id(ni, nj, nk), conn


def trilinear_reference(uz, res, cells, x, y, z):
    """Interpolate uz[i, j, k] at one point, one corner at a time."""
    cx, cy, cz = cells
    out = []
    for v, c in ((x, cx), (y, cy), (z, cz)):
        i = min(int(np.floor(v / res)), c - 1)
        out.append((i, 2.0 * (v - i * res) / res - 1.0))
    (i, xi), (j, eta), (k, zeta) = out
    acc = 0.0
    for dk, wz in ((0, (1 - zeta) / 2), (1, (1 + zeta) / 2)):
        for dj, wy in ((0, (1 - eta) / 2), (1, (1 + eta) / 2)):
            for di, wx in ((0, (1 - xi) / 2), (1, (1 + xi) / 2)):
                acc += wz * wy * wx * uz[i + di, j + dj, k + dk]
    return float(acc)


class TestSecondMoment:
    def test_square_section(self):
        assert second_moment_rect(10.0, 10.0) == pytest.approx(10000.0 / 12.0)

    def test_unit_result(self):
        assert second_moment_rect(12.0, 1.0) == pytest.approx(1.0)

    def test_rejects_zero_height(self):
        with pytest.raises(ValueError, match="h_beam must be finite and > 0"):
            second_moment_rect(10.0, 0.0)

    @pytest.mark.parametrize("w, h_beam, named", [
        (float("nan"), 1.0, "w"), (1.0, float("inf"), "h_beam"), (10**400, 1.0, "w"),
    ])
    def test_rejects_non_finite_dimension_by_name(self, w, h_beam, named):
        with pytest.raises(ValueError, match=f"^{named} must be finite and > 0"):
            second_moment_rect(w, h_beam)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError, match="w must be finite and > 0"):
            second_moment_rect(-1.0, 2.0)

    @given(w=st.floats(0.1, 100.0), h=st.floats(0.1, 100.0))
    def test_matches_formula(self, w, h):
        assert second_moment_rect(w, h) == pytest.approx(w * h**3 / 12.0)


class TestBeamSpec:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError, match="beam L must be finite and > 0"):
            BeamSpec(L=0.0)
        with pytest.raises(ValueError, match="beam E must be finite and > 0"):
            BeamSpec(E=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["L", "w", "h_beam", "E", "q_load", "resolution"])
    def test_rejects_non_finite_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"beam {field} must be finite"):
            BeamSpec(**{field: value})

    @pytest.mark.parametrize("field", ["L", "w", "h_beam", "E", "q_load", "resolution"])
    def test_int_past_every_float_is_rejected_by_name(self, field):
        with pytest.raises(ValueError, match=f"beam {field} must be finite"):
            BeamSpec(**{field: 10**400})

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError, match="q_load"):
            BeamSpec(q_load=-1e-6)

    def test_allows_zero_load(self):
        assert BeamSpec(q_load=0.0).q_load == 0.0

    def test_rejects_stubby_beam(self):
        with pytest.raises(ValueError, match="slender"):
            BeamSpec(L=10.0, h_beam=10.0)

    def test_cell_counts_snap_to_grid(self):
        spec = BeamSpec(resolution=1.64)
        assert spec.cells() == (30, 6, 6)
        np.testing.assert_allclose(spec.snapped_extents(), (49.2, 9.84, 9.84))

    def test_exact_resolution_keeps_extents(self):
        assert EXACT.cells() == (40, 8, 8)
        assert EXACT.snapped_extents() == (50.0, 10.0, 10.0)

    def test_rejects_resolution_snap_beyond_tolerance(self):
        # 2.5 / 1.3 = 1.92 -> 2 cells spanning 2.6 mm, a 4% mismatch.
        with pytest.raises(ValueError, match="does not divide"):
            BeamSpec(L=50.0, w=10.0, h_beam=2.5, resolution=1.3).cells()

    def test_rejects_single_cell_axis(self):
        with pytest.raises(ValueError, match="degenerate"):
            BeamSpec(L=50.0, w=10.0, h_beam=2.5, resolution=2.5).cells()

    def test_fea_factor_budget(self):
        # The slender beam at 0.3125 mm needs a 1.06e9-byte band factor, just
        # inside 2**30; the stocky beam at that resolution needs 14 GB.
        assert BeamSpec(L=50.0, w=10.0, h_beam=2.5, resolution=0.3125).cells() == (160, 32, 8)
        with pytest.raises(ValueError, match=r"resolution 0.3125 needs a 1.42e\+10-byte FEA band"):
            BeamSpec(resolution=0.3125).cells()


class TestAnalyticDeflection:
    def test_zero_at_clamp(self):
        assert euler_bernoulli_deflection(0.0, EXACT) == 0.0

    def test_tip_value_closed_form(self):
        # q L^4 / (8 E I) = 1e-4 * 50^4 / (8 * 0.012 * 10000/12)
        tip = euler_bernoulli_deflection(50.0, EXACT)
        assert tip == pytest.approx(7.8125, rel=1e-12)

    def test_tip_matches_simplified_formula(self):
        e = EXACT.E * 1e-3
        inertia = second_moment_rect(EXACT.w, EXACT.h_beam)
        expected = EXACT.q_load * EXACT.L**4 / (8.0 * e * inertia)
        assert euler_bernoulli_deflection(EXACT.L, EXACT) == pytest.approx(expected)

    def test_rejects_x_outside_span(self):
        with pytest.raises(ValueError, match="must lie in"):
            euler_bernoulli_deflection(-0.1, EXACT)
        with pytest.raises(ValueError, match="must lie in"):
            euler_bernoulli_deflection(50.1, EXACT)

    def test_clamp_slope_vanishes(self):
        eps = 1e-6
        w_plus = euler_bernoulli_deflection(eps, EXACT)
        slope = w_plus / eps  # forward difference; w(0) = 0
        assert abs(slope) < 1e-4

    def test_monotone_increasing_along_axis(self):
        xs = np.linspace(0.0, 50.0, 200)
        w = euler_bernoulli_deflection(xs, EXACT)
        assert np.all(np.diff(w) > 0)

    @given(scale=st.floats(0.5, 4.0))
    @settings(max_examples=25)
    def test_linear_in_load(self, scale):
        spec2 = BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12.0,
                         q_load=1e-4 * scale, resolution=1.25)
        base = euler_bernoulli_deflection(25.0, EXACT)
        assert euler_bernoulli_deflection(25.0, spec2) == pytest.approx(base * scale)


class TestAxisSamples:
    def test_spans_clamp_to_tip(self):
        xs = axis_samples(EXACT)
        assert xs[0] == 0.0
        assert xs[-1] == 50.0
        assert len(xs) == 40 + 2
        assert np.all(np.diff(xs) > 0)

    def test_interior_points_are_element_centers(self):
        xs = axis_samples(EXACT)
        np.testing.assert_allclose(xs[1:-1], (np.arange(40) + 0.5) * 1.25)


class TestDeflectionCurve:
    def test_rejects_unsorted_x(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DeflectionCurve(x=np.array([0.0, 2.0, 1.0]), w=np.zeros(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            DeflectionCurve(x=np.array([0.0, 1.0]), w=np.zeros(3))

    def test_tip_is_last_sample(self):
        curve = DeflectionCurve(x=np.array([0.0, 1.0, 2.0]), w=np.array([0.0, 0.1, 0.4]))
        assert curve.tip_deflection == 0.4


class TestConvergenceError:
    def test_identical_curves(self):
        xs = np.linspace(0, 50, 12)
        c = DeflectionCurve(x=xs, w=np.sin(xs / 10))
        assert convergence_error(c, c) == {"max_abs": 0.0, "rms": 0.0}

    def test_constant_offset(self):
        xs = np.linspace(0, 50, 12)
        a = DeflectionCurve(x=xs, w=np.zeros_like(xs))
        b = DeflectionCurve(x=xs, w=np.full_like(xs, 0.5))
        err = convergence_error(a, b)
        assert err["max_abs"] == pytest.approx(0.5)
        assert err["rms"] == pytest.approx(0.5)

    def test_random_perturbation_against_scalar_loop(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0, 50, 30)
        base = euler_bernoulli_deflection(np.clip(xs, 0, 50), EXACT)
        eps = 0.02
        noise = rng.uniform(-eps, eps, size=len(xs))
        a = DeflectionCurve(x=xs, w=base)
        b = DeflectionCurve(x=xs, w=base + noise)
        err = convergence_error(a, b)
        assert err["max_abs"] <= eps
        brute_max = max(abs(a.w[i] - b.w[i]) for i in range(len(xs)))
        brute_rms = (sum((a.w[i] - b.w[i]) ** 2 for i in range(len(xs))) / len(xs)) ** 0.5
        assert err["max_abs"] == pytest.approx(brute_max)
        assert err["rms"] == pytest.approx(brute_rms)

    def test_symmetric_in_arguments(self):
        xs = np.linspace(0, 10, 5)
        a = DeflectionCurve(x=xs, w=np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
        b = DeflectionCurve(x=xs, w=np.array([0.0, 0.2, 0.2, 0.7, 0.9]))
        assert convergence_error(a, b) == convergence_error(b, a)

    def test_rejects_mismatched_grids(self):
        a = DeflectionCurve(x=np.array([0.0, 1.0]), w=np.zeros(2))
        b = DeflectionCurve(x=np.array([0.0, 2.0]), w=np.zeros(2))
        with pytest.raises(ValueError, match="different x grids"):
            convergence_error(a, b)


class TestBeamPhantom:
    def test_total_load_partition(self):
        ph = build_beam_phantom(EXACT, n_nodes=60, k=6, seed=0)
        b = _meshfree_system(ph).b.reshape(-1, 3)
        assert b[:, 2].sum() == pytest.approx(-EXACT.q_load * 50.0, rel=1e-12)
        assert not b[:, :2].any()

    def test_loads_avoid_clamped_nodes(self):
        ph = build_beam_phantom(EXACT, n_nodes=60, k=6, seed=0)
        system = _meshfree_system(ph)
        fixed = clamped_dofs(ph)
        assert not system.b[fixed].any()
        A = system.A.toarray()
        assert np.array_equal(A[fixed], np.eye(len(A))[fixed])
        assert np.array_equal(A[:, fixed], np.eye(len(A))[:, fixed])

    def test_clamp_set_is_proper_subset(self):
        ph = build_beam_phantom(EXACT, n_nodes=60, k=6, seed=0)
        assert 0 < len(ph.fixed_nodes) < ph.model.n_nodes

    def test_zero_load_stays_at_rest(self):
        spec = BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12.0, q_load=0.0, resolution=2.5)
        ph = build_beam_phantom(spec, n_nodes=40, k=6, seed=0)
        curve = simulate_beam(ph)
        np.testing.assert_allclose(curve.w, 0.0, atol=1e-12)

    def test_uniform_material_at_spec_modulus(self):
        ph = build_beam_phantom(EXACT, n_nodes=60, k=6, seed=0)
        assert np.all(ph.model.field.masked_young() == np.float32(12.0))


class TestHexElement:
    # Local node order of the FEA grid's connectivity table, in cube edges.
    NODES = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                      [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)

    @staticmethod
    def element_stiffness(res, young, nu):
        """The 24x24 K that the stiffness kernel gives for the one-element table [[0, ..., 7]]."""
        a, b = np.triu_indices(8)  # the kernel reads the upper entries of an ascending row
        p = young * _hex_unit_sums(res)[:, :, a, b]
        return _isotropic_stiffness(_pair_pattern(np.arange(8)[None]), lambda i, j: p[i, j][None],
                                    nu, 8).toarray()

    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_patch_linear_field_energy(self, nu):
        res, young = 1.25, 12.0
        ke = self.element_stiffness(res, young, nu)
        grad = np.random.default_rng(5).standard_normal((3, 3))
        u = (self.NODES * res @ grad.T + [0.3, -0.2, 0.1]).ravel()
        strain = np.array([grad[0, 0], grad[1, 1], grad[2, 2], grad[0, 1] + grad[1, 0],
                           grad[1, 2] + grad[2, 1], grad[0, 2] + grad[2, 0]])
        want = strain @ elasticity_matrix(young, nu) @ strain * res**3
        assert u @ ke @ u == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("res", [0.3, 0.625, 0.8, 1.25, 1.64])
    def test_unit_sums_equal_their_mirror_bit_for_bit(self, res):
        # The stiffness kernel's precondition for a K equal to its transpose.
        p = _hex_unit_sums(res)
        assert np.array_equal(p, p.transpose(1, 0, 3, 2))

    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_symmetric_with_six_rigid_modes(self, nu):
        ke = self.element_stiffness(1.25, 12.0, nu)
        scale = np.abs(ke).max()
        assert np.abs(ke - ke.T).max() <= 1e-14 * scale
        eig = np.linalg.eigvalsh(ke)
        assert np.sum(np.abs(eig) <= 1e-10 * eig.max()) == 6
        assert eig.min() >= -1e-10 * eig.max()


class TestFeaStiffness:
    @pytest.mark.parametrize("spec", GRID_SPECS[:2], ids=["slender", "benchmark"])
    def test_matches_the_dense_block_route(self, monkeypatch, spec):
        # The stiffness kernel against the 24x24 element blocks summed per
        # node pair, the route it replaced, on the two FEA grids validate-beam runs.
        seen = []

        def keep_stiffness(K, f, fixed):
            seen.append((K, f, fixed))
            return elastosim.solver.reduce_dirichlet(K, f, fixed)

        monkeypatch.setattr(elastosim.beam, "reduce_dirichlet", keep_stiffness)
        system = _fea_system(spec)
        ((K, f, fixed),) = seen
        ids, conn = _hex_grid(spec.cells())
        # Bit for bit the full-pair kernel on `_hex_grid`'s own, unsorted table.
        p = spec.E * _hex_unit_sums(spec.resolution)
        assert_same_csr(K, full_pair_stiffness(
            full_pair_pattern(conn), lambda i, j: np.broadcast_to(p[i, j], (len(conn), 8, 8)),
            elastosim.beam._NU, ids.size))
        blocks = np.broadcast_to(hex_element_stiffness(spec.resolution, spec.E, 0.0),
                                 (len(conn), 24, 24))
        ref = block_assembly(conn, blocks, ids.size)
        scale = abs(ref).max()
        assert abs(K - ref).max() <= 1e-13 * scale
        # Identical blocks cancel to an exact zero in one summation order and
        # to roundoff residues in another: only entries above roundoff keep
        # their positions.
        tol = 1e-13 * scale
        assert ((abs(K) > tol) != (abs(ref) > tol)).nnz == 0
        assert (K != K.T).nnz == 0
        # The clamped system keeps the band that the factor's size is checked against.
        band = [np.abs(A.row - A.col).max() for A in
                (system.A.tocoo(), elastosim.solver.reduce_dirichlet(ref, f, fixed).A.tocoo())]
        assert band[0] == band[1]

    def test_clamped_system_equals_the_product_reduction(self, monkeypatch):
        seen = []

        def keep_inputs(K, f, fixed):
            seen.append((K, f, fixed))
            return elastosim.solver.reduce_dirichlet(K, f, fixed)

        monkeypatch.setattr(elastosim.beam, "reduce_dirichlet", keep_inputs)
        system = _fea_system(GRID_SPECS[0])
        ((K, f, fixed),) = seen
        A_ref, b_ref = product_dirichlet(K, f, fixed)
        assert_same_csr(system.A, A_ref)
        assert np.array_equal(system.b, b_ref)


class TestHexGrid:
    @pytest.mark.parametrize("spec", GRID_SPECS)
    def test_matches_the_node_by_node_reference(self, spec):
        ids, conn = _hex_grid(spec.cells())
        ref_ids, ref_conn = hex_grid_reference(spec.cells())
        assert ids.dtype == ref_ids.dtype and np.array_equal(ids, ref_ids)
        assert conn.dtype == ref_conn.dtype and np.array_equal(conn, ref_conn)

    @pytest.mark.parametrize("spec", GRID_SPECS)
    def test_fea_curve_matches_the_point_by_point_sampler(self, spec):
        cells = spec.cells()
        _, w_eff, h_eff = spec.snapped_extents()
        system = _fea_system(spec)
        u = _factored_cg(system, BandedCholesky.of(system.A), elastosim.beam._STATIC_CG_MAX,
                         elastosim.beam._STATIC_CG_TOL, "FEA baseline")
        uz = u[2::3].reshape(tuple(c + 1 for c in cells))
        xs = axis_samples(spec)
        want = [0.0] + [-trilinear_reference(uz, spec.resolution, cells, x, w_eff / 2, h_eff / 2)
                        for x in xs[1:]]
        curve = fea_baseline(spec)
        assert np.array_equal(curve.x, xs)
        assert curve.w.tobytes() == np.array(want).tobytes()

    def test_sampler_clamps_every_upper_boundary_like_the_reference(self):
        spec = GRID_SPECS[2]
        cells = spec.cells()
        uz = np.random.default_rng(3).standard_normal(tuple(c + 1 for c in cells))
        L, w_eff, h_eff = spec.snapped_extents()
        xs = np.linspace(0.0, L, 41)
        got = _trilinear_sample(uz, spec.resolution, xs, w_eff, h_eff)
        want = [trilinear_reference(uz, spec.resolution, cells, x, w_eff, h_eff) for x in xs]
        assert got.tobytes() == np.array(want).tobytes()


class TestFeaBaseline:
    def test_clamped_end_stays_zero(self):
        curve = fea_baseline(EXACT)
        assert curve.w[0] == 0.0

    def test_rigid_limit_scales_inversely_with_e(self):
        soft = fea_baseline(EXACT)
        stiff_spec = BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12000.0,
                              q_load=1e-4, resolution=1.25)
        stiff = fea_baseline(stiff_spec)
        np.testing.assert_allclose(stiff.w * 1000.0, soft.w, rtol=1e-8, atol=1e-12)

    def test_linear_in_load(self):
        base = fea_baseline(EXACT)
        doubled_spec = BeamSpec(L=50.0, w=10.0, h_beam=10.0, E=12.0,
                                q_load=2e-4, resolution=1.25)
        doubled = fea_baseline(doubled_spec)
        np.testing.assert_allclose(doubled.w, 2.0 * base.w, rtol=1e-8, atol=1e-12)

    def test_slender_tip_within_3_percent_of_theory(self):
        spec = BeamSpec(L=50.0, w=10.0, h_beam=2.5, E=12.0,
                        q_load=6e-8, resolution=0.625)
        curve = fea_baseline(spec)
        theory_tip = euler_bernoulli_deflection(spec.snapped_extents()[0], spec)
        assert theory_tip == pytest.approx(0.3, rel=1e-9)
        assert abs(curve.tip_deflection - theory_tip) <= 0.03 * theory_tip

    def test_capped_cg_raises(self, monkeypatch):
        def capped(system, **kwargs):
            return cg_solve(system, **{**kwargs, "N_max": 3, "preconditioner": None})

        monkeypatch.setattr(elastosim.solver, "cg_solve", capped)
        with pytest.raises(NonConvergenceError, match="FEA baseline"):
            fea_baseline(EXACT)

    def test_monotone_deflection(self):
        curve = fea_baseline(EXACT)
        assert np.all(np.diff(curve.w) >= -1e-12)

    def test_factored_solve_matches_plain_cg(self, monkeypatch):
        pcg_iterations = []

        def counted(system, **kwargs):
            result = cg_solve(system, **kwargs)
            pcg_iterations.append(result.iterations)
            return result

        monkeypatch.setattr(elastosim.solver, "cg_solve", counted)
        fast = fea_baseline(SMALL)
        assert pcg_iterations and max(pcg_iterations) <= 3

        # Plain CG's true residual stalls near 8e-13 on this system.
        def plain(system, **kwargs):
            return cg_solve(system, N_max=20 * len(system.b), tol=1e-11)

        monkeypatch.setattr(elastosim.solver, "cg_solve", plain)
        reference = fea_baseline(SMALL)
        np.testing.assert_allclose(fast.w, reference.w, rtol=1e-9, atol=0.0)

    def test_reports_the_true_residual(self):
        spec = BeamSpec(L=50.0, w=10.0, h_beam=2.5, E=12.0, q_load=6e-8, resolution=0.625)
        system = _fea_system(spec)
        result = cg_solve(system, tol=elastosim.beam._STATIC_CG_TOL,
                          preconditioner=BandedCholesky.of(system.A).solve)
        true = np.linalg.norm(system.b - system.A @ result.x) / np.linalg.norm(system.b)
        assert result.converged
        assert result.residual == pytest.approx(true, rel=1e-9)
        assert result.residual <= elastosim.beam._STATIC_CG_TOL

    def test_plain_cg_holds_its_residual_floor(self):
        # Plain CG's true residual stalls near 8e-13 on this system, so
        # residual replacements fail near the tolerance.  Kept past one, the
        # old search direction let b - A x grow to 3e-9 within 3000 iterations.
        system = _fea_system(SMALL)
        result = cg_solve(system, N_max=3000, tol=1.2e-12)
        true = np.linalg.norm(system.b - system.A @ result.x) / np.linalg.norm(system.b)
        assert true < 1e-10

    def test_banded_factor_matches_direct_solve(self):
        system = _fea_system(SMALL)
        x = BandedCholesky.of(system.A).solve(system.b)
        x_ref = spsolve(system.A.tocsc(), system.b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_slender_axis_slowest_numbering_sets_the_band(self):
        # Numbering x slowest keeps each node within one y-z plane of its
        # neighbours.  With x fastest, reverse Cuthill-McKee would pick a band
        # 185 DOFs wide here, and 509 instead of 275 on the 0.625 mm slender beam.
        _, cy, cz = SMALL.cells()
        factor = BandedCholesky.of(_fea_system(SMALL).A)
        assert factor.band.shape[0] - 1 == 3 * ((cy + 1) * (cz + 1) + (cz + 1) + 1) + 2 == 95
        assert np.array_equal(factor.perm, np.arange(len(factor.perm)))


@pytest.fixture(scope="module")
def smoke_beam():
    """The slender cantilever at 1.25 mm voxels with 150 nodes."""
    return build_beam_phantom(SLENDER_SMOKE, n_nodes=150, k=6, seed=0)


class TestSimulateBeam:
    def test_matches_direct_solve_on_free_dofs(self, smoke_beam):
        model = smoke_beam.model
        free_nodes = [i for i in range(model.n_nodes) if i not in smoke_beam.fixed_nodes]
        free = np.setdiff1d(np.arange(model.n_dofs), clamped_dofs(smoke_beam))
        f = np.zeros(model.n_dofs)
        f[[3 * i + 2 for i in free_nodes]] = -SLENDER_SMOKE.q_load * 50.0 / len(free_nodes)
        q = np.zeros(model.n_dofs)
        K = model.matrices.K.tocsr()
        q[free] = spsolve(K[free][:, free].tocsc(), f[free])

        xs = axis_samples(SLENDER_SMOKE)
        marks = [(str(j), np.array([x, 5.0, 1.25])) for j, x in enumerate(xs[1:])]
        moved = displace_landmarks(model, q, marks)
        want = np.array([0.0] + [1.25 - pos[2] for _, pos in moved])
        got = simulate_beam(smoke_beam).w
        # K's condition number is about 1e8 here: spsolve's own q is 2e-10
        # (relative) from an extended-precision refinement, the CG's 7e-11.
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_capped_cg_raises(self, monkeypatch, smoke_beam):
        def capped(system, **kwargs):
            return cg_solve(system, **{**kwargs, "N_max": 3, "preconditioner": None})

        monkeypatch.setattr(elastosim.solver, "cg_solve", capped)
        with pytest.raises(NonConvergenceError, match="mesh-free beam"):
            simulate_beam(smoke_beam)

    def test_clamp_datum_and_monotone_curve(self):
        spec = BeamSpec(resolution=1.64)
        ph = build_beam_phantom(spec, n_nodes=500, k=6, seed=0)
        curve = simulate_beam(ph)
        assert curve.w[0] == 0.0
        assert np.all(np.diff(curve.w) >= -1e-9)
        # Sanity band, not the acceptance gate: tip near the analytic value.
        theory_tip = euler_bernoulli_deflection(curve.x[-1], spec)
        assert abs(curve.tip_deflection - theory_tip) < 0.15 * theory_tip

    def test_linear_in_load(self):
        spec1 = BeamSpec(resolution=1.64)
        spec2 = BeamSpec(q_load=2e-4, resolution=1.64)
        ph1 = build_beam_phantom(spec1, n_nodes=300, k=6, seed=0)
        ph2 = build_beam_phantom(spec2, n_nodes=300, k=6, seed=0)
        c1 = simulate_beam(ph1)
        c2 = simulate_beam(ph2)
        np.testing.assert_allclose(c2.w, 2.0 * c1.w, rtol=1e-8, atol=1e-12)

    def test_curves_share_x_grid_with_theory_and_fea(self):
        spec = BeamSpec(resolution=1.64)
        ph = build_beam_phantom(spec, n_nodes=300, k=6, seed=0)
        sim = simulate_beam(ph)
        fea = fea_baseline(spec)
        theory = theory_curve(spec, axis_samples(spec))
        np.testing.assert_allclose(sim.x, fea.x)
        np.testing.assert_allclose(sim.x, theory.x)


class TestConvergenceCsv:
    def test_layout_and_values(self, tmp_path):
        xs = axis_samples(EXACT)
        theory = theory_curve(EXACT, xs)
        fea = DeflectionCurve(x=xs, w=theory.w * 0.99)
        mf = DeflectionCurve(x=xs, w=theory.w * 1.02)
        path = write_beam_convergence_csv(theory, fea, mf, tmp_path / "beam.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_mm,w_theory_mm,w_fea_mm,w_meshfree_mm,err_fea_mm,err_meshfree_mm"
        assert len(lines) == len(xs) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(7.8125)
        assert float(last[4]) == pytest.approx(0.01 * 7.8125)

    def test_rejects_mismatched_grids(self, tmp_path):
        xs = axis_samples(EXACT)
        theory = theory_curve(EXACT, xs)
        other = DeflectionCurve(x=xs + 0.5, w=theory.w)
        with pytest.raises(ValueError, match="share the x grid"):
            write_beam_convergence_csv(theory, other, theory, tmp_path / "beam.csv")
