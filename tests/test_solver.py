"""Tests for implicit-Euler stepping, the CG core, and landmark mapping."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    assert_same_csr,
    make_field,
    make_point_model,
    product_dirichlet,
    upper_band_solve,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu, spsolve

from elastosim.beam import (
    VALIDATION_BEAMS,
    VALIDATION_K,
    VALIDATION_SEED,
    _fea_system,
    _meshfree_system,
    build_beam_phantom,
)
from elastosim.experiment import (
    SyntheticCohortSpec,
    default_retractor,
    retraction_load_case,
    synth_cohort,
    young_material_field,
)
from elastosim.meshfree import SystemMatrices, build_model
from elastosim.solver import (
    BandedCholesky,
    IndefiniteSystemError,
    LinearSystem,
    LoadCase,
    NonConvergenceError,
    SimState,
    cg_solve,
    displace_landmarks,
    external_force,
    prepare_settle,
    reduce_dirichlet,
    run_to_steady_state,
    step,
    write_landmarks_csv,
)


# The settle's CG knobs, RetractionConfig's cg_max and cg_tol.
CG = dict(N_max=200, tol=1e-6)


def point_settle(h, spring_k=0.0, alpha=0.0, force=(0.0, 0.0, 0.0)):
    """Settle of one point mass M = 1e-6 t per DOF (K = 0), held by a support
    spring of stiffness spring_k at its rest position, with C = alpha * M."""
    model = make_point_model(alpha=alpha)
    springs = [(0, spring_k, model.dofs.nodes[0])] if spring_k else []
    return prepare_settle(model, LoadCase(point_loads=[(0, force)], support_springs=springs), h)


def spring_diagonal(model, loads):
    """The load case's support-spring stiffness per DOF, built independently of the solver."""
    springs = np.zeros(model.n_dofs)
    for i, k, _ in loads.support_springs:
        springs[3 * i : 3 * i + 3] += k
    return springs


def k_eff(model, loads):
    """K with the load case's support springs on its diagonal."""
    return model.matrices.K + sp.diags(spring_diagonal(model, loads))


def dense_damping(model):
    """Rayleigh C = alpha*M + beta*K, dense, from the model's two coefficients."""
    mats = model.matrices
    return mats.alpha * np.diag(mats.M) + mats.beta * mats.K.toarray()


class TestImplicitSystem:
    """The settle's system (M + hC + h^2 K_eff) qdot_new = M qdot + h (f - K_eff q), on one point mass."""

    def test_scalar_mass_only(self):
        # A = M, so qdot_new = qdot + h f / M = 3 + 0.1 * 2.
        settle = point_settle(h=0.1, force=(2e-6, 0.0, 0.0))
        assert np.allclose(settle.A.diagonal(), 1e-6, rtol=1e-12)
        s1 = step(settle, SimState(q=np.zeros(3), qdot=np.array([3.0, 0.0, 0.0])), **CG)
        assert s1.qdot == pytest.approx([3.2, 0.0, 0.0], rel=1e-12)
        assert s1.q == pytest.approx([0.32, 0.0, 0.0], rel=1e-12)

    def test_scalar_with_stiffness(self):
        # k = 100 M and h = 0.1 give A = 2 M; from q = 1 at rest,
        # qdot_new = h (f - k q) / (2 M) = 0.1 * (1 - 100) / 2.
        settle = point_settle(h=0.1, spring_k=1e-4, force=(1e-6, 0.0, 0.0))
        assert np.allclose(settle.A.diagonal(), 2e-6, rtol=1e-12)
        s1 = step(settle, SimState(q=np.array([1.0, 0.0, 0.0]), qdot=np.zeros(3)), **CG)
        assert s1.qdot == pytest.approx([-4.95, 0.0, 0.0], rel=1e-12)

    def test_vanishing_h_limit(self):
        # As h -> 0, A -> M and a step keeps its velocity, whatever the spring and damping.
        h = 1e-12
        settle = point_settle(h=h, spring_k=5e-5, alpha=2.0)
        assert np.allclose(settle.A.diagonal(), 1e-6, rtol=1e-9)
        state = SimState(q=np.ones(3), qdot=np.ones(3))
        s1 = step(settle, state, **CG)
        assert s1.qdot == pytest.approx(np.ones(3), rel=1e-9)
        assert np.allclose(s1.q - state.q, h, rtol=1e-9)

    def test_rejects_nonpositive_h(self):
        for h in (0.0, -0.1):
            with pytest.raises(ValueError, match="step size must be finite and > 0"):
                point_settle(h=h)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 10**400])
    def test_rejects_non_finite_h_by_name(self, h):
        with pytest.raises(ValueError, match="step size must be finite and > 0"):
            point_settle(h=h)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="state has 6 DOFs, settle has 3"):
            step(point_settle(h=0.1), SimState.rest(6), **CG)

    def test_fixed_dof_rows_reduced_to_identity(self):
        K = sp.csr_matrix(np.array([[4.0, -1.0], [-1.0, 3.0]]))
        sys1 = reduce_dirichlet(K, np.array([5.0, 7.0]), np.array([0]))
        assert np.array_equal(sys1.A.toarray(), [[1.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(sys1.b, [0.0, 7.0])


@st.composite
def csr_with_duplicates(draw):
    """A square CSR matrix whose rows may repeat a column, hold explicit zeros,
    cancel to zero or lack their diagonal, with a set of fixed DOFs."""
    n = draw(st.integers(1, 10))
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    # At most 16 stored entries a row: scipy sorts a longer row unstably
    # before it sums duplicates, so three or more duplicates there add up in
    # another order, and round differently, than the product's storage order.
    rows = [draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=16))
            for _ in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([c for r in rows for c, _ in r], dtype=np.int32)
    data = np.array([v for r in rows for _, v in r], dtype=float)
    fixed = np.array(draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=np.int64)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n)), fixed


class TestReduceDirichlet:
    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    @settings(max_examples=150, deadline=None)
    @given(case=csr_with_duplicates())
    def test_equals_the_product_reference_array_for_array(self, case):
        A, fixed = case
        b = np.arange(1.0, A.shape[0] + 1.0)
        before = (A.indptr.copy(), A.indices.copy(), A.data.copy())
        system = reduce_dirichlet(A, b, fixed)
        A_ref, b_ref = product_dirichlet(A, b, fixed)
        assert_same_csr(system.A, A_ref)
        assert np.array_equal(system.b, b_ref)
        assert all(np.array_equal(x, y) for x, y in zip(before, (A.indptr, A.indices, A.data))), \
            "the caller's matrix is left as it was"


class TestLoadCase:
    """Unusable loads fail at construction, naming the node, not in a late solve."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_point_force_names_the_node(self, value):
        with pytest.raises(ValueError, match="point force on node 3 must be finite"):
            LoadCase(point_loads=[(0, [0.0, 0.0, 1.0]), (3, [value, 0.0, 0.0])])

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_gravity_rejected(self, value):
        with pytest.raises(ValueError, match="gravity must be finite"):
            LoadCase(gravity=(0.0, 0.0, value))

    @pytest.mark.parametrize("k", [np.nan, np.inf, -1.0])
    def test_unusable_spring_stiffness_names_the_node(self, k):
        with pytest.raises(ValueError, match=f"spring stiffness of node 2 must be finite and >= 0, got {k}"):
            LoadCase(support_springs=[(2, k, np.zeros(3))])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_spring_anchor_names_the_node(self, value):
        with pytest.raises(ValueError, match="spring anchor of node 4 must be finite"):
            LoadCase(support_springs=[(4, 1.0, [0.0, value, 0.0])])

    @pytest.mark.parametrize("loads, message", [
        ({"gravity": (10**400, 0, 0)}, "gravity must be finite"),
        ({"point_loads": [(3, (10**400, 0, 0))]}, "point force on node 3 must be finite"),
        ({"support_springs": [(2, 10**400, (0, 0, 0))]},
         "spring stiffness of node 2 must be finite and >= 0, got 1000"),
        ({"support_springs": [(4, 1.0, (0, 10**400, 0))]},
         "spring anchor of node 4 must be finite"),
    ], ids=["gravity", "point force", "spring stiffness", "spring anchor"])
    def test_int_past_every_float_is_rejected_by_name(self, loads, message):
        with pytest.raises(ValueError, match=message):
            LoadCase(**loads)

    def test_finite_loads_pass_and_coerce(self):
        loads = LoadCase(gravity=(0, 0, -9810), point_loads=[(1, [0, 0, 2])],
                         support_springs=[(0, 0.0, [1, 2, 3])])
        assert loads.gravity == (0.0, 0.0, -9810.0)
        assert loads.point_loads[0][1].dtype == np.float64
        assert loads.support_springs[0][2].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("gravity", [(0.0, 0.0), (0.0, 0.0, -9810.0, 0.0), [[0.0, 0.0, 1.0]]])
    def test_gravity_must_be_a_3_vector(self, gravity):
        with pytest.raises(ValueError, match="gravity must be a 3-vector"):
            LoadCase(gravity=gravity)

    @pytest.mark.parametrize("force", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 2.0])
    def test_point_force_must_be_a_3_vector_naming_the_node(self, force):
        with pytest.raises(ValueError, match="point force on node 3 must be a 3-vector"):
            LoadCase(point_loads=[(0, [0.0, 0.0, 1.0]), (3, force)])

    @pytest.mark.parametrize("anchor", [[1.0, 2.0], np.zeros((3, 1))])
    def test_spring_anchor_must_be_a_3_vector_naming_the_node(self, anchor):
        with pytest.raises(ValueError, match="spring anchor of node 4 must be a 3-vector"):
            LoadCase(support_springs=[(4, 1.0, anchor)])


class TestBuildSystem:
    """The settle's system matrix A = M + h*C + h^2*K_eff, as the pipeline factors it."""

    def test_spd_across_step_sizes(self):
        model = build_model(make_field(dims=(4, 4, 3)), n_nodes=8, k=6, seed=0)
        rng = np.random.default_rng(0)
        for h in (1e-3, 1e-2, 1e-1):
            A = prepare_settle(model, LoadCase(), h).A
            assert abs(A - A.T).max() <= 1e-9 * abs(A).max()
            for _ in range(100):
                x = rng.standard_normal(A.shape[0])
                assert x @ (A @ x) > 0.0, f"A not PD at h={h}"

    def test_out_of_range_load_rejected(self):
        model = build_model(make_field(), n_nodes=5, k=4, seed=0)
        loads = LoadCase(point_loads=[(99, np.array([1.0, 0.0, 0.0]))])
        with pytest.raises(ValueError, match="node 99"):
            prepare_settle(model, loads, h=1e-3)

    def test_spring_stiffness_enters_matrix(self):
        # The support spring must live inside A, not only in the force, so
        # that arbitrarily stiff supports remain solvable.
        model = make_point_model()
        anchor = model.dofs.nodes[0]
        loads = LoadCase(support_springs=[(0, 1e9, anchor)])
        stiff = prepare_settle(model, loads, h=0.1).A
        base = prepare_settle(model, LoadCase(), h=0.1).A
        assert np.allclose(np.diag((stiff - base).toarray()), 0.01 * 1e9)


class TestCgSolve:
    def test_identity_solves_in_one_iteration(self):
        b = np.array([3.0, -1.0, 2.5])
        res = cg_solve(LinearSystem(A=sp.eye(3, format="csr"), b=b), tol=1e-12)
        assert res.converged
        assert res.iterations == 1
        assert np.allclose(res.x, b, rtol=1e-14)

    def test_two_by_two_exact_termination(self):
        A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        b = np.array([1.0, 2.0])
        res = cg_solve(LinearSystem(A=A, b=b), tol=1e-12)
        assert res.iterations <= 2, "CG terminates in at most n steps exactly"
        assert np.allclose(res.x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-10)

    def test_random_spd_matches_dense_factorization(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((50, 50))
        A_dense = G.T @ G + np.eye(50)
        b = rng.standard_normal(50)
        x_direct = np.linalg.solve(A_dense, b)
        res = cg_solve(LinearSystem(A=sp.csr_matrix(A_dense), b=b), N_max=200, tol=1e-12)
        assert res.converged
        rel = np.linalg.norm(res.x - x_direct) / np.linalg.norm(x_direct)
        assert rel <= 1e-8, f"relative error {rel} vs direct solve"

    def test_indefinite_system_detected(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(IndefiniteSystemError, match="indefinite"):
            cg_solve(LinearSystem(A=A, b=np.array([1.0, 1.0])))

    def test_nan_curvature_is_indefinite(self):
        # NaN fails p^T A p > 0 as surely as a negative value; left to run,
        # every later iterate would be NaN until the cap.
        A = sp.csr_matrix(np.diag([np.nan, 1.0]))
        with pytest.raises(IndefiniteSystemError, match=r"p\^T A p = nan at iteration 1"):
            cg_solve(LinearSystem(A=A, b=np.array([1.0, 1.0])))

    def test_iteration_cap_returns_flagged_result(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((40, 40))
        A = sp.csr_matrix(G.T @ G + 1e-8 * np.eye(40))  # ill-conditioned
        b = rng.standard_normal(40)
        res = cg_solve(LinearSystem(A=A, b=b), N_max=5, tol=1e-15)
        assert not res.converged
        assert res.iterations == 5
        assert res.residual > 1e-15

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
    def test_converges_only_on_a_true_residual(self, tol):
        # At condition number 1e6 the recurrence residual of plain CG falls
        # to 2e-13 while b - A x stalls near 5e-11.
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        a = (q * np.logspace(0, 6, 60)) @ q.T
        system = LinearSystem(A=sp.csr_matrix((a + a.T) / 2), b=rng.standard_normal(60))
        res = cg_solve(system, N_max=600, tol=tol)
        true = np.linalg.norm(system.b - system.A @ res.x) / np.linalg.norm(system.b)
        assert res.residual == pytest.approx(true, rel=1e-9)
        assert res.converged == (true <= tol)

    def test_only_a_zero_rhs_returns_x_zero(self):
        # x = 0 already meets a tolerance of 1, yet a nonzero b still gets a step.
        b = np.array([3.0, -1.0, 2.5])
        res = cg_solve(LinearSystem(A=sp.eye(3, format="csr"), b=b), tol=1.0)
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.x, b)

    def test_zero_rhs_short_circuits(self):
        A = sp.eye(4, format="csr")
        res = cg_solve(LinearSystem(A=A, b=np.zeros(4)))
        assert res.converged and res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_energy_norm_error_non_increasing(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((30, 30))
        A_dense = G.T @ G + np.eye(30)
        b = rng.standard_normal(30)
        x_star = np.linalg.solve(A_dense, b)
        system = LinearSystem(A=sp.csr_matrix(A_dense), b=b)
        n_iter = cg_solve(system, tol=1e-14).iterations
        errors = []
        for j in range(n_iter + 1):
            e = cg_solve(system, N_max=j, tol=1e-14).x - x_star
            errors.append(float(e @ (A_dense @ e)))
        for before, after in zip(errors, errors[1:]):
            assert after <= before * (1 + 1e-12), "A-norm error must not increase"


def random_spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T / n + np.diag(rng.uniform(0.1, 10.0, n))


class TestPreconditionedCg:
    @pytest.mark.parametrize("kind", ["jacobi", "exact"])
    def test_random_spd_matches_dense_solve(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(10, 121))
            a = random_spd(rng, n)
            b = rng.standard_normal(n)
            A = sp.csr_matrix(a)
            if kind == "jacobi":
                diag = a.diagonal()
                precond = lambda r, d=diag: r / d  # noqa: E731
            else:
                precond = splu(A.tocsc(), permc_spec="COLAMD", diag_pivot_thresh=0.0).solve
            res = cg_solve(LinearSystem(A=A, b=b), N_max=n, tol=1e-12, preconditioner=precond)
            x_direct = np.linalg.solve(a, b)
            assert res.converged
            assert np.linalg.norm(res.x - x_direct) <= 1e-8 * np.linalg.norm(x_direct)
            if kind == "exact":
                assert res.iterations <= 2, "an exact preconditioner needs at most 2 iterations"

    def test_identity_preconditioner_reproduces_plain_cg(self):
        rng = np.random.default_rng(4)
        system = LinearSystem(A=sp.csr_matrix(random_spd(rng, 60)), b=rng.standard_normal(60))
        plain = cg_solve(system, tol=1e-12)
        ident = cg_solve(system, tol=1e-12, preconditioner=lambda r: r)
        assert plain.iterations == ident.iterations
        assert np.array_equal(plain.x, ident.x)
        assert plain.residual == ident.residual

    def test_capped_preconditioned_solve_is_flagged(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((40, 40))
        a = G.T @ G + 1e-8 * np.eye(40)  # ill-conditioned; Jacobi cannot fix that
        b = rng.standard_normal(40)
        res = cg_solve(LinearSystem(A=sp.csr_matrix(a), b=b), N_max=5, tol=1e-15,
                       preconditioner=lambda r: r / a.diagonal())
        assert not res.converged
        assert res.iterations == 5
        assert res.residual > 1e-15


def sparse_spd(n, density, fixed, seed):
    """Random sparse SPD matrix, diagonally dominant, with identity rows and columns at `fixed`."""
    rng = np.random.default_rng(seed)
    s = sp.random(n, n, density=density, random_state=rng, format="csr")
    a = s + s.T
    a = a + sp.diags(abs(a).sum(axis=1).A1 + rng.uniform(0.1, 10.0, n))
    return reduce_dirichlet(a.tocsr(), np.ones(n), fixed).A


class TestBandedCholesky:
    """The settle's and the FEA's factor, checked against the general sparse direct solve."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.3), fixed_frac=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, density=0.0, fixed_frac=0.0, seed=0)
    def test_random_sparse_spd_matches_dense_solve(self, n, density, fixed_frac, seed):
        rng = np.random.default_rng(seed)
        fixed = rng.choice(n, size=int(fixed_frac * n), replace=False)
        A = sparse_spd(n, density, fixed, seed)
        b = rng.standard_normal(n)
        x = BandedCholesky.of(A).solve(b)
        x_ref = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert np.array_equal(x[fixed], b[fixed]), "an identity row passes its b entry through"

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.3), fixed_frac=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, density=0.0, fixed_frac=0.0, seed=0)
    def test_lower_band_is_the_factor_of_the_ordered_matrix(self, n, density, fixed_frac, seed):
        rng = np.random.default_rng(seed)
        fixed = rng.choice(n, size=int(fixed_frac * n), replace=False)
        A = sparse_spd(n, density, fixed, seed)
        factor = BandedCholesky.of(A)
        band = factor.band
        assert band.flags.f_contiguous
        assert np.all(band[0] > 0)
        L = sum(np.diag(band[k, :n - k], -k) for k in range(band.shape[0]))
        ordered = A.toarray()[np.ix_(factor.perm, factor.perm)]
        assert np.linalg.norm(L @ L.T - ordered) <= 1e-12 * np.linalg.norm(ordered)

    @pytest.mark.parametrize("name", ["slender_fea", "slender_meshfree", "settle"])
    def test_matches_the_upper_band_factor_and_spsolve(self, name, request):
        A = request.getfixturevalue(f"{name}_matrix")
        b = np.random.default_rng(5).standard_normal(A.shape[0])
        x = BandedCholesky.of(A).solve(b)
        x_upper = upper_band_solve(A, b)
        x_direct = spsolve(A.tocsc(), b)
        assert np.linalg.norm(x - x_upper) <= 1e-10 * np.linalg.norm(x_upper)
        # A direct solve of the mesh-free beam is only this close to any
        # other: the upper-band factor and spsolve differ by 1.6e-10 there.
        assert np.linalg.norm(x - x_direct) <= 1e-9 * np.linalg.norm(x_direct)

    def test_settle_matrix_matches_spsolve(self, retraction_case):
        model, loads, h, _ = retraction_case
        A = prepare_settle(model, loads, h).A
        b = np.random.default_rng(2).standard_normal(A.shape[0])
        x = BandedCholesky.of(A).solve(b)
        x_ref = spsolve(A.tocsc(), b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_mesh_free_settle_is_ordered_by_rcm(self, retraction_case):
        model, loads, h, _ = retraction_case
        settle = prepare_settle(model, loads, h)
        A = settle.A.tocoo()
        assert settle.factor.band.shape[0] - 1 < np.abs(A.row - A.col).max()
        assert np.array_equal(settle.factor.perm,
                              reverse_cuthill_mckee(settle.A, symmetric_mode=True))

    def test_keeps_a_narrower_own_numbering(self):
        # A tridiagonal matrix is already as narrow as a band gets.
        n = 12
        A = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
        factor = BandedCholesky.of(A)
        assert factor.band.shape[0] - 1 == 1
        assert np.array_equal(factor.perm, np.arange(n))

    @pytest.mark.parametrize("a", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 2.0]]],
                             ids=["rank-deficient", "zero-pivot"])
    def test_singular_matrix_is_a_solver_error(self, a):
        with pytest.raises(IndefiniteSystemError, match="singular"):
            BandedCholesky.of(sp.csr_matrix(a))

    def test_indefinite_matrix_is_a_solver_error(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(IndefiniteSystemError, match="not positive definite"):
            BandedCholesky.of(A)


@pytest.fixture(scope="module")
def retraction_case():
    """The seed-11 cohort case: 300 nodes, k=8, hoisted by the default retractor."""
    case = synth_cohort(SyntheticCohortSpec(n=1, seed=11, heterogeneity=0.3))[0]
    field = young_material_field(case.volume, case.mask)
    model = build_model(field, n_nodes=300, k=8, seed=0)
    return model, retraction_load_case(model, default_retractor(field)), 0.05, 1e-6


@pytest.fixture(scope="module")
def slender_fea_matrix():
    """The clamped K of `validate-beam --slender`'s FEA, in its own numbering."""
    return _fea_system(VALIDATION_BEAMS["slender"][0]).A


@pytest.fixture(scope="module")
def slender_meshfree_matrix():
    """The clamped mesh-free K of `validate-beam --slender`, ordered by RCM."""
    spec, n_nodes = VALIDATION_BEAMS["slender"]
    phantom = build_beam_phantom(spec, n_nodes, VALIDATION_K, VALIDATION_SEED)
    return _meshfree_system(phantom).A


@pytest.fixture(scope="module")
def settle_matrix(retraction_case):
    model, loads, h, _ = retraction_case
    return prepare_settle(model, loads, h).A


class TestPreparedSettle:
    def test_steps_match_rebuilt_system_with_plain_cg(self, retraction_case):
        # Reference: the step in its velocity-increment form,
        #   (M + h C + h^2 K_eff) dqdot = h (f - K_eff q - C qdot - h K_eff qdot),
        # assembled densely here and solved directly.  Velocities shrink by
        # orders of magnitude along a settle, so they are compared against the
        # run's largest velocity.
        model, loads, h, _ = retraction_case
        settle = prepare_settle(model, loads, h)
        K = k_eff(model, loads).toarray()
        C = dense_damping(model)
        f = external_force(model, loads)
        A = np.diag(model.matrices.M) + h * C + h * h * K
        state = SimState.rest(model.n_dofs)
        v_scale = 0.0
        for _ in range(3):
            fast = step(settle, state, N_max=50, tol=1e-13)
            q, qdot = state.q, state.qdot
            qdot_ref = qdot + np.linalg.solve(A, h * (f - K @ q - C @ qdot - h * (K @ qdot)))
            q_ref = q + h * qdot_ref
            v_scale = max(v_scale, np.linalg.norm(qdot_ref))
            assert np.linalg.norm(fast.q - q_ref) <= 1e-9 * np.linalg.norm(q_ref)
            assert np.linalg.norm(fast.qdot - qdot_ref) <= 1e-9 * v_scale
            state = fast

    def test_settle_matches_direct_static_solve(self, retraction_case):
        # At the last step, with an exact solve,
        #   K_eff (q - q*) = -M (qdot_new - qdot_old) / h - C qdot_new,
        # and both velocities are below v_tol, so
        #   |q - q*|_inf <= (2 |K_eff^-1 M|_inf / h + |K_eff^-1 C|_inf) * v_tol.
        model, loads, h, v_tol = retraction_case
        final = run_to_steady_state(model, loads, h=h, max_steps=5000, v_tol=v_tol,
                                    N_max=200, tol=1e-12)
        K_eff = k_eff(model, loads).tocsc()
        q_star = spsolve(K_eff, external_force(model, loads))

        K_inv = np.linalg.inv(K_eff.toarray())
        KiM = K_inv * model.matrices.M
        KiC = K_inv @ dense_damping(model)
        bound = v_tol * (2.0 * np.abs(KiM).sum(axis=1).max() / h + np.abs(KiC).sum(axis=1).max())
        err = np.abs(final.q - q_star).max()
        assert err <= bound, f"settle off the static solution by {err:.3e} mm, bound {bound:.3e}"
        assert np.abs(q_star).max() > 1e3 * bound, "the bound must be tight enough to mean something"

    def test_matrix_is_formed_from_the_damping_coefficients(self, retraction_case):
        model, loads, h, _ = retraction_case
        mats = model.matrices
        expected = ((1.0 + h * mats.alpha) * np.diag(mats.M)
                    + (h * mats.beta + h * h) * mats.K.toarray()
                    + h * h * np.diag(spring_diagonal(model, loads)))
        A = prepare_settle(model, loads, h).A.toarray()
        assert np.abs(A - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_one_settle_serves_every_step(self, retraction_case):
        model, loads, h, _ = retraction_case
        settle = prepare_settle(model, loads, h)
        state = SimState.rest(model.n_dofs)
        first = step(settle, state, **CG)
        second = step(settle, first, **CG)
        fresh = step(prepare_settle(model, loads, h), first, **CG)
        assert np.array_equal(second.q, fresh.q) and np.array_equal(second.qdot, fresh.qdot)
        with pytest.raises(ValueError, match="DOFs"):
            step(settle, SimState.rest(3), **CG)

    def test_capped_step_is_a_solver_error(self, retraction_case):
        model, loads, h, _ = retraction_case
        settle = prepare_settle(model, loads, h)
        with pytest.raises(NonConvergenceError, match=r"residual .* cap of 1 iterations"):
            step(settle, SimState.rest(model.n_dofs), N_max=1, tol=1e-30)

    def test_overflowing_step_is_a_data_error(self, retraction_case):
        # h^2 = inf: the matrix holds inf entries before any factor is tried.
        model, loads, _, _ = retraction_case
        with pytest.raises(ValueError, match=r"overflows at step size h=1e\+300 "
                                             r"with damping alpha=0\.\d+, beta=0\.\d+"):
            prepare_settle(model, loads, h=1e300)

    def test_singular_system_is_a_solver_error(self):
        # A massless, stiffness-free model gives A = 0, which has no LU factor.
        zero = sp.csr_matrix((3, 3))
        model = replace(make_point_model(),
                        matrices=SystemMatrices(M=np.zeros(3), K=zero, alpha=0.0, beta=0.0))
        with pytest.raises(IndefiniteSystemError, match="singular"):
            prepare_settle(model, LoadCase(), h=0.1)


class TestStep:
    def test_rest_stays_at_rest(self):
        model = build_model(make_field(), n_nodes=5, k=4, seed=0)
        s0 = SimState.rest(model.n_dofs)
        s1 = step(prepare_settle(model, LoadCase(), h=1e-3), s0, **CG)
        assert np.all(s1.q == 0.0)
        assert np.all(s1.qdot == 0.0)
        assert s1.t == pytest.approx(1e-3)

    def test_free_body_under_gravity_backward_euler(self):
        # K = C = 0, so one step gives qdot = g*h and q = g*h^2 exactly.
        model = make_point_model()
        g = (0.0, 0.0, -9810.0)
        h = 1e-3
        s1 = step(prepare_settle(model, LoadCase(gravity=g), h), SimState.rest(3), **CG)
        assert np.allclose(s1.qdot, [0.0, 0.0, -9810.0 * h], rtol=1e-12)
        assert np.allclose(s1.q, [0.0, 0.0, -9810.0 * h * h], rtol=1e-12)


class TestRunToSteadyState:
    def test_zero_loads_converges_immediately(self):
        model = build_model(make_field(), n_nodes=5, k=4, seed=0)
        final = run_to_steady_state(model, LoadCase(), h=1e-3, max_steps=10, v_tol=1e-4, **CG)
        assert np.all(final.q == 0.0)

    def test_spring_reaches_static_equilibrium(self):
        # Point mass on a 10 N/mm support spring under 5 N: q_x -> 0.5 mm.
        model = make_point_model(alpha=1.0)
        anchor = model.dofs.nodes[0]
        loads = LoadCase(
            point_loads=[(0, np.array([5.0, 0.0, 0.0]))],
            support_springs=[(0, 10.0, anchor)],
        )
        final = run_to_steady_state(
            model, loads, h=1.0, max_steps=200, v_tol=1e-9, N_max=500, tol=1e-14
        )
        assert abs(final.q[0] - 0.5) <= 1e-6
        assert abs(final.q[1]) <= 1e-9 and abs(final.q[2]) <= 1e-9

    def test_free_fall_never_converges(self):
        model = make_point_model()
        loads = LoadCase(gravity=(0.0, 0.0, -9810.0))
        with pytest.raises(NonConvergenceError) as err:
            run_to_steady_state(model, loads, h=1e-3, max_steps=50, v_tol=1e-4, **CG)
        v_inf = re.search(r"last \|qdot\|_inf = (\S+) mm/s", str(err.value))
        assert float(v_inf.group(1)) > 0.0

    def test_rigid_support_limit(self):
        # A 1e9 N/mm spring anchored at rest pins the node numerically.
        model = make_point_model(alpha=1.0)
        anchor = model.dofs.nodes[0]
        loads = LoadCase(
            gravity=(0.0, 0.0, -9810.0),
            support_springs=[(0, 1e9, anchor)],
        )
        final = run_to_steady_state(model, loads, h=0.1, max_steps=100, v_tol=1e-9, N_max=200,
                                    tol=1e-14)
        assert np.abs(final.q).max() < 1e-6


class TestStaticLinearity:
    def test_half_displacement_at_double_stiffness(self):
        # Node 0 hangs on a spring whose stiffness doubles with E, so K_eff doubles.
        field = make_field(dims=(4, 3, 2), young=2.0)
        kwargs = dict(h=0.5, max_steps=4000, v_tol=1e-10, N_max=2000, tol=1e-13)
        base_model = build_model(field, n_nodes=6, k=4, seed=2)
        anchor = base_model.dofs.nodes[0]

        def held(spring_k):
            return LoadCase(gravity=(0.0, 0.0, -9810.0), support_springs=[(0, spring_k, anchor)])

        base = run_to_steady_state(base_model, held(0.01), **kwargs)
        stiff = run_to_steady_state(
            build_model(field.with_young(4.0), n_nodes=6, k=4, seed=2), held(0.02), **kwargs
        )
        rel = np.linalg.norm(stiff.q - base.q / 2.0) / np.linalg.norm(base.q / 2.0)
        assert rel <= 1e-6, f"doubling E must halve displacements, rel err {rel}"


class TestOscillatorStability:
    def test_damped_oscillator_bounded_at_large_h(self):
        # Backward Euler stays bounded even at h = 1 s where an explicit
        # scheme at omega*h ~ 3 would explode.  The point mass has k = 10 M
        # and C = M: omega^2 = 10 and unit damping rate.
        for h in (0.01, 0.1, 1.0):
            settle = point_settle(h=h, spring_k=1e-5, alpha=1.0)
            state = SimState(q=np.array([1.0, 0.0, 0.0]), qdot=np.zeros(3))
            peak = 0.0
            for _ in range(200):
                state = step(settle, state, N_max=200, tol=1e-14)
                peak = max(peak, abs(state.q[0]))
            q = state.q[0]
            assert peak <= 1.0 + 1e-9, f"h={h}: |q| grew to {peak}"
            assert abs(q) < 0.5, f"h={h}: damping should shrink |q|, got {q}"


class TestInternalForceConsistency:
    def test_matches_energy_gradient(self):
        model = build_model(make_field(dims=(3, 3, 2)), n_nodes=5, k=4, seed=3)
        K = model.matrices.K
        rng = np.random.default_rng(1)
        q = rng.standard_normal(model.n_dofs)
        f_int = -(K @ q)

        def energy(vec):
            return 0.5 * float(vec @ (K @ vec))

        eps = 1e-6
        for i in range(model.n_dofs):
            e = np.zeros(model.n_dofs)
            e[i] = eps
            fd = -(energy(q + e) - energy(q - e)) / (2 * eps)
            scale = max(abs(fd), abs(f_int[i]), 1e-12)
            assert abs(fd - f_int[i]) <= 1e-6 * scale


class TestDisplaceLandmarks:
    def test_landmark_on_node_moves_with_it(self):
        model = build_model(make_field(dims=(4, 4, 4)), n_nodes=6, k=4, seed=0)
        rng = np.random.default_rng(2)
        q = rng.standard_normal(model.n_dofs) * 0.1
        j = 3
        rest = model.dofs.nodes[j]
        [(label, moved)] = displace_landmarks(model, q, [("lm", rest)])
        assert label == "lm"
        assert np.allclose(moved, rest + q[3 * j : 3 * j + 3], atol=1e-12)

    def test_rigid_translation_carries_landmarks(self):
        model = build_model(make_field(dims=(4, 4, 4)), n_nodes=6, k=4, seed=0)
        d = np.array([0.3, -0.2, 0.5])
        marks = [("a", np.array([1.5, 1.5, 1.5])), ("b", np.array([2.5, 3.1, 2.2]))]
        moved = displace_landmarks(model, np.tile(d, model.n_nodes), marks)
        for (_, rest), (_, now) in zip(marks, moved):
            assert np.allclose(now, np.asarray(rest) + d, atol=1e-9)

    def test_midpoint_landmark_averages_two_nodes(self):
        field = make_field(dims=(2, 1, 1), spacing=(2.0, 2.0, 2.0))
        from elastosim.meshfree import (
            DofSet,
            MeshFreeModel,
            SystemMatrices,
            assemble_mass,
            assemble_stiffness,
            shape_weights,
        )

        # A node on each voxel center, placed by hand: `sample_dofs` needs 4 nodes.
        dofs = DofSet(nodes=field.masked_centers(), owner=np.arange(2))
        shape = shape_weights(dofs, field, k=2)
        K = assemble_stiffness(shape, field, n_nodes=2)
        M = assemble_mass(shape, field, n_nodes=2)
        model = MeshFreeModel(
            field=field, dofs=dofs, shape=shape,
            matrices=SystemMatrices(M=M, K=K, alpha=0.0, beta=0.0),
        )
        q = np.array([1.0, 0.0, 0.0, 3.0, 0.0, 0.0])
        midpoint = dofs.nodes.mean(axis=0)
        [(_, moved)] = displace_landmarks(model, q, [("mid", midpoint)])
        assert np.allclose(moved - midpoint, [2.0, 0.0, 0.0], atol=1e-12)

    def test_outside_mask_rejected(self):
        model = build_model(make_field(dims=(4, 4, 4)), n_nodes=6, k=4, seed=0)
        with pytest.raises(ValueError, match="outside the masked volume"):
            displace_landmarks(model, np.zeros(model.n_dofs), [("bad", [99.0, 1.0, 1.0])])

    @pytest.mark.parametrize("extra", [-3, 3, 1])
    def test_wrong_length_rejected(self, extra):
        model = build_model(make_field(dims=(4, 4, 4)), n_nodes=6, k=4, seed=0)
        with pytest.raises(ValueError, match="model has 18 DOFs"):
            displace_landmarks(model, np.zeros(model.n_dofs + extra), [("a", [1.5, 1.5, 1.5])])


class TestCsvExports:
    def test_landmarks_format(self, tmp_path):
        path = write_landmarks_csv(
            [("apex", np.array([1.0, 2.0, 3.0]))], tmp_path / "marks.csv"
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,x_mm,y_mm,z_mm"
        assert lines[1] == "apex,1.0,2.0,3.0"


class TestSimState:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SimState(q=np.array([np.nan]), qdot=np.array([0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            SimState(q=np.zeros(3), qdot=np.zeros(4))
