"""Implicit-Euler dynamics with a conjugate-gradient core and landmark mapping.

Each step is backward Euler written for the new velocity (Hairer & Wanner,
Solving Ordinary Differential Equations II, 1996, Sec. IV.3):

    (M + h*C + h^2*K_eff) * qdot_new = M * qdot + h * (f - K_eff * q)
    q_new = q + h * qdot_new

where K_eff folds any support-spring stiffness into K, and f is the constant
external force: gravity, point loads and the springs' anchor terms.  The
damping C = alpha*M + beta*K enters only the matrix, formed from alpha and
beta as (h*beta + h^2)*K + diag((1 + h*alpha)*M + h^2*springs), so a step's
right-hand side takes one sparse product.  The matrix is SPD for h > 0, so
CG solves it; iterations are capped, and a step whose solve hits the cap raises.

For a fixed model, load case and h the matrix is the same on every step of a
settle, so `prepare_settle` assembles it once and factors it with a
`BandedCholesky`; each step then only forms its right-hand side and runs CG
preconditioned by that factor, which converges in one iteration.
Convergence is still judged on the true, unpreconditioned residual
b - A x, so the tolerance and the iteration cap keep their meaning.  The
cantilever's static solves go through the same factored CG.

`BandedCholesky` is the one factor behind every SPD solve, the settle's and
the FEA baseline's: it renumbers the rows by reverse Cuthill-McKee (Cuthill
& McKee, 1969), unless the matrix's own numbering gives a narrower band,
and runs LAPACK's band Cholesky on the lower band (George & Liu, Computer
Solution of Large Sparse Positive Definite Systems, 1981).  Both kinds of
matrix are SPD and, once ordered, nearly banded.

A settle has no fixed DOFs: support springs hold the tissue.  The
cantilever's static solves clamp DOFs with `reduce_dirichlet`, which reduces
their rows and columns to identity and so keeps K SPD and its size fixed.
The core assembly is unit-agnostic raw arithmetic; the model layer feeds it
the consistent mm / tonne / second quantities built during assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from elastosim.meshfree import MeshFreeModel, shepard_weights
from elastosim.volume import _finite, _write_csv

# Default CG iteration cap and relative residual of every solve that does not
# set its own: `cg_solve`, `RetractionConfig` (the CLI's --cg-max and
# --cg-tol) and the cantilever's static solves (the cap only).
CG_MAX = 200
CG_TOL = 1e-6


class NonConvergenceError(RuntimeError):
    """Raised when a run hits its step budget before reaching steady state,
    or a standalone solve hits its iteration cap before its tolerance."""


class IndefiniteSystemError(RuntimeError):
    """Raised when CG detects a non-SPD system (p^T A p <= 0 or NaN), or a Cholesky
    factorization finds a singular or indefinite matrix."""


@dataclass(frozen=True)
class SimState:
    """Nodal displacement and velocity at a time point.

    Attributes:
        q: displacements in mm, 3 per node.
        qdot: velocities in mm/s, same length as q.
        t: elapsed time in s.
    """

    q: np.ndarray
    qdot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        qdot = np.asarray(self.qdot, dtype=np.float64)
        if q.shape != qdot.shape or q.ndim != 1:
            raise ValueError(f"q and qdot must be equal-length vectors, got {q.shape} {qdot.shape}")
        if not (np.isfinite(q).all() and np.isfinite(qdot).all()):
            raise ValueError("state contains non-finite components")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qdot", qdot)

    @classmethod
    def rest(cls, n_dofs: int) -> "SimState":
        return cls(q=np.zeros(n_dofs), qdot=np.zeros(n_dofs), t=0.0)


def _finite_3_vector(value, what: str) -> np.ndarray:
    """`value` as a float 3-vector, or a ValueError that names `what`."""
    try:
        v = np.asarray(value, dtype=float)
    except OverflowError:  # a Python int past the largest float
        raise ValueError(f"{what} must be finite, got {value}") from None
    if v.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite, got {v.tolist()}")
    return v


@dataclass(frozen=True)
class LoadCase:
    """External loading: gravity, point forces, support springs.

    Attributes:
        gravity: acceleration in mm/s^2, applied as M*g per node.
        point_loads: (node index, force N 3-vector) pairs.
        support_springs: (node index, stiffness N/mm, anchor position mm)
            entries; each pulls its node toward the anchor.
    """

    gravity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    point_loads: tuple = ()
    support_springs: tuple = ()

    def __post_init__(self):
        """Coerce the entries and reject values no solve can use, naming the node.

        Raises:
            ValueError: a gravity, point force or spring anchor that is not a
                finite 3-vector, or a spring stiffness that is not finite and >= 0;
                a Python int past the largest float counts as not finite.
        """
        gravity = _finite_3_vector(self.gravity, "gravity")
        loads = tuple(
            (int(i), _finite_3_vector(f, f"point force on node {int(i)}"))
            for i, f in self.point_loads
        )
        springs = tuple(
            (int(i), float(_finite(k, f"spring stiffness of node {int(i)}", at_least=0)),
             _finite_3_vector(a, f"spring anchor of node {int(i)}"))
            for i, k, a in self.support_springs
        )
        object.__setattr__(self, "gravity", tuple(gravity.tolist()))
        object.__setattr__(self, "point_loads", loads)
        object.__setattr__(self, "support_springs", springs)

    def validate_against(self, n_nodes: int):
        indices = [i for i, _ in self.point_loads]
        indices += [i for i, _, _ in self.support_springs]
        for i in indices:
            if not 0 <= i < n_nodes:
                raise ValueError(f"load references node {i}, model has {n_nodes} nodes")


@dataclass(frozen=True)
class LinearSystem:
    """An SPD system A x = b: one implicit-Euler step's, or a clamped static one."""

    A: sp.csr_matrix
    b: np.ndarray


@dataclass(frozen=True)
class BandedCholesky:
    """Cholesky factor of a sparse SPD matrix, held as a band in a reordered numbering.

    Row r of the factor is row `perm[r]` of the matrix.  `band` is the lower
    band of the factor L, A[perm][:, perm] = L L^T, in LAPACK's layout:
    `band[r - s, s]` holds entry (r, s) of L for s <= r <= s + w, where
    w + 1 is the band's row count.

    Attributes:
        perm: the ordering, a permutation of the matrix's rows.
        band: (w + 1, n) Fortran-ordered factor band.
    """

    perm: np.ndarray
    band: np.ndarray

    @classmethod
    def of(cls, A: sp.spmatrix) -> "BandedCholesky":
        """Factor A in reverse Cuthill-McKee order, or in its own numbering if
        that gives a band no wider.

        Only the lower triangle of the ordered matrix is read, so A must be
        symmetric.

        Raises:
            IndefiniteSystemError: A is singular or not positive definite.
        """
        A = sp.csr_array(A)  # shares a CSR input's arrays
        if not A.has_canonical_format:
            A = A.copy()  # sum_duplicates sorts and sums in place
            A.sum_duplicates()
        n = A.shape[0]
        counts = np.diff(A.indptr)
        rows = np.flatnonzero(counts)
        # A sorted row's first column is its farthest reach below the diagonal.
        w = int((rows - A.indices[A.indptr[rows]]).max(initial=0))
        perm = reverse_cuthill_mckee(A, symmetric_mode=True)
        rank = np.empty_like(perm)
        rank[perm] = np.arange(n, dtype=perm.dtype)
        cols = rank.take(A.indices)
        below = np.repeat(rank, counts)  # each entry's distance below the diagonal
        below -= cols
        w_rcm = int(below.max(initial=0))
        if w_rcm < w:
            w = w_rcm
        else:
            perm, cols = np.arange(n), A.indices
            below = np.repeat(np.arange(n, dtype=cols.dtype), counts)
            below -= cols
        lower = np.flatnonzero(below >= 0)
        # LAPACK reads a Fortran-ordered band in place; a C-ordered one it would copy.
        band = np.zeros((w + 1, n), order="F")
        band[below.take(lower), cols.take(lower)] = A.data.take(lower)
        try:
            band = cholesky_banded(band, lower=True, overwrite_ab=True, check_finite=False)
        except LinAlgError as exc:
            raise IndefiniteSystemError(
                f"system matrix is singular or not positive definite: {exc}"
            ) from exc
        return cls(perm=perm, band=band)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b, by the two triangular band solves in the factor's numbering."""
        y = cho_solve_banded((self.band, True), b[self.perm], overwrite_b=True,
                             check_finite=False)
        x = np.empty_like(y)
        x[self.perm] = y
        return x


@dataclass(frozen=True)
class CgResult:
    """Conjugate-gradient outcome: solution, iterations, relative residual."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def reduce_dirichlet(A: sp.csr_matrix, b: np.ndarray, fixed: np.ndarray) -> LinearSystem:
    """Hold the fixed DOFs at zero: their rows and columns of A become identity, their b zero.

    The reduced system stays SPD and keeps its size.  The entries are zeroed
    on one copy of A, so the reduction makes no temporary larger than A.
    """
    keep = np.ones(len(b))
    keep[fixed] = 0.0
    held = keep == 0.0
    A = A.tocsr(copy=True)
    A.sum_duplicates()
    A.data[np.repeat(held, np.diff(A.indptr)) | held[A.indices]] = 0.0
    A[fixed, fixed] = 1.0  # a stored diagonal is set in place, a missing one inserted
    A.eliminate_zeros()
    return LinearSystem(A=A, b=b * keep)


def _spring_terms(model: MeshFreeModel, loads: LoadCase):
    """Spring stiffness diagonal (N/mm per DOF) and constant force k*(anchor - x0)."""
    n_dofs = model.n_dofs
    diag = np.zeros(n_dofs)
    const = np.zeros(n_dofs)
    for i, k, anchor in loads.support_springs:
        sl = slice(3 * i, 3 * i + 3)
        diag[sl] += k
        const[sl] += k * (anchor - model.dofs.nodes[i])
    return diag, const


def external_force(model: MeshFreeModel, loads: LoadCase) -> np.ndarray:
    """Constant part of the external force: gravity, point loads, spring anchors (N)."""
    loads.validate_against(model.n_nodes)
    f = model.matrices.M * np.tile(loads.gravity, model.n_nodes)
    for i, force in loads.point_loads:
        f[3 * i : 3 * i + 3] += force
    _, const = _spring_terms(model, loads)
    return f + const


@dataclass(frozen=True)
class Settle:
    """The parts of the implicit-Euler system that stay fixed over a settle.

    For a fixed model, load case and h, A = M + h*C + h^2*K_eff (formed from
    alpha and beta, not C) is the same on every step; only the right-hand side
    depends on the state.  `factor`, A's banded Cholesky, preconditions CG exactly.

    Attributes:
        h: step size in s.
        M: lumped mass diagonal.
        K: stiffness with support springs folded in (K_eff).
        f: constant external force (N).
        A: system matrix.
        factor: `BandedCholesky` of A.
    """

    h: float
    M: np.ndarray
    K: sp.spmatrix
    f: np.ndarray
    A: sp.csr_matrix
    factor: BandedCholesky


def prepare_settle(model: MeshFreeModel, loads: LoadCase, h: float) -> Settle:
    """Assemble and factor the implicit-Euler matrix shared by every step of a settle.

    Raises:
        ValueError: h not finite and > 0, out-of-range load indices, or a system matrix
            that overflows to a non-finite entry.
        IndefiniteSystemError: the system matrix is singular or not positive definite.
    """
    _finite(h, "step size", above=0)
    f = external_force(model, loads)
    spring_diag, _ = _spring_terms(model, loads)
    mats = model.matrices
    K_eff = mats.K + sp.diags(spring_diag) if spring_diag.any() else mats.K
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, by name
        diag = (1.0 + h * mats.alpha) * mats.M + (h * h) * spring_diag
        A = ((h * mats.beta + h * h) * mats.K + sp.diags(diag)).tocsr()
    A.sum_duplicates()
    if not np.isfinite(A.data).all():
        raise ValueError(f"the implicit-Euler matrix overflows at step size h={h} "
                         f"with damping alpha={mats.alpha}, beta={mats.beta}")
    return Settle(h=h, M=mats.M, K=K_eff, f=f, A=A, factor=BandedCholesky.of(A))


def cg_solve(
    system: LinearSystem,
    N_max: int = CG_MAX,
    tol: float = CG_TOL,
    preconditioner=None,
) -> CgResult:
    """Conjugate gradient on an SPD system, optionally preconditioned.

    Starts from x = 0 with p_0 = z_0 = P(b) and iterates the standard
    alpha / residual / beta recurrences until the relative residual
    ||r|| / ||b|| drops to tol or N_max iterations are spent.  The
    preconditioner P is a callable applying an SPD approximation of A^-1 to
    a vector; without one, z = r and this is plain CG.  A zero b
    short-circuits to the exact solution x = 0.

    The recurrence residual drifts from the true b - A x in floating point,
    so when it meets tol the true residual is recomputed: the solve converges
    only if that one meets tol too, and otherwise restarts the directions
    from it (residual replacement; van der Vorst & Ye, SIAM J. Sci. Comput.
    22 (2000) 835-852).  The reported residual is always a true one, capped
    solves included.

    Raises:
        IndefiniteSystemError: a search direction gives p^T A p <= 0 or NaN.
    """
    A, b = system.A, system.b
    n = len(b)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return CgResult(x=np.zeros(n), iterations=0, residual=0.0, converged=True)

    precondition = (lambda v: v) if preconditioner is None else preconditioner
    x = np.zeros(n)
    r = np.array(b, dtype=np.float64)  # the residual b - A x at x = 0
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)

    for n_iter in range(1, N_max + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:  # NaN too
            raise IndefiniteSystemError(
                f"indefinite system: p^T A p = {pAp} at iteration {n_iter}"
            )
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        residual = float(np.linalg.norm(r)) / norm_b
        replaced = residual <= tol
        if replaced:
            r = b - A @ x
            residual = float(np.linalg.norm(r)) / norm_b
            if residual <= tol:
                return CgResult(x=x, iterations=n_iter, residual=residual, converged=True)
        z = precondition(r)
        rz_next = float(r @ z)
        # Past a replacement the old direction is not conjugate to the new
        # residual; keeping it let plain CG diverge on the FEA beam.
        p = z.copy() if replaced else z + (rz_next / rz) * p
        rz = rz_next

    residual = float(np.linalg.norm(b - A @ x)) / norm_b
    return CgResult(x=x, iterations=N_max, residual=residual, converged=False)


def _factored_cg(system: LinearSystem, factor: BandedCholesky, N_max: int, tol: float,
                 what: str) -> np.ndarray:
    """x with A x = b, by CG preconditioned with `factor`, a `BandedCholesky` of A.

    Raises:
        NonConvergenceError: the true residual missed tol within N_max
            iterations; the message starts with `what`.
    """
    result = cg_solve(system, N_max=N_max, tol=tol, preconditioner=factor.solve)
    if not result.converged:
        raise NonConvergenceError(
            f"{what}: CG stopped at relative residual {result.residual:.3e} "
            f"after the cap of {N_max} iterations (tolerance {tol:.1e})"
        )
    return result.x


def step(settle: Settle, state: SimState, N_max: int, tol: float) -> SimState:
    """Advance one backward-Euler step of `settle.h`: solve for qdot_new, then integrate q.

    `settle` is `prepare_settle(model, loads, h)`, shared by every step of a
    settle.  The CG iteration cap N_max bounds per-step cost.

    Raises:
        ValueError: the state's length differs from the settle's DOFs.
        NonConvergenceError: CG hit N_max before the true residual met tol.
    """
    if len(state.q) != len(settle.f):
        raise ValueError(f"state has {len(state.q)} DOFs, settle has {len(settle.f)}")
    h = settle.h
    b = settle.M * state.qdot + h * (settle.f - settle.K @ state.q)
    qdot_new = _factored_cg(LinearSystem(A=settle.A, b=b), settle.factor, N_max, tol,
                            f"step at t={state.t:.3g} s")
    return SimState(q=state.q + h * qdot_new, qdot=qdot_new, t=state.t + h)


def run_to_steady_state(
    model: MeshFreeModel,
    loads: LoadCase,
    h: float,
    max_steps: int,
    v_tol: float,
    N_max: int,
    tol: float,
) -> SimState:
    """Step from rest until the velocity infinity-norm stays below v_tol for 3 steps.

    The system matrix is assembled and factored once, then shared by every
    step.  Each step's CG runs to tol within N_max iterations.

    Raises:
        NonConvergenceError: max_steps reached first, the message carrying
            the last velocity infinity-norm; or a step's CG hit its cap.
    """
    settle = prepare_settle(model, loads, h)
    current = SimState.rest(model.n_dofs)
    quiet = 0
    v_inf = 0.0
    for _ in range(max_steps):
        current = step(settle, current, N_max=N_max, tol=tol)
        v_inf = float(np.abs(current.qdot).max())
        quiet = quiet + 1 if v_inf < v_tol else 0
        if quiet >= 3:
            return current
    raise NonConvergenceError(
        f"no steady state after {max_steps} steps; last |qdot|_inf = {v_inf:.3e} mm/s"
    )


def displace_landmarks(
    model: MeshFreeModel, q: np.ndarray, landmarks: list[tuple[str, np.ndarray]]
) -> list[tuple[str, np.ndarray]]:
    """Map a nodal displacement vector to landmark positions via the shape functions.

    Each landmark at rest position x moves by sum_i w_i(x) q_i with the same
    Shepard construction used for assembly, evaluated at x.

    Returns:
        (label, current position mm) per landmark.

    Raises:
        ValueError: q does not hold 3 entries per model node, or a landmark
            lies outside the masked volume.
    """
    if len(q) != model.n_dofs:
        raise ValueError(f"displacement vector has {len(q)} entries, model has {model.n_dofs} DOFs")
    vol, mask = model.field.volume, model.field.mask
    nx, ny, nz = vol.dims
    spacing = np.asarray(vol.spacing_mm)
    grid_flags = mask.flags.reshape(nz, ny, nx)
    positions = np.array([np.asarray(p, dtype=float) for _, p in landmarks]).reshape(-1, 3)
    for (label, _), pos in zip(landmarks, positions):
        # Points exactly on the volume's boundary belong to the nearest voxel.
        ijk = np.clip(
            np.floor(pos / spacing + 1e-9).astype(int), 0, np.array(vol.dims) - 1
        )
        i, j, k = ijk
        upper = np.array(vol.dims) * spacing
        outside = np.any(pos < -1e-9) or np.any(pos > upper + 1e-9)
        if outside or not grid_flags[k, j, i]:
            raise ValueError(f"landmark {label!r} at {pos.tolist()} is outside the masked volume")

    idx, w, _ = shepard_weights(positions, model.dofs.nodes, k=model.shape.k)
    q_nodes = np.asarray(q, dtype=np.float64).reshape(-1, 3)
    moved = positions + np.einsum("lk,lkc->lc", w, q_nodes[idx])
    return [(label, moved[row]) for row, (label, _) in enumerate(landmarks)]


def write_landmarks_csv(landmarks: list[tuple[str, np.ndarray]], path: str | Path) -> Path:
    """Write landmark positions as CSV `label,x_mm,y_mm,z_mm`."""
    return _write_csv(path, ["label", "x_mm", "y_mm", "z_mm"],
                      ((label, *pos) for label, pos in landmarks))
