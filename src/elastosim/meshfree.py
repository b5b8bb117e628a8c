"""Mesh-free model construction: DOF sampling, shape functions, assembly.

A model is built from a masked per-voxel Young's modulus field in three
stages.  Lloyd-relaxed Voronoi sampling picks the DOF node positions inside
the mask.  Inverse-distance-squared Shepard functions over the k nearest
nodes give each voxel center a partition-of-unity weight set with analytic
gradients.  Mass, stiffness, and damping are then assembled with one
integration point per voxel: lumped M, K = sum of B^T D B * V_voxel, and
Rayleigh C = alpha*M + beta*K.

Units are a consistent mm / tonne / second system: lengths mm, mass tonnes,
force N, stress N/mm^2.  Young's modulus enters in kPa (1 kPa = 1e-3 N/mm^2)
and density in kg/m^3 (1 kg/m^3 = 1e-12 t/mm^3); both are converted during
assembly so that M, K, C can be combined without hidden factors.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from elastosim.volume import RoiMask, VolumeFormatError, VoxelVolume

KPA_TO_N_PER_MM2 = 1e-3
KG_PER_M3_TO_T_PER_MM3 = 1e-12

# Squared distance below which a voxel center and node are treated as
# coincident: the Shepard weight saturates at 1 and its gradient at 0.
_COINCIDENT_D2 = 1e-18

# A k-d tree row is settled when its last candidate node lies farther than
# its k-th by this relative and absolute (mm) margin.  Tree distances carry
# rounding errors near 1e-16 relative, so every node that the recomputed d^2
# could tie with the k-th is then a candidate.
_TREE_GAP_REL = 1e-9
_TREE_GAP_ABS_MM = 1e-12

# Lloyd relaxation stops once no node moves this far in mm, or after this
# many iterations.
_LLOYD_MOVE_TOL_MM = 1e-6
_LLOYD_MAX_ITERS = 50

_ARCHIVE_MAGIC = b"ESIMMDL1"
ARCHIVE_VERSION = 2


@dataclass(frozen=True)
class MaterialField:
    """Per-voxel Young's modulus with global Poisson ratio and density.

    Attributes:
        volume: stiffness volume whose data holds Young's modulus in kPa.
        mask: voxels that belong to the simulated tissue.
        nu: global Poisson ratio, in [0, 0.5) so the elasticity tensor
            stays nonsingular.
        density: mass density in kg/m^3.
    """

    volume: VoxelVolume
    mask: RoiMask
    nu: float = 0.45
    density: float = 1000.0

    def __post_init__(self):
        if self.mask.dims != self.volume.dims:
            raise ValueError(
                f"mask dims {self.mask.dims} do not match volume dims {self.volume.dims}"
            )
        if not 0.0 <= self.nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {self.nu}")
        if not 0.0 < self.density < math.inf:
            raise ValueError(f"density must be finite and > 0, got {self.density}")
        if self.mask.n_selected == 0:
            raise ValueError("mask selects no voxels")
        masked_E = self.volume.data[self.mask.flags]
        if not np.isfinite(masked_E).all():
            raise ValueError("every masked-in voxel needs a finite Young's modulus")
        if float(masked_E.min()) <= 0.0:
            raise ValueError("every masked-in voxel needs Young's modulus > 0")

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.volume.spacing_mm
        return sx * sy * sz

    def masked_centers(self) -> np.ndarray:
        """Centers of masked-in voxels in mm, shape (n_masked, 3), x fastest."""
        return self.volume.voxel_centers()[self.mask.flags]

    def masked_young(self) -> np.ndarray:
        """Young's modulus (kPa) of masked-in voxels as float64."""
        return self.volume.data[self.mask.flags].astype(np.float64)

    def with_young(self, young_kpa) -> "MaterialField":
        """Same geometry and globals with voxel stiffness replaced.

        Args:
            young_kpa: scalar (constant stiffness) or full per-voxel array.
        """
        data = np.full(self.volume.n_voxels, float(young_kpa), dtype=np.float32) \
            if np.ndim(young_kpa) == 0 else np.asarray(young_kpa, dtype=np.float32)
        vol = VoxelVolume(
            dims=self.volume.dims,
            spacing_mm=self.volume.spacing_mm,
            kind=self.volume.kind,
            data=data,
        )
        return replace(self, volume=vol)


@dataclass(frozen=True)
class DofSet:
    """Lloyd-relaxed node positions plus the voxel-to-node Voronoi assignment.

    Attributes:
        nodes: node positions in mm, shape (n_nodes, 3).
        owner: nearest-node index per masked voxel, aligned with the
            mask's selected voxels in x-fastest order.
    """

    nodes: np.ndarray
    owner: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        owner = np.asarray(self.owner, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError(f"nodes must be (n, 3), got {nodes.shape}")
        if owner.ndim != 1:
            raise ValueError("owner must be a flat per-masked-voxel index array")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "owner", owner)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ShapeMap:
    """Shepard weights and gradients of the k nearest nodes per masked voxel.

    Attributes:
        indices: node indices, shape (n_masked, k).
        weights: dimensionless weights, shape (n_masked, k); each row sums
            to 1 and is elementwise >= 0.
        gradients: analytic weight gradients in 1/mm, shape (n_masked, k, 3);
            each row's gradients sum to the zero vector.
        corrected_gradients: first-order-consistent gradients, same shape,
            used for strain evaluation and stiffness integration.  Raw
            Shepard gradients only reproduce constant fields; the minimal
            per-voxel shift enforcing sum_i ghat_i x_i^T = I makes the
            discrete gradient exact on linear displacement fields, without
            which the assembled stiffness locks severely under bending.
        k: support size.
    """

    indices: np.ndarray
    weights: np.ndarray
    gradients: np.ndarray
    corrected_gradients: np.ndarray
    k: int

    @property
    def n_voxels(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled lumped mass, stiffness, and Rayleigh damping.

    M is the diagonal as a flat (3n,) array in tonnes; K (N/mm) and C
    (N·s/mm) are sparse CSR, symmetric positive semi-definite, with the
    internal-force convention f_int = -K q - C q_dot.
    """

    M: np.ndarray
    K: sp.csr_matrix
    C: sp.csr_matrix

    @property
    def n_dofs(self) -> int:
        return len(self.M)


@dataclass(frozen=True)
class MeshFreeModel:
    """Simulation-ready model: field, nodes, shape map, matrices, rest state."""

    field: MaterialField
    dofs: DofSet
    shape: ShapeMap
    matrices: SystemMatrices
    q0: np.ndarray
    alpha: float
    beta: float
    seed: int

    @property
    def n_nodes(self) -> int:
        return self.dofs.n_nodes

    @property
    def n_dofs(self) -> int:
        return 3 * self.dofs.n_nodes

    @property
    def total_mass_t(self) -> float:
        """Total lumped mass in tonnes (sum over one component per node)."""
        return float(self.matrices.M[0::3].sum())

    @property
    def total_mass_kg(self) -> float:
        return self.total_mass_t * 1000.0

    def with_constant_young(self, young_kpa: float) -> "MeshFreeModel":
        """Rebuild K and C with a constant stiffness, reusing nodes and shapes.

        The DOF sampling and shape map depend only on the mask geometry, so
        an atlas-stiffness twin shares them and differs only in K (and the
        beta part of C).
        """
        field = self.field.with_young(young_kpa)
        K = assemble_stiffness(self.shape, field, n_nodes=self.n_nodes)
        C = assemble_damping(self.matrices.M, K, self.alpha, self.beta)
        mats = SystemMatrices(M=self.matrices.M, K=K, C=C)
        return replace(self, field=field, matrices=mats)


def sample_dofs(field: MaterialField, n_nodes: int, seed: int = 0) -> DofSet:
    """Pick DOF nodes by Lloyd-relaxed Voronoi sampling of masked voxel centers.

    Seeds are drawn without replacement from the masked voxel centers, then
    iterated: assign each voxel to its nearest node, move each node to the
    centroid of its owned voxels, until the largest node movement drops
    below _LLOYD_MOVE_TOL_MM or _LLOYD_MAX_ITERS is reached.  A node that
    loses all voxels respawns at the voxel center farthest from its nearest
    node.

    Raises:
        ValueError: n_nodes < 1 or more nodes than masked voxels.
    """
    centers = field.masked_centers()
    n_vox = len(centers)
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if n_nodes > n_vox:
        raise ValueError(f"n_nodes {n_nodes} exceeds masked voxel count {n_vox}")

    rng = np.random.default_rng(seed)
    nodes = centers[rng.choice(n_vox, size=n_nodes, replace=False)].copy()

    for _ in range(_LLOYD_MAX_ITERS):
        new_nodes = _lloyd_step(centers, nodes)
        movement = float(np.linalg.norm(new_nodes - nodes, axis=1).max())
        nodes = new_nodes
        if movement < _LLOYD_MOVE_TOL_MM:
            break

    owner, _ = _nearest_nodes(centers, nodes, 1)
    return DofSet(nodes=nodes, owner=owner[:, 0])


def _lloyd_step(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Move each node to the centroid of the points nearest to it.

    A node nearest to no point respawns at the point farthest from its
    nearest node.
    """
    idx, d2 = _nearest_nodes(points, nodes, 1)
    owner, nearest_d2 = idx[:, 0], d2[:, 0]
    counts = np.bincount(owner, minlength=len(nodes))
    sums = np.stack(
        [np.bincount(owner, weights=points[:, c], minlength=len(nodes)) for c in range(3)], axis=1
    )
    owned = counts > 0
    new_nodes = np.empty_like(nodes)
    new_nodes[owned] = sums[owned] / counts[owned, None]
    new_nodes[~owned] = points[np.argmax(nearest_d2)]
    return new_nodes


def _nearest_nodes(points: np.ndarray, nodes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest nodes of each point by (d^2, node index), and their d^2.

    A k-d tree over the nodes gives each point k + 1 candidates.  A row is
    settled when its last candidate is clearly farther than its k-th (d_last
    > d_k * (1 + _TREE_GAP_REL) + _TREE_GAP_ABS_MM), so every node tied at
    the k-th distance is among its candidates, or when it holds all n nodes.
    Each other row asks again for twice as many.  Of nodes tied at a
    distance the lowest index comes first.  Returns (indices, d2), each of
    shape (m, k).
    """
    tree = cKDTree(nodes)
    indices, nearest_d2, settled = _ranked_candidates(tree, points, nodes, k, k + 1)
    rows, width = np.flatnonzero(~settled), 2 * (k + 1)
    while len(rows):
        idx, d2, settled = _ranked_candidates(tree, points[rows], nodes, k, width)
        indices[rows[settled]], nearest_d2[rows[settled]] = idx[settled], d2[settled]
        rows, width = rows[~settled], 2 * width
    return indices, nearest_d2


def _ranked_candidates(tree: cKDTree, points: np.ndarray, nodes: np.ndarray, k: int, width: int):
    """The first k of each point's `width` nearest tree nodes by (d^2, node index).

    d^2 is recomputed term by term, dx*dx + dy*dy + dz*dz, so that it does
    not depend on the tree's arithmetic.  Returns (indices, d2, settled),
    where only the rows marked settled (see `_nearest_nodes`) are final.
    """
    width = min(width, len(nodes))
    dist, cand = tree.query(points, k=width)
    # A width-1 query returns flat arrays.
    dist, cand = dist.reshape(len(points), width), cand.reshape(len(points), width)
    settled = dist[:, -1] > dist[:, k - 1] * (1.0 + _TREE_GAP_REL) + _TREE_GAP_ABS_MM
    if width == len(nodes):
        settled[:] = True
    else:
        cand = cand[:, :-1]  # too far to enter a settled row's k nearest
    # Free each temporary before the next allocation: left on the heap below
    # the arrays that outlive the call, they keep memory resident through the
    # rest of a run.
    del dist
    sq = points[:, None, :] - nodes[cand]
    sq *= sq
    d2 = sq[..., 0] + sq[..., 1] + sq[..., 2]
    del sq
    order = np.lexsort((cand, d2), axis=1)[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(d2, order, axis=1), settled


def shepard_weights(points: np.ndarray, nodes: np.ndarray, k: int):
    """Inverse-distance-squared Shepard weights of the k nearest nodes.

    For each query point x: w_i(x) = (1/d_i^2) / sum_j (1/d_j^2) over the k
    nearest nodes, with analytic gradients.  A point coincident with a node
    gets weight 1 there (gradient 0 everywhere, the Shepard flat spot).

    Args:
        points: query positions, shape (m, 3).
        nodes: node positions, shape (n, 3).
        k: support size, 1 <= k <= n.

    Returns:
        (indices, weights, gradients) with shapes (m, k), (m, k), (m, k, 3).
    """
    points = np.asarray(points, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.float64)
    if not 1 <= k <= len(nodes):
        raise ValueError(f"support size k={k} must lie in [1, {len(nodes)}]")

    idx, d2k = _nearest_nodes(points, nodes, k)
    diff = points[:, None, :] - nodes[idx]  # (m, k, 3)
    coincident = d2k[:, 0] <= _COINCIDENT_D2

    with np.errstate(divide="ignore"):
        s = 1.0 / d2k  # (m, k)
    s[coincident] = 0.0
    S = s.sum(axis=1)
    S[coincident] = 1.0
    w = s / S[:, None]

    # grad s_i = -2 (x - x_i) / d_i^4; grad w_i = (grad s_i - w_i grad S)/S
    gs = -2.0 * diff * (s * s)[:, :, None]
    gS = gs.sum(axis=1)
    gw = (gs - w[:, :, None] * gS[:, None, :]) / S[:, None, None]

    w[coincident] = 0.0
    w[coincident, 0] = 1.0
    gw[coincident] = 0.0
    return idx, w, gw


def correct_gradients(gradients: np.ndarray, node_positions: np.ndarray) -> np.ndarray:
    """Adjust per-point gradients to be exact on linear displacement fields.

    For each point the raw gradients g_i are shifted by the smallest
    (Frobenius-norm) perturbation that enforces sum_i ghat_i x_i^T = I:

        ghat_i = g_i + xc_i C^-1 (I - A)^T

    with A = sum_i g_i x_i^T, xc_i the support positions centered on their
    mean, and C = sum_i xc_i xc_i^T their second-moment matrix.  Because the
    shift lives in the row space of the centered positions, sum_i ghat_i = 0
    carries over from the raw gradients, and the correction stays defined
    even when A itself is singular (e.g. a point coincident with a node,
    where all raw gradients vanish).  Points whose support does not span
    three independent directions (C near singular) keep their raw gradients.

    Args:
        gradients: raw gradients, shape (m, k, 3).
        node_positions: support-node positions per point, shape (m, k, 3).

    Returns:
        Corrected gradients, shape (m, k, 3).
    """
    centered = node_positions - node_positions.mean(axis=1, keepdims=True)
    moment = np.einsum("mka,mkb->mab", centered, centered)
    residual = np.eye(3) - np.einsum("mka,mkb->mab", gradients, node_positions)
    det = np.linalg.det(moment)
    scale = np.einsum("maa->m", moment) / 3.0
    ok = det > scale**3 * 1e-9
    corrected = gradients.copy()
    if ok.any():
        shift = np.linalg.solve(moment[ok], residual[ok].transpose(0, 2, 1))
        corrected[ok] += np.einsum("mka,mab->mkb", centered[ok], shift)
    return corrected


def shape_weights(dofs: DofSet, field: MaterialField, k: int = 8) -> ShapeMap:
    """Build the per-voxel ShapeMap over the field's masked voxel centers.

    Raises:
        ValueError: k out of [1, n_nodes].
    """
    centers = field.masked_centers()
    indices, weights, gradients = shepard_weights(centers, dofs.nodes, k)
    corrected = correct_gradients(gradients, dofs.nodes[indices])
    return ShapeMap(
        indices=indices,
        weights=weights,
        gradients=gradients,
        corrected_gradients=corrected,
        k=k,
    )


def elasticity_matrix(young_kpa: float, nu: float) -> np.ndarray:
    """Isotropic linear elasticity matrix D (6x6, Voigt engineering shear), N/mm^2."""
    e = young_kpa * KPA_TO_N_PER_MM2
    c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
    d = np.zeros((6, 6))
    d[:3, :3] = c * nu
    d[0, 0] = d[1, 1] = d[2, 2] = c * (1.0 - nu)
    d[3, 3] = d[4, 4] = d[5, 5] = c * (1.0 - 2.0 * nu) / 2.0
    return d


def _strain_displacement(gradients: np.ndarray) -> np.ndarray:
    """B matrices from weight gradients: (v, k, 3) -> (v, 6, 3k)."""
    v, k, _ = gradients.shape
    gx, gy, gz = gradients[..., 0], gradients[..., 1], gradients[..., 2]
    b = np.zeros((v, 6, 3 * k))
    cols = 3 * np.arange(k)
    b[:, 0, cols + 0] = gx
    b[:, 1, cols + 1] = gy
    b[:, 2, cols + 2] = gz
    b[:, 3, cols + 0] = gy
    b[:, 3, cols + 1] = gx
    b[:, 4, cols + 1] = gz
    b[:, 4, cols + 2] = gy
    b[:, 5, cols + 0] = gz
    b[:, 5, cols + 2] = gx
    return b


def assemble_stiffness(shape: ShapeMap, field: MaterialField, n_nodes: int) -> sp.csr_matrix:
    """Assemble sparse K (N/mm) with one integration point per masked voxel.

    Each voxel contributes B^T D(E_voxel, nu) B * V_voxel at its center,
    with B built from the first-order-consistent gradients; the result is
    explicitly symmetrized against roundoff.
    """
    young = field.masked_young()
    v_vox = field.voxel_volume_mm3
    d_unit = elasticity_matrix(1.0, field.nu)  # D is linear in E

    b = _strain_displacement(shape.corrected_gradients)
    ke = np.einsum("via,ij,vjb->vab", b, d_unit, b, optimize=True)
    ke *= (young * v_vox)[:, None, None]
    return assemble_blocks(shape.indices, ke, n_nodes)


def assemble_blocks(nodes: np.ndarray, blocks: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """Sum dense element blocks into one sparse matrix, symmetrized against roundoff.

    Entries are summed per node pair, as 3x3 blocks: each distinct pair
    (i, j) of nodes sharing an element gets one block, the sum of the
    elements' (i, j) blocks in element order.

    Args:
        nodes: global node of each local node, shape (e, m).
        blocks: element matrices, shape (e, 3m, 3m), rows and columns
            node-major (local DOF 3a + c is component c of local node a);
            block i lands on the three DOFs of each node in nodes[i].
        n_nodes: node count; the assembled matrix is (3 n_nodes, 3 n_nodes).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    e, m = nodes.shape
    keys = (nodes[:, :, None] * n_nodes + nodes[:, None, :]).ravel()
    pairs, inv = np.unique(keys, return_inverse=True)
    parts = blocks.reshape(e, m, 3, m, 3)
    data = np.empty((len(pairs), 3, 3))
    for a in range(3):
        for b in range(3):  # one component at a time keeps temporaries at e*m^2
            weights = parts[:, :, a, :, b].ravel()
            data[:, a, b] = np.bincount(inv, weights=weights, minlength=len(pairs))
    indptr = np.searchsorted(pairs, np.arange(n_nodes + 1) * n_nodes)
    # Average each block with its mirror pair's transpose: (K + K^T) / 2 by blocks.
    mirror = np.searchsorted(pairs, pairs % n_nodes * n_nodes + pairs // n_nodes)
    data = (data + data[mirror].transpose(0, 2, 1)) * 0.5
    K = sp.bsr_matrix((data, pairs % n_nodes, indptr), shape=(3 * n_nodes, 3 * n_nodes)).tocsr()
    K.eliminate_zeros()
    return K


def assemble_mass(shape: ShapeMap, field: MaterialField, n_nodes: int) -> np.ndarray:
    """Assemble the lumped mass diagonal as a flat (3n,) array in tonnes.

    M_ii = sum over voxels of w_i * rho * V_voxel, replicated on the three
    components of node i; partition of unity conserves total mass.
    """
    rho = field.density * KG_PER_M3_TO_T_PER_MM3
    per_voxel = rho * field.voxel_volume_mm3
    node_mass = np.zeros(n_nodes)
    np.add.at(node_mass, shape.indices, shape.weights * per_voxel)
    return np.repeat(node_mass, 3)


def assemble_damping(M: np.ndarray, K: sp.csr_matrix, alpha: float, beta: float) -> sp.csr_matrix:
    """Rayleigh damping C = alpha*M + beta*K (N·s/mm), symmetric PSD.

    Raises:
        ValueError: negative alpha or beta.
    """
    if alpha < 0 or beta < 0:
        raise ValueError(f"damping coefficients must be >= 0, got alpha={alpha} beta={beta}")
    C = (beta * K + sp.diags(alpha * M)).tocsr()
    C.sum_duplicates()
    return C


def build_model(
    field: MaterialField,
    n_nodes: int = 200,
    k: int = 8,
    alpha: float = 0.1,
    beta: float = 0.01,
    seed: int = 0,
) -> MeshFreeModel:
    """Build a complete mesh-free model from a material field.

    Raises:
        ValueError: n_nodes < 4, or any component precondition fails.
    """
    if n_nodes < 4:
        raise ValueError(f"a 3D model needs at least 4 nodes, got {n_nodes}")
    dofs = sample_dofs(field, n_nodes=n_nodes, seed=seed)
    shape = shape_weights(dofs, field, k=min(k, dofs.n_nodes))
    K = assemble_stiffness(shape, field, n_nodes=dofs.n_nodes)
    M = assemble_mass(shape, field, n_nodes=dofs.n_nodes)
    C = assemble_damping(M, K, alpha, beta)
    return MeshFreeModel(
        field=field,
        dofs=dofs,
        shape=shape,
        matrices=SystemMatrices(M=M, K=K, C=C),
        q0=np.zeros(3 * dofs.n_nodes),
        alpha=alpha,
        beta=beta,
        seed=seed,
    )


def _pack_arrays(arrays: dict[str, np.ndarray]) -> tuple[list[dict], bytes]:
    manifest, blobs, offset = [], [], 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        blob = arr.tobytes()
        manifest.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
        offset += len(blob)
    return manifest, b"".join(blobs)


def save_model(model: MeshFreeModel, path: str | Path) -> Path:
    """Serialize a model to a single archive: magic, JSON header, packed arrays.

    Layout: 8-byte magic, little-endian u64 header length, UTF-8 JSON header
    (scalars plus an array manifest with dtype/shape/offset), then the raw
    array bytes back to back.  The damping C = alpha*M + beta*K is not
    stored; `load_model` rebuilds it from the stored M, K, alpha and beta.
    """
    path = Path(path)
    K = model.matrices.K.tocsr()
    arrays = {
        "volume_data": model.field.volume.data,
        "mask_flags": model.field.mask.flags,
        "nodes": model.dofs.nodes,
        "owner": model.dofs.owner,
        "shape_indices": model.shape.indices,
        "shape_weights": model.shape.weights,
        "shape_gradients": model.shape.gradients,
        "shape_corrected": model.shape.corrected_gradients,
        "M": model.matrices.M,
        "K_data": K.data,
        "K_indices": K.indices.astype(np.int64),
        "K_indptr": K.indptr.astype(np.int64),
        "q0": model.q0,
    }
    manifest, payload = _pack_arrays(arrays)
    header = {
        "format": "meshfree-model",
        "version": ARCHIVE_VERSION,
        "dims": list(model.field.volume.dims),
        "spacing_mm": list(model.field.volume.spacing_mm),
        "kind": model.field.volume.kind,
        "nu": model.field.nu,
        "density": model.field.density,
        "shape_k": model.shape.k,
        "alpha": model.alpha,
        "beta": model.beta,
        "seed": model.seed,
        "arrays": manifest,
    }
    blob = json.dumps(header).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_ARCHIVE_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)
    return path


def _read_archive(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a model archive, every manifest entry checked against the payload.

    Raises:
        VolumeFormatError: bad magic, a short or malformed header, an
            unknown version, an array whose offset, size, dtype or shape the
            payload cannot back, or a NaN or inf in a float array.
    """
    raw = path.read_bytes()
    if raw[:8] != _ARCHIVE_MAGIC:
        raise VolumeFormatError(f"{path} is not a model archive (bad magic)")
    if len(raw) < 16:
        raise VolumeFormatError(f"{path}: archive ends inside its header")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    payload = raw[16 + hlen :]
    try:
        header = json.loads(raw[16 : 16 + hlen].decode())
        arrays = {}
        for item in header["arrays"]:
            name, offset, nbytes = item["name"], int(item["offset"]), int(item["nbytes"])
            dtype, shape = np.dtype(item["dtype"]), tuple(int(n) for n in item["shape"])
            if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
                raise VolumeFormatError(f"array {name!r} lies outside the payload")
            if min(shape, default=0) < 0 or math.prod(shape) * dtype.itemsize != nbytes:
                raise VolumeFormatError(f"array {name!r} of shape {shape} does not fill {nbytes} bytes")
            buf = payload[offset : offset + nbytes]
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape)
            if dtype.kind == "f" and not np.isfinite(arrays[name]).all():
                raise VolumeFormatError(f"array {name!r} holds a NaN or inf")
    except (KeyError, TypeError, ValueError) as exc:
        raise VolumeFormatError(f"{path}: malformed archive header: {exc}") from exc
    if header.get("version") != ARCHIVE_VERSION:
        raise VolumeFormatError(f"{path}: unsupported archive version {header.get('version')!r}")
    return header, arrays


def load_model(path: str | Path) -> MeshFreeModel:
    """Load a model archive written by save_model; C is rebuilt as alpha*M + beta*K.

    Raises:
        FileNotFoundError: archive missing.
        VolumeFormatError: bad magic, a truncated or malformed header, a
            missing array, an array whose bytes or shape disagree with the
            manifest, the mask, shape_k or the model's DOF count, or a
            shape_k, alpha, beta or seed of the wrong type or range.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model archive not found: {path}")
    header, arrays = _read_archive(path)
    try:
        for name in ("owner", "shape_indices", "K_indices", "K_indptr"):
            if arrays[name].dtype.kind not in "iu":
                raise VolumeFormatError(f"array {name!r} must hold integers, not {arrays[name].dtype}")
        volume = VoxelVolume(
            dims=tuple(header["dims"]),
            spacing_mm=tuple(header["spacing_mm"]),
            kind=header["kind"],
            data=arrays["volume_data"],
        )
        mask = RoiMask(dims=volume.dims, flags=arrays["mask_flags"])
        field = MaterialField(volume=volume, mask=mask, nu=header["nu"], density=header["density"])
        dofs = DofSet(nodes=arrays["nodes"], owner=arrays["owner"])
        m, k, n_dofs = mask.n_selected, header["shape_k"], 3 * dofs.n_nodes
        if type(k) is not int:
            raise VolumeFormatError(f"shape_k must be an integer, got {k!r}")
        for name, want in (("owner", (m,)), ("shape_indices", (m, k)), ("shape_weights", (m, k)),
                           ("shape_gradients", (m, k, 3)), ("shape_corrected", (m, k, 3)),
                           ("M", (n_dofs,)), ("q0", (n_dofs,))):
            if arrays[name].shape != want:
                raise VolumeFormatError(
                    f"array {name!r} has shape {arrays[name].shape}; {m} masked voxels, "
                    f"shape_k={k} and {n_dofs} DOFs need {want}"
                )
        for name in ("alpha", "beta"):
            if type(header[name]) not in (int, float) or not 0 <= header[name] < math.inf:
                raise VolumeFormatError(f"{name} must be a finite number >= 0, got {header[name]!r}")
        if type(header["seed"]) is not int:
            raise VolumeFormatError(f"seed must be an integer, got {header['seed']!r}")
        shape = ShapeMap(
            indices=arrays["shape_indices"].astype(np.int64),
            weights=arrays["shape_weights"],
            gradients=arrays["shape_gradients"],
            corrected_gradients=arrays["shape_corrected"],
            k=k,
        )
        K = sp.csr_matrix(
            (arrays["K_data"], arrays["K_indices"], arrays["K_indptr"]), shape=(n_dofs, n_dofs)
        )
        K.check_format(full_check=True)  # column indices come from outside
        M = arrays["M"].copy()
        C = assemble_damping(M, K, header["alpha"], header["beta"])
        return MeshFreeModel(
            field=field,
            dofs=dofs,
            shape=shape,
            matrices=SystemMatrices(M=M, K=K, C=C),
            q0=arrays["q0"].copy(),
            alpha=header["alpha"],
            beta=header["beta"],
            seed=header["seed"],
        )
    except KeyError as exc:
        raise VolumeFormatError(f"{path}: archive has no {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise VolumeFormatError(f"{path}: {exc}") from exc
