"""Mesh-free model construction: DOF sampling, shape functions, assembly.

A model is built from a masked per-voxel Young's modulus field in three
stages.  Lloyd-relaxed Voronoi sampling picks the DOF node positions inside
the mask.  Inverse-distance-squared Shepard functions over the k nearest
nodes give each voxel center a partition-of-unity weight set with analytic
gradients.  Mass and stiffness are then assembled with one integration point
per voxel: lumped M and K = sum of B^T D B * V_voxel.  One kernel,
`_isotropic_stiffness`, sums K per unordered node pair in closed form,
without forming B or any element's block, and writes each lower block as
its mirror's transpose; it serves both discretizations, the voxels here and
the hex FEA of `beam`.  The node-pair pattern of a shape map is
computed once, so that a model and its atlas-stiffness twin share it.  The
Rayleigh damping C = alpha*M + beta*K is held as its two coefficients.  A
model archive stores no Shepard weights, raw gradients or M: `load_model`
recomputes them with the code the build runs, so a loaded model equals the
built one.

Units are a consistent mm / tonne / second system: lengths mm, mass tonnes,
force N, stress N/mm^2.  Young's modulus enters in kPa (1 kPa = 1e-3 N/mm^2)
and density in kg/m^3 (1 kg/m^3 = 1e-12 t/mm^3); both are converted during
assembly so that M, K and C can be combined without hidden factors.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from elastosim.volume import RoiMask, VolumeFormatError, VoxelVolume, _finite, voxel_centers

KPA_TO_N_PER_MM2 = 1e-3
KG_PER_M3_TO_T_PER_MM3 = 1e-12
RAYLEIGH_ALPHA = 0.1  # 1/s, the default mass-proportional damping
RAYLEIGH_BETA = 0.01  # s, the default stiffness-proportional damping

# Squared distance below which a voxel center and node are treated as
# coincident: the Shepard weight saturates at 1 and its gradient at 0.
_COINCIDENT_D2 = 1e-18

# A k-d tree row is settled when its last candidate node lies farther than
# its k-th by this relative and absolute (mm) margin.  Tree distances carry
# rounding errors near 1e-16 relative, so every node that the recomputed d^2
# could tie with the k-th is then a candidate.
_TREE_GAP_REL = 1e-9
_TREE_GAP_ABS_MM = 1e-12

# Lloyd relaxation stops at its fixed point, or after this many iterations.
_LLOYD_MAX_ITERS = 50
# Moved nodes per range search in a Lloyd step.  Early steps move every node
# and find ~80 voxels around each; searching them in blocks keeps the pair
# arrays of one search small, so the step's temporaries stay below those of
# the first full query.
_LLOYD_BALL_BLOCK = 32

_ARCHIVE_MAGIC = b"ESIMMDL1"
ARCHIVE_VERSION = 4


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
    nu: float
    density: float

    def __post_init__(self):
        if self.mask.dims != self.volume.dims:
            raise ValueError(
                f"mask dims {self.mask.dims} do not match volume dims {self.volume.dims}"
            )
        if not 0.0 <= self.nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {self.nu}")
        _finite(self.density, "density", above=0)
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
        return voxel_centers(self.volume.dims, self.volume.spacing_mm)[self.mask.flags]

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
    """

    indices: np.ndarray
    weights: np.ndarray
    gradients: np.ndarray
    corrected_gradients: np.ndarray

    @property
    def k(self) -> int:
        """Support size: the nodes per masked voxel."""
        return self.indices.shape[1]

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, _PairPattern]:
        """Each support row's order by ascending node index, and the node-pair
        pattern of the rows so sorted, computed once per shape map."""
        order = np.argsort(self.indices, axis=1)
        return order, _pair_pattern(np.take_along_axis(self.indices, order, axis=1))


@dataclass(frozen=True)
class SystemMatrices:
    """Lumped mass, stiffness, and the two Rayleigh damping coefficients.

    M is the diagonal as a flat (3n,) array in tonnes; K (N/mm) is sparse
    CSR, symmetric positive semi-definite.  The damping C = alpha*M + beta*K
    (N·s/mm) is held as alpha (1/s) and beta (s), with the internal-force
    convention f_int = -K q - C q_dot.
    """

    M: np.ndarray
    K: sp.csr_matrix
    alpha: float
    beta: float

    def __post_init__(self):
        _finite(self.alpha, "damping alpha", at_least=0)
        _finite(self.beta, "damping beta", at_least=0)

    @property
    def C(self) -> sp.csr_matrix:
        """Rayleigh damping beta*K + diag(alpha*M) as sparse CSR, symmetric PSD."""
        C = (self.beta * self.K + sp.diags(self.alpha * self.M)).tocsr()
        C.sum_duplicates()
        return C


@dataclass(frozen=True)
class MeshFreeModel:
    """Simulation-ready model: field, nodes, shape map and matrices, at rest when q = 0."""

    field: MaterialField
    dofs: DofSet
    shape: ShapeMap
    matrices: SystemMatrices

    @property
    def n_nodes(self) -> int:
        return self.dofs.n_nodes

    @property
    def n_dofs(self) -> int:
        return 3 * self.dofs.n_nodes

    @property
    def q0(self) -> np.ndarray:
        """Rest displacements: zero on every DOF."""
        return np.zeros(self.n_dofs)

    @property
    def total_mass_t(self) -> float:
        """Total lumped mass in tonnes (sum over one component per node)."""
        return float(self.matrices.M[0::3].sum())

    @property
    def total_mass_kg(self) -> float:
        return self.total_mass_t * 1000.0

    def with_constant_young(self, young_kpa: float) -> "MeshFreeModel":
        """Rebuild K with a constant stiffness, reusing nodes, shapes, M and damping.

        The DOF sampling and shape map depend only on the mask geometry, so
        an atlas-stiffness twin shares them and differs only in K.  It shares
        the ShapeMap object itself, so its K reuses the node-pair pattern of
        this model's assembly and costs only the numeric per-pair sums.
        """
        field = self.field.with_young(young_kpa)
        K = assemble_stiffness(self.shape, field, n_nodes=self.n_nodes)
        return replace(self, field=field, matrices=replace(self.matrices, K=K))


def sample_dofs(field: MaterialField, n_nodes: int, seed: int) -> DofSet:
    """Pick DOF nodes by Lloyd-relaxed Voronoi sampling of masked voxel centers.

    Seeds are drawn without replacement from the masked voxel centers, then
    iterated: assign each voxel to its nearest node, move each node to the
    centroid of its owned voxels.  A finite voxel set has finitely many
    assignments, so no distance tolerance is needed: the iteration stops at
    the fixed point, where the centroids return their input nodes bit for
    bit, or after _LLOYD_MAX_ITERS steps.  Either way it returns the last
    nodes assigned, with that assignment as `owner`.  A node that loses all
    voxels respawns at the voxel center farthest from its nearest node.

    Only the first step searches every voxel.  Each voxel then keeps its
    owner, its exact d^2 to the owner's current position, and a lower bound
    on its distance to every other node, first the distance to its second
    nearest.  A node that did not move cannot come closer.  So after each
    step one range search of radius R, the largest owner distance plus the
    _TREE_GAP_* margins, finds the voxels near the moved nodes.  Each such
    (voxel, moved node other than its owner) pair lowers the voxel's bound
    to the node's exact distance, and every bound is capped at R for the
    moved nodes farther away.  A voxel is searched again, by
    `_nearest_nodes`, unless its owner distance d stays clearly below its
    bound: d * (1 + _TREE_GAP_REL) + _TREE_GAP_ABS_MM < bound.  A moved node
    that ties or beats the owner fails that test, so every owner is still
    decided by (d^2, node index), as a full query of every voxel at every
    step would decide it, bit for bit.

    Raises:
        ValueError: n_nodes < 4, more nodes than masked voxels, or seed < 0.
    """
    centers = field.masked_centers()
    n_vox = len(centers)
    _check_node_count(n_nodes)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_nodes > n_vox:
        raise ValueError(f"n_nodes {n_nodes} exceeds masked voxel count {n_vox}")

    rng = np.random.default_rng(seed)
    nodes = centers[rng.choice(n_vox, size=n_nodes, replace=False)].copy()

    owner, nearest_d2, bound = _owners(centers, nodes)
    voxel_tree = cKDTree(centers)
    for _ in range(_LLOYD_MAX_ITERS - 1):
        new_nodes = _centroids(centers, owner, nearest_d2, n_nodes)
        moved = np.flatnonzero((new_nodes != nodes).any(axis=1))
        if not len(moved):
            break
        nodes = new_nodes
        nearest_d2 = _squared_distances(centers, nodes.take(owner, axis=0)[:, None])[:, 0]
        reach = np.sqrt(nearest_d2) * (1.0 + _TREE_GAP_REL) + _TREE_GAP_ABS_MM
        radius = reach.max()
        np.minimum(bound, radius, out=bound)
        _lower_bounds(voxel_tree, centers, nodes, moved, owner, radius, bound)
        rows = np.flatnonzero(~(reach < bound))
        owner[rows], nearest_d2[rows], bound[rows] = _owners(centers[rows], nodes)
    return DofSet(nodes=nodes, owner=owner)


def _lower_bounds(voxel_tree, centers, nodes, moved, owner, radius, bound) -> None:
    """Lower each voxel's bound in place to its distance to each moved node within radius.

    A voxel's own owner is skipped: the bound covers the other nodes.
    """
    for start in range(0, len(moved), _LLOYD_BALL_BLOCK):
        block = moved[start:start + _LLOYD_BALL_BLOCK]
        near = voxel_tree.query_ball_point(nodes[block], radius, return_sorted=False)
        counts = np.fromiter(map(len, near), np.intp, len(near))
        voxels = np.fromiter(chain.from_iterable(near), np.intp, counts.sum())
        del near
        others = np.repeat(block, counts)
        rival = others != owner[voxels]
        voxels, others = voxels[rival], others[rival]
        d2 = _squared_distances(centers.take(voxels, axis=0), nodes.take(others, axis=0)[:, None])
        np.minimum.at(bound, voxels, np.sqrt(d2[:, 0]))


def _owners(points: np.ndarray, nodes: np.ndarray):
    """Nearest node of each point, its d^2, and the distance to its second nearest."""
    idx, d2 = _nearest_nodes(points, nodes, 2)
    return idx[:, 0].copy(), d2[:, 0].copy(), np.sqrt(d2[:, 1])


def _check_node_count(n_nodes: int) -> None:
    if n_nodes < 4:
        raise ValueError(f"a 3D model needs at least 4 nodes, got {n_nodes}")


def _check_support_size(k: int, n_nodes: int) -> None:
    if not 2 <= k <= n_nodes:  # at k = 1 every Shepard gradient is 0, so K would be empty
        raise ValueError(f"support size k={k} must lie in [2, {n_nodes}], the node count")


def _centroids(points: np.ndarray, owner: np.ndarray, nearest_d2: np.ndarray, n_nodes: int):
    """Centroid of the points each node owns.

    A node owning no point respawns at the point farthest from its owner.
    """
    counts = np.bincount(owner, minlength=n_nodes)
    sums = np.stack(
        [np.bincount(owner, weights=points[:, c], minlength=n_nodes) for c in range(3)], axis=1
    )
    owned = counts > 0
    new_nodes = np.empty((n_nodes, 3))
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

    d^2 is recomputed by `_squared_distances`, so that it does not depend on
    the tree's arithmetic.  Returns (indices, d2, settled),
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
    d2 = _squared_distances(points, nodes[cand])
    order = np.lexsort((cand, d2), axis=1)[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(d2, order, axis=1), settled


def _squared_distances(points: np.ndarray, support: np.ndarray) -> np.ndarray:
    """d^2 of each point to its support nodes, (m, k), as dx*dx + dy*dy + dz*dz.

    The search and the Shepard evaluation share it, so both get the same bits.
    """
    sq = points[:, None, :] - support
    sq *= sq
    return sq[..., 0] + sq[..., 1] + sq[..., 2]


def shepard_weights(points: np.ndarray, nodes: np.ndarray, k: int):
    """Inverse-distance-squared Shepard weights of the k nearest nodes.

    For each query point x: w_i(x) = (1/d_i^2) / sum_j (1/d_j^2) over the k
    nearest nodes, with analytic gradients.  A point coincident with a node
    gets weight 1 there (gradient 0 everywhere, the Shepard flat spot).

    Args:
        points: query positions, shape (m, 3).
        nodes: node positions, shape (n, 3).
        k: support size, 2 <= k <= n.

    Returns:
        (indices, weights, gradients) with shapes (m, k), (m, k), (m, k, 3).
    """
    points = np.asarray(points, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.float64)
    _check_support_size(k, len(nodes))
    idx, _ = _nearest_nodes(points, nodes, k)
    return (idx, *_shepard(points, nodes, idx))


def _shepard(points: np.ndarray, nodes: np.ndarray, idx: np.ndarray):
    """Shepard (weights, gradients), (m, k) and (m, k, 3), over the supports `idx`.

    Each support is ordered nearest first, so a coincident node is its first.
    """
    support = nodes[idx]
    diff = points[:, None, :] - support  # (m, k, 3)
    d2k = _squared_distances(points, support)
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
    return w, gw


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
    moment = centered.transpose(0, 2, 1) @ centered
    residual = np.eye(3) - gradients.transpose(0, 2, 1) @ node_positions
    scale = np.einsum("maa->m", moment) / 3.0  # mean eigenvalue; 0 if the support is one point
    with np.errstate(invalid="ignore"):  # 0/0 gives a NaN determinant, which fails the test
        ok = np.linalg.det(moment / scale[:, None, None]) > 1e-9  # unit-free: no overflow
    corrected = gradients.copy()
    if ok.any():
        shift = np.linalg.solve(moment[ok], residual[ok].transpose(0, 2, 1))
        corrected[ok] += centered[ok] @ shift
    return corrected


def shape_weights(dofs: DofSet, field: MaterialField, k: int) -> ShapeMap:
    """Build the per-voxel ShapeMap over the field's masked voxel centers.

    Raises:
        ValueError: k out of [2, n_nodes].
    """
    centers = field.masked_centers()
    indices, weights, gradients = shepard_weights(centers, dofs.nodes, k)
    corrected = correct_gradients(gradients, dofs.nodes[indices])
    return ShapeMap(
        indices=indices,
        weights=weights,
        gradients=gradients,
        corrected_gradients=corrected,
    )


def assemble_stiffness(shape: ShapeMap, field: MaterialField, n_nodes: int) -> sp.csr_matrix:
    """Assemble sparse K (N/mm) with one integration point per masked voxel.

    Each voxel contributes B^T D(E_voxel, nu) B * V_voxel at its center,
    with B built from the first-order-consistent gradients g: the voxel is
    an element whose k support nodes are its shape map row, sorted by node
    index, and `_isotropic_stiffness` sums P_ab = sum_v E_v V_voxel g_a g_b^T
    per unordered node pair.  The sort and the pattern of those pairs are
    computed once per ShapeMap: every K assembled on one shape map, such as
    an atlas twin's, shares them.
    """
    order, pattern = shape._pairs  # first: its temporaries are the call's largest
    g = np.take_along_axis(shape.corrected_gradients, order[:, :, None], axis=1)
    w = field.masked_young() * field.voxel_volume_mm3
    a, b = np.triu_indices(shape.k)

    def sums(i, j):
        s = g[:, a, i]
        s *= g[:, b, j]  # the product before the weight, as `_isotropic_stiffness` requires
        s *= w[:, None]
        return s

    return _isotropic_stiffness(pattern, sums, field.nu, n_nodes)


def _lame(nu: float) -> tuple[float, float]:
    """Lame constants (lam, mu) in N/mm^2 of an isotropic material at E = 1 kPa."""
    c = KPA_TO_N_PER_MM2 / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return c * nu, c * (1.0 - 2.0 * nu) / 2.0


class _PairPattern(NamedTuple):
    """Symbolic structure of a sum of element blocks per unordered node pair.

    The element-to-node table, shape (e, m), lists each element's nodes in
    ascending order, so its upper entries (a, b), a <= b, in the order of
    `np.triu_indices(m)`, name each node pair of the element once.  inverse
    maps every (element, upper entry) of the table to its pair, in that
    order; the pairs are numbered by (row node, column node), row <= column.
    indptr and indices give the block CSR structure of both triangles, with
    no rows past the largest node: pair u's block sits at position upper[u],
    and its mirror, the transposed block, at mirror[u] (upper[u] itself for
    a pair of one node).
    """

    inverse: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    upper: np.ndarray
    mirror: np.ndarray


def _pair_pattern(nodes: np.ndarray) -> _PairPattern:
    """The node-pair pattern of an element-to-node table, shape (e, m).

    Each row must hold distinct nodes in ascending order: the upper entries
    of such a row name each of its unordered node pairs once.  A caller
    sorts its rows, and permutes its sums to match, before the call.

    Raises:
        ValueError: a row does not hold distinct nodes in ascending order.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if not (nodes[:, 1:] > nodes[:, :-1]).all():
        raise ValueError("every element's nodes must be distinct and in ascending order")
    span = int(nodes.max()) + 1
    a, b = np.triu_indices(nodes.shape[1])
    keys = (nodes[:, a] * span + nodes[:, b]).ravel()
    # np.unique's inverse would hold about twice the key-sized temporaries.
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)  # first entry of each distinct pair
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    rows, cols = np.divmod(keys[first], span)
    del keys
    rank = np.cumsum(first)
    rank -= 1
    inverse = np.empty_like(order)
    inverse[order] = rank
    del order, rank, first
    # Block row r holds the mirrors (r, a) of the upper pairs (a, r), a < r,
    # then its upper pairs (r, c), c >= r.  Transposing the strict upper pairs
    # is a counting sort: it lists the mirrors by row, then by column.
    starts = np.arange(span + 1)
    row_ptr = np.searchsorted(rows, starts)
    strict = np.flatnonzero(rows != cols)
    lower = sp.csr_array((strict, cols[strict], np.searchsorted(rows[strict], starts)),
                         shape=(span, span)).tocsc()
    indptr = row_ptr + lower.indptr
    upper = np.arange(len(rows)) + lower.indptr[rows + 1]
    mirror = upper.copy()
    mirror[lower.data] = np.arange(len(strict)) + np.repeat(row_ptr[:-1], np.diff(lower.indptr))
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[upper] = cols
    indices[mirror] = rows
    return _PairPattern(inverse=inverse, indptr=indptr, indices=indices, upper=upper, mirror=mirror)


def _isotropic_stiffness(pattern: _PairPattern, sums, nu: float, n_nodes: int) -> sp.csr_matrix:
    """Sum of B^T D B over weighted points, (3 n_nodes)^2 CSR, for an isotropic D.

    sums(i, j) gives, for every (element, upper entry) of the pattern's
    table, sum_p w_p dN_a/dx_i dN_b/dx_j over the element's points p, shape
    (e, m(m+1)/2), with w_p the point's Young's modulus times its volume
    weight (kPa mm^3).  B^T D B then has a closed form per node pair (a, b),
    so neither B nor an element's (3m x 3m) block is ever formed:

        P_ab = sum_p w_p grad N_a grad N_b^T,   K_ab = lam P_ab + mu P_ab^T + mu tr(P_ab) I

    with lam, mu the Lame constants at unit E.  P is summed per unordered
    pair one component at a time, so temporaries stay at e*m(m+1)/2, and
    each lower block is written as its mirror's transpose, K_ba = K_ab^T:
    K equals K^T bit for bit by construction.

    A block (a, a) is its own mirror, so its entries (i, j) and (j, i) are
    each written from both.  That is exact when sums(i, j) and sums(j, i)
    agree on the entries (a, a) bit for bit: each product g_a,i g_a,j is
    formed before its weight, or the sums are made to equal their mirror,
    as `beam._hex_unit_sums` is.  K then equals, bit for bit, the sum over
    both ordered pairs (a, b) and (b, a) of sums that are mirror-exact.
    """
    lam, mu = _lame(nu)
    n_upper = len(pattern.upper)
    p = np.empty((3, 3, n_upper))
    for i, j in np.ndindex(3, 3):
        # Passed inline, so that each component is freed before the next is formed.
        p[i, j] = np.bincount(pattern.inverse, weights=sums(i, j).ravel(), minlength=n_upper)
    trace = p[0, 0] + p[1, 1] + p[2, 2]
    blocks = np.empty((len(pattern.indices), 3, 3))
    for i, j in np.ndindex(3, 3):
        k_ij = lam * p[i, j] + mu * p[j, i]
        if i == j:
            k_ij += mu * trace
        blocks[pattern.upper, i, j] = k_ij
        blocks[pattern.mirror, j, i] = k_ij
    # Held through the CSR conversion, P left the heap 10-20 MB larger when the
    # slender beam's FEA factor is allocated, in every validate-beam of a
    # process after its first.
    del p, trace, k_ij
    indptr = np.pad(pattern.indptr, (0, n_nodes + 1 - len(pattern.indptr)), mode="edge")
    K = sp.bsr_matrix((blocks, pattern.indices, indptr), shape=(3 * n_nodes, 3 * n_nodes)).tocsr()
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


def build_model(field: MaterialField, n_nodes: int, *, k: int, seed: int,
                alpha: float = RAYLEIGH_ALPHA, beta: float = RAYLEIGH_BETA) -> MeshFreeModel:
    """Build a complete mesh-free model from a material field.

    Raises:
        ValueError: a model-size rule (`sample_dofs`, `shepard_weights`) or a precondition fails.
    """
    dofs = sample_dofs(field, n_nodes=n_nodes, seed=seed)
    shape = shape_weights(dofs, field, k=k)
    K = assemble_stiffness(shape, field, n_nodes=dofs.n_nodes)
    M = assemble_mass(shape, field, n_nodes=dofs.n_nodes)
    return MeshFreeModel(field=field, dofs=dofs, shape=shape,
                         matrices=SystemMatrices(M=M, K=K, alpha=alpha, beta=beta))


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
    array bytes back to back.  Each fact is stored once: the damping as
    alpha and beta, the support size as the width of `shape_indices`, and
    the Lloyd owners as its first column, the nearest node of each voxel.
    The Shepard weights, their raw gradients and M are not stored, because
    `load_model` recomputes them; K and the corrected gradients would cost more.
    """
    path = Path(path)
    K = model.matrices.K.tocsr()
    arrays = {
        "volume_data": model.field.volume.data,
        "mask_flags": model.field.mask.flags,
        "nodes": model.dofs.nodes,
        "shape_indices": model.shape.indices,
        "shape_corrected": model.shape.corrected_gradients,
        "K_data": K.data,
        "K_indices": K.indices.astype(np.int64),
        "K_indptr": K.indptr.astype(np.int64),
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
        "alpha": model.matrices.alpha,
        "beta": model.matrices.beta,
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
            name, offset, nbytes = item["name"], operator.index(item["offset"]), operator.index(item["nbytes"])
            dtype, shape = np.dtype(item["dtype"]), tuple(operator.index(n) for n in item["shape"])
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
    """Load a model archive written by save_model.

    The Shepard weights, raw gradients and M are recomputed by the code
    `build_model` runs, so the loaded model equals the built one bit for bit.

    Raises:
        FileNotFoundError: archive missing.
        VolumeFormatError: bad magic, a truncated or malformed header, a
            missing array, an array whose bytes or shape disagree with the
            manifest, the mask, the support size or the model's DOF count,
            a node count or support size that a build would reject, a
            shape_indices entry outside [0, node count), a K unequal to its
            transpose, or a density, alpha or beta of the wrong type or range.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model archive not found: {path}")
    header, arrays = _read_archive(path)
    try:
        for name in ("shape_indices", "K_indices", "K_indptr"):
            if arrays[name].dtype.kind not in "iu":
                raise VolumeFormatError(f"array {name!r} must hold integers, not {arrays[name].dtype}")
        volume = VoxelVolume(dims=tuple(header["dims"]), spacing_mm=tuple(header["spacing_mm"]),
                             kind=header["kind"], data=arrays["volume_data"])
        mask = RoiMask(dims=volume.dims, flags=arrays["mask_flags"])
        field = MaterialField(volume=volume, mask=mask, nu=header["nu"], density=header["density"])
        indices, m = arrays["shape_indices"].astype(np.int64), mask.n_selected
        if indices.ndim != 2 or len(indices) != m:
            raise VolumeFormatError(f"array 'shape_indices' has shape {indices.shape}; "
                                    f"{m} masked voxels need ({m}, k)")
        # The owners are the first column, copied; empty if k = 0, which is rejected next.
        dofs = DofSet(nodes=arrays["nodes"], owner=indices[:, :1].flatten())
        k, n, n_dofs = indices.shape[1], dofs.n_nodes, 3 * dofs.n_nodes
        _check_node_count(n)
        _check_support_size(k, n)
        if not 0 <= indices.min() <= indices.max() < n:
            raise VolumeFormatError(f"array 'shape_indices' holds a node index outside [0, {n})")
        if arrays["shape_corrected"].shape != (m, k, 3):
            raise VolumeFormatError(
                f"array 'shape_corrected' has shape {arrays['shape_corrected'].shape}; "
                f"{m} masked voxels and support size {k} need {(m, k, 3)}"
            )
        weights, gradients = _shepard(field.masked_centers(), dofs.nodes, indices)
        shape = ShapeMap(indices=indices, weights=weights, gradients=gradients,
                         corrected_gradients=arrays["shape_corrected"])
        if arrays["K_indptr"].shape != (n_dofs + 1,):
            raise VolumeFormatError(f"array 'K_indptr' has shape {arrays['K_indptr'].shape}; "
                                    f"{n} nodes need ({n_dofs + 1},)")
        K = sp.csr_matrix((arrays["K_data"], arrays["K_indices"], arrays["K_indptr"]),
                          shape=(n_dofs, n_dofs))
        K.check_format(full_check=True)  # column indices come from outside
        if (K != K.T).nnz:  # every K the build assembles equals its transpose bit for bit
            raise VolumeFormatError("K differs from its transpose")
        matrices = SystemMatrices(M=assemble_mass(shape, field, n_nodes=n), K=K,
                                  alpha=header["alpha"], beta=header["beta"])
        return MeshFreeModel(field=field, dofs=dofs, shape=shape, matrices=matrices)
    except KeyError as exc:
        raise VolumeFormatError(f"{path}: archive has no {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise VolumeFormatError(f"{path}: {exc}") from exc
