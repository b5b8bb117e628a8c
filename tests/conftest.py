"""Shared builders for small test fields, degenerate point models and model archives,
the dense stiffness references that the closed-form kernel replaced, the
full-pair kernel that its upper-pair form replaced, the upper-band factor,
product Dirichlet reduction and einsum gradient correction that faster paths
replaced, and the whole-payload archive writer and reader that the
array-by-array ones replaced."""

import json
import math
import operator
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from elastosim.meshfree import (
    _ARCHIVE_MAGIC,
    ARCHIVE_VERSION,
    KPA_TO_N_PER_MM2,
    DofSet,
    MaterialField,
    MeshFreeModel,
    ShapeMap,
    SystemMatrices,
    _lame,
    assemble_mass,
)
from elastosim.volume import RoiMask, VolumeFormatError, VoxelVolume


def split_archive(raw):
    """JSON header and payload of a model archive's bytes."""
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def join_archive(header, payload):
    """Model archive bytes from a JSON header and a payload."""
    blob = json.dumps(header).encode()
    return b"ESIMMDL1" + struct.pack("<Q", len(blob)) + blob + payload


def reference_save_model(model, path):
    """Reference: `save_model` as it packed the payload (`tobytes` per array, then one join)."""
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
    manifest, blobs, offset = [], [], 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        blob = arr.tobytes()
        manifest.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                         "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
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
    path.write_bytes(_ARCHIVE_MAGIC + struct.pack("<Q", len(blob)) + blob + b"".join(blobs))
    return path


def reference_read_archive(path):
    """Reference: `_read_archive` as it read the whole file and viewed each array in it."""
    raw = Path(path).read_bytes()
    if raw[:8] != _ARCHIVE_MAGIC:
        raise VolumeFormatError(f"{path} is not a model archive (bad magic)")
    if len(raw) < 16:
        raise VolumeFormatError(f"{path}: archive ends inside its header")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    payload = raw[16 + hlen:]
    try:
        header = json.loads(raw[16:16 + hlen].decode())
        arrays = {}
        for item in header["arrays"]:
            name, offset, nbytes = item["name"], operator.index(item["offset"]), operator.index(item["nbytes"])
            dtype, shape = np.dtype(item["dtype"]), tuple(operator.index(n) for n in item["shape"])
            if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
                raise VolumeFormatError(f"array {name!r} lies outside the payload")
            if min(shape, default=0) < 0 or math.prod(shape) * dtype.itemsize != nbytes:
                raise VolumeFormatError(f"array {name!r} of shape {shape} does not fill {nbytes} bytes")
            arrays[name] = np.frombuffer(payload[offset:offset + nbytes], dtype=dtype).reshape(shape)
            if dtype.kind == "f" and not np.isfinite(arrays[name]).all():
                raise VolumeFormatError(f"array {name!r} holds a NaN or inf")
    except (KeyError, TypeError, ValueError) as exc:
        raise VolumeFormatError(f"{path}: malformed archive header: {exc}") from exc
    if header.get("version") != ARCHIVE_VERSION:
        raise VolumeFormatError(f"{path}: unsupported archive version {header.get('version')!r}")
    return header, arrays


def make_field(dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0), young=2.1, nu=0.45,
               density=1000.0, mask_flags=None):
    n = dims[0] * dims[1] * dims[2]
    vol = VoxelVolume(dims=dims, spacing_mm=spacing, kind="elastogram_shear_kPa",
                      data=np.full(n, young))
    flags = np.ones(n, dtype=bool) if mask_flags is None else mask_flags
    return MaterialField(volume=vol, mask=RoiMask(dims=dims, flags=flags), nu=nu,
                         density=density)


def make_point_model(spacing=10.0, density=1000.0, alpha=0.0, beta=0.0):
    """One-node model on a single voxel, built by hand (a build needs 4 nodes).

    The node sits on the voxel center, so the voxel's one Shepard weight is 1,
    its gradients are 0 and K is exactly zero: a free point mass.
    """
    field = make_field(dims=(1, 1, 1), spacing=(spacing,) * 3, density=density)
    dofs = DofSet(nodes=field.masked_centers(), owner=np.zeros(1, dtype=np.int64))
    shape = ShapeMap(indices=np.zeros((1, 1), dtype=np.int64), weights=np.ones((1, 1)),
                     gradients=np.zeros((1, 1, 3)), corrected_gradients=np.zeros((1, 1, 3)))
    M = assemble_mass(shape, field, n_nodes=1)
    return MeshFreeModel(
        field=field, dofs=dofs, shape=shape,
        matrices=SystemMatrices(M=M, K=sp.csr_matrix((3, 3)), alpha=alpha, beta=beta),
    )


def elasticity_matrix(young_kpa, nu):
    """Reference: isotropic linear elasticity matrix D (6x6, Voigt engineering shear), N/mm^2."""
    e = young_kpa * KPA_TO_N_PER_MM2
    c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
    d = np.zeros((6, 6))
    d[:3, :3] = c * nu
    d[0, 0] = d[1, 1] = d[2, 2] = c * (1.0 - nu)
    d[3, 3] = d[4, 4] = d[5, 5] = c * (1.0 - 2.0 * nu) / 2.0
    return d


def strain_displacement(gradients):
    """Reference: B matrices from weight gradients, (v, k, 3) -> (v, 6, 3k)."""
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


# Corners of the FEA's trilinear cube in its local node order (ring order per
# z face), in units of half an edge about the center.
HEX_CORNERS = np.array([[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
                        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]], dtype=float)


def hex_element_stiffness(res, young_kpa, nu):
    """Reference: dense 24x24 trilinear hexahedron block of a cube of edge res.

    The sum of B^T D B det J over the 2x2x2 Gauss points, corner by corner.
    """
    jac = res / 2.0
    d = elasticity_matrix(young_kpa, nu)
    ke = np.zeros((24, 24))
    for point in HEX_CORNERS / np.sqrt(3.0):
        grads = np.empty((8, 3))
        for a, corner in enumerate(HEX_CORNERS):
            factors = 1.0 + corner * point  # N_a = prod_c factors[c] / 8
            for c in range(3):
                grads[a, c] = corner[c] * np.prod(np.delete(factors, c)) / 8.0 / jac
        b = strain_displacement(grads[None])[0]
        ke += b.T @ d @ b * jac**3
    return ke


class FullPairPattern(NamedTuple):
    """Reference: the node-pair pattern over every ordered pair of a table's row.

    pairs holds each distinct (row node, column node) pair once, as the
    sorted key row * span + column.  inverse maps every (element, a, b)
    entry of the element-to-node table, shape (e, m), to its pair, in that
    order.  Rows may repeat nodes and hold them in any order.
    """

    pairs: np.ndarray
    span: int
    inverse: np.ndarray


def full_pair_pattern(nodes):
    """Reference: the `FullPairPattern` of an element-to-node table, shape (e, m)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    span = int(nodes.max()) + 1
    keys = (nodes[:, :, None] * span + nodes[:, None, :]).ravel()
    pairs, inverse = np.unique(keys, return_inverse=True)
    return FullPairPattern(pairs=pairs, span=span, inverse=inverse.ravel())


def pair_blocks_csr(pattern, blocks, n_nodes):
    """Reference: (3 n_nodes)^2 CSR of one 3x3 block per pair of a `FullPairPattern`."""
    pairs, span = pattern.pairs, pattern.span
    indptr = np.searchsorted(pairs, np.arange(n_nodes + 1) * span)
    return sp.bsr_matrix((blocks, pairs % span, indptr), shape=(3 * n_nodes, 3 * n_nodes)).tocsr()


def full_pair_stiffness(pattern, sums, nu, n_nodes):
    """Reference: the stiffness kernel as it summed both ordered pairs (a, b) and (b, a).

    sums(i, j) gives, for every (element, a, b) entry of the pattern's table,
    sum_p w_p dN_a/dx_i dN_b/dx_j, shape (e, m, m); each pair's block is
    K_ab = lam P_ab + mu P_ab^T + mu tr(P_ab) I, with nothing mirrored.
    `_isotropic_stiffness` must equal it bit for bit on mirror-exact sums.
    """
    lam, mu = _lame(nu)
    n_pairs = len(pattern.pairs)
    p = np.empty((3, 3, n_pairs))
    for i, j in np.ndindex(3, 3):
        p[i, j] = np.bincount(pattern.inverse, weights=sums(i, j).ravel(), minlength=n_pairs)
    trace = p[0, 0] + p[1, 1] + p[2, 2]
    blocks = np.empty((n_pairs, 3, 3))
    for i, j in np.ndindex(3, 3):
        blocks[:, i, j] = lam * p[i, j] + mu * p[j, i]
    for i in range(3):
        blocks[:, i, i] += mu * trace
    K = pair_blocks_csr(pattern, blocks, n_nodes)
    K.eliminate_zeros()
    return K


def block_assembly(nodes, blocks, n_nodes):
    """Reference: dense element blocks summed per node pair, then symmetrized.

    blocks has shape (e, 3m, 3m), rows and columns node-major: local DOF
    3a + c is component c of local node nodes[:, a].  This is the dense-block
    route that the closed-form kernel replaced, on the full pair pattern.
    """
    e, m = np.shape(nodes)
    parts = np.asarray(blocks).reshape(e, m, 3, m, 3)
    pattern = full_pair_pattern(nodes)
    n_pairs = len(pattern.pairs)
    data = np.empty((n_pairs, 3, 3))
    for a, b in np.ndindex(3, 3):
        data[:, a, b] = np.bincount(pattern.inverse, weights=parts[:, :, a, :, b].ravel(),
                                    minlength=n_pairs)
    K = pair_blocks_csr(pattern, data, n_nodes)
    K = (K + K.T) * 0.5
    K.eliminate_zeros()
    return K


def upper_band_solve(A, b):
    """Reference: x with A x = b, by LAPACK's band Cholesky on the upper band.

    The factor `BandedCholesky` used before it switched to the lower band:
    the same ordering rule (reverse Cuthill-McKee unless the matrix's own
    numbering gives a band no wider), the upper triangle scattered to
    `band[w + r - c, c]`.
    """
    A = sp.csr_array(A)
    A.sum_duplicates()
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    cols = A.indices
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(n, dtype=perm.dtype)
    r, c = rank[rows], rank[cols]
    if (c - r).max(initial=0) >= (cols - rows).max(initial=0):
        perm, r, c = np.arange(n), rows, cols
    upper = r <= c
    r, c, data = r[upper], c[upper], A.data[upper]
    w = int((c - r).max(initial=0))
    band = np.zeros((w + 1, n), order="F")
    band[w + r - c, c] = data
    band = cholesky_banded(band, check_finite=False)
    x = np.empty(n)
    x[perm] = cho_solve_banded((band, False), b[perm], check_finite=False)
    return x


def product_dirichlet(A, b, fixed):
    """Reference: the Dirichlet reduction as P A P + diag(1 - keep), P = diag(keep)."""
    keep = np.ones(len(b))
    keep[fixed] = 0.0
    P = sp.diags(keep)
    A = (P @ A @ P + sp.diags(1.0 - keep)).tocsr()
    A.sum_duplicates()
    return A, b * keep


def assert_same_csr(got, want):
    """The two CSR matrices hold the same indptr, indices and data, dtypes included."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def einsum_corrected_gradients(gradients, node_positions):
    """Reference: `correct_gradients` with its products written as einsums.

    Returns the corrected gradients and the mask of points whose support
    spans three directions (the others keep their raw gradients).
    """
    centered = node_positions - node_positions.mean(axis=1, keepdims=True)
    moment = np.einsum("mka,mkb->mab", centered, centered)
    residual = np.eye(3) - np.einsum("mka,mkb->mab", gradients, node_positions)
    scale = np.einsum("maa->m", moment) / 3.0
    with np.errstate(invalid="ignore"):
        ok = np.linalg.det(moment / scale[:, None, None]) > 1e-9
    corrected = gradients.copy()
    if ok.any():
        shift = np.linalg.solve(moment[ok], residual[ok].transpose(0, 2, 1))
        corrected[ok] += np.einsum("mka,mab->mkb", centered[ok], shift)
    return corrected, ok
