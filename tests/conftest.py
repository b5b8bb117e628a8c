"""Shared builders for small test fields, degenerate point models and model archives,
the dense stiffness references that the closed-form kernel replaced, and the
upper-band factor, product Dirichlet reduction and einsum gradient correction
that faster paths replaced."""

import json
import struct

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from elastosim.meshfree import (
    KPA_TO_N_PER_MM2,
    DofSet,
    MaterialField,
    MeshFreeModel,
    ShapeMap,
    SystemMatrices,
    _pair_pattern,
    _symmetric_csr,
    assemble_mass,
)
from elastosim.volume import RoiMask, VoxelVolume


def split_archive(raw):
    """JSON header and payload of a model archive's bytes."""
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def join_archive(header, payload):
    """Model archive bytes from a JSON header and a payload."""
    blob = json.dumps(header).encode()
    return b"ESIMMDL1" + struct.pack("<Q", len(blob)) + blob + payload


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


def block_assembly(nodes, blocks, n_nodes):
    """Reference: dense element blocks summed per node pair, then symmetrized.

    blocks has shape (e, 3m, 3m), rows and columns node-major: local DOF
    3a + c is component c of local node nodes[:, a].  This is the dense-block
    route that the closed-form kernel replaced, on the same pair pattern.
    """
    e, m = np.shape(nodes)
    parts = np.asarray(blocks).reshape(e, m, 3, m, 3)
    pattern = _pair_pattern(nodes)
    n_pairs = len(pattern.pairs)
    data = np.empty((n_pairs, 3, 3))
    for a, b in np.ndindex(3, 3):
        data[:, a, b] = np.bincount(pattern.inverse, weights=parts[:, :, a, :, b].ravel(),
                                    minlength=n_pairs)
    return _symmetric_csr(pattern, data, n_nodes)


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
