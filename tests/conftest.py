"""Shared builders for small test fields, degenerate point models and model archives,
and the dense stiffness references that the closed-form kernel replaced."""

import json
import struct

import numpy as np
import scipy.sparse as sp

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
