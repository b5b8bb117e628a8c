"""Shared builders for small test fields, degenerate point models and model archives."""

import json
import struct

import numpy as np

from elastosim.meshfree import (
    MaterialField,
    MeshFreeModel,
    SystemMatrices,
    assemble_mass,
    assemble_stiffness,
    sample_dofs,
    shape_weights,
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
    """One-node model on a single voxel: K is exactly zero (coincident node)."""
    field = make_field(dims=(1, 1, 1), spacing=(spacing,) * 3, density=density)
    dofs = sample_dofs(field, n_nodes=1, seed=0)
    shape = shape_weights(dofs, field, k=1)
    K = assemble_stiffness(shape, field, n_nodes=1)
    M = assemble_mass(shape, field, n_nodes=1)
    return MeshFreeModel(
        field=field, dofs=dofs, shape=shape,
        matrices=SystemMatrices(M=M, K=K, alpha=alpha, beta=beta),
    )
