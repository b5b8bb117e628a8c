"""Cantilever validation: analytic deflection, hex FEA baseline, mesh-free run.

A homogeneous rectangular cantilever (clamped at x = 0, uniform transverse
load) has the closed-form centerline deflection

    w(x) = q * x^2 * (6 L^2 - 4 L x + x^2) / (24 E I),    I = w h^3 / 12.

The same beam is solved two ways for comparison: a regular trilinear
hexahedral FEA at the voxel resolution (the accuracy baseline), and the
mesh-free pipeline under test.  All three centerline curves share a common
x sampling (element centers plus the x = 0 clamp datum and the x = L tip),
so pointwise convergence errors are directly comparable.

The comparison runs at a fixed Poisson ratio of 0: the analytic formula has
no Poisson term, and nu = 0 removes Poisson-contraction artifacts from both
discretizations.

Both stiffness matrices come from one kernel, `meshfree._isotropic_stiffness`,
so the FEA checks the mesh-free method with the same constitutive code.  Every
FEA element is the same cube, so its 2x2x2 Gauss sum is formed once
(`_hex_unit_sums`) and only scaled by E.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from elastosim.meshfree import (
    KPA_TO_N_PER_MM2,
    MaterialField,
    MeshFreeModel,
    _isotropic_stiffness,
    _pair_pattern,
    build_model,
)
from elastosim.solver import (
    CG_MAX,
    BandedCholesky,
    LinearSystem,
    _factored_cg,
    displace_landmarks,
    reduce_dirichlet,
)
from elastosim.volume import RoiMask, VoxelVolume, _finite, _write_csv

_NU = 0.0  # Poisson ratio of both discretizations; bending theory has no Poisson term
_STATIC_CG_TOL = 1e-8  # true relative residual of both beam models' static solves
MAX_FEA_FACTOR_BYTES = 2**30  # a finer grid is an input error, not a longer run


@dataclass(frozen=True)
class BeamSpec:
    """Cantilever geometry, material, and distributed load.

    Attributes:
        L: length along x in mm.
        w: width along y in mm.
        h_beam: height along z in mm (the bending direction).
        E: Young's modulus in kPa.
        q_load: transverse distributed load in N per mm of length, applied
            toward -z.
        resolution: element / voxel edge length in mm.
    """

    L: float = 50.0
    w: float = 10.0
    h_beam: float = 10.0
    E: float = 12.0
    q_load: float = 1e-4
    resolution: float = 1.64

    def __post_init__(self):
        for name in ("L", "w", "h_beam", "E", "resolution"):
            _finite(getattr(self, name), f"beam {name}", above=0)
        _finite(self.q_load, "beam q_load", at_least=0)
        if self.L <= self.h_beam:
            raise ValueError(
                f"beam must be slender (L > h), got L={self.L} h={self.h_beam}"
            )

    def cells(self) -> tuple[int, int, int]:
        """Cell counts per axis after snapping dimensions to whole cells.

        The snap tolerance is 2% so the default 1.64 mm voxel fits the
        50 x 10 x 10 mm benchmark (50 / 1.64 = 30.49, a 1.6% snap).

        Raises:
            ValueError: resolution misses a dimension by more than 2%,
                fewer than 2 cells along any axis, or a grid whose FEA band
                factor would exceed MAX_FEA_FACTOR_BYTES (checked first per
                axis, so that no cell count overflows).
        """
        counts = []
        for name, extent in (("L", self.L), ("w", self.w), ("h_beam", self.h_beam)):
            ratio = extent / self.resolution  # inf past the largest float
            if ratio > MAX_FEA_FACTOR_BYTES:  # each cell adds more than a byte to the factor
                raise ValueError(f"resolution {self.resolution} spans {name}={extent} with "
                                 f"{ratio:.3g} cells, more than the FEA band factor's "
                                 f"{MAX_FEA_FACTOR_BYTES} bytes allow")
            n = max(1, round(ratio))
            if abs(n * self.resolution - extent) > 0.02 * extent:
                raise ValueError(
                    f"resolution {self.resolution} does not divide {name}={extent} within 2%"
                )
            if n < 2:
                raise ValueError(
                    f"degenerate discretization: {name}={extent} spans {n} cell(s) "
                    f"at resolution {self.resolution}"
                )
            counts.append(n)
        cx, cy, cz = counts
        band = 3 * ((cy + 1) * (cz + 1) + (cz + 1) + 1) + 2  # of `_hex_grid`'s numbering
        factor_bytes = 8 * (band + 1) * 3 * (cx + 1) * (cy + 1) * (cz + 1)  # float64
        if factor_bytes > MAX_FEA_FACTOR_BYTES:
            raise ValueError(f"resolution {self.resolution} needs a {factor_bytes:.3g}-byte FEA "
                             f"band factor, more than the {MAX_FEA_FACTOR_BYTES} allowed")
        return tuple(counts)

    def snapped_extents(self) -> tuple[float, float, float]:
        """Axis extents actually discretized: cell count times resolution."""
        cx, cy, cz = self.cells()
        return cx * self.resolution, cy * self.resolution, cz * self.resolution


# The cantilevers `validate-beam` runs (L/h = 5 and the gated L/h = 20), with their node counts.
VALIDATION_BEAMS = {"benchmark": (BeamSpec(), 500),
                    "slender": (BeamSpec(h_beam=2.5, q_load=6e-8, resolution=0.625), 2441)}
VALIDATION_K = 6  # mesh-free support size of both beams
VALIDATION_SEED = 0  # Lloyd seed of both beams


@dataclass(frozen=True)
class DeflectionCurve:
    """Centerline deflection samples (x strictly increasing, w in load direction)."""

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        if x.shape != w.shape or x.ndim != 1:
            raise ValueError("x and w must be equal-length vectors")
        if len(x) >= 2 and np.any(np.diff(x) <= 0):
            raise ValueError("x samples must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    @property
    def tip_deflection(self) -> float:
        return float(self.w[-1])


def second_moment_rect(w: float, h_beam: float) -> float:
    """Second moment of a rectangular section about its bending axis: w*h^3/12.

    Raises:
        ValueError: a dimension that is not finite and > 0.
    """
    _finite(w, "w", above=0)
    _finite(h_beam, "h_beam", above=0)
    return w * h_beam**3 / 12.0


def euler_bernoulli_deflection(x, spec: BeamSpec):
    """Cantilever deflection under uniform load at position(s) x along the axis.

    Raises:
        ValueError: x outside [0, L] (snapped length).
    """
    x = np.asarray(x, dtype=np.float64)
    L = spec.snapped_extents()[0]
    if np.any(x < 0) or np.any(x > L + 1e-9):
        raise ValueError(f"x must lie in [0, {L}]")
    e = spec.E * KPA_TO_N_PER_MM2
    w_eff, h_eff = spec.snapped_extents()[1:]
    inertia = second_moment_rect(w_eff, h_eff)
    return spec.q_load * x**2 * (6 * L**2 - 4 * L * x + x**2) / (24.0 * e * inertia)


def theory_curve(spec: BeamSpec, x: np.ndarray) -> DeflectionCurve:
    """Analytic deflection curve on the given x samples."""
    return DeflectionCurve(x=x, w=euler_bernoulli_deflection(x, spec))


def axis_samples(spec: BeamSpec) -> np.ndarray:
    """Shared x sampling: the clamp datum 0, element centers, and the tip x = L."""
    cx = spec.cells()[0]
    res = spec.resolution
    L = cx * res
    centers = (np.arange(cx) + 0.5) * res
    return np.concatenate([[0.0], centers, [L]])


@dataclass(frozen=True)
class BeamPhantom:
    """Mesh-free beam model plus its clamped-face node set and spec."""

    model: MeshFreeModel
    fixed_nodes: frozenset
    spec: BeamSpec


def build_beam_phantom(spec: BeamSpec, n_nodes: int, k: int, seed: int) -> BeamPhantom:
    """Voxelize the beam, build the mesh-free model, and find the clamped face.

    Nodes whose Voronoi cells own any x = 0 voxel are clamped;
    `_meshfree_system` holds them at zero and spreads the distributed load
    over the remaining nodes.
    """
    cx, cy, cz = spec.cells()
    dims = (cx, cy, cz)
    n_vox = cx * cy * cz
    vol = VoxelVolume(
        dims=dims,
        spacing_mm=(spec.resolution,) * 3,
        kind="elastogram_shear_kPa",
        data=np.full(n_vox, spec.E, dtype=np.float32),
    )
    mask = RoiMask(dims=dims, flags=np.ones(n_vox, dtype=bool))
    field = MaterialField(volume=vol, mask=mask, nu=_NU, density=1000.0)
    model = build_model(field, n_nodes=n_nodes, k=k, seed=seed)

    # Voxel ix index per masked voxel, x fastest: flat % nx.
    voxel_ix = np.arange(n_vox) % cx
    fixed = frozenset(int(i) for i in np.unique(model.dofs.owner[voxel_ix == 0]))
    if not fixed or len(fixed) == model.n_nodes:
        raise ValueError("clamped-face node set is degenerate; adjust n_nodes or seed")
    return BeamPhantom(model=model, fixed_nodes=fixed, spec=spec)


def _meshfree_system(phantom: BeamPhantom) -> LinearSystem:
    """The mesh-free beam's K u = f with the clamped nodes held at zero.

    The distributed load enters as equal -z point loads on the free nodes,
    totaling q_load * L.
    """
    model = phantom.model
    clamped_nodes = np.fromiter(phantom.fixed_nodes, dtype=np.int64)
    n_free = model.n_nodes - len(clamped_nodes)
    f = np.zeros(model.n_dofs)  # reduce_dirichlet zeroes the clamped nodes' share
    f[2::3] = -phantom.spec.q_load * phantom.spec.snapped_extents()[0] / n_free
    fixed = (3 * clamped_nodes[:, None] + np.arange(3)).ravel()
    return reduce_dirichlet(model.matrices.K, f, fixed)


def simulate_beam(phantom: BeamPhantom) -> DeflectionCurve:
    """Static mesh-free solve of the cantilever, sampled on the centerline.

    Solves the clamped K u = f of `_meshfree_system` as `fea_baseline`
    solves the FEA's.  The curve holds the x = 0 clamp datum, element-center
    samples mapped by the shape functions, and the x = L tip.

    Raises:
        NonConvergenceError: the solve missed its tolerance.
    """
    model = phantom.model
    system = _meshfree_system(phantom)
    q = _factored_cg(system, BandedCholesky.of(system.A), CG_MAX, _STATIC_CG_TOL,
                     "mesh-free beam")
    _, w_eff, h_eff = phantom.spec.snapped_extents()
    xs = axis_samples(phantom.spec)
    marks = [(f"x{j}", np.array([x, w_eff / 2.0, h_eff / 2.0])) for j, x in enumerate(xs[1:], 1)]
    moved = displace_landmarks(model, q, marks)
    deflection = np.array([-(pos[2] - h_eff / 2.0) for _, pos in moved])
    return DeflectionCurve(x=xs, w=np.concatenate([[0.0], deflection]))


def _hex_unit_sums(res: float) -> np.ndarray:
    """P[i, j, a, b] = sum_q dN_a/dx_i dN_b/dx_j det J of a trilinear cube of edge res.

    The sum over the 2x2x2 Gauss points (unit weights) at E = 1, shape
    (3, 3, 8, 8): what `_isotropic_stiffness` sums per element, read at the
    upper entries of the column-sorted table.  It is made to equal
    P[j, i, b, a] bit for bit, as the kernel requires.
    """
    grid = np.array([[i, j, k] for k in (-1, 1) for j in (-1, 1) for i in (-1, 1)], dtype=float)
    corners = grid[[0, 1, 3, 2, 4, 5, 7, 6]]  # local node order: ring order per z face
    gauss = grid / np.sqrt(3.0)  # x fastest, then y, then z
    # N_a = prod_c (1 + xi_ac g_c) / 8, so dN_a/dxi_c = xi_ac prod_{d != c} (1 + xi_ad g_d) / 8.
    terms = 1.0 + gauss[:, None, :] * corners[None, :, :]  # (gauss point, node, axis)
    others = terms[:, :, [[1, 2], [0, 2], [0, 1]]].prod(axis=3)
    jac = res / 2.0
    grads = 0.125 * corners * others / jac  # d/dx = d/dxi * dxi/dx
    p = np.einsum("qai,qbj->ijab", grads, grads) * jac**3
    return (p + p.transpose(1, 0, 3, 2)) * 0.5


def _hex_grid(cells: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Node ids and element-to-node table of a regular grid of cx x cy x cz cells.

    ids[i, j, k], shape (cx+1, cy+1, cz+1), numbers node (i, j, k) as
    k + (cz+1) * (j + (cy+1) * i): the long x axis varies slowest, so
    neighbouring nodes are at most one y-z node plane apart and K's band is
    3 * ((cy+1)(cz+1) + (cz+1) + 1) + 2 DOFs wide.  The table, shape
    (n_elements, 8), lists each cell's corners in ring order per z face, the
    local order of `_hex_unit_sums`.
    """
    cx, cy, cz = cells
    ids = np.arange((cx + 1) * (cy + 1) * (cz + 1)).reshape(cx + 1, cy + 1, cz + 1)
    conn = np.stack([ids[di:di + cx, dj:dj + cy, dk:dk + cz].ravel()
                     for dk in (0, 1) for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))], axis=1)
    return ids, conn


def _fea_system(spec: BeamSpec) -> LinearSystem:
    """The FEA's K u = f on the voxel-resolution hex grid, with the x = 0 node plane clamped.

    K is the stiffness kernel's sum over the element-to-node table, each
    element given the one cube's Gauss sums times E.  The kernel takes rows
    of ascending nodes, so the table's columns are permuted once into that
    order, and the sums with them.  The distributed load enters as
    consistent nodal loads of a uniform -z body force.
    """
    res = spec.resolution
    _, w_eff, h_eff = spec.snapped_extents()
    ids, conn = _hex_grid(spec.cells())

    # Every cell ranks its corners alike, so one column order sorts every row.
    local = np.argsort(conn[0])
    a, b = local[np.array(np.triu_indices(8))]
    p = spec.E * _hex_unit_sums(res)[:, :, a, b]  # the sums at the sorted rows' upper entries
    shape = (len(conn), len(a))
    K = _isotropic_stiffness(_pair_pattern(conn[:, local]),
                             lambda i, j: np.broadcast_to(p[i, j], shape), _NU, ids.size)

    # Uniform body force -q/(w*h) per mm^3; each corner takes V_e/8 of its element.
    f = np.zeros(3 * ids.size)
    per_corner = spec.q_load / (w_eff * h_eff) * res**3 / 8.0
    np.add.at(f, 3 * conn.ravel() + 2, -per_corner)

    fixed = (3 * ids[0].reshape(-1, 1) + np.arange(3)).ravel()
    return reduce_dirichlet(K, f, fixed)


def fea_baseline(spec: BeamSpec) -> DeflectionCurve:
    """Static trilinear-hex FEA of the cantilever on the voxel-resolution grid.

    Solves the clamped K u = f of `_fea_system` by CG preconditioned with its
    `BandedCholesky` factor, the factor a settle uses; it takes one
    iteration.  Samples the centerline deflection on the shared x grid.

    Raises:
        ValueError: degenerate discretization (via spec.cells()).
        NonConvergenceError: the solve missed its tolerance.
    """
    _, w_eff, h_eff = spec.snapped_extents()
    ids, _ = _hex_grid(spec.cells())
    system = _fea_system(spec)
    u = _factored_cg(system, BandedCholesky.of(system.A), CG_MAX, _STATIC_CG_TOL,
                     "FEA baseline")
    xs = axis_samples(spec)
    w = -_trilinear_sample(u[2::3][ids], spec.resolution, xs[1:], w_eff / 2.0, h_eff / 2.0)
    return DeflectionCurve(x=xs, w=np.concatenate([[0.0], w]))


def _trilinear_sample(uz: np.ndarray, res: float, x, y, z) -> np.ndarray:
    """Interpolate a node field uz[i, j, k] at the points (x, y, z), broadcast together.

    Upper boundaries clamp to the last cell.
    """
    out = []
    for v, n in zip((x, y, z), uz.shape):  # n nodes span n - 1 cells, the last at n - 2
        i = np.minimum(np.floor(v / res).astype(np.int64), n - 2)
        out.append((i, 2.0 * (v - i * res) / res - 1.0))
    (i, xi), (j, eta), (k, zeta) = out
    acc = 0.0
    for dk, wz in ((0, (1 - zeta) / 2), (1, (1 + zeta) / 2)):
        for dj, wy in ((0, (1 - eta) / 2), (1, (1 + eta) / 2)):
            for di, wx in ((0, (1 - xi) / 2), (1, (1 + xi) / 2)):
                acc += wz * wy * wx * uz[i + di, j + dj, k + dk]
    return acc


def convergence_error(sim: DeflectionCurve, theory: DeflectionCurve) -> dict:
    """Pointwise max-abs and RMS deviation between curves on a shared x grid.

    Raises:
        ValueError: the curves are sampled on different x grids.
    """
    if len(sim.x) != len(theory.x) or not np.allclose(sim.x, theory.x, atol=1e-9):
        raise ValueError("deflection curves are sampled on different x grids")
    diff = np.abs(sim.w - theory.w)
    return {"max_abs": float(diff.max()), "rms": float(np.sqrt(np.mean(diff**2)))}


def write_beam_convergence_csv(
    theory: DeflectionCurve, fea: DeflectionCurve, meshfree: DeflectionCurve, path: str | Path
) -> Path:
    """Write the three shared-grid curves and pointwise errors as CSV."""
    for other in (fea, meshfree):
        if not np.allclose(other.x, theory.x, atol=1e-9):
            raise ValueError("curves must share the x grid to be tabulated together")
    return _write_csv(
        path,
        ["x_mm", "w_theory_mm", "w_fea_mm", "w_meshfree_mm", "err_fea_mm", "err_meshfree_mm"],
        zip(theory.x, theory.w, fea.w, meshfree.w,
            np.abs(fea.w - theory.w), np.abs(meshfree.w - theory.w)),
    )
