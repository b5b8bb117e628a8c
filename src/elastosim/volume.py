"""Voxel volumes, planar ROI masking, and cohort stiffness statistics.

Volumes are regular 3D scalar grids (elastogram shear stiffness in kPa, or
anatomical intensity) stored row-major with x fastest.  A volume on disk is a
JSON header (dims, spacing, kind) next to a raw little-endian float32 file.
ROI polygons live on a single axial slice; masking tests each voxel center
against the polygon with the even-odd rule.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOLUME_KINDS = ("elastogram_shear_kPa", "anatomical_intensity")


class VolumeFormatError(ValueError):
    """Raised when a volume or polygon file violates the on-disk format."""


@dataclass(frozen=True)
class VoxelVolume:
    """Regular 3D scalar grid with physical voxel spacing.

    Attributes:
        dims: grid size (nx, ny, nz).
        spacing_mm: voxel pitch per axis in mm.
        kind: "elastogram_shear_kPa" or "anatomical_intensity".
        data: flat float32 array of nx*ny*nz scalars, x fastest.
    """

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    kind: str
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing_mm)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise VolumeFormatError(f"dims must be 3 positive integers, got {self.dims}")
        if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
            raise VolumeFormatError(f"spacing must be 3 positive lengths, got {self.spacing_mm}")
        if self.kind not in VOLUME_KINDS:
            raise VolumeFormatError(f"unknown volume kind {self.kind!r}")
        # float32 matches the raw file format, so round-trips are bit-exact.
        data = np.ascontiguousarray(self.data, dtype=np.float32).ravel()
        n = dims[0] * dims[1] * dims[2]
        if data.size != n:
            raise VolumeFormatError(
                f"data has {data.size} scalars but dims {dims} require {n}"
            )
        if not np.isfinite(data).all():
            raise VolumeFormatError("voxel values must be finite (no NaN or inf)")
        if self.kind == "elastogram_shear_kPa" and data.size and float(data.min()) < 0.0:
            raise VolumeFormatError("elastogram voxel values must be >= 0")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing_mm", spacing)
        object.__setattr__(self, "data", data)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def grid(self) -> np.ndarray:
        """Data reshaped to (nz, ny, nx) so grid[k, j, i] indexes voxel (i, j, k)."""
        nx, ny, nz = self.dims
        return self.data.reshape(nz, ny, nx)

    def voxel_centers(self) -> np.ndarray:
        """Physical centers of all voxels, shape (n_voxels, 3), x fastest, in mm."""
        return voxel_centers(self.dims, self.spacing_mm)


def voxel_centers(dims: tuple[int, int, int], spacing_mm: tuple[float, float, float]) -> np.ndarray:
    """Physical centers of a grid's voxels, shape (nx*ny*nz, 3), x fastest, in mm."""
    nx, ny, nz = dims
    sx, sy, sz = spacing_mm
    xs = (np.arange(nx) + 0.5) * sx
    ys = (np.arange(ny) + 0.5) * sy
    zs = (np.arange(nz) + 0.5) * sz
    zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


@dataclass(frozen=True)
class RoiPolygon:
    """Simple polygon on one axial slice, vertices in mm.

    Attributes:
        slice_index: z index of the slice the polygon applies to.
        vertices_mm: ordered (x, y) vertices, at least 3, no self-intersections.
    """

    slice_index: int
    vertices_mm: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices_mm, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise VolumeFormatError(
                f"polygon needs >= 3 (x, y) vertices, got shape {verts.shape}"
            )
        if _polygon_self_intersects(verts):
            raise VolumeFormatError("polygon edges self-intersect")
        object.__setattr__(self, "slice_index", int(self.slice_index))
        object.__setattr__(self, "vertices_mm", verts)


@dataclass(frozen=True)
class RoiMask:
    """Boolean inclusion flag per voxel of a parent volume."""

    dims: tuple[int, int, int]
    flags: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        flags = np.asarray(self.flags, dtype=bool).ravel()
        if flags.size != dims[0] * dims[1] * dims[2]:
            raise VolumeFormatError(
                f"mask has {flags.size} flags but dims {dims} require "
                f"{dims[0] * dims[1] * dims[2]}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "flags", flags)

    @property
    def n_selected(self) -> int:
        return int(self.flags.sum())


@dataclass(frozen=True)
class CohortRecord:
    """One scan in a stiffness cohort: mean shear modulus and derived Young's modulus.

    Raises:
        ValueError: a modulus that is NaN, infinite or negative.
    """

    id: str
    mean_shear_G: float
    young_E: float

    def __post_init__(self):
        for name, value in (("mean shear modulus", self.mean_shear_G),
                            ("Young's modulus", self.young_E)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _segments_properly_intersect(p1, p2, p3, p4) -> bool:
    """True if open segments (p1,p2) and (p3,p4) cross at an interior point."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0.0 if v == 0.0 else (1.0 if v > 0.0 else -1.0)

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return d1 * d2 < 0 and d3 * d4 < 0


def _polygon_self_intersects(verts: np.ndarray) -> bool:
    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # Adjacent edges share a vertex; only proper crossings count.
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_properly_intersect(*edges[i], *edges[j]):
                return True
    return False


def _point_on_segment(px, py, ax, ay, bx, by) -> bool:
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if cross != 0.0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def point_in_polygon(x: float, y: float, verts: np.ndarray) -> bool:
    """Even-odd inclusion test; points exactly on an edge count as inside."""
    n = len(verts)
    inside = False
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if _point_on_segment(x, y, ax, ay, bx, by):
            return True
        # Half-open vertical rule: edge spans the ray iff exactly one endpoint
        # is strictly above the query y.
        if (ay > y) != (by > y):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
            if x_cross > x:
                inside = not inside
    return inside


def load_volume(path: str | Path) -> VoxelVolume:
    """Load a volume from its JSON header; raw data sits next to it.

    Args:
        path: path to `<name>.json` (or the `<name>` stem).

    Returns:
        The parsed VoxelVolume.

    Raises:
        FileNotFoundError: header or raw file missing.
        VolumeFormatError: malformed header, bad kind, size mismatch, or a
            non-finite voxel.
    """
    path = Path(path)
    header_path = path if path.suffix == ".json" else path.with_suffix(".json")
    raw_path = header_path.with_suffix(".raw")
    if not header_path.exists():
        raise FileNotFoundError(f"volume header not found: {header_path}")
    if not raw_path.exists():
        raise FileNotFoundError(f"volume raw data not found: {raw_path}")
    try:
        header = json.loads(header_path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise VolumeFormatError(f"invalid JSON header {header_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise VolumeFormatError(f"volume header {header_path} is not a JSON object")
    for key in ("dims", "spacing_mm", "kind"):
        if key not in header:
            raise VolumeFormatError(f"volume header missing field {key!r}")
    try:
        if not isinstance(header["dims"], list) or not isinstance(header["spacing_mm"], list):
            raise TypeError("dims and spacing_mm must be lists")
        dims = tuple(operator.index(d) for d in header["dims"])
        spacing = tuple(float(s) for s in header["spacing_mm"])
    except (TypeError, ValueError) as exc:
        raise VolumeFormatError(f"malformed volume header {header_path}: {exc}") from exc
    expected = math.prod(dims) if len(dims) == 3 else -1
    n_bytes = raw_path.stat().st_size
    if n_bytes != 4 * expected:
        raise VolumeFormatError(
            f"raw file {raw_path} holds {n_bytes} bytes ({n_bytes // 4} scalars), "
            f"header dims {list(dims)} require {expected}"
        )
    return VoxelVolume(
        dims=dims,
        spacing_mm=spacing,
        kind=header["kind"],
        data=np.fromfile(raw_path, dtype="<f4"),
    )


def write_volume(volume: VoxelVolume, path: str | Path) -> Path:
    """Write the JSON header and little-endian float32 raw file; returns the header path."""
    path = Path(path)
    header_path = path if path.suffix == ".json" else path.with_suffix(".json")
    raw_path = header_path.with_suffix(".raw")
    header = {
        "dims": list(volume.dims),
        "spacing_mm": list(volume.spacing_mm),
        "kind": volume.kind,
    }
    header_path.parent.mkdir(parents=True, exist_ok=True)
    header_path.write_text(json.dumps(header, indent=2) + "\n")
    volume.data.astype("<f4").tofile(raw_path)
    return header_path


def load_polygon(path: str | Path) -> RoiPolygon:
    """Load an ROI polygon from JSON {"slice_index": k, "vertices_mm": [[x, y], ...]}."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"polygon file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise VolumeFormatError(f"invalid polygon JSON {path}: {exc}") from exc
    for key in ("slice_index", "vertices_mm"):
        if key not in obj:
            raise VolumeFormatError(f"polygon file missing field {key!r}")
    return RoiPolygon(slice_index=obj["slice_index"], vertices_mm=np.asarray(obj["vertices_mm"]))


def write_polygon(polygon: RoiPolygon, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    obj = {
        "slice_index": polygon.slice_index,
        "vertices_mm": polygon.vertices_mm.tolist(),
    }
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def mask_roi(volume: VoxelVolume, polygon: RoiPolygon) -> RoiMask:
    """Rasterize a single-slice polygon into a per-voxel boolean mask.

    A voxel is selected iff its center lies on the polygon's slice and inside
    the polygon by the even-odd rule (edge points inclusive).

    Raises:
        VolumeFormatError: slice index outside the volume's z range.
    """
    nx, ny, nz = volume.dims
    k = polygon.slice_index
    if not 0 <= k < nz:
        raise VolumeFormatError(f"slice_index {k} outside z range [0, {nz})")
    flags = np.zeros((nz, ny * nx), dtype=bool)
    centers = voxel_centers((nx, ny, 1), volume.spacing_mm)
    flags[k] = [point_in_polygon(x, y, polygon.vertices_mm) for x, y, _ in centers]
    return RoiMask(dims=volume.dims, flags=flags.ravel())


def mean_shear_modulus(volume: VoxelVolume, mask: RoiMask) -> float:
    """Arithmetic mean of masked-in elastogram voxels, in kPa.

    Raises:
        ValueError: volume is not an elastogram, dims mismatch, or empty mask.
    """
    if volume.kind != "elastogram_shear_kPa":
        raise ValueError(f"mean shear modulus needs an elastogram, got kind {volume.kind!r}")
    if mask.dims != volume.dims:
        raise ValueError(f"mask dims {mask.dims} do not match volume dims {volume.dims}")
    if mask.n_selected == 0:
        raise ValueError("mask selects no voxels")
    # float64 accumulation keeps the mean exact to ~1e-16 even for f32 data.
    return float(volume.data[mask.flags].astype(np.float64).mean())


def shear_to_young(G: float, nu: float = 0.5) -> float:
    """Isotropic conversion E = 2*G*(1 + nu); nu defaults to 0.5 (incompressible).

    Raises:
        ValueError: G negative or nu outside [0, 0.5].
    """
    if G < 0:
        raise ValueError(f"shear modulus must be >= 0, got {G}")
    if not 0.0 <= nu <= 0.5:
        raise ValueError(f"Poisson ratio must lie in [0, 0.5], got {nu}")
    return 2.0 * G * (1.0 + nu)


def stiffness_histogram(
    records: list[CohortRecord], bin_width: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of cohort Young's moduli in left-closed bins [0, w), [w, 2w), ...

    Returns:
        (edges, counts) with len(edges) == len(counts) + 1; counts sum to
        the number of records.

    Raises:
        ValueError: empty cohort or non-positive bin width.
    """
    if not records:
        raise ValueError("cohort is empty")
    if bin_width <= 0:
        raise ValueError(f"bin width must be > 0, got {bin_width}")
    values = np.array([r.young_E for r in records], dtype=float)
    idx = np.floor(values / bin_width).astype(int)
    n_bins = int(idx.max()) + 1
    counts = np.bincount(idx, minlength=n_bins)
    edges = np.arange(n_bins + 1) * bin_width
    return edges, counts


def cohort_stats(records: list[CohortRecord], atlas_E: float = 2.1) -> tuple[float, float]:
    """Fractions of records stiffer than atlas_E + 1 kPa and than 2 * atlas_E.

    Raises:
        ValueError: empty cohort or non-positive atlas value.
    """
    if not records:
        raise ValueError("cohort is empty")
    if atlas_E <= 0:
        raise ValueError(f"atlas stiffness must be > 0, got {atlas_E}")
    n = len(records)
    over_plus1 = sum(1 for r in records if r.young_E > atlas_E + 1.0)
    over_double = sum(1 for r in records if r.young_E > 2.0 * atlas_E)
    return over_plus1 / n, over_double / n


def write_cohort_csv(records: list[CohortRecord], path: str | Path) -> Path:
    """Write a cohort as CSV `id,G_kPa,E_kPa` with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "G_kPa", "E_kPa"])
        for r in records:
            writer.writerow([r.id, repr(float(r.mean_shear_G)), repr(float(r.young_E))])
    return path


def load_cohort_csv(path: str | Path) -> list[CohortRecord]:
    """Read a cohort CSV written by write_cohort_csv.

    Raises:
        FileNotFoundError: CSV missing.
        VolumeFormatError: a bad header, or a row that is not three fields
            with finite, non-negative moduli; the message names the row.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"cohort CSV not found: {path}")
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "G_kPa", "E_kPa"]:
            raise VolumeFormatError(f"unexpected cohort CSV header: {header}")
        for row in reader:
            if len(row) != 3:
                raise VolumeFormatError(f"malformed cohort CSV row: {row}")
            try:
                g, e = float(row[1]), float(row[2])
                records.append(CohortRecord(id=row[0], mean_shear_G=g, young_E=e))
            except ValueError as exc:
                raise VolumeFormatError(f"{path}, line {reader.line_num}, row {row}: {exc}") from exc
    return records
