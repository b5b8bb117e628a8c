"""Voxel volumes, voxel masks, and cohort stiffness statistics.

Volumes are regular 3D grids of elastogram shear stiffness in kPa, stored
row-major with x fastest.  A volume on disk is a JSON header (dims, spacing,
kind) next to a raw little-endian float32 file.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class VolumeFormatError(ValueError):
    """Raised when a volume or cohort file violates the on-disk format."""


@dataclass(frozen=True)
class VoxelVolume:
    """Regular 3D scalar grid with physical voxel spacing.

    Attributes:
        dims: grid size (nx, ny, nz).
        spacing_mm: voxel pitch per axis in mm.
        kind: "elastogram_shear_kPa", the only kind.
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
        if self.kind != "elastogram_shear_kPa":
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
        if data.size and float(data.min()) < 0.0:
            raise VolumeFormatError("elastogram voxel values must be >= 0")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing_mm", spacing)
        object.__setattr__(self, "data", data)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

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


def mean_shear_modulus(volume: VoxelVolume, mask: RoiMask) -> float:
    """Arithmetic mean of masked-in elastogram voxels, in kPa.

    Raises:
        ValueError: dims mismatch, or empty mask.
    """
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
        ValueError: empty cohort, or a bin width not finite and > 0.
    """
    if not records:
        raise ValueError("cohort is empty")
    if not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin width must be finite and > 0, got {bin_width}")
    values = np.array([r.young_E for r in records], dtype=float)
    idx = np.floor(values / bin_width).astype(int)
    n_bins = int(idx.max()) + 1
    counts = np.bincount(idx, minlength=n_bins)
    edges = np.arange(n_bins + 1) * bin_width
    return edges, counts


def cohort_stats(records: list[CohortRecord], atlas_E: float = 2.1) -> tuple[float, float]:
    """Fractions of records stiffer than atlas_E + 1 kPa and than 2 * atlas_E.

    Raises:
        ValueError: empty cohort, or an atlas value not finite and > 0.
    """
    if not records:
        raise ValueError("cohort is empty")
    if not 0.0 < atlas_E < math.inf:
        raise ValueError(f"atlas stiffness must be finite and > 0, got {atlas_E}")
    n = len(records)
    over_plus1 = sum(1 for r in records if r.young_E > atlas_E + 1.0)
    over_double = sum(1 for r in records if r.young_E > 2.0 * atlas_E)
    return over_plus1 / n, over_double / n


def _write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write a header row and `rows` as CSV, creating the parent directory.

    A float or numpy floating value is written as repr(float(v)), the
    shortest text that reads back to the same double, so equal values give
    equal bytes on every run; other values are written unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])
    return path


def write_cohort_csv(records: list[CohortRecord], path: str | Path) -> Path:
    """Write a cohort as CSV `id,G_kPa,E_kPa` with a header row."""
    return _write_csv(path, ["id", "G_kPa", "E_kPa"],
                      ((r.id, r.mean_shear_G, r.young_E) for r in records))


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
