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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_HISTOGRAM_BINS = 10_000  # a finer bin width is an input error, not a larger file


class VolumeFormatError(ValueError):
    """Raised when a volume or cohort file violates the on-disk format."""


def _finite(value, what: str, *, above=None, at_least=None):
    """`value`, unchanged, if it is a finite int or float within the optional bound.

    Numpy scalars pass; bools, other types and Python ints past the largest
    float, which no float arithmetic can hold, do not.

    Raises:
        ValueError: `value` is not such a number; the message names `what`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not (-sys.float_info.max <= value <= sys.float_info.max  # NaN fails both
            and (above is None or value > above) and (at_least is None or value >= at_least)):
        bound = (f" and > {above}" if above is not None
                 else f" and >= {at_least}" if at_least is not None else "")
        raise ValueError(f"{what} must be finite{bound}, got {_shown(value)}")
    return value


def _shown(value):
    """`value` for a message; an int past the float range by its first digits and its
    length, since str() of an int past 4300 digits raises."""
    if not (isinstance(value, int) and abs(value) > sys.float_info.max):
        return value
    size = abs(value)
    digits = int(math.log10(size)) + 1
    digits += (size >= 10**digits) - (size < 10 ** (digits - 1))  # log10 rounds near a power of 10
    return f"{'-' * (value < 0)}{size // 10 ** (digits - 4)}... ({digits} digits)"


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
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise VolumeFormatError(f"dims must be 3 positive integers, got {self.dims}")
        try:
            spacing = tuple(float(_finite(s, "spacing_mm", above=0)) for s in self.spacing_mm)
            if len(spacing) != 3:
                raise ValueError(f"spacing_mm must hold 3 lengths, got {self.spacing_mm}")
            # Voxel volumes and squared distances across the grid must stay
            # positive finite floats for assembly and the nearest-node search.
            sx, sy, sz = spacing
            _finite(sx * sy * sz, f"spacing {spacing} gives a voxel volume, which", above=0)
            _finite(sum(d * s * (d * s) for d, s in zip(dims, spacing)),
                    f"spacing {spacing} gives a squared grid diagonal, which")
        except ValueError as exc:
            raise VolumeFormatError(str(exc)) from None
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
        _finite(self.mean_shear_G, "mean shear modulus", at_least=0)
        _finite(self.young_E, "Young's modulus", at_least=0)


def load_volume(path: str | Path) -> VoxelVolume:
    """Load a volume from its JSON header; raw data sits next to it.

    Args:
        path: path to `<name>.json` (or the `<name>` stem).

    Returns:
        The parsed VoxelVolume.

    Raises:
        FileNotFoundError: header or raw file missing.
        VolumeFormatError: malformed header, bad kind, size mismatch, a
            spacing entry that is not a finite number > 0, a spacing whose
            voxel volume or squared grid diagonal is not a positive finite
            float, or a non-finite voxel; the message names the file.
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
            raise VolumeFormatError(f"volume header {header_path} missing field {key!r}")
    try:
        if not isinstance(header["dims"], list) or not isinstance(header["spacing_mm"], list):
            raise TypeError("dims and spacing_mm must be lists")
        dims = tuple(operator.index(d) for d in header["dims"])
    except (TypeError, ValueError) as exc:
        raise VolumeFormatError(f"malformed volume header {header_path}: {exc}") from exc
    expected = math.prod(dims) if len(dims) == 3 else -1
    n_bytes = raw_path.stat().st_size
    if n_bytes != 4 * expected:
        raise VolumeFormatError(
            f"raw file {raw_path} holds {n_bytes} bytes ({n_bytes // 4} scalars), "
            f"header dims {list(dims)} require {expected}"
        )
    try:
        return VoxelVolume(
            dims=dims,
            spacing_mm=header["spacing_mm"],
            kind=header["kind"],
            data=np.fromfile(raw_path, dtype="<f4"),
        )
    except VolumeFormatError as exc:
        raise VolumeFormatError(f"{header_path}: {exc}") from None


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


def shear_to_young(G: float, nu: float) -> float:
    """Isotropic conversion E = 2*G*(1 + nu); nu = 0.5 is incompressible.

    Raises:
        ValueError: G not finite and >= 0, or nu outside [0, 0.5].
    """
    _finite(G, "shear modulus", at_least=0)
    if not 0.0 <= nu <= 0.5:
        raise ValueError(f"Poisson ratio must lie in [0, 0.5], got {nu}")
    return 2.0 * G * (1.0 + nu)


def stiffness_histogram(
    records: list[CohortRecord], bin_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of cohort Young's moduli in left-closed bins [0, w), [w, 2w), ...

    Returns:
        (edges, counts) with len(edges) == len(counts) + 1; counts sum to
        the number of records.

    Raises:
        ValueError: empty cohort, a bin width not finite and > 0, or one that
            needs more than MAX_HISTOGRAM_BINS bins.
    """
    if not records:
        raise ValueError("cohort is empty")
    _finite(bin_width, "bin width", above=0)
    values = np.array([r.young_E for r in records], dtype=float)
    top = np.floor(float(values.max()) / bin_width)  # a float division overflows to inf quietly
    if top >= MAX_HISTOGRAM_BINS:
        raise ValueError(f"bin width {bin_width} needs {top + 1:.0f} bins, "
                         f"more than the {MAX_HISTOGRAM_BINS} allowed")
    idx = np.floor(values / bin_width).astype(int)
    n_bins = int(top) + 1
    counts = np.bincount(idx, minlength=n_bins)
    edges = np.arange(n_bins + 1) * bin_width
    return edges, counts


def cohort_stats(records: list[CohortRecord], atlas_E: float) -> tuple[float, float]:
    """Fractions of records stiffer than atlas_E + 1 kPa and than 2 * atlas_E.

    Raises:
        ValueError: empty cohort, or an atlas value not finite and > 0.
    """
    if not records:
        raise ValueError("cohort is empty")
    _finite(atlas_E, "atlas stiffness", above=0)
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


def _read_csv(path: str | Path, header: list[str]):
    """Yield (line number, row) for each row of a CSV file written under `header`.

    Raises:
        FileNotFoundError: the file is missing.
        VolumeFormatError: a header other than `header`, or a row of another
            width; the message names the file, and the line of a bad row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise VolumeFormatError(f"{path}: expected the CSV header {header}, got {found}")
        for row in reader:
            if len(row) != len(header):
                raise VolumeFormatError(f"{path}, line {reader.line_num}: row {row} "
                                        f"does not have {len(header)} fields")
            yield reader.line_num, row


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
    records = []
    for line, row in _read_csv(path, ["id", "G_kPa", "E_kPa"]):
        try:
            records.append(CohortRecord(id=row[0], mean_shear_G=float(row[1]),
                                        young_E=float(row[2])))
        except ValueError as exc:
            raise VolumeFormatError(f"{path}, line {line}, row {row}: {exc}") from exc
    return records
