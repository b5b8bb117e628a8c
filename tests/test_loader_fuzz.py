"""Fuzz the file loaders: on corrupted bytes or headers they raise only documented errors.

Each loader may raise FileNotFoundError, VolumeFormatError or ValueError (the
CLI maps the last two onto exit code 2), and nothing else: no TypeError,
KeyError or numpy error escapes from a malformed file.
"""

import json
import math
import struct

import numpy as np
import pytest
from conftest import join_archive, make_field, split_archive
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from elastosim.experiment import ComparisonReport, load_comparison_csv, write_comparison_csv
from elastosim.meshfree import build_model, load_model, save_model
from elastosim.volume import (
    CohortRecord,
    VolumeFormatError,
    VoxelVolume,
    load_cohort_csv,
    load_volume,
    write_cohort_csv,
    write_volume,
)

DOCUMENTED = (FileNotFoundError, VolumeFormatError, ValueError)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# A JSON integer past the largest float loads as a Python int that no float can hold.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6) | st.sampled_from([10**400, -10**400])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, raw: bytes, lo: int = 0, hi: int | None = None):
    """raw with a few bytes in [lo, hi) overwritten, then possibly truncated."""
    hi = len(raw) if hi is None else hi
    out = bytearray(raw)
    for pos, byte in draw(st.lists(st.tuples(st.integers(lo, hi - 1), st.integers(0, 255)),
                                   min_size=1, max_size=6)):
        out[pos] = byte
    return bytes(out[: draw(st.integers(0, len(out)) | st.just(len(out)))])


def expect_documented(load, path):
    try:
        load(path)
    except DOCUMENTED:
        pass


def _volume():
    data = np.linspace(0.5, 3.0, 4 * 3 * 2, dtype=np.float32)
    return VoxelVolume(dims=(4, 3, 2), spacing_mm=(2.0, 2.0, 2.0),
                       kind="elastogram_shear_kPa", data=data)


@pytest.fixture(scope="module")
def volume_files(tmp_path_factory):
    header = write_volume(_volume(), tmp_path_factory.mktemp("vol") / "v.json")
    return header.read_bytes(), header.with_suffix(".raw").read_bytes()


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    model = build_model(make_field(dims=(3, 3, 2)), n_nodes=5, k=4, seed=0)
    return save_model(model, tmp_path_factory.mktemp("esm") / "m.esm").read_bytes()


class TestLoadVolume:
    @FUZZ
    @given(data=st.data())
    def test_mutated_header_and_raw(self, tmp_path, volume_files, data):
        header, raw = volume_files
        (tmp_path / "v.json").write_bytes(data.draw(mutated(header)))
        (tmp_path / "v.raw").write_bytes(data.draw(st.just(raw) | mutated(raw)))
        expect_documented(load_volume, tmp_path / "v.json")

    @FUZZ
    @given(key=st.sampled_from(["dims", "spacing_mm", "kind"]), value=json_values,
           drop=st.booleans())
    @example(key="spacing_mm", value=[2.0, 10**400, 2.0], drop=False)
    def test_header_field_of_any_json_type(self, tmp_path, volume_files, key, value, drop):
        header = json.loads(volume_files[0])
        if drop:
            del header[key]
        else:
            header[key] = value
        (tmp_path / "v.json").write_text(json.dumps(header))
        (tmp_path / "v.raw").write_bytes(volume_files[1])
        expect_documented(load_volume, tmp_path / "v.json")

    @FUZZ
    @given(header=json_values)
    def test_header_of_any_json_type(self, tmp_path, volume_files, header):
        (tmp_path / "v.json").write_text(json.dumps(header))
        (tmp_path / "v.raw").write_bytes(volume_files[1])
        expect_documented(load_volume, tmp_path / "v.json")


class TestLoadModel:
    @FUZZ
    @given(data=st.data())
    def test_mutated_bytes(self, tmp_path, archive, data):
        (hlen,) = struct.unpack("<Q", archive[8:16])
        # Half the examples corrupt the header, where the structure lives.
        hi = data.draw(st.sampled_from([16 + hlen, len(archive)]))
        (tmp_path / "m.esm").write_bytes(data.draw(mutated(archive, 0, hi)))
        expect_documented(load_model, tmp_path / "m.esm")

    @FUZZ
    @given(data=st.data(), value=json_values)
    def test_header_field_of_any_json_type(self, tmp_path, archive, data, value):
        header, payload = split_archive(archive)
        if data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(header)))
            header[key] = value
        else:
            item = data.draw(st.sampled_from(header["arrays"]))
            item[data.draw(st.sampled_from(["name", "dtype", "shape", "offset", "nbytes"]))] = value
        (tmp_path / "m.esm").write_bytes(join_archive(header, payload))
        expect_documented(load_model, tmp_path / "m.esm")

    @FUZZ
    @given(key=st.sampled_from(["nu", "alpha", "beta", "density"]),
           value=json_values | st.integers(-2, 6) | st.floats(-1.0, 10.0))
    def test_header_scalar_loads_only_when_valid(self, tmp_path, archive, key, value):
        header, payload = split_archive(archive)
        header[key] = value
        (tmp_path / "m.esm").write_bytes(join_archive(header, payload))
        try:
            model = load_model(tmp_path / "m.esm")
        except DOCUMENTED:
            return
        assert type(model.shape.k) is int and model.shape.k == model.shape.indices.shape[1]
        assert model.shape.weights.shape == model.shape.indices.shape
        assert all(math.isfinite(v) and v >= 0 for v in (model.matrices.alpha, model.matrices.beta))
        assert math.isfinite(model.field.density) and model.field.density > 0
        assert np.isfinite(model.matrices.M).all()  # assembled from the header's density
        assert 0 <= model.field.nu < 0.5

    @FUZZ
    @given(axis=st.integers(0, 2), value=json_values)
    @example(axis=1, value=10**400)
    def test_header_spacing_entry_of_any_json_type(self, tmp_path, archive, axis, value):
        header, payload = split_archive(archive)
        header["spacing_mm"][axis] = value
        (tmp_path / "m.esm").write_bytes(join_archive(header, payload))
        expect_documented(load_model, tmp_path / "m.esm")

    @FUZZ
    @given(data=st.data())
    def test_mutated_dtype(self, tmp_path, archive, data):
        header, payload = split_archive(archive)
        item = data.draw(st.sampled_from(header["arrays"]))
        item["dtype"] = data.draw(st.sampled_from(
            ["<f4", "<f8", ">f8", "<i4", "<i8", "<u8", "|b1", "|u1", "<c16", "|V8", "|S8", "<U2", "|O"]))
        (tmp_path / "m.esm").write_bytes(join_archive(header, payload))
        expect_documented(load_model, tmp_path / "m.esm")


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    records = [CohortRecord(id=f"c{i}", mean_shear_G=1.0 + i, young_E=3.0 + 3 * i)
               for i in range(3)]
    return write_cohort_csv(records, tmp_path_factory.mktemp("csv") / "c.csv").read_bytes()


@pytest.fixture(scope="module")
def comparison_csv(tmp_path_factory):
    reports = [ComparisonReport(case_id=f"case_{i}", per_landmark=(), mean_volume_diff=0.5,
                                at_tool_diff=2.0 + 3 * i)
               for i in range(3)]
    return write_comparison_csv(reports, tmp_path_factory.mktemp("csv") / "r.csv").read_bytes()


class TestLoadCsv:
    @FUZZ
    @given(data=st.data())
    def test_mutated_cohort_csv(self, tmp_path, cohort_csv, data):
        (tmp_path / "c.csv").write_bytes(data.draw(mutated(cohort_csv)))
        expect_documented(load_cohort_csv, tmp_path / "c.csv")

    @FUZZ
    @given(data=st.data())
    def test_mutated_comparison_csv(self, tmp_path, comparison_csv, data):
        (tmp_path / "r.csv").write_bytes(data.draw(mutated(comparison_csv)))
        expect_documented(load_comparison_csv, tmp_path / "r.csv")
