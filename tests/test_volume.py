"""Tests for voxel volume IO, voxel masks, and cohort statistics."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastosim.cli import EXIT_DATA, cli_main
from elastosim.volume import (
    MAX_HISTOGRAM_BINS,
    CohortRecord,
    RoiMask,
    VolumeFormatError,
    VoxelVolume,
    _finite,
    _write_csv,
    cohort_stats,
    load_cohort_csv,
    load_volume,
    mean_shear_modulus,
    shear_to_young,
    stiffness_histogram,
    voxel_centers,
    write_cohort_csv,
    write_volume,
)


def make_volume(dims=(4, 4, 2), spacing=(1.64, 1.64, 10.0), kind="elastogram_shear_kPa", fill=1.0):
    n = dims[0] * dims[1] * dims[2]
    return VoxelVolume(dims=dims, spacing_mm=spacing, kind=kind, data=np.full(n, fill))


class TestVoxelVolume:
    def test_rejects_size_mismatch(self):
        with pytest.raises(VolumeFormatError, match="require 4"):
            VoxelVolume(
                dims=(2, 2, 1),
                spacing_mm=(1.0, 1.0, 1.0),
                kind="elastogram_shear_kPa",
                data=np.zeros(5),
            )

    def test_rejects_negative_elastogram(self):
        with pytest.raises(VolumeFormatError, match=">= 0"):
            VoxelVolume(
                dims=(2, 1, 1),
                spacing_mm=(1.0, 1.0, 1.0),
                kind="elastogram_shear_kPa",
                data=np.array([1.0, -0.5]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(VolumeFormatError, match="finite"):
            VoxelVolume(
                dims=(2, 1, 1),
                spacing_mm=(1.0, 1.0, 1.0),
                kind="elastogram_shear_kPa",
                data=np.array([1.0, bad]),
            )

    def test_load_rejects_nan_in_raw_file(self, tmp_path):
        header = write_volume(make_volume(), tmp_path / "vol.json")
        raw = header.with_suffix(".raw")
        data = np.fromfile(raw, dtype="<f4")
        data[3] = np.nan
        data.tofile(raw)
        with pytest.raises(VolumeFormatError, match="finite"):
            load_volume(header)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(VolumeFormatError, match="spacing"):
            make_volume(spacing=(1.64, 0.0, 10.0))

    def test_rejects_unknown_kind(self):
        with pytest.raises(VolumeFormatError, match="kind"):
            make_volume(kind="ct_hounsfield")

    @pytest.mark.parametrize("dims, spacing", [
        pytest.param((4, 4, 2), (1e-300, 1e-300, 1e-300), id="voxel-volume-underflows"),
        pytest.param((4, 4, 2), (1e-300, 1.0, 1e-100), id="mixed-voxel-volume-underflows"),
        pytest.param((4, 4, 2), (1e103, 1e103, 1e103), id="voxel-volume-overflows"),
        pytest.param((16, 13, 8), (1e200, 1e-200, 1.0), id="grid-diagonal-squared-overflows"),
    ])
    def test_rejects_spacing_outside_the_float_range_by_name(self, dims, spacing):
        with pytest.raises(VolumeFormatError, match=r"spacing \(.*\) gives a (voxel volume|squared grid diagonal), which must be finite"):
            make_volume(dims=dims, spacing=spacing)

    @pytest.mark.parametrize("value", [10**400, -10**400, "2.0", True, None])
    def test_load_rejects_a_header_spacing_that_is_not_a_finite_number(self, tmp_path, value):
        header = write_volume(make_volume(), tmp_path / "vol.json")
        meta = json.loads(header.read_text())
        meta["spacing_mm"][1] = value
        header.write_text(json.dumps(meta))
        with pytest.raises(VolumeFormatError, match="spacing_mm must be"):
            load_volume(header)

    def test_load_rejects_a_header_spacing_whose_volume_underflows(self, tmp_path):
        header = write_volume(make_volume(), tmp_path / "vol.json")
        meta = json.loads(header.read_text())
        meta["spacing_mm"] = [1e-300, 1e-300, 1e-300]
        header.write_text(json.dumps(meta))
        with pytest.raises(VolumeFormatError, match="spacing"):
            load_volume(header)

    def test_int_too_long_to_print_is_rejected_by_name(self):
        # str() of an int past 4300 digits raises its own ValueError, naming no field.
        with pytest.raises(ValueError, match=re.escape(
                "density must be finite and > 0, got 1000... (5001 digits)")):
            _finite(10**5000, "density", above=0)
        for value, shown in ((10**400 - 1, "9999... (400 digits)"), (-(10**400), "-1000...")):
            with pytest.raises(ValueError, match=re.escape(f"got {shown}")):
                _finite(value, "density")

    def test_voxel_centers_order_x_fastest(self):
        vol = make_volume(dims=(2, 2, 1), spacing=(2.0, 3.0, 10.0))
        expected = np.array(
            [
                [1.0, 1.5, 5.0],
                [3.0, 1.5, 5.0],
                [1.0, 4.5, 5.0],
                [3.0, 4.5, 5.0],
            ]
        )
        assert np.allclose(voxel_centers(vol.dims, vol.spacing_mm), expected)


class TestVolumeIO:
    def test_header_roundtrip_four_voxels(self, tmp_path):
        vol = VoxelVolume(
            dims=(2, 2, 1),
            spacing_mm=(1.64, 1.64, 10.0),
            kind="elastogram_shear_kPa",
            data=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        write_volume(vol, tmp_path / "scan.json")
        back = load_volume(tmp_path / "scan.json")
        assert back.dims == (2, 2, 1)
        assert back.n_voxels == 4
        assert np.array_equal(back.data, vol.data)

    def test_size_mismatch_raises(self, tmp_path):
        header = {"dims": [2, 2, 1], "spacing_mm": [1.0, 1.0, 1.0], "kind": "elastogram_shear_kPa"}
        (tmp_path / "bad.json").write_text(json.dumps(header))
        np.zeros(5, dtype="<f4").tofile(tmp_path / "bad.raw")
        with pytest.raises(VolumeFormatError, match="5 scalars"):
            load_volume(tmp_path / "bad.json")

    def test_missing_raw_raises(self, tmp_path):
        header = {"dims": [1, 1, 1], "spacing_mm": [1.0, 1.0, 1.0], "kind": "elastogram_shear_kPa"}
        (tmp_path / "orphan.json").write_text(json.dumps(header))
        with pytest.raises(FileNotFoundError):
            load_volume(tmp_path / "orphan.json")

    def test_anatomical_volume_is_data_error(self, capsys, tmp_path):
        # Elastograms are the only kind; an anatomical scan fails as it loads.
        header = {"dims": [2, 1, 1], "spacing_mm": [1.0, 1.0, 1.0], "kind": "anatomical_intensity"}
        (tmp_path / "scan.json").write_text(json.dumps(header))
        np.array([1.0, -0.5], dtype="<f4").tofile(tmp_path / "scan.raw")
        with pytest.raises(VolumeFormatError, match="kind 'anatomical_intensity'"):
            load_volume(tmp_path / "scan.json")
        code = cli_main(["cohort-stats", "--volumes", str(tmp_path), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "kind 'anatomical_intensity'" in capsys.readouterr().err

    def test_roundtrip_bit_exact_randomized(self, tmp_path):
        # Oracle: the on-disk format is f32, so a volume built from f32 noise
        # must survive write + load with identical bits in every field.
        rng = np.random.default_rng(42)
        data = rng.random(8 * 8 * 3, dtype=np.float32) * 10.0
        vol = VoxelVolume(
            dims=(8, 8, 3),
            spacing_mm=(1.64, 1.64, 10.0),
            kind="elastogram_shear_kPa",
            data=data,
        )
        back = load_volume(write_volume(vol, tmp_path / "rt.json"))
        assert back.dims == vol.dims
        assert back.spacing_mm == vol.spacing_mm
        assert back.kind == vol.kind
        assert back.data.tobytes() == vol.data.tobytes(), "raw payload changed in round-trip"


class TestMeanShearModulus:
    def test_constant_volume(self):
        vol = make_volume(fill=3.0)
        mask = RoiMask(dims=vol.dims, flags=np.ones(vol.n_voxels, dtype=bool))
        assert mean_shear_modulus(vol, mask) == 3.0

    def test_two_voxel_mean(self):
        vol = VoxelVolume(
            dims=(4, 1, 1),
            spacing_mm=(1.0, 1.0, 1.0),
            kind="elastogram_shear_kPa",
            data=np.array([2.0, 4.0, 99.0, 99.0]),
        )
        flags = np.array([True, True, False, False])
        assert mean_shear_modulus(vol, RoiMask(dims=vol.dims, flags=flags)) == 3.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.random(16**3, dtype=np.float32) * 8.0
        vol = VoxelVolume(
            dims=(16, 16, 16),
            spacing_mm=(1.0, 1.0, 1.0),
            kind="elastogram_shear_kPa",
            data=data,
        )
        flags = rng.random(16**3) < 0.4
        flags[0] = True  # guarantee nonempty
        got = mean_shear_modulus(vol, RoiMask(dims=vol.dims, flags=flags))
        total, count = 0.0, 0
        for v, f in zip(vol.data, flags):
            if f:
                total += float(v)
                count += 1
        expected = total / count
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_rejects_empty_mask(self):
        vol = make_volume()
        mask = RoiMask(dims=vol.dims, flags=np.zeros(vol.n_voxels, dtype=bool))
        with pytest.raises(ValueError, match="no voxels"):
            mean_shear_modulus(vol, mask)


class TestShearToYoung:
    def test_atlas_value(self):
        # G = 0.7 kPa at nu = 0.5 is the 2.1 kPa atlas stiffness.
        assert shear_to_young(0.7, 0.5) == pytest.approx(2.1, rel=1e-12)

    def test_zero_shear(self):
        assert shear_to_young(0.0, 0.3) == 0.0

    def test_hand_value_nu_045(self):
        assert shear_to_young(1.0, 0.45) == pytest.approx(2.9, rel=1e-12)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError, match="Poisson"):
            shear_to_young(1.0, 0.6)

    def test_rejects_negative_G(self):
        with pytest.raises(ValueError, match="shear modulus"):
            shear_to_young(-0.1, 0.4)

    @pytest.mark.parametrize("G", [np.nan, np.inf, 10**400])
    def test_rejects_non_finite_G_by_name(self, G):
        with pytest.raises(ValueError, match="shear modulus must be finite and >= 0"):
            shear_to_young(G, 0.4)

    @given(
        g=st.floats(1e-3, 50.0, allow_nan=False),
        nu=st.floats(0.0, 0.5, allow_nan=False),
        dg=st.floats(1e-6, 5.0),
        dnu=st.floats(1e-6, 0.25),
    )
    def test_monotone_in_both_arguments(self, g, nu, dg, dnu):
        base = shear_to_young(g, nu)
        assert shear_to_young(g + dg, nu) > base
        if nu + dnu <= 0.5:
            assert shear_to_young(g, nu + dnu) > base


def _rec(e, g=None, rid="r"):
    return CohortRecord(id=rid, mean_shear_G=e / 3.0 if g is None else g, young_E=e)


class TestStiffnessHistogram:
    def test_constant_records(self):
        edges, counts = stiffness_histogram([_rec(2.1)] * 3, bin_width=1.0)
        assert counts.sum() == 3
        assert counts[2] == 3, "all records land in [2, 3)"
        assert np.count_nonzero(counts) == 1

    def test_edge_value_goes_right(self):
        edges, counts = stiffness_histogram([_rec(3.0)], bin_width=1.0)
        assert counts[3] == 1, "E exactly 3.0 falls in [3, 4)"
        assert edges[3] == 3.0 and edges[4] == 4.0

    def test_matches_bruteforce_binning(self):
        rng = np.random.default_rng(11)
        records = [_rec(float(e)) for e in rng.uniform(0.1, 9.5, size=120)]
        edges, counts = stiffness_histogram(records, bin_width=1.0)
        assert counts.sum() == 120
        brute = {}
        for r in records:
            b = int(r.young_E // 1.0)
            brute[b] = brute.get(b, 0) + 1
        for b, c in brute.items():
            assert counts[b] == c

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            stiffness_histogram([], bin_width=1.0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="bin width"):
            stiffness_histogram([_rec(1.0)], bin_width=0.0)

    @pytest.mark.parametrize("width", [-1.0, np.nan, np.inf])
    def test_rejects_width_not_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="bin width must be finite and > 0"):
            stiffness_histogram([_rec(1.0)], bin_width=width)

    @pytest.mark.parametrize("width, bins", [(1e-5, "600001"), (6.0 / MAX_HISTOGRAM_BINS, "10001"),
                                             (5e-324, "inf")])
    def test_rejects_width_needing_too_many_bins(self, width, bins):
        with pytest.raises(ValueError, match=f"bin width {width} needs {bins} bins"):
            stiffness_histogram([_rec(2.1), _rec(6.0)], bin_width=width)

    def test_largest_histogram_allowed(self):
        edges, counts = stiffness_histogram([_rec(0.0), _rec(9999.5)], bin_width=1.0)
        assert len(counts) == MAX_HISTOGRAM_BINS and counts.sum() == 2


class TestCohortStats:
    def test_all_at_atlas(self):
        assert cohort_stats([_rec(2.1)] * 4, atlas_E=2.1) == (0.0, 0.0)

    def test_hand_counted_fractions(self):
        # Thresholds at atlas 2.1: E > 3.1 catches {3.2, 4.3, 5.0};
        # E > 4.2 catches {4.3, 5.0}.
        records = [_rec(3.2), _rec(4.3), _rec(2.0), _rec(5.0)]
        assert cohort_stats(records, atlas_E=2.1) == (0.75, 0.50)

    def test_matches_bruteforce_count(self):
        rng = np.random.default_rng(3)
        records = [_rec(float(e)) for e in rng.uniform(0.5, 6.0, size=120)]
        frac1, frac2 = cohort_stats(records, atlas_E=2.1)
        n1 = sum(1 for r in records if r.young_E > 3.1)
        n2 = sum(1 for r in records if r.young_E > 4.2)
        assert frac1 == n1 / 120
        assert frac2 == n2 / 120

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            cohort_stats([], atlas_E=2.1)

    @pytest.mark.parametrize("atlas", [0.0, -2.1, np.nan, np.inf])
    def test_rejects_atlas_not_finite_and_positive(self, atlas):
        with pytest.raises(ValueError, match="atlas stiffness must be finite and > 0"):
            cohort_stats([_rec(2.1)], atlas_E=atlas)

    @settings(max_examples=50)
    @given(
        values=st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=1, max_size=40),
        atlas=st.floats(0.5, 8.0, allow_nan=False),
    )
    def test_fractions_equal_bruteforce_loops(self, values, atlas):
        records = [_rec(v, rid=f"r{i}") for i, v in enumerate(values)]
        frac1, frac2 = cohort_stats(records, atlas_E=atlas)
        assert frac1 == sum(v > atlas + 1.0 for v in values) / len(values)
        assert frac2 == sum(v > 2.0 * atlas for v in values) / len(values)


class TestCohortCsv:
    def test_roundtrip(self, tmp_path):
        records = [
            CohortRecord(id="case_000", mean_shear_G=0.7, young_E=2.1),
            CohortRecord(id="case_001", mean_shear_G=1.25, young_E=3.75),
        ]
        back = load_cohort_csv(write_cohort_csv(records, tmp_path / "cohort.csv"))
        assert len(back) == 2
        assert back[0].id == "case_000"
        assert back[0].mean_shear_G == 0.7
        assert back[1].young_E == 3.75

    @pytest.mark.parametrize("g, e", [("nan", "2.1"), ("0.7", "nan"), ("-0.1", "2.1"),
                                      ("0.7", "-2.1"), ("inf", "2.1"), ("0.7", "inf"),
                                      ("0.7", "abc")])
    def test_bad_modulus_rejected_naming_the_row(self, tmp_path, g, e):
        path = tmp_path / "cohort.csv"
        path.write_text(f"id,G_kPa,E_kPa\nok,0.7,2.1\nbad,{g},{e}\n")
        with pytest.raises(VolumeFormatError, match=r"line 3, row \['bad'"):
            load_cohort_csv(path)

    @pytest.mark.parametrize("field, named", [("mean_shear_G", "mean shear modulus"),
                                              ("young_E", "Young's modulus")])
    def test_int_past_every_float_is_rejected_by_name(self, field, named):
        moduli = {"mean_shear_G": 0.7, "young_E": 2.1, field: 10**400}
        with pytest.raises(ValueError, match=f"{named} must be finite and >= 0"):
            CohortRecord(id="big", **moduli)

    def test_zero_moduli_accepted(self):
        assert CohortRecord(id="z", mean_shear_G=0.0, young_E=0.0).young_E == 0.0


class TestWriteCsv:
    def test_floats_as_repr_others_unchanged(self, tmp_path):
        path = tmp_path / "new" / "dir" / "t.csv"
        values = [0.1 + 0.2, np.float64(1 / 3), np.float32(0.1)]
        assert _write_csv(path, ["a", "b", "c", "n", "s"], [(*values, 7, "x y")]) == path
        text = path.read_bytes().decode()
        assert text == "a,b,c,n,s\r\n" + ",".join(
            [repr(float(v)) for v in values] + ["7", "x y"]) + "\r\n"
        assert "0.30000000000000004,0.3333333333333333,0.10000000149011612," in text
