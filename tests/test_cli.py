"""End-to-end tests for the command-line harness and its exit-code contract."""

import argparse
import importlib
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import join_archive, make_field, split_archive

from elastosim.beam import VALIDATION_BEAMS
from elastosim.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    _point,
    build_parser,
    cli_main,
)
from elastosim.experiment import load_comparison_csv
from elastosim.meshfree import (
    DofSet,
    MeshFreeModel,
    ShapeMap,
    SystemMatrices,
    _nearest_nodes,
    _shepard,
    assemble_mass,
    assemble_stiffness,
    correct_gradients,
    save_model,
)
from elastosim.volume import VoxelVolume, load_cohort_csv, write_volume

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: the test extra installs tomli
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]
FAST_SYNTH = ["--dims", "10,9,8", "--voxel-mm", "2.0", "--nodes", "40", "--k", "6"]


def synth_args(out, n=2, seed=3):
    return ["synth-cohort", "--n", str(n), "--seed", str(seed),
            "--dims", "10,9,8", "--voxel-mm", "2.0", "--out", str(out)]


def test_console_script_names_cli_main():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["elastosim"]
    assert target == "elastosim.cli:cli_main"
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is cli_main


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli_main([]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_help_exits_clean(self, capsys):
        assert cli_main(["--help"]) == EXIT_OK

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli_main(["build-model"]) == EXIT_USAGE

    def test_both_cohort_sources_rejected(self, capsys, tmp_path):
        code = cli_main(["cohort-stats", "--csv", "a.csv", "--volumes", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_empty_volume_dir_is_data_error(self, capsys, tmp_path):
        code = cli_main(["cohort-stats", "--volumes", str(tmp_path), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "no volume headers" in capsys.readouterr().err

    def test_missing_volume_file_is_data_error(self, capsys, tmp_path):
        code = cli_main(["build-model", "--volume", str(tmp_path / "nope.json")])
        assert code == EXIT_DATA

    def test_bad_beam_resolution_is_data_error(self, capsys, tmp_path):
        code = cli_main(["validate-beam", "--resolution", "1.3", "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_beam_grid_past_the_factor_budget_is_data_error(self, capsys, tmp_path):
        # About 5e9 FEA node ids: rejected by size before any array exists.
        code = cli_main(["validate-beam", "--resolution", "0.01", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error: resolution 0.01 needs a" in capsys.readouterr().err
        assert not (tmp_path / "beam_convergence.csv").exists()

    @pytest.mark.parametrize("value", ["1e-300", "5e-324"])
    def test_beam_cell_count_past_every_float_is_data_error(self, capsys, tmp_path, value):
        # 50 mm / 1e-300 mm is 5e301 cells; 50 mm / 5e-324 mm overflows to inf.
        code = cli_main(["validate-beam", "--resolution", value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert f"data error: resolution {float(value)} spans L=50.0 with" in err
        assert "Traceback" not in err

    def test_negative_beam_seed_names_the_seed(self, capsys, tmp_path):
        code = cli_main(["validate-beam", "--resolution", "2.5", "--nodes", "120",
                         "--seed", "-1", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_beam_resolution_names_the_field(self, capsys, tmp_path, value):
        code = cli_main(["validate-beam", "--resolution", value, "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error: beam resolution must be finite" in capsys.readouterr().err

    def test_nan_voxel_is_data_error(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        raw = cohort / "case_000.raw"
        data = np.fromfile(raw, dtype="<f4")
        data[np.argmax(data)] = np.nan
        data.tofile(raw)
        code = cli_main(["build-model", "--volume", str(cohort / "case_000.json"),
                         "--out", str(tmp_path / "model.esm")])
        assert code == EXIT_DATA
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("dims", "abc"),
        ("dims", None),
        ("dims", [10, 9.5, 8]),
        ("spacing_mm", 5),
        ("spacing_mm", [2.0, "x", 2.0]),
        ("spacing_mm", [2.0, float("inf"), 2.0]),
    ])
    def test_malformed_volume_header_is_data_error(self, capsys, tmp_path, field, value):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        header_path = cohort / "case_000.json"
        header = json.loads(header_path.read_text())
        header[field] = value
        header_path.write_text(json.dumps(header))
        code = cli_main(["build-model", "--volume", str(header_path),
                         "--out", str(tmp_path / "model.esm")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_header_spacing_past_every_float_is_data_error(self, capsys, tmp_path):
        # JSON reads a 400-digit integer as a Python int, which no float can hold.
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        header_path = cohort / "case_000.json"
        header = json.loads(header_path.read_text())
        header["spacing_mm"][1] = 10**400
        header_path.write_text(json.dumps(header))
        capsys.readouterr()
        for argv in (["cohort-stats", "--volumes", str(cohort), "--out", str(tmp_path / "stats")],
                     ["build-model", "--volume", str(header_path),
                      "--out", str(tmp_path / "model.esm")]):
            assert cli_main(argv) == EXIT_DATA
            assert "spacing_mm must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "stats").exists() and not (tmp_path / "model.esm").exists()

    def test_bad_header_in_a_volume_directory_names_its_file(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=2)) == EXIT_OK
        header_path = cohort / "case_001.json"
        header = json.loads(header_path.read_text())
        header["spacing_mm"][1] = -1.0
        header_path.write_text(json.dumps(header))
        capsys.readouterr()
        code = cli_main(["cohort-stats", "--volumes", str(cohort), "--out", str(tmp_path / "s")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "case_001.json: spacing_mm must be finite and > 0, got -1.0" in err

    @pytest.mark.parametrize("command, needed", [
        ("build-model", ["--volume", "v.json"]), ("retract", ["--model", "m.esm"]),
        ("compare", ["--volume", "v.json"]), ("cohort-run", []),
    ])
    def test_settle_stepping_and_damping_have_no_flags(self, capsys, command, needed):
        # The settled state does not depend on them; RetractionConfig sets them.
        assert cli_main([command, "--help"]) == EXIT_OK
        help_text = capsys.readouterr().out
        for flag in ("--h-ms", "--v-tol", "--max-steps", "--alpha", "--beta"):
            assert flag not in help_text
            assert cli_main([command, *needed, flag, "1"]) == EXIT_USAGE
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "elastosim"], capture_output=True)
        assert proc.returncode == EXIT_USAGE
        proc = subprocess.run([sys.executable, "-m", "elastosim", "--help"],
                              capture_output=True)
        assert proc.returncode == EXIT_OK
        assert b"validate-beam" in proc.stdout


class TestSynthCohortCommand:
    def test_writes_volumes_and_csv(self, capsys, tmp_path):
        assert cli_main(synth_args(tmp_path, n=3)) == EXIT_OK
        for i in range(3):
            assert (tmp_path / f"case_{i:03d}.json").exists()
            assert (tmp_path / f"case_{i:03d}.raw").exists()
        records = load_cohort_csv(tmp_path / "cohort.csv")
        assert [r.id for r in records] == ["case_000", "case_001", "case_002"]

    def test_seeded_outputs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(synth_args(a)) == EXIT_OK
        assert cli_main(synth_args(b)) == EXIT_OK
        for name in ("cohort.csv", "case_000.json", "case_000.raw", "case_001.raw"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCohortStatsCommand:
    def test_volume_dir_and_csv_paths_agree(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=5)) == EXIT_OK
        out_v = tmp_path / "from_volumes"
        out_c = tmp_path / "from_csv"
        assert cli_main(["cohort-stats", "--volumes", str(cohort),
                         "--out", str(out_v)]) == EXIT_OK
        assert cli_main(["cohort-stats", "--csv", str(cohort / "cohort.csv"),
                         "--out", str(out_c)]) == EXIT_OK

        hist_v = (out_v / "cohort_hist.csv").read_text().splitlines()
        hist_c = (out_c / "cohort_hist.csv").read_text().splitlines()
        assert hist_v[0] == "bin_lo,bin_hi,count"
        # Same bins and counts whether G is re-measured from voxels or read back.
        assert [r.split(",")[2] for r in hist_v] == [r.split(",")[2] for r in hist_c]

        stats_v = (out_v / "cohort_stats.csv").read_text().splitlines()
        stats_c = (out_c / "cohort_stats.csv").read_text().splitlines()
        assert stats_v[0].startswith("n,median_E_kPa,frac_E_above")
        assert stats_v[1].split(",")[0] == "5"
        # Fractions are count ratios, so both paths must agree exactly.
        assert stats_v[1].split(",")[2:] == stats_c[1].split(",")[2:]

    def test_nan_modulus_row_is_data_error(self, capsys, tmp_path):
        csv_path = tmp_path / "cohort.csv"
        csv_path.write_text("id,G_kPa,E_kPa\nb,0.7,2.1\na,nan,nan\n")
        code = cli_main(["cohort-stats", "--csv", str(csv_path), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 3, row ['a', 'nan', 'nan']" in err and "got nan" in err

    def test_histogram_needing_too_many_bins_is_data_error(self, capsys, tmp_path):
        csv_path = tmp_path / "cohort.csv"
        csv_path.write_text("id,G_kPa,E_kPa\na,0.7,2.1\nb,2.0,6.0\n")
        out = tmp_path / "out"
        code = cli_main(["cohort-stats", "--csv", str(csv_path), "--bin-width", "1e-5",
                         "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "bin width 1e-05 needs 600001 bins" in err and "Traceback" not in err
        assert not (out / "cohort_hist.csv").exists()

    def test_histogram_counts_sum_to_n(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=4)) == EXIT_OK
        assert cli_main(["cohort-stats", "--volumes", str(cohort),
                         "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "cohort_hist.csv").read_text().splitlines()[1:]
        assert sum(int(r.split(",")[2]) for r in rows) == 4


def float_flags(*commands):
    """(command, flag, text type) of every flag of `commands` that parses floats."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.type)
            for command in commands for action in sub.choices[command]._actions
            if action.type in (float, _point)]


class TestNonFiniteFlags:
    """Every float flag, given nan or inf, is a data error at the boundary.

    Warnings are errors here: a value that slips past the checks shows up as a
    numpy RuntimeWarning before it turns into a late data error.
    """

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cohort")
        assert cli_main(synth_args(out, n=1)) == EXIT_OK
        return out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag, kind", float_flags(
        "cohort-stats", "synth-cohort", "cohort-run", "build-model"))
    def test_is_data_error(self, capsys, tmp_path, cohort, command, flag, kind, value):
        inputs = {
            "cohort-stats": ["--csv", str(cohort / "cohort.csv")],
            "synth-cohort": ["--n", "1", "--dims", "10,9,8", "--voxel-mm", "2.0"],
            "cohort-run": ["--synth-n", "1", "--dims", "10,9,8", "--voxel-mm", "2.0",
                           "--nodes", "20"],
            "build-model": ["--volume", str(cohort / "case_000.json"), "--nodes", "20"],
        }[command]
        text = f"{value},0,0" if kind is _point else value
        code = cli_main([command, *inputs, f"{flag}={text}", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert "data error" in err and "Traceback" not in err

    def test_float_flags_cover_the_cohort_knobs(self):
        flags = {flag for _, flag, _ in float_flags("cohort-stats", "synth-cohort")}
        assert flags == {"--bin-width", "--atlas-e-kpa", "--median-kpa", "--log-sd",
                         "--heterogeneity", "--voxel-mm"}

    @pytest.mark.parametrize("args, message", [
        (["synth-cohort", "--voxel-mm", "0"], "voxel_mm must be finite and > 0, got 0.0"),
        (["synth-cohort", "--dims", "2,2,2"],
         "case_000: the ellipsoid mask selects no voxel of dims (2, 2, 2)"),
        (["cohort-run", "--synth-n", "1", "--voxel-mm", "0"], "voxel_ref_mm must be finite and > 0, got 0.0"),
        # Squared distances across the grid overflow; the voxel volume underflows to 0.
        (["cohort-run", "--synth-n", "1", "--dims", "16,13,8", "--nodes", "40",
          "--voxel-mm", "1e200"], "spacing (1e+200, 1e+200, 1e+200) gives a voxel volume"),
        (["cohort-run", "--synth-n", "1", "--dims", "16,13,8", "--nodes", "40",
          "--voxel-mm", "1e-300"], "spacing (1e-300, 1e-300, 1e-300) gives a voxel volume"),
    ])
    def test_degenerate_synthetic_grid_is_data_error(self, capsys, tmp_path, args, message):
        code = cli_main([*args, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert message in err and "Traceback" not in err
        assert not any(tmp_path.iterdir()), "nothing is written"


class TestModelAndRetract:
    def test_build_retract_pipeline(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        # Two builds (Lloyd sampling included) write the same archive, and two
        # settles of it the same landmarks, byte for byte.
        models = [tmp_path / "model.esm", tmp_path / "model2.esm"]
        for model_path in models:
            code = cli_main(["build-model", "--volume", str(cohort / "case_000.json"),
                             "--nodes", "40", "--k", "6", "--out", str(model_path)])
            assert code == EXIT_OK
        assert models[0].read_bytes() == models[1].read_bytes()

        runs = [tmp_path / "run", tmp_path / "run2"]
        for run in runs:
            assert cli_main(["retract", "--model", str(models[0]), "--out", str(run)]) == EXIT_OK
        landmarks = [(run / "landmarks.csv").read_bytes() for run in runs]
        assert landmarks[0] == landmarks[1]
        rest = (runs[0] / "landmarks_rest.csv").read_text().splitlines()
        moved = landmarks[0].decode().splitlines()
        assert rest[0] == "label,x_mm,y_mm,z_mm"
        assert [r.split(",")[0] for r in rest] == ["label", "tool", "interior", "inferior"]
        assert len(moved) == 4
        assert rest[1:] != moved[1:]  # the hoist moved something

    def test_support_larger_than_node_count_is_data_error(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        model_path = tmp_path / "model.esm"
        code = cli_main(["build-model", "--volume", str(cohort / "case_000.json"),
                         "--nodes", "5", "--k", "8", "--out", str(model_path)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error: support size k=8 must lie in [2, 5], the node count" in err
        assert not model_path.exists()

    def test_support_size_one_is_data_error(self, capsys, tmp_path):
        # A lone support node has zero gradients, so K would store no entry.
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        model_path = tmp_path / "model.esm"
        code = cli_main(["build-model", "--volume", str(cohort / "case_000.json"),
                         "--nodes", "40", "--k", "1", "--out", str(model_path)])
        assert code == EXIT_DATA
        assert "data error: k must be >= 2, got 1" in capsys.readouterr().err
        assert not model_path.exists()

    def test_capped_cg_is_exit_3(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        model_path = tmp_path / "model.esm"
        assert cli_main(["build-model", "--volume", str(cohort / "case_000.json"),
                         "--nodes", "40", "--k", "6", "--out", str(model_path)]) == EXIT_OK
        code = cli_main(["retract", "--model", str(model_path), "--cg-max", "1",
                         "--cg-tol", "1e-30", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "solver error" in err and "after the cap of 1 iterations" in err


def _entry(header, name):
    return next(item for item in header["arrays"] if item["name"] == name)


def _patch_value(raw, name, value):
    """Archive with the first element of float array `name` set to `value`."""
    header, payload = split_archive(raw)
    offset = _entry(header, name)["offset"]
    return join_archive(header, payload[:offset] + struct.pack("<d", value) + payload[offset + 8:])


def _drop_k_data(header, payload):
    header["arrays"] = [item for item in header["arrays"] if item["name"] != "K_data"]
    return payload


def _offset_past_payload(header, payload):
    _entry(header, "K_indptr")["offset"] = len(payload)
    return payload


def _shape_overfills_bytes(header, payload):
    _entry(header, "shape_corrected")["shape"][0] += 1
    return payload


def _shape_short_of_dofs(header, payload):
    """K_indptr one node (three DOFs) short, its manifest consistent with its bytes."""
    item = _entry(header, "K_indptr")
    item["shape"][0] -= 3
    item["nbytes"] -= 3 * 8
    return payload


def _corrected_as_three_columns(header, payload):
    item = _entry(header, "shape_corrected")
    item["shape"] = [item["shape"][0] * item["shape"][1], 3]
    return payload


def _gradients_transposed(header, payload):
    _entry(header, "shape_corrected")["shape"][1:] = [3, 6]
    return payload


def _indices_two_columns(header, payload):
    """shape_indices read as its first 2m entries, 2 per voxel, beside 6-wide gradients."""
    item = _entry(header, "shape_indices")
    item["shape"][1] = 2
    item["nbytes"] = item["shape"][0] * 2 * 8
    return payload


def _indices_flat(header, payload):
    item = _entry(header, "shape_indices")
    item["shape"] = [item["shape"][0] * item["shape"][1]]
    return payload


def _owner_past_nodes(header, payload):
    """The first voxel's owner, the first entry of shape_indices, set to the node count."""
    offset = _entry(header, "shape_indices")["offset"]
    n_nodes = _entry(header, "nodes")["shape"][0]
    return payload[:offset] + struct.pack("<q", n_nodes) + payload[offset + 8:]


def _support_width_one(header, payload):
    """shape_indices and shape_corrected read as their first column's worth of entries."""
    for name, row_bytes in (("shape_indices", 8), ("shape_corrected", 3 * 8)):
        item = _entry(header, name)
        item["shape"][1] = 1
        item["nbytes"] = item["shape"][0] * row_bytes
    return payload


def _relabel(name, dtype):
    """A corruption that gives array `name` another dtype of the same item size."""
    def corrupt(header, payload):
        _entry(header, name)["dtype"] = dtype
        return payload
    return corrupt


def _extra_array(header, payload):
    """A manifest entry under a name no archive holds, over K_indptr's bytes."""
    header["arrays"].append({**_entry(header, "K_indptr"), "name": "K_extra"})
    return payload


def _scale_off_diagonal_k(raw, factor):
    """Archive with the first off-diagonal K_data entry of row 0 scaled by factor."""
    header, payload = split_archive(raw)
    columns = np.frombuffer(payload, np.int64, 4, _entry(header, "K_indices")["offset"])
    at = _entry(header, "K_data")["offset"] + 8 * int(np.flatnonzero(columns)[0])
    (value,) = struct.unpack_from("<d", payload, at)
    return join_archive(header, payload[:at] + struct.pack("<d", value * factor) + payload[at + 8:])


def _three_node_model():
    """A 3-node model of a 4x4x4 field, built by hand from the build's own parts.

    `build_model` refuses fewer than 4 nodes, so the nodes are three voxel
    centers and the shape map is the build's, at support size 2.
    """
    field = make_field(dims=(4, 4, 4))
    centers = field.masked_centers()
    nodes = centers[[0, 21, 63]]
    indices, _ = _nearest_nodes(centers, nodes, 2)
    weights, gradients = _shepard(centers, nodes, indices)
    shape = ShapeMap(indices=indices, weights=weights, gradients=gradients,
                     corrected_gradients=correct_gradients(gradients, nodes[indices]))
    matrices = SystemMatrices(M=assemble_mass(shape, field, n_nodes=3),
                              K=assemble_stiffness(shape, field, n_nodes=3), alpha=0.1, beta=0.01)
    return MeshFreeModel(field=field, dofs=DofSet(nodes=nodes, owner=indices[:, 0].copy()),
                         shape=shape, matrices=matrices)


def _column_index_past_dofs(header, payload):
    offset = _entry(header, "K_indices")["offset"]
    n_dofs = 3 * _entry(header, "nodes")["shape"][0]
    return payload[:offset] + struct.pack("<q", n_dofs) + payload[offset + 8:]


class TestCorruptModelArchive:
    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("archive")
        assert cli_main(synth_args(tmp / "cohort", n=1)) == EXIT_OK
        path = tmp / "model.esm"
        assert cli_main(["build-model", "--volume", str(tmp / "cohort" / "case_000.json"),
                         "--nodes", "40", "--k", "6", "--out", str(path)]) == EXIT_OK
        return path.read_bytes()

    def retract(self, tmp_path, raw):
        path = tmp_path / "bad.esm"
        path.write_bytes(raw)
        return cli_main(["retract", "--model", str(path), "--out", str(tmp_path)])

    def test_short_header_is_data_error(self, capsys, tmp_path, archive):
        assert self.retract(tmp_path, archive[:12]) == EXIT_DATA
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, named", [
        (_drop_k_data, "'K_data'"),
        (_offset_past_payload, "'K_indptr'"),
        (_shape_overfills_bytes, "'shape_corrected'"),
        (_shape_short_of_dofs, "'K_indptr' has shape (118,); 40 nodes need (121,)"),
        (_corrected_as_three_columns, "'shape_corrected' has shape (1488, 3)"),
        (_gradients_transposed, "'shape_corrected' has shape (248, 3, 6)"),
        (_indices_two_columns, "'shape_corrected' has shape (248, 6, 3); 248 masked voxels "
                               "and support size 2 need (248, 2, 3)"),
        (_indices_flat, "'shape_indices' has shape (1488,); 248 masked voxels need (248, k)"),
        (_column_index_past_dofs, "indices must be"),
        (_owner_past_nodes, "'shape_indices' holds a node index outside [0, 40)"),
        (_support_width_one, "support size k=1 must lie in [2, 40], the node count"),
        # Each relabelling loaded before: reinterpreted values that settled
        # (shape_corrected, volume_data), a solver error (K_data), or an
        # empty tool region (nodes).
        pytest.param(_relabel("K_data", "<i8"), "'K_data' must hold float64, not int64",
                     id="K_data-as-i8"),
        pytest.param(_relabel("K_data", "<u8"), "'K_data' must hold float64, not uint64",
                     id="K_data-as-u8"),
        pytest.param(_relabel("shape_corrected", "<i8"),
                     "'shape_corrected' must hold float64, not int64", id="shape_corrected-as-i8"),
        pytest.param(_relabel("volume_data", "<i4"), "'volume_data' must hold float32, not int32",
                     id="volume_data-as-i4"),
        pytest.param(_relabel("nodes", "<i8"), "'nodes' must hold float64, not int64",
                     id="nodes-as-i8"),
        # Each loaded before: the index arrays took any integers, and an
        # array of another name was read and ignored.
        pytest.param(_relabel("K_indices", "<u8"), "'K_indices' must hold int64, not uint64",
                     id="K_indices-as-u8"),
        pytest.param(_relabel("shape_indices", "<u8"),
                     "'shape_indices' must hold int64, not uint64", id="shape_indices-as-u8"),
        pytest.param(_extra_array, "unknown array 'K_extra'", id="unknown-array"),
    ])
    def test_bad_manifest_is_data_error(self, capsys, tmp_path, archive, corrupt, named):
        header, payload = split_archive(archive)
        payload = corrupt(header, payload)
        assert self.retract(tmp_path, join_archive(header, payload)) == EXIT_DATA
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, named", [
        ("alpha", "abc", "alpha must be a number"),
        ("alpha", True, "alpha must be a number"),
        ("density", "1060", "density must be a number"),
        ("density", True, "density must be a number"),  # would load as density 1
        ("beta", -0.5, "damping beta must be finite and >= 0"),
        pytest.param("alpha", 10**400, "damping alpha must be finite and >= 0",
                     id="alpha-int_past_every_float"),
        ("alpha", float("nan"), "alpha"),
        ("beta", float("inf"), "beta"),
        ("density", float("nan"), "density"),
        pytest.param("density", 10**400, "density must be finite and > 0",
                     id="density-int_past_every_float"),
        pytest.param("spacing_mm", [2.0, 10**400, 2.0], "spacing_mm must be finite and > 0",
                     id="spacing_mm-int_past_every_float"),
    ])
    def test_bad_header_scalar_is_data_error(self, capsys, tmp_path, archive, field, value, named):
        header, payload = split_archive(archive)
        header[field] = value
        assert self.retract(tmp_path, join_archive(header, payload)) == EXIT_DATA
        err = capsys.readouterr().err
        assert "bad.esm" in err and named in err

    @pytest.mark.parametrize("factor", [1.5, -1000.0])
    def test_k_unequal_to_its_transpose_is_data_error(self, capsys, tmp_path, archive, factor):
        # A corrupt K settled silently (x1.5) or failed as a solver fault (x-1000).
        assert self.retract(tmp_path, _scale_off_diagonal_k(archive, factor)) == EXIT_DATA
        err = capsys.readouterr().err
        assert "bad.esm: K differs from its transpose" in err

    def test_three_node_archive_is_data_error(self, capsys, tmp_path):
        # Loaded models pass the node-count rule that built ones do.
        raw = save_model(_three_node_model(), tmp_path / "three.esm").read_bytes()
        assert self.retract(tmp_path, raw) == EXIT_DATA
        err = capsys.readouterr().err
        assert "bad.esm: a 3D model needs at least 4 nodes, got 3" in err

    @pytest.mark.parametrize("name", ["K_data", "shape_corrected", "nodes"])
    def test_nan_array_is_data_error(self, capsys, tmp_path, archive, name):
        assert self.retract(tmp_path, _patch_value(archive, name, np.nan)) == EXIT_DATA
        assert f"array {name!r} holds a NaN or inf" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_unknown_version_is_data_error(self, capsys, tmp_path, archive, version):
        header, payload = split_archive(archive)
        header["version"] = version
        assert self.retract(tmp_path, join_archive(header, payload)) == EXIT_DATA
        assert f"version {version}" in capsys.readouterr().err


class TestCompareCommand:
    def test_single_case_report(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        code = cli_main(["compare", "--volume", str(cohort / "case_000.json"),
                         *FAST_SYNTH[4:], "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = load_comparison_csv(tmp_path / "comparison.csv")
        assert len(rows) == 1
        assert rows[0]["case"] == "case_000"
        assert rows[0]["at_tool_diff_mm"] >= rows[0]["mean_volume_diff_mm"] >= 0.0
        assert rows[0]["significant"] == (rows[0]["at_tool_diff_mm"] > 5.0)

    def test_diameter_alone_widens_the_tool(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        at_tool = []
        for diameter in ("10", "30"):
            out = tmp_path / diameter
            assert cli_main(["compare", "--volume", str(cohort / "case_000.json"),
                             *FAST_SYNTH[4:], "--diameter", diameter, "--out", str(out)]) == EXIT_OK
            at_tool.append(load_comparison_csv(out / "comparison.csv")[0]["at_tool_diff_mm"])
        assert at_tool[0] != at_tool[1]


    @pytest.mark.parametrize("flag, value, field", [
        ("--cg-max", "0", "cg_max"),
        ("--cg-tol", "nan", "cg_tol"),
        ("--cg-tol", "-1", "cg_tol"),
        ("--cg-tol", "1", "cg_tol"),
        ("--support-k", "nan", "abdomen_k"),
        ("--density", "nan", "density"),
        ("--mass-kg", "-5", "liver_mass_kg"),
        ("--significance-mm", "-1", "significance_mm"),
        ("--significance-mm", "nan", "significance_mm"),
        ("--diameter", "inf", "diameter"),
        ("--tool-center", "nan,0,0", "tool_center"),
        ("--atlas-e-kpa", "0", "atlas_e_kpa"),
        ("--atlas-e-kpa", "-1", "atlas_e_kpa"),
        ("--seed", "-1", "seed"),
        ("--k", "0", "k"),
    ])
    def test_bad_knob_is_data_error_naming_the_field(self, capsys, tmp_path, flag, value, field):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        code = cli_main(["compare", "--volume", str(cohort / "case_000.json"),
                         *FAST_SYNTH[4:], f"{flag}={value}", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert f"data error: {field} must be" in capsys.readouterr().err

    def test_far_tool_center_prints_plain_floats(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        code = cli_main(["compare", "--volume", str(cohort / "case_000.json"),
                         *FAST_SYNTH[4:], "--tool-center", "500,0,0", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "retractor center (500.0, 0.0, 0.0)" in capsys.readouterr().err


class TestCohortRunCommand:
    def test_synthetic_run_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["cohort-run", "--synth-n", "2", "--seed", "7", *FAST_SYNTH]
        assert cli_main([*base, "--out", str(a)]) == EXIT_OK
        assert cli_main([*base, "--out", str(b)]) == EXIT_OK
        assert (a / "comparison.csv").read_bytes() == (b / "comparison.csv").read_bytes()
        rows = load_comparison_csv(a / "comparison.csv")
        assert [r["case"] for r in rows] == ["case_000", "case_001"]

    def test_diameter_alone_changes_the_run(self, capsys, tmp_path):
        base = ["cohort-run", "--synth-n", "1", "--seed", "7", *FAST_SYNTH]
        assert cli_main([*base, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert cli_main([*base, "--diameter", "30", "--out", str(tmp_path / "b")]) == EXIT_OK
        a = load_comparison_csv(tmp_path / "a" / "comparison.csv")[0]
        b = load_comparison_csv(tmp_path / "b" / "comparison.csv")[0]
        assert a["at_tool_diff_mm"] != b["at_tool_diff_mm"]

    def test_bad_volume_is_skipped_and_counted(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        assert cli_main(synth_args(cohort, n=1)) == EXIT_OK
        # A volume with two positive voxels cannot host a 40-node model.
        data = np.zeros(10 * 9 * 8, dtype=np.float32)
        data[:2] = 0.7
        write_volume(VoxelVolume(dims=(10, 9, 8), spacing_mm=(2.0, 2.0, 2.0),
                                 kind="elastogram_shear_kPa", data=data),
                     cohort / "bad_case.json")
        code = cli_main(["cohort-run", "--cohort", str(cohort), *FAST_SYNTH,
                         "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "1 cases compared, 1 skipped" in out
        assert "skipped bad_case" in out
        rows = load_comparison_csv(tmp_path / "comparison.csv")
        assert [r["case"] for r in rows] == ["case_000"]

    def test_all_bad_volumes_is_data_error(self, capsys, tmp_path):
        cohort = tmp_path / "cohort"
        data = np.zeros(10 * 9 * 8, dtype=np.float32)
        data[:2] = 0.7
        write_volume(VoxelVolume(dims=(10, 9, 8), spacing_mm=(2.0, 2.0, 2.0),
                                 kind="elastogram_shear_kPa", data=data),
                     cohort / "bad_case.json")
        code = cli_main(["cohort-run", "--cohort", str(cohort), *FAST_SYNTH,
                         "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_support_size_one_is_data_error_before_any_settle(self, capsys, tmp_path):
        # K would store no entry, so every settle would fall freely to its step cap.
        code = cli_main(["cohort-run", "--seed", "7", "--k", "1", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error: k must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "comparison.csv").exists()

    def test_every_case_capped_is_solver_error(self, capsys, tmp_path):
        code = cli_main(["cohort-run", "--synth-n", "2", "--seed", "7", *FAST_SYNTH,
                         "--cg-max", "1", "--cg-tol", "1e-30", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "solver error: all 2 cohort cases failed" in err
        assert "after the cap of 1 iterations" in err
        assert not (tmp_path / "comparison.csv").exists()


class TestValidateBeamCommand:
    def test_benchmark_resolution_run(self, capsys, tmp_path):
        # Two runs write the same table, byte for byte.
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            code = cli_main(["validate-beam", "--resolution", "1.64", "--out", str(run)])
            assert code == EXIT_OK
        tables = [(run / "beam_convergence.csv").read_bytes() for run in runs]
        assert tables[0] == tables[1]
        lines = tables[0].decode().splitlines()
        assert lines[0] == "x_mm,w_theory_mm,w_fea_mm,w_meshfree_mm,err_fea_mm,err_meshfree_mm"
        assert len(lines) == 1 + 30 + 2  # header, clamp datum, 30 centers, tip
        out = capsys.readouterr().out
        assert "analytic tip 7.8125 mm" in out

    def test_support_size_has_no_flag(self, capsys, tmp_path):
        assert cli_main(["validate-beam", "--k", "6", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "unrecognized arguments: --k 6" in capsys.readouterr().err
        assert not (tmp_path / "beam_convergence.csv").exists()

    def test_help_prints_the_table_defaults(self, capsys):
        assert cli_main(["validate-beam", "--help"]) == EXIT_OK
        help_text = capsys.readouterr().out
        assert "--k" not in help_text
        (benchmark, bench_nodes), (slender, slender_nodes) = (VALIDATION_BEAMS["benchmark"],
                                                              VALIDATION_BEAMS["slender"])
        for value in (benchmark.resolution, slender.resolution, slender.h_beam,
                      bench_nodes, slender_nodes):
            assert str(value) in help_text

    def test_coarse_run_row_count(self, capsys, tmp_path):
        code = cli_main(["validate-beam", "--resolution", "2.5", "--nodes", "120",
                         "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "beam_convergence.csv").read_text().splitlines()
        assert len(lines) == 1 + 20 + 2
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
