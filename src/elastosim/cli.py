"""Command-line harness for the stiffness-driven deformation experiments.

Subcommands cover the three study stages plus plumbing:

* ``cohort-stats``: stiffness histogram and exceedance fractions from a cohort
  CSV or a directory of elastogram volumes.
* ``synth-cohort``: generate a synthetic cohort (volumes + cohort CSV).
* ``build-model``: elastogram volume -> mesh-free model archive.
* ``retract``: settle a hoisted model and write landmark positions.
* ``compare``: one elastogram vs the constant-atlas twin -> comparison row.
* ``cohort-run``: the comparison over a whole cohort, skipping bad cases.
* ``validate-beam``: cantilever benchmark against analytic theory and FEA.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 solver
non-convergence. All outputs are byte-deterministic for a fixed ``--seed`` at
one BLAS thread count; another thread count moves them by rounding (up to
4.4e-12 mm between 1 and 2 OpenBLAS threads).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from elastosim.beam import (
    VALIDATION_BEAMS,
    VALIDATION_K,
    VALIDATION_SEED,
    axis_samples,
    build_beam_phantom,
    convergence_error,
    fea_baseline,
    simulate_beam,
    theory_curve,
    write_beam_convergence_csv,
)
from elastosim.experiment import (
    SYNTH_DIMS,
    CohortCase,
    RetractionConfig,
    SyntheticCohortSpec,
    case_from_volume,
    compare_case,
    default_landmarks,
    run_cohort_retractions,
    synth_cohort,
    write_comparison_csv,
)
from elastosim.meshfree import load_model, save_model
from elastosim.solver import (
    IndefiniteSystemError,
    NonConvergenceError,
    displace_landmarks,
    write_landmarks_csv,
)
from elastosim.volume import (
    VolumeFormatError,
    _write_csv,
    cohort_stats,
    load_cohort_csv,
    load_volume,
    stiffness_histogram,
    write_cohort_csv,
    write_volume,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dims(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be NX,NY,NZ integers, got {text!r}")
    if len(parts) != 3 or any(p <= 0 for p in parts):
        raise argparse.ArgumentTypeError(f"dims must be 3 positive integers, got {text!r}")
    return parts


def _point(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"point must be X,Y,Z floats, got {text!r}")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"point must be 3 comma-separated floats, got {text!r}")
    return parts


def _knob(p: argparse.ArgumentParser, flag: str, dest: str, type, help: str,
          of=RetractionConfig, **kwargs):
    """A flag that sets field `dest` of the dataclass `of` and defaults to that field's default."""
    kwargs.setdefault("metavar", flag[2:].upper().replace("-", "_"))
    p.add_argument(flag, dest=dest, type=type, default=getattr(of, dest),
                   help=f"{help} (default %(default)s)", **kwargs)


def _add_model_flags(p: argparse.ArgumentParser):
    _knob(p, "--nodes", "n_nodes", int, "DOF node count")
    _knob(p, "--k", "k", int, "shape-function support size")
    _knob(p, "--seed", "seed", int, "RNG seed")
    _knob(p, "--sim-nu", "sim_nu", float, "Poisson ratio used in assembly")
    _knob(p, "--conversion-nu", "conversion_nu", float,
          "Poisson ratio for the E = 2G(1+nu) conversion")
    _knob(p, "--density", "density", float, "tissue density in kg/m^3")


def _add_retraction_flags(p: argparse.ArgumentParser):
    _knob(p, "--support-k", "abdomen_k", float, "abdomen support spring stiffness in N/mm")
    _knob(p, "--mass-kg", "liver_mass_kg", float,
          "hoisted mass in kg; unset takes the masked volume x density")
    _knob(p, "--cg-tol", "cg_tol", float, "CG relative residual tolerance, in (0, 1)")
    _knob(p, "--cg-max", "cg_max", int, "CG iteration cap per solve")
    _knob(p, "--tool-center", "tool_center", _point,
          "retractor center in mm; unset takes the +x pole of the mask", metavar="X,Y,Z")
    _knob(p, "--diameter", "diameter", float, "retractor diameter in mm")


def _add_comparison_flags(p: argparse.ArgumentParser):
    _knob(p, "--atlas-e-kpa", "atlas_e_kpa", float, "population atlas Young's modulus in kPa")
    _knob(p, "--significance-mm", "significance_mm", float,
          "clinical significance threshold in mm")


def _add_synth_flags(p: argparse.ArgumentParser):
    _knob(p, "--median-kpa", "median_kpa", float, "log-normal median of mean shear G in kPa",
          of=SyntheticCohortSpec)
    _knob(p, "--log-sd", "log_sd", float, "log-normal sd of mean shear G", of=SyntheticCohortSpec)
    _knob(p, "--heterogeneity", "heterogeneity", float,
          "within-volume stiffness variation fraction", of=SyntheticCohortSpec)
    p.add_argument("--dims", type=_dims, default=SYNTH_DIMS, metavar="NX,NY,NZ",
                   help="synthetic volume grid (default %(default)s)")
    _knob(p, "--voxel-mm", "voxel_ref_mm", float, "voxel pitch in mm")


def _load_volume_cases(dir_path: Path) -> list[CohortCase]:
    """Read every `<case>.json` elastogram in a directory as a cohort case."""
    if not dir_path.is_dir():
        raise VolumeFormatError(f"not a directory: {dir_path}")
    headers = sorted(dir_path.glob("*.json"))
    if not headers:
        raise VolumeFormatError(f"no volume headers (*.json) in {dir_path}")
    return [case_from_volume(load_volume(header), header.stem) for header in headers]


def _config(args, of=RetractionConfig):
    """The command's `of` config: each field its flags set, the others at their defaults."""
    return of(**{f.name: getattr(args, f.name) for f in fields(of) if hasattr(args, f.name)})


def cmd_cohort_stats(args) -> int:
    if args.csv is not None:
        records = load_cohort_csv(args.csv)
    else:
        records = [c.record for c in _load_volume_cases(Path(args.volumes))]
    edges, counts = stiffness_histogram(records, bin_width=args.bin_width)
    frac_plus1, frac_double = cohort_stats(records, atlas_E=args.atlas_e_kpa)
    out = Path(args.out)
    hist_path = _write_csv(out / "cohort_hist.csv", ["bin_lo", "bin_hi", "count"],
                           zip(edges[:-1], edges[1:], counts.tolist()))
    median_e = float(np.median([r.young_E for r in records]))
    stats_path = _write_csv(
        out / "cohort_stats.csv",
        ["n", "median_E_kPa", "frac_E_above_atlas_plus_1kPa", "frac_E_above_double_atlas"],
        [(len(records), median_e, frac_plus1, frac_double)],
    )

    print(f"{len(records)} records -> {hist_path}, {stats_path}")
    print(f"median E {median_e:.3f} kPa; {frac_plus1:.1%} above atlas+1 kPa; "
          f"{frac_double:.1%} above 2x atlas")
    return EXIT_OK


def cmd_synth_cohort(args) -> int:
    cases = synth_cohort(_config(args, SyntheticCohortSpec), dims=args.dims,
                         voxel_mm=args.voxel_ref_mm)
    out = Path(args.out)
    for case in cases:
        write_volume(case.volume, out / f"{case.record.id}.json")
    csv_path = write_cohort_csv([c.record for c in cases], out / "cohort.csv")
    print(f"wrote {len(cases)} volumes and {csv_path}")
    return EXIT_OK


def cmd_build_model(args) -> int:
    config = _config(args)
    case = case_from_volume(load_volume(args.volume), Path(args.volume).stem)
    model = config.measured_model(case)
    path = save_model(model, Path(args.out))
    print(f"{model.n_nodes} nodes / {model.n_dofs} DOFs, "
          f"mass {model.total_mass_kg * 1000:.1f} g -> {path}")
    return EXIT_OK


def cmd_retract(args) -> int:
    config = _config(args)
    model = load_model(args.model)
    retractor = config.retractor(model.field)
    state = config.settle(model, retractor)
    marks = default_landmarks(model, retractor)
    moved = displace_landmarks(model, state.q, marks)
    out = Path(args.out)
    rest_path = write_landmarks_csv(marks, out / "landmarks_rest.csv")
    moved_path = write_landmarks_csv(moved, out / "landmarks.csv")
    shift = max(float(np.linalg.norm(b - a)) for (_, a), (_, b) in zip(marks, moved))
    print(f"settled at t={state.t:.2f} s; largest landmark shift {shift:.3f} mm")
    print(f"wrote {rest_path} and {moved_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _config(args)
    case = case_from_volume(load_volume(args.volume), Path(args.volume).stem)
    report = compare_case(case, config)
    path = write_comparison_csv([report], Path(args.out) / "comparison.csv")
    print(f"{report.case_id}: mean {report.mean_volume_diff:.3f} mm, "
          f"at tool {report.at_tool_diff:.3f} mm, "
          f"significant={'true' if report.significant else 'false'} -> {path}")
    return EXIT_OK


def cmd_cohort_run(args) -> int:
    config = _config(args)
    if args.cohort is not None:
        cases = _load_volume_cases(Path(args.cohort))
    else:
        cases = synth_cohort(_config(args, SyntheticCohortSpec), dims=args.dims,
                             voxel_mm=config.voxel_ref_mm)
    result = run_cohort_retractions(cases, config)
    path = write_comparison_csv(result.reports, Path(args.out) / "comparison.csv")
    n_sig = sum(1 for r in result.reports if r.significant)
    print(f"{len(result.reports)} cases compared, {len(result.skipped)} skipped -> {path}")
    print(f"significant at tool: {n_sig}/{len(result.reports)}")
    for case_id, reason in result.skipped:
        print(f"skipped {case_id}: {reason}")
    return EXIT_OK


def cmd_validate_beam(args) -> int:
    label = "slender" if args.slender else "benchmark"
    spec, n_nodes = VALIDATION_BEAMS[label]
    spec = spec if args.resolution is None else replace(spec, resolution=args.resolution)
    n_nodes = n_nodes if args.nodes is None else args.nodes

    theory = theory_curve(spec, axis_samples(spec))
    fea = fea_baseline(spec)
    phantom = build_beam_phantom(spec, n_nodes=n_nodes, k=VALIDATION_K, seed=args.seed)
    mesh = simulate_beam(phantom)
    err_fea = convergence_error(fea, theory)
    err_mesh = convergence_error(mesh, theory)
    path = write_beam_convergence_csv(theory, fea, mesh, Path(args.out) / "beam_convergence.csv")

    print(f"{label} beam at {spec.resolution} mm: analytic tip {theory.tip_deflection:.4f} mm")
    print(f"FEA        max_abs {err_fea['max_abs']:.5f} mm, rms {err_fea['rms']:.5f} mm")
    print(f"mesh-free  max_abs {err_mesh['max_abs']:.5f} mm, rms {err_mesh['rms']:.5f} mm "
          f"({n_nodes} nodes, k={VALIDATION_K})")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elastosim",
        description="Stiffness-driven soft-tissue deformation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("cohort-stats",
                       help="histogram + exceedance fractions for a stiffness cohort")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="cohort CSV (id,G_kPa,E_kPa)")
    src.add_argument("--volumes", help="directory of elastogram volumes (*.json + *.raw)")
    p.add_argument("--bin-width", type=float, default=1.0,
                   help="histogram bin width in kPa (default 1.0)")
    _knob(p, "--atlas-e-kpa", "atlas_e_kpa", float, "population atlas Young's modulus in kPa")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_cohort_stats)

    p = sub.add_parser("synth-cohort", help="generate a synthetic stiffness cohort")
    p.add_argument("--n", type=int, default=120, help="number of cases (default 120)")
    _knob(p, "--seed", "seed", int, "RNG seed", of=SyntheticCohortSpec)
    _add_synth_flags(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_synth_cohort)

    p = sub.add_parser("build-model", help="build a mesh-free model from an elastogram")
    p.add_argument("--volume", required=True, help="elastogram volume header (.json)")
    _add_model_flags(p)
    p.add_argument("--out", default="model.esm", help="model archive path (default model.esm)")
    p.set_defaults(func=cmd_build_model)

    p = sub.add_parser("retract", help="hoist a model and write landmark positions")
    p.add_argument("--model", required=True, help="model archive from build-model")
    _add_retraction_flags(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_retract)

    p = sub.add_parser("compare",
                       help="one elastogram vs its constant-atlas twin -> comparison.csv")
    p.add_argument("--volume", required=True, help="elastogram volume header (.json)")
    _add_model_flags(p)
    _add_retraction_flags(p)
    _add_comparison_flags(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cohort-run",
                       help="measured-vs-atlas comparison over a whole cohort")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--cohort", help="directory of elastogram volumes")
    src.add_argument("--synth-n", dest="n", type=int, default=3,
                     help="synthesize this many cases instead (default 3)")
    _add_synth_flags(p)
    _add_model_flags(p)
    _add_retraction_flags(p)
    _add_comparison_flags(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_cohort_run)

    p = sub.add_parser("validate-beam",
                       help="cantilever benchmark: analytic theory vs FEA vs mesh-free")
    (bench, bench_nodes), (slender, slender_nodes) = (VALIDATION_BEAMS["benchmark"],
                                                      VALIDATION_BEAMS["slender"])
    p.add_argument("--resolution", type=float, default=None,
                   help=f"voxel/element edge in mm (default {bench.resolution}; "
                        f"{slender.resolution} with --slender)")
    p.add_argument("--slender", action="store_true",
                   help=f"thin-beam variant (h={slender.h_beam} mm) where bending theory is exact")
    p.add_argument("--nodes", type=int, default=None,
                   help=f"mesh-free node count (default {bench_nodes}; "
                        f"{slender_nodes} with --slender)")
    p.add_argument("--seed", type=int, default=VALIDATION_SEED,
                   help="Lloyd seed (default %(default)s)")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_validate_beam)

    return parser


def cli_main(argv=None) -> int:
    """Parse arguments, dispatch, and map failures onto the exit-code contract."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (NonConvergenceError, IndefiniteSystemError) as exc:
        print(f"elastosim: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (VolumeFormatError, ValueError, OSError) as exc:
        print(f"elastosim: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
