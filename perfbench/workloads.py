"""The benchmark's workloads: the CLI calls of one pass, and the checks on its outputs.

Each workload turns the run's seed into the argument lists of one pass, runs
them in-process through `elastosim.cli.cli_main`, and checks what the pass
wrote.  A check names the operations that failed; an operation is a compared
cohort case, a beam curve, or a built model.

Inputs and tolerances of the checks are fixed here, before any measurement:

* cohort: each case's `mean_volume_diff_mm` and `at_tool_diff_mm` within
  `SETTLE_TOL_MM` of a sparse direct solve of the static equilibrium, and
  `comparison.csv` byte-identical across the run's passes.
* beam: the acceptance bounds of `tests/test_acceptance.py`.
* build: each archive loads back to the arrays that were built; K is
  symmetric and annihilates rigid translations; total mass equals density
  times masked volume.
"""

from __future__ import annotations

import contextlib
import csv
import io
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The settle runs implicit Euler until |qdot|_inf < 1e-6 mm/s for three steps;
# its distance from the static equilibrium is orders of magnitude below this
# bound, which is still far below the 1.64 mm voxel and 5 mm significance.
SETTLE_TOL_MM = 1e-6
BEAM_FEA_BOUND_MM = 0.0164
BEAM_MESHFREE_BOUND_MM = 0.05
# Relative tolerances of the build checks, a few thousand float64 ulps.
SYMMETRY_RTOL = 1e-12
TRANSLATION_RTOL = 1e-9
MASS_RTOL = 1e-9
DENSITY_KG_M3 = 1060.0  # the CLI default, passed explicitly to build-model


def cli(argv: list[str]) -> int:
    """Run one CLI command in-process with its console output discarded."""
    from elastosim import cli as cli_module

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_module.cli_main([str(a) for a in argv])


@dataclass
class Checked:
    """Operations that failed a check, and the values the check measured."""

    failed: set = field(default_factory=set)
    values: dict = field(default_factory=dict)


class Workload:
    """One workload at one seed; `ops` labels the operations of a pass."""

    name = ""
    ops: frozenset = frozenset()

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def run_pass(self, passdir: Path, tracer) -> None:
        raise NotImplementedError

    def check_pass(self, passdir: Path, tracer) -> Checked:
        raise NotImplementedError

    def final_check(self) -> Checked:
        """Checks made once per run, after timing; failures apply to every pass."""
        return Checked()


class Cohort(Workload):
    """`cohort-run --seed s` for three seeds s derived from the run's seed.

    Each command settles 3 synthetic cases measured and atlas.  Three
    commands per pass average out how much the random ellipsoid sizes, and
    with them the work and peak memory, vary between seeds.
    """

    name = "cohort"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.seeds = (3 * seed, 3 * seed + 1, 3 * seed + 2)
        self.n_cases = 2 if smoke else 3
        self.dims = (16, 13, 8) if smoke else (32, 26, 16)
        self.nodes = 40 if smoke else 300
        self.ops = frozenset(f"{s}/case_{i:03d}" for s in self.seeds for i in range(self.n_cases))
        self.first_csv: dict[int, bytes] = {}
        self.rows: dict[int, list[dict]] = {}

    def run_pass(self, passdir, tracer):
        self.rc, self.spans = {}, {}
        for s in self.seeds:
            lo = len(tracer.spans)
            argv = ["cohort-run", "--seed", s]
            if self.smoke:
                argv += ["--synth-n", self.n_cases, "--dims", ",".join(map(str, self.dims)),
                         "--nodes", self.nodes]
            self.rc[s] = cli(argv + ["--out", passdir / f"seed{s}"])
            self.spans[s] = (lo, len(tracer.spans))

    def check_pass(self, passdir, tracer):
        from elastosim.experiment import load_comparison_csv

        res = Checked()
        for s in self.seeds:
            ids = {f"case_{i:03d}" for i in range(self.n_cases)}
            path = passdir / f"seed{s}" / "comparison.csv"
            if self.rc[s] != 0 or not path.exists():
                failed = ids
            else:
                raw = path.read_bytes()
                rows = load_comparison_csv(path)
                self.rows.setdefault(s, rows)
                if raw != self.first_csv.setdefault(s, raw):
                    failed = ids  # not byte-identical to the first pass
                else:
                    failed = ids - {r["case"] for r in rows}  # skipped cases
                failed |= tracer.failed_labels(*self.spans[s]) & ids
            res.failed |= {f"{s}/{case}" for case in failed}
        return res

    def final_check(self):
        """Compare the first pass's rows with a direct solve of the static equilibrium."""
        gaps, failed = [], set()
        for s, rows in self.rows.items():
            ref = cohort_reference(s, self.n_cases, self.dims, self.nodes)
            for row in rows:
                want = ref.get(row["case"])
                gap = float("inf") if want is None else max(
                    abs(row["mean_volume_diff_mm"] - want[0]),
                    abs(row["at_tool_diff_mm"] - want[1]))
                gaps.append(gap)
                if not gap <= SETTLE_TOL_MM:
                    failed.add(f"{s}/{row['case']}")
        return Checked(failed, {"settle_err_mm": max(gaps, default=0.0)})


def static_displacement(model, loads) -> np.ndarray:
    """Solve (K + springs) q = f_ext directly; the state the settle must reach."""
    from elastosim.solver import external_force

    diag = np.zeros(model.n_dofs)
    for i, k, _ in loads.support_springs:
        diag[3 * i:3 * i + 3] += k
    return spla.spsolve((model.matrices.K + sp.diags(diag)).tocsc(), external_force(model, loads))


def cohort_reference(seed, n_cases, dims, nodes) -> dict[str, tuple[float, float]]:
    """(mean_volume_diff_mm, at_tool_diff_mm) per case from static direct solves.

    Rebuilds each case with the CLI's defaults through the public API, so the
    models are the ones `cohort-run` settles.
    """
    from elastosim.experiment import (
        RetractionConfig,
        SyntheticCohortSpec,
        default_retractor,
        retraction_load_case,
        synth_cohort,
        young_material_field,
    )
    from elastosim.meshfree import build_model

    cfg = RetractionConfig(n_nodes=nodes, seed=seed)
    out = {}
    for case in synth_cohort(SyntheticCohortSpec(n=n_cases, seed=seed), dims=dims,
                             voxel_mm=cfg.voxel_ref_mm):
        field_ = young_material_field(case.volume, case.mask, conversion_nu=cfg.conversion_nu,
                                      sim_nu=cfg.sim_nu, density=cfg.density)
        model = build_model(field_, n_nodes=cfg.n_nodes, k=cfg.k, alpha=cfg.alpha,
                            beta=cfg.beta, seed=cfg.seed)
        atlas = model.with_constant_young(cfg.atlas_e_kpa)
        retractor = default_retractor(field_)
        q = [static_displacement(m, retraction_load_case(m, retractor, cfg.liver_mass_kg,
                                                          cfg.abdomen_k))
             for m in (model, atlas)]
        diff = np.linalg.norm((q[0] - q[1]).reshape(-1, 3), axis=1)
        region = retractor.map_region(model.dofs.nodes)
        out[case.record.id] = (float(diff.mean()), float(diff[region].max()))
    return out


class Beam(Workload):
    """`validate-beam --slender`: hex FEA and mesh-free settle against theory.

    The cantilever is a fixed validation problem, so its inputs ignore the
    seed: the Lloyd seed stays 0, the sampling the acceptance bounds were set
    on.  Other samplings can exceed the 0.05 mm mesh-free bound.
    """

    name = "beam"
    ops = frozenset({"fea", "meshfree"})

    def run_pass(self, passdir, tracer):
        argv = ["validate-beam", "--slender", "--seed", 0, "--out", passdir]
        if self.smoke:
            argv += ["--resolution", "1.25", "--nodes", "150"]
        lo = len(tracer.spans)
        self.rc = cli(argv)
        self.spans = (lo, len(tracer.spans))

    def check_pass(self, passdir, tracer):
        curves = {"fea": "beam.fea_baseline", "meshfree": "beam.simulate_beam"}
        res = Checked()
        path = passdir / "beam_convergence.csv"
        if self.rc != 0 or not path.exists():
            res.failed = set(curves)
            return res
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        err = {
            "fea": max(float(r["err_fea_mm"]) for r in rows),
            "meshfree": max(float(r["err_meshfree_mm"]) for r in rows),
        }
        bounds = self.bounds()
        capped = tracer.failed_labels(*self.spans)
        res.failed = {c for c, span in curves.items()
                      if span in capped or not err[c] <= bounds[c]}
        res.values = {"fea_err_mm": err["fea"], "beam_err_mm": err["meshfree"]}
        return res

    def bounds(self):
        if self.smoke:
            # The smoke beam is 2x coarser than the acceptance beam; these
            # bounds only catch a broken pipeline, not an accuracy change.
            return {"fea": 0.1, "meshfree": 0.3}
        return {"fea": BEAM_FEA_BOUND_MM, "meshfree": BEAM_MESHFREE_BOUND_MM}


class Build(Workload):
    """The README's file flow with no solve: volumes, stats, model archives."""

    name = "build"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.n_cases = 2 if smoke else 8
        self.ops = frozenset(f"case_{i:03d}" for i in range(self.n_cases))
        self.size = ["--dims", "16,13,8"] if smoke else []
        self.nodes = 40 if smoke else 300

    def run_pass(self, passdir, tracer):
        from elastosim import meshfree

        vols, stats, models = passdir / "volumes", passdir / "stats", passdir / "models"
        self.rc = cli(["synth-cohort", "--n", self.n_cases, "--seed", self.seed,
                       "--heterogeneity", "0.3", *self.size, "--out", vols])
        self.rc |= cli(["cohort-stats", "--volumes", vols, "--out", stats])
        # Only a digest of each built model is kept, so the benchmark holds no
        # model between commands and peak RSS stays the program's own.
        self.built = {}
        for header in sorted(vols.glob("case_*.json")):
            self.rc |= cli(["build-model", "--volume", header, "--seed", self.seed,
                            "--nodes", self.nodes, "--density", DENSITY_KG_M3,
                            "--out", models / f"{header.stem}.esm"])
            for path, model in tracer.saved_models:
                self.built[path.stem] = model_digest(model)
            tracer.saved_models.clear()
        for path in sorted(models.glob("*.esm")):
            meshfree.load_model(path)

    def check_pass(self, passdir, tracer):
        from elastosim.meshfree import load_model

        ids = set(self.ops)
        res = Checked()
        if self.rc != 0 or not self._stats_ok(passdir / "stats" / "cohort_stats.csv"):
            res.failed = set(ids)
            return res
        for case in ids:
            path = passdir / "models" / f"{case}.esm"
            digest = self.built.get(case)
            if digest is None or not path.exists() or not model_checks(digest, load_model(path)):
                res.failed.add(case)
        return res

    def _stats_ok(self, path: Path) -> bool:
        if not path.exists():
            return False
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return len(rows) == 1 and int(rows[0]["n"]) == self.n_cases


def _model_arrays(model) -> dict[str, np.ndarray]:
    K, C = model.matrices.K.tocsr(), model.matrices.C.tocsr()
    return {
        "volume": model.field.volume.data, "mask": model.field.mask.flags,
        "nodes": model.dofs.nodes, "owner": model.dofs.owner,
        "indices": model.shape.indices, "weights": model.shape.weights,
        "gradients": model.shape.gradients, "corrected": model.shape.corrected_gradients,
        "M": model.matrices.M, "K_data": K.data, "K_indices": K.indices,
        "K_indptr": K.indptr, "C_data": C.data, "C_indices": C.indices,
        "C_indptr": C.indptr, "q0": model.q0,
    }


def model_digest(model) -> dict[str, tuple]:
    """Shape and CRC-32 of every array of a model; equal digests mean equal values.

    Index arrays are widened to int64 first, because scipy may store the CSR
    indices of a loaded matrix in a narrower type than the built one.
    """
    digest = {}
    for name, a in _model_arrays(model).items():
        a = np.ascontiguousarray(a, dtype=np.int64 if a.dtype.kind in "iu" else a.dtype)
        digest[name] = (a.shape, a.dtype.str, zlib.crc32(a.view(np.uint8).ravel()))
    return digest


def model_checks(built_digest, loaded) -> bool:
    """Round trip exact; K symmetric and translation-free; mass = rho * masked volume."""
    if model_digest(loaded) != built_digest:
        return False
    K = loaded.matrices.K.tocsr()
    scale = float(abs(K).max())
    if not abs(K - K.T).max() <= SYMMETRY_RTOL * scale:
        return False
    for axis in range(3):
        t = np.zeros(loaded.n_dofs)
        t[axis::3] = 1.0
        if not np.abs(K @ t).max() <= TRANSLATION_RTOL * scale:
            return False
    field_ = loaded.field
    want_kg = DENSITY_KG_M3 * field_.mask.n_selected * field_.voxel_volume_mm3 * 1e-9
    return abs(loaded.total_mass_kg - want_kg) <= MASS_RTOL * want_kg


WORKLOADS = {w.name: w for w in (Cohort, Beam, Build)}
