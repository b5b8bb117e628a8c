"""Spans and counts recorded around elastosim's public functions.

`Tracer.install` replaces every public function of the six elastosim modules,
in every module namespace that binds it, with a wrapper that records a span
(name, start, end, parent) and, for a few functions, counts taken from the
return value (iterations from `CgResult`, nnz of an assembled K, bytes of a
file written or read).  Because modules call each other through their own
globals (`beam` binds `cg_solve`, `experiment` binds `run_to_steady_state`),
wrapping only the defining module would miss those calls.

The untraced run installs the same machinery restricted to `MONITORED`: a
handful of calls per pass that the output checks need (capped CG solves and
the operation they belong to, and each model handed to `save_model`).  Spans
stay in memory; `write` dumps them once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

MODULES = ("volume", "meshfree", "solver", "beam", "experiment", "cli")

# Operations a capped CG solve inside them fails.  `save_model` is monitored
# so that the build check can digest each model as it is saved.
OPERATIONS = ("experiment.compare_case", "beam.fea_baseline", "beam.simulate_beam")
MONITORED = frozenset(OPERATIONS + ("solver.cg_solve", "meshfree.save_model"))

# Self time of each function goes to one layer metric; functions not listed
# fall back to the default of their module.
LAYER_OF = {
    "volume.load_volume": "volume.io_s",
    "volume.write_volume": "volume.io_s",
    "volume.load_cohort_csv": "volume.io_s",
    "volume.write_cohort_csv": "volume.io_s",
    "volume.load_polygon": "volume.io_s",
    "volume.write_polygon": "volume.io_s",
    "experiment.synth_cohort": "experiment.synth_s",
    "experiment.ellipsoid_mask": "experiment.synth_s",
    "experiment.stiff_inclusion_case": "experiment.synth_s",
    "experiment.write_comparison_csv": "cli.self_s",
    "meshfree.sample_dofs": "meshfree.sample_s",
    "meshfree.shape_weights": "meshfree.shape_s",
    "meshfree.shepard_weights": "meshfree.shape_s",
    "meshfree.correct_gradients": "meshfree.shape_s",
    "meshfree.save_model": "meshfree.archive_s",
    "meshfree.load_model": "meshfree.archive_s",
    "solver.build_system": "solver.system_s",
    "solver.implicit_system": "solver.system_s",
    "solver.external_force": "solver.system_s",
    "solver.cg_solve": "solver.cg_s",
    "solver.displace_landmarks": "solver.landmarks_s",
    "solver.write_landmarks_csv": "cli.self_s",
    "solver.write_trajectory_csv": "cli.self_s",
    "beam.build_beam_phantom": "beam.phantom_s",
    "beam.beam_load_case": "beam.phantom_s",
    "beam.fea_baseline": "beam.fea_s",
    "beam.write_beam_convergence_csv": "cli.self_s",
}
MODULE_DEFAULT = {
    "volume": "volume.stats_s",
    "experiment": "experiment.compare_s",
    "meshfree": "meshfree.assemble_s",
    "solver": "solver.settle_s",
    "beam": "beam.curves_s",
    "cli": "cli.self_s",
}
TIME_LAYERS = tuple(sorted(set(LAYER_OF.values()) | set(MODULE_DEFAULT.values())))
COUNTS = (
    "volume.bytes",
    "experiment.cases",
    "experiment.cases_skipped",
    "meshfree.nnz_K",
    "meshfree.n_dofs",
    "meshfree.archive_bytes",
    "solver.steps",
    "solver.solves",
    "solver.cg_iterations",
    "solver.cg_capped",
    "solver.cg_flops_computed",
    "solver.cg_bytes_computed",
    "beam.fea_cg_iterations",
)


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, MODULE_DEFAULT[name.split(".", 1)[0]])


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def _volume_paths(path) -> tuple[Path, Path]:
    header = Path(path)
    header = header if header.suffix == ".json" else header.with_suffix(".json")
    return header, header.with_suffix(".raw")


class Tracer:
    """In-memory span and count recorder for one run."""

    def __init__(self, only: frozenset | None = None):
        self.only = only
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.max_residual = 0.0  # reset by the caller at each pass
        self.max_csr_bytes = 0
        self.failed_ops: set[int] = set()  # span indices of failed operations
        self.case_ids: dict[int, str] = {}  # compare_case span index -> case id
        self.saved_models: list = []  # (path, model) pairs from save_model
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap public elastosim functions in every namespace that binds them."""
        import elastosim

        namespaces = [importlib.import_module(f"elastosim.{m}") for m in MODULES]
        wrappers = {}
        for ns in namespaces + [elastosim]:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                module = getattr(obj, "__module__", "") or ""
                if not module.startswith("elastosim."):
                    continue
                name = f"{module.split('.', 1)[1]}.{obj.__name__}"
                if self.only is not None and name not in self.only:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                setattr(ns, attr, wrappers[obj])
                self._patched.append((ns, attr, obj))
        return self

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(idx, result, args, kwargs)
            return result

        return wrapper

    # -- counts taken at the wrapped boundaries -----------------------------

    def _ancestor(self, idx: int, names) -> int:
        parent = self.spans[idx][3]
        while parent >= 0 and self.spans[parent][0] not in names:
            parent = self.spans[parent][3]
        return parent

    def _after_solver_cg_solve(self, idx, result, args, kwargs):
        system = args[0] if args else kwargs["system"]
        n, nnz = len(system.b), system.A.nnz
        it = result.iterations
        c = self.counts
        c["solver.solves"] += 1
        c["solver.cg_iterations"] += it
        # Per iteration: one CSR matvec (2 nnz flops), two dots and three
        # axpys (10 n flops); bytes are computed from array sizes, assuming
        # float64 values, int32 CSR indices and five length-n vectors streamed.
        c["solver.cg_flops_computed"] += it * (2 * nnz + 10 * n)
        csr_bytes = 12 * nnz + 4 * (n + 1)
        c["solver.cg_bytes_computed"] += it * (csr_bytes + 5 * 8 * n)
        self.max_csr_bytes = max(self.max_csr_bytes, csr_bytes)
        if not result.converged:
            c["solver.cg_capped"] += 1
            op = self._ancestor(idx, OPERATIONS)
            if op >= 0:
                self.failed_ops.add(op)
        self.max_residual = max(self.max_residual, float(result.residual))
        if self._ancestor(idx, ("beam.fea_baseline",)) >= 0:
            c["beam.fea_cg_iterations"] += it

    def _after_solver_step(self, idx, result, args, kwargs):
        self.counts["solver.steps"] += 1

    def _after_meshfree_assemble_stiffness(self, idx, result, args, kwargs):
        self.counts["meshfree.nnz_K"] += int(result.nnz)
        self.counts["meshfree.n_dofs"] += int(result.shape[0])

    def _after_meshfree_save_model(self, idx, result, args, kwargs):
        model = args[0] if args else kwargs["model"]
        self.saved_models.append((Path(result), model))
        self.counts["meshfree.archive_bytes"] += _file_bytes(result)

    def _after_meshfree_load_model(self, idx, result, args, kwargs):
        self.counts["meshfree.archive_bytes"] += _file_bytes(args[0] if args else kwargs["path"])

    def _after_volume_write_volume(self, idx, result, args, kwargs):
        self.counts["volume.bytes"] += _file_bytes(*_volume_paths(result))

    def _after_volume_load_volume(self, idx, result, args, kwargs):
        self.counts["volume.bytes"] += _file_bytes(
            *_volume_paths(args[0] if args else kwargs["path"])
        )

    def _after_experiment_compare_case(self, idx, result, args, kwargs):
        self.counts["experiment.cases"] += 1
        self.case_ids[idx] = result.case_id

    def _after_experiment_run_cohort_retractions(self, idx, result, args, kwargs):
        self.counts["experiment.cases_skipped"] += len(result.skipped)

    # -- reduction ---------------------------------------------------------

    def failed_labels(self, lo: int, hi: int) -> set[str]:
        """Operations in spans[lo:hi] that ran a capped CG solve: case id or span name."""
        return {self.case_ids.get(i, self.spans[i][0]) for i in self.failed_ops if lo <= i < hi}

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Self time per layer metric over spans[lo:hi] (span minus child spans)."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        out = dict.fromkeys(TIME_LAYERS, 0.0)
        for (name, start, end, _), inner in zip(spans, child):
            out[layer_of(name)] += (end - start) - inner
        return out

    def root_time(self, lo: int = 0, hi: int | None = None) -> float:
        """Time covered by top-level spans in spans[lo:hi]."""
        return sum(end - start for _, start, end, parent in self.spans[lo:hi] if parent < 0)

    def write(self, path: Path, origin: float):
        """Write spans (times relative to `origin`, in seconds) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": round(s - origin, 9), "end": round(e - origin, 9), "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")
