"""elastosim benchmark: time the CLI runs users start, and the layers beneath them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cohort --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run sets up `SETUP_REPEATS` times in fresh processes (interpreter start,
`import elastosim`, preparing the workload's inputs) and reports the median
as `setup_s`.  It then repeats passes of the workload in this process,
in-process through `elastosim.cli.cli_main`, for `--seconds`, checking the
outputs of every pass.  `wall_s` is the median pass.

With `--trace 0` only the few calls the checks need are wrapped, and the last
line of output reports the end-to-end metrics.  With `--trace 1` the odd
passes run with every public function wrapped (see `tracing.py`) and the even
ones as in `--trace 0`; the last line then reports the per-layer metrics:
median self times per traced pass, counts per pass (which must repeat exactly
between passes), and the tracing overhead, the median traced pass minus the
median untraced one.  The first pass of a run is cold; it is kept in the
median, which the longer runs' later passes dominate.

The metric names and units come from BENCHMARK.json.  Each run also prints
the environment it ran in, and writes it with the per-pass figures to
`.perfbench_out/`; traced runs write their spans there too.  `--smoke` runs
every workload at a reduced size, untraced and traced, runs every check and
prints every metric with its unit; it is not a timing gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120


def single_thread_blas():
    """Run BLAS single-threaded; must happen before numpy loads.

    The passes' hot loops (sparse matvecs, cdist) are single-threaded, and on
    a 2-core machine a second, spinning BLAS thread made cohort passes about
    13% slower and less steady.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def require_program():
    """Exit with an error, before any work, unless the checkout holds elastosim."""
    if not (ROOT / "src" / "elastosim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no elastosim package under {ROOT / 'src'}")


def import_program():
    """Import elastosim from this checkout's `src`."""
    require_program()
    sys.path.insert(0, str(ROOT / "src"))
    import elastosim  # noqa: F401  (loads every module the passes use)


def setup(workload_name: str, seed: int, smoke: bool = False):
    """What every run of the workload pays before its first pass."""
    import_program()
    from workloads import WORKLOADS

    return WORKLOADS[workload_name](seed, smoke=smoke)


def time_setups(workload_name: str, seed: int) -> list[float]:
    """Wall time of `setup` in fresh processes, interpreter start included."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S, text=True)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return samples


def environment(tracers) -> dict:
    """Interpreter, libraries, BLAS threads and the CPU the run measured on."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[Path(lib).name] = int(getattr(handle, symbol)())
                break
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    llc = 0
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        size = (index / "size").read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        llc = max(llc, int(size.rstrip("KM")) * scale)
    csr = max(t.max_csr_bytes for t in tracers)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc_bytes": llc,
        "largest_cg_csr_bytes": csr,
        "working_set": ("cache-resident: the largest CG matrix fits in the last-level "
                        "cache, so no bandwidth ratio is claimed" if csr < llc else
                        "larger than the last-level cache"),
    }


def run_passes(workload, seconds: float, traced: bool, workdir: Path):
    """Repeat passes for `seconds` (at least MIN_PASSES); check each one."""
    from tracing import MONITORED, Tracer

    monitor, full = Tracer(only=MONITORED), Tracer()
    passes = []
    t_end = time.perf_counter() + seconds
    while True:
        i = len(passes)
        tracer = full if traced and i % 2 else monitor
        passdir = workdir / f"pass{i}"
        lo, counts0 = len(tracer.spans), Counter(tracer.counts)
        tracer.max_residual = 0.0
        with tracer:
            t0 = time.perf_counter()
            try:
                workload.run_pass(passdir, tracer)
                crashed = False
            except Exception:
                traceback.print_exc()
                crashed = True
            t1 = time.perf_counter()
        hi = len(tracer.spans)
        checked = None if crashed else workload.check_pass(passdir, tracer)
        shutil.rmtree(passdir, ignore_errors=True)
        passes.append({
            "traced": tracer is full,
            "wall_s": t1 - t0,
            "failed": set(workload.ops) if crashed else checked.failed,
            "values": {} if crashed else checked.values,
            "counts": dict(tracer.counts - counts0),
            "cg_max_residual": tracer.max_residual,
            "self_s": tracer.self_times(lo, hi) if tracer is full else {},
            "untracked_s": (t1 - t0) - tracer.root_time(lo, hi),
            "spans": hi - lo,
        })
        # Solver work is deterministic: a pass whose counts differ from the
        # first pass recorded by the same tracer did different work.
        first = next(p for p in passes if p["traced"] == passes[-1]["traced"])
        if passes[-1]["counts"] != first["counts"]:
            passes[-1]["failed"] = set(workload.ops)
        now = time.perf_counter()
        estimate = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and now + estimate > t_end:
            return passes, (monitor, full)


def summarize(workload, passes, final, setups, peak_rss_mb, traced) -> dict:
    """Metric values by name (both sets), plus the record written to disk."""
    from tracing import COUNTS

    for p in passes:
        p["failed"] |= final.failed
    attempted = len(workload.ops) * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    values = {}
    for p in passes:
        for key, value in p["values"].items():
            values[key] = max(values.get(key, 0.0), value)
    values.update(final.values)

    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "check.failed_frac": failed / attempted,
        "check.settle_err_mm": values.get("settle_err_mm", 0.0),
        "check.beam_err_mm": values.get("beam_err_mm", 0.0),
        "check.fea_err_mm": values.get("fea_err_mm", 0.0),
    }
    if traced:
        tp = [p for p in passes if p["traced"]]
        for layer in tp[0]["self_s"]:
            metrics[layer] = statistics.median(p["self_s"][layer] for p in tp)
        for name in COUNTS:
            metrics[name] = tp[0]["counts"].get(name, 0)
        metrics["solver.cg_max_residual"] = max(p["cg_max_residual"] for p in tp)
        traced_wall = statistics.median(p["wall_s"] for p in tp)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(
            p["wall_s"] for p in passes if not p["traced"])
        metrics["trace.untracked_s"] = statistics.median(p["untracked_s"] for p in tp)
        metrics["trace.spans"] = tp[0]["spans"]
    record = {
        "passes": len(passes),
        "wall_s_passes": walls,
        "wall_s_quartiles": statistics.quantiles(walls, n=4, method="inclusive"),
        "setup_s_samples": setups,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": sorted({op for p in passes for op in p["failed"]}),
    }
    return metrics, record


def benchmark_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run(workload_name: str, seed: int, seconds: float, traced: bool, smoke: bool = False):
    """One benchmark run; returns the result object printed as the last line."""
    require_program()
    end_to_end, per_layer = benchmark_metrics()
    setups = time_setups(workload_name, seed)
    workload = setup(workload_name, seed, smoke)
    out = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    t_origin = time.perf_counter()
    try:
        passes, tracers = run_passes(workload, seconds, traced, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final = workload.final_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, record = summarize(workload, passes, final, setups, peak_rss_mb, traced)

    wanted = per_layer if traced else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    record["env"] = environment(tracers)
    record["metrics"] = metrics
    print("perfbench record: " + json.dumps(record))
    tag = f"{workload_name}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}"
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        tracers[1].write(out / f"{tag}-spans.json", t_origin)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def smoke() -> int:
    """Every workload at reduced size, untraced then traced; exit 1 on any failure."""
    ok = True
    for name in ("cohort", "beam", "build"):
        for traced in (False, True):
            result = run(name, seed=1, seconds=0, traced=traced, smoke=True)
            ok &= result["correct"]
            print(f"{name} trace={int(traced)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cohort", "beam", "build"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and every check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    single_thread_blas()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
