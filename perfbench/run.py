#!/usr/bin/env python3
"""factorkit benchmark: one closed-loop workload per run, correctness-gated.

Usage, from the repository root:

    python3 perfbench/run.py --eta-tol 1e-12 --workload factor-fresh --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced for half the time, then again traced over the same items, and prints
the per-layer metrics, the tracing overhead and a numpy reference. Human
readable lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 only
when every checked outcome was right. Outputs (the span file of a traced run,
the CLI workload's files while it runs) go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def _import_factorkit():
    """Import factorkit from this checkout's ``src``; None when it is not there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import factorkit
    except ImportError:
        return None
    if src.resolve() not in Path(factorkit.__file__).resolve().parents:
        return None
    return factorkit


def _blas_threads(np):
    import ctypes
    import glob

    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _l2_bytes():
    import ctypes

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    return libc.sysconf(191)  # _SC_LEVEL2_CACHE_SIZE in glibc


def machine_info():
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "l2_bytes": _l2_bytes(),
        "cpu": platform.processor() or platform.machine(),
    }


def reference(n: int, seed: int) -> dict[str, float]:
    """numpy at the workload's n, in the same process: the roofline for ``*.gflops``."""
    import numpy as np

    from perfbench.inputs import rng_for

    rng = rng_for(seed, "reference", n)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    matmul_ns, solve_ns = [], []
    for _ in range(7):  # best of seven: the quiet machine, like the corrected figures
        start = perf_counter_ns()
        a @ a
        matmul_ns.append(perf_counter_ns() - start)
        start = perf_counter_ns()
        np.linalg.solve(a + n * np.eye(n), b)
        solve_ns.append(perf_counter_ns() - start)
    return {
        "reference.matmul_gflops": 2 * n**3 / min(matmul_ns),
        "reference.numpy_solve_ms": min(solve_ns) / 1e6,
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def run_benchmark(workload_name, seed, seconds, trace, eta_tol, n=None, out_dir=OUT):
    """Set up, measure and check one workload; returns (result, report lines)."""
    from perfbench.gate import Gate
    from perfbench.speed import Timing
    from perfbench.tracing import Tracer, install, layer_metrics
    from perfbench.workloads import WORKLOADS, run_pass

    units = metric_units()
    out_dir.mkdir(parents=True, exist_ok=True)
    gate = Gate(eta_tol)
    workload = WORKLOADS[workload_name](seed, gate, n=n, workdir=out_dir)
    lines = [f"perfbench {workload_name} n={workload.n} seed={seed} seconds={seconds} trace={int(trace)}"]
    try:
        setups = Timing("interpreter")  # set-up is mostly generation, hashing and rendering
        for _ in range(SETUP_REPEATS):
            setups.measure(workload.setup)
        if not trace:
            timing = Timing(workload.kernel)
            p = run_pass(workload, timing, seconds=seconds)
            latency = timing.corrected_ms(p.samples)
            metrics = {
                "setup_s": statistics.median(setups.corrected_ms()) / 1e3,
                "latency_ms_p50": statistics.median(latency),
                "latency_ms_p90": statistics.quantiles(latency, n=10)[8],
                "throughput_per_s": p.units / p.busy_ms() * 1e3,
                "peak_rss_mb": p.rss_kb / 1024,  # Linux reports KiB
            }
            raw = timing.raw_ms(p.samples)
            uncorrected = {
                "setup_s": statistics.median(setups.raw_ms()) / 1e3,
                "latency_ms_p50": statistics.median(raw),
                "latency_ms_p90": statistics.quantiles(raw, n=10)[8],
                "throughput_per_s": p.units / p.busy_ms(corrected=False) * 1e3,
            }
            lines.append(
                f"{p.items} items, {p.units} units, {len(p.samples)} latency samples; "
                f"median machine slowdown {timing.slowdown():.3f}x (calibration kernels against their quiet times)"
            )
            for name, value in metrics.items():
                alias = workload.aliases.get(name, name)
                note = [name] if alias != name else []
                if name.startswith("latency"):
                    note.append(f"{len(p.samples)} samples")
                if name in uncorrected:
                    note.append(f"uncorrected {uncorrected[name]:.6g}")
                lines.append(f"  {alias:<24} {value:14.6g} {units[name]:<5} ({', '.join(note)})")
        else:
            plain = run_pass(workload, Timing(workload.kernel), seconds=seconds / 2, min_samples=1)
            tracer = Tracer()
            timing = Timing(workload.kernel)
            uninstall = install(tracer)
            try:
                traced = run_pass(workload, timing, items=plain.items, tracer=tracer)
            finally:
                uninstall()
            tracer.write(out_dir / f"trace-{workload_name}-seed{seed}.json")
            overhead = (traced.busy_ms() - plain.busy_ms()) / plain.busy_ms() * 100
            metrics = layer_metrics(tracer, [timing.slowdowns[i] for i in traced.ops])
            metrics.update(
                {
                    "cli.stdout_bytes": traced.stdout_bytes,
                    "bench.items": traced.items,
                    "bench.reuse_solves": traced.reuse_solves,
                    "bench.trace_overhead_pct": overhead,
                }
            )
            metrics.update(reference(workload.n, seed))
            lines.append(
                f"traced {traced.items} items ({tracer.ops} operations, {len(tracer.spans)} spans): "
                f"busy {traced.busy_ms():.1f} ms traced vs {plain.busy_ms():.1f} ms untraced "
                f"(corrected for machine speed), tracing overhead {overhead:.1f}%"
            )
            for name, value in metrics.items():
                lines.append(f"  {name:<48} {value:14.6g} {units[name]}")
    finally:
        workload.close()

    lines.append(f"machine {json.dumps(machine_info(), sort_keys=True)}")
    lines.append(f"max backward error {gate.max_eta:.3e} (tolerance {eta_tol:.1e})")
    failed_frac = gate.failed / gate.attempted
    lines.append(f"  {'failed_frac':<24} {failed_frac:14.6g} ratio ({gate.failed} of {gate.attempted} attempted)")
    lines.extend(f"MISS {m}" for m in gate.misses[:20])
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["factor-fresh", "reuse-stream", "cli-files"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--eta-tol", required=True, type=float, help="bound on every normwise backward error")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if _import_factorkit() is None:
        print(f"error: factorkit is not importable from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.eta_tol)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # One BLAS thread: the loop has a single caller, the machine is small and
    # shared, and the GFLOP/s figures compare against a single-thread
    # reference. numpy reads this when it is first imported, which is later.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
