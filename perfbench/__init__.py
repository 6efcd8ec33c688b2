"""factorkit's benchmark: closed-loop workloads, a correctness gate and a layer tracer.

Run it from the repository root with ``python3 perfbench/run.py --help``; the
full command line, workloads and metrics are fixed in ``BENCHMARK.json``.
"""
