"""Spans at factorkit's layer boundaries, recorded from outside the package.

``install`` wraps public module-level functions and methods and rebinds each
wrapper under every name that refers to the original in any ``factorkit``
module, so calls between modules are traced too. Nothing under ``src/`` is
edited; ``uninstall`` restores the originals.

A span records its name, start and end (``perf_counter_ns``), its parent span
and the identifier of the top-level operation it belongs to. Only calls inside
a top-level operation (``begin_op``) are recorded, so input generation and the
correctness gate leave no spans. Spans are kept in memory and written out by
``write``. Self time is a span's duration minus the time its child spans
cover; the run is single-threaded, so no layer waits. ``matrix_hash`` results
are kept per operation, so its waste ratio counts repeated hashing of one input
within one user operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index, op_id]
        self._stack: list[int] = []
        self.active: Counter = Counter()  # spans of each name currently open
        self.counts: Counter = Counter()  # work done at the boundaries: flops, bytes
        self.hashes: set[tuple[int, str]] = set()  # (operation, matrix_hash result)
        self.ops = 0

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, self.ops])
        self._stack.append(index)
        self.active[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter_ns()
        self._stack.pop()
        self.active[span[0]] -= 1

    def begin_op(self) -> int:
        """Open the root span of a new top-level operation."""
        self.ops += 1
        return self._begin(ROOT_SPAN)

    def begin(self, name: str) -> int:
        """Open a child span; -1 (nothing recorded) outside an operation."""
        return self._begin(name) if self._stack else -1

    def self_times(self, slowdowns) -> tuple[Counter, Counter]:
        """Calls and self time (ns) per span name.

        Self time is a span's duration minus its children's, divided by the
        machine slowdown of its operation (``slowdowns[op - 1]``), so it is
        on the same quiet-machine scale as the end-to-end figures.
        """
        calls, self_ns = Counter(), Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, op), children in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += (end - start - children) / slowdowns[op - 1]
        return calls, self_ns

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans}, out)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        if index < 0:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, result)
        return result

    return traced


def _count(key, measure):
    def hook(tracer, value):
        tracer.counts[key] += measure(value)

    return hook


def _eliminate_before(tracer, args):
    if tracer.active["workflow.session_solve"]:
        tracer.counts["workflow.eliminations"] += 1


def _solve_after(tracer, report):
    tracer.counts["solve.flops"] += report.flops
    tracer.counts["solve.rhs"] += report.solutions.cols


# (module, attribute, span name, before hook, after hook). An attribute
# "Class.method" is patched on the class.
SPANS = [
    ("matrices", "matrix_hash", "matrices.matrix_hash", None, lambda t, h: t.hashes.add((t.ops, h))),
    ("matrices", "DenseMatrix.__init__", "matrices.DenseMatrix", None, None),
    ("matrices", "DenseMatrix.is_symmetric", "matrices.symmetry", None, None),
    ("factorizations", "require_symmetric", "matrices.symmetry", None, None),
    ("matrices", "residual_norm", "matrices.residual_norm", None, None),
    ("elimination", "gauss_eliminate", "elimination.gauss_eliminate",
     _eliminate_before, _count("elimination.flops", lambda r: r.flops)),
    ("elimination", "_solve_upper", "elimination.substitution", None,
     _count("substitution.flops", lambda r: r[1])),
    ("elimination", "_solve_lower", "elimination.substitution", None,
     _count("substitution.flops", lambda r: r[1])),
    ("factorizations", "solve", "factorizations.solve", None, _solve_after),
    ("factorizations", "Factorization.rebuild", "factorizations.rebuild", None, None),
    ("factorizations", "lu_from_record", "factorizations.from_record", None, None),
    ("factorizations", "gauss_cholesky_from_record", "factorizations.from_record", None, None),
    ("workflow", "open_session", "workflow.open_session", None, None),
    ("workflow", "session_solve", "workflow.session_solve", None, None),
    ("matio", "parse_matrix", "matio.parse", _count("matio.bytes_read", lambda a: len(a[0])), None),
    ("matio", "parse_factorization", "matio.parse", _count("matio.bytes_read", lambda a: len(a[0])), None),
    ("matio", "render_matrix", "matio.render", None, _count("matio.bytes_written", len)),
    ("matio", "render_factorization", "matio.render", None, _count("matio.bytes_written", len)),
    ("cli", "cli_main", "cli.cli_main", None, None),
]


def install(tracer: Tracer):
    """Wrap every boundary in ``SPANS``; returns a function that undoes it."""
    modules = [m for name, m in list(sys.modules.items()) if name == "factorkit" or name.startswith("factorkit.")]
    patches = []
    for module_name, attr, span, before, after in SPANS:
        module = importlib.import_module(f"factorkit.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(tracer, span, original, before, after))
            patches.append((cls, method, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, span, original, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patches.append((mod, key, original))

    def uninstall():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)

    return uninstall


def layer_metrics(tracer: Tracer, slowdowns) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed ``<module>.<boundary>.<measure>``.

    ``slowdowns`` holds the machine slowdown of each operation, in order.
    """
    calls, self_ns = tracer.self_times(slowdowns)
    counts = tracer.counts

    def ms(name):
        return self_ns[name] / 1e6

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    hash_calls = calls["matrices.matrix_hash"]
    return {
        "matrices.matrix_hash.calls": hash_calls,
        "matrices.matrix_hash.self_ms": ms("matrices.matrix_hash"),
        "matrices.matrix_hash.calls_per_distinct_input": ratio(hash_calls, len(tracer.hashes)),
        "matrices.DenseMatrix.calls": calls["matrices.DenseMatrix"],
        "matrices.DenseMatrix.self_ms": ms("matrices.DenseMatrix"),
        "matrices.symmetry.self_ms": ms("matrices.symmetry"),
        "matrices.residual_norm.self_ms": ms("matrices.residual_norm"),
        "elimination.gauss_eliminate.calls": calls["elimination.gauss_eliminate"],
        "elimination.gauss_eliminate.self_ms": ms("elimination.gauss_eliminate"),
        # flops per nanosecond of self time is GFLOP/s
        "elimination.gauss_eliminate.gflops": ratio(counts["elimination.flops"], self_ns["elimination.gauss_eliminate"]),
        "elimination.ledger_flops": counts["elimination.flops"],
        "elimination.substitution.calls": calls["elimination.substitution"],
        "elimination.substitution.self_ms": ms("elimination.substitution"),
        "elimination.substitution.gflops": ratio(counts["substitution.flops"], self_ns["elimination.substitution"]),
        "factorizations.solve.calls": calls["factorizations.solve"],
        "factorizations.solve.self_ms": ms("factorizations.solve"),
        "factorizations.rebuild.calls": calls["factorizations.rebuild"],
        "factorizations.rebuild.self_ms": ms("factorizations.rebuild"),
        "factorizations.reuse_flops_per_rhs": ratio(counts["solve.flops"], counts["solve.rhs"]),
        "factorizations.from_record.self_ms": ms("factorizations.from_record"),
        "workflow.open_session.self_ms": ms("workflow.open_session"),
        "workflow.session_solve.self_ms": ms("workflow.session_solve"),
        "workflow.eliminations_per_session": ratio(counts["workflow.eliminations"], calls["workflow.open_session"]),
        "matio.parse.self_ms": ms("matio.parse"),
        # bytes per nanosecond is GB/s
        "matio.parse.mb_per_s": ratio(counts["matio.bytes_read"], self_ns["matio.parse"], 1e3),
        "matio.render.self_ms": ms("matio.render"),
        "matio.bytes_read": counts["matio.bytes_read"],
        "matio.bytes_written": counts["matio.bytes_written"],
        "cli.cli_main.self_ms": ms("cli.cli_main"),
        "bench.ops": tracer.ops,
    }
