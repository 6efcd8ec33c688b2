"""The three closed-loop workloads.

One caller issues each operation and waits for its reply before the next.
Only the calls into factorkit are timed: input generation, turning arrays
into ``DenseMatrix`` inputs, and the correctness gate run between the timed
operations. Why each workload exists is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import io
import resource
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

from factorkit import cli, matio, matrices, workflow
from factorkit.errors import ZeroPivotError

from . import gate as g
from .inputs import COMPLEX_FACTOR, EXPECTED_METHOD, KINDS, NONSYMMETRIC, SPD, Case, make_case, rng_for
from .speed import Timing

#: Every percentile metric gets at least this many samples, so that at least
#: ten lie beyond p90.
MIN_SAMPLES = 100


class Pass:
    """One pass of the closed loop: times each top-level operation."""

    def __init__(self, timing: Timing, tracer=None):
        self.timing = timing
        self.tracer = tracer
        self.ops: list[int] = []  # this pass's operations, as indices into ``timing``
        self.samples: list[int] = []  # the operations that are latency samples
        self.units = 0  # throughput numerator: matrices, sides or CLI calls
        self.items = 0
        self.reuse_solves = 0
        self.stdout_bytes = 0
        self.rss_kb: int | None = None  # peak RSS once the minimum sample count was first met

    def call(self, fn, *args, kernel=None):
        """Run ``fn(*args)`` as one timed operation; returns (result, error, operation index).

        ``kernel`` names the calibration kernel, when not the workload's own.
        """
        before = self.timing.probe(kernel)
        root = self.tracer.begin_op() if self.tracer is not None else -1
        start = perf_counter_ns()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # an outcome like any other; the gate judges it
            result, error = None, exc
        elapsed = perf_counter_ns() - start
        if root >= 0:
            self.tracer.end(root)
        index = self.timing.record(elapsed, before, kernel)
        self.ops.append(index)
        return result, error, index

    def busy_ms(self, corrected: bool = True) -> float:
        return sum(self.timing.corrected_ms(self.ops) if corrected else self.timing.raw_ms(self.ops))


def run_pass(workload, timing, seconds=None, items=None, tracer=None, min_samples=MIN_SAMPLES) -> Pass:
    """Run items until ``seconds`` have passed and ``min_samples`` are in, or exactly ``items``.

    A timed stop falls only between whole groups of ``workload.group`` items,
    so each pass keeps the workload's mix.
    """
    p = Pass(timing, tracer)
    start = perf_counter()
    i = 0
    while True:
        boundary = i % workload.group == 0
        if boundary and p.rss_kb is None and len(p.samples) >= min_samples:
            # The same amount of work on every run, however fast the program
            # is: RSS creeps up with allocator fragmentation as items go by.
            p.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if items is not None:
            if i >= items:
                break
        elif boundary and p.rss_kb is not None and perf_counter() - start >= seconds:
            break
        workload.run_item(i, p)
        i += 1
    p.items = i
    return p


def _first_solution(a, b):
    session = workflow.open_session(a, "auto")
    return session, workflow.session_solve(session, b)


def _unexpected(error) -> list[str]:
    return [f"unexpected {type(error).__name__}: {error}"]


class Workload:
    name = ""
    default_n = 0
    group = 1  # items that make up one whole mix
    kernel = "interpreter"  # calibration kernel closest to the workload's work (see speed.py)
    aliases: dict[str, str] = {}  # end-to-end metric -> the name it has on this workload

    def __init__(self, seed: int, gate: g.Gate, n: int | None = None, workdir: Path | None = None):
        self.seed = seed
        self.gate = gate
        self.n = n or self.default_n
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the first inputs, write files, and warm up."""

    def run_item(self, i: int, p: Pass) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload wrote."""


class FactorFresh(Workload):
    """Distinct matrices, each opened as a session and solved once."""

    name = "factor-fresh"
    default_n = 200
    group = 16  # the four kinds four times, the last item failing
    aliases = {
        "latency_ms_p50": "first_solution_ms_p50",
        "latency_ms_p90": "first_solution_ms_p90",
        "throughput_per_s": "matrices_per_s",
    }

    def case(self, i: int) -> Case:
        fail = i % self.group == self.group - 1
        kind = KINDS[(i // self.group) % len(KINDS)] if fail else KINDS[i % len(KINDS)]
        return make_case(kind, self.n, 1, rng_for(self.seed, self.name, i), fail)

    def setup(self) -> None:
        self.first_cycle = [self.case(i) for i in range(self.group)]
        case = self.first_cycle[0]
        _first_solution(matrices.DenseMatrix(case.a), matrices.vector(case.b[:, 0]))

    def run_item(self, i: int, p: Pass) -> None:
        case = self.first_cycle[i] if i < self.group else self.case(i)
        a, b = matrices.DenseMatrix(case.a), matrices.vector(case.b[:, 0])
        result, error, op = p.call(_first_solution, a, b)
        self.gate.attempt(self.check(case, result, error), f"{self.name} item {i} ({case.kind})")
        p.units += 1
        if case.fail_column is None:
            p.samples.append(op)

    def check(self, case, result, error) -> list[str]:
        if case.fail_column is not None:
            if not isinstance(error, ZeroPivotError):
                return [f"expected ZeroPivotError in column {case.fail_column}, got {error!r}"]
            return g.expect_equal("failing column", error.column, case.fail_column)
        if error is not None:
            return _unexpected(error)
        session, report = result
        n, method = self.n, EXPECTED_METHOD[case.kind]
        f = session.factorization
        factor = f.g if method == g.GAUSS_CHOLESKY else f.u
        return (
            g.expect_equal("method", session.method, method)
            + self.gate.eta_misses(case.a, report.solutions.data, case.b)
            + g.expect_equal("SolveReport.flops", report.flops, g.first_solve_flops(n, method))
            + g.expect_equal(
                "Provenance.flops", f.provenance.flops, g.factor_flops(n, method) + g.rhs_transform_flops(n)
            )
            + g.expect_equal("cost_report first_flops", workflow.cost_report(session).first_flops, report.flops)
            + g.expect_equal("complex factor", factor.is_complex, COMPLEX_FACTOR[case.kind])
        )


class ReuseStream(Workload):
    """Sessions answering one first and many reuse right-hand sides each."""

    name = "reuse-stream"
    default_n = 600
    group = 2  # one SPD (gauss-cholesky) and one nonsymmetric (lu) session
    kernel = "numeric"  # reuse solves: rebuild matmuls, substitutions over arrays larger than L2
    reuses = 100
    aliases = {
        "latency_ms_p50": "reuse_solve_ms_p50",
        "latency_ms_p90": "reuse_solve_ms_p90",
        "throughput_per_s": "rhs_per_s",
    }

    def case(self, i: int) -> Case:
        kind = SPD if i % 2 == 0 else NONSYMMETRIC
        return make_case(kind, self.n, 1 + self.reuses, rng_for(self.seed, self.name, i))

    def setup(self) -> None:
        self.first_pair = [self.case(0), self.case(1)]
        case = self.first_pair[0]
        session, _ = _first_solution(matrices.DenseMatrix(case.a), matrices.vector(case.b[:, 0]))
        for j in (1, 2):
            workflow.session_solve(session, matrices.vector(case.b[:, j]))

    def run_item(self, i: int, p: Pass) -> None:
        case = self.first_pair[i] if i < 2 else self.case(i)
        n, method = self.n, EXPECTED_METHOD[case.kind]
        a_norm = g.inf_norm(case.a)
        sides = [matrices.vector(case.b[:, j]) for j in range(1 + self.reuses)]
        where = f"{self.name} session {i} ({case.kind})"

        # Opening and the first solve hash and eliminate: interpreter-bound work.
        result, error, _ = p.call(_first_solution, matrices.DenseMatrix(case.a), sides[0], kernel="interpreter")
        p.units += 1
        if error is not None:
            self.gate.attempt(_unexpected(error), f"{where} first solve")
            return
        session, report = result
        self.gate.attempt(
            g.expect_equal("method", session.method, method)
            + self.gate.eta_misses(case.a, report.solutions.data, case.b[:, :1], a_norm)
            + g.expect_equal("SolveReport.flops", report.flops, g.first_solve_flops(n, method)),
            f"{where} first solve",
        )
        for j in range(1, 1 + self.reuses):
            report, error, op = p.call(workflow.session_solve, session, sides[j])
            p.samples.append(op)
            p.units += 1
            p.reuse_solves += 1
            if error is not None:
                self.gate.attempt(_unexpected(error), f"{where} side {j}")
                continue
            misses = self.gate.eta_misses(case.a, report.solutions.data, case.b[:, j : j + 1], a_norm)
            misses += g.expect_equal("SolveReport.flops", report.flops, g.reuse_flops(n, method))
            if j == self.reuses:
                misses += self.check_costs(session, method)
            self.gate.attempt(misses, f"{where} side {j}")

    def check_costs(self, session, method) -> list[str]:
        costs = workflow.cost_report(session)
        n, reuse = self.n, g.reuse_flops(self.n, method)
        return (
            g.expect_equal("cost_report reuse_flops_per_rhs", costs.reuse_flops_per_rhs, reuse)
            + g.expect_equal("cost_report reuse_count", costs.reuse_count, self.reuses)
            + g.expect_equal(
                "cost_report total_flops", costs.total_flops, g.first_solve_flops(n, method) + self.reuses * reuse
            )
        )


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


class CliFiles(Workload):
    """Pre-written matrix files driven through ``cli_main``, three calls per item."""

    name = "cli-files"
    default_n = 128
    group = 16  # the file pool
    columns = 8
    malformed = 7  # pool entry whose matrix file has a bad token
    zero_pivot = 15  # pool entry whose matrix has a zero pivot
    aliases = {
        "latency_ms_p50": "cli_call_ms_p50",
        "latency_ms_p90": "cli_call_ms_p90",
        "throughput_per_s": "cli_calls_per_s",
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dir = self.workdir / f"cli-files-{self.seed}"
        self.stdout_digests: dict[tuple[int, int], bytes] = {}

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.pool = []
        for j in range(self.group):
            rng = rng_for(self.seed, self.name, j)
            case = make_case(KINDS[j % len(KINDS)], self.n, self.columns, rng, fail=j == self.zero_pivot)
            a_path, b_path = self.dir / f"a{j}.mat", self.dir / f"b{j}.mat"
            matio.save_matrix(a_path, matrices.DenseMatrix(case.a))
            matio.save_matrix(b_path, matrices.DenseMatrix(case.b))
            bad_line = None
            if j == self.malformed:
                lines = a_path.read_text(encoding="utf-8").splitlines(keepends=True)
                bad_line = 2 + int(rng.integers(0, self.n))  # line 1 is the header
                lines[bad_line - 1] = "1.0.0 " + lines[bad_line - 1].split(" ", 1)[1]
                a_path.write_text("".join(lines), encoding="utf-8")
            self.pool.append((case, a_path, b_path, self.dir / f"f{j}.fact", bad_line))
        for step, argv in enumerate(self.argvs(0)):
            self.record_stdout(0, step, _cli(argv)[1])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def argvs(self, j: int) -> list[list[str]]:
        _, a, b, f, _ = self.pool[j]
        return [
            ["factor", "--input", str(a), "--output", str(f)],
            ["solve", "--factor", str(f), "--matrix", str(a), "--rhs", str(b)],
            ["solve", "--matrix", str(a), "--rhs", str(b)],
        ]

    def record_stdout(self, j: int, step: int, stdout: str) -> list[str]:
        """Remember the output of a call; identical calls must print identical bytes."""
        digest = hashlib.sha256(stdout.encode()).digest()
        first = self.stdout_digests.setdefault((j, step), digest)
        return [] if first == digest else ["stdout differs from an identical earlier call"]

    def run_item(self, i: int, p: Pass) -> None:
        j = i % self.group
        for step, argv in enumerate(self.argvs(j)):
            result, error, op = p.call(_cli, argv)
            p.samples.append(op)
            p.units += 1
            where = f"{self.name} item {i} {argv[0]} call {step + 1}"
            if error is not None:
                self.gate.attempt(_unexpected(error), where)
                continue
            code, stdout, stderr = result
            p.stdout_bytes += len(stdout.encode())
            misses = self.record_stdout(j, step, stdout) + self.check(j, step, code, stdout, stderr)
            self.gate.attempt(misses, where)

    def check(self, j: int, step: int, code: int, stdout: str, stderr: str) -> list[str]:
        case, _, _, f_path, bad_line = self.pool[j]
        if j == self.malformed:
            if step == 1:  # no factor file was ever written
                return g.expect_equal("exit code", code, 1)
            return g.expect_equal("exit code", code, 1) + _mentions(stderr, f"line {bad_line}")
        if j == self.zero_pivot:
            if step == 1:
                return g.expect_equal("exit code", code, 1)
            return g.expect_equal("exit code", code, 2) + _mentions(
                stderr, f"zero pivot in column {case.fail_column}:"
            )
        misses = g.expect_equal("exit code", code, 0)
        if misses:
            return misses + [f"stderr: {stderr.strip()}"]
        n, k, method = self.n, self.columns, EXPECTED_METHOD[case.kind]
        lines = stdout.splitlines()
        try:
            if step == 0:
                return self.check_factor(lines, method, f_path)
            misses = g.expect_equal("method line", lines[0], f"method {method}")
            body = lines[1 : 1 + 2 * k]
            x = g.parse_solution_lines(body[0::2], n)
            misses += self.gate.eta_misses(case.a, x, case.b)
            misses += [] if all(r.startswith("residual ") for r in body[1::2]) else ["missing residual lines"]
            if step == 2:
                first, reuse = g.first_solve_flops(n, method), g.reuse_flops(n, method)
                misses += g.expect_equal(
                    "flop lines",
                    lines[1 + 2 * k :],
                    [f"flops first {first}", f"flops reuse-per-rhs {reuse}", f"flops total {first + (k - 1) * reuse}"],
                )
            return misses
        except (IndexError, ValueError) as exc:
            return [f"unreadable output ({exc})"]

    def check_factor(self, lines: list[str], method: str, f_path: Path) -> list[str]:
        misses = g.expect_equal("header", lines[:2], [f"kind {method}", f"n {self.n}"])
        label, value = lines[3].split(" ")
        misses += g.expect_equal("line 4", label, "reconstruction-error")
        if not float(value) <= self.gate.eta_tol:
            misses.append(f"reconstruction error {value} exceeds {self.gate.eta_tol:.1e}")
        misses += g.expect_equal("last line", lines[4:], [f"wrote {f_path}"])
        text = f_path.read_text(encoding="utf-8")
        start = text.rindex("\nflops ") + len("\nflops ")
        flops = int(text[start : text.index("\n", start)])
        return misses + g.expect_equal("Provenance.flops in the factor file", flops, g.factor_flops(self.n, method))


def _mentions(text: str, needle: str) -> list[str]:
    return [] if needle in text else [f"stderr does not mention {needle!r}: {text.strip()}"]


WORKLOADS = {w.name: w for w in (FactorFresh, ReuseStream, CliFiles)}
