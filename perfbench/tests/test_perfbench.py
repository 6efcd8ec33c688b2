"""Tests of the benchmark itself: determinism, metric names, a tiny smoke run."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import gate, inputs, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ETA_TOL = float(BENCHMARK["command"][BENCHMARK["command"].index("--eta-tol") + 1])
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("kind", inputs.KINDS)
def test_generators_are_deterministic_per_seed(kind):
    def draw(seed, index):
        return inputs.make_case(kind, 12, 3, inputs.rng_for(seed, "stream", index), fail=True)

    first, again, other_seed, other_item = draw(5, 2), draw(5, 2), draw(6, 2), draw(5, 3)
    assert np.array_equal(first.a, again.a) and np.array_equal(first.b, again.b)
    assert first.fail_column == again.fail_column
    assert not np.array_equal(first.a, other_seed.a)
    assert not np.array_equal(first.a, other_item.a)


@pytest.mark.parametrize("name", ["factor-fresh", "reuse-stream"])
def test_workload_inputs_are_deterministic_per_seed(name):
    a, b = (WORKLOADS[name](7, gate.Gate(ETA_TOL), n=6) for _ in range(2))
    for i in range(a.group + 1):
        assert np.array_equal(a.case(i).a, b.case(i).a)
        assert np.array_equal(a.case(i).b, b.case(i).b)


def test_cli_files_write_the_same_files_per_seed(tmp_path):
    texts = []
    for run_dir in ("one", "two"):
        w = WORKLOADS["cli-files"](7, gate.Gate(ETA_TOL), n=6, workdir=tmp_path / run_dir)
        w.setup()
        texts.append([path.read_bytes() for path in sorted(w.dir.glob("*.mat"))])
        w.close()
    assert texts[0] == texts[1] and len(texts[0]) == 2 * w.group


def test_zero_pivot_variant_fails_at_its_column():
    from factorkit import DenseMatrix, ZeroPivotError, gauss_eliminate

    a = inputs.make_matrix(inputs.INDEFINITE, 9, inputs.rng_for(0, "t", 0))
    with pytest.raises(ZeroPivotError) as exc:
        gauss_eliminate(DenseMatrix(inputs.zero_pivot_variant(a, 4)))
    assert exc.value.column == 4


def test_metric_names_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_gate_catches_a_wrong_answer():
    a = inputs.make_matrix(inputs.NONSYMMETRIC, 10, inputs.rng_for(0, "t", 1))
    b = inputs.make_rhs(a, 1, inputs.rng_for(0, "t", 2))
    x = np.linalg.solve(a, b)
    g = gate.Gate(ETA_TOL)
    assert g.eta_misses(a, x, b) == []
    x[3] += 1e-6
    assert g.eta_misses(a, x, b)


def test_closed_forms_match_the_documented_factor_file():
    # README: the 4x4 example's gauss-cholesky factor file records 44 flops.
    assert gate.factor_flops(4, gate.GAUSS_CHOLESKY) == 44
    assert gate.reuse_flops(4, gate.LU) == 28


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_the_gate(name, trace, tmp_path):
    result, lines = run.run_benchmark(name, 3, 0.05, trace, ETA_TOL, n=8, out_dir=tmp_path)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.json").exists()
        if name == "reuse-stream":
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            assert metrics["factorizations.rebuild.calls"] == metrics["bench.reuse_solves"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / f"cli-files-3").exists()
