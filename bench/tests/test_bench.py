"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/tests

The traced full-size runs take about two minutes together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import SECTIONS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# which per-layer counters each workload must move, and which it must not
PREDICTED_NONZERO = {
    "reproduce": [f"reproduce.{s}.s" for s in SECTIONS]
    + [
        "reproduce.freealg.self_s",
        "operads.consequences.calls",
        "operads.relgen.self_s",
        "operads.prove_zero.s",
        "operads.nice_index.s",
        "operads.koszul_dual.s",
        "linalg.insert.calls",
        "linalg.reduce.calls",
        "linalg.dense.s",
        "freealg.normal_form.calls",
        "algebras.check_identity.calls",
        "algebras.check_identity.rational.calls",
        "algebras.check_identity.parametric.calls",
        "algebras.mul.calls",
        "structure.wedderburn.s",
        "structure.peirce.s",
        "structure.change_basis.s",
        "moduli.orbit_dim.s",
        "moduli.certificates.s",
        "moduli.pencil_invariant.s",
        "corpus.load_algebra.calls",
    ],
    "operad-build": [
        "operads.consequences.calls",
        "operads.relgen.self_s",
        "linalg.insert.calls",
        "linalg.insert.useful_ratio",
    ]
    + [f"operads.{m}.{s}.{n}" for m in ("rank", "rref_nnz") for s in ("sas", "cas", "as", "a12") for n in (5, 6)],
    "tables": [
        "linalg.dense.s",
        "algebras.check_identity.calls",
        "algebras.check_identity.rational.calls",
        "algebras.check_identity.parametric.calls",
        "algebras.check_identity.shipped.calls",
        "algebras.check_identity.dense.calls",
        "algebras.mul.calls",
        "structure.wedderburn.s",
        "structure.peirce.s",
        "structure.change_basis.s",
        "moduli.orbit_dim.s",
        "moduli.certificates.s",
        "moduli.pencil_invariant.s",
        "corpus.load_algebra.calls",
    ],
}
PREDICTED_ZERO = {
    "reproduce": ["algebras.check_identity.dense.calls"],
    "operad-build": [
        "algebras.check_identity.calls",
        "algebras.mul.calls",
        "linalg.reduce.calls",
        "freealg.normal_form.calls",
        "corpus.load_algebra.calls",
    ],
    "tables": [
        "operads.consequences.calls",
        "linalg.insert.calls",
        "linalg.reduce.calls",
        "freealg.normal_form.calls",
    ],
}


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    first = workloads.generate(workload, 7)
    assert workloads.input_bytes(first) == workloads.input_bytes(workloads.generate(workload, 7))
    other = workloads.generate(workload, 8)
    assert workloads.input_bytes(other) != workloads.input_bytes(first)
    assert workloads.expected(other) == workloads.expected(first)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_changes_are_exact_inverses(seed):
    inputs = workloads.generate("tables", seed)
    factors = [t["basis_change"] for t in inputs["tables"]]
    for f in factors[:5]:
        for k in range(1, workloads.MAX_TABLE_DIM + 1):
            m, minv = workloads.basis_change(f, k)
            eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
            assert workloads._matmul(m, minv) == eye
            assert all(x.denominator == 1 for row in m for x in row)


def test_seeded_presentations_keep_the_variety():
    sys.path.insert(0, str(ROOT / "src"))
    from nassoc import operads, terms

    for seed in (3, 4):
        for spec in workloads.generate("operad-build", seed, "tiny")["systems"]:
            system = terms.parse_system(spec["name"], spec["text"])
            dims = tuple(operads.multilinear_dim(system, n, 4) for n in range(1, 5))
            assert dims == workloads.EXPECTED_DIMS[spec["name"]][:4]


@pytest.mark.parametrize("probe_s", [speed.REFERENCE_PROBE_S, 2 * speed.REFERENCE_PROBE_S])
def test_rescaling_leaves_out_probes_and_divides_by_the_slowdown(probe_s):
    sampler = speed.Sampler()
    # a probe every second; the timed part runs from 0.5 to 9.5
    sampler.samples = [(t, t + probe_s) for t in range(11)]
    work = 9.0 - 9 * probe_s
    expected = work * speed.REFERENCE_PROBE_S / probe_s
    assert sampler.rescaled(0.5, 9.5) == pytest.approx(expected)
    assert sampler.slowdown() == pytest.approx(probe_s / speed.REFERENCE_PROBE_S)


def test_check_counts_every_mismatch():
    inputs = workloads.generate("operad-build", 1, "tiny")
    outputs = dict(workloads.expected(inputs))
    assert workloads.check(inputs, outputs)[:2] == (16, 0)
    outputs["sas.4"] = 13
    outputs["stray"] = 1
    del outputs["as.2"]
    attempted, failed, mismatches = workloads.check(inputs, outputs)
    assert (attempted, failed) == (17, 3)
    assert {m["key"] for m in mismatches} == {"sas.4", "stray", "as.2"}


def test_every_workload_runs_at_tiny_size():
    code, final, proc = _run("--workload", "all", "--size", "tiny", "--seconds", "0", "--seed", "5")
    assert code == 0, proc.stderr
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    for workload in workloads.WORKLOADS:
        for metric in SPEC["end_to_end"]:
            m = final["metrics"][f"{workload}.{metric['name']}"]
            assert m["unit"] == metric["unit"] and m["value"] > 0
    assert "fail_ratio" in proc.stdout


def test_single_workload_prints_the_end_to_end_metrics():
    code, final, _ = _run("--workload", "operad-build", "--size", "tiny", "--seconds", "0", "--seed", "2")
    assert code == 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, final, _ = _run("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and final is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_the_layer_predictions(workload):
    code, final, proc = _run("--workload", workload, "--seed", "3", "--trace", "1")
    assert code == 0, proc.stderr
    metrics = final["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in PREDICTED_NONZERO[workload]:
        assert metrics[name]["value"] > 0, name
    for name in PREDICTED_ZERO[workload]:
        assert metrics[name]["value"] == 0, name
