"""Tests for the reproduction matrix: determinism and mutation sensitivity."""

import dataclasses
import json
from pathlib import Path

import pytest

from nassoc import corpus
from nassoc.algebras import AlgebraStructure
from nassoc.corpus import load_algebra
from nassoc.exact.poly import PolyQ
from nassoc.freealg import _quotient, _quotient_cache
from nassoc.reproduce import rows_classification, rows_constructions, rows_freealg, rows_pencil, run_reproduction


def test_sections_are_deterministic():
    first = rows_pencil(seed=0)
    second = rows_pencil(seed=0)
    assert [(r.name, r.passed, r.detail) for r in first] == [
        (r.name, r.passed, r.detail) for r in second
    ]


def test_every_row_matches_the_recorded_answers():
    """All rows (section, name, passed, detail) of the reproduction, in order,
    are the ones bench/record_expected.py recorded; a change that adds rows
    re-records them there."""
    path = Path(__file__).resolve().parents[1] / "bench" / "expected" / "reproduce.json"
    expected = json.loads(path.read_text())["rows"]
    rows, _ = run_reproduction(seed=0)
    assert len(expected) == 326
    assert [[r.section, r.name, r.passed, r.detail] for r in rows] == expected


def test_unknown_section_rejected():
    with pytest.raises(ValueError):
        run_reproduction(only="nonsense")


def _perturbed_dim5():
    """dim5_nonassoc with the product e4 e1 = e5 deleted."""
    A = load_algebra("dim5_nonassoc")
    constants = [
        [[A.constants[i][j][k] for k in range(5)] for j in range(5)] for i in range(5)
    ]
    constants[3][0][4] = PolyQ.zero()
    return AlgebraStructure("dim5_nonassoc", 5, constants)


def test_mutation_detected_only_in_affected_rows(monkeypatch):
    """Perturbing one corpus constant flips exactly rows that exercise it."""
    clean_cls = rows_classification()
    # monkeypatch restores the shipped table when the test ends
    monkeypatch.setitem(corpus._cache, "dim5_nonassoc", _perturbed_dim5())
    mutated_cls = rows_classification()
    assert all(r.passed for r in clean_cls)
    flipped = [m.name for c, m in zip(clean_cls, mutated_cls) if c.passed and not m.passed]
    # the perturbed table stops being the minimal non-associative example
    assert any("minimal example" in name for name in flipped)
    for clean, mutated in zip(clean_cls, mutated_cls):
        if "minimal example" not in clean.name:
            assert mutated.passed, f"unrelated row flipped: {mutated.name}"
    # rows for other algebras are untouched in the other sections as well
    mutated_cons = rows_constructions()
    for row in mutated_cons:
        if "dim5_nonassoc" not in row.name:
            assert row.passed, f"unrelated construction row flipped: {row.name}"


def _negate_inv_row(q):
    return dataclasses.replace(q, inv=[[-x for x in row] if j == 0 else row for j, row in enumerate(q.inv)])


def _swap_label_vecs(q):
    return dataclasses.replace(q, vecs=[q.vecs[1], q.vecs[0], *q.vecs[2:]])


@pytest.mark.parametrize("corrupt", [_negate_inv_row, _swap_label_vecs])
def test_freealg_rows_detect_a_corrupted_quotient(monkeypatch, corrupt):
    """A wrong degree-4 quotient (coordinate inverse or label vectors) flips
    the index-vector normal-form rows, and only them."""
    clean = rows_freealg()
    assert [r.passed for r in clean] == [True] * 4
    # monkeypatch restores the real cache entry when the test ends
    monkeypatch.setitem(_quotient_cache, ("sas", 4), corrupt(_quotient("sas", 4, None)))
    counts, agree, idempotent, sound = rows_freealg()
    assert counts.passed and agree.passed
    assert not (idempotent.passed and sound.passed)


@pytest.mark.parametrize("field", ["den", "inv_den"])
def test_freealg_rows_detect_a_corrupted_denominator(monkeypatch, field):
    """Doubling either denominator of the degree-4 quotient halves its label
    vectors or its coordinates, which flips the index-vector normal-form rows,
    and only them."""
    clean = rows_freealg()
    assert [r.passed for r in clean] == [True] * 4
    q = _quotient("sas", 4, None)
    # monkeypatch restores the real cache entry when the test ends
    monkeypatch.setitem(_quotient_cache, ("sas", 4), dataclasses.replace(q, **{field: 2 * getattr(q, field)}))
    counts, agree, idempotent, sound = rows_freealg()
    assert counts.passed and agree.passed
    assert not (idempotent.passed and sound.passed)
