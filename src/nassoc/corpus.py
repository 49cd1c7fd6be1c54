"""Shipped classification corpus.

Algebra tables (JSON, one file per algebra), degeneration certificates, and
closed-set specifications live as package data under nassoc/corpus/.  Names:
A01..A29 are the commutative associative tables, a1/a2 the 3-dimensional and
a01..a14 the 4-dimensional noncommutative shift associative tables (families
carry an "alpha" parameter), dim5_nonassoc the minimal non-associative
example, and L1/L2 the nilpotent Lie algebras behind the cocycle
construction.
"""

from __future__ import annotations

import json
from importlib import resources

from .algebras import AlgebraStructure, _json_field, _json_kind
from .exprparse import rational
from .moduli import ClosedSetSpec

COMMUTATIVE_ASSOCIATIVE = tuple(f"A{i:02d}" for i in range(1, 30))
SHIFT_ASSOCIATIVE_3D = ("a1", "a2")
SHIFT_ASSOCIATIVE_4D = tuple(f"a{i:02d}" for i in range(1, 15))
LIE = ("L1", "L2")
ALL_ALGEBRAS = COMMUTATIVE_ASSOCIATIVE + SHIFT_ASSOCIATIVE_3D + SHIFT_ASSOCIATIVE_4D + ("dim5_nonassoc",) + LIE

# variety claims verified by the acceptance suite
CLAIMS = {
    **{name: ("com-as",) for name in COMMUTATIVE_ASSOCIATIVE},
    **{name: ("sas",) for name in SHIFT_ASSOCIATIVE_3D},
    **{name: ("sas", "cas") for name in SHIFT_ASSOCIATIVE_4D},
    "dim5_nonassoc": ("sas",),
}

CERTIFICATES = ("a12_0_to_a11", "a12_m1t_to_a13", "a13_to_a14", "a12_family_to_a06")
CLOSED_SETS = ("a12_not_a10",)

_cache: dict[str, AlgebraStructure] = {}


def _data_root():
    return resources.files("nassoc") / "corpus"


def corpus_names():
    return ALL_ALGEBRAS


def _read(name: str, shipped, folder) -> str:
    """Text of `folder`/`name`.json if `name` is shipped, else of the file at path `name`."""
    if name in shipped:
        return (folder / f"{name}.json").read_text()
    with open(name) as fh:
        return fh.read()


def load_algebra(name: str) -> AlgebraStructure:
    """Load a corpus algebra by name, or any algebra file by path."""
    if name in _cache:
        return _cache[name]
    alg = AlgebraStructure.from_json(_read(name, ALL_ALGEBRAS, _data_root()))
    if name in ALL_ALGEBRAS:
        _cache[name] = alg
    return alg


def load_certificate(name: str) -> dict:
    """Certificate JSON by corpus name or path."""
    return json.loads(_read(name, CERTIFICATES, _data_root() / "certs"))


def load_closed_set(name: str) -> ClosedSetSpec:
    return ClosedSetSpec.from_dict(json.loads(_read(name, CLOSED_SETS, _data_root() / "closed_sets")))


def certificate_basis(cert) -> tuple[list, dict]:
    """The "basis" columns and the "subst" object ({} when absent) of a
    certificate; ValueError names a malformed field."""
    if cert.__class__ is not dict:
        raise ValueError(f"a certificate must be a JSON object, got {_json_kind(cert)}")
    where = "the certificate"
    return _json_field(cert, "basis", list, where), _json_field(cert, "subst", dict, where, {})


def run_certificate(cert: dict, sample=None):
    """Execute a certificate dict against the corpus.

    Plain certificates: {"from", "subst"?, "basis", "to"}.  Family
    certificates add "family_parameter" and "samples" (rational strings);
    `sample` picks one value, defaulting to each listed sample in turn (a
    list of results is returned in that case).  A sample for a plain
    certificate is a ValueError.
    """
    from .moduli import family_degeneration_check

    columns, subst = certificate_basis(cert)
    source = load_algebra(_json_field(cert, "from", str, "the certificate"))
    target = load_algebra(_json_field(cert, "to", str, "the certificate"))
    if "family_parameter" in cert:
        param = _json_field(cert, "family_parameter", str, "the certificate")
        if sample is not None:
            return family_degeneration_check(source, columns, subst, target, {param: rational(sample, "sample")})
        results = []
        for s in _json_field(cert, "samples", list, "the certificate"):
            env = {param: rational(s, "certificate samples")}
            results.append(family_degeneration_check(source, columns, subst, target, env))
        return results
    if sample is not None:
        raise ValueError(f"certificate {cert['from']} -> {cert['to']} has no family_parameter to sample")
    return family_degeneration_check(source, columns, subst, target, None)
