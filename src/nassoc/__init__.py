"""Exact computation with nonassociative algebra varieties.

The package centers on shift associative algebras, the variety defined by
(xy)z = y(zx), and its cyclic associative subvariety (xy)z = x(yz) = y(zx).
It provides identity verification on structure-constant algebras over Q
with polynomial parameters, operadic dimension and Koszul-dual machinery,
free-algebra normal forms, structure-theoretic decompositions, and exact
degeneration certificates over rational functions of t.  Everything is
computed in exact rational arithmetic; nothing is ever rounded.
"""

from .algebras import (
    AlgebraStructure,
    CheckResult,
    Counterexample,
    check_identity,
    compatible_check,
    kantor_square,
    minus_algebra,
    mutation,
    plus_algebra,
    scalar_mutation,
    sum_algebra,
    unital_hull,
)
from .corpus import load_algebra, load_certificate, load_closed_set, run_certificate
from .exact import PolyQ, RatFunT, SeriesQ, compose_series, nullspace
from .freealg import CircleWord, NormalForm, cas_normal_form, free_basis, normal_form, sas_normal_form
from .moduli import (
    ClosedSetSpec,
    DegenerationCertificate,
    ParamBasis,
    closed_set_membership,
    degeneration_check,
    degeneration_necessary,
    family_degeneration_check,
    monomial_certificate_search,
    orbit_dim,
    pencil_invariant,
    transform,
)
from .operads import (
    ConsequenceSpace,
    MultilinearSpace,
    consequences,
    hilbert,
    implies,
    koszul_dual,
    koszulity_residual,
    multilinear_dim,
    nice_index,
    prove_zero,
)
from .structure import (
    CocycleSpec,
    DerivationAlgebra,
    Fingerprint,
    PeirceSplit,
    WedderburnSplit,
    algebra_from_cocycle,
    change_basis,
    derivation_algebra,
    fingerprint,
    is_leibniz_derivation,
    peirce,
    powers_and_nilpotency,
    subalgebra_identity_check,
    wedderburn,
)
from .systems import BUILTIN_SYSTEM_NAMES, builtin_system
from .terms import (
    Expr,
    Identity,
    IdentitySystem,
    multilinearize,
    parse_expr,
    parse_identity,
    parse_system,
)

__version__ = "0.1.0"
