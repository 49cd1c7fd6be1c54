"""Walkthrough: the low-dimensional classification corpus.

Loads the shipped tables, re-checks their defining identities, splits one
of them into semisimple and radical parts, replays a degeneration
certificate, and separates the 3-dimensional family with the pencil
invariant.  Run with `python3 demos/classification_walkthrough.py`.
"""

from fractions import Fraction

from nassoc import (
    check_identity,
    load_algebra,
    load_certificate,
    orbit_dim,
    peirce,
    pencil_invariant,
    run_certificate,
    wedderburn,
)
from nassoc.systems import builtin_system

dim5 = load_algebra("dim5_nonassoc")
print("The smallest non-associative table in the variety is 5-dimensional:")
for line in dim5.products_str():
    print("  " + line)
print(f"  shift associative: {check_identity(dim5, builtin_system('sas')).holds}")
res = check_identity(dim5, builtin_system("as"))
print(f"  associativity counterexample: {res.counterexample}")
print()

a12 = load_algebra("a12")
print(f"A one-parameter family ({a12.name}, parameter alpha):")
for line in a12.products_str():
    print("  " + line)
print(f"  shift associative for every alpha: {check_identity(a12, builtin_system('sas')).holds}")
spec = a12.specialize({"alpha": Fraction(1)})
split = wedderburn(spec)
print(f"  semisimple/radical split at alpha = 1: dim S = {split.dims()[0]}, "
      f"dim R = {split.dims()[1]}, all checks {split.all_ok}")
ps = peirce(spec, spec.basis_element(4))
print(f"  Peirce split at the idempotent e4: dims {ps.dims()}, middle part empty: {ps.a_half_zero}")
print(f"  orbit dimension of the family: {orbit_dim(a12)} "
      f"(each member: {orbit_dim(spec)})")
print()

print("Degenerations are certified by parametrized bases over Q(t):")
for name in ("a12_0_to_a11", "a12_m1t_to_a13", "a13_to_a14"):
    cert = load_certificate(name)
    verified = all(r.verdict for r in run_certificate(cert))
    print(f"  {cert['from']} -> {cert['to']}: {'verified' if verified else 'FAILED'}")
family = run_certificate(load_certificate("a12_family_to_a06"))
print(f"  a12 family -> a06 family: verified at {sum(r.verdict for r in family)} sampled indices")
print()

a2 = load_algebra("a2")
print("The pencil invariant separates the 3-dimensional family members:")
values = [str(pencil_invariant(a2.specialize({"alpha": Fraction(s)}))) for s in (-1, 0, 1, 2)]
print(f"  invariant at alpha = -1, 0, 1, 2: {', '.join(values)}")
