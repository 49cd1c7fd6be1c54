"""Walkthrough: the operad-level picture of shift associativity.

Runs the degree-by-degree dimension count, the signed series, the
Koszul-dual computation, and the composition test, narrating each step.
Everything here is exact; run with `python3 demos/operad_walkthrough.py`.
"""

from nassoc import (
    OperadPresentation,
    hilbert,
    koszul_dual,
    koszulity_residual,
    multilinear_dim,
    nice_index,
    parse_expr,
    prove_zero,
)
from nassoc.systems import builtin_system

sas = builtin_system("sas")
print("The variety: algebras with (xy)z = y(zx).")
print()

dims = [multilinear_dim(sas, n) for n in range(1, 6)]
print(f"Multilinear dimensions, degrees 1..5: {dims}")
print(f"Signed exponential series:            {hilbert(sas, 5)}")
print()

print("Koszul dual, the orthogonal complement of the relations under the Ginzburg-Kapranov pairing")
pres = OperadPresentation.of_system(sas)
dual = koszul_dual(pres)
print(f"  dual relation space dimension: {dual.dim}")
print(f"  equal to the original relations (self-dual): {dual.same_space(pres)}")
print()

res = koszulity_residual(sas, sas, 5)
print(f"Composition residual H(H(t)) - t = {res}")
print("  a nonzero residual rules out Koszulity;")
asys = builtin_system("as")
print(f"  for comparison, the associative residual is {koszulity_residual(asys, asys, 5)}.")
print()

print("Degree-5 collapse: the product of five elements does not depend on")
print("association or order.  Two sample certificates through the ideal:")
for text in (
    "[x1,[x2,[x3,[x4,x5]]]]",
    "(x1 o (x2 o (x3 o (x4 o x5)))) - (x1 o (x2 o (x4 o (x3 o x5))))",
):
    print(f"  {text} = 0 in the variety: {prove_zero(parse_expr(text), sas)}")
print(f"Niceness index: {nice_index(sas, 6)} (cyclic associative: "
      f"{nice_index(builtin_system('cas'), 6)}, commutative associative: "
      f"{nice_index(builtin_system('com-as'), 6)})")
