"""Twisted units, unital bases, balance: the three-way equivalence.

On the principal block of kS4 at p = 3 (defect C3, six-dimensional
source algebra with a nontrivial fusion automorphism), compute each of
the three conditions independently, watch them agree, and find an
explicit global unit in a twisted fixed module.

    python demos/04_equivalence_suite.py
"""

import numpy as np

from bflab.blocks import analyze_block, build_group_algebra
from bflab.conjecture import (build_unital_basis, equivalence_report,
                              has_all_twisted_units,
                              intrinsic_balance_report, twisted_unit_exists,
                              unit_in_subspace)
from bflab.fusion import BrauerPairs
from bflab.groups import TwistedDiagonal, group_from_generators

rng = np.random.default_rng(4)
S4 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4")

A = build_group_algebra(S4, 3)
pairs = BrauerPairs(A, rng)
datas = [analyze_block(pairs, b, i, rng)
         for i, b in enumerate(pairs.blocks)]
data = [d for d in datas if d.principal][0]
ia = data.ia_S
F = data.source_presystem
print(f"principal block of kS4 at p=3: dim B = {data.ia_B.A.dim}, "
      f"|D| = {data.D.order}, dim S = {ia.A.dim}")

print("\n(i) unital invariant basis")
basis, _ = build_unital_basis(ia, rng)
print("   found, all units:", basis is not None and basis.is_unital())

print("(ii) twisted units for every fixed-point isomorphism")
ok, table = has_all_twisted_units(ia, F, rng)
print(f"   outer classes of isomorphisms: {len(table)}, "
      f"each with a twisted unit: {ok}")

print("(iii) intrinsic balance")
rep = intrinsic_balance_report(ia, F, rng)
print("   balanced:", rep["balanced"])

print("\nfull equivalence report (agreement is the theorem):")
eq = equivalence_report(data, rng)
for key in ("unital_basis", "all_twisted_units", "intrinsic_balance",
            "ambient_balance", "ambient_matches_intrinsic",
            "conditions_agree"):
    print(f"  {key:22s} {eq[key]}")

print("\na global unit in a twisted fixed module:")
phi = next(phi for phi in F.all_isomorphisms()
           if phi.domain.order == data.D.order and
           phi.graph != frozenset((x, x) for x in phi.domain.elements))
tu = twisted_unit_exists(ia, phi, rng)
print("  twisted unit in A(phi) exists:", tu is not None)
rows = ia.brauer(TwistedDiagonal(phi)).fixed
w, record = unit_in_subspace(ia, rows.basis, rng)
print("  direct search finds a unit of A in A^phi:",
      w is not None and ia.A.is_unit(w) and rows.contains(w))
