"""The five characteristic-biset conditions on a source-algebra shape.

The principal block of kA4 at p = 2 has defect group V4 and a fusion
system with an order-3 automorphism of V4; its source algebra is twelve
dimensional.  The demo evaluates all five conditions (bifree, symmetric,
generated, stable, Sylow) on the source shape and exhibits the top
orbits: one per F-automorphism of the defect group, multiplicity one.

    python demos/03_characteristic_conditions.py
"""

import numpy as np

from bflab.bisets import characteristic_report, opposite_shape
from bflab.blocks import analyze_block, build_group_algebra
from bflab.fusion import BrauerPairs
from bflab.groups import TwistedDiagonal, group_from_generators, injective_maps

rng = np.random.default_rng(3)
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")

A = build_group_algebra(A4, 2)
pairs = BrauerPairs(A, rng)
data = analyze_block(pairs, pairs.blocks[0], 0, rng)
print(f"defect group V4 of order {data.D.order}, "
      f"source algebra of dimension {data.ia_S.A.dim}")

shape = data.source_shape
print("\nsource shape:")
for item in shape.describe():
    o = item["orbit"]
    print(f"  stabilizer order {o['subgroup_order']:2d}  "
          f"multiplicity {item['multiplicity']}")
print("opposite shape equals shape:", opposite_shape(shape) == shape)

fdb = data.block_fusion_system
print("\nAut_F(V4) has", len(fdb.automorphisms(data.D)), "elements")
auts = {phi.graph for phi in fdb.automorphisms(data.D)}
print("top orbits (stabilizer = full defect group):")
for phi in injective_maps(data.D, data.D):
    m = shape.multiplicity_of(TwistedDiagonal(phi))
    inside = phi.graph in auts
    print(f"  automorphism in F: {str(inside):5s}  multiplicity {m}")

rep = characteristic_report(shape, fdb, 2)
print("\nfive conditions:")
for key in ("bifree", "symmetric", "f_generated", "f_stable", "sylow"):
    print(f"  {key:12s} {rep[key]}")
print("|X| / |D| =", rep["size"] // data.D.order)
