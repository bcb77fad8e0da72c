"""Fields, group algebras, and the biset shape of an invariant basis.

Walks the bottom of the stack: build a splitting field, a group algebra,
restrict it to a Sylow subgroup as an interior algebra, take twisted
Brauer quotients, and invert the table of marks to read off the shape of
its invariant basis without ever constructing one.  Run directly:

    python demos/01_fields_and_shapes.py
"""

import numpy as np

from bflab import linalg
from bflab.algebra import group_algebra
from bflab.bisets import explicit_invariant_basis, shape_from_brauer_dims
from bflab.gf import make_field
from bflab.groups import group_from_generators, sylow_subgroup
from bflab.interior import InteriorAlgebra

rng = np.random.default_rng(1)

print("== a splitting field for S3 at p = 3 ==")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
k = make_field(3, 2)       # 2 is the 3'-part of exp(S3) = 6
print(f"field: {k}, modulus {k.modulus}, generator {k.generator}")

print("\n== the group algebra kS3 and its centre ==")
A = group_algebra(S3, k)
Z = A.subalgebra(A.center_rows())
print(f"dim kS3 = {A.dim}, dim Z(kS3) = {Z.dim} (= number of classes)")

print("\n== kS3 as an interior C3-algebra ==")
D = sylow_subgroup(S3, 3)
ia = InteriorAlgebra(A, D)
bq = ia.brauer_at(D)
print(f"dim A(C3) = {bq.dim}  (equals |C_S3(C3)| = 3)")

print("\n== the biset shape from Brauer-quotient dimensions ==")
shape = shape_from_brauer_dims(ia)
print(f"shape: {shape}")
for item in shape.describe():
    o = item["orbit"]
    print(f"  stabilizer order {o['subgroup_order']}, "
          f"multiplicity {item['multiplicity']}")
print(f"total size {shape.size()} = |S3| = {S3.order}")

print("\n== an explicit invariant basis realizing the shape ==")
basis = explicit_invariant_basis(ia, rng)
print(f"basis of {len(basis)} vectors, shape matches:",
      basis.shape() == shape)
m = np.array(basis.vectors)
print("global rank:", linalg.rank(k, m), "of", A.dim)
