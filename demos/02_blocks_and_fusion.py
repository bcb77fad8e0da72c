"""Blocks, defect groups, Brauer pairs, and block fusion systems.

Decomposes kS3 at both primes, follows the principal block of kS3 at
p = 3 down to its source algebra, and checks that the fixed-point fusion
of the source algebra recovers the block fusion system on the nose.

    python demos/02_blocks_and_fusion.py
"""

import numpy as np

from bflab.blocks import (analyze_block, build_group_algebra,
                          source_fusion_identity_report)
from bflab.fusion import BrauerPairs, fusion_equal, fusion_from_group
from bflab.groups import group_from_generators

rng = np.random.default_rng(2)
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")

for p in (2, 3):
    print(f"== kS3 at p = {p} ==")
    A = build_group_algebra(S3, p)
    pairs = BrauerPairs(A, rng)         # one engine for all blocks of kS3
    for i, b in enumerate(pairs.blocks):
        data = analyze_block(pairs, b, i, rng)
        kind = "principal" if data.principal else "non-principal"
        print(f"  block {i} ({kind}): dim B = {data.ia_B.A.dim}, "
              f"|D| = {data.D.order}, dim S = {data.ia_S.A.dim}")
    print()

print("== the principal block of kS3 at p = 3, in detail ==")
A = build_group_algebra(S3, 3)
pairs = BrauerPairs(A, rng)
data = analyze_block(pairs, pairs.blocks[0], 0, rng)
fdb = data.block_fusion_system
print("block fusion morphism counts:", fdb.summary())
print("its isomorphisms; each morphism is stored once, as a graph:")
for phi in fdb.all_isomorphisms():
    print(f"  |P| = {phi.domain.order}:", sorted(phi.graph))

F_group = fusion_from_group(data.D, S3)
print("F_D(b) equals F_C3(S3):", fusion_equal(fdb, F_group))

ffs = data.source_presystem
print("fixed-point system of the source algebra:", ffs.summary())
rep = source_fusion_identity_report(data)
print(f"fF_D(S) = F_D(b): {rep['fusion_equal']}; "
      f"divisible: {rep['divisible']}")
