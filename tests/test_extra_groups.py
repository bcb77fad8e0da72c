"""Robustness beyond the bundled catalog: dihedral and abelian groups
of order 12 through the full pipeline and the equivalence suite."""

import numpy as np

from bflab.blocks import (analyze_block, build_group_algebra,
                          proved_conditions_report,
                          source_fusion_identity_report)
from bflab.conjecture import equivalence_report
from bflab.fusion import BrauerPairs
from bflab.groups import group_from_generators
from bflab.idempotents import block_idempotents


def rng():
    return np.random.default_rng(404)


D12 = group_from_generators(
    6, [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)], "D12")
C6xC2 = group_from_generators(
    8, [(1, 2, 3, 4, 5, 0, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6)], "C6xC2")


def test_d12_order():
    assert D12.order == 12
    assert C6xC2.order == 12


def test_d12_both_primes_full_suite():
    for p in (2, 3):
        A = build_group_algebra(D12, p)
        r = rng()
        total = 0
        pairs = BrauerPairs(A, r)
        for i, b in enumerate(block_idempotents(A, r)):
            data = analyze_block(pairs, b, i, r)
            total += data.ia_B.A.dim
            rep = source_fusion_identity_report(data)
            assert rep["fusion_equal"] and rep["divisible"]
            proved = proved_conditions_report(data)
            assert proved["all"], (p, i, proved)
            eq = equivalence_report(data, r)
            assert eq["conditions_agree"] and eq["unital_basis"]
        assert total == 12


def test_abelian_c6xc2_nilpotent_blocks():
    A = build_group_algebra(C6xC2, 2)
    r = rng()
    pairs = BrauerPairs(A, r)
    for i, b in enumerate(block_idempotents(A, r)):
        data = analyze_block(pairs, b, i, r)
        assert data.D.order == 4            # Sylow V4 defect everywhere
        assert data.ia_S.A.dim == 4         # nilpotent: S = kV4
        eq = equivalence_report(data, r)
        assert eq["conditions_agree"] and eq["unital_basis"]


S3xC3 = group_from_generators(6, [
    (1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5), (0, 1, 2, 4, 5, 3)], "S3xC3")


def test_rank_two_defect_group():
    # S3 x C3 at p = 3: one block with elementary abelian defect of
    # order 9 and fusion inverting one factor
    A = build_group_algebra(S3xC3, 3)
    r = rng()
    bs = block_idempotents(A, r)
    assert len(bs) == 1
    data = analyze_block(BrauerPairs(A, r), bs[0], 0, r)
    assert data.D.order == 9
    assert data.ia_S.A.dim == 18
    rep = source_fusion_identity_report(data)
    assert rep["fusion_equal"] and rep["divisible"]
    assert proved_conditions_report(data)["all"]
    eq = equivalence_report(data, r)
    assert eq["conditions_agree"] and eq["unital_basis"]


def _dicyclic12():
    elems = [("a", k, 0) for k in range(6)] + [("a", k, 1) for k in range(6)]
    idx = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        k, e = x[1], x[2]
        m, f = y[1], y[2]
        if e == 0:
            kk, ee = (k + m) % 6, f
        else:
            kk, ee = (k - m) % 6, 1 - f
            if f == 1:
                kk, ee = (kk + 3) % 6, 0
        return ("a", kk, ee)

    g1 = tuple(idx[mul(e, ("a", 1, 0))] for e in elems)
    g2 = tuple(idx[mul(e, ("a", 0, 1))] for e in elems)
    return group_from_generators(12, [g1, g2], "Q12")


def test_dicyclic_q12_two_blocks():
    # C3 : C4 at p = 2: a nilpotent principal block with defect C4 and
    # an 8-dimensional block with defect C2 and source algebra kC2
    Q12 = _dicyclic12()
    assert Q12.order == 12
    A = build_group_algebra(Q12, 2)
    r = rng()
    by_defect = {}
    pairs = BrauerPairs(A, r)
    for i, b in enumerate(block_idempotents(A, r)):
        data = analyze_block(pairs, b, i, r)
        by_defect[data.D.order] = (data.ia_B.A.dim, data.ia_S.A.dim)
        eq = equivalence_report(data, r)
        assert eq["conditions_agree"] and eq["unital_basis"]
    assert by_defect == {4: (4, 4), 2: (8, 2)}
