import numpy as np

from bflab.algebra import group_algebra
from bflab.blocks import (analyze_block, build_group_algebra, exponent_degree,
                          splitting_field, source_fusion_identity_report)
from bflab.bisets import characteristic_report, shape_from_brauer_dims
from bflab.fusion import BrauerPairs
from bflab.gf import _prime_factors, field, p_part
from bflab.groups import (TwistedDiagonal, all_subgroups, centralizer,
                          group_from_generators, injective_maps, load_group,
                          subgroup_classes, sylow_subgroup)
from bflab.idempotents import (NonSplitError, block_idempotents,
                               primitive_decomposition)

import os
import subprocess
import sys

import pytest

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "bflab", "data")


C2 = group_from_generators(2, [(1, 0)], "C2")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")
D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")
S4 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4")


def rng():
    return np.random.default_rng(2026)


def all_blocks(A, r):
    """BlockData of every block of A, analyzed against one shared engine."""
    blocks = block_idempotents(A, r)
    pairs = BrauerPairs(A, r)
    for i, b in enumerate(blocks):
        yield analyze_block(pairs, b, i, r)


def first_block(A, r):
    return next(all_blocks(A, r))


def test_p_part():
    assert p_part(24, 2) == 8 and p_part(24, 3) == 3 and p_part(7, 2) == 1


@pytest.mark.parametrize("p", [1, 0])
def test_build_group_algebra_rejects_p_below_two(p):
    # p = 1 once looped forever in splitting_field; the call runs in a
    # subprocess with a timeout, so a regression fails instead of hanging
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep +
               os.environ.get("PYTHONPATH", ""))
    code = ("from bflab.blocks import build_group_algebra\n"
            "from bflab.groups import group_from_generators\n"
            "C2 = group_from_generators(2, [(1, 0)], 'C2')\n"
            "try:\n"
            f"    build_group_algebra(C2, {p})\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


A5 = group_from_generators(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], "A5")
SL23 = load_group(os.path.join(DATA, "sl23.json"))
# C3 x| D8 with D8 acting on C3 through D8/V = C2 (as in test_fusion.py)
C3_D8 = group_from_generators(
    7, [(1, 2, 0, 3, 4, 5, 6), (1, 0, 2, 4, 5, 6, 3), (0, 1, 2, 3, 6, 5, 4)],
    "C3:D8")


def _split_counts(H, k):
    """(blocks, primitive idempotents of 1) of kH; NonSplitError when a
    corner does not split over k."""
    A = group_algebra(H, k)
    return (len(block_idempotents(A, rng())),
            len(primitive_decomposition(A, A.unit, rng())))


def test_splitting_field_choices():
    # (G, p, exponent field degree, least degree splitting every kC_G(P));
    # the exponent field of S4 is GF(2^2) at p = 2 (3 | 2^2 - 1) and
    # GF(3^2) at p = 3 (8 | 3^2 - 1)
    for G, p, before, after in [
            (A5, 3, 4, 2), (A5, 2, 4, 2), (A5, 5, 2, 1), (S4, 2, 2, 1),
            (S3, 2, 2, 1), (S4, 3, 2, 1), (SL23, 3, 2, 1), (D8, 2, 1, 1),
            (C3_D8, 2, 2, 2)]:
        assert exponent_degree(G, p) == before, (G, p)
        assert splitting_field(G, p).m == after, (G, p)
    # G alone is not enough.  Every 2-regular x of C3:D8 is conjugate to
    # x^2 (D8 inverts the 3-elements), so GF(2) splits kG; but the Klein
    # group V centralizing C3 has C_G(V) = C3 x V, whose 3-elements are
    # not conjugate to their squares, and its centre needs GF(4).
    assert _split_counts(C3_D8, field(2, 1)) == \
        _split_counts(C3_D8, field(2, 2))
    V = next(P for P in all_subgroups(sylow_subgroup(C3_D8, 2))
             if P.order == 4 and centralizer(C3_D8, P).order == 12)
    with pytest.raises(NonSplitError):
        block_idempotents(group_algebra(centralizer(C3_D8, V), field(2, 1)),
                          rng())


CRITERION_CASES = [(name, p) for name in sorted(
    fn[:-5] for fn in os.listdir(DATA) if fn.endswith(".json"))
    for p in _prime_factors(load_group(os.path.join(DATA, name + ".json"))
                            .order)]


@pytest.mark.parametrize("name,p", CRITERION_CASES + [
    ("a5", 2), ("a5", 3), ("a5", 5), ("c3:d8", 2)])
def test_splitting_field_splits_every_centralizer_algebra(name, p):
    # Checked on the algebras, not by the criterion: over the chosen field
    # every kC_G(P) has as many blocks and primitive idempotents as over
    # the exponent field (so its corners split), and over the next
    # smaller field some kC_G(P) fails to split or has fewer of either.
    # One P per G-class: conjugate P have isomorphic kC_G(P).
    G = {"a5": A5, "c3:d8": C3_D8}.get(name) or \
        load_group(os.path.join(DATA, name + ".json"))
    k, top = splitting_field(G, p), field(p, exponent_degree(G, p))
    Hs = [centralizer(G, P)
          for P in subgroup_classes(G, sylow_subgroup(G, p))]
    for H in Hs:
        assert _split_counts(H, k) == _split_counts(H, top)
    smaller = [d for d in range(1, k.m) if k.m % d == 0]
    if smaller:
        def splits(H):
            try:
                return _split_counts(H, field(p, smaller[-1])) == \
                    _split_counts(H, k)
            except NonSplitError:
                return False
        assert not all(splits(H) for H in Hs)


def test_defect_and_source_nilpotent():
    A = build_group_algebra(D8, 2)
    r = rng()
    d = first_block(A, r)
    assert d.D.order == 8
    assert d.ia_S.A.dim == 8                  # S = kD8 itself
    assert np.array_equal(d.ell, A.unit)


def test_defect_zero_block_of_s3():
    A = build_group_algebra(S3, 2)
    r = rng()
    for d in all_blocks(A, r):
        if d.ia_B.A.dim == 4:
            assert d.D.order == 1
            assert d.ia_S.A.dim == 1          # corner of M_2 is k
            assert not d.principal
        else:
            assert d.D.order == 2 and d.principal


def test_s3_p3_source_dimension():
    A = build_group_algebra(S3, 3)
    r = rng()
    d = first_block(A, r)
    assert d.D.order == 3
    assert d.ia_S.A.dim == 6                  # |D x| E| = 3 * 2


def test_rank_formula_all_catalog():
    for name in ("c2", "c3", "c4", "v4", "s3", "d8", "q8", "a4", "sl23",
                 "s4"):
        G = load_group(os.path.join(DATA, f"{name}.json"))
        for p in (2, 3):
            if G.order % p:
                continue
            A = build_group_algebra(G, p)
            r = rng()
            for d in all_blocks(A, r):  # rank formula checked inside
                gp = p_part(G.order, p)
                assert p_part(d.ia_B.A.dim // d.D.order, p) == \
                    (gp // d.D.order) ** 2


def test_block_dims_sum_to_group_order():
    for G, p in ((S4, 3), (S4, 2), (A4, 2)):
        A = build_group_algebra(G, p)
        r = rng()
        total = 0
        for d in all_blocks(A, r):
            total += d.ia_B.A.dim
        assert total == G.order


def test_principal_block_detected():
    A = build_group_algebra(S3, 2)
    r = rng()
    flags = [d.principal for d in all_blocks(A, r)]
    assert sorted(flags) == [False, True]


def test_source_fusion_identity_on_selected_blocks():
    for G, p in ((S3, 3), (A4, 2), (S4, 3)):
        A = build_group_algebra(G, p)
        r = rng()
        for d in all_blocks(A, r):
            rep = source_fusion_identity_report(d)
            assert rep["fusion_equal"] and rep["divisible"]


def test_block_algebra_shape_is_fusion_stable():
    # B is an interior G-algebra, so its shape is F_D(b)-stable
    for G, p in ((S3, 3), (A4, 2)):
        A = build_group_algebra(G, p)
        r = rng()
        d = first_block(A, r)
        shape_b = shape_from_brauer_dims(d.ia_B)
        fdb = d.block_fusion_system
        rep = characteristic_report(shape_b, fdb, p)
        assert rep["f_stable"]


def test_source_shape_is_fusion_generated():
    for G, p in ((S3, 3), (A4, 2), (S4, 2)):
        A = build_group_algebra(G, p)
        r = rng()
        d = first_block(A, r)
        shape = d.source_shape
        fdb = d.block_fusion_system
        for i, m in shape.items():
            td = shape.classes.reps[i]
            assert fdb.contains(td.phi)


def test_top_orbit_multiplicities():
    for G, p in ((S3, 3), (A4, 2)):
        A = build_group_algebra(G, p)
        r = rng()
        d = first_block(A, r)
        shape = d.source_shape
        fdb = d.block_fusion_system
        auts = {phi.graph for phi in fdb.automorphisms(d.D)}
        for phi in injective_maps(d.D, d.D):
            m = shape.multiplicity_of(TwistedDiagonal(phi))
            assert m == (1 if phi.graph in auts else 0)


def test_sl23_p3_block_structure():
    G = load_group(os.path.join(DATA, "sl23.json"))
    A = build_group_algebra(G, 3)
    r = rng()
    pairs = BrauerPairs(A, r)
    bs = block_idempotents(A, r)
    dims = sorted(A.corner(b).dim for b in bs)
    assert dims == [3, 9, 12]
    defects = []
    for i, b in enumerate(bs):
        defects.append(analyze_block(pairs, b, i, r).D.order)
    assert sorted(defects) == [1, 3, 3]


def test_operation_level_api_surface():
    # the contract-level entry points work standalone
    import numpy as np
    from bflab import linalg
    from bflab.fusion import BrauerPairPoset, defect_groups
    from bflab.groups import diagonal, twisted_classes
    from bflab.interior import InteriorAlgebra
    from bflab.groups import sylow_subgroup
    from bflab.radical import radical_rows
    r = np.random.default_rng(0)
    A = build_group_algebra(S3, 3)
    D = sylow_subgroup(S3, 3)
    assert len(twisted_classes(D)) == 3
    ia = InteriorAlgebra(A, D)
    td = diagonal(D)
    assert ia.fixed_rows(td.pairs).shape[0] == 4
    assert ia.brauer(td).dim == 3
    tr = ia.trace_map([(D.identity, D.identity)], td.pairs)
    assert not linalg.matvec(A.field, tr, A.unit).any()
    assert linalg.Subspace(A.field, radical_rows(A)).dim == 4
    b = block_idempotents(A, r)[0]
    pairs = BrauerPairs(A, r)
    assert pairs.S.key == D.key
    assert defect_groups(pairs, b)[0].order == 3
    d = analyze_block(pairs, b, 0, r)
    assert d.ell is d.source_candidates[0]
    assert d.ia_S.A.dim == 6
    assert len(BrauerPairPoset(pairs, b).maximal) == 1
