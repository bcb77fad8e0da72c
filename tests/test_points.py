import numpy as np

from bflab.algebra import group_algebra
from bflab.gf import field, make_field
from bflab.groups import all_subgroups, group_from_generators, sylow_subgroup
from bflab.interior import InteriorAlgebra
from bflab.points import (local_points, point_multiplicity, points,
                          refine_idempotent, relative_multiplicity,
                          unit_decomposition)


import os

from bflab.groups import load_group

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "bflab", "data")

C2 = group_from_generators(2, [(1, 0)], "C2")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")
D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")
Q8 = load_group(os.path.join(DATA, "q8.json"))


def rng():
    return np.random.default_rng(42)


def interior(G, p, D=None):
    e = G.exponent()
    while e % p == 0:
        e //= p
    A = group_algebra(G, make_field(p, e))
    return InteriorAlgebra(A, D if D is not None else sylow_subgroup(G, p))


def test_p_group_algebra_single_local_point_everywhere():
    for G in (D8, Q8):
        ia = interior(G, 2)
        r = rng()
        for P in all_subgroups(ia.D):
            pts = points(ia, P, r)
            assert len(pts) == 1
            assert pts[0].local and pts[0].multiplicity == 1


def test_points_at_trivial_subgroup_are_all_points():
    ia = interior(S3, 2)
    r = rng()
    triv = ia.D.subgroup([ia.D.identity])
    pts = points(ia, triv, r)
    assert all(pt.local for pt in pts)     # br_1 is the identity
    assert sum(pt.multiplicity for pt in pts) == \
        len(unit_decomposition(ia, triv, r))


def test_fixed_subalgebra_has_one_owner():
    ia = interior(S3, 2)
    for P in all_subgroups(ia.D):
        ctx = ia.fixed_subalgebra(P)
        assert ia.fixed_subalgebra(P) is ctx
        # a second Subgroup object for the same P reads the same context
        assert ia.fixed_subalgebra(P.subgroup(P.elements)) is ctx
    assert set(ia._points_cache) == {"points", "decomp"}


def test_unit_decomposition_is_the_refinement_of_one():
    # the decomposition of 1 is the cached refinement of the unit, drawn
    # with the same rng draws
    for G, p in ((S3, 2), (S3, 3), (A4, 2)):
        ia, ia2 = interior(G, p), interior(G, p)
        for P in all_subgroups(ia.D):
            r = np.random.default_rng(5)
            parts = unit_decomposition(ia, P, r)
            assert refine_idempotent(ia, P, ia.A.unit, r) is parts
            fresh = refine_idempotent(ia2, P, ia2.A.unit,
                                      np.random.default_rng(5))
            assert [v.tolist() for v in fresh] == [v.tolist() for v in parts]


def test_point_multiplicity_of_one_is_the_multiplicity():
    for G, p in ((S3, 2), (A4, 2), (S3, 3)):
        ia = interior(G, p)
        r = rng()
        for P in all_subgroups(ia.D):
            for pt in points(ia, P, r):
                assert point_multiplicity(ia, P, pt, ia.A.unit, r) == \
                    pt.multiplicity


def test_multiplicity_in_k_times_k():
    A = group_algebra(C2, field(3))
    D = C2.full_subgroup().subgroup([C2.identity])
    ia = InteriorAlgebra(A, D)
    r = rng()
    pts = points(ia, D, r)
    assert len(pts) == 2
    assert all(pt.multiplicity == 1 for pt in pts)


def test_principal_block_has_local_point_at_defect():
    # kS3 char 2, principal block, P = C2 Sylow
    ia = interior(S3, 2)
    r = rng()
    lps = local_points(ia, ia.D, r)
    assert len(lps) >= 1


def test_multiplicity_independent_of_seed():
    ia = interior(S3, 3)
    r1 = np.random.default_rng(1)
    r2 = np.random.default_rng(999)
    ia2 = interior(S3, 3)
    m1 = sorted(pt.multiplicity for pt in points(ia, ia.D, r1))
    m2 = sorted(pt.multiplicity for pt in points(ia2, ia2.D, r2))
    assert m1 == m2


def test_pointed_leq_reflexive_and_chain():
    # Q_delta <= P_gamma for Q <= P: some summand of i_P in A^Q lies in delta
    ia = interior(S3, 3)
    r = rng()
    P = ia.D
    for pt in points(ia, P, r):
        assert relative_multiplicity(ia, P, pt, P, pt, r) > 0
    triv = P.subgroup([P.identity])
    for pt in local_points(ia, P, r):
        under = [q for q in points(ia, triv, r)
                 if relative_multiplicity(ia, triv, q, P, pt, r) > 0]
        assert under, "maximal pointed group has no refinement chain"


def test_relative_multiplicity_of_self_is_one():
    ia = interior(S3, 3)
    r = rng()
    P = ia.D
    for pt in points(ia, P, r):
        assert relative_multiplicity(ia, P, pt, P, pt, r) == 1
