import ast
import os
import pathlib

import numpy as np
import pytest

from bflab.algebra import group_algebra, group_conjugation_perm
from bflab.blocks import analyze_block, build_group_algebra
from bflab.cli import _dividing_primes
from bflab.fusion import (BrauerPairPoset, BrauerPairs, FusionError,
                          FusionSystem, block_fusion, defect_groups,
                          fixed_point_presystem, fusion_equal,
                          fusion_from_group, is_divisible)
from bflab import fusion, groups
from bflab.gf import make_field
from bflab.groups import (GroupInjection, TwistedDiagonal, all_subgroups,
                          group_from_generators, injective_maps, load_group,
                          pinv, pmul, sylow_subgroup, twisted_classes)
from bflab.idempotents import block_idempotents
from bflab.interior import InteriorAlgebra
from bflab.points import refine_idempotent, unit_decomposition


C2 = group_from_generators(2, [(1, 0)], "C2")
C3 = group_from_generators(3, [(1, 2, 0)], "C3")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")
D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")


def rng():
    return np.random.default_rng(55)


def pair_leq(engine, P, eP_idx, Q, eQ_idx, r):
    """(P, e_P) <= (Q, e_Q) by the local pointed-group criterion: a
    primitive idempotent i of (kG)^Q with br_Q(i) under e_Q has a
    primitive piece j in (kG)^P with br_P(j) under e_P.  Broue and Puig
    show this is the Brauer-pair order; it is the oracle of the engine's
    Alperin-Broue walk."""
    if not P.key <= Q.key:
        return False
    if P.key == Q.key:
        return eP_idx == eQ_idx
    for i in unit_decomposition(engine.ia, Q, r):
        if engine.under_block(Q, i) != eQ_idx:
            continue
        for j in refine_idempotent(engine.ia, P, i, r):
            if engine.under_block(P, j) == eP_idx:
                return True
    return False


def first_block(A, r):
    b = block_idempotents(A, r)[0]
    return analyze_block(BrauerPairs(A, r), b, 0, r)


def test_fusion_from_group_trivial():
    F = fusion_from_group(C2.full_subgroup(), C2)
    auts = F.automorphisms(C2.full_subgroup())
    assert len(auts) == 1


def test_fusion_v4_in_a4_has_order_3_automorphism():
    V4 = sylow_subgroup(A4, 2)
    F = fusion_from_group(V4, A4)
    auts = F.automorphisms(V4)
    assert len(auts) == 3          # restriction of the 3-cycle conjugation


def test_fusion_c3_in_s3_has_inversion():
    C3sub = sylow_subgroup(S3, 3)
    F = fusion_from_group(C3sub, S3)
    assert len(F.automorphisms(C3sub)) == 2


def test_fusion_equality_examples():
    # F_{C2}(C2) = F_{C2}(S3): Aut(C2) is trivial
    C2_in_S3 = sylow_subgroup(S3, 2)
    F_self = fusion_from_group(C2_in_S3, _as_group(C2_in_S3))
    F_big = fusion_from_group(C2_in_S3, S3)
    assert fusion_equal(F_self, F_big)
    # F_{C3}(C3) != F_{C3}(S3): inversion appears
    C3sub = sylow_subgroup(S3, 3)
    assert not fusion_equal(fusion_from_group(C3sub, _as_group(C3sub)),
                            fusion_from_group(C3sub, S3))


def _as_group(sub):
    return group_from_generators(
        sub.parent.degree,
        sub.generating_sequence() or [sub.identity], "H")


def test_divisibility_of_group_fusion():
    for S, G in ((sylow_subgroup(S3, 3), S3), (sylow_subgroup(A4, 2), A4),
                 (D8.full_subgroup(), D8)):
        assert is_divisible(fusion_from_group(S, G))


def _identity_graph(P):
    return frozenset((x, x) for x in P.elements)


def test_divisibility_fails_without_an_inclusion():
    S = sylow_subgroup(A4, 2)
    F = fusion_from_group(S, A4)
    for P in all_subgroups(S):
        assert not is_divisible(FusionSystem(S, F.graphs - {_identity_graph(P)}))


def test_divisibility_fails_without_an_inverse_or_a_composite():
    # V4 = {1, a, b, ab} fuses nothing in F_V4(V4): its graphs are the
    # inclusions.  With g: <a> -> <b> added, every composite is present
    # (g o 1_<a>, 1_R o g for R >= <b>, and the restriction of g to 1)
    # but g^-1 is not; with g, h: <b> -> <ab> and their inverses added,
    # every inverse is present but h o g is not, until a <-> ab is added
    S = sylow_subgroup(A4, 2)
    F = fusion_from_group(S, _as_group(S))
    assert F.graphs == {_identity_graph(P) for P in all_subgroups(S)}
    e, a, b, ab = S.elements

    def iso(x, y):
        return {frozenset({(e, e), (x, y)}), frozenset({(e, e), (y, x)})}
    g = frozenset({(e, e), (a, b)})
    assert is_divisible(FusionSystem(S, F.graphs | iso(a, b)))
    assert not is_divisible(FusionSystem(S, F.graphs | {g}))
    assert not is_divisible(FusionSystem(S, F.graphs | iso(a, b) |
                                         iso(b, ab)))
    assert is_divisible(FusionSystem(S, F.graphs | iso(a, b) | iso(b, ab) |
                                     iso(a, ab)))


def test_graphs_off_the_subgroups_of_s_are_rejected():
    S = sylow_subgroup(A4, 2)
    e, a = S.elements[:2]
    t = next(x for x in A4.elements if x not in S.key)
    for graph in ({(a, a)}, {(e, e), (a, t)}):
        with pytest.raises(FusionError, match="not a subgroup of S"):
            FusionSystem(S, [frozenset(graph)])


def test_presystem_of_group_algebra_is_group_fusion():
    # fixed points of the group basis realize exactly the G-conjugations
    for G, p in ((S3, 3), (A4, 2)):
        e = G.exponent()
        while e % p == 0:
            e //= p
        A = group_algebra(G, make_field(p, e))
        S = sylow_subgroup(G, p)
        ia = InteriorAlgebra(A, S)
        pre = fixed_point_presystem(ia)
        assert fusion_equal(pre, fusion_from_group(S, G))
        assert is_divisible(pre)


def test_presystem_of_p_group_algebra():
    A = group_algebra(D8, make_field(2, 1))
    S = D8.full_subgroup()
    ia = InteriorAlgebra(A, S)
    pre = fixed_point_presystem(ia)
    assert fusion_equal(pre, fusion_from_group(S, D8))


def test_brauer_pairs_kc3():
    A = build_group_algebra(C3, 3)
    r = rng()
    b = block_idempotents(A, r)[0]
    engine = BrauerPairs(A, r)
    poset = BrauerPairPoset(engine, b)
    orders = sorted(P.order for P, _ in poset.pairs)
    assert orders == [1, 3]
    assert len(poset.maximal) == 1
    assert poset.pairs[poset.maximal[0]][0].order == 3


def test_brauer_pairs_defect_zero_block():
    A = build_group_algebra(S3, 2)
    r = rng()
    blocks = block_idempotents(A, r)
    engine = BrauerPairs(A, r)
    dims = {}
    for b in blocks:
        poset = BrauerPairPoset(engine, b)
        top = poset.pairs[poset.maximal[0]][0].order
        dims[A.corner(b).dim] = top
    assert dims == {4: 1, 2: 2}    # matrix block has trivial defect


def test_unique_subpair_below_maximal_pair():
    # below a fixed maximal pair, each subgroup carries exactly one block
    A = build_group_algebra(S3, 3)
    r = rng()
    b = block_idempotents(A, r)[0]
    engine = BrauerPairs(A, r)
    poset = BrauerPairPoset(engine, b)
    mx = poset.maximal[0]
    D, eD = poset.pairs[mx]
    for P in all_subgroups(D):
        under = [a for a, (Q, e) in enumerate(poset.pairs)
                 if Q.key == P.key and pair_leq(engine, Q, e, D, eD, r)]
        assert len(under) == 1


def test_block_fusion_s3_p3_is_group_fusion():
    A = build_group_algebra(S3, 3)
    r = rng()
    d = first_block(A, r)
    fdb = d.block_fusion_system
    assert fusion_equal(fdb, fusion_from_group(d.D, S3))


def test_block_fusion_nilpotent_case():
    A = build_group_algebra(D8, 2)
    r = rng()
    d = first_block(A, r)
    fdb = d.block_fusion_system
    assert fusion_equal(fdb, fusion_from_group(d.D, D8))


def test_block_fusion_contains_inner_fusion():
    for G, p in ((S3, 3), (A4, 2)):
        A = build_group_algebra(G, p)
        r = rng()
        d = first_block(A, r)
        fdb = d.block_fusion_system
        inner = fusion_from_group(d.D, _as_group(d.D))
        assert inner.graphs <= fdb.graphs


def test_block_fusion_independent_of_maximal_pair(monkeypatch):
    # the one maximal pair (D, e_D) of kS4 at p = 2 over S, and its
    # conjugate by g outside N_G(D), found from scratch by an engine over
    # the Sylow subgroup gSg^-1: F_D(b) moves by conjugation with g
    S4 = _catalog_group("s4")
    A = build_group_algebra(S4, 2)
    r = rng()
    engine = BrauerPairs(A, r)
    b = engine.blocks[0]
    poset = BrauerPairPoset(engine, b)
    D1, e1 = poset.pairs[poset.maximal[0]]
    g = next(g for g in S4.elements if D1.conjugate(g).key != D1.key)
    monkeypatch.setattr(fusion, "sylow_subgroup",
                        lambda G, p: engine.S.conjugate(g))
    engine2 = BrauerPairs(A, r)
    poset2 = BrauerPairPoset(engine2, b)
    D2, e2 = poset2.pairs[poset2.maximal[0]]
    assert D2.key == D1.conjugate(g).key != D1.key
    lifted = engine.quotient(D1).lift(engine.blocks_at(D1)[e1])
    e_moved = engine2.quotient(D2).project(
        lifted[group_conjugation_perm(A, g)])
    assert engine2.block_index(D2, e_moved) == e2
    F1 = block_fusion(poset, poset.maximal[0])
    F2 = block_fusion(poset2, poset2.maximal[0])
    gi = pinv(g)
    for P in all_subgroups(D1):
        for Q in all_subgroups(D1):
            moved = set()
            for graph in F1.hom_graphs(P, Q):
                moved.add(frozenset((pmul(pmul(g, x), gi),
                                     pmul(pmul(g, y), gi)) for x, y in graph))
            assert moved == set(F2.hom_graphs(P.conjugate(g), Q.conjugate(g)))
    assert len(F1.graphs) == len(F2.graphs) > len(all_subgroups(D1))


def test_outer_class_reps_one_per_outer_class():
    # F_S(S4) on a Sylow D8: 28 isomorphisms in 3 outer D x D-classes;
    # a system that holds only part of a class is rejected
    S4 = _catalog_group("s4")
    S = sylow_subgroup(S4, 2)
    F = fusion_from_group(S, S4)
    tc = twisted_classes(S)
    reps = F.outer_class_reps()
    classes = [tc.class_index(TwistedDiagonal(phi)) for phi in reps]
    assert len(list(F.all_isomorphisms())) == 28
    assert len(set(classes)) == len(classes) == 3
    assert all(phi.codomain.key == phi.image().key and F.contains(phi) and
               phi.graph != frozenset((x, x) for x in phi.domain.elements)
               for phi in reps)
    with pytest.raises(FusionError):
        FusionSystem(S, F.graphs - {reps[0].graph}).outer_class_reps()


SRC = pathlib.Path(fusion.__file__).parent


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_fusion_names_all_isomorphisms(module):
    # every checker walks FusionSystem.outer_class_reps(); the walk of
    # every isomorphism is the test oracle's, so only its owner names it
    tree = ast.parse((SRC / module).read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if "all_isomorphisms" in (getattr(node, "attr", None),
                                       getattr(node, "id", None),
                                       getattr(node, "name", None))]
    assert module == "fusion.py" or not lines, \
        f"{module}: all_isomorphisms named at lines {lines}"


def test_defect_groups_examples():
    r = rng()
    A = build_group_algebra(D8, 2)
    defs = defect_groups(BrauerPairs(A, r), block_idempotents(A, r)[0])
    assert defs[0].order == 8
    A = build_group_algebra(S3, 3)
    defs = defect_groups(BrauerPairs(A, r), block_idempotents(A, r)[0])
    assert defs[0].order == 3


def test_blocks_of_kg_are_found_once(monkeypatch):
    # in D8 at p = 2, C_G(P) = G for P = 1 and P = Z(D8): kG's blocks are
    # found once for both, and every other (kG)(P) once
    calls = []
    real = fusion.block_idempotents
    monkeypatch.setattr(fusion, "block_idempotents",
                        lambda Q, r: calls.append(Q) or real(Q, r))
    engine = BrauerPairs(build_group_algebra(D8, 2), rng())
    subs = all_subgroups(engine.S)
    for P in subs + subs:
        engine.blocks_at(P)
    central = [P for P in subs if engine.quotient(P).algebra() is engine.A]
    assert len(central) == 2
    assert len(calls) == len(subs) - 1
    assert all(engine.blocks_at(P) is engine.blocks for P in central)


def test_one_block_is_read_off_without_a_product(monkeypatch):
    # every kC_G(P) of D8 at p = 2 has the one block 1: a Brauer image
    # lies under it when nonzero and absorbs it only when it is 1
    engine = BrauerPairs(build_group_algebra(D8, 2), rng())
    A = engine.A
    z = A.add(A.unit, A.basis_vector(A.element_index[(2, 3, 0, 1)]))
    for P in all_subgroups(engine.S):
        assert len(engine.blocks_at(P)) == 1
    monkeypatch.setattr(type(A), "mul", None)
    for P in all_subgroups(engine.S):
        assert engine.absorbed(P, A.unit) == [0]
        assert engine.under_block(P, A.unit) == 0
        # 1 + z for z central of order 2: its image is nonzero, not 1
        assert engine.absorbed(P, z) == [] and engine.under_block(P, z) == 0
        assert engine.absorbed(P, A.zero()) == []
        assert engine.under_block(P, A.zero()) is None


def test_brauer_pair_poset_order_axioms():
    # reflexive, antisymmetric, transitive, and G-equivariant on the
    # stored interval
    for G, p in ((S3, 3), (A4, 2)):
        A = build_group_algebra(G, p)
        r = rng()
        b = block_idempotents(A, r)[0]
        engine = BrauerPairs(A, r)
        poset = BrauerPairPoset(engine, b)
        n = len(poset.pairs)
        leq = {(a, c): pair_leq(engine, P, ei, Q, ej, r)
               for a, (P, ei) in enumerate(poset.pairs)
               for c, (Q, ej) in enumerate(poset.pairs) if P.key <= Q.key}
        for a in range(n):
            assert leq.get((a, a), False) or \
                poset.pairs[a][0].key != poset.pairs[a][0].key
        for a in range(n):
            for c in range(n):
                if a != c and leq.get((a, c)) and leq.get((c, a)):
                    raise AssertionError("antisymmetry fails")
                for d in range(n):
                    if leq.get((a, c)) and leq.get((c, d)):
                        if poset.pairs[a][0].key <= poset.pairs[d][0].key:
                            assert leq.get((a, d)), "transitivity fails"


DATA = os.path.join(os.path.dirname(__file__), "..", "src", "bflab", "data")
CATALOG = sorted(
    (fn[:-5], p) for fn in os.listdir(DATA) if fn.endswith(".json")
    for p in _dividing_primes(load_group(os.path.join(DATA, fn)).order))
A5 = group_from_generators(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], "A5")


@pytest.mark.parametrize("name,p", CATALOG + [("a5", 3)])
def test_centralizer_algebra_is_the_brauer_quotient(name, p):
    # (kG)(P), which its quotient builds as the group algebra kC_G(P) (kG
    # itself when C_G(P) = G), multiplies exactly as the quotient's
    # self-pairing, on the same basis, and is built once
    G = A5 if name == "a5" else load_group(os.path.join(DATA, f"{name}.json"))
    engine = BrauerPairs(build_group_algebra(G, p), rng())
    for P in all_subgroups(engine.S):
        bq = engine.quotient(P)
        Q = bq.algebra()
        C = groups.centralizer(engine.G, P)
        assert list(Q.group.elements) == C.elements
        assert (Q is engine.A) == (C.order == G.order)
        t = engine.ia.pairing(bq, bq)[0]
        assert Q.dim == bq.dim and np.array_equal(Q.unit,
                                                  bq.project(engine.A.unit))
        for i in range(Q.dim):
            b = Q.basis_vector(i)
            assert np.array_equal(Q.lmul_matrix(b), t[i].T)
        assert bq.algebra() is Q


def test_centralizer_algebra_rejects_tampered_reps():
    # the quotient checks once, when it builds kC_G(P), that its reps are
    # the elements of C_G(P); a later call returns what it built
    engine = BrauerPairs(build_group_algebra(S3, 2), rng())
    good = engine.quotient(engine.S).reps
    for bad in (good[::-1], good[:1], engine.A.add(good, good[[1, 0]])):
        engine = BrauerPairs(build_group_algebra(S3, 2), rng())
        bq = engine.quotient(engine.S)
        bq.reps = bad
        with pytest.raises(ValueError, match="basis of C_G"):
            bq.algebra()
    bq.reps = good
    assert bq.algebra() is bq.algebra()


def test_hom_set_order_does_not_depend_on_insertion_order():
    # frozensets compare by inclusion, so only a total key on the graphs
    # makes "the first morphism" well defined
    S = D8.full_subgroup()
    F = fusion_from_group(S, D8)
    fwd = FusionSystem(S, sorted(F.graphs, key=sorted))
    bwd = FusionSystem(S, sorted(F.graphs, key=sorted, reverse=True))
    assert fwd.serialize() == bwd.serialize()
    for P in F.subgroups:
        for Q in F.subgroups:
            assert fwd.hom_graphs(P, Q) == bwd.hom_graphs(P, Q)
            assert [m.graph for m in fwd.isomorphisms(P, Q)] == \
                [m.graph for m in bwd.isomorphisms(P, Q)]


def per_injection_presystem(ia):
    """fF by its definition, per pair of subgroups: Hom(P, Q) is the set
    of injections P -> Q with a nonzero twisted Brauer quotient, one
    quotient per injection (the oracle of the per-class construction)."""
    D = ia.D
    subgroups = all_subgroups(D)
    homs = {}
    for P in subgroups:
        for Q in subgroups:
            graphs = set()
            for phi in injective_maps(P, Q):
                into_d = GroupInjection(P, D, phi.mapping, check=False)
                if ia.brauer(TwistedDiagonal(into_d)).dim > 0:
                    graphs.add(phi.graph)
            homs[(P.key, Q.key)] = graphs
    return homs


def _assert_hom_sets(F, homs):
    for P in F.subgroups:
        for Q in F.subgroups:
            assert set(F.hom_graphs(P, Q)) == homs[(P.key, Q.key)]


def _catalog_group(name):
    return A5 if name == "a5" else \
        load_group(os.path.join(DATA, f"{name}.json"))


@pytest.mark.parametrize("name,p", CATALOG)
def test_presystem_per_class_matches_per_injection(name, p):
    A = build_group_algebra(_catalog_group(name), p)
    S = sylow_subgroup(A.group, p)
    got = fixed_point_presystem(InteriorAlgebra(A, S))
    _assert_hom_sets(got, per_injection_presystem(InteriorAlgebra(A, S)))


@pytest.mark.parametrize("name", ["s4", "sl23"])
def test_source_presystem_per_class_matches_per_injection(name):
    A = build_group_algebra(_catalog_group(name), 2)
    r = rng()
    engine = BrauerPairs(A, r)
    for i, b in enumerate(block_idempotents(A, r)):
        ia = analyze_block(engine, b, i, r).ia_S
        ref = InteriorAlgebra(ia.A, ia.D, structural=ia.structural)
        _assert_hom_sets(fixed_point_presystem(ia),
                         per_injection_presystem(ref))


def test_twisted_quotient_dimension_is_constant_on_classes():
    # A(U) and A(gUg^-1) are isomorphic for g in D x D
    S4 = _catalog_group("s4")
    ia = InteriorAlgebra(group_algebra(S4, make_field(2, 1)),
                         sylow_subgroup(S4, 2))
    tc = twisted_classes(ia.D)
    assert ia.D.order == 8 and len(tc) > 1
    for i, td in enumerate(tc.reps):
        assert {ia.brauer(pairs).dim for pairs in tc.members(i)} == \
            {ia.brauer(td).dim}


def test_presystem_enumerates_no_injections(monkeypatch):
    ia = InteriorAlgebra(group_algebra(D8, make_field(2, 1)),
                         D8.full_subgroup())
    twisted_classes(ia.D)
    calls = []

    def counting(P, Q):
        calls.append((P, Q))
        return injective_maps(P, Q)

    monkeypatch.setattr(groups, "injective_maps", counting)
    monkeypatch.setattr(fusion, "injective_maps", counting, raising=False)
    fixed_point_presystem(ia)
    assert calls == []


def _check_families(engine, r):
    """Below every maximal pair of every block, the Alperin-Broue walk
    finds exactly the one pair per subgroup that the pointed-group
    criterion finds.  Returns the blocks' posets."""
    posets = [BrauerPairPoset(engine, b) for b in engine.blocks]
    for poset in posets:
        for mx in poset.maximal:
            D, eD = poset.pairs[mx]
            family = engine.family(D, eD)
            assert set(family) == {P.key for P in all_subgroups(D)}
            for P in all_subgroups(D):
                assert [e for e in range(len(engine.blocks_at(P)))
                        if pair_leq(engine, P, e, D, eD, r)] == \
                    [family[P.key]]
    return posets


@pytest.mark.parametrize("name,p", CATALOG + [("a5", 3), ("a5", 5)])
def test_family_is_the_pointed_group_subpairs(name, p):
    engine = BrauerPairs(build_group_algebra(_catalog_group(name), p), rng())
    _check_families(engine, rng())


# C3 x| D8, with D8 acting on C3 through D8 / V4 = C2: (kG)(V4) =
# k(C3 x V4) has two blocks that D8 swaps, so only stability singles
# out the pair below (D8, e)
C3_D8 = group_from_generators(
    7, [(1, 2, 0, 3, 4, 5, 6), (1, 0, 2, 4, 5, 6, 3), (0, 1, 2, 3, 6, 5, 4)],
    "C3:D8")


def test_family_rejects_blocks_that_are_not_stable():
    engine = BrauerPairs(build_group_algebra(C3_D8, 2), rng())
    principal = next(b for b in engine.blocks
                     if np.any(engine.quotient(engine.S).project(b)))
    poset = BrauerPairPoset(engine, principal)
    D, eD = poset.pairs[poset.maximal[0]]
    assert D.order == 8
    V = next(P for P in all_subgroups(D)
             if P.order == 4 and len(engine.blocks_at(P)) == 3)
    gens = D.generating_sequence()
    stable = [t for t, f in enumerate(engine.blocks_at(V))
              if all(np.array_equal(engine.image_under(V, f, g), f)
                     for g in gens)]
    assert len(stable) == 1
    assert engine.family(D, eD)[V.key] == stable[0]
    # the other block has two maximal pairs (V4, e), swapped by D8
    posets = _check_families(engine, rng())
    assert sorted(len(poset.maximal) for poset in posets) == [1, 2]


def _s3_poset_at_2():
    engine = BrauerPairs(build_group_algebra(S3, 2), rng())
    principal = next(b for b in engine.blocks
                     if np.any(engine.quotient(engine.S).project(b)))
    return engine, BrauerPairPoset(engine, principal)


@pytest.mark.parametrize("absorbs,found", [(False, 0), (True, 2)])
def test_walk_raises_unless_one_block_lies_below(absorbs, found,
                                                 monkeypatch):
    # kS3 at p = 2 has two blocks: both lie below (C2, e) when e.br(f) = e
    # holds for every f, and none does when it holds for none
    engine, poset = _s3_poset_at_2()
    monkeypatch.setattr(engine, "absorbed", lambda P, x: list(
        range(len(engine.blocks_at(P)))) if absorbs else [])
    with pytest.raises(FusionError, match=f"^{found} blocks"):
        block_fusion(poset, poset.maximal[0])


def test_block_fusion_raises_on_a_pair_not_over_b(monkeypatch):
    engine, poset = _s3_poset_at_2()
    P, _ = poset.pairs[0]
    assert P.order == 1 and poset.maximal == [len(poset.pairs) - 1]
    monkeypatch.setattr(poset, "pairs", poset.pairs[1:])
    with pytest.raises(FusionError, match="not over b"):
        block_fusion(poset, len(poset.pairs) - 1)


@pytest.mark.parametrize("name,p", CATALOG + [("a5", 2), ("a5", 3),
                                              ("a5", 5)])
def test_principal_block_fusion_is_group_fusion(name, p):
    # Brauer's third main theorem: the principal block b0, the one with
    # b0.(sum of G) != 0, has a Sylow subgroup S as defect group and
    # F_S(b0) = F_S(G).  The block side walks the Brauer pairs,
    # normalizers, cosets and conjugations; the group side only
    # conjugates S's subgroups by G
    G = _catalog_group(name)
    A = build_group_algebra(G, p)
    engine = BrauerPairs(A, rng())
    total = np.ones(A.dim, dtype=np.int64)
    principal = [b for b in engine.blocks if np.any(A.mul(b, total))]
    assert len(principal) == 1
    poset = BrauerPairPoset(engine, principal[0])
    D = poset.pairs[poset.maximal[0]][0]
    assert D.key == engine.S.key
    assert fusion_equal(block_fusion(poset, poset.maximal[0]),
                        fusion_from_group(D, G))
