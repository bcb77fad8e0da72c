import itertools
import os

import pytest

from bflab.groups import (GroupError, OrderCapExceeded, TwistedClasses,
                          TwistedDiagonal, all_subgroups, centralizer,
                          group_from_generators, injective_maps, load_group,
                          maximal_subgroups, normalizer, pinv, pmul,
                          subgroup_classes, sylow_subgroup, twisted_classes)
from bflab.interior import _pair_perm_group, pair_subgroup


def S3():
    return group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")


def V4():
    return group_from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)], "V4")


def D8():
    return group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")


def test_group_orders():
    assert S3().order == 6
    assert V4().order == 4
    assert group_from_generators(1, [], "1").order == 1


def test_invalid_permutation():
    with pytest.raises(GroupError):
        group_from_generators(3, [(0, 0, 1)])


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        group_from_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
                              order_cap=20)


def test_conjugacy_classes():
    assert sorted(len(c) for c in S3().conjugacy_classes()) == [1, 2, 3]
    C4 = group_from_generators(4, [(1, 2, 3, 0)], "C4")
    assert sorted(len(c) for c in C4.conjugacy_classes()) == [1, 1, 1, 1]
    assert sorted(len(c) for c in V4().conjugacy_classes()) == [1, 1, 1, 1]


def test_sylow():
    assert sylow_subgroup(S3(), 3).order == 3
    assert sylow_subgroup(S3(), 2).order == 2
    C6 = group_from_generators(6, [(1, 2, 3, 4, 5, 0)], "C6")
    assert sylow_subgroup(C6, 5).order == 1


def test_p_subgroup_classes():
    G = S3()
    assert sorted(s.order for s in
                  subgroup_classes(G, sylow_subgroup(G, 3))) == [1, 3]
    # D8 as its own ambient: 8 classes of 2-subgroups
    G = D8()
    assert len(subgroup_classes(G, sylow_subgroup(G, 2))) == 8


def test_centralizer_normalizer():
    G = S3()
    C3 = sylow_subgroup(G, 3)
    assert centralizer(G, C3).order == 3
    assert normalizer(G, C3).order == 6
    triv = G.full_subgroup().subgroup([G.identity])
    assert centralizer(G, triv).order == 6


def test_subgroup_class_counts_by_normalizer_index():
    # sum over classes of [G : N_G(P)] = number of subgroups of that order
    for G in (S3(), D8()):
        full = G.full_subgroup()
        subs = all_subgroups(full)
        for order in sorted({s.order for s in subs}):
            total = sum(1 for s in subs if s.order == order)
            classes = {}
            for s in subs:
                if s.order != order:
                    continue
                canon = min(tuple(sorted(s.conjugate(g).elements))
                            for g in G.elements)
                classes.setdefault(canon, s)
            acc = sum(G.order // normalizer(G, s).order
                      for s in classes.values())
            assert acc == total


def test_injective_maps_counts():
    C2 = group_from_generators(2, [(1, 0)], "C2").full_subgroup()
    assert len(injective_maps(C2, C2)) == 1
    v = V4().full_subgroup()
    triv = v.subgroup([v.identity])
    assert len(injective_maps(triv, v)) == 1
    c2_in_v4 = v.subgroup([v.identity, (1, 0, 3, 2)])
    assert len(injective_maps(c2_in_v4, v)) == 3


def test_injective_maps_compose_closed():
    G = D8()
    full = G.full_subgroup()
    P = full.subgroup([G.identity, (1, 0, 3, 2)])
    maps_pd = injective_maps(P, full)
    autos = injective_maps(full, full)
    targets = {m.graph for m in maps_pd}
    for phi in maps_pd:
        for alpha in autos:
            comp = alpha.compose(phi)
            assert comp.graph in targets


def test_injective_maps_chain_through_intermediate_group():
    # maps P -> D composed with maps D -> E land in maps P -> E
    G = D8()
    full = G.full_subgroup()
    P = full.subgroup([G.identity, (2, 3, 0, 1)])          # centre
    v4 = full.subgroup([G.identity, (2, 3, 0, 1),
                        (1, 0, 3, 2), (3, 2, 1, 0)])
    maps_pv = injective_maps(P, v4)
    maps_ve = injective_maps(v4, full)
    targets = {m.graph for m in injective_maps(P, full)}
    assert maps_pv and maps_ve
    for phi in maps_pv:
        for psi in maps_ve:
            assert psi.compose(phi).graph in targets


def test_twisted_classes_c2_marks():
    C2 = group_from_generators(2, [(1, 0)], "C2").full_subgroup()
    tc = TwistedClasses(C2)
    assert len(tc) == 2
    assert [td.order for td in tc.reps] == [2, 1]
    # hand count: |(Q/D(C2))^{D(C2)}| = 2, |(Q/D(C2))^1| = 2,
    #             |(Q/1)^1| = 4, |(Q/1)^{D(C2)}| = 0
    assert tc.marks == [[2, 0], [2, 4]]


def test_twisted_classes_c3():
    C3 = group_from_generators(3, [(1, 2, 0)], "C3").full_subgroup()
    tc = TwistedClasses(C3)
    assert [td.order for td in tc.reps] == [3, 3, 1]


def test_twisted_classes_trivial():
    T = group_from_generators(1, [], "1").full_subgroup()
    tc = TwistedClasses(T)
    assert len(tc) == 1 and tc.marks == [[1]]


def test_marks_triangular_with_normalizer_diagonal():
    D = D8().full_subgroup()
    tc = TwistedClasses(D)
    n = len(tc)
    d2 = D.order ** 2
    for i in range(n):
        for j in range(n):
            if j > i:
                assert tc.marks[i][j] == 0 or \
                    len(tc.keys[i]) == len(tc.keys[j]), \
                    "nonzero above the block diagonal"
    # diagonal = |N_{DxD}(R) / R|
    big = _pair_perm_group(D)
    for i, td in enumerate(tc.reps):
        sub = pair_subgroup(D, td.pairs)
        nn = normalizer(big, sub).order
        assert tc.marks[i][i] == nn // td.order
        assert tc.marks[i][i] > 0


def _canonical_pair_set(pairs, D):
    """Reference canonical form: the least sorted conjugate pair tuple
    over the full D x D sweep."""
    best = None
    for a in D.elements:
        for b in D.elements:
            ai, bi = pinv(a), pinv(b)
            cand = tuple(sorted((pmul(pmul(a, x), ai), pmul(pmul(b, y), bi))
                                for x, y in pairs))
            if best is None or cand < best:
                best = cand
    return best


def test_class_index_matches_conjugation_sweep():
    # the stored lookup agrees with the D x D conjugation sweep on every
    # twisted diagonal, and still rejects a pair set that is not one
    D = D8().full_subgroup()
    tc = TwistedClasses(D)
    for P in all_subgroups(D):
        for phi in injective_maps(P, D):
            td = TwistedDiagonal(phi)
            i = tc.class_index(td)
            assert tc.keys[i] == _canonical_pair_set(td.pairs, D)
            assert tc.class_index(td.pairs) == i
    x = next(g for g in D.elements if g != D.identity)
    with pytest.raises(KeyError):
        tc.class_index([(D.identity, D.identity), (x, D.identity)])


def test_maximal_subgroups_of_d8():
    full = D8().full_subgroup()
    maxes = maximal_subgroups(full)
    assert sorted(m.order for m in maxes) == [4, 4, 4]


def test_members_partition_the_twisted_diagonals():
    D = D8().full_subgroup()
    tc = TwistedClasses(D)
    every = {TwistedDiagonal(phi).pairs for P in all_subgroups(D)
             for phi in injective_maps(P, D)}
    seen = set()
    for i, td in enumerate(tc.reps):
        members = tc.members(i)
        assert td.pairs in members
        assert all(tc.class_index(pairs) == i for pairs in members)
        assert not members & seen
        seen |= members
    assert seen == every


D8_DOC = {"label": "D8", "degree": 4,
          "generators": [[2, 3, 4, 1], [2, 1, 4, 3]]}


def test_subgroup_facts_are_owned_by_the_parent_group():
    G = load_group(D8_DOC)
    a, b = G.full_subgroup(), G.subgroup(G.elements)
    assert a is not b and a.key == b.key
    subs = all_subgroups(a)
    assert isinstance(subs, tuple) and all_subgroups(b) is subs
    assert maximal_subgroups(b) is maximal_subgroups(a)
    assert _pair_perm_group(b) is _pair_perm_group(a)
    assert twisted_classes(b) is twisted_classes(a)
    pairs = [(x, x) for x in a.elements]
    assert pair_subgroup(b, pairs) is pair_subgroup(a, pairs)
    assert G.generated_subgroup(G.generators) is \
        G.generated_subgroup(reversed(G.generators))
    # a fresh group starts with fresh memos
    c = load_group(D8_DOC).full_subgroup()
    assert all_subgroups(c) is not subs and all_subgroups(c) == subs
    assert _pair_perm_group(c) is not _pair_perm_group(a)
    assert twisted_classes(c) is not twisted_classes(a)
    assert pair_subgroup(c, pairs) is not pair_subgroup(a, pairs)


def _brute_force_injections(P, Q):
    """Graphs of the injective homomorphisms P -> Q: every choice of
    generator images, extended along words, kept when all |P|^2 products
    are respected and the map is injective."""
    gens = P.generating_sequence()
    out = set()
    for images in itertools.product(Q.elements, repeat=len(gens)):
        f = {P.identity: Q.identity}
        frontier = [P.identity]
        while frontier:
            x = frontier.pop()
            for g, img in zip(gens, images):
                if pmul(g, x) not in f:
                    f[pmul(g, x)] = pmul(img, f[x])
                    frontier.append(pmul(g, x))
        if len(set(f.values())) == P.order and all(
                f[pmul(a, b)] == pmul(f[a], f[b])
                for a in P.elements for b in P.elements):
            out.add(frozenset(f.items()))
    return out


@pytest.mark.parametrize("name", ["d8", "q8", "sl23"])
def test_injective_maps_match_the_brute_force_enumeration(name):
    # the generator walk re-checks no product; on every pair of subgroups
    # of a 2-group (of D8, Q8 and the Sylow 2-subgroup of SL(2,3)) it
    # finds exactly the maps that respect all |P|^2 products
    data = os.path.join(os.path.dirname(__file__), "..", "src", "bflab",
                        "data", f"{name}.json")
    S = sylow_subgroup(load_group(data), 2)
    subs = all_subgroups(S)
    for P in subs:
        for Q in subs:
            maps = injective_maps(P, Q)
            assert {phi.graph for phi in maps} == \
                _brute_force_injections(P, Q)
            assert maps is injective_maps(P, Q)
