"""The product table of a PermGroup against the tuple products.

Every group fact is computed on element indices through `PermGroup.mul`
and `PermGroup.inv`.  Here each is compared with its definition on
permutation tuples, through `pmul` and `pinv`, on every catalog group,
on A5 and on SL(2,3) acting regularly on itself (degree 24).  The
group-algebra tables are compared with the sort of all products that
built them before the table existed."""

import itertools
import os

import numpy as np
import pytest

from bflab import groups
from bflab.algebra import group_algebra
from bflab.gf import field
from bflab.groups import (GroupError, PermGroup, all_subgroups, centralizer,
                          group_from_generators, injective_maps, load_group,
                          normalizer, pinv, pmul, sylow_subgroup,
                          twisted_classes)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "bflab", "data")
A5_PATH = os.path.join(ROOT, "perfbench", "groups", "a5.json")
CATALOG = sorted(fn[:-5] for fn in os.listdir(DATA) if fn.endswith(".json"))


def _regular(G):
    """G acting on itself by left multiplication, on the points 0..|G|-1."""
    where = {g: i for i, g in enumerate(G.elements)}
    gens = [tuple(where[pmul(g, x)] for x in G.elements)
            for g in G.generators]
    return group_from_generators(G.order, gens, f"{G.label} regular")


def _group(name):
    if name == "a5":
        return load_group(A5_PATH)
    if name == "sl23-regular":
        return _regular(load_group(os.path.join(DATA, "sl23.json")))
    return load_group(os.path.join(DATA, f"{name}.json"))


GROUPS = CATALOG + ["a5", "sl23-regular"]


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and
            all(p % q for q in range(2, p))]


# -- the tuple definitions ---------------------------------------------------

def _conj(g, x):
    return pmul(pmul(g, x), pinv(g))


def _order(g):
    power, n = g, 1
    while power != tuple(range(len(g))):
        power, n = pmul(power, g), n + 1
    return n


def _tuple_close(gens, degree):
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        new = [y for g in gens for x in frontier
               if (y := pmul(g, x)) not in elems]
        elems.update(new)
        frontier = list(dict.fromkeys(new))
    return elems


def _tuple_classes(elements):
    classes, seen = [], set()
    for x in elements:
        if x not in seen:
            cls = sorted({_conj(g, x) for g in elements})
            seen.update(cls)
            classes.append(cls)
    return classes


def _tuple_all_subgroups(H):
    degree = H.parent.degree
    seen = {frozenset([H.identity]): []}
    frontier = [frozenset([H.identity])]
    while frontier:
        new = []
        for sub in frontier:
            for x in H.elements:
                if x not in sub:
                    gens = seen[sub] + [x]
                    bigger = frozenset(_tuple_close(gens, degree))
                    if bigger not in seen:
                        seen[bigger] = gens
                        new.append(bigger)
        frontier = new
    return sorted((sorted(s) for s in seen), key=lambda s: (len(s), s))


def _tuple_generating_sequence(H):
    gens, cur = [], {H.identity}
    for x in H.elements:
        if x not in cur:
            gens.append(x)
            cur = _tuple_close(gens, H.parent.degree)
    return gens


def _tuple_injective_maps(P, D):
    """Graphs of the maps P -> D, in the order of their generator images:
    each choice of images of the same orders, extended along words, kept
    when it respects all |P|^2 products and is injective."""
    gens = _tuple_generating_sequence(P)
    candidates = [[d for d in D.elements if _order(d) == _order(g)]
                  for g in gens]
    out = []
    for images in itertools.product(*candidates):
        f = {P.identity: D.identity}
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
            out.append(frozenset(f.items()))
    return out


def _tuple_twisted_classes(D):
    """(rep pair sets, canonical keys, marks, orbits) by the D x D sweep
    on pair tuples, classes in the order of the first rep found."""
    found, seen = {}, set()
    for P in _tuple_all_subgroups(D):
        Psub = D.subgroup(P)
        for graph in _tuple_injective_maps(Psub, D):
            pairs = frozenset((y, x) for x, y in graph)
            if pairs in seen:
                continue
            orbit = {frozenset((_conj(a, x), _conj(b, y)) for x, y in pairs)
                     for a in D.elements for b in D.elements}
            seen |= orbit
            found[min(tuple(sorted(c)) for c in orbit)] = (pairs, orbit)
    keys = sorted(found, key=lambda k: (-len(k), k))
    reps = [found[k][0] for k in keys]
    orbits = [found[k][1] for k in keys]
    d2 = D.order ** 2
    marks = [[sum(1 for c in orbits[j] if reps[i] <= c) *
              (d2 // len(orbits[j])) // len(reps[j])
              for j in range(len(keys))] for i in range(len(keys))]
    return reps, keys, marks, orbits


def _sorted_product_tables(elements):
    """kH's tables by sorting every product of image rows: ltable[k, j]
    indexes g_k g_j^-1 and rtable[k, j] g_j^-1 g_k."""
    n = len(elements)
    perms = np.array(elements, dtype=np.int64).reshape(n, -1)
    inv = np.argsort(perms, axis=1)
    ks = np.arange(n)
    prods = np.concatenate([perms[ks[:, None, None], inv[None, :, :]],
                            inv[ks[None, :, None], perms[:, None, :]]])
    found, which = np.unique(prods.reshape(2 * n * n, perms.shape[1]),
                             axis=0, return_inverse=True)
    assert np.array_equal(found, perms)
    return which.reshape(2, n, n)


# -- the tests ----------------------------------------------------------------

@pytest.mark.parametrize("name", GROUPS)
def test_product_table_matches_the_tuple_products(name):
    G = _group(name)
    E, index = G.elements, G.index
    assert E == sorted(E) and G.identity == E[0]
    expected = np.array([[index[pmul(a, b)] for b in E] for a in E])
    assert np.array_equal(G.mul, expected)
    assert G.inv.tolist() == [index[pinv(a)] for a in E]
    assert G.conjugation.tolist() == [[index[_conj(a, x)] for x in E]
                                      for a in E]
    assert G.orders.tolist() == [_order(a) for a in E]
    assert [G.inverse(a) for a in E] == [pinv(a) for a in E]


@pytest.mark.parametrize("name", GROUPS)
def test_group_algebra_tables_match_the_sorted_products(name):
    # kG and kC_G(S) for a Sylow subgroup S of each order: the table
    # restricted to H gives the arrays the sort of all products gives
    G = _group(name)
    k = field(2)
    subs = [G] + [centralizer(G, sylow_subgroup(G, p))
                  for p in _primes(G.order)]
    for H in subs:
        A = group_algebra(H, k)
        ltable, rtable = _sorted_product_tables(H.elements)
        assert A._ltable.dtype == ltable.dtype == np.intp
        assert np.array_equal(A._ltable, ltable)
        assert np.array_equal(A._rtable, rtable)
        assert A.labels == list(H.elements)
        assert A.element_index == {g: i for i, g in enumerate(H.elements)}


@pytest.mark.parametrize("name", GROUPS)
def test_group_facts_match_the_tuple_definitions(name):
    G = _group(name)
    E = G.elements
    assert G.conjugacy_classes() == _tuple_classes(E)
    assert G.exponent() == np.lcm.reduce([_order(a) for a in E])
    full = G.full_subgroup()
    subs = all_subgroups(full)
    if G.order <= 24:
        assert [H.elements for H in subs] == _tuple_all_subgroups(full)
    for H in subs:
        assert centralizer(G, H).elements == [
            g for g in E if all(pmul(g, x) == pmul(x, g) for x in H.elements)]
        assert normalizer(G, H).elements == [
            g for g in E if {_conj(g, x) for x in H.elements} == H.key]
        assert H.generating_sequence() == _tuple_generating_sequence(H)
        assert H.conjugacy_classes() == _tuple_classes(H.elements)
        reps, seen = [], set()
        for x in E:
            if x not in seen:
                reps.append(x)
                seen.update(pmul(x, h) for h in H.elements)
        assert full.left_coset_reps(H) == reps
        g = E[-1]
        assert H.conjugate(g).elements == sorted(
            _conj(g, x) for x in H.elements)
    for p in _primes(G.order):
        S = sylow_subgroup(G, p)
        assert S.elements == _tuple_sylow(G, p)
        assert G.order // S.order % p
        assert [H.elements for H in all_subgroups(S)] == \
            _tuple_all_subgroups(S)


def _tuple_sylow(G, p):
    """The greedy Sylow subgroup: p-elements added in order while the
    closure stays a p-group, until none is added."""
    def is_p_power(n):
        while n % p == 0:
            n //= p
        return n == 1
    p_elements = [g for g in G.elements if is_p_power(_order(g))]
    cur, gens = {G.identity}, []
    changed = True
    while changed:
        changed = False
        for x in p_elements:
            if x not in cur:
                cand = _tuple_close(gens + [x], G.degree)
                if is_p_power(len(cand)):
                    cur, gens, changed = cand, gens + [x], True
    return sorted(cur)


@pytest.mark.parametrize("name", GROUPS)
def test_maps_and_twisted_classes_match_the_tuple_path(name):
    G = _group(name)
    for p in _primes(G.order):
        S = sylow_subgroup(G, p)
        for P in all_subgroups(S):
            assert [phi.graph for phi in injective_maps(P, S)] == \
                _tuple_injective_maps(P, S)
        tc = twisted_classes(S)
        reps, keys, marks, orbits = _tuple_twisted_classes(S)
        assert [td.pairs for td in tc.reps] == reps
        assert tc.keys == keys
        assert tc.marks == marks
        for i, orbit in enumerate(orbits):
            assert tc.members(i) == orbit
            assert all(tc.class_index(pairs) == i for pairs in orbit)


def test_a_corrupted_lookup_raises(monkeypatch):
    # one wrong entry in any level of the base-code lookup is caught by
    # the code check, never turned into a wrong index
    G = load_group(A5_PATH)
    perms = np.array(G.elements).reshape(G.order, G.degree)
    searchsorted = np.searchsorted
    calls = []
    for level in range(3):
        def corrupt(keys, found, *args, **kwargs):
            at = searchsorted(keys, found, *args, **kwargs)
            if len(calls) == level:
                at = at.copy()
                at[7, 11] = (at[7, 11] + 1) % keys.size
            calls.append(at)
            return at
        calls.clear()
        monkeypatch.setattr(np, "searchsorted", corrupt)
        with pytest.raises(GroupError, match="not closed"):
            groups._product_table(perms)
    monkeypatch.undo()
    assert len(calls) == 3      # A5 on 5 points has a base of 3 points
    assert np.array_equal(groups._product_table(perms), G.mul)


def test_rows_outside_the_group_raise():
    # an odd permutation among the rows of A5, and a row of C3 that
    # agrees with an element on the base but not elsewhere
    G = load_group(A5_PATH)
    perms = np.array(G.elements).reshape(G.order, G.degree)
    perms[5] = (1, 0, 2, 3, 4)
    with pytest.raises(GroupError):
        groups._product_table(perms[np.lexsort(perms.T[::-1])])
    c3 = np.array([(0, 1, 2), (1, 0, 2), (2, 0, 1)])
    with pytest.raises(GroupError, match="Latin"):
        groups._product_table(c3)


def test_the_table_is_built_on_first_use():
    G = load_group(A5_PATH)
    assert "mul" not in vars(G) and "inv" not in vars(G)
    sylow_subgroup(G, 5)
    assert isinstance(G, PermGroup) and G.mul.shape == (60, 60)
    assert not G.mul.flags.writeable
