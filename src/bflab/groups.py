"""Finite permutation groups, fully enumerated, and their p-local data.

Permutations on {0..n-1} are tuples of images.  Groups are closed
element lists (order cap enforced at construction), sorted, so element i
of a group is its i-th least tuple and the identity is element 0.
Index order is tuple order: sorting indices sorts the tuples, so every
canonical form, class order and table computed on indices is the one
the tuples would give, and the public faces (`Subgroup.elements` and
`.key`, `GroupInjection`, `TwistedDiagonal.pairs`) stay tuples.

A PermGroup owns one product table over its indices, built on first
use: `mul[i, j]` indexes g_i.g_j (g_j applied first, as in `pmul`) and
`inv[i]` indexes g_i^-1.  Every fact here reads it, with no product of
tuples: closures, classes, cosets, centralizers, normalizers, Sylow
subgroups, subgroup lattices, injective maps and the twisted-diagonal
classes; `bflab.algebra.group_algebra` restricts it to the tables of
kH.  `pmul` and `pinv`, the tuple products, are the test oracle of the
table.  Subgroups carry a reference to their parent group, which
memoizes every fact about a subgroup by its element set.  Everything
downstream is dense in the group order, so brute-force enumeration is
the intended regime.

Also here: injective homomorphisms between subgroups, twisted diagonal
subgroups Delta(phi, P) of D x D, their conjugacy classes, and the table
of marks used to convert Brauer-quotient dimensions into biset shapes.
"""

import json
from functools import cached_property
from math import lcm

import numpy as np

from .gf import is_prime, p_part

DEFAULT_ORDER_CAP = 500


class GroupError(ValueError):
    pass


class OrderCapExceeded(GroupError):
    pass


def pmul(a, b):
    """Composite permutation: apply b first, then a."""
    return tuple(a[x] for x in b)


def pinv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _enumerate(generators, degree, cap):
    """The elements of <generators> as image tuples: the identity closed
    under left multiplication by the generators, one breadth-first level
    at a time (g.x is the row g[x])."""
    gens = np.array(generators, dtype=np.intp).reshape(-1, degree)
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        new = []
        images = gens[:, np.array(frontier, dtype=np.intp)]
        for y in map(tuple, images.reshape(-1, degree).tolist()):
            if y not in elems:
                elems.add(y)
                new.append(y)
                if len(elems) > cap:
                    raise OrderCapExceeded(f"group order exceeds cap {cap}")
        frontier = new
    return elems


def _product_table(perms):
    """mul[i, j] = the index of row_i o row_j among the sorted, closed
    rows of perms.

    Elements are told apart by their images of a base: the points
    b_1 < b_2 < ... kept while each splits more elements apart.  The
    code of an element at level k is the rank of its images of
    b_1..b_k among the elements'; the product g_i.g_j sends b to
    g_i(g_j(b)), so its code is looked up level by level with
    `searchsorted`, and every found code is verified.  Codes stay below
    n * degree, so the lookup is exact at every degree.  The table must
    be a Latin square, or a GroupError is raised."""
    n, d = perms.shape
    code = np.zeros(n, dtype=np.intp)
    prod = np.zeros((n, n), dtype=np.intp)
    classes = 1
    for b in range(d):
        if classes == n:
            break
        keys, rank = np.unique(code * d + perms[:, b], return_inverse=True)
        if keys.size == classes:
            continue
        found = prod * d + perms[:, perms[:, b]]
        at = np.minimum(np.searchsorted(keys, found), keys.size - 1)
        if not np.array_equal(keys[at], found):
            raise GroupError("the elements are not closed under products")
        code, prod, classes = rank, at, keys.size
    if classes != n:
        raise GroupError("repeated elements")
    where = np.empty(n, dtype=np.intp)
    where[code] = np.arange(n)
    mul = where[prod]
    # each row and each column must hold every index
    held = np.zeros((2, n, n), dtype=bool)
    held[0, np.arange(n)[:, None], mul] = True
    held[1, mul, np.arange(n)] = True
    if not held.all():
        raise GroupError("the product table is not a Latin square")
    return mul


class PermGroup:
    def __init__(self, degree, generators, label="G", order_cap=DEFAULT_ORDER_CAP):
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise GroupError(f"invalid permutation {g} of degree {degree}")
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.label = label
        self.elements = sorted(_enumerate(self.generators, degree, order_cap))
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity = self.elements[0]
        # Facts about subgroups are owned by the parent group, keyed by
        # the subgroup's element set, and live as long as the group: two
        # Subgroup objects with one key share them.
        self._subgroups_memo = {}        # key -> all_subgroups tuple
        self._maximal_memo = {}          # key -> maximal_subgroups tuple
        self._generated_memo = {}        # generator set -> Subgroup
        self._pair_group_memo = {}       # key -> D x D (bflab.interior)
        self._injective_memo = {}        # (P key, D key) -> injective_maps
        self._twisted_classes_memo = {}  # key -> TwistedClasses

    @property
    def order(self):
        return len(self.elements)

    # -- the product table and the facts read off it ---------------------

    @cached_property
    def mul(self):
        """mul[i, j] indexes g_i.g_j: |G|^2 entries, built on first use."""
        mul = _product_table(np.array(self.elements, dtype=np.intp)
                             .reshape(self.order, self.degree))
        mul.flags.writeable = False
        return mul

    @cached_property
    def inv(self):
        """inv[i] indexes g_i^-1 (the 0, the identity, of row i)."""
        inv = self.mul.argmin(axis=1)
        inv.flags.writeable = False
        return inv

    @cached_property
    def conjugation(self):
        """conj[a, x] indexes g_a.g_x.g_a^-1."""
        conj = self.mul[self.mul, self.inv[:, None]]
        conj.flags.writeable = False
        return conj

    @cached_property
    def _rows(self):
        """The table as lists, for the walks that read one entry at a
        time."""
        return self.mul.tolist()

    @cached_property
    def orders(self):
        """The order of each element."""
        n = self.order
        orders = np.zeros(n, dtype=np.intp)
        power, k = np.arange(n), 1
        while True:
            orders[(power == 0) & (orders == 0)] = k
            if orders.all():
                return orders
            power, k = self.mul[power, np.arange(n)], k + 1

    def inverse(self, g):
        """g^-1 as a tuple."""
        return self.elements[self.inv[self.index[g]]]

    def full_subgroup(self):
        return self._full

    @cached_property
    def _full(self):
        return Subgroup._at(self, np.arange(self.order))

    def subgroup(self, elems):
        return Subgroup(self, frozenset(elems))

    def generated_subgroup(self, gens):
        """The subgroup generated by gens, memoized by generator set."""
        gens = frozenset(gens)
        sub = self._generated_memo.get(gens)
        if sub is None:
            idx = _close(self, [self.index[g] for g in gens])
            sub = Subgroup._at(self, sorted(idx))
            self._generated_memo[gens] = sub
        return sub

    def exponent(self):
        return lcm(*set(self.orders.tolist()))

    def conjugacy_classes(self):
        return self.full_subgroup().conjugacy_classes()

    def __repr__(self):
        return f"PermGroup({self.label}, order {self.order})"


def _close(group, gens):
    """The index set of the subgroup of group generated by the element
    indices gens: 0 closed under left multiplication by the gens."""
    rows = [group._rows[g] for g in gens]
    elems = {0}
    frontier = [0]
    while frontier:
        new = []
        for row in rows:
            for x in frontier:
                y = row[x]
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


class Subgroup:
    def __init__(self, parent, elems):
        self.parent = parent
        self.key = frozenset(elems)
        if parent.identity not in self.key:
            raise GroupError("subgroup must contain the identity")
        try:
            idx = sorted(parent.index[x] for x in self.key)
        except KeyError:
            raise GroupError("subgroup element outside the group") from None
        self.idx = np.array(idx, dtype=np.intp)
        self.elements = [parent.elements[i] for i in idx]
        if not set(parent.inv[self.idx].tolist()) <= set(idx):
            raise GroupError("subgroup not closed under inverse")

    @classmethod
    def _at(cls, parent, idx):
        """The subgroup at the sorted parent indices idx, unchecked."""
        self = cls.__new__(cls)
        self.parent = parent
        self.idx = np.asarray(idx, dtype=np.intp)
        self.elements = [parent.elements[i] for i in self.idx.tolist()]
        self.key = frozenset(self.elements)
        return self

    @property
    def order(self):
        return len(self.elements)

    @property
    def identity(self):
        return self.parent.identity

    def contains(self, x):
        return x in self.key

    def conjugate(self, g):
        """g.self.g^-1."""
        G = self.parent
        return Subgroup._at(G, sorted(G.conjugation[G.index[g],
                                                    self.idx].tolist()))

    def subgroup(self, elems):
        return Subgroup(self.parent, frozenset(elems))

    def generating_sequence(self):
        """Greedy short generating sequence."""
        gens = []
        cur = {0}
        for x in self.idx.tolist():
            if x not in cur:
                gens.append(x)
                cur = _close(self.parent, gens)
                if len(cur) == self.order:
                    break
        return [self.parent.elements[g] for g in gens]

    def conjugacy_classes(self):
        """Classes as sorted element lists, in order of their first
        element (each class is listed from its least index)."""
        G = self.parent
        least = G.conjugation[np.ix_(self.idx, self.idx)].min(axis=0)
        classes = {}
        for x, first in zip(self.idx.tolist(), least.tolist()):
            classes.setdefault(first, []).append(G.elements[x])
        return list(classes.values())

    def left_coset_reps(self, sub):
        """Representatives of self / sub (sub must be a subgroup of self):
        the least element of each coset x.sub."""
        if not sub.key <= self.key:
            raise GroupError("cosets of a set that is not a subgroup")
        at = _indices_in(self.parent, sub)
        least = self.parent.mul[np.ix_(self.idx, at)].min(axis=1)
        E = self.parent.elements
        return [E[i] for i in self.idx[least == self.idx].tolist()]

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.key == other.key and \
            self.parent.degree == other.parent.degree

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Subgroup(order {self.order})"


def group_from_generators(degree, generators, label="G",
                          order_cap=DEFAULT_ORDER_CAP):
    return PermGroup(degree, generators, label=label, order_cap=order_cap)


def load_group(path_or_dict, order_cap=DEFAULT_ORDER_CAP):
    """Group from the JSON interchange format (1-based image arrays)."""
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict) as fh:
            doc = json.load(fh)
    degree = doc["degree"]
    gens = [tuple(i - 1 for i in g) for g in doc["generators"]]
    return PermGroup(degree, gens, label=doc.get("label", "G"),
                     order_cap=order_cap)


def _as_subgroup(G):
    return G.full_subgroup() if isinstance(G, PermGroup) else G


def _indices_in(group, elems):
    """The indices in group of a Subgroup's elements (its own indices
    when group is its parent) or of a plain element collection."""
    if isinstance(elems, Subgroup):
        if elems.parent is group:
            return elems.idx
        elems = elems.elements
    try:
        return np.array([group.index[x] for x in elems], dtype=np.intp)
    except KeyError:
        raise GroupError("an element outside the group") from None


def centralizer(G, P):
    """C_G(P) for a subgroup (or plain element collection) P of G."""
    G = _as_subgroup(G)
    mul = G.parent.mul
    at = _indices_in(G.parent, P)
    commute = mul[np.ix_(G.idx, at)] == mul[np.ix_(at, G.idx)].T
    return Subgroup._at(G.parent, G.idx[commute.all(axis=1)])


def normalizer(G, P):
    G = _as_subgroup(G)
    if not isinstance(P, Subgroup):
        raise GroupError("the normalizer needs a Subgroup")
    at = _indices_in(G.parent, P)
    inside = np.zeros(G.parent.order, dtype=bool)
    inside[at] = True
    keeps = inside[G.parent.conjugation[np.ix_(G.idx, at)]].all(axis=1)
    return Subgroup._at(G.parent, G.idx[keeps])


def sylow_subgroup(G, p):
    """A Sylow p-subgroup (maximal p-subgroups are Sylow)."""
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    G = _as_subgroup(G)
    members = G.idx.tolist()
    p_elements = [x for x, o in zip(members, G.parent.orders[G.idx].tolist())
                  if p_part(o, p) == o]
    members = set(members)
    cur, gens = {0}, []                   # cur = <gens>
    changed = True
    while changed:
        changed = False
        for x in p_elements:
            if x in cur:
                continue
            cand = _close(G.parent, gens + [x])
            if p_part(len(cand), p) == len(cand) and cand <= members:
                cur, gens = cand, gens + [x]
                changed = True
    return Subgroup._at(G.parent, sorted(cur))


def all_subgroups(H):
    """Every subgroup of the Subgroup H, by order then elements, memoized
    on its parent group (read-only; H small: intended for p-groups of
    order <= 64)."""
    memo = H.parent._subgroups_memo
    if H.key in memo:
        return memo[H.key]
    seen = {frozenset([0]): []}          # index set -> generators
    frontier = [frozenset([0])]
    elements = H.idx.tolist()
    while frontier:
        new = []
        for sub in frontier:
            for x in elements:
                if x in sub:
                    continue
                gens = seen[sub] + [x]
                bigger = frozenset(_close(H.parent, gens))
                if bigger not in seen:
                    seen[bigger] = gens
                    new.append(bigger)
        frontier = new
    memo[H.key] = tuple(Subgroup._at(H.parent, s) for s in
                        sorted((sorted(s) for s in seen),
                               key=lambda s: (len(s), s)))
    return memo[H.key]


def maximal_subgroups(P):
    """Maximal proper subgroups of the Subgroup P, memoized on its parent
    group (read-only)."""
    memo = P.parent._maximal_memo
    if P.key not in memo:
        subs = [s for s in all_subgroups(P) if s.order < P.order]
        memo[P.key] = tuple(s for s in subs
                            if not any(s.key < t.key for t in subs))
    return memo[P.key]


def subgroup_classes(G, S):
    """One representative per G-conjugacy class met by the subgroups of
    S, the first of its class in `all_subgroups(S)`."""
    G = _as_subgroup(G)
    conj = G.parent.conjugation[G.idx]
    reps = []
    seen = set()
    for sub in all_subgroups(S):
        at = _indices_in(G.parent, sub)
        if tuple(at.tolist()) in seen:
            continue
        seen.update(tuple(sorted(row)) for row in conj[:, at].tolist())
        reps.append(sub)
    return reps


class GroupInjection:
    """Injective homomorphism between subgroups, stored as a full map."""

    def __init__(self, domain, codomain, mapping, check=True):
        self.domain = domain
        self.codomain = codomain
        self.mapping = dict(mapping)
        if check:
            if set(self.mapping) != domain.key:
                raise GroupError("map not total")
            vals = set(self.mapping.values())
            if len(vals) != domain.order:
                raise GroupError("map not injective")
            if not vals <= codomain.key:
                raise GroupError("image leaves codomain")
            # f(a.b) = f(a).f(b), on the parents' tables
            P, Q = domain.parent, codomain.parent
            f = np.empty(P.order, dtype=np.intp)
            f[domain.idx] = [Q.index[self.mapping[x]]
                             for x in domain.elements]
            at = f[domain.idx]
            if not np.array_equal(f[P.mul[np.ix_(domain.idx, domain.idx)]],
                                  Q.mul[np.ix_(at, at)]):
                raise GroupError("map is not multiplicative")
        self.graph = frozenset(self.mapping.items())

    def __call__(self, x):
        return self.mapping[x]

    def image(self):
        return self.codomain.subgroup(self.mapping.values())

    def compose(self, other):
        """self after other."""
        if not other.image().key <= self.domain.key:
            raise GroupError("image leaves the domain of the outer map")
        return GroupInjection(other.domain, self.codomain,
                              {x: self.mapping[y]
                               for x, y in other.mapping.items()}, check=False)

    def inverse(self):
        return GroupInjection(self.image(), self.domain,
                              {y: x for x, y in self.mapping.items()},
                              check=False)

    def restrict(self, sub):
        if not sub.key <= self.domain.key:
            raise GroupError("restriction to a set outside the domain")
        return GroupInjection(sub, self.codomain,
                              {x: self.mapping[x] for x in sub.elements},
                              check=False)

    def corestrict(self, Q=None):
        """Same graph viewed as an isomorphism onto (a group containing)
        the image; defaults to the image itself."""
        img = self.image() if Q is None else Q
        return GroupInjection(self.domain, img, self.mapping, check=False)

    def __eq__(self, other):
        return isinstance(other, GroupInjection) and self.graph == other.graph

    def __hash__(self):
        return hash(self.graph)

    def __repr__(self):
        return f"GroupInjection({self.domain.order} -> {self.codomain.order})"


def identity_injection(P, codomain=None):
    return GroupInjection(P, codomain or P, {x: x for x in P.elements},
                          check=False)


def conjugation_injection(P, g, codomain):
    G = P.parent
    E = G.elements
    images = G.conjugation[G.index[g], P.idx].tolist()
    return GroupInjection(P, codomain, {x: E[y] for x, y in
                                        zip(P.elements, images)},
                          check=False)


def injective_maps(P, D):
    """All injective homomorphisms P -> D, memoized on the parent group
    (read-only), in the order of their generator images."""
    memo = P.parent._injective_memo
    key = (P.key, D.key)
    if key in memo:
        return memo[key]
    if P.order > D.order:
        memo[key] = ()
        return memo[key]
    gens = [P.parent.index[g] for g in P.generating_sequence()]
    if not gens:
        memo[key] = (GroupInjection(P, D, {P.identity: D.identity},
                                    check=False),)
        return memo[key]
    orders = P.parent.orders[gens].tolist()
    d_orders = D.parent.orders[D.idx].tolist()
    candidates = [[d for d, od in zip(D.idx.tolist(), d_orders) if od == o]
                  for o in orders]
    PE, DE = P.parent.elements, D.parent.elements
    out = []

    def extend(idx, partial_images):
        if idx == len(gens):
            mapping = _hom_from_generators(P, gens, partial_images, D)
            if mapping is not None and len(set(mapping.values())) == P.order:
                out.append(GroupInjection(
                    P, D, {PE[x]: DE[y] for x, y in mapping.items()},
                    check=False))
            return
        for c in candidates[idx]:
            extend(idx + 1, partial_images + [c])

    extend(0, [])
    memo[key] = tuple(out)
    return memo[key]


def _hom_from_generators(P, gens, images, D):
    """Extend gens -> images (parent indices) to a homomorphism P -> D,
    as a map of parent indices, or None.

    The walk from 1 along the generator edges x -> g.x sets
    f(g.x) = f(g).f(x) on every edge, with f(g) the image of g, and
    returns None when an edge closes with another value.  Every element
    is reached (P is finite, so each element is a product of
    generators) and leaves along every edge, so f(g.x) = f(g).f(x) holds
    for each generator g and all x; by induction on the length of a
    product a = g_1...g_k, f(a.x) = f(g_1)...f(g_k).f(x) = f(a).f(x), so
    f is a homomorphism and no product need be re-checked."""
    edges = [(P.parent._rows[g], D.parent._rows[img])
             for g, img in zip(gens, images)]
    mapping = {0: 0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            fx = mapping[x]
            for g_row, img_row in edges:
                y = g_row[x]
                fy = img_row[fx]
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    mapping[y] = fy
                    new.append(y)
        frontier = new
    if len(mapping) != P.order:
        return None
    return mapping


class TwistedDiagonal:
    """Delta(phi, P) = {(phi(u), u)} <= D x D for an injection phi: P -> D."""

    def __init__(self, phi):
        self.phi = phi
        self.P = phi.domain
        self.pairs = frozenset((phi(u), u) for u in self.P.elements)

    @property
    def order(self):
        return len(self.pairs)

    def sorted_pairs(self):
        return tuple(sorted(self.pairs))

    def __eq__(self, other):
        return isinstance(other, TwistedDiagonal) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"TwistedDiagonal(|P|={self.P.order})"


def diagonal(P, D=None):
    """Delta(P) for the inclusion P <= D."""
    return TwistedDiagonal(identity_injection(P, D or P))


class TwistedClasses:
    """Conjugacy classes of twisted diagonal subgroups of D x D.

    Each class is found as one D x D orbit, and its canonical form is
    the least sorted pair tuple over the orbit.  Classes are ordered by
    decreasing |P| then canonical form; this is the elimination order
    for inverting the table of marks.  marks[i][j] counts the
    Delta_i-fixed points of the transitive biset (D x D)/Delta_j.
    `members(i)` is the orbit of class i, every twisted diagonal in it.

    The orbits are computed on codes: with positions in D's sorted
    element list, the pair (a, u) is a.|D| + u, so a sorted code tuple
    orders as the sorted pair tuple it stands for.
    """

    def __init__(self, D):
        self.D = D
        m = D.order
        self._pos = {x: i for i, x in enumerate(D.elements)}
        local = np.full(D.parent.order, -1, dtype=np.intp)
        local[D.idx] = np.arange(m)
        # conj[a, x]: the position of a x a^-1, for positions a, x in D;
        # D x D acts on pairs through its rows
        conj = local[D.parent.conjugation[np.ix_(D.idx, D.idx)]]
        found = {}                  # key -> (first td, its codes, orbit)
        class_of = {}               # codes of every twisted diagonal -> key
        for P in all_subgroups(D):
            u = local[P.idx]
            for phi in injective_maps(P, D):
                a = np.array([self._pos[phi(x)] for x in P.elements])
                codes = tuple(sorted((a * m + u).tolist()))
                if codes in class_of:
                    continue
                rows = (conj[:, a][:, None, :] * m +
                        conj[:, u][None, :, :]).reshape(m * m, -1)
                orbit = {tuple(sorted(row)) for row in rows.tolist()}
                key = min(orbit)
                found[key] = (TwistedDiagonal(phi), codes, list(orbit))
                class_of.update(dict.fromkeys(orbit, key))
        order = sorted(found, key=lambda k: (-len(k), k))
        index = {k: i for i, k in enumerate(order)}
        E = D.elements
        self.reps = [found[k][0] for k in order]
        self.keys = [tuple((E[c // m], E[c % m]) for c in k) for k in order]
        self._class_of = {codes: index[key] for codes, key in class_of.items()}
        self._orbits = [found[k][2] for k in order]
        self._members = [None] * len(order)
        self.marks = self._marks_table([found[k][1] for k in order])

    def __len__(self):
        return len(self.reps)

    def class_index(self, td_or_pairs):
        pairs = td_or_pairs.pairs if isinstance(td_or_pairs, TwistedDiagonal) \
            else frozenset(td_or_pairs)
        m, pos = self.D.order, self._pos
        return self._class_of[tuple(sorted(pos[a] * m + pos[u]
                                           for a, u in pairs))]

    def members(self, i):
        """Pair sets of the twisted diagonals in class i."""
        if self._members[i] is None:
            m, E = self.D.order, self.D.elements
            self._members[i] = frozenset(
                frozenset((E[c // m], E[c % m]) for c in codes)
                for codes in self._orbits[i])
        return self._members[i]

    def _marks_table(self, rep_codes):
        """The table of marks from the orbit of each class: hits[i][j]
        counts the members of class j that hold the pairs of rep i, read
        off the product of their code incidence rows with the reps'."""
        n, m2 = len(self.reps), self.D.order ** 2
        reps = np.zeros((n, m2))
        for i, codes in enumerate(rep_codes):
            reps[i, list(codes)] = 1
        marks = [[0] * n for _ in range(n)]
        for j, orbit in enumerate(self._orbits):
            held = np.zeros((len(orbit), m2))
            held[np.arange(len(orbit))[:, None], orbit] = 1
            hits = (held @ reps.T == reps.sum(axis=1)).sum(axis=0).tolist()
            for i in range(n):
                marks[i][j] = hits[i] * (m2 // len(orbit)) // \
                    self.reps[j].order
        return marks


def twisted_classes(D):
    """The TwistedClasses of the Subgroup D, memoized on its parent group."""
    memo = D.parent._twisted_classes_memo
    if D.key not in memo:
        memo[D.key] = TwistedClasses(D)
    return memo[D.key]
