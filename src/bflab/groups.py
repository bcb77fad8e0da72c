"""Finite permutation groups, fully enumerated, and their p-local data.

Permutations on {0..n-1} are tuples of images.  Groups are closed
element lists (order cap enforced at construction); subgroups carry a
reference to their parent group, which memoizes every fact about a
subgroup by its element set.  Everything downstream is dense in the
group order, so brute-force enumeration is the intended regime.

Also here: injective homomorphisms between subgroups, twisted diagonal
subgroups Delta(phi, P) of D x D, their conjugacy classes, and the table
of marks used to convert Brauer-quotient dimensions into biset shapes.
"""

import json

from .gf import is_prime, p_part

DEFAULT_ORDER_CAP = 500


class GroupError(ValueError):
    pass


class OrderCapExceeded(GroupError):
    pass


def identity_perm(n):
    return tuple(range(n))


def pmul(a, b):
    """Composite permutation: apply b first, then a."""
    return tuple(a[x] for x in b)


def pinv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_order(a):
    n = 1
    b = a
    e = identity_perm(len(a))
    while b != e:
        b = pmul(b, a)
        n += 1
    return n


def _close(generators, degree, cap):
    elems = {identity_perm(degree)}
    frontier = list(elems)
    while frontier:
        new = []
        for g in generators:
            for x in frontier:
                y = pmul(g, x)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
                    if len(elems) > cap:
                        raise OrderCapExceeded(
                            f"group order exceeds cap {cap}")
        frontier = new
    return elems


class PermGroup:
    def __init__(self, degree, generators, label="G", order_cap=DEFAULT_ORDER_CAP):
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise GroupError(f"invalid permutation {g} of degree {degree}")
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.label = label
        self.elements = sorted(_close(self.generators, degree, order_cap))
        self.element_set = frozenset(self.elements)
        self.identity = identity_perm(degree)
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

    def full_subgroup(self):
        return Subgroup(self, self.element_set)

    def subgroup(self, elems):
        return Subgroup(self, frozenset(elems))

    def generated_subgroup(self, gens):
        """The subgroup generated by gens, memoized by generator set."""
        gens = frozenset(gens)
        sub = self._generated_memo.get(gens)
        if sub is None:
            sub = Subgroup(self, frozenset(_close(list(gens), self.degree,
                                                  self.order)))
            self._generated_memo[gens] = sub
        return sub

    def exponent(self):
        from math import lcm
        return lcm(*[perm_order(g) for g in self.elements])

    def conjugacy_classes(self):
        return self.full_subgroup().conjugacy_classes()

    def __repr__(self):
        return f"PermGroup({self.label}, order {self.order})"


class Subgroup:
    def __init__(self, parent, elems):
        self.parent = parent
        self.key = frozenset(elems)
        if parent.identity not in self.key:
            raise GroupError("subgroup must contain the identity")
        self.elements = sorted(self.key)
        for a in self.elements:
            if pinv(a) not in self.key:
                raise GroupError("subgroup not closed under inverse")

    @property
    def order(self):
        return len(self.elements)

    @property
    def identity(self):
        return self.parent.identity

    def contains(self, x):
        return x in self.key

    def conjugate(self, g):
        gi = pinv(g)
        return Subgroup(self.parent, frozenset(pmul(pmul(g, x), gi)
                                               for x in self.elements))

    def subgroup(self, elems):
        return Subgroup(self.parent, frozenset(elems))

    def generating_sequence(self):
        """Greedy short generating sequence."""
        gens = []
        cur = {self.identity}
        for x in self.elements:
            if x not in cur:
                gens.append(x)
                cur = _close(gens, self.parent.degree, self.order)
                if len(cur) == self.order:
                    break
        return gens

    def conjugacy_classes(self):
        """Classes as sorted element lists, in order of their first
        element."""
        seen = set()
        classes = []
        for x in self.elements:
            if x in seen:
                continue
            cls = sorted({pmul(pmul(g, x), pinv(g)) for g in self.elements})
            seen.update(cls)
            classes.append(cls)
        return classes

    def left_coset_reps(self, sub):
        """Representatives of self / sub (sub must be a subgroup of self)."""
        if not sub.key <= self.key:
            raise GroupError("cosets of a set that is not a subgroup")
        seen = set()
        reps = []
        for x in self.elements:
            if x in seen:
                continue
            reps.append(x)
            seen.update(pmul(x, h) for h in sub.elements)
        return reps

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


def centralizer(G, P):
    """C_G(P) for a subgroup (or plain element collection) P of G."""
    G = _as_subgroup(G)
    elems = P.elements if isinstance(P, Subgroup) else sorted(P)
    return G.subgroup(g for g in G.elements
                      if all(pmul(g, x) == pmul(x, g) for x in elems))


def normalizer(G, P):
    G = _as_subgroup(G)
    if not isinstance(P, Subgroup):
        raise GroupError("the normalizer needs a Subgroup")
    out = []
    for g in G.elements:
        gi = pinv(g)
        if all(pmul(pmul(g, x), gi) in P.key for x in P.elements):
            out.append(g)
    return G.subgroup(out)


def sylow_subgroup(G, p):
    """A Sylow p-subgroup (maximal p-subgroups are Sylow)."""
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    G = _as_subgroup(G)
    degree = G.parent.degree
    p_elements = [g for g in G.elements
                  if p_part(o := perm_order(g), p) == o]
    cur, gens = {G.identity}, []          # cur = <gens>
    changed = True
    while changed:
        changed = False
        for x in p_elements:
            if x in cur:
                continue
            cand = _close(gens + [x], degree, G.order)
            if p_part(len(cand), p) == len(cand) and cand <= G.key:
                cur, gens = cand, gens + [x]
                changed = True
    return G.subgroup(cur)


def all_subgroups(H):
    """Every subgroup of the Subgroup H, by order then elements, memoized
    on its parent group (read-only; H small: intended for p-groups of
    order <= 64)."""
    memo = H.parent._subgroups_memo
    if H.key in memo:
        return memo[H.key]
    seen = {frozenset([H.identity]): []}  # subgroup -> generators
    frontier = [frozenset([H.identity])]
    while frontier:
        new = []
        for sub in frontier:
            for x in H.elements:
                if x in sub:
                    continue
                gens = seen[sub] + [x]
                bigger = frozenset(_close(gens, H.parent.degree, H.order))
                if bigger not in seen:
                    seen[bigger] = gens
                    new.append(bigger)
        frontier = new
    memo[H.key] = tuple(sorted((H.subgroup(s) for s in seen),
                               key=lambda s: (s.order, s.elements)))
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
    reps = []
    seen = set()
    for sub in all_subgroups(S):
        if sub.key in seen:
            continue
        orbit = {frozenset(pmul(pmul(g, x), pinv(g)) for x in sub.elements)
                 for g in G.elements}
        seen.update(orbit)
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
            for a in domain.elements:
                for b in domain.elements:
                    if self.mapping[pmul(a, b)] != \
                            pmul(self.mapping[a], self.mapping[b]):
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
    gi = pinv(g)
    return GroupInjection(P, codomain,
                          {x: pmul(pmul(g, x), gi) for x in P.elements},
                          check=False)


def injective_maps(P, D):
    """All injective homomorphisms P -> D, memoized on the parent group
    (read-only)."""
    memo = P.parent._injective_memo
    key = (P.key, D.key)
    if key in memo:
        return memo[key]
    if P.order > D.order:
        memo[key] = ()
        return memo[key]
    gens = P.generating_sequence()
    if not gens:
        memo[key] = (GroupInjection(P, D, {P.identity: D.identity},
                                    check=False),)
        return memo[key]
    orders = [perm_order(g) for g in gens]
    candidates = [[d for d in D.elements if perm_order(d) == o]
                  for o in orders]
    out = []
    seen = set()

    def extend(idx, partial_images):
        if idx == len(gens):
            mapping = _hom_from_generators(P, gens, partial_images, D)
            if mapping is not None and len(set(mapping.values())) == P.order:
                inj = GroupInjection(P, D, mapping, check=False)
                if inj.graph not in seen:
                    seen.add(inj.graph)
                    out.append(inj)
            return
        for c in candidates[idx]:
            extend(idx + 1, partial_images + [c])

    extend(0, [])
    memo[key] = tuple(out)
    return memo[key]


def _hom_from_generators(P, gens, images, D):
    """Extend gens -> images to a homomorphism P -> D, or None.

    The walk from 1 along the generator edges x -> g.x sets
    f(g.x) = f(g).f(x) on every edge, with f(g) the image of g, and
    returns None when an edge closes with another value.  Every element
    is reached (P is finite, so each element is a product of
    generators) and leaves along every edge, so f(g.x) = f(g).f(x) holds
    for each generator g and all x; by induction on the length of a
    product a = g_1...g_k, f(a.x) = f(g_1)...f(g_k).f(x) = f(a).f(x), so
    f is a homomorphism and no product need be re-checked."""
    mapping = {P.identity: D.identity}
    frontier = [P.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, img in zip(gens, images):
                y = pmul(g, x)
                fy = pmul(img, mapping[x])
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
    """

    def __init__(self, D):
        self.D = D
        # x -> a x a^-1 for each a in D; D x D acts on pairs through them
        self._conj = [{x: pmul(pmul(a, x), pinv(a)) for x in D.elements}
                      for a in D.elements]
        found = {}                        # key -> (first td, orbit)
        orbit_key = {}                    # pairs of every twisted diagonal
        for P in all_subgroups(D):
            for phi in injective_maps(P, D):
                td = TwistedDiagonal(phi)
                if td.pairs in orbit_key:
                    continue
                orbit = self._conjugates(td.pairs)
                key = min(tuple(sorted(c)) for c in orbit)
                found[key] = (td, orbit)
                orbit_key.update(dict.fromkeys(orbit, key))
        order = sorted(found, key=lambda k: (-len(k), k))
        self.reps = [found[k][0] for k in order]
        self.keys = order
        index = {k: i for i, k in enumerate(order)}
        self._class_of = {pairs: index[key]
                          for pairs, key in orbit_key.items()}
        self._orbits = [frozenset(found[k][1]) for k in order]
        self.marks = self._marks_table(self._orbits)

    def __len__(self):
        return len(self.reps)

    def class_index(self, td_or_pairs):
        pairs = td_or_pairs.pairs if isinstance(td_or_pairs, TwistedDiagonal) \
            else frozenset(td_or_pairs)
        return self._class_of[pairs]

    def members(self, i):
        """Pair sets of the twisted diagonals in class i."""
        return self._orbits[i]

    def _conjugates(self, pairs):
        conj = self._conj
        return {frozenset((ca[x], cb[y]) for x, y in pairs)
                for ca in conj for cb in conj}

    def _marks_table(self, conj):
        """The table of marks from the orbit of each class."""
        n = len(self.reps)
        d2 = self.D.order ** 2
        marks = [[0] * n for _ in range(n)]
        for j, td_j in enumerate(self.reps):
            n_r = d2 // len(conj[j])          # |N_{DxD}(R)| index count
            for i, td_i in enumerate(self.reps):
                hits = sum(1 for c in conj[j] if td_i.pairs <= c)
                marks[i][j] = hits * n_r // td_j.order
        return marks


def twisted_classes(D):
    """The TwistedClasses of the Subgroup D, memoized on its parent group."""
    memo = D.parent._twisted_classes_memo
    if D.key not in memo:
        memo[D.key] = TwistedClasses(D)
    return memo[D.key]
