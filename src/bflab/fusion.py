"""Fusion systems and Brauer pairs.

A fusion system on the p-group S is stored as one set of graphs: every
morphism is an isomorphism onto its image followed by an inclusion, so
its graph is the whole datum, and Hom(P, Q) is derived as the graphs
from P whose image lies in Q.  Divisibility is checked on the graphs:
inclusions, inverses and composites.  Three constructions list graphs:

* F_S(G): the conjugations c_g restricted to each P with gPg^-1 <= S;
* the block fusion system F_D(b): conjugations compatible with the
  family of Brauer pairs under a chosen maximal pair; and
* the fixed-point presystem fF_S(A): all injections whose twisted
  Brauer quotient is nonzero.  Conjugation by D x D carries A(U) onto
  A(gUg^-1), so the quotient is built once per twisted-diagonal class,
  at the representative `bisets.shape_from_brauer_dims` also reads, and
  every diagonal of a nonzero class is a morphism.

`FusionSystem.outer_class_reps` lists one isomorphism per D x D-class of
morphisms that is not a class of inner maps: the walk on which
`bflab.conjecture` decides the equivalence conditions.

Brauer pairs of a group algebra are subgroups P with a block of the
quotient algebra (kG)(P) ~ kC_G(P), and the block's defect groups are
the maximal subgroups where b survives the Brauer map.  Below a maximal
pair (D, e_D), each P < D lies under N_D(P) > P, and the Alperin-Broue
criterion finds its block with no rng draw: for Q normal in R,
(Q, f) <= (R, e) iff f is R-stable and e.br_R(f) = e (by Broue-Puig,
this is the pointed-group order).

The Brauer map sends the class of g in C_G(P) to g, so (kG)(P) is
multiplied as the table-driven group algebra kC_G(P), on the quotient's
own basis: the quotient builds it (`BrauerQuotient.algebra`) and checks
that basis once.  When kC_G(P) has one block, that block is 1, and a
Brauer image lies under it or absorbs it with no product.  Conjugation
by g permutes the group basis of kG and is the biaction of (g, g) on
the interior algebra kG (`InteriorAlgebra.act`), an index gather.
"""

import numpy as np

from .groups import (GroupInjection, PermGroup, all_subgroups, centralizer,
                     conjugation_injection, normalizer, subgroup_classes,
                     sylow_subgroup, twisted_classes)
from .idempotents import block_idempotents
from .interior import InteriorAlgebra


class FusionError(ValueError):
    pass


class FusionSystem:
    """Category on the subgroups of S with injective group maps, stored
    as one set of graphs.

    A morphism is an isomorphism onto its image followed by an
    inclusion, so its graph is the whole datum: Hom(P, Q) is derived as
    the graphs from P whose image lies in Q.  The graphs from each
    domain are listed in the order of their sorted pair lists, a total
    order, so no hom set depends on how the graphs were given."""

    def __init__(self, S, graphs):
        self.S = S
        self.subgroups = all_subgroups(S)
        self.graphs = frozenset(graphs)
        by_key = {P.key: P for P in self.subgroups}
        # P.key -> [(graph, image subgroup)] of the morphisms from P
        self._from = {}
        for graph in sorted(self.graphs, key=sorted):
            domain = frozenset(x for x, _ in graph)
            image = by_key.get(frozenset(y for _, y in graph))
            if domain not in by_key or image is None:
                raise FusionError("a morphism's domain or image is not a "
                                  "subgroup of S")
            self._from.setdefault(domain, []).append((graph, image))

    def hom_graphs(self, P, Q):
        """Hom(P, Q): the graphs from P whose image lies in Q."""
        return [g for g, img in self._from.get(P.key, ())
                if img.key <= Q.key]

    def contains(self, phi):
        """Is the injection phi (into any overgroup of its image) in F?"""
        return phi.graph in self.graphs

    def isomorphisms(self, P, Q):
        """The morphisms of P onto Q, as injections P -> Q."""
        return [GroupInjection(P, Q, dict(g), check=False)
                for g, img in self._from.get(P.key, ()) if img.key == Q.key]

    def all_isomorphisms(self):
        """Every morphism, as an isomorphism onto its image."""
        for P in self.subgroups:
            for Q in self.subgroups:
                if P.order == Q.order:
                    yield from self.isomorphisms(P, Q)

    def automorphisms(self, P):
        return self.isomorphisms(P, P)

    def outer_class_reps(self):
        """One isomorphism onto its image per D x D-class of morphisms of
        F, in the order of `twisted_classes(S)`, skipping the classes of
        inner maps c_d restricted to P.

        (d, e) in D x D carries phi to c_d o phi o c_e^-1; F must be a
        union of such classes (a FusionError otherwise).  A class is inner
        when it holds a diagonal Delta(P)."""
        tc = twisted_classes(self.S)
        by_key = {P.key: P for P in self.subgroups}
        reps = []
        for i, td in enumerate(tc.reps):
            graphs = {frozenset((u, a) for a, u in pairs)
                      for pairs in tc.members(i)}
            inside = graphs & self.graphs
            if inside and inside != graphs:
                raise FusionError("F is not closed under D x D conjugation")
            if not inside or any(all(a == u for a, u in pairs)
                                 for pairs in tc.members(i)):
                continue
            phi = td.phi
            reps.append(GroupInjection(by_key[phi.domain.key],
                                       by_key[phi.image().key], phi.mapping,
                                       check=False))
        return reps

    def summary(self):
        """Morphism count per (|P|, |Q|), over every pair of subgroups."""
        per = {}
        for P in self.subgroups:
            for Q in self.subgroups:
                n = len(self.hom_graphs(P, Q))
                per[(P.order, Q.order)] = per.get((P.order, Q.order), 0) + n
        return {f"{a}->{b}": n for (a, b), n in sorted(per.items())}

    def serialize(self):
        """Per nonempty hom set: morphism count and the first morphism,
        described on the domain's generators."""
        out = []
        for i, P in enumerate(self.subgroups):
            gens = P.generating_sequence()
            for j, Q in enumerate(self.subgroups):
                graphs = self.hom_graphs(P, Q)
                if not graphs:
                    continue
                rep = dict(graphs[0])
                out.append({
                    "source": {"index": i, "order": P.order},
                    "target": {"index": j, "order": Q.order},
                    "count": len(graphs),
                    "representative_on_generators": [
                        [list(g), list(rep[g])] for g in gens],
                })
        return out


def fusion_from_group(S, G):
    """F_S(G): morphisms are restrictions of conjugations by G, read off
    the rows of G's conjugation table."""
    A = G if isinstance(G, PermGroup) else G.parent
    conj = A.conjugation[[A.index[g] for g in G.elements]]
    inside = np.zeros(A.order, dtype=bool)
    inside[[A.index[x] for x in S.elements]] = True
    graphs = set()
    for P in all_subgroups(S):
        rows = conj[:, [A.index[x] for x in P.elements]]
        for images in set(map(tuple, rows[inside[rows].all(axis=1)].tolist())):
            graphs.add(frozenset(zip(P.elements,
                                     (A.elements[y] for y in images))))
    return FusionSystem(S, graphs)


def fixed_point_presystem(ia):
    """The injections phi: P -> D with A(Delta(phi, P)) != 0, decided
    once per twisted-diagonal class of D x D."""
    tc = twisted_classes(ia.D)
    graphs = {frozenset((u, a) for a, u in pairs)
              for i, td in enumerate(tc.reps) if ia.brauer(td).dim > 0
              for pairs in tc.members(i)}
    return FusionSystem(ia.D, graphs)


def is_divisible(F):
    """Puig divisibility on the graphs: every inclusion, the inverse of
    every morphism, and every composite of composable morphisms is in F.
    (Each morphism factors through its image by construction.)"""
    if any(frozenset((x, x) for x in P.elements) not in F.graphs
           for P in F.subgroups):
        return False
    for g1, image in (m for ms in F._from.values() for m in ms):
        if frozenset((y, x) for x, y in g1) not in F.graphs:
            return False
        for Q in F.subgroups:
            if not image.key <= Q.key:
                continue
            for g2, _ in F._from.get(Q.key, ()):
                m2 = dict(g2)
                if frozenset((x, m2[y]) for x, y in g1) not in F.graphs:
                    return False
    return True


def fusion_equal(F1, F2):
    if F1.S.key != F2.S.key:
        raise FusionError("fusion systems live on different groups")
    return F1.graphs == F2.graphs


# ---------------------------------------------------------------------------
# Brauer pairs of a group algebra
# ---------------------------------------------------------------------------

class BrauerPairs:
    """Brauer pairs of kG over the subgroups of a fixed Sylow p-subgroup S.

    One engine serves every block of kG: it owns the interior S-algebra
    kG (whose quotients (kG)(P) own their algebras kC_G(P)), the
    G-classes of p-subgroups, and the blocks of each kC_G(P), the blocks
    of kG = (kG)(1) among them.  Its rng is drawn only to find blocks.
    """

    def __init__(self, A, rng):
        self.A = A                        # kG
        self.G = A.group
        self.p = A.field.p
        self.S = sylow_subgroup(self.G, self.p)
        # one subgroup of S per G-class of p-subgroups
        self.p_classes = subgroup_classes(self.G, self.S)
        self.ia = InteriorAlgebra(A, self.S)
        self.rng = rng
        # P.key -> list of quotient blocks; the key None holds the blocks
        # of kG, shared by every P with C_G(P) = G
        self._blocks = {}

    def quotient(self, P):
        return self.ia.brauer_at(P)

    def blocks_at(self, P):
        """Central primitive idempotents of (kG)(P), in quotient coords;
        found once for all P with C_G(P) = G, where (kG)(P) is kG."""
        if P.key not in self._blocks:
            Q = self.quotient(P).algebra()
            key = None if Q is self.A else P.key
            if key not in self._blocks:
                self._blocks[key] = block_idempotents(Q, self.rng)
            self._blocks[P.key] = self._blocks[key]
        return self._blocks[P.key]

    @property
    def blocks(self):
        """The blocks of kG = (kG)(1), in kG coordinates."""
        return self.blocks_at(all_subgroups(self.S)[0])

    def block_index(self, P, vec):
        for i, e in enumerate(self.blocks_at(P)):
            if np.array_equal(e, vec):
                return i
        raise FusionError("vector is not a stored block of (kG)(P)")

    def image_under(self, P, e_qcoords, g):
        """^g e as a block of (kG)(gPg^-1); target must be <= S."""
        lifted = self.quotient(P).lift(e_qcoords)
        return self.quotient(P.conjugate(g)).project(
            self.ia.act(g, g, lifted))

    def under_block(self, P, i_vec):
        """The unique block e of (kG)(P) with e.br_P(i) = br_P(i), or None
        when br_P(i) = 0; with no product when 1 is the one block."""
        bq = self.quotient(P)
        img = bq.project(i_vec)
        if not np.any(img):
            return None
        blocks = self.blocks_at(P)
        if len(blocks) == 1:
            return 0
        mul = bq.algebra().mul
        hits = [t for t, e in enumerate(blocks)
                if np.array_equal(mul(e, img), img)]
        if len(hits) != 1:
            raise FusionError("Brauer image not under a unique block")
        return hits[0]

    def absorbed(self, P, x):
        """Indices of the blocks e of (kG)(P) with e.br_P(x) = e, for a
        P-fixed vector x of kG; for the one block 1, br_P(x) must be 1."""
        bq = self.quotient(P)
        img = bq.project(x)
        if not np.any(img):
            return []
        blocks = self.blocks_at(P)
        if len(blocks) == 1:
            return [0] if np.array_equal(img, blocks[0]) else []
        mul = bq.algebra().mul
        return [t for t, e in enumerate(blocks)
                if np.array_equal(mul(e, img), e)]

    def pairs_over_block(self, b):
        """All pairs (P, e) with (1, b) <= (P, e), over subgroups of S."""
        return [(P, t) for P in all_subgroups(self.S)
                for t in self.absorbed(P, b)]

    def below(self, R, e_idx, Q):
        """The block f of (kG)(Q), for Q normal in R, with (Q, f) <= (R, e):
        the one R-stable f with e.br_R(f) = e, br_R read on f lifted to kG
        (Alperin-Broue)."""
        gens = R.generating_sequence()
        if any(Q.conjugate(g).key != Q.key for g in gens):
            raise FusionError("Q is not normal in R")
        hits = [t for t, f in enumerate(self.blocks_at(Q))
                if all(np.array_equal(self.image_under(Q, f, g), f)
                       for g in gens)
                and e_idx in self.absorbed(R, self.quotient(Q).lift(f))]
        if len(hits) != 1:
            raise FusionError(f"{len(hits)} blocks of (kG)(Q) lie below "
                              "one Brauer pair (R, e)")
        return hits[0]

    def family(self, D, eD_idx):
        """Subgroup key -> block index of the pairs below (D, e_D), each
        P < D found below N_D(P) > P, walking down by order."""
        family = {D.key: eD_idx}
        for P in reversed(all_subgroups(D)[:-1]):
            N = normalizer(D, P)
            family[P.key] = self.below(N, family[N.key], P)
        return family


class BrauerPairPoset:
    """The Brauer pairs over one block, with G-structure.  Its maximal
    pairs are those of top order, the defect groups'; they are checked
    to be G-conjugate."""

    def __init__(self, pairs_engine, b):
        self.engine = pairs_engine
        self.b = np.asarray(b)
        self.pairs = pairs_engine.pairs_over_block(self.b)
        top = max(P.order for P, _ in self.pairs)
        self.maximal = [a for a, (P, _) in enumerate(self.pairs)
                        if P.order == top]
        self._check_maximal_conjugate()

    def _check_maximal_conjugate(self):
        engine = self.engine
        P, ei = self.pairs[self.maximal[0]]
        e = engine.blocks_at(P)[ei]
        for Q, ej in (self.pairs[c] for c in self.maximal[1:]):
            moved = (engine.image_under(P, e, g) for g in engine.G.elements
                     if P.conjugate(g).key == Q.key)
            if not any(engine.block_index(Q, f) == ej for f in moved):
                raise FusionError("maximal Brauer pairs are not conjugate")


def defect_groups(pairs, b):
    """Maximal p-subgroup classes where br_P(b) survives, as subgroups of
    the engine's Sylow subgroup."""
    G = pairs.G
    reps = [P for P in pairs.p_classes
            if np.any(pairs.quotient(P).project(b))]
    maximal = [P for P in reps
               if not any(P.order < Q.order and _subconjugate(G, P, Q)
                          for Q in reps)]
    if not maximal:
        raise FusionError("no defect group found (b is not an idempotent?)")
    if not all(_conjugate_subgroups(G, maximal[0], P) for P in maximal[1:]):
        raise FusionError("defect groups not conjugate")
    return maximal


def _subconjugate(G, P, Q):
    return any(P.conjugate(g).key <= Q.key for g in G.elements)


def _conjugate_subgroups(G, P, Q):
    return any(P.conjugate(g).key == Q.key for g in G.elements)


def block_fusion(poset, max_idx):
    """F_D(b) from a chosen maximal pair (D, e_D).

    One g per coset g.C_G(P) is tried: for c in C_G(P), c_gc = c_g on P,
    and ^(gc)e = ^g e, because e is a block of (kG)(P) = kC_G(P) and so
    central there."""
    engine = poset.engine
    G = engine.G.full_subgroup()
    D, eD_idx = poset.pairs[max_idx]
    family = engine.family(D, eD_idx)
    if not family.items() <= {(P.key, e) for P, e in poset.pairs}:
        raise FusionError("a Brauer pair below the maximal pair is not "
                          "over b")
    graphs = set()
    for P in all_subgroups(D):
        e = engine.blocks_at(P)[family[P.key]]
        for g in G.left_coset_reps(centralizer(G, P)):
            Pg = P.conjugate(g)
            if not Pg.key <= D.key:
                continue
            moved = engine.image_under(P, e, g)
            if engine.block_index(Pg, moved) == family[Pg.key]:
                graphs.add(conjugation_injection(P, g, D).graph)
    return FusionSystem(D, graphs)
