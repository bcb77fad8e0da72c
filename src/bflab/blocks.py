"""Block pipeline: block -> defect group -> maximal Brauer pair ->
source idempotent -> source algebra, plus the derived shape and fusion
data and the proved sanity conditions that every run re-verifies.

The Brauer pairs (P, e) of kG belong to (G, p), not to one block: one
`fusion.BrauerPairs` engine, built once per group algebra, owns the
interior S-algebra kG, the quotients (kG)(P) and their blocks (those
of kG = (kG)(1) among them), and every block of the run is analyzed
against it.  A BlockData holds only the facts of its block and reaches
G, p and kG through that engine.  Its interior algebras are the
engine's when they are the same algebra: kG over D is the engine's kG
when D is the engine's Sylow subgroup, the block algebra is kG when
b = 1, and the source algebra is the block algebra when l = 1_B.

All choices (defect representative, maximal pair, source idempotent) are
made deterministically under the run seed and recorded, since the block
fusion system is only canonical once they are pinned.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from .algebra import group_algebra, group_element_vector
from .bisets import characteristic_report, shape_from_brauer_dims
from .fusion import (BrauerPairPoset, FusionError, block_fusion,
                     defect_groups, fixed_point_presystem, fusion_equal,
                     is_divisible)
from .gf import field, p_part, unit_degree
from .groups import (Subgroup, TwistedDiagonal, all_subgroups, centralizer,
                     injective_maps, sylow_subgroup)
from .interior import InteriorAlgebra
from .points import unit_decomposition


def exponent_degree(G, p):
    """The least M such that the p'-part of exp(G) divides p^M - 1:
    GF(p^M) splits kH for every subgroup H of G."""
    e = G.exponent()
    return unit_degree(p, e // p_part(e, p))


def splitting_field(G, p):
    """GF(p^m) with m least so that it splits kC_G(P) for every subgroup P
    of a Sylow p-subgroup S of G, G = C_G(1) among them.

    Schur indices over finite fields are 1, so by Brauer's permutation
    lemma GF(p^m) splits kH exactly when x^(p^m) is H-conjugate to x for
    every p-regular x in H (Navarro, Characters and Blocks of Finite
    Groups, 1998).  For each H the least such m is the lcm of the cycle
    lengths of x -> x^p on the p-regular classes of H; m is their lcm
    over the H, and it divides M = `exponent_degree(G, p)`.

    This field splits kG and every Brauer quotient (kG)(P) = kC_G(P), so
    their blocks are absolutely primitive.  The other algebras of the
    pipeline (the points of A^P, the multiplicity algebras and the unit
    searches) may still need an extension: the CLI then restarts over
    the next field between GF(p^m) and GF(p^M).  A restart for the unit
    search is not certified (see `conjecture.ExtensionNeeded`)."""
    top = exponent_degree(G, p)
    n = G.order
    pth = np.zeros(n, dtype=np.intp)          # x -> x^p on indices
    for _ in range(p):
        pth = G.mul[pth, np.arange(n)]
    regular = G.orders % p != 0
    least = np.empty(n, dtype=np.intp)
    m = 1
    for P in all_subgroups(sylow_subgroup(G, p)):
        H = centralizer(G, P)
        x = H.idx[regular[H.idx]]
        least[x] = G.conjugation[np.ix_(H.idx, x)].min(axis=0)
        y, k, length = pth[x], 1, np.zeros(len(x), dtype=np.intp)
        while not length.all():
            length[(length == 0) & (least[y] == least[x])] = k
            y, k = pth[y], k + 1
        m = lcm(m, *set(length.tolist()))
        if m == top:
            break
    return field(p, m)


@dataclass(eq=False)
class BlockData:
    pairs: object              # BrauerPairs engine of kG, shared by blocks
    b: np.ndarray
    index: int
    poset: BrauerPairPoset
    max_pair_index: int
    D: Subgroup
    eD_index: int
    ia_kG_D: InteriorAlgebra   # kG as interior D-algebra
    ia_B: InteriorAlgebra      # block algebra as interior D-algebra
    source_candidates: list    # canonical order; the first is ell
    ia_S: InteriorAlgebra      # source algebra as interior D-algebra
    principal: bool

    @property
    def ell(self):
        """The pinned source idempotent, in kG coordinates."""
        return self.source_candidates[0]

    @cached_property
    def rank_formula(self):
        """(dim B / |D|)_p = (|G|_p / |D|)^2."""
        p = self.pairs.p
        return (p_part(self.ia_B.A.dim // self.D.order, p) ==
                (p_part(self.pairs.G.order, p) // self.D.order) ** 2)

    @cached_property
    def source_shape(self):
        return shape_from_brauer_dims(self.ia_S)

    @cached_property
    def block_fusion_system(self):
        return block_fusion(self.poset, self.max_pair_index)

    @cached_property
    def source_presystem(self):
        return fixed_point_presystem(self.ia_S)


def build_group_algebra(G, p):
    k = splitting_field(G, p)
    return group_algebra(G, k)


def analyze_block(pairs, b, index, rng):
    """Fill a BlockData for the block b of kG = pairs.A: defect, maximal
    pair, source idempotent/algebra."""
    b = np.asarray(b)
    poset = BrauerPairPoset(pairs, b)
    # deterministic maximal pair: smallest (subgroup elements, block index)
    chosen = min(poset.maximal,
                 key=lambda a: (poset.pairs[a][0].elements,
                                poset.pairs[a][1]))
    D, eD_idx = poset.pairs[chosen]

    # cross-check: defect group class from plain Brauer-vanishing maximality
    if {P.order for P in defect_groups(pairs, b)} != {D.order}:
        raise FusionError("maximal pair subgroup is not a defect group")

    # kG as an interior D-algebra is the engine's when D is its Sylow
    # subgroup; the block algebra is kG itself when b = 1
    ia_kG_D = pairs.ia if D.key == pairs.S.key else \
        InteriorAlgebra(pairs.A, D)
    B = ia_kG_D.corner(b)

    # source idempotents: primitive in B^D, local, Brauer image under e_D
    cands = []
    for i_vec in unit_decomposition(B, D, rng):
        i_A = B.A.to_parent(i_vec)
        if pairs.under_block(D, i_A) == eD_idx:
            cands.append(i_A)
    if not cands:
        raise FusionError("no source idempotent under the chosen maximal pair")
    cands.sort(key=lambda v: v.tolist())

    data = BlockData(
        pairs=pairs, b=b, index=index, poset=poset, max_pair_index=chosen,
        D=D, eD_index=eD_idx, ia_kG_D=ia_kG_D, ia_B=B,
        source_candidates=cands, ia_S=B.corner(B.A.from_parent(cands[0])),
        principal=bool(np.any(pairs.quotient(pairs.S).project(b))))
    _sanity(data)
    return data


def _sanity(data):
    if data.ia_B.A.dim % data.D.order:
        raise FusionError("block dimension not divisible by |D|")
    if not data.rank_formula:
        raise FusionError("rank formula (dim B / |D|)_p = (|G|_p / |D|)^2 "
                          "fails")


def source_fusion_identity_report(data):
    """fF_D(S) = F_D(b) and divisibility, both computed, not assumed."""
    ffs = data.source_presystem
    return {"fusion_equal": fusion_equal(ffs, data.block_fusion_system),
            "divisible": is_divisible(ffs)}


def proved_conditions_report(data):
    """The section-2.4 facts: bifree, symmetric, generated, Sylow ratio,
    rank formula, and multiplicity-one top orbits."""
    shape = data.source_shape
    fdb = data.block_fusion_system
    rep = characteristic_report(shape, fdb, data.pairs.p)
    rep["rank_formula"] = data.rank_formula
    # top orbits: multiplicity one exactly at Delta(alpha, D) for
    # alpha in Aut_{F_D(b)}(D)
    auts = {phi.graph for phi in fdb.automorphisms(data.D)}
    rep["top_orbits_multiplicity_one"] = all(
        shape.multiplicity_of(TwistedDiagonal(phi)) ==
        (1 if phi.graph in auts else 0)
        for phi in injective_maps(data.D, data.D))
    return rep


def group_basis_invariant(ia):
    """The group basis of kG as an explicit invariant basis.

    The D x D-orbits on G are walked here with `pmul`, not read off the
    orbit sums that `InteriorAlgebra.brauer` builds from kG's tables: this
    walk is the independent oracle that the acceptance suite compares
    with `shape_from_brauer_dims`, so it shares no code with the path
    it checks."""
    from .bisets import InvariantBasis
    from .groups import GroupInjection, pinv, pmul
    A = ia.A
    D = ia.D
    vectors = []
    stabs = []
    slices = []
    seen = set()
    for g in A.labels:
        if g in seen:
            continue
        orbit = sorted({pmul(pmul(d1, g), pinv(d2))
                        for d1 in D.elements for d2 in D.elements})
        seen.update(orbit)
        Pelems = [u for u in D.elements
                  if pmul(pmul(g, u), pinv(g)) in D.key]
        P = D.subgroup(Pelems)
        phi = GroupInjection(P, D,
                             {u: pmul(pmul(g, u), pinv(g))
                              for u in P.elements}, check=False)
        slices.append((len(vectors), len(orbit)))
        stabs.append(TwistedDiagonal(phi))
        for h in orbit:
            vectors.append(group_element_vector(A, h))
    return InvariantBasis(ia, vectors, slices, stabs)

