"""Checkers for unital invariant bases, twisted units, and balance.

Everything here is exact: searches are randomized (seeded) with
exhaustive enumeration on small spaces, but every positive answer is
verified by direct multiplication, and the three top-level conditions

    (i)   a unital (D,D)-invariant basis exists,
    (ii)  every fixed-point-fusion isomorphism has a twisted unit,
    (iii) the algebra is (intrinsically) balanced,

are computed independently and compared; a mismatch is surfaced as a
finding, never patched over.

Each condition is decided once per D x D-class of isomorphisms of the
presystem (`FusionSystem.outer_class_reps`): D acts by structural units,
so (d, e) carries a unit of A(phi) to one of A(c_d o phi o c_e^-1) by
u -> d.u.e^-1, and a point theta_phi(gamma) to its conjugate with the
same multiplicities.  An inner class c_d restricted to P passes all
three, as d itself is a twisted unit and theta is conjugation, so inner
classes are skipped.  Twisted units are searched once per outer class
and cached on the interior algebra.  The closure law and the pairing
check multiply along the composable class triples (phi, g, psi) of two
outer representatives and an element g of D (`_composable_triples`),
which stand for every composable pair of isomorphisms.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bisets import (_expand_orbit, characteristic_report,
                     explicit_invariant_basis)
from .fusion import fixed_point_presystem
from .groups import GroupInjection, all_subgroups, conjugation_injection
from .idempotents import are_associate, sandwich_rows, transpotent_pair
from .interior import _pair_perm_group
from .points import (conjugate_point, local_points, point_multiplicity,
                     relative_multiplicity, _associate_in_fixed)


class Finding(RuntimeError):
    """A proved statement failed computationally; carries full witnesses."""

    def __init__(self, condition, payload):
        super().__init__(f"FINDING: {condition}")
        self.condition = condition
        self.payload = payload


# ---------------------------------------------------------------------------
# units in twisted fixed subspaces
# ---------------------------------------------------------------------------

def _search(f, d, test, rng, limit, samples):
    """The first result of `test` other than None on a nonzero vector of
    GF(q)^d, or None, with the search record {dim, samples, exhaustive}.

    When q^d <= limit every nonzero vector is tried, in the order of the
    integers whose base-q digits (least significant first) they are, so
    a negative is certain.  Otherwise `samples` vectors are drawn; a zero
    draw counts as a sample but is not tested.
    """
    record = {"dim": int(d), "samples": 0, "exhaustive": f.q ** d <= limit}
    if record["exhaustive"]:
        vectors = itertools.product(range(f.q), repeat=d)
        next(vectors)                       # the zero vector
        candidates = (np.array(digits[::-1], dtype=np.int64)
                      for digits in vectors)
    else:
        candidates = (f.random_elements(rng, d) for _ in range(samples))
    for c in candidates:
        if not record["exhaustive"]:
            record["samples"] += 1
        hit = test(c) if np.any(c) else None
        if hit is not None:
            return hit, record
    return None, record


def unit_in_subspace(ia, rows, rng, exhaustive=False):
    """A unit of A inside the row span, or None with the budget record.

    Returns (vector_or_None, record).  The negative is certain when the
    subspace was enumerated exhaustively (always up to 4096 vectors, up
    to 2^20 when asked), else high-confidence only (64 samples).
    """
    A = ia.A
    f = A.field
    rows = np.asarray(rows, dtype=np.int64)
    record = {"dim": int(rows.shape[0]), "samples": 0, "exhaustive": False}
    if rows.shape[0] == 0:
        return None, record
    for row in rows:
        if A.is_unit(row):
            return row, record

    def unit(c):
        v = linalg.vecmat(f, c, rows)
        return v if A.is_unit(v) else None
    return _search(f, rows.shape[0], unit, rng,
                   2 ** 20 if exhaustive else 4096, 64)


class ExtensionNeeded(RuntimeError):
    """No lambda kept an orbit a basis of units over this field; retry over
    an extension.  Not certified: it tries one line y + lambda.u only."""


def build_unital_basis(ia, rng, exhaustive=False):
    """Invariant basis of units via orbit replacement y -> y + lambda.u.

    Returns (InvariantBasis, None) on success or (None, evidence) when
    some orbit stabilizer's fixed module contains no unit (with the
    search record), which by the fixed-point criterion means no unital
    invariant basis exists over this field.
    """
    A = ia.A
    basis = explicit_invariant_basis(ia, rng)
    vectors = [np.asarray(v) for v in basis.vectors]
    for (start, length), td in zip(basis.orbit_slices, basis.stabilizers):
        y = vectors[start]
        if A.is_unit(y):
            continue
        rows = ia.brauer(td).fixed.basis
        u, record = unit_in_subspace(ia, rows, rng, exhaustive=exhaustive)
        if u is None:
            return None, {"orbit_class": basis.shape().classes.class_index(td),
                          "search": record}
        replaced = _replace_basis_orbit(ia, vectors, start, length, td, y, u)
        if replaced is None:
            raise ExtensionNeeded(
                "no lambda kept the replaced orbit a basis of units")
        vectors = replaced
    out = type(basis)(ia, vectors, basis.orbit_slices, basis.stabilizers)
    if not out.is_unital():
        raise Finding("unital_basis_not_unital",
                      {"orbit_slices": [list(s) for s in out.orbit_slices]})
    _check_invariant(ia, out)
    return out, None


def _replace_basis_orbit(ia, vectors, start, length, td, y, u):
    A = ia.A
    f = A.field
    d2_group = _pair_perm_group(ia.D).full_subgroup()
    others = [v for t, v in enumerate(vectors)
              if not (start <= t < start + length)]
    for lam in range(f.q):
        cand = A.add(y, A.scale(lam, u))
        if not A.is_unit(cand):
            continue
        orbit = _expand_orbit(ia, d2_group, td, cand)
        if orbit is None:
            continue
        stacked = np.array(others + orbit, dtype=np.int64)
        if linalg.rank(f, stacked) != A.dim:
            continue
        out = list(vectors)
        out[start:start + length] = orbit
        return out
    return None


def _check_invariant(ia, basis):
    keys = {np.asarray(v).tobytes() for v in basis.vectors}
    for d in ia.D.generating_sequence() or [ia.D.identity]:
        for v in basis.vectors:
            if np.asarray(ia.left(d, v)).tobytes() not in keys or \
                    np.asarray(ia.right(v, d)).tobytes() not in keys:
                raise Finding("unital_basis_not_invariant",
                              {"d": [int(x) for x in d]})


def unital_basis_exists(ia, presystem, rng, exhaustive=False):
    """Fixed-point criterion for unital bases: a unit in the twisted fixed
    module of each outer class of isomorphisms (an inner c_d has d)."""
    table = {}
    ok = True
    for phi in presystem.outer_class_reps():
        rows = ia.brauer_of(phi).fixed.basis
        u, record = unit_in_subspace(ia, rows, rng, exhaustive=exhaustive)
        table[_phi_label(phi)] = (u is not None, record)
        if u is None:
            ok = False
    return ok, table


def _phi_label(phi):
    """phi for the tables and witnesses of a report."""
    return (tuple(sorted(phi.domain.elements)),
            tuple(sorted(phi.graph)))


# ---------------------------------------------------------------------------
# isofusion (unital local Puig category)
# ---------------------------------------------------------------------------

def isofusion(ia, phi, gamma, delta):
    """Transpotent test: phi in Iso(P_gamma, Q_delta) for the isomorphism
    phi: P -> Q?  Returns (s, t) or None; witnesses satisfy t.s = i and
    s.t = j exactly."""
    A = ia.A
    i = np.asarray(gamma.rep)
    j = np.asarray(delta.rep)
    bq_phi, bq_inv, _, _ = _iso_quotients(ia, phi)
    s_rows = sandwich_rows(A, j, bq_phi.fixed.basis, i)  # j . ^phi A^P . i
    t_rows = sandwich_rows(A, i, bq_inv.fixed.basis, j)  # i . ^phi^-1 A^Q . j
    return transpotent_pair(A, i, j, t_rows, s_rows)


def theta_of_point(ia, phi, gamma, rng):
    """The unique local point delta of A^Q with phi: P_gamma ~ Q_delta,
    for phi an isomorphism onto its codomain Q, or None; cached on the
    interior algebra (a finding is raised each time, never cached)."""
    key = (phi.graph, gamma.index)
    if key not in ia._theta:
        hits = [delta for delta in local_points(ia, phi.codomain, rng)
                if isofusion(ia, phi, gamma, delta) is not None]
        if len(hits) > 1:
            raise Finding("theta_target_not_unique",
                          {"phi": _phi_label(phi), "gamma": gamma.index,
                           "targets": [d.index for d in hits]})
        ia._theta[key] = hits[0] if hits else None
    return ia._theta[key]


# ---------------------------------------------------------------------------
# twisted units
# ---------------------------------------------------------------------------

@dataclass
class TwistedUnit:
    phi: GroupInjection            # the caller's iso P -> Q
    u: np.ndarray                  # class coordinates in A(phi)
    udag: np.ndarray               # class coordinates in A(phi^-1)


def _iso_quotients(ia, phi):
    """(A(phi), A(phi^-1), A(P), A(Q)) for an isomorphism phi: P -> Q."""
    return (ia.brauer_of(phi), ia.brauer_of(phi.inverse()),
            ia.brauer_at(phi.domain), ia.brauer_at(phi.image()))


def twisted_unit_exists(ia, phi, rng):
    """A twisted unit of phi with its (unique) twisted inverse, or None.

    The search runs once per isomorphism of an interior algebra; later
    calls return the cached answer.
    """
    if phi.graph not in ia._twisted_units:
        ia._twisted_units[phi.graph] = _search_twisted_unit(ia, phi, rng)
    return ia._twisted_units[phi.graph]


def _search_twisted_unit(ia, phi, rng):
    """Every nonzero class of A(phi) when there are at most 2^16, else 64
    random ones, until one has a twisted inverse."""
    quotients = _iso_quotients(ia, phi)
    d = quotients[0].dim
    if d == 0 or any(bq.dim != d for bq in quotients):
        return None
    return _search(ia.A.field, d,
                   lambda c: _try_twisted(ia, phi, quotients, c),
                   rng, 2 ** 16, 64)[0]


def _times(f, t, x, side=0):
    """Matrix of y -> x.y (side 0) or of y -> y.x (side 1), for the tensor
    t of a pairing and a class x of that side: t contracted with x, as
    `AlgebraContext.lmul_matrix` and `rmul_matrix` contract theirs."""
    if side:
        return f.matmul(x, t).T
    a, b, k = t.shape
    return f.matmul(x, t.reshape(a, b * k)).reshape(b, k).T


def _product(f, t, x, y):
    """The class of x.y: t contracted with the outer product of x and y."""
    xy = f.mul(np.asarray(x)[:, None], np.asarray(y)[None, :]).reshape(-1)
    return f.matmul(xy, t.reshape(xy.size, t.shape[2]))


def _try_twisted(ia, phi, quotients, coords):
    """coords (a class of A(phi)) as a TwistedUnit of phi if it has a
    twisted inverse v: v.u = 1 in A(P) and u.v = 1 in A(Q)."""
    f, unit = ia.A.field, ia.A.unit
    bq_phi, bq_inv = quotients[:2]
    # column a: the class of e_a.u for the basis class e_a of A(phi^-1)
    t, bq_P = ia.pairing(bq_inv, bq_phi)
    v = linalg.solve(f, _times(f, t, coords, 1), bq_P.project(unit))
    if v is None:
        return None
    t, bq_Q = ia.pairing(bq_phi, bq_inv)
    if not np.array_equal(_product(f, t, coords, v), bq_Q.project(unit)):
        return None
    return TwistedUnit(phi=phi, u=np.asarray(coords), udag=v)


def _transport(ia, quotients, tu):
    """Matrix of the conjugation transport c -> u.c.u-dagger from A(P) to
    A(Q): c -> u.c into A(phi), then w -> w.u-dagger."""
    f = ia.A.field
    bq_phi, bq_inv, bq_P, _ = quotients
    left = _times(f, ia.pairing(bq_phi, bq_P)[0], tu.u)
    right = _times(f, ia.pairing(bq_phi, bq_inv)[0], tu.udag, 1)
    return linalg.matmul(f, right, left)


def has_all_twisted_units(ia, presystem, rng):
    """A twisted unit for each outer class of presystem isomorphisms, plus
    the pairing surjectivity check on every composable class triple."""
    table = {}
    ok = True
    reps = presystem.outer_class_reps()
    for phi in reps:
        tu = twisted_unit_exists(ia, phi, rng)
        table[_phi_label(phi)] = tu is not None
        if tu is None:
            ok = False
    if ok:
        _pairing_surjectivity_check(ia, reps)
    return ok, table


def _composable_triples(D, reps):
    """(phi, g, c_g o phi, psi) for isomorphisms phi: P -> Q and psi: R -> T
    of reps, onto their images, and g in D with gQg^-1 = R, one g per
    coset gQ.

    On the outer class representatives these stand for every composable
    pair of the presystem.  D acts by structural units: for
    psi' = c_d o psi o c_e^-1 and phi' = c_a o phi o c_b^-1,
    u_psi'.u_phi' = d.(u_psi.g.u_phi).b^-1 with g = e^-1 a, where g.u_phi
    is the unit of c_g o phi, and A(psi').A(phi') moves by the same units.
    g matters only up to gQ, as phi(u).u_phi = u_phi.u.  A pair with an
    inner factor c_d restricted to Q passes trivially: d is its unit, and
    d.A(phi) = A(c_d o phi)."""
    for phi in reps:
        Q = phi.codomain
        for psi in reps:
            R = psi.domain
            if R.order != Q.order:
                continue
            for g in D.left_coset_reps(Q):
                if Q.conjugate(g).key == R.key:
                    yield (phi, g,
                           conjugation_injection(Q, g, R).compose(phi), psi)


def _pairing_surjectivity_check(ia, reps):
    """Pairing surjectivity: products span A(psi o phi) on every composable
    class triple of the outer representatives reps, whenever all twisted
    units exist."""
    for _, _, phi, psi in _composable_triples(ia.D, reps):
        t, bq_out = ia.pairing(ia.brauer_of(psi), ia.brauer_of(phi))
        if bq_out.dim == 0:
            continue
        # the products of all pairs of basis classes, one row each
        got = linalg.rank(ia.A.field, t.reshape(-1, bq_out.dim))
        if got != bq_out.dim:
            raise Finding("pairing_not_surjective",
                          {"phi": _phi_label(phi), "psi": _phi_label(psi),
                           "rank": int(got), "dim": int(bq_out.dim)})


def theta_map(ia, phi, rng, tu=None):
    """theta_phi : LP(A^P) -> LP(A^Q) by the transpotent criterion, for
    phi: P -> Q onto its codomain; when a twisted unit of phi is given,
    the conjugation transport must induce the same map on points, and
    any mismatch is a finding."""
    mapping = {}
    for gamma in local_points(ia, phi.domain, rng):
        delta = theta_of_point(ia, phi, gamma, rng)
        if delta is None:
            return None
        mapping[gamma.index] = delta.index
    if len(set(mapping.values())) != len(mapping):
        raise Finding("theta_not_injective", {"phi": _phi_label(phi),
                                              "mapping": mapping})
    if len(mapping) != len(local_points(ia, phi.codomain, rng)):
        raise Finding("theta_not_surjective", {"phi": _phi_label(phi),
                                               "mapping": mapping})
    if tu is not None:
        via_unit = theta_map_via_twisted_unit(ia, tu, rng)
        if via_unit != mapping:
            raise Finding("theta_disagrees_with_twisted_unit",
                          {"phi": _phi_label(phi), "transpotent": mapping,
                           "unit": via_unit})
    return mapping


def theta_map_via_twisted_unit(ia, tu, rng):
    """e -> class of u . br(e) . u-dagger, matched to local points of Q,
    for the twisted unit u of phi: P -> Q."""
    phi = tu.phi
    P, Q = phi.domain, phi.image()
    quotients = _iso_quotients(ia, phi)
    bq_P, bq_Q = quotients[2:]
    Qalg = bq_Q.algebra()
    conj = _transport(ia, quotients, tu)
    out = {}
    targets = {d.index: bq_Q.project(np.asarray(d.rep))
               for d in local_points(ia, Q, rng)}
    for gamma in local_points(ia, P, rng):
        w = linalg.matvec(ia.A.field, conj,
                          bq_P.project(np.asarray(gamma.rep)))
        hits = [idx for idx, jbar in targets.items()
                if are_associate(Qalg, w, jbar)]
        if len(hits) != 1:
            raise Finding("twisted_unit_transport_not_a_point_match",
                          {"phi": _phi_label(phi), "gamma": gamma.index,
                           "targets": hits})
        out[gamma.index] = hits[0]
    return out


def twisted_unit_laws_report(ia, presystem, rng):
    """The twisted-unit laws verified on the twisted units found for
    condition (ii): uniqueness of twisted inverses, biregular
    translations and multiplicativity of conjugation transport, once per
    outer class, and closure of the products u_psi.g.u_phi of the units
    of every composable class triple."""
    reps = presystem.outer_class_reps()
    units = {}
    for phi in reps:
        tu = twisted_unit_exists(ia, phi, rng)
        if tu is None:
            return {"all_twisted_units": False}
        units[phi.graph] = tu
    report = {"all_twisted_units": True, "closure": True,
              "inverse_unique": True, "translation_regular": True,
              "conjugation_multiplicative": True}
    f = ia.A.field
    for tu in units.values():
        phi = tu.phi
        quotients = _iso_quotients(ia, phi)
        bq_phi, bq_inv, bq_P, bq_Q = quotients
        # the twisted inverse is unique
        m = _times(f, ia.pairing(bq_inv, bq_phi)[0], tu.u, 1)
        if linalg.nullspace(f, m).shape[0] != 0:
            report["inverse_unique"] = False
        # conjugation transport c -> u.c.u-dagger is multiplicative
        # A(P) -> A(Q); it is linear, so it is checked through its matrix
        # M (column a is the image of e_a): M.L(e_a) = L(M e_a).M for
        # every a, as two stacks
        conj = _transport(ia, quotients, tu)
        lhs = f.matmul(conj, bq_P.algebra().basis_lmuls())
        rhs = f.matmul(bq_Q.algebra().lmul_matrix(conj.T), conj)
        if not np.array_equal(lhs, rhs):
            report["conjugation_multiplicative"] = False
        # biregular translations to a second twisted unit, drawn at
        # random: unique x_P with u.x_P = v and unique x_Q with x_Q.u = v
        tu2, _ = _search(f, bq_phi.dim,
                         lambda c: _try_twisted(ia, phi, quotients, c),
                         rng, 0, 4)
        if tu2 is None:
            continue
        left = _times(f, ia.pairing(bq_phi, bq_P)[0], tu.u)
        right = _times(f, ia.pairing(bq_Q, bq_phi)[0], tu.u, 1)
        for m in (left, right):
            if linalg.solve(f, m, tu2.u) is None or \
                    linalg.nullspace(f, m).shape[0] != 0:
                report["translation_regular"] = False
    # composable products of twisted units are twisted units
    for phi, g, gphi, psi in _composable_triples(ia.D, reps):
        bq_gphi = ia.brauer_of(gphi)
        u_gphi = bq_gphi.project(
            ia.left(g, ia.brauer_of(phi).lift(units[phi.graph].u)))
        t, _ = ia.pairing(ia.brauer_of(psi), bq_gphi)
        w = _product(f, t, units[psi.graph].u, u_gphi)
        comp = psi.compose(gphi)
        if _try_twisted(ia, comp, _iso_quotients(ia, comp), w) is None:
            report["closure"] = False
    return report


# ---------------------------------------------------------------------------
# point transport on the pointed Brown poset
# ---------------------------------------------------------------------------

def theta_structure_report(ia, phi, rng):
    """Structure of the point transport across the pointed Brown posets:
    order preservation, conjugation equivariance, and (relative)
    multiplicity preservation under every restriction of phi: P -> Q."""
    P = phi.domain
    report = {"defined": True, "order": True, "equivariant": True,
              "multiplicity": True, "relative_multiplicity": True}
    theta = {}
    for R in all_subgroups(P):
        res = phi.restrict(R).corestrict()
        Rimg = res.codomain
        for eps in local_points(ia, R, rng):
            tgt = theta_of_point(ia, res, eps, rng)
            if tgt is None:
                report["defined"] = False
                report["undefined_at"] = (R.order, eps.index)
                return report
            theta[(R.key, eps.index)] = (Rimg, tgt)
    pairs = [(R, eps) for R in all_subgroups(P)
             for eps in local_points(ia, R, rng)]
    for R, eps in pairs:
        Rimg, eps_t = theta[(R.key, eps.index)]
        # (iii) multiplicities
        if eps.multiplicity != eps_t.multiplicity:
            report["multiplicity"] = False
        # (ii) equivariance over generators of P
        for g in P.generating_sequence() or [P.identity]:
            Rg, eps_g = conjugate_point(ia, R, eps, g, rng)
            img_g, tgt_g = theta[(Rg.key, eps_g.index)]
            Rt_conj, tgt_conj = conjugate_point(ia, Rimg, eps_t, phi(g), rng)
            if not (img_g.key == Rt_conj.key and
                    tgt_g.index == tgt_conj.index):
                report["equivariant"] = False
        # (i)/(iv) order and relative multiplicities against larger groups
        for R2, eps2 in pairs:
            if not R.key <= R2.key:
                continue
            m_rel = relative_multiplicity(ia, R, eps, R2, eps2, rng)
            R2img, eps2_t = theta[(R2.key, eps2.index)]
            m_rel_t = relative_multiplicity(ia, Rimg, eps_t, R2img, eps2_t,
                                            rng)
            if (m_rel > 0) != (m_rel_t > 0):
                report["order"] = False
            if m_rel != m_rel_t:
                report["relative_multiplicity"] = False
    report["all"] = all(report[k] for k in
                        ("defined", "order", "equivariant", "multiplicity",
                         "relative_multiplicity"))
    return report


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

def intrinsic_balance_report(ia, presystem, rng):
    """The representative of each outer class of presystem isomorphisms is
    an isofusion from every source local point, and matched local points
    have equal multiplicities."""
    report = {"isofusion_everywhere": True, "multiplicities_match": True}
    witness = None
    for phi in presystem.outer_class_reps():
        for gamma in local_points(ia, phi.domain, rng):
            delta = theta_of_point(ia, phi, gamma, rng)
            if delta is None:
                report["isofusion_everywhere"] = False
                witness = witness or {"phi": _phi_label(phi),
                                      "gamma": gamma.index}
                continue
            if gamma.multiplicity != delta.multiplicity:
                report["multiplicities_match"] = False
                witness = witness or {"phi": _phi_label(phi),
                                      "gamma": gamma.index,
                                      "m": (gamma.multiplicity,
                                            delta.multiplicity)}
    report["balanced"] = (report["isofusion_everywhere"] and
                          report["multiplicities_match"])
    if witness:
        report["witness"] = witness
    return report


def ambient_balance_report(ia_hat, ell, presystem, rng, exhaustive=False):
    """Balance of the corner l.A^.l inside A^ against theta of A^.

    ia_hat is the ambient interior algebra (e.g. the block algebra as an
    interior D-algebra), ell the corner idempotent in ambient coordinates,
    presystem the fixed-point system of the corner, walked once per outer
    class of isomorphisms.
    """
    report = {"ambient_unital_certified": None, "balanced": True}
    D = ia_hat.D
    ok_units, _ = unital_basis_exists(ia_hat, fixed_point_presystem(ia_hat),
                                      rng, exhaustive=exhaustive)
    report["ambient_unital_certified"] = ok_units
    witness = None
    for phi in presystem.outer_class_reps():
        P, Q = phi.domain, phi.codomain
        for gamma_hat in local_points(ia_hat, P, rng):
            delta_hat = theta_of_point(ia_hat, phi, gamma_hat, rng)
            if delta_hat is None:
                raise Finding("ambient_theta_undefined",
                              {"phi": _phi_label(phi)})
            m_src = point_multiplicity(ia_hat, P, gamma_hat, ell, rng)
            m_dst = point_multiplicity(ia_hat, Q, delta_hat, ell, rng)
            if m_src != m_dst:
                report["balanced"] = False
                witness = witness or {"phi": _phi_label(phi),
                                      "gamma_hat": gamma_hat.index,
                                      "m": (m_src, m_dst)}
    if witness:
        report["witness"] = witness
    return report


# ---------------------------------------------------------------------------
# the three-way equivalence report
# ---------------------------------------------------------------------------

def intrinsic_conditions(ia, presystem, rng, exhaustive):
    """Conditions (i)-(iii) of an interior algebra with its fixed-point
    presystem, each computed on its own: (unital basis or None, the
    evidence of a negative, all twisted units, intrinsic balance report).
    """
    basis, negative = build_unital_basis(ia, rng, exhaustive=exhaustive)
    twisted, _ = has_all_twisted_units(ia, presystem, rng)
    return (basis, negative, twisted,
            intrinsic_balance_report(ia, presystem, rng))


def equivalence_report(data, rng, thorough=False, exhaustive=False):
    """Independently compute (i) unital basis, (ii) all twisted units,
    (iii) intrinsic and ambient balance; report agreement."""
    ia = data.ia_S
    F = data.source_presystem
    out = {}

    basis, neg, twisted, intr = intrinsic_conditions(ia, F, rng, exhaustive)
    out["unital_basis"] = basis is not None
    if neg is not None:
        out["unital_basis_negative"] = neg
    out["all_twisted_units"] = twisted
    out["intrinsic_balance"] = intr["balanced"]
    out["intrinsic_detail"] = intr

    amb = ambient_balance_report(data.ia_B, data.ia_B.A.from_parent(data.ell),
                                 F, rng, exhaustive=exhaustive)
    out["ambient_balance"] = amb["balanced"]
    out["ambient_detail"] = amb
    out["ambient_matches_intrinsic"] = (out["intrinsic_balance"] ==
                                        out["ambient_balance"])

    conditions = [out["unital_basis"], out["all_twisted_units"],
                  out["intrinsic_balance"]]
    out["conditions_agree"] = len(set(conditions)) == 1
    if not out["conditions_agree"] or not out["ambient_matches_intrinsic"]:
        raise Finding("equivalence_conditions_disagree", dict(out))

    if basis is not None:
        # a unital basis forces a stable shape
        full = characteristic_report(basis.shape(), F, ia.A.field.p)
        out["unital_shape_stable"] = full["f_stable"]
        out["unital_shape_characteristic"] = {
            k: full[k] for k in ("bifree", "symmetric", "f_generated",
                                 "f_stable", "sylow", "all")}
        out["iso_realized_by_basis"] = _basis_realization_check(
            ia, F, basis, rng)

    if thorough and len(data.source_candidates) > 1:
        agree = True
        for cand in data.source_candidates[1:]:
            ia2 = data.ia_B.corner(data.ia_B.A.from_parent(cand))
            b2, _, t2, i2 = intrinsic_conditions(
                ia2, fixed_point_presystem(ia2), rng, exhaustive)
            if not (b2 is not None) == t2 == i2["balanced"] == \
                    out["unital_basis"]:
                agree = False
        out["thorough_candidates_agree"] = agree
        if not agree:
            raise Finding("source_candidates_disagree", dict(out))
    return out


def _basis_realization_check(ia, F, basis, rng):
    """With a unital basis, the isofusion of each outer class is realized
    by some basis element, and each source point has a unique target
    point."""
    A = ia.A
    for phi in F.outer_class_reps():
        bspace = ia.brauer_of(phi).fixed
        carriers = [v for v in basis.vectors if bspace.contains(v)]
        if not carriers:
            return False
        for gamma in local_points(ia, phi.domain, rng):
            delta = theta_of_point(ia, phi, gamma, rng)
            if delta is None:
                return False
            realized = False
            for y in carriers:
                yi = A.mul(A.mul(y, np.asarray(gamma.rep)), A.inv(y))
                if _associate_in_fixed(ia, phi.codomain, yi, delta.rep):
                    realized = True
                    break
            if not realized:
                return False
    return True
