"""Checkers for unital invariant bases, twisted units, and balance.

Everything here is exact: searches are randomized (seeded) with
exhaustive enumeration on small spaces, but every positive answer is
verified by direct multiplication, and the three top-level conditions

    (i)   a unital (D,D)-invariant basis exists,
    (ii)  every fixed-point-fusion isomorphism has a twisted unit,
    (iii) the algebra is (intrinsically) balanced,

are computed independently and compared; a mismatch is surfaced as a
finding, never patched over.  Twisted units are searched once per
isomorphism and cached on the interior algebra, so the twisted-unit law
suite checks the units that condition (ii) found.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bisets import (_expand_orbit, characteristic_report,
                     explicit_invariant_basis)
from .fusion import fixed_point_presystem
from .groups import GroupInjection, TwistedDiagonal, all_subgroups
from .idempotents import are_associate, sandwich_rows, transpotent_pair
from .interior import pair_subgroup, quotient_product
from .points import (Point, conjugate_point, local_points,
                     local_invariant_decomposition, point_multiplicity,
                     point_of, points, relative_multiplicity,
                     _associate_in_fixed)


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
    """Search exhausted over the current field; retry over an extension."""


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
    d2_group = pair_subgroup(ia.D, [(a, b) for a in ia.D.elements
                                    for b in ia.D.elements])
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


def _quotient_of(ia, phi):
    """A(phi), the Brauer quotient at Delta(phi, P)."""
    return ia.brauer(TwistedDiagonal(phi))


def unital_basis_exists(ia, presystem, rng, exhaustive=False):
    """Fixed-point criterion for unital bases: a unit in every
    isomorphism's twisted fixed module."""
    table = {}
    ok = True
    for P, Q, phi in presystem.all_isomorphisms():
        rows = _quotient_of(ia, phi).fixed.basis
        u, record = unit_in_subspace(ia, rows, rng, exhaustive=exhaustive)
        table[_phi_label(phi)] = (u is not None, record)
        if u is None:
            ok = False
    return ok, table


def _phi_label(phi):
    return (tuple(sorted(phi.domain.elements)),
            tuple(sorted(phi.graph)))


# ---------------------------------------------------------------------------
# isofusion (unital local Puig category)
# ---------------------------------------------------------------------------

def isofusion(ia, phi, P, gamma, Q, delta):
    """Transpotent test: phi in Iso(P_gamma, Q_delta)?  Returns (s, t) or
    None; witnesses satisfy t.s = i and s.t = j exactly."""
    A = ia.A
    i = np.asarray(gamma.rep)
    j = np.asarray(delta.rep)
    bq_phi, bq_inv, _, _ = _iso_quotients(ia, phi)
    s_rows = sandwich_rows(A, j, bq_phi.fixed.basis, i)  # j . ^phi A^P . i
    t_rows = sandwich_rows(A, i, bq_inv.fixed.basis, j)  # i . ^phi^-1 A^Q . j
    return transpotent_pair(A, i, j, t_rows, s_rows)


def theta_of_point(ia, phi, P, gamma, Q, rng):
    """The unique local point delta of A^Q with phi: P_gamma ~ Q_delta, or
    None; cached on the interior algebra (a finding is raised each time,
    never cached)."""
    key = (_phi_label(phi), Q.key, gamma.index)
    if key not in ia._theta:
        hits = [delta for delta in local_points(ia, Q, rng)
                if isofusion(ia, phi, P, gamma, Q, delta) is not None]
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
    phi: GroupInjection            # iso P -> Q, into D
    u: np.ndarray                  # class coordinates in A(phi)
    udag: np.ndarray               # class coordinates in A(phi^-1)


def _iso_quotients(ia, phi):
    """(A(phi), A(phi^-1), A(P), A(Q)) for an isomorphism phi: P -> Q."""
    return (_quotient_of(ia, phi), _quotient_of(ia, phi.inverse()),
            ia.brauer_at(phi.domain), ia.brauer_at(phi.image()))


def twisted_unit_exists(ia, phi, rng):
    """A twisted unit of phi with its (unique) twisted inverse, or None.

    The search runs once per isomorphism of an interior algebra; later
    calls return the cached answer.
    """
    key = _phi_label(phi)
    if key not in ia._twisted_units:
        ia._twisted_units[key] = _search_twisted_unit(ia, phi, rng)
    return ia._twisted_units[key]


def _search_twisted_unit(ia, phi, rng):
    """Every nonzero class of A(phi) when there are at most 2^16, else 64
    random ones, until one has a twisted inverse."""
    quotients = _iso_quotients(ia, phi)
    d = quotients[0].dim
    if d == 0 or any(bq.dim != d for bq in quotients):
        return None
    return _search(ia.A.field, d, lambda c: _try_twisted(ia, quotients, c),
                   rng, 2 ** 16, 64)[0]


def _try_twisted(ia, quotients, coords):
    """coords (a class of A(phi)) as a TwistedUnit if it has a twisted
    inverse v: v.u = 1 in A(P) and u.v = 1 in A(Q)."""
    A = ia.A
    f = A.field
    bq_phi, bq_inv, bq_P, bq_Q = quotients
    # column t: the class of e_t . u for the basis class e_t of A(phi^-1)
    m, _ = quotient_product(bq_inv, bq_phi, linalg.eye(f, bq_inv.dim),
                            coords, bq_P)
    v = linalg.solve(f, m, bq_P.project(np.asarray(A.unit)))
    if v is None:
        return None
    c2, _ = quotient_product(bq_phi, bq_inv, coords, v, bq_Q)
    if not np.array_equal(c2, bq_Q.project(np.asarray(A.unit))):
        return None
    return TwistedUnit(phi=bq_phi.phi, u=np.asarray(coords), udag=v)


def _transport(quotients, tu, c):
    """Classes u.c.u-dagger in A(Q) of classes c of A(P) (a vector, or a
    matrix of columns)."""
    bq_phi, bq_inv, bq_P, bq_Q = quotients
    w, bq_mid = quotient_product(bq_phi, bq_P, tu.u, c)
    return quotient_product(bq_mid, bq_inv, w, tu.udag, bq_Q)[0]


def has_all_twisted_units(ia, presystem, rng):
    """Twisted units for every presystem isomorphism, plus the pairing
    surjectivity spot-check on composable isomorphism pairs."""
    table = {}
    ok = True
    isos = list(presystem.all_isomorphisms())
    for P, Q, phi in isos:
        tu = twisted_unit_exists(ia, phi, rng)
        table[_phi_label(phi)] = tu is not None
        if tu is None:
            ok = False
    if ok:
        _pairing_surjectivity_check(ia, isos, rng)
    return ok, table


def _composable_pairs(isos):
    """(phi, psi) for the listed isomorphisms (P, Q, phi) and (Q, R, psi),
    phi-major in list order: psi o phi is defined, as phi maps P onto Q."""
    return [(phi, psi) for _, Q, phi in isos for Q2, _, psi in isos
            if Q.key == Q2.key]


def _pairing_surjectivity_check(ia, isos, rng):
    """Pairing surjectivity: products span A(psi.phi) for composable isos
    whenever all twisted units exist (20 sampled pairs)."""
    f = ia.A.field
    comp = _composable_pairs(isos)
    if not comp:
        return
    idx = rng.permutation(len(comp))[:20]
    for t in idx:
        phi, psi = comp[int(t)]
        bq_phi = _quotient_of(ia, phi)
        bq_psi = _quotient_of(ia, psi)
        bq_out = _quotient_of(ia, psi.compose(phi.corestrict(psi.domain)))
        if bq_out.dim == 0:
            continue
        # the products of all basis classes, one call per class of A(psi)
        # (nonzero: psi has a twisted unit)
        basis_phi = linalg.eye(f, bq_phi.dim)
        spans = [quotient_product(bq_psi, bq_phi, e, basis_phi, bq_out)[0]
                 for e in linalg.eye(f, bq_psi.dim)]
        got = linalg.rank(f, np.concatenate(spans, axis=1))
        if got != bq_out.dim:
            raise Finding("pairing_not_surjective",
                          {"phi": _phi_label(phi), "psi": _phi_label(psi),
                           "rank": int(got), "dim": int(bq_out.dim)})


def theta_map(ia, phi, P, Q, rng, tu=None):
    """theta_phi : LP(A^P) -> LP(A^Q) by the transpotent criterion;
    when a twisted unit is given, the conjugation transport must induce
    the same map on points, and any mismatch is a finding."""
    mapping = {}
    for gamma in local_points(ia, P, rng):
        delta = theta_of_point(ia, phi, P, gamma, Q, rng)
        if delta is None:
            return None
        mapping[gamma.index] = delta.index
    if len(set(mapping.values())) != len(mapping):
        raise Finding("theta_not_injective", {"phi": _phi_label(phi),
                                              "mapping": mapping})
    if len(mapping) != len(local_points(ia, Q, rng)):
        raise Finding("theta_not_surjective", {"phi": _phi_label(phi),
                                               "mapping": mapping})
    if tu is not None:
        via_unit = theta_map_via_twisted_unit(ia, phi, tu, P, Q, rng)
        if via_unit != mapping:
            raise Finding("theta_disagrees_with_twisted_unit",
                          {"phi": _phi_label(phi), "transpotent": mapping,
                           "unit": via_unit})
    return mapping


def theta_map_via_twisted_unit(ia, phi, tu, P, Q, rng):
    """e -> class of u . br(e) . u-dagger, matched to local points of Q."""
    quotients = _iso_quotients(ia, phi)
    bq_P, bq_Q = quotients[2:]
    Qalg = bq_Q.algebra()
    out = {}
    targets = {d.index: bq_Q.project(np.asarray(d.rep))
               for d in local_points(ia, Q, rng)}
    for gamma in local_points(ia, P, rng):
        w = _transport(quotients, tu, bq_P.project(np.asarray(gamma.rep)))
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
    condition (ii): closure of composable products, uniqueness of
    twisted inverses, biregular translations, and multiplicativity of
    conjugation transport."""
    isos = list(presystem.all_isomorphisms())
    units = {}
    for P, Q, phi in isos:
        tu = twisted_unit_exists(ia, phi, rng)
        if tu is None:
            return {"all_twisted_units": False}
        units[_phi_label(phi)] = tu
    report = {"all_twisted_units": True, "closure": True,
              "inverse_unique": True, "translation_regular": True,
              "conjugation_multiplicative": True}
    f = ia.A.field
    for P, Q, phi in isos:
        tu = units[_phi_label(phi)]
        quotients = _iso_quotients(ia, phi)
        bq_phi, bq_inv, bq_P, bq_Q = quotients
        # the twisted inverse is unique
        m, _ = quotient_product(bq_inv, bq_phi, linalg.eye(f, bq_inv.dim),
                                tu.u, bq_P)
        if linalg.nullspace(f, m).shape[0] != 0:
            report["inverse_unique"] = False
        # conjugation transport c -> u.c.u-dagger is multiplicative
        # A(P) -> A(Q); it is linear, so it is checked through its matrix
        # M (column a is the image of e_a): M(e_a.e_b) = M e_a . M e_b
        Palg = bq_P.algebra()
        Qalg = bq_Q.algebra()
        conj = _transport(quotients, tu, linalg.eye(f, bq_P.dim))
        for a in range(bq_P.dim):
            la = Palg.lmul_matrix(Palg.basis_vector(a))
            lhs = linalg.matmul(f, conj, la)
            rhs = linalg.matmul(f, Qalg.lmul_matrix(conj[:, a]), conj)
            if not np.array_equal(lhs, rhs):
                report["conjugation_multiplicative"] = False
        # biregular translations to a second twisted unit, drawn at
        # random: unique x_P with u.x_P = v and unique x_Q with x_Q.u = v
        tu2, _ = _search(f, bq_phi.dim,
                         lambda c: _try_twisted(ia, quotients, c), rng, 0, 4)
        if tu2 is None:
            continue
        left, _ = quotient_product(bq_phi, bq_P, tu.u,
                                   linalg.eye(f, bq_P.dim), bq_phi)
        right, _ = quotient_product(bq_Q, bq_phi, linalg.eye(f, bq_Q.dim),
                                    tu.u, bq_phi)
        for m in (left, right):
            if linalg.solve(f, m, tu2.u) is None or \
                    linalg.nullspace(f, m).shape[0] != 0:
                report["translation_regular"] = False
    # composable products of twisted units are twisted units
    for phi, psi in _composable_pairs(isos):
        w, bq_comp = quotient_product(_quotient_of(ia, psi),
                                      _quotient_of(ia, phi),
                                      units[_phi_label(psi)].u,
                                      units[_phi_label(phi)].u)
        if _try_twisted(ia, _iso_quotients(ia, bq_comp.phi), w) is None:
            report["closure"] = False
    return report


# ---------------------------------------------------------------------------
# point transport on the pointed Brown poset, and the global-unit lift
# ---------------------------------------------------------------------------

def theta_structure_report(ia, phi, P, Q, rng):
    """Structure of the point transport across the pointed Brown posets:
    order preservation, conjugation equivariance, and (relative)
    multiplicity preservation under every restriction of phi."""
    report = {"defined": True, "order": True, "equivariant": True,
              "multiplicity": True, "relative_multiplicity": True}
    theta = {}
    for R in all_subgroups(P):
        res = phi.restrict(R).corestrict()
        Rimg = res.image()
        for eps in local_points(ia, R, rng):
            tgt = theta_of_point(ia, res, R, eps, Rimg, rng)
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


def _pointed_class_key(ia, P, H, pt, rng):
    """Canonical key of the P-conjugacy class of the pointed group (H, pt)."""
    best = None
    for g in P.elements:
        Hg, ptg = conjugate_point(ia, H, pt, g, rng)
        cand = (tuple(sorted(Hg.elements)), ptg.index)
        if best is None or cand < best:
            best = cand
    return best


def lift_to_global_unit(ia, phi, P, Q, rng):
    """Unit of A inside the twisted fixed module, assembled from matched
    local invariant decompositions via relative traces of transporters;
    returns (u, v) with v.u = u.v = 1."""
    A = ia.A
    f = A.field
    bq_phi, bq_inv, _, _ = _iso_quotients(ia, phi)
    E = local_invariant_decomposition(ia, P, rng)
    F = local_invariant_decomposition(ia, Q, rng)

    def classify(parts, group):
        classes = {}
        for v, H in parts:
            pt = point_of(ia, H, v, rng)
            key = _pointed_class_key(ia, group, H, pt, rng)
            classes.setdefault(key, []).append((v, H, pt))
        return classes

    E_classes = classify(E, P)
    F_classes = classify(F, Q)

    total_u = A.zero()
    total_v = A.zero()
    matched_f_keys = set()
    for key, members in sorted(E_classes.items()):
        # normalize all members of this class to a common (R, eps)
        R_elems, eps_index = key
        R = P.subgroup(R_elems)
        eps = points(ia, R, rng)[eps_index]
        res = phi.restrict(R).corestrict()
        Rimg = res.image()
        eps_t = theta_of_point(ia, res, R, eps, Rimg, rng)
        if eps_t is None:
            raise Finding("lift_missing_theta",
                          {"phi": _phi_label(phi), "R_order": R.order})
        f_key = _pointed_class_key(ia, Q, Rimg, eps_t, rng)
        fmembers = F_classes.get(f_key, [])
        if len(members) != len(fmembers):
            raise Finding("lift_class_size_mismatch",
                          {"phi": _phi_label(phi), "R_order": R.order,
                           "E": len(members), "F": len(fmembers)})
        matched_f_keys.add(f_key)
        e_orbit_reps = _orbit_reps_normalized(ia, P, members, R, eps, rng)
        f_orbit_reps = _orbit_reps_normalized(ia, Q, fmembers, Rimg, eps_t,
                                              rng)
        if len(e_orbit_reps) != len(f_orbit_reps):
            raise Finding("lift_orbit_count_mismatch",
                          {"phi": _phi_label(phi), "R_order": R.order,
                           "E": len(e_orbit_reps), "F": len(f_orbit_reps)})
        tr_up = ia.trace_map(TwistedDiagonal(res).pairs, bq_phi.pairs)
        tr_up_inv = ia.trace_map(TwistedDiagonal(res.inverse()).pairs,
                                 bq_inv.pairs)
        for e_rep, f_rep in zip(e_orbit_reps, f_orbit_reps):
            ge = Point(subgroup=R, index=-1, rep=e_rep, multiplicity=1,
                       local=True)
            gf = Point(subgroup=Rimg, index=-1, rep=f_rep, multiplicity=1,
                       local=True)
            pair = isofusion(ia, res, R, ge, Rimg, gf)
            if pair is None:
                raise Finding("lift_transporter_missing",
                              {"phi": _phi_label(phi), "R_order": R.order})
            s, t = pair
            total_u = A.add(total_u, linalg.matvec(f, tr_up, s))
            total_v = A.add(total_v, linalg.matvec(f, tr_up_inv, t))
    if matched_f_keys != set(F_classes):
        raise Finding("lift_class_cover_mismatch",
                      {"phi": _phi_label(phi)})
    if not (np.array_equal(A.mul(total_v, total_u), A.unit) and
            np.array_equal(A.mul(total_u, total_v), A.unit)):
        raise Finding("lift_product_not_identity", {"phi": _phi_label(phi)})
    if not bq_phi.fixed.contains(total_u):
        raise Finding("lift_unit_outside_fixed_module",
                      {"phi": _phi_label(phi)})
    return total_u, total_v


def _orbit_reps_normalized(ia, group, members, R, eps, rng):
    """One representative per group-orbit, conjugated to stabilizer R and
    point eps on the nose."""
    reps = []
    used = set()
    for v, H, pt in members:
        vb = np.asarray(v).tobytes()
        if vb in used:
            continue
        orbit = {np.asarray(ia.conj(g, v)).tobytes() for g in group.elements}
        used.update(orbit)
        chosen = None
        for g in group.elements:
            if H.conjugate(g).key != R.key:
                continue
            w = ia.conj(g, v)
            if _associate_in_fixed(ia, R, w, eps.rep):
                chosen = w
                break
        if chosen is None:
            raise Finding("lift_orbit_not_normalizable",
                          {"R_order": R.order, "point": eps.index})
        reps.append(chosen)
    return reps


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

def intrinsic_balance_report(ia, presystem, rng):
    """Every presystem iso is an isofusion from every source local point,
    and matched local points have equal multiplicities."""
    report = {"isofusion_everywhere": True, "multiplicities_match": True}
    witness = None
    for P, Q, phi in presystem.all_isomorphisms():
        for gamma in local_points(ia, P, rng):
            delta = theta_of_point(ia, phi, P, gamma, Q, rng)
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
    presystem the fixed-point system of the corner.
    """
    report = {"ambient_unital_certified": None, "balanced": True}
    D = ia_hat.D
    ok_units, _ = unital_basis_exists(
        ia_hat, fixed_point_presystem(ia_hat, label="fF(ambient)"), rng,
        exhaustive=exhaustive)
    report["ambient_unital_certified"] = ok_units
    witness = None
    for P, Q, phi in presystem.all_isomorphisms():
        for gamma_hat in local_points(ia_hat, P, rng):
            delta_hat = theta_of_point(ia_hat, phi, P, gamma_hat, Q, rng)
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
                ia2, fixed_point_presystem(ia2, label="fF(alt source)"), rng,
                exhaustive)
            if not (b2 is not None) == t2 == i2["balanced"] == \
                    out["unital_basis"]:
                agree = False
        out["thorough_candidates_agree"] = agree
        if not agree:
            raise Finding("source_candidates_disagree", dict(out))
    return out


def _basis_realization_check(ia, F, basis, rng):
    """With a unital basis, every isofusion is realized by some basis
    element, and each source point has a unique target point."""
    A = ia.A
    for P, Q, phi in F.all_isomorphisms():
        bspace = _quotient_of(ia, phi).fixed
        carriers = [v for v in basis.vectors if bspace.contains(v)]
        if not carriers:
            return False
        for gamma in local_points(ia, P, rng):
            delta = theta_of_point(ia, phi, P, gamma, Q, rng)
            if delta is None:
                return False
            realized = False
            for y in carriers:
                yi = A.mul(A.mul(y, np.asarray(gamma.rep)), A.inv(y))
                if _associate_in_fixed(ia, Q, yi, delta.rep):
                    realized = True
                    break
            if not realized:
                return False
    return True
