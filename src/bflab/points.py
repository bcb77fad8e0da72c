"""Points, local points, multiplicities, and local invariant decompositions.

A point of A^P is a conjugacy class of primitive idempotents of the
P-fixed subalgebra; it is local when its Brauer image at P survives.
The interior algebra owns each A^P (`fixed_subalgebra`) and each Brauer
quotient A(P) (`brauer_at`), and holds two caches of this module: the
points of each A^P, locality flagged, and the primitive decompositions
of idempotents inside each A^P, keyed by (P, idempotent).  The
decomposition of 1 in A^P, whose pieces the points group, is one of
them.

A local invariant decomposition under P is a P-stable orthogonal
decomposition of 1 whose members are primitive and local in the fixed
algebra of their stabilizers.  It is built by a worklist refinement:
non-primitive members split inside A^(stabilizer); primitive non-local
members descend to a maximal subgroup R found by Rosenberg's lemma and
are replaced by a full free orbit constructed from the semisimple
quotient (free orbits of blocks, plus free-module splittings of fixed
matrix blocks) and lifted along the radical.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .groups import Subgroup, diagonal, maximal_subgroups, pinv
from .idempotents import (NonSplitError, _is_orthogonal_decomposition,
                          are_associate, is_primitive,
                          primitive_decomposition, quotient_algebra,
                          sandwich_rows)
from .radical import radical_rows


@dataclass
class Point:
    """A point of A^P: class of primitive idempotents, plus locality."""
    subgroup: Subgroup
    index: int
    rep: np.ndarray
    multiplicity: int
    local: bool

    def __repr__(self):
        tag = "local " if self.local else ""
        return (f"Point({tag}|P|={self.subgroup.order}, "
                f"#{self.index}, m={self.multiplicity})")


def unit_decomposition(ia, P, rng):
    """Fixed primitive decomposition of 1 in A^P (A-coordinates), cached."""
    return refine_idempotent(ia, P, ia.A.unit, rng)


def _associate_in_fixed(ia, P, x, y):
    ctx = ia.fixed_subalgebra(P)
    return are_associate(ctx, ctx.from_parent(x), ctx.from_parent(y))


def _primitive_in_fixed(ia, P, x):
    ctx = ia.fixed_subalgebra(P)
    return is_primitive(ctx, ctx.from_parent(x))


def points(ia, P, rng):
    """All points of A^P from the cached decomposition, locals flagged."""
    c = ia._points_cache["points"]
    if P.key in c:
        return c[P.key]
    parts = unit_decomposition(ia, P, rng)
    classes = []
    for x in parts:
        for cls in classes:
            if _associate_in_fixed(ia, P, cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    out = []
    for idx, cls in enumerate(classes):
        out.append(Point(subgroup=P, index=idx, rep=cls[0],
                         multiplicity=len(cls),
                         local=not ia.brauer_at(P).is_zero_class(cls[0])))
    c[P.key] = out
    return out


def local_points(ia, P, rng):
    return [pt for pt in points(ia, P, rng) if pt.local]


def point_of(ia, P, idem, rng):
    """The point of A^P containing the primitive idempotent idem."""
    for pt in points(ia, P, rng):
        if _associate_in_fixed(ia, P, pt.rep, idem):
            return pt
    raise ValueError("idempotent matches no point (is it primitive in A^P?)")


def refine_idempotent(ia, R, idem, rng):
    """Cached primitive decomposition of idem inside A^R."""
    c = ia._points_cache["decomp"]
    key = (R.key, np.asarray(idem).tobytes())
    if key not in c:
        ctx = ia.fixed_subalgebra(R)
        parts = primitive_decomposition(ctx, ctx.from_parent(idem), rng)
        c[key] = [ctx.to_parent(v) for v in parts]
    return c[key]


def point_multiplicity(ia, P, pt, idem, rng):
    """Members of the point pt of A^P in a primitive decomposition of the
    idempotent idem inside A^P."""
    return sum(1 for x in refine_idempotent(ia, P, idem, rng)
               if _associate_in_fixed(ia, P, x, pt.rep))


def relative_multiplicity(ia, Rp, pt_prime, R, pt, rng):
    """m(R'_eps', R_eps): members of eps' in a decomposition of e in eps."""
    if not Rp.key <= R.key:
        raise ValueError("relative multiplicity needs R' <= R")
    return point_multiplicity(ia, Rp, pt_prime, pt.rep, rng)


def pointed_leq(ia, Q, pt_delta, P, pt_gamma, rng):
    """Q_delta <= P_gamma: some summand of i_P in A^Q lies in delta."""
    if not Q.key <= P.key:
        return False
    return relative_multiplicity(ia, Q, pt_delta, P, pt_gamma, rng) > 0


def conjugate_point(ia, P, pt, g, rng):
    """^g(P_pt) as a (subgroup, Point) pair; g from the interior group."""
    Pg = P.conjugate(g)
    rep_g = ia.conj(g, pt.rep)
    return Pg, point_of(ia, Pg, rep_g, rng)


# ---------------------------------------------------------------------------
# local invariant decompositions
# ---------------------------------------------------------------------------

class LocalDecompositionError(RuntimeError):
    """The refinement loop could not produce an exact free orbit; this
    signals a primitivity/split bug rather than a mathematical obstruction."""


def _stabilizer(ia, P, v):
    return P.subgroup(g for g in P.elements
                      if np.array_equal(ia.conj(g, v), np.asarray(v)))


def _fixed_corner(ia, R, e):
    """Subalgebra e.(A^R).e with unit e, as a context view of A."""
    rows = sandwich_rows(ia.A, e, ia.fixed_subalgebra(R).embed, e)
    return ia.A.subalgebra(rows, unit=np.asarray(e))


def _sigma_matrix(ia, ctx, x):
    """Conjugation by x as a matrix on a subalgebra view ctx."""
    f = ia.A.field
    conj = linalg.matmul(f, ia.lmat(x),
                         linalg.matmul(f, ia.rmat(pinv(x)), ctx.embed.T))
    return ctx.from_parent(conj)


def _semisimple_orbit_idempotent(B, S, p, rng):
    """sigma-free orthogonal idempotent in the SEMISIMPLE algebra B.

    S is the matrix of an order-p algebra automorphism sigma of B with
    1_B in the image of the trace sum id + sigma + ... + sigma^(p-1).
    Returns jbar with {sigma^a(jbar)} orthogonal and summing to 1_B.
    """
    f = B.field
    from .idempotents import block_idempotents
    blocks = block_idempotents(B, rng)
    taken = [False] * len(blocks)
    jbar = B.zero()
    for idx, blk in enumerate(blocks):
        if taken[idx]:
            continue
        orbit = [idx]
        cur = linalg.matvec(f, S, blk)
        while not np.array_equal(cur, blk):
            hit = next(t for t, other in enumerate(blocks)
                       if np.array_equal(cur, other))
            orbit.append(hit)
            cur = linalg.matvec(f, S, cur)
        for t in orbit:
            taken[t] = True
        if len(orbit) == p:
            jbar = B.add(jbar, blk)
        elif len(orbit) == 1:
            jbar = B.add(jbar, _fixed_block_orbit_idempotent(B, S, blk, p, rng))
        else:
            raise LocalDecompositionError(
                f"block orbit of size {len(orbit)} under order-{p} action")
    return jbar


def _fixed_block_orbit_idempotent(B, S, blk, p, rng):
    """Free-orbit idempotent inside a sigma-fixed simple block of B."""
    f = B.field
    Qb = B.corner(blk)
    # sigma restricted to the corner
    Sb = Qb.from_parent(linalg.matmul(f, S, Qb.embed.T))
    # sigma = conjugation by g: solve sigma(y).g = g.y for all basis y
    constraints = []
    for i in range(Qb.dim):
        y = Qb.basis_vector(i)
        sy = linalg.matvec(f, Sb, y)
        constraints.append(f.sub(Qb.rmul_matrix(y), Qb.lmul_matrix(sy)))
    sols = linalg.nullspace(f, np.concatenate(constraints, axis=0))
    g = None
    for t in range(sols.shape[0]):
        if Qb.is_unit(sols[t]):
            g = sols[t]
            break
    if g is None:
        raise NonSplitError("automorphism of a simple block is not inner "
                            "(field too small to split the block)")
    gp = Qb.power(g, p)
    # normalize so g^p = 1 (g^p is a scalar by Schur)
    scal = None
    for i in range(Qb.dim):
        if Qb.unit[i]:
            scal = f.div(int(gp[i]), int(Qb.unit[i]))
            break
    if not (scal is not None and scal != 0 and
            np.array_equal(gp, Qb.scale(scal, Qb.unit))):
        raise LocalDecompositionError("g^p is not scalar")
    mu = _pth_root_scalar(f, f.inv(scal), p)
    g = Qb.scale(mu, g)
    if not np.array_equal(Qb.power(g, p), Qb.unit):
        raise LocalDecompositionError("normalization failed")
    # natural module V = Qb.f0 for a primitive idempotent f0
    f0 = primitive_decomposition(Qb, Qb.unit, rng, verify=False)[0]
    vrows = linalg.rref(f, linalg.matmul(
        f, Qb.rmul_matrix(f0), linalg.eye(f, Qb.dim).T).T)[0]
    n = vrows.shape[0]
    if n * n != Qb.dim:
        raise LocalDecompositionError("block is not split simple")
    V = linalg.Coordinates(f, vrows)
    # action of g on V in the vrows basis
    Gmat = V(linalg.matmul(f, Qb.lmul_matrix(g), vrows.T), check=False)
    eta = f.sub(Gmat, linalg.eye(f, n))
    if not (n % p == 0 and linalg.nullspace(f, eta).shape[0] == n // p):
        raise LocalDecompositionError(
            "natural module is not free over <g> (trace promise violated)")
    # complement of ker(eta^(p-1)) = im(eta) gives a free basis
    etapow = linalg.eye(f, n)
    for _ in range(p - 1):
        etapow = linalg.matmul(f, etapow, eta)
    kern = linalg.nullspace(f, etapow)
    comp = []
    acc = kern
    for i in range(n):
        cand = np.concatenate([acc, linalg.eye(f, n)[i:i + 1]], axis=0)
        if linalg.rank(f, cand) > acc.shape[0]:
            comp.append(i)
            acc = linalg.rref(f, cand)[0]
    U = linalg.eye(f, n)[comp]
    # basis g^a u_i of V; projection onto a = 0 component
    blocks_rows = []
    for a in range(p):
        rows = U.copy()
        for _ in range(a):
            rows = linalg.matmul(f, Gmat, rows.T).T
        blocks_rows.append(rows)
    full = np.concatenate(blocks_rows, axis=0)
    coords = linalg.Coordinates(f, full, error=LocalDecompositionError)
    r = U.shape[0]
    proj_mat = linalg.matmul(f, full[:r].T,
                             coords(linalg.eye(f, n), check=False)[:r])
    # back to an element of Qb: solve sum_e x_e . (L_e restricted to V) =
    # proj.  Column i.dim + e of the products is b_e . v_i, so entry
    # (a, i.dim + e) of their V-coordinates is entry (a, i) of L_e on V,
    # and row a.n + i of the reshaped matrix holds it for every e
    prods = np.concatenate([Qb.rmul_matrix(v) for v in vrows], axis=1)
    acts = V(prods, check=False).reshape(n * n, Qb.dim)
    jb = linalg.solve(f, acts, proj_mat.reshape(-1))
    if jb is None:
        raise LocalDecompositionError(
            "projection is not realized in the block")
    if not Qb.is_idempotent(jb):
        raise LocalDecompositionError("projection element not idempotent")
    return Qb.to_parent(jb)


def _pth_root_scalar(f, a, p):
    """mu with mu^p = a in GF(p^m)."""
    return f.pow(a, p ** ((f.m - 1) % max(f.m, 1))) if f.m > 1 else a


def _orbit_idempotent(B, S, p, rng):
    """Idempotent j in B with free orthogonal sigma-orbit summing to 1_B.

    B is a corner-of-fixed-points view, S the matrix of the order-p
    automorphism sigma, with the promise 1_B in im(id + ... + sigma^(p-1)).
    """
    f = B.field
    nrows = radical_rows(B)
    Q = quotient_algebra(B, nrows)
    Sq = Q.proj(linalg.matmul(f, S, Q.lift(Q.basis_matrix())))
    jbar = _semisimple_orbit_idempotent(Q, Sq, p, rng)
    x = Q.lift(jbar)
    powers, tsum = _sigma_powers(f, S, p)

    # exact sum normalization: d is sigma-fixed, so (1 + d)^-1 is too
    d = B.sub(linalg.matvec(f, tsum, x), B.unit)
    corr = B.inv(B.add(B.unit, d))
    x = B.mul(corr, x)
    if not np.array_equal(linalg.matvec(f, tsum, x), B.unit):
        raise LocalDecompositionError("orbit trace is not the unit")

    if p == 2:
        # squaring preserves {x : x + sigma(x) = 1} and converges
        for _ in range(2 * B.dim + 4):
            if B.is_idempotent(x):
                break
            x = B.mul(x, x)
        if _verify_orbit(B, powers, x):
            return x
        raise LocalDecompositionError("char-2 orbit lift failed")

    # odd p: linearized corrections for orthogonality, sum kept exact;
    # restart from randomized sum-exact shifts if Newton hits a
    # degenerate point
    shift_rows = None
    x0 = x
    for attempt in range(6):
        if attempt == 0:
            x = x0
        else:
            if shift_rows is None:
                shift_rows = _sum_exact_radical_shifts(f, tsum, nrows)
            if shift_rows.shape[0] == 0:
                break
            coeffs = f.random_elements(rng, shift_rows.shape[0])
            x = B.add(x0, linalg.vecmat(f, coeffs, shift_rows))
        for _ in range(8 * B.dim + 16):
            if _verify_orbit(B, powers, x):
                return x
            x = _odd_orbit_correction(f, B, powers, tsum, x)
            if x is None:
                break
    raise LocalDecompositionError("odd-p orbit lift failed")


def _sigma_powers(f, S, p):
    """The matrices S^0, ..., S^(p-1) of sigma's powers, and their sum,
    the trace id + sigma + ... + sigma^(p-1)."""
    powers = [linalg.eye(f, S.shape[0])]
    for _ in range(p - 1):
        powers.append(linalg.matmul(f, S, powers[-1]))
    return powers, f.vec_sum(np.array(powers), axis=0)


def _sum_exact_radical_shifts(f, tsum, radical):
    """Rows of J(B) combos killed by the trace sum id + sigma + ..."""
    if radical.shape[0] == 0:
        return radical
    combos = linalg.nullspace(f, linalg.matmul(f, tsum, radical.T))
    return linalg.matmul(f, combos, radical)


def _verify_orbit(B, powers, x):
    """Whether the sigma-orbit of x is an orthogonal decomposition of 1."""
    orbit = [linalg.matvec(B.field, m, x) for m in powers]
    return _is_orthogonal_decomposition(B, orbit, B.unit)


def _odd_orbit_correction(f, B, powers, tsum, x):
    """One Newton step: solve for delta with trace(delta) = 0 killing the
    current orthogonality/idempotency defects to first order."""
    n = B.dim
    orbit = [linalg.matvec(f, m, x) for m in powers]
    rows = []
    rhs = []
    # idempotency: x d + d x - d = -(x^2 - x)
    lx = B.lmul_matrix(x)
    rx = B.rmul_matrix(x)
    rows.append(f.sub(f.add(lx, rx), linalg.eye(f, n)))
    rhs.append(f.neg(B.sub(B.mul(x, x), x)))
    # orthogonality vs each shifted copy: x sigma^a(d) + d sigma^a(x) = -x sigma^a(x)
    for a in range(1, len(powers)):
        ma = f.add(linalg.matmul(f, lx, powers[a]),
                   B.rmul_matrix(orbit[a]))
        rows.append(ma)
        rhs.append(f.neg(B.mul(x, orbit[a])))
        # sigma^a(x) d + sigma^a(d) x = -(sigma^a(x) x)
        mb = f.add(B.lmul_matrix(orbit[a]),
                   linalg.matmul(f, rx, powers[a]))
        rows.append(mb)
        rhs.append(f.neg(B.mul(orbit[a], x)))
    # sum preservation: trace(d) = 0
    rows.append(tsum)
    rhs.append(B.zero())
    big = np.concatenate(rows, axis=0)
    target = np.concatenate(rhs, axis=0)
    delta = linalg.solve(f, big, target)
    if delta is None:
        return None
    return B.add(x, delta)


def local_invariant_decomposition(ia, P, rng):
    """P-stable orthogonal decomposition of 1 into primitive local pieces.

    Returns a list of (idempotent, stabilizer) pairs; the idempotent set
    is closed under P-conjugation and each piece is primitive local in
    the fixed algebra of its stabilizer.
    """
    system = [ia.A.unit.copy()]
    guard = 0
    while True:
        guard += 1
        if guard > 4 * ia.A.dim + 16:
            raise LocalDecompositionError("refinement loop did not terminate")
        tagged = [(v, _stabilizer(ia, P, v)) for v in system]
        work = None
        for v, H in tagged:
            if not _primitive_in_fixed(ia, H, v):
                work = (v, H, "split")
                break
            if ia.brauer_at(H).is_zero_class(v):
                work = (v, H, "descend")
                break
        if work is None:
            break
        v, H, kind = work
        if kind == "split":
            pieces = refine_idempotent(ia, H, v, rng)
        else:
            pieces = _descend_orbit(ia, H, v, rng)
        system = _replace_orbit(ia, P, system, v, H, pieces)
    out = [(v, _stabilizer(ia, P, v)) for v in system]
    _verify_lid(ia, P, out)
    return out


def _descend_orbit(ia, H, e, rng):
    """Free orbit refinement of a primitive non-local e in A^H."""
    f = ia.A.field
    for R in maximal_subgroups(H):
        B = _fixed_corner(ia, R, e)
        # does e lie in the trace image tr_R^H(B)?
        tmat = ia.trace_map(diagonal(R, ia.D).pairs, diagonal(H, ia.D).pairs)
        img = linalg.matmul(f, tmat, B.embed.T)
        if linalg.solve(f, img, np.asarray(e)) is None:
            continue
        x = next(c for c in H.elements if c not in R.key)
        S = _sigma_matrix(ia, B, x)
        p = H.order // R.order
        j = _orbit_idempotent(B, S, p, rng)
        jA = B.to_parent(j)
        orbit = [jA]
        for _ in range(p - 1):
            orbit.append(ia.conj(x, orbit[-1]))
        return orbit
    raise LocalDecompositionError(
        "no maximal subgroup carries the trace of a non-local primitive")


def _replace_orbit(ia, P, system, v, H, pieces):
    """Swap the P-orbit of v for the conjugated pieces."""
    out = []
    orbit_seen = set()
    for w in system:
        mover = None
        for q in P.elements:
            if np.array_equal(ia.conj(q, v), np.asarray(w)):
                mover = q
                break
        if mover is None:
            out.append(w)
            continue
        wb = np.asarray(w).tobytes()
        if wb in orbit_seen:
            raise LocalDecompositionError("orbit bookkeeping degenerated")
        orbit_seen.add(wb)
        for piece in pieces:
            out.append(ia.conj(mover, piece))
    return out


def _verify_lid(ia, P, tagged):
    for v, H in tagged:
        if not _primitive_in_fixed(ia, H, v):
            raise LocalDecompositionError("piece not primitive")
        if ia.brauer_at(H).is_zero_class(v):
            raise LocalDecompositionError("piece not local")
    vecs = [v for v, _ in tagged]
    if not _is_orthogonal_decomposition(ia.A, vecs, ia.A.unit):
        raise LocalDecompositionError(
            "pieces are not an orthogonal decomposition of 1")
    keys = {np.asarray(v).tobytes() for v in vecs}
    for v, _ in tagged:
        for g in P.elements:
            if np.asarray(ia.conj(g, v)).tobytes() not in keys:
                raise LocalDecompositionError("system not closed under P")
