"""Primitive idempotent decompositions and associate tests.

The pipeline is classical: compute the radical, split the semisimple
quotient with CRT idempotents of random elements' minimal polynomials,
lift along the radical with the Newton step e <- 3e^2 - 2e^3, and
recurse on complementary corners until every piece has a local corner.

`transpotent_pair` solves the existential problem behind idempotent
conjugacy: given i = sum of products t_a.s_b with i primitive, locality
of i.A.i forces one summand to be invertible in the corner, and that
summand is massaged into an exact pair (s, t) with t.s = i, s.t = j.
"""

import numpy as np

from . import linalg, polys
from .algebra import AlgebraContext, AlgebraError
from .radical import radical_rows


class NonSplitError(RuntimeError):
    """The working field is too small to split a corner; extend and retry."""


def minimal_polynomial(A, x):
    """Monic minimal polynomial of x as an element of A."""
    f = A.field
    rows = [A.unit.copy()]
    acc = np.asarray(x, dtype=np.int64)
    while True:
        stacked = np.array(rows + [acc], dtype=np.int64)
        if linalg.rank(f, stacked) < stacked.shape[0]:
            coeffs = linalg.solve(f, np.array(rows).T, acc)
            mp = [f.neg(int(c)) for c in coeffs] + [1]
            return polys.trim(mp) if polys.trim(mp) else (0, 1)
        rows.append(acc.copy())
        acc = A.mul(acc, x)


def quotient_algebra(A, ideal_rows):
    """A / ideal as an AlgebraContext, with lift/project helpers.

    Representatives are the standard basis vectors at the non-pivot
    coordinates of the ideal's RREF, so the quotient basis is canonical.
    The ideal rows must be independent.
    """
    f = A.field
    ideal_rows = np.asarray(ideal_rows, dtype=np.int64)
    if ideal_rows.size == 0:
        ideal_rows = linalg.zeros(0, A.dim)
    pivots = linalg.rref(f, ideal_rows)[1]
    free = [c for c in range(A.dim) if c not in pivots]
    reps = linalg.eye(f, A.dim)[free]
    coords = linalg.Coordinates(f, np.concatenate([ideal_rows, reps]),
                                mod=ideal_rows.shape[0], error=AlgebraError)

    def proj(v):
        """Class of v (of each column for a matrix) over the reps."""
        return coords(v, check=False)

    def lift(c):
        """The rep combination of c; of each column for a matrix."""
        if np.ndim(c) == 2:
            return linalg.matmul(f, reps.T, c)
        return linalg.vecmat(f, c, reps)

    tensor = linalg.structure_tensor(f, A.lmul_matrix, reps, coords,
                                     check=False)
    Q = AlgebraContext(f, len(free), mult_tensor=tensor, unit=proj(A.unit),
                       check=False)
    Q._check_unit()
    Q.lift = lift
    Q.proj = proj
    return Q


def idempotent_lift(A, x, radical_dim_bound=None):
    """Newton-lift x (idempotent modulo a nil ideal) to an exact idempotent."""
    bound = A.dim if radical_dim_bound is None else radical_dim_bound
    steps = int(np.ceil(np.log2(max(bound, 2)))) + 2
    e = np.asarray(x, dtype=np.int64)
    for _ in range(steps + 1):
        if A.is_idempotent(e):
            return e
        e2 = A.mul(e, e)
        e3 = A.mul(e2, e)
        e = A.sub(A.scale(3 % A.field.p, e2), A.scale(2 % A.field.p, e3))
    if not A.is_idempotent(e):
        raise AlgebraError("Newton lift failed (ideal not nil?)")
    return e


def _crt_idempotent(f, z, mp, factors, Q):
    """Proper idempotent in k[z] from a min poly with >= 2 coprime parts."""
    irr, mult = factors[0]
    g = (1,)
    for _ in range(mult):
        g = polys.mul(f, g, irr)
    h = polys.divmod_(f, mp, g)[0]
    # a*g + b*h = 1
    a, b = _poly_ext_gcd(f, g, h)
    e_poly = polys.mod(f, polys.mul(f, b, h), mp)
    acc = Q.zero()
    zp = Q.unit.copy()
    for c in e_poly:
        if c:
            acc = Q.add(acc, Q.scale(c, zp))
        zp = Q.mul(zp, z)
    return acc


def _poly_ext_gcd(f, g, h):
    r0, r1 = g, h
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = polys.divmod_(f, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, polys.sub(f, s0, polys.mul(f, q, s1))
        t0, t1 = t1, polys.sub(f, t0, polys.mul(f, q, t1))
    lead = f.inv(r0[-1])
    return polys.scale(f, s0, lead), polys.scale(f, t0, lead)


def _proper_idempotent_mod_radical(A, Q, rng):
    """Proper idempotent of the semisimple quotient Q, or NonSplitError
    after 64 + 8 dim Q draws."""
    f = A.field
    budget = 64 + 8 * Q.dim
    for _ in range(budget):
        z = Q.random_element(rng)
        mp = minimal_polynomial(Q, z)
        if polys.deg(mp) < 1:
            continue
        factors = polys.factor(f, mp, rng)
        if len(factors) >= 2:
            e = _crt_idempotent(f, z, mp, factors, Q)
            if not np.array_equal(e, Q.zero()) and \
                    not np.array_equal(e, Q.unit) and Q.is_idempotent(e):
                return e
        elif len(factors) == 1 and factors[0][1] == 1 and \
                polys.deg(factors[0][0]) == Q.dim and Q.dim > 1:
            raise NonSplitError(
                f"semisimple quotient is a field of degree {Q.dim} over k")
    raise NonSplitError(
        f"no proper idempotent found in {budget} draws (dim {Q.dim})")


def decompose_unit(A, rng):
    """Orthogonal primitive idempotents of A summing to 1, in A coords."""
    j_rows = radical_rows(A)
    if A.dim - j_rows.shape[0] == 1:
        return [A.unit.copy()]
    Q = quotient_algebra(A, j_rows)
    ebar = _proper_idempotent_mod_radical(A, Q, rng)
    e = idempotent_lift(A, Q.lift(ebar), j_rows.shape[0])
    if not np.any(e) or np.array_equal(e, A.unit):
        raise AlgebraError("lifted idempotent is not proper")
    out = []
    for idem in (e, A.sub(A.unit, e)):
        C = A.corner(idem, check=False)
        out.extend(C.to_parent(z) for z in decompose_unit(C, rng))
    return out


def primitive_decomposition(A, e, rng, verify=True, verify_primitive=False):
    """Refine the idempotent e into orthogonal primitives inside A.

    Orthogonality and the sum are always recheckable cheaply and are
    verified when `verify`; primitivity of each piece is guaranteed by
    the recursion's own corner-local test and is only re-derived from
    scratch under `verify_primitive`.
    """
    if not A.is_idempotent(e):
        raise AlgebraError("input is not idempotent")
    if not np.any(e):
        return []
    C = A.corner(e, check=False)
    parts = [C.to_parent(z) for z in decompose_unit(C, rng)]
    if verify and not _is_orthogonal_decomposition(A, parts, e):
        raise AlgebraError("pieces are not orthogonal idempotents summing "
                           "to e")
    if verify_primitive:
        for x in parts:
            if not is_primitive(A, x):
                raise AlgebraError("piece is not primitive")
    return parts


def _is_orthogonal_decomposition(A, parts, e):
    """Whether the parts are idempotents with pairwise products zero and
    sum e: the products of each part with all of them are one product."""
    f = A.field
    cols = np.array(parts, dtype=np.int64).reshape(len(parts), A.dim).T
    for a, x in enumerate(parts):
        want = np.zeros_like(cols)
        want[:, a] = x
        if not np.array_equal(linalg.matmul(f, A.lmul_matrix(x), cols), want):
            return False
    return np.array_equal(f.vec_sum(cols, axis=1), np.asarray(e))


def is_primitive(A, e):
    if not np.any(e) or not A.is_idempotent(e):
        return False
    C = A.corner(e, check=False)
    return C.dim - radical_rows(C).shape[0] == 1


def block_idempotents(A, rng):
    """Central primitive idempotents, via the centre."""
    from .algebra import class_sum_rows
    rows = class_sum_rows(A) if hasattr(A, "group") else A.center_rows()
    Z = A.subalgebra(linalg.rref(A.field, rows)[0])
    blocks = [Z.to_parent(e) for e in
              primitive_decomposition(Z, Z.unit, rng, verify=True)]
    return sorted(blocks, key=lambda v: v.tolist())


def corner_unit_inverse(A, i, w):
    """Inverse of w inside the corner i.A.i, or None.

    Uses that w is invertible in i.A.i iff w + (1 - i) is a unit of A.
    """
    shifted = A.add(w, A.sub(A.unit, i))
    m = A.lmul_matrix(shifted)
    z = linalg.solve(A.field, m, A.unit)
    if z is None:
        return None
    if not np.array_equal(A.mul(z, shifted), A.unit):
        return None
    return A.mul(A.mul(i, z), i)


def product_span_rows(A, left_rows, right_rows):
    """Rows spanning {l * r : l in span(left), r in span(right)}."""
    prods = []
    for a in range(left_rows.shape[0]):
        la = A.lmul_matrix(left_rows[a])
        prods.append(linalg.matmul(A.field, la, right_rows.T).T)
    if not prods:
        return linalg.zeros(0, A.dim)
    return linalg.rref(A.field, np.concatenate(prods, axis=0))[0]


def sandwich_rows(A, i, rows, j):
    """Rows spanning i.V.j for V given by rows."""
    f = A.field
    li = A.lmul_matrix(i)
    rj = A.rmul_matrix(j)
    out = linalg.matmul(f, li, linalg.matmul(f, rj, rows.T)).T
    return linalg.rref(f, out)[0]


def transpotent_pair(A, i, j, t_rows, s_rows):
    """Exact (s, t) with t.s = i and s.t = j, t in span(t_rows) and s in
    span(s_rows), assuming i, j primitive.  None if i is not in the span
    of the pairwise products t_a.s_b.
    """
    f = A.field
    if t_rows.shape[0] == 0 or s_rows.shape[0] == 0:
        return None
    prods = []
    pairs = []
    for a in range(t_rows.shape[0]):
        la = A.lmul_matrix(t_rows[a])
        block = linalg.matmul(f, la, s_rows.T)
        for b in range(s_rows.shape[0]):
            prods.append(block[:, b])
            pairs.append((a, b))
    coeffs = linalg.solve(f, np.array(prods).T, np.asarray(i))
    if coeffs is None:
        return None
    for idx, c in enumerate(coeffs):
        c = int(c)
        if c == 0:
            continue
        a, b = pairs[idx]
        t = t_rows[a]
        s0 = A.scale(c, s_rows[b])
        w = A.mul(t, s0)
        winv = corner_unit_inverse(A, i, w)
        if winv is None:
            continue
        s = A.mul(s0, winv)
        if np.array_equal(A.mul(t, s), np.asarray(i)) and \
                np.array_equal(A.mul(s, t), np.asarray(j)):
            return s, t
    return None


def are_associate(A, i, j):
    """Conjugacy test for primitive idempotents: i in (iAj).(jAi)."""
    if np.array_equal(np.asarray(i), np.asarray(j)):
        return True
    basis = A.basis_matrix()
    t_rows = sandwich_rows(A, i, basis, j)
    s_rows = sandwich_rows(A, j, basis, i)
    if t_rows.shape[0] == 0 or s_rows.shape[0] == 0:
        return False
    span = product_span_rows(A, t_rows, s_rows)
    return linalg.solve(A.field, span.T, np.asarray(i)) is not None
