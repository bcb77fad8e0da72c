"""Primitive idempotent decompositions and associate tests.

`decompose_unit` needs no radical (the Fitting split of Eberly and
Giesbrecht, J. Symbolic Comput. 29, 2000; Ivanyos, ISSAC 2000): the r
coprime factors of a random element's minimal polynomial give r exact
orthogonal idempotents of k[z], and it recurses on their corners until
every corner is 1-dim or certified local with A/J(A) = k by
`radical.local_radical`, which makes its unit primitive.  No known
corner is rebuilt: a part whose corner has rank 1 is primitive and gets
no subalgebra, and `primitive_decomposition` of the unit decomposes A
itself.  Neither shortcut draws from the rng, so the draws are the same.
The Cohen-Ivanyos-Wales chain behind `radical_rows` is the oracle: it
answers `is_primitive` and the tests, and `quotient_algebra` (A/J(A)
and other quotients) serves the tests only.

`transpotent_pair` solves the existential problem behind idempotent
conjugacy: given i = sum of products t_a.s_b with i primitive, locality
of i.A.i forces one summand to be invertible in the corner, and that
summand is massaged into an exact pair (s, t) with t.s = i, s.t = j.
`are_associate` asks the same solve only whether a solution exists, on
the rows of i.A.j and j.A.i read off L_i.R_j and L_j.R_i.
"""

import numpy as np

from . import linalg, polys
from .algebra import AlgebraContext, AlgebraError, class_sum_rows
from .radical import local_radical, radical_rows


class NonSplitError(RuntimeError):
    """The working field is too small to split a corner; extend and retry."""


def minimal_polynomial(A, x):
    """(mp, powers): the monic minimal polynomial of x as an element of A,
    and the rows 1, x, ..., x^(deg mp - 1).

    The powers come from one left multiplication matrix, a doubling run
    at a time; the first power in the span of the earlier ones is the
    first non-pivot column of their RREF, which holds its coefficients.
    """
    f = A.field
    left = A.lmul_matrix(x)
    powers = [A.unit.copy()]
    size = 2
    while True:
        while len(powers) < min(size, A.dim + 1):
            powers.append(linalg.matvec(f, left, powers[-1]))
        r, pivots = linalg.rref(f, np.array(powers).T)
        d = len(pivots)
        if d < len(powers):
            mp = tuple(int(c) for c in f.neg(r[:d, d])) + (1,)
            return mp, np.array(powers[:d])
        size *= 2


def quotient_algebra(A, ideal_rows):
    """A / ideal as an AlgebraContext, with the class map as `proj`.

    The classes are `linalg.Quotient`'s, over the standard basis vectors
    at its `rest` columns, so the quotient basis is canonical.  The ideal
    rows must be independent.
    """
    f = A.field
    ideal_rows = np.asarray(ideal_rows, dtype=np.int64)
    if ideal_rows.size == 0:
        ideal_rows = linalg.zeros(0, A.dim)
    proj = linalg.Quotient(f, ideal_rows, error=AlgebraError)
    reps = linalg.eye(f, A.dim)[proj.rest]
    tensor = linalg.structure_tensor(f, A.lmul_matrix, reps,
                                     lambda vs, check: proj(vs), check=False)
    Q = AlgebraContext(f, reps.shape[0], mult_tensor=tensor,
                       unit=proj(A.unit), check=False)
    Q._check_unit()
    Q.proj = proj
    return Q


def _crt_idempotents(A, mp, factors, powers):
    """The CRT idempotents of k[z] = k[t]/(mp) at the r >= 2 coprime
    factors g_i = irr_i^mult_i of mp, in A coordinates from the powers
    1, z, ..., z^(deg mp - 1): e_i = 1 mod g_i and 0 mod every other g_j,
    the last one as 1 minus the others."""
    f = A.field
    coeffs = linalg.zeros(len(factors) - 1, len(powers))
    for i, (irr, mult) in enumerate(factors[:-1]):
        g = (1,)
        for _ in range(mult):
            g = polys.mul(f, g, irr)
        h = polys.divmod_(f, mp, g)[0]
        # a*g + b*h = 1, so b*h is 1 mod g and 0 mod h
        b = _poly_ext_gcd(f, g, h)[1]
        e_poly = polys.mod(f, polys.mul(f, b, h), mp)
        coeffs[i, :len(e_poly)] = e_poly
    parts = list(linalg.matmul(f, coeffs, powers))
    parts.append(A.sub(A.unit, f.vec_sum(np.array(parts), axis=0)))
    return parts


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


def decompose_unit(A, rng):
    """Orthogonal primitive idempotents of A summing to 1, in A coords.

    A is its own piece when it is 1-dim or a local character certifies
    A/J(A) = k.  Otherwise a random z whose minimal polynomial has r >= 2
    coprime factors splits 1 into the r CRT idempotents of k[z], and
    each corner is decomposed in turn.  NonSplitError is certified: A is
    the field k[z] of degree dim A > 1, or no draw of the budget split A.
    """
    if A.dim == 1 or local_radical(A) is not None:
        return [A.unit.copy()]
    f = A.field
    budget = 64 + 8 * A.dim
    for _ in range(budget):
        z = A.random_element(rng)
        mp, powers = minimal_polynomial(A, z)
        factors = polys.factor(f, mp, rng)
        if len(factors) >= 2:
            break
        if factors[0][1] == 1 and polys.deg(mp) == A.dim:
            raise NonSplitError(
                f"the algebra is a field of degree {A.dim} over k")
    else:
        raise NonSplitError(
            f"no split of a dim-{A.dim} algebra in its budget of "
            f"64 + 8 dim = {budget} draws")
    parts = _crt_idempotents(A, mp, factors, powers)
    if not _is_orthogonal_decomposition(A, parts, A.unit):
        raise AlgebraError("CRT idempotents are not orthogonal idempotents "
                           "summing to 1")
    out = []
    for e in parts:
        rows = A.corner_rows(e)
        if rows.shape[0] == 1:
            # a 1-dim corner: e is primitive, with no corner to build
            out.append(e)
            continue
        C = A.subalgebra(rows, unit=e, check=False)
        out.extend(C.to_parent(z) for z in decompose_unit(C, rng))
    return out


def primitive_decomposition(A, e, rng):
    """Refine the idempotent e into orthogonal primitives inside A.

    The corner at the unit is A itself; any other e is checked idempotent
    by the corner's own L_e.  Orthogonality and the sum are rechecked
    cheaply on every call; primitivity of each piece is guaranteed by the
    recursion's own corner-local test (`is_primitive` re-derives it in
    the tests).
    """
    if np.array_equal(e, A.unit):
        parts = decompose_unit(A, rng)
    elif not np.any(e):
        return []
    else:
        C = A.corner(e, check=False)
        parts = [C.to_parent(z) for z in decompose_unit(C, rng)]
    if not _is_orthogonal_decomposition(A, parts, e):
        raise AlgebraError("pieces are not orthogonal idempotents summing "
                           "to e")
    return parts


def _is_orthogonal_decomposition(A, parts, e):
    """Whether the parts are idempotents with pairwise products zero and
    sum the idempotent e: the products of each part with all of them are
    one product, and a single part must be e itself."""
    f = A.field
    if len(parts) == 1:
        return np.array_equal(parts[0], e)
    cols = np.array(parts, dtype=np.int64).reshape(len(parts), A.dim).T
    for a, x in enumerate(parts):
        want = np.zeros_like(cols)
        want[:, a] = x
        if not np.array_equal(linalg.matmul(f, A.lmul_matrix(x), cols), want):
            return False
    return np.array_equal(f.vec_sum(cols, axis=1), np.asarray(e))


def is_primitive(A, e):
    if not np.any(e):
        return False
    try:
        C = A.corner(e, check=False)
    except AlgebraError:            # e is not idempotent
        return False
    return C.dim - radical_rows(C).shape[0] == 1


def block_idempotents(A, rng):
    """Central primitive idempotents of a group algebra A, via its
    centre, which the class sums span."""
    Z = A.subalgebra(linalg.rref(A.field, class_sum_rows(A))[0])
    blocks = [Z.to_parent(e) for e in
              primitive_decomposition(Z, Z.unit, rng)]
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


def sandwich_rows(A, i, rows, j):
    """RREF rows spanning i.V.j for V given by rows, or i.A.j for rows
    None: the columns of L_i.R_j, with no product by the identity."""
    f = A.field
    right = A.rmul_matrix(j)
    if rows is not None:
        right = linalg.matmul(f, right, rows.T)
    return linalg.rref(f, linalg.matmul(f, A.lmul_matrix(i), right).T)[0]


def _product_coefficients(A, i, t_rows, s_rows):
    """Coefficients c with i = sum c[a.|s| + b] t_a.s_b (a-major), or
    None when i is not in the span of the pairwise products."""
    if t_rows.shape[0] == 0 or s_rows.shape[0] == 0:
        return None
    f = A.field
    # products[a] is the matrix whose column b is t_a.s_b
    products = f.matmul(A.lmul_matrix(t_rows), s_rows.T)
    cols = products.transpose(1, 0, 2).reshape(A.dim, -1)
    return linalg.solve(f, cols, np.asarray(i))


def transpotent_pair(A, i, j, t_rows, s_rows):
    """Exact (s, t) with t.s = i and s.t = j, t in span(t_rows) and s in
    span(s_rows), assuming i, j primitive.  None if i is not in the span
    of the pairwise products t_a.s_b.
    """
    coeffs = _product_coefficients(A, i, t_rows, s_rows)
    if coeffs is None:
        return None
    for idx, c in enumerate(coeffs):
        c = int(c)
        if c == 0:
            continue
        a, b = divmod(idx, s_rows.shape[0])
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
    return _product_coefficients(A, i, sandwich_rows(A, i, None, j),
                                 sandwich_rows(A, j, None, i)) is not None
