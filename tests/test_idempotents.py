import numpy as np
import pytest

from bflab.algebra import AlgebraError, group_algebra
from bflab.gf import field, make_field
from bflab.groups import group_from_generators
from bflab.idempotents import (are_associate, block_idempotents,
                               corner_unit_inverse, idempotent_lift,
                               is_primitive, minimal_polynomial,
                               primitive_decomposition, quotient_algebra,
                               transpotent_pair)
from bflab.radical import radical_rows


def rng():
    return np.random.default_rng(77)


C2 = group_from_generators(2, [(1, 0)], "C2")
C3 = group_from_generators(3, [(1, 2, 0)], "C3")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")


def test_trivial_algebra_primitive():
    A = group_algebra(group_from_generators(1, [], "1"), field(2))
    assert is_primitive(A, A.unit)
    assert primitive_decomposition(A, A.unit, rng()) == [A.unit]


def test_kc2_char3_splits_into_eigenprojections():
    A = group_algebra(C2, field(3))
    parts = primitive_decomposition(A, A.unit, rng(), verify_primitive=True)
    assert len(parts) == 2
    expected = {(2, 2), (2, 1)}     # (1 +- g) / 2
    assert {tuple(int(c) for c in x) for x in parts} == expected


def test_kc2_char2_is_local():
    A = group_algebra(C2, field(2))
    assert is_primitive(A, A.unit)
    parts = primitive_decomposition(A, A.unit, rng())
    assert len(parts) == 1 and np.array_equal(parts[0], A.unit)


def test_is_primitive_in_k_times_k():
    A = group_algebra(C2, field(3))
    assert not is_primitive(A, A.unit)


def test_minimal_polynomial():
    A = group_algebra(C3, field(3))
    g = A.basis_vector(A.element_index[(1, 2, 0)])
    mp = minimal_polynomial(A, g)
    # g^3 = 1 and (x-1)^3 = x^3 - 1 over GF(3)
    assert mp == (2, 0, 0, 1)
    assert minimal_polynomial(A, A.zero()) == (0, 1)
    assert minimal_polynomial(A, A.unit) == (2, 1)


def test_idempotent_lift_newton():
    A = group_algebra(C3, field(3))
    # 1 is idempotent mod J (J = augmentation ideal); any unit-congruent
    # lift converges back to an exact idempotent
    x = A.unit.copy()
    x = A.add(x, A.basis_vector(1))       # 1 + (g - ... ) noise inside J?
    x[1] = 1
    x[2] = 2                              # 1 + g + 2g^2 = 1 mod J
    e = idempotent_lift(A, x)
    assert A.is_idempotent(e)


def test_block_idempotents_examples():
    A = group_algebra(C3, field(3))
    assert len(block_idempotents(A, rng())) == 1
    A = group_algebra(S3, make_field(3, 2))
    assert len(block_idempotents(A, rng())) == 1
    A = group_algebra(S3, make_field(2, 3))
    blocks = block_idempotents(A, rng())
    assert len(blocks) == 2
    dims = sorted(A.corner(b).dim for b in blocks)
    assert dims == [2, 4]
    total = A.zero()
    for b in blocks:
        assert A.is_idempotent(b)
        for j in range(A.dim):
            v = A.basis_vector(j)
            assert np.array_equal(A.mul(b, v), A.mul(v, b)), "not central"
        total = A.add(total, b)
    assert np.array_equal(total, A.unit)
    b0, b1 = blocks
    assert not np.any(A.mul(b0, b1))


def test_block_dims_sum_catalog():
    for G, p in ((S3, 2), (S3, 3), (A4, 2), (A4, 3)):
        e = G.exponent()
        while e % p == 0:
            e //= p
        A = group_algebra(G, make_field(p, e))
        blocks = block_idempotents(A, rng())
        assert sum(A.corner(b).dim for b in blocks) == G.order


def test_quotient_algebra_semisimple_quotient():
    A = group_algebra(S3, make_field(3, 2))
    Q = quotient_algebra(A, radical_rows(A))
    assert Q.dim == 2
    assert radical_rows(Q).shape[0] == 0
    # class coordinates do not depend on the basis of the ideal, and
    # dependent ideal rows are refused
    J = radical_rows(A)
    mixed = quotient_algebra(A, J[::-1])
    assert np.array_equal(mixed.mult_tensor, Q.mult_tensor)
    v = A.random_element(rng())
    assert np.array_equal(mixed.proj(v), Q.proj(v))
    with pytest.raises(AlgebraError):
        quotient_algebra(A, np.concatenate([J, J[:1]]))


def test_associates_in_matrix_block():
    # the defect-zero block of kS3 char 2 is 2x2 matrices: its two
    # diagonal idempotents are associate
    A = group_algebra(S3, make_field(2, 3))
    blocks = block_idempotents(A, rng())
    m2 = [b for b in blocks if A.corner(b).dim == 4][0]
    C = A.corner(m2)
    parts = primitive_decomposition(C, C.unit, rng(), verify_primitive=True)
    assert len(parts) == 2
    assert are_associate(C, parts[0], parts[1])
    pair = transpotent_pair(
        C, parts[0], parts[1],
        _sandwich(C, parts[0], parts[1]), _sandwich(C, parts[1], parts[0]))
    s, t = pair
    assert np.array_equal(C.mul(t, s), parts[0])
    assert np.array_equal(C.mul(s, t), parts[1])


def _sandwich(C, i, j):
    from bflab.idempotents import sandwich_rows
    return sandwich_rows(C, i, C.basis_matrix(), j)


def test_non_associates_in_k_times_k():
    A = group_algebra(C2, field(3))
    parts = primitive_decomposition(A, A.unit, rng())
    assert not are_associate(A, parts[0], parts[1])


def _associate_by_span_oracle(A, i, j):
    """are_associate through the RREF of the product span (iAj).(jAi)."""
    from bflab import linalg
    from bflab.idempotents import sandwich_rows
    if np.array_equal(i, j):
        return True
    t_rows = _sandwich(A, i, j)
    s_rows = _sandwich(A, j, i)
    if t_rows.shape[0] == 0 or s_rows.shape[0] == 0:
        return False
    prods = [linalg.matmul(A.field, A.lmul_matrix(t), s_rows.T).T
             for t in t_rows]
    span = linalg.rref(A.field, np.concatenate(prods, axis=0))[0]
    return linalg.solve(A.field, span.T, i) is not None


@pytest.mark.parametrize("G,p,m", [(S3, 2, 1), (S3, 2, 2), (A4, 3, 1),
                                   (A4, 3, 2)])
def test_are_associate_matches_product_span_oracle(G, p, m):
    # kS3 in characteristic 2 and kA4 in characteristic 3 each have a
    # split matrix block (associate primitives) beside a principal block
    A = group_algebra(G, field(p, m))
    parts = primitive_decomposition(A, A.unit, rng(), verify_primitive=True)
    seen = set()
    for a, x in enumerate(parts):
        for b, y in enumerate(parts):
            got = are_associate(A, x, y)
            assert got == _associate_by_span_oracle(A, x, y)
            if a != b:
                seen.add(got)
    assert seen == {True, False}


def test_corner_unit_inverse():
    A = group_algebra(S3, make_field(2, 3))
    blocks = block_idempotents(A, rng())
    m2 = [b for b in blocks if A.corner(b).dim == 4][0]
    # m2 itself is the corner unit: inverse of m2 inside m2.A.m2 is m2
    w = corner_unit_inverse(A, m2, m2)
    assert np.array_equal(w, m2)
    # nilpotents have no corner inverse: 1 + g in kC2 over GF(2)
    A2 = group_algebra(C2, field(2))
    assert corner_unit_inverse(A2, A2.unit, np.array([1, 1])) is None


def test_orthogonal_decomposition_check_matches_pairwise_oracle():
    # one product per part against the pairwise loop it replaced, on a
    # decomposition of 1 in kS3 and kA4 and on tampered lists
    from bflab.idempotents import _is_orthogonal_decomposition

    def oracle(A, parts, e):
        if not all(A.is_idempotent(x) for x in parts):
            return False
        if not np.array_equal(A.field.vec_sum(np.array(parts), axis=0), e):
            return False
        return not any(np.any(A.mul(x, y)) for a, x in enumerate(parts)
                       for b, y in enumerate(parts) if a != b)

    r = rng()
    for G, p, e in ((S3, 3, 2), (A4, 2, 3), (S3, 2, 3)):
        A = group_algebra(G, make_field(p, e))
        parts = primitive_decomposition(A, A.unit, r)
        assert len(parts) > 1
        cases = [(parts, A.unit), (parts[1:], A.unit),
                 (parts[1:], A.sub(A.unit, parts[0])),
                 ([A.add(parts[0], parts[1])] + parts[2:], A.unit),
                 (parts + [A.zero()], A.unit),
                 ([A.mul(parts[0], A.random_element(r))] + parts[1:],
                  A.unit)]
        cases += [([A.random_element(r) for _ in range(3)], A.unit)
                  for _ in range(4)]
        want = [True, False, True, True, True, False] + [False] * 4
        for (ps, e), w in zip(cases, want):
            assert _is_orthogonal_decomposition(A, ps, e) == \
                oracle(A, ps, e) == w
