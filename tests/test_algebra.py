import numpy as np
import pytest

from bflab import linalg
from bflab.algebra import (AlgebraContext, AlgebraError, group_algebra,
                           group_conjugation_perm, group_element_vector)
from bflab.gf import field, make_field
from bflab.groups import group_from_generators, pinv, pmul
from bflab.interior import InteriorAlgebra


def C2():
    return group_from_generators(2, [(1, 0)], "C2")


def S3():
    return group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")


def test_group_algebra_dims():
    assert group_algebra(C2(), field(2)).dim == 2
    assert group_algebra(S3(), field(3)).dim == 6
    assert group_algebra(group_from_generators(1, [], "1"), field(2)).dim == 1


def test_group_algebra_multiplication():
    G = C2()
    A = group_algebra(G, field(2))
    g = group_element_vector(A, (1, 0))
    assert np.array_equal(A.mul(g, g), A.unit)


def test_units_in_group_algebra():
    G = S3()
    A = group_algebra(G, make_field(3, 2))
    for h in G.elements:
        v = group_element_vector(A, h)
        assert A.is_unit(v)
        w = A.inv(v)
        assert np.array_equal(A.mul(v, w), A.unit)


def test_one_plus_g_is_never_a_unit_in_kc2():
    # char 2: (1+g)^2 = 0; char 3: 1+g maps to (2, 0) under kC2 = k x k,
    # so its left-multiplication matrix [[1,1],[1,1]] is singular
    G = C2()
    for f in (field(2), field(3)):
        A = group_algebra(G, f)
        assert not A.is_unit(np.array([1, 1]))
    # the units of kC2 over GF(3) are the scalar multiples of 1 and g
    A3 = group_algebra(G, field(3))
    units = [v for a in range(3) for b in range(3)
             if A3.is_unit(v := np.array([a, b]))]
    assert sorted(map(tuple, units)) == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_corner_of_unit_is_everything():
    A = group_algebra(S3(), field(3))
    C = A.corner(A.unit)
    assert C.dim == A.dim


def test_corner_of_k_times_k():
    # kC2 over GF(3) = k x k; corner at one primitive idempotent is k
    A = group_algebra(C2(), field(3))
    e = np.array([2, 2])            # (1+g)/2 = 2 + 2g
    assert np.array_equal(A.mul(e, e), e)
    C = A.corner(e)
    assert C.dim == 1


def test_center_of_group_algebra_is_class_sums():
    A = group_algebra(S3(), field(2, 2))
    Z = A.subalgebra(A.center_rows())
    assert Z.dim == 3               # three conjugacy classes
    for i in range(Z.dim):
        z = Z.to_parent(Z.basis_vector(i))
        for j in range(A.dim):
            b = A.basis_vector(j)
            assert np.array_equal(A.mul(z, b), A.mul(b, z))


def group_conjugation_matrix(A, g):
    """Reference: basis permutation matrix of x -> g x g^-1 on a group
    algebra."""
    n = A.dim
    gi = pinv(g)
    m = linalg.zeros(n, n)
    for j, h in enumerate(A.labels):
        m[A.element_index[pmul(pmul(g, h), gi)], j] = 1
    return m


def test_conjugation_matrix():
    G = S3()
    A = group_algebra(G, field(3))
    g = (1, 2, 0)
    m = group_conjugation_matrix(A, g)
    for h in G.elements:
        v = group_element_vector(A, h)
        out = linalg.matvec(A.field, m, v)
        expect = group_element_vector(
            A, pmul(pmul(g, h), (2, 0, 1)))
        assert np.array_equal(out, expect)


def test_conjugation_gather_matches_matrix():
    G = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4")
    A = group_algebra(G, make_field(3, 2))
    v = A.random_element(np.random.default_rng(4))
    for g in G.elements:
        expect = linalg.matvec(A.field, group_conjugation_matrix(A, g), v)
        assert np.array_equal(v[group_conjugation_perm(A, g)], expect)


def test_identity_subalgebras_share_the_group_tables():
    G = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4")
    A = group_algebra(G, make_field(2, 1))
    D = G.subgroup([G.identity])
    subs = [A.corner(A.unit), InteriorAlgebra(A, D).fixed_subalgebra(D)]
    subs.append(subs[0].corner(subs[0].unit))
    rng = np.random.default_rng(8)
    for C in subs:
        assert C.mult_tensor is None and C._ltable is A._ltable
        assert np.array_equal(C.unit, A.unit)
        # an identity corner keeps A's coordinates, with no embedding to
        # multiply by
        for _ in range(5):
            x, y = A.random_element(rng), A.random_element(rng)
            assert np.array_equal(C.mul(x, y), A.mul(x, y))
            assert C.to_parent(x) is x and C.from_parent(x) is x
    # a proper corner stays dense: e = 1 + c + c^2 for a 3-cycle c
    c = (1, 2, 0, 3)
    e = sum(group_element_vector(A, h) for h in (G.identity, c, pmul(c, c)))
    C = A.corner(e)
    assert C.dim < A.dim and C.mult_tensor is not None and C._ltable is None
    # and the whole of a dense algebra shares its tensor
    assert C.corner(C.unit).mult_tensor is C.mult_tensor


def tensor_lmul(f, tensor, x):
    """L with L @ y = x * y, summed from the tensor entry by entry."""
    return f.vec_sum(f.mul(x[:, None, None], tensor), axis=0).T


@pytest.mark.parametrize("p,m", [(2, 2), (3, 4), (5, 1)])
def test_structure_tensor_matches_the_per_slice_fill(p, m):
    # the oracle fills slice i with the coordinates of L(rows[i]) @ rows.T,
    # one product per slice
    f = field(p, m)
    A = group_algebra(group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)],
                                            "S4"), f)
    rng = np.random.default_rng(12)
    rows = f.random_elements(rng, (A.dim, A.dim))
    while linalg.rank(f, rows) < A.dim:
        rows = f.random_elements(rng, (A.dim, A.dim))
    B = A.subalgebra(rows)              # kS4 on a random basis: dense
    for parent, sub in ((A, rows), (B, B.center_rows())):
        coords = linalg.Coordinates(f, sub)
        tensor = linalg.structure_tensor(f, parent.lmul_matrix, sub, coords)
        # C-contiguous, so a subalgebra's lmul_matrix reshapes it in place
        assert tensor.flags.c_contiguous
        # distinct left and right rows fill the matching block
        assert np.array_equal(linalg.structure_tensor(
            f, parent.lmul_matrix, sub[:2], coords, right=sub[1:]),
            tensor[:2, 1:])
        lmats = parent.lmul_matrix(sub)
        for i, x in enumerate(sub):
            want = parent.lmul_matrix(x) if parent.mult_tensor is None \
                else tensor_lmul(f, parent.mult_tensor, x)
            assert np.array_equal(lmats[i], want)
            assert np.array_equal(
                tensor[i], coords(linalg.matmul(f, want, sub.T)).T)
    y = B.random_element(rng)
    want = f.vec_sum(f.mul(y[None, :, None], B.mult_tensor), axis=1).T
    assert np.array_equal(B.rmul_matrix(y), want)


def test_raw_context_associativity_check():
    f = field(2)
    # 1, a, b with a.a = b, a.b = 1, b.a = 0, b.b = 0:
    # (a.a).b = 0 while a.(a.b) = a, so the table must be rejected
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        tensor[0, i, i] = 1
        tensor[i, 0, i] = 1
    tensor[1, 1, 2] = 1
    tensor[1, 2, 0] = 1
    with pytest.raises(Exception):
        AlgebraContext(f, 3, mult_tensor=tensor,
                       unit=np.array([1, 0, 0]), check=True)


def test_unit_check_rejects_one_sided_identity():
    # b_i * b_j = b_j: every basis vector is a left identity, none a right one
    f = field(3)
    tensor = np.zeros((2, 2, 2), dtype=np.int64)
    tensor[:, 0, 0] = 1
    tensor[:, 1, 1] = 1
    with pytest.raises(AlgebraError):
        AlgebraContext(f, 2, mult_tensor=tensor, unit=np.array([1, 0]))
    with pytest.raises(AlgebraError):
        AlgebraContext(f, 2, mult_tensor=tensor.transpose(1, 0, 2),
                       unit=np.array([1, 0]))


def test_subalgebra_closure_rejects_non_closed_span():
    A = group_algebra(S3(), field(3))
    rows = np.zeros((2, 6), dtype=np.int64)
    rows[0][0] = 1                      # identity
    rows[1][A.element_index[(1, 2, 0)]] = 1
    rows[1][A.element_index[(1, 0, 2)]] = 1   # not closed under product
    with pytest.raises(Exception):
        A.subalgebra(rows)
