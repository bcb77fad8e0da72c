import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from bflab import linalg
from bflab.gf import field


def test_rank_identity():
    f = field(2)
    assert linalg.rank(f, linalg.eye(f, 3)) == 3


def test_nullspace_of_zero_matrix():
    f = field(3)
    ns = linalg.nullspace(f, linalg.zeros(2, 2))
    assert ns.shape[0] == 2


def test_solve_back_substitution_gf2():
    f = field(2)
    m = linalg.mat([[1, 1], [0, 1]])
    x = linalg.solve(f, m, [0, 1])
    assert list(x) == [1, 1]


def test_solve_inconsistent():
    f = field(2)
    m = linalg.mat([[1, 0], [1, 0]])
    assert linalg.solve(f, m, [1, 0]) is None


def test_rank_nullity_random():
    rng = np.random.default_rng(5)
    for f in (field(2, 2), field(3)):
        for _ in range(60):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = f.random_elements(rng, (rows, cols))
            assert linalg.rank(f, m) + \
                linalg.nullspace(f, m).shape[0] == cols
            ns = linalg.nullspace(f, m)
            for t in range(ns.shape[0]):
                assert not linalg.matvec(f, m, ns[t]).any()


def test_matmul_assoc_random():
    f = field(2, 2)
    rng = np.random.default_rng(9)
    for _ in range(30):
        a = f.random_elements(rng, (3, 4))
        b = f.random_elements(rng, (4, 2))
        c = f.random_elements(rng, (2, 5))
        lhs = linalg.matmul(f, linalg.matmul(f, a, b), c)
        rhs = linalg.matmul(f, a, linalg.matmul(f, b, c))
        assert np.array_equal(lhs, rhs)


def test_inverse_round_trip():
    f = field(3, 2)
    rng = np.random.default_rng(3)
    found = 0
    while found < 20:
        m = f.random_elements(rng, (4, 4))
        inv = linalg.inverse(f, m)
        if inv is None:
            continue
        found += 1
        assert np.array_equal(linalg.matmul(f, m, inv), linalg.eye(f, 4))


def test_subspace_sum_intersect_same():
    f = field(2)
    u = linalg.Subspace(f, 3, linalg.mat([[1, 0, 0], [0, 1, 0]]))
    assert u.sum(u) == u
    assert u.intersect(u) == u


def test_subspace_axes():
    f = field(3)
    e1 = linalg.Subspace(f, 2, linalg.mat([[1, 0]]))
    e2 = linalg.Subspace(f, 2, linalg.mat([[0, 1]]))
    assert e1.sum(e2).dim == 2
    assert e1.intersect(e2).dim == 0


def test_span_diagonal_does_not_contain_axis():
    f = field(5)
    d = linalg.Subspace(f, 2, linalg.mat([[1, 1]]))
    assert not d.contains(np.array([1, 0]))
    assert d.contains(np.array([2, 2]))


def test_intersect_random_consistency():
    f = field(2, 2)
    rng = np.random.default_rng(12)
    for _ in range(40):
        u = linalg.Subspace(f, 5, f.random_elements(rng, (2, 5)))
        v = linalg.Subspace(f, 5, f.random_elements(rng, (3, 5)))
        w = u.intersect(v)
        assert u.dim + v.dim == u.sum(v).dim + w.dim
        for t in range(w.dim):
            assert u.contains(w.basis[t]) and v.contains(w.basis[t])


@st.composite
def subspace_and_vector(draw):
    """A subspace of GF(q)^n (zero, full, or spanned by random rows) and
    a vector that is a member or arbitrary."""
    f = field(*draw(st.sampled_from([(2, 1), (2, 2), (3, 2)])))
    n = draw(st.integers(1, 6))
    codes = st.integers(0, f.q - 1)
    rows = draw(arrays(np.int64, (draw(st.integers(1, n + 1)), n),
                       elements=codes))
    kind = draw(st.sampled_from(["zero", "full", "rows"]))
    if kind == "zero":
        rows = linalg.zeros(0, n)
    elif kind == "full":
        rows = np.concatenate([rows, linalg.eye(f, n)], axis=0)
    if draw(st.booleans()) and rows.shape[0]:
        coeffs = draw(arrays(np.int64, rows.shape[0], elements=codes))
        v = linalg.vecmat(f, coeffs, rows)
    else:
        v = draw(arrays(np.int64, n, elements=codes))
    return f, n, rows, v


@given(subspace_and_vector())
def test_subspace_reduce_matches_solve(case):
    f, n, rows, v = case
    S = linalg.Subspace(f, n, rows)
    assert S.pivots == (linalg.rref(f, S.basis)[1] if S.dim else [])
    if S.dim:
        ref = linalg.solve(f, S.basis.T, v)
    else:
        ref = linalg.zeros(1, 0)[0] if not np.any(v) else None
    got = S.reduce(v)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert np.array_equal(got, ref)
    assert S.contains(v) == (ref is not None)
    if linalg.rank(f, rows) == n:
        assert got is not None
