import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from bflab import linalg
from bflab.gf import field


def rref_oracle(f, m):
    """Plain Gauss-Jordan over whole rows, every pivot scaled and every
    row updated: the reference for `linalg.rref`."""
    m = np.array(m, dtype=np.int64)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = f.mul(m[r], f.inv(int(m[r, c])))
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = f.sub(m[hit], f.mul(col[hit, None], m[r][None, :]))
        pivots.append(c)
        r += 1
    return m[:r], pivots


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


def test_subspace_sum_same():
    f = field(2)
    u = linalg.Subspace(f, 3, linalg.mat([[1, 0, 0], [0, 1, 0]]))
    assert u.sum(u) == u


def test_subspace_axes():
    f = field(3)
    e1 = linalg.Subspace(f, 2, linalg.mat([[1, 0]]))
    e2 = linalg.Subspace(f, 2, linalg.mat([[0, 1]]))
    assert e1.sum(e2).dim == 2


def test_span_diagonal_does_not_contain_axis():
    f = field(5)
    d = linalg.Subspace(f, 2, linalg.mat([[1, 1]]))
    assert not d.contains(np.array([1, 0]))
    assert d.contains(np.array([2, 2]))


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


RREF_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (3, 4)]
FROM_REDUCED = ["reduced", "leading entry", "above a pivot", "zero row",
               "repeated row", "rows out of order"]


@st.composite
def rref_inputs(draw, kind):
    """Random, rank-deficient and reduced matrices, and reduced ones with
    one defect: a leading entry other than 1, a nonzero above a pivot, a
    zero row (in the middle or last), a repeated row or two rows
    swapped."""
    f = field(*draw(st.sampled_from(RREF_FIELDS)))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    codes = st.integers(0, f.q - 1)
    m = draw(arrays(np.int64, (rows, cols), elements=codes))
    if kind == "rank-deficient":
        k = draw(st.integers(0, min(rows, cols) - 1))
        left = draw(arrays(np.int64, (rows, k), elements=codes))
        right = draw(arrays(np.int64, (k, cols), elements=codes))
        m = linalg.matmul(f, left, right) if k else linalg.zeros(rows, cols)
    elif kind in FROM_REDUCED:
        m, pivots = rref_oracle(f, m)
        r = m.shape[0]
        if r == 0:
            return f, m
        i = draw(st.integers(0, r - 1))
        if kind == "leading entry" and f.q > 2:
            m[i] = f.mul(m[i], draw(st.integers(2, f.q - 1)))
        elif kind == "above a pivot" and i > 0:
            m[draw(st.integers(0, i - 1)), pivots[i]] = \
                draw(st.integers(1, f.q - 1))
        elif kind == "zero row":
            m = np.insert(m, draw(st.integers(1, r)), 0, axis=0)
        elif kind == "repeated row":
            m = np.insert(m, draw(st.integers(0, r)), m[i], axis=0)
        elif kind == "rows out of order" and i > 0:
            m[[0, i]] = m[[i, 0]]
    return f, m


@pytest.mark.parametrize("kind", ["random", "rank-deficient"] + FROM_REDUCED)
@given(data=st.data())
def test_rref_matches_oracle(kind, data):
    f, m = data.draw(rref_inputs(kind))
    before = m.copy()
    got, pivots = linalg.rref(f, m)
    want, want_pivots = rref_oracle(f, m)
    assert pivots == want_pivots
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(m, before)            # the input is not touched
    if got.size:
        assert not np.shares_memory(got, m)


@pytest.mark.parametrize("shape,reduced", [((0, 4), (0, 4)), ((4, 0), (0, 0)),
                                           ((0, 0), (0, 0))])
def test_rref_of_empty_shapes(shape, reduced):
    # an (n, 0) matrix has n zero rows, all dropped
    f = field(3)
    for rref in (linalg.rref, rref_oracle):
        got, pivots = rref(f, linalg.zeros(*shape))
        assert got.shape == reduced and pivots == []


@st.composite
def full_rank_rows(draw):
    """A field and an r x n matrix of full row rank, 0 <= r <= n: random
    columns, except that r of them hold L.U with L unit lower and U upper
    triangular with a nonzero diagonal."""
    f = field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    codes = st.integers(0, f.q - 1)
    rows = draw(arrays(np.int64, (r, n), elements=codes))
    if r:
        low = np.tril(draw(arrays(np.int64, (r, r), elements=codes)), -1)
        up = np.triu(draw(arrays(np.int64, (r, r), elements=codes)), 1)
        np.fill_diagonal(low, 1)
        np.fill_diagonal(up, draw(arrays(np.int64, r,
                                         elements=st.integers(1, f.q - 1))))
        cols = draw(st.permutations(range(n)))[:r]
        rows[:, cols] = linalg.matmul(f, low, up)
    return f, rows


@given(full_rank_rows(), st.data())
def test_coordinates_match_solve(case, data):
    f, rows = case
    r, n = rows.shape
    coords = linalg.Coordinates(f, rows)
    codes = st.integers(0, f.q - 1)
    # coordinates of random combinations come back, in one call per matrix
    k = data.draw(st.integers(1, 4))
    combos = data.draw(arrays(np.int64, (k, r), elements=codes))
    vs = linalg.matmul(f, combos, rows).T if r else linalg.zeros(n, k)
    for check in (True, False):
        assert np.array_equal(coords(vs, check), combos.T)
    mod = data.draw(st.integers(0, r))
    assert np.array_equal(linalg.Coordinates(f, rows, mod=mod)(vs),
                          combos.T[mod:])
    # one vector against the exact reference: outside the span, a
    # checked call raises
    v = data.draw(arrays(np.int64, n, elements=codes))
    ref = linalg.solve(f, rows.T, v) if r else \
        (None if v.any() else linalg.zeros(1, 0)[0])
    if ref is None:
        with pytest.raises(ValueError):
            coords(v)
        with pytest.raises(Refused):
            linalg.Coordinates(f, rows, error=Refused)(v)
    else:
        assert np.array_equal(coords(v), ref)


class Refused(Exception):
    pass


def test_coordinates_reject_dependent_rows():
    # dependent rows raise the caller's error, square or not
    f = field(3)
    rows = linalg.mat([[1, 2, 0], [2, 1, 0]])
    for m in (rows, rows[:, :2]):
        with pytest.raises(Refused):
            linalg.Coordinates(f, m, error=Refused)
