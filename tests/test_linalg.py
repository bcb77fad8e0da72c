from unittest import mock

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


def _classes_by_solve(f, q, x):
    """The reps part of x's coordinates over [T'; reps], the unit vectors
    at q.rest, by `solve`: the reference for `linalg.Quotient`."""
    m = x.shape[0]
    basis = np.concatenate([q.rows, linalg.eye(f, m)[q.rest]])
    assert linalg.rank(f, basis) == m
    return linalg.solve(f, basis.T, x)[q.rows.shape[0]:]


@given(full_rank_rows(), st.data())
def test_quotient_classes_match_solve(case, data):
    # T' spans T's rows with an identity at each row's last nonzero
    # column, and the class of x (of each column of a matrix) is its reps
    # part over [T'; reps], with no inverse
    f, rows = case
    t, m = rows.shape
    with mock.patch.object(linalg, "inverse", None):
        q = linalg.Quotient(f, rows)
    assert np.array_equal(linalg.rref(f, q.rows)[0], linalg.rref(f, rows)[0])
    assert np.array_equal(q.rows[:, q.last], linalg.eye(f, t))
    assert [int(np.flatnonzero(row)[-1]) for row in q.rows] == \
        q.last.tolist()
    assert sorted(q.last.tolist() + q.rest.tolist()) == list(range(m))
    codes = st.integers(0, f.q - 1)
    xs = data.draw(arrays(np.int64, (m, data.draw(st.integers(1, 3))),
                          elements=codes))
    want = np.array([_classes_by_solve(f, q, x) for x in xs.T]).reshape(
        xs.shape[1], m - t).T
    assert np.array_equal(q(xs), want)
    assert np.array_equal(q(xs[:, 0]), want[:, 0])
    # a trace row has class 0
    if t:
        assert not q(rows.T).any()


@pytest.mark.parametrize("t", [0, 3])
def test_quotient_modulo_nothing_or_everything(t):
    # t = 0: the class is x itself; t = dim: every class is 0-dim
    f = field(3)
    rows = linalg.eye(f, 3)[:t]
    q = linalg.Quotient(f, rows)
    x = linalg.mat([[1, 2, 0], [2, 2, 1]]).T
    assert np.array_equal(q(x), x if t == 0 else linalg.zeros(0, 2))
    assert q.rest.size == 3 - t and q.last.size == t


def test_quotient_rejects_dependent_rows():
    # a repeated row, a zero row, a row of no column, a sum of rows
    f = field(3)
    rows = linalg.mat([[1, 2, 0], [0, 1, 1]])
    for bad in (np.concatenate([rows, rows[:1]]),
                np.concatenate([rows, linalg.zeros(1, 3)]),
                linalg.zeros(1, 0),
                np.concatenate([rows, f.add(rows[:1], rows[1:])])):
        with pytest.raises(Refused):
            linalg.Quotient(f, bad, error=Refused)


@st.composite
def rref_rows(draw):
    """A field of GF(2), GF(3), GF(4), GF(9) and r x n rows in RREF with
    no zero row, 0 <= r <= n: the RREF of random rows, or the identity
    (no free column)."""
    f = field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])))
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return f, linalg.eye(f, n)
    codes = st.integers(0, f.q - 1)
    rows = draw(arrays(np.int64, (draw(st.integers(0, n)), n),
                       elements=codes))
    return f, linalg.rref(f, rows)[0] if rows.size else rows


@given(rref_rows(), st.data())
def test_rref_coordinates_are_a_gather_checked_on_the_free_columns(case,
                                                                    data):
    # rows in RREF take no pivot inverse; their coordinates match `solve`
    # in the span, a vector outside raises, unchecked they are the entries
    # at the pivots, and a matrix gives the coordinates of each column
    f, rows = case
    r, n = rows.shape
    with mock.patch.object(linalg, "inverse", None):
        coords = linalg.Coordinates(f, rows)
    pivots = linalg.rref(f, rows)[1] if r else []
    codes = st.integers(0, f.q - 1)
    k = data.draw(st.integers(1, 4))
    combos = data.draw(arrays(np.int64, (k, r), elements=codes))
    vs = linalg.matmul(f, combos, rows).T if r else linalg.zeros(n, k)
    for check in (True, False):
        assert np.array_equal(coords(vs, check), combos.T)
    for v in list(vs.T) + [data.draw(arrays(np.int64, n, elements=codes))]:
        ref = linalg.solve(f, rows.T, v) if r else \
            (None if v.any() else linalg.zeros(1, 0)[0])
        assert np.array_equal(coords(v, check=False), v[pivots])
        if ref is None:
            with pytest.raises(Refused):
                linalg.Coordinates(f, rows, error=Refused)(v)
            # one column outside the span makes the whole matrix raise
            with pytest.raises(ValueError):
                coords(np.concatenate([vs, v[:, None]], axis=1))
        else:
            assert np.array_equal(coords(v), ref)
    if r == n:
        assert np.array_equal(rows, linalg.eye(f, n))
