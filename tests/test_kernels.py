"""The field and charpoly kernels against their reference paths: array
`mul`, the product-sum kernel, the rank-one kernel and the table-driven
add/neg against the scalar, `vec_sum` and `sub`/`mul` paths, stacked
`charpolys` against the one-matrix `charpoly`; that no module of `bflab`
has an `assert`, which `python -O` would skip, none caches on an
object's private attributes behind `hasattr`, and none but `gf` reads a
field's private tables."""

import ast
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from bflab import gf, linalg
from bflab.gf import field
from bflab.radical import charpoly, charpolys

FIELDS = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 5)]
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bflab"


def codes(f, shape):
    """Arrays of field codes, often zero: every shape, including empty."""
    return arrays(np.int64, shape,
                  elements=st.one_of(st.just(0), st.integers(0, f.q - 1)))


@given(st.sampled_from(FIELDS).flatmap(
    lambda pm: st.tuples(st.just(field(*pm)),
                         codes(field(*pm), (4, 6)), codes(field(*pm), 6))))
def test_array_mul_matches_scalar_reference(case):
    # the int path is the plain-list log/exp lookup with its zero test
    f, a, b = case
    got = f.mul(a, b)
    assert got.shape == (4, 6)
    for (i, j), x in np.ndenumerate(a):
        assert got[i, j] == f.mul(int(x), int(b[j]))
    # 0-d arrays give an int, like two ints
    for x, y in ((a[0, 0], b[0]), (0, b[1]), (a[1, 1], 0)):
        out = f.mul(np.asarray(x), np.asarray(y))
        assert type(out) is int and out == f.mul(int(x), int(y))


@st.composite
def product_sums(draw):
    f = field(*draw(st.sampled_from(FIELDS)))
    shape = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    # each operand keeps a dimension or broadcasts it (size 1 or missing)
    a_shape = [n if draw(st.booleans()) else 1 for n in shape]
    b_shape = [n if draw(st.booleans()) else 1 for n in shape]
    b_shape = b_shape[draw(st.integers(0, len(shape) - 1)):]
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    return f, draw(codes(f, a_shape)), draw(codes(f, b_shape)), axis


@given(product_sums(), st.sampled_from([1 << 22, 1, 7]))
def test_mul_sum_matches_reference(case, budget):
    # a tiny temporary budget sends every shape through the chunked path
    f, a, b, axis = case
    expect = f.vec_sum(f.mul(a, b), axis=axis)
    with mock.patch.object(gf, "_TEMP_BUDGET", budget):
        got = f.mul_sum(a, b, axis)
    assert type(got) is type(expect)
    assert np.array_equal(got, expect)


@st.composite
def rank_one_updates(draw):
    f = field(*draw(st.sampled_from(FIELDS)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return (f, draw(codes(f, (rows, cols))), draw(codes(f, rows)),
            draw(codes(f, cols)))


@given(rank_one_updates())
def test_sub_outer_matches_reference(case):
    f, a, x, y = case
    got = f.sub_outer(a, x, y)
    assert got.shape == a.shape
    assert np.array_equal(got, f.sub(a, f.mul(x[:, None], y)))


@given(st.sampled_from(FIELDS).flatmap(
    lambda pm: st.tuples(st.just(field(*pm)),
                         codes(field(*pm), 24), codes(field(*pm), 24))))
def test_add_neg_match_scalar_reference(case):
    f, a, b = case
    added, negated = f.add(a, b), f.neg(a)
    for i in range(a.size):
        x, y = int(a[i]), int(b[i])
        assert added[i] == f._scalar_add(x, y)
        assert negated[i] == f._scalar_neg(x)


def test_mul_sum_chunks_past_the_packed_width():
    # GF(3^8): 8 digit fields of 7 bits hold at most 63 products, so an
    # inner dimension of 127 makes chunks of 63, 63 and 1
    f = field(3, 8)
    rng = np.random.default_rng(5)
    a = f.random_elements(rng, (3, 127))
    b = f.random_elements(rng, (127, 4))
    a[1], b[:, 1] = f.q - 1, 1      # every digit p - 1: the widest sums
    expect = f.vec_sum(f.mul(a[:, :, None], b[None, :, :]), axis=1)
    assert np.array_equal(linalg.matmul(f, a, b), expect)
    assert f.mul_sum(a[0], b[:, 0], 0) == expect[0, 0]
    # an operand broadcast along the cut axis is not cut
    col = a[:, :1]
    assert np.array_equal(f.mul_sum(col, a, 1),
                          f.vec_sum(f.mul(col, a), axis=1))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 1)])
def test_matmul_past_the_temporary_budget(p, m):
    f = field(p, m)
    rng = np.random.default_rng(9)
    a = f.random_elements(rng, (300, 150))
    b = f.random_elements(rng, (150, 100))
    assert a.shape[0] * a.shape[1] * b.shape[1] > 1 << 22
    out = linalg.matmul(f, a, b)
    for i in range(0, 300, 37):
        row = f.vec_sum(f.mul(a[i][:, None], b), axis=0)
        assert np.array_equal(out[i], row)


@st.composite
def matrix_stacks(draw):
    """Stacks of square matrices with the shapes the pivot search meets:
    zero columns, already-triangular matrices, random ones."""
    f = field(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(0, 7))
    stack = draw(codes(f, (draw(st.integers(0, 4)), n, n)))
    for m in stack:
        kind = draw(st.sampled_from(["random", "zero column", "triangular"]))
        if kind == "zero column" and n:
            m[:, draw(st.integers(0, n - 1))] = 0
        elif kind == "triangular":
            m[:] = np.triu(m)
    return f, stack


@given(matrix_stacks())
def test_charpolys_match_charpoly(case):
    f, stack = case
    n = stack.shape[1]
    want = [charpoly(f, m) for m in stack]
    for j in range(n + 1):
        got = charpolys(f, stack, j)
        assert got.shape == (stack.shape[0],)
        assert got.tolist() == [cp[j] for cp in want]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_charpolys_mix_swap_and_no_swap_pivots(p, m):
    # at step 0 the first matrix pivots in place, the second swaps rows
    # and columns 1 and 3, the third has nothing below the diagonal, and
    # the fourth swaps again at step 1
    f = field(p, m)
    rng = np.random.default_rng(3)
    stack = f.random_elements(rng, (4, 5, 5))
    stack[0, 1, 0] = 1
    stack[1, 1:3, 0] = 0
    stack[1, 3, 0] = f.q - 1
    stack[2, 1:, 0] = 0
    stack[3, 1, 0] = 1
    stack[3, 2:, 0] = 0
    stack[3, 2:, 1] = 0
    stack[3, 4, 1] = 1
    want = [charpoly(f, mat) for mat in stack]
    for j in range(6):
        assert charpolys(f, stack, j).tolist() == [cp[j] for cp in want]


def test_kernel_checks_raise():
    f = field(3, 2)
    with pytest.raises(ValueError):
        linalg.matmul(f, linalg.eye(f, 2), linalg.eye(f, 3))
    with pytest.raises(ValueError):
        f.mul_sum(np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64), 1)
    with pytest.raises(ValueError):
        charpolys(f, np.zeros((1, 2, 2), dtype=np.int64), 3)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_bare_assert_in_kernel_layer(module):
    tree = ast.parse((SRC / module).read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{module}: assert at lines {lines} vanishes under -O"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_hasattr_cache_on_private_names(module):
    # a cached fact has one owner that makes its memo up front; a
    # hasattr probe for a private name is a cache bolted onto an object
    tree = ast.parse((SRC / module).read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "hasattr" and len(node.args) == 2
             and isinstance(node.args[1], ast.Constant)
             and str(node.args[1].value).startswith("_")]
    assert not lines, f"{module}: hasattr cache at lines {lines}"


FIELD_TABLES = {"_log0", "_exp0", "_pexp", "_add_table", "_neg_table",
                "_log_list", "_exp_list"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "gf.py"))
def test_field_tables_are_read_only_in_gf(module):
    # a field-specific path belongs in a FiniteField method, which picks
    # it per field; a module reading the tables would fork that choice
    tree = ast.parse((SRC / module).read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in FIELD_TABLES]
    assert not lines, f"{module}: field table read at lines {lines}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "linalg.py"))
def test_inverse_is_called_only_in_linalg(module):
    # coordinates over rows go through linalg.Coordinates, which owns the
    # one pivot inverse; an inverse elsewhere is a second coordinate map
    tree = ast.parse((SRC / module).read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "inverse"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "linalg"]
    assert not lines, f"{module}: linalg.inverse called at lines {lines}"
