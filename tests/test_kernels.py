"""The field and charpoly kernels against their reference paths: array
`mul`, the product kernel `matmul`, the rank-one kernel and the
table-driven add/neg against the scalar, `vec_sum` and `sub`/`mul`
paths, the vectorized field tables against a per-element build, stacked
`charpolys` against the one-matrix `charpoly`; that no BLAS call of
`matmul` is large enough to go multithreaded, no `check` run inverts a
matrix, no product takes an identity operand outside the named callers,
no module of `bflab` has an `assert`, which `python -O` would skip, none
caches on an object's private attributes behind `hasattr`, and none but
`gf` reads a field's private tables."""

import ast
import contextlib
import io
import math
import pathlib
import sys
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


def reference(f, a, b):
    """a @ b through `vec_sum` of `mul`, 1-D operands promoted and
    dropped as numpy `matmul` does."""
    a2 = a[None] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    out = f.vec_sum(f.mul(a2[..., :, :, None], b2[..., None, :, :]), axis=-2)
    if b.ndim == 1:
        out = out[..., 0]
    if a.ndim == 1:
        out = out[..., 0, :] if b.ndim > 1 else out[..., 0]
    return out if np.ndim(out) else int(out)


@st.composite
def products(draw):
    f = field(*draw(st.sampled_from(FIELDS)))
    n, k, l = (draw(st.integers(0, 9)) for _ in range(3))
    stack = draw(st.lists(st.integers(0, 3), max_size=2))
    # each operand keeps a stack axis or broadcasts it (size 1 or missing)
    a_stack = [s if draw(st.booleans()) else 1 for s in stack]
    b_stack = [s if draw(st.booleans()) else 1 for s in stack]
    b_stack = b_stack[draw(st.integers(0, len(stack))):]
    a_shape = [k] if not a_stack and draw(st.booleans()) else a_stack + [n, k]
    b_shape = [k] if not b_stack and draw(st.booleans()) else b_stack + [k, l]
    return f, draw(codes(f, a_shape)), draw(codes(f, b_shape))


# (tile, multiply-adds per BLAS call, gather threshold): the defaults;
# tiny tiles on the BLAS path wherever the shape allows; tiny tiles on
# the gather path
BUDGETS = [(gf._TILE, gf._BLAS_MACS, gf._GATHER_BELOW), (4, 16, 1),
           (4, 16, 1 << 30)]


def budgets(tile, macs, gather_below):
    return mock.patch.multiple(gf, _TILE=tile, _BLAS_MACS=macs,
                               _GATHER_BELOW=gather_below)


@given(products(), st.sampled_from(BUDGETS))
def test_matmul_matches_reference(case, budget):
    # the tiny budgets cut every shape into tiles, inner dimension too
    f, a, b = case
    expect = reference(f, a, b)
    with budgets(*budget):
        got = f.matmul(a, b)
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


class BlasCalls:
    """Wraps np.matmul and records the multiply-adds of each float64 call."""

    def __init__(self):
        self.macs = []
        self.real = np.matmul

    def __call__(self, x, y, *args, **kwargs):
        if x.dtype == np.float64:
            stack = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
            self.macs.append(math.prod(stack) * x.shape[-2] * x.shape[-1]
                             * y.shape[-1])
        return self.real(x, y, *args, **kwargs)


@pytest.mark.parametrize("p,m,n,k,l", [(3, 8, 3, 127, 4), (3, 4, 9, 600, 10),
                                       (3, 4, 2, 600, 3)])
def test_matmul_cuts_past_the_packed_width(p, m, n, k, l):
    # GF(3^8): 8 digit fields of 6 bits hold 31 sums of digits, so the
    # gather cuts an inner dimension of 127 into 31s; GF(3^4): a 13-bit
    # field holds 511 terms of the BLAS path, so k = 600 is cut in two,
    # and the thin (2, 600, 3) gathers in one piece
    f = field(p, m)
    rng = np.random.default_rng(5)
    a = f.random_elements(rng, (n, k))
    b = f.random_elements(rng, (k, l))
    a[1], b[:, 1] = f.q - 1, 1      # every digit p - 1: the widest sums
    expect = reference(f, a, b)
    calls = BlasCalls()
    with mock.patch.object(np, "matmul", calls):
        assert np.array_equal(linalg.matmul(f, a, b), expect)
    assert len(calls.macs) == (2 if (m, n) == (4, 9) else 0)
    assert f.matmul(a[0], b[:, 0]) == expect[0, 0]
    # an operand broadcast against a stack
    assert np.array_equal(f.matmul(a, np.stack([b, b])),
                          np.stack([expect, expect]))


UNPACK_FIELDS = [(3, 1), (2, 2), (3, 2), (2, 4), (5, 2), (3, 4), (11, 2)]


def _largest_digit_sum(f):
    """The largest digit sum a tile of `matmul` can leave in one packed
    field: the gather path sums k (p - 1) (XOR instead for p = 2), the
    BLAS path k m (p - 1)^2."""
    gather = 0 if f.p == 2 else f._gather_k * (f.p - 1)
    return max(gather, f._blas_k * f.m * (f.p - 1) ** 2)


@given(st.sampled_from([pm for pm in UNPACK_FIELDS if pm[1] > 1]).flatmap(
    lambda pm: st.tuples(st.just(field(*pm)), st.lists(
        st.lists(st.one_of(st.just(_largest_digit_sum(field(*pm))),
                           st.integers(0, _largest_digit_sum(field(*pm)))),
                 min_size=pm[1], max_size=pm[1]), max_size=12))))
def test_unpack_matches_the_mod_reference(case):
    # digit sums up to the tile bound, reduced by the residue table (odd
    # p) or the low bit (p = 2), against int64 % p
    f, sums = case
    sums = np.array(sums, dtype=np.int64).reshape(-1, f.m)
    assert f.p == 2 or _largest_digit_sum(f) < f._residues.size
    words = (sums << f._offsets).sum(axis=1)
    assert np.array_equal(f._unpack(words), sums % f.p @ f._powers)


@pytest.mark.parametrize("p,m", UNPACK_FIELDS)
def test_matmul_at_the_digit_sum_bound(p, m):
    # every digit p - 1, one inner dimension past each path's cap, so one
    # tile sums exactly as many terms as the cap allows (GF(3) and GF(4)
    # have caps too large to reach: a long inner dimension instead)
    f = field(p, m)
    rng = np.random.default_rng(3)
    caps = [(f._blas_k, 2 * m)] + ([(f._gather_k, 1)] if m > 1 else [])
    for k, n in caps:
        k = min(k, 20000) + 1
        a = f.random_elements(rng, (n, k))
        b = f.random_elements(rng, (k, n))
        a[0], b[:, 0] = f.q - 1, f.q - 1
        assert np.array_equal(f.matmul(a, b), reference(f, a, b))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (3, 4)])
def test_blas_calls_stay_below_the_thread_threshold(p, m):
    # OpenBLAS splits a call above 2^18 multiply-adds across threads
    f = field(p, m)
    rng = np.random.default_rng(2)
    cases = [((120, 90), (90, 110)), ((5, 70, 60), (5, 60, 70)),
             ((300, 200), (200, 1)), ((1, 200), (200, 300))]
    calls = BlasCalls()
    with mock.patch.object(np, "matmul", calls):
        for sa, sb in cases:
            a, b = f.random_elements(rng, sa), f.random_elements(rng, sb)
            assert np.array_equal(f.matmul(a, b), reference(f, a, b))
    assert calls.macs and max(calls.macs) <= 1 << 18


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


@pytest.mark.parametrize("p,m", FIELDS + [(2, 12)])
def test_field_tables_match_per_element_build(p, m):
    # the reference multiplies by the generator one element at a time
    f = field(p, m)
    exp = [1]
    for _ in range(f.q - 2):
        exp.append(f._poly_mul_code(exp[-1], f.generator))
    assert f._poly_mul_code(exp[-1], f.generator) == 1
    assert len(set(exp)) == f.q - 1
    assert f._exp_list == exp + exp
    log = [0] * f.q
    for i, c in enumerate(exp):
        log[c] = i
    assert f._log_list == log
    if m == 1:
        return
    # packed words: digit t of c in bits [w t, w (t + 1))
    codes = np.arange(f.q)

    def words(c):
        return (c[:, None] // f._powers % p << f._offsets).sum(axis=1)

    if p != 2:
        exp = np.array(f._exp_list[:f.q - 1])
        assert np.array_equal(f._exp_pack[:f.q - 1], words(exp))
        assert not f._exp_pack[2 * (f.q - 1):].any()
        assert np.array_equal(f._residues, np.arange(f._residues.size) % p)
    if f._blas_k:
        assert np.array_equal(f._planes, codes[:, None] // f._powers % p)
        for i in range(m):
            shifted = f.mul(f.pow(p, i), codes)      # the code p is x
            assert np.array_equal(f._folded[:, i], words(shifted))


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
        f.matmul(np.ones(3, dtype=np.int64), np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError):
        f.matmul(np.ones((2, 3), dtype=np.int64), 1)
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


FIELD_TABLES = {"_log0", "_exp0", "_add_table", "_neg_table", "_log_list",
                "_exp_list", "_exp_pack", "_residues", "_planes", "_folded"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "gf.py"))
def test_field_tables_are_read_only_in_gf(module):
    # a field-specific path belongs in a FiniteField method, which picks
    # it per field; a module reading the tables would fork that choice
    tree = ast.parse((SRC / module).read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in FIELD_TABLES]
    assert not lines, f"{module}: field table read at lines {lines}"


CACHE_OWNERS = {"_points_cache": "points.py", "_theta": "conjecture.py",
                "_twisted_units": "conjecture.py"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_interior_caches_are_read_by_their_owner(module):
    # the point and theta caches live on an InteriorAlgebra, which makes
    # them empty in its __init__; only the module that fills one reads it
    tree = ast.parse((SRC / module).read_text())
    exempt = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "InteriorAlgebra":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    exempt.update(map(id, ast.walk(fn)))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and CACHE_OWNERS.get(node.attr, module) != module
             and id(node) not in exempt]
    assert not lines, f"{module}: another module's cache read at {lines}"


REPO = SRC.parents[1]
PY_FILES = sorted(str(p.relative_to(REPO)) for d in ("src", "tests", "demos",
                                                       "perfbench")
                  for p in (REPO / d).rglob("*.py"))


@pytest.mark.parametrize("path", PY_FILES)
def test_fusion_graph_index_is_read_only_in_fusion(path):
    # a FusionSystem is its set of graphs; the per-domain index that
    # derives hom sets from it is fusion.py's format, and no per-pair
    # `homs` table exists any more
    tree = ast.parse((REPO / path).read_text())
    banned = {"homs"} if path == "src/bflab/fusion.py" else {"homs", "_from"}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in banned]
    assert not lines, f"{path}: fusion index read at lines {lines}"


# The callers that may still hand `FiniteField.matmul` an identity
# matrix, each because an element happens to be 1 or a subgroup V = 1
# makes a fixed module the whole algebra.  The algebra layer's own
# identities are gone: the basis's left multiplications, coordinates
# over RREF rows, corners, associates and the unit's corner.
IDENTITY_CALLERS = {
    # z.w with z = 1
    "idempotents.corner_unit_inverse",
    # L_d and R_d for d = 1, the identity coset representative
    "interior.InteriorAlgebra.trace_map",
    # the fixed rows of V = 1 are the identity
    "interior.InteriorAlgebra.brauer", "idempotents.sandwich_rows",
    # w -> w.u-dagger contracted from the pairing A(phi) x A(phi^-1) ->
    # A(Q), when the twisted inverse acts as 1: on kG (S4 at p = 2) its
    # class is a group element whose right translation keeps the order of
    # the group bases of A(phi) and A(Q)
    "conjecture._transport",
}
# generic products: the caller is the frame outside them
PRODUCT_HELPERS = {"linalg.matmul", "linalg.matvec", "linalg.vecmat",
                   "algebra.AlgebraContext.mul",
                   "algebra.AlgebraContext.lmul_matrix",
                   "algebra.AlgebraContext.rmul_matrix"}


def _identity_caller():
    """`module.qualname` of the innermost bflab function outside the
    product helpers (comprehension frames belong to their function)."""
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        if pathlib.Path(code.co_filename).parent == SRC and \
                not code.co_name.startswith("<"):
            name = f"{pathlib.Path(code.co_filename).stem}." \
                   f"{getattr(code, 'co_qualname', code.co_name)}"
            if name not in PRODUCT_HELPERS:
                return name
        frame = frame.f_back
    return None


def test_no_product_takes_an_identity_operand_outside_the_named_callers(
        tmp_path, monkeypatch):
    # one `check` of S4 at p = 2 and one `analyze` of A5 at p = 3; a
    # product with the identity costs a full product and returns its
    # other operand
    from bflab.cli import main
    callers = set()
    matmul = gf.FiniteField.matmul

    def watched(self, a, b):
        for x in (np.asarray(a), np.asarray(b)):
            if x.ndim == 2 and x.shape[0] == x.shape[1] > 1 and \
                    np.array_equal(x, np.eye(len(x), dtype=np.int64)):
                callers.add(_identity_caller())
        return matmul(self, a, b)
    monkeypatch.setattr(gf.FiniteField, "matmul", watched)
    for command, path, p in (("check", SRC / "data" / "s4.json", 2),
                             ("analyze", REPO / "perfbench" / "groups" /
                              "a5.json", 3)):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--group", str(path), "--prime", str(p),
                         "--seed", "1", "--out", "-", "--findings-dir",
                         str(tmp_path)]) == 0
    # the set is not empty, so the wrapper saw the products; a caller
    # mended later leaves IDENTITY_CALLERS with it
    assert callers and callers <= IDENTITY_CALLERS, \
        callers - IDENTITY_CALLERS
