import contextlib
import io
import itertools
import json
import math
import os

import numpy as np
import pytest

from bflab import linalg, radical
from bflab.algebra import AlgebraContext, group_algebra
from bflab.blocks import build_group_algebra
from bflab.cli import main
from bflab.gf import _prime_factors, field, make_field, p_part
from bflab.groups import (all_subgroups, group_from_generators, load_group,
                          sylow_subgroup)
from bflab.idempotents import (_is_orthogonal_decomposition, are_associate,
                               block_idempotents, decompose_unit,
                               primitive_decomposition, quotient_algebra,
                               sandwich_rows)
from bflab.interior import InteriorAlgebra
from bflab.points import points
from bflab.radical import charpoly, charpolys, radical_rows

GROUPS = {
    "C2": group_from_generators(2, [(1, 0)], "C2"),
    "C3": group_from_generators(3, [(1, 2, 0)], "C3"),
    "C4": group_from_generators(4, [(1, 2, 3, 0)], "C4"),
    "S3": group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3"),
    "A4": group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4"),
    "D8": group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8"),
    "S4": group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4"),
    "SL23": group_from_generators(8, [(3, 7, 2, 6, 1, 5, 0, 4),
                                      (5, 2, 0, 6, 3, 1, 7, 4)], "SL23"),
}


def splitting(G, p):
    e = G.exponent()
    while e % p == 0:
        e //= p
    return make_field(p, e)


# dim J(kG) = |G| - sum of squares of the Brauer character degrees;
# over GF(4) the simples of S4 at p = 2 have dims {1, 2} and those of
# SL(2,3) at p = 2 dims {1, 1, 1}
RADICAL_DIMS = [
    ("C2", 2, 1), ("C3", 3, 2), ("C4", 2, 3),
    ("S3", 3, 4), ("S3", 2, 1),
    ("A4", 2, 9), ("A4", 3, 2),
    ("D8", 2, 7),
    ("S4", 2, 19), ("SL23", 2, 21),
]


@pytest.mark.parametrize("name,p,expect", RADICAL_DIMS)
def test_radical_dimensions(name, p, expect):
    G = GROUPS[name]
    A = group_algebra(G, splitting(G, p))
    assert radical_rows(A).shape[0] == expect


@pytest.mark.parametrize("matrices", [2, None],
                         ids=["one-matrix", "whole-level"])
@pytest.mark.parametrize("name,p,expect", RADICAL_DIMS)
def test_radical_rows_do_not_depend_on_stack_budget(name, p, expect, matrices,
                                                    monkeypatch):
    # two n x n products per charpoly stack, so the pairs of a level fall
    # into several stacks, the last one short when their count is odd,
    # or a whole level in one stack; the chain runs even where the
    # certificate would prove the radical
    G = GROUPS[name]
    k = splitting(G, p)
    expect_rows = radical_rows(group_algebra(G, k))
    budget = 1 << 40 if matrices is None else matrices * G.order ** 2
    monkeypatch.setattr(radical, "_STACK_BUDGET", budget)
    stacks = []

    def counted(f, stack, j):
        stacks.append(stack.shape[0])
        return charpolys(f, stack, j)
    monkeypatch.setattr(radical, "charpolys", counted)
    rows = radical._radical_rows_impl(group_algebra(G, k))
    assert rows.shape[0] == expect
    assert np.array_equal(rows, expect_rows)
    if matrices is not None:
        assert len(stacks) > 1 and max(stacks) == matrices


DATA = os.path.join(os.path.dirname(__file__), "..", "src", "bflab", "data")


def catalog_pairs():
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name)) as fh:
            doc = json.load(fh)
        for p in _prime_factors(load_group(doc).order):
            yield pytest.param(doc, p, id=f"{name[:-5]}-p{p}")


@pytest.mark.parametrize("doc,p", catalog_pairs())
def test_radical_against_class_counts(doc, p):
    # Over a splitting field, dim Z(kG) is the number of conjugacy classes
    # and dim Z(kG/J(kG)) the number of simple modules, which Brauer
    # counts as the p-regular classes.  Neither uses RADICAL_DIMS.
    G = load_group(doc)
    A = group_algebra(G, splitting(G, p))
    classes = G.conjugacy_classes()
    regular = [c for c in classes if G.orders[G.index[c[0]]] % p]
    assert A.center_rows().shape[0] == len(classes)
    top = quotient_algebra(A, radical_rows(A))
    assert top.center_rows().shape[0] == len(regular)


def test_radical_of_semisimple_is_zero():
    A = group_algebra(GROUPS["C2"], field(3))
    assert radical_rows(A).shape[0] == 0
    A = group_algebra(GROUPS["S3"], make_field(5, 6))
    assert radical_rows(A).shape[0] == 0


def test_radical_is_nilpotent_two_sided_ideal():
    for name, p in (("S3", 3), ("A4", 2), ("C4", 2)):
        G = GROUPS[name]
        A = group_algebra(G, splitting(G, p))
        J = linalg.Subspace(A.field, A.dim, radical_rows(A))
        for t in range(J.dim):
            for i in range(A.dim):
                b = A.basis_vector(i)
                assert J.contains(A.mul(J.basis[t], b))
                assert J.contains(A.mul(b, J.basis[t]))
        # nilpotency: J^dim vanishes
        power = J.basis
        for _ in range(A.dim):
            if power.shape[0] == 0:
                break
            nxt = []
            for u in range(power.shape[0]):
                for t in range(J.dim):
                    nxt.append(A.mul(power[u], J.basis[t]))
            power = linalg.rref(A.field, np.array(nxt, dtype=np.int64))[0] \
                if nxt else power[:0]
        assert power.shape[0] == 0


def test_charpoly_cayley_hamilton_random():
    rng = np.random.default_rng(21)
    for f in (field(2), field(2, 2), field(3)):
        for n in (1, 2, 4, 6):
            for _ in range(10):
                m = f.random_elements(rng, (n, n))
                cp = charpoly(f, m)
                assert cp[0] == 1 and len(cp) == n + 1
                acc = linalg.zeros(n, n)
                for c in cp:
                    acc = linalg.matmul(f, acc, m)
                    if c:
                        acc = f.add(acc, f.mul(int(c), linalg.eye(f, n)))
                assert not acc.any()


def test_charpoly_determinant_term():
    f = field(5)
    m = linalg.mat([[2, 0], [0, 3]])
    cp = charpoly(f, m)
    # det = 6 = 1, trace = 5 = 0: t^2 - 0t + 1... det term sign: (+1)^2 det
    assert cp == [1, 0, 1]


def test_corner_radical_is_sandwiched_radical():
    # J(eAe) = e.J(A).e, computed through two different regular
    # representations, must agree as subspaces of A
    import numpy as np
    from bflab.idempotents import block_idempotents
    from bflab.gf import make_field
    rng = np.random.default_rng(17)
    for name, p in (("S3", 2), ("A4", 2), ("S3", 3)):
        G = GROUPS[name]
        A = group_algebra(G, splitting(G, p))
        for e in block_idempotents(A, rng):
            C = A.corner(e)
            j_corner = radical_rows(C)
            inside = linalg.rref(
                A.field,
                np.array([C.to_parent(j_corner[t])
                          for t in range(j_corner.shape[0])],
                         dtype=np.int64).reshape(-1, A.dim)
                if j_corner.size else linalg.zeros(0, A.dim))[0]
            # sandwich the global radical
            J = radical_rows(A)
            le = A.lmul_matrix(e)
            re = A.rmul_matrix(e)
            sand = linalg.matmul(A.field, le,
                                 linalg.matmul(A.field, re, J.T)).T \
                if J.size else linalg.zeros(0, A.dim)
            sand = linalg.rref(A.field, sand)[0]
            assert inside.shape == sand.shape
            assert np.array_equal(inside, sand)


@pytest.fixture
def chains(monkeypatch):
    """Algebras whose radical is computed, by the certificate or by the
    chain, in call order: the misses of the radical memo."""
    calls = []
    local = radical._local_radical

    def counted(A):
        calls.append(A)
        return local(A)
    monkeypatch.setattr(radical, "_local_radical", counted)
    return calls


def test_equal_algebras_under_one_root_share_one_chain(chains):
    G = GROUPS["S3"]
    A = group_algebra(G, splitting(G, 2))
    C1, C2 = A.corner(A.unit), A.corner(A.unit)
    assert C1 is not C2
    assert radical_rows(C1) is radical_rows(C2)
    assert len(chains) == 1
    # fixed points of one group, taken in two interior algebras over kG
    D = sylow_subgroup(G, 2)
    F1 = InteriorAlgebra(A, D).fixed_subalgebra(D)
    F2 = InteriorAlgebra(A, D).fixed_subalgebra(D)
    assert F1 is not F2
    assert radical_rows(F1) is radical_rows(F2)
    assert len(chains) == 2
    # kG shares its chain with its identity corner, which uses its tables
    assert radical_rows(A) is radical_rows(C1)
    assert len(chains) == 2


def test_fresh_root_computes_again(chains):
    G = GROUPS["S3"]
    k = splitting(G, 2)
    A, B = group_algebra(G, k), group_algebra(G, k)
    rows_a = radical_rows(A.corner(A.unit))
    rows_b = radical_rows(B.corner(B.unit))
    assert len(chains) == 2
    assert np.array_equal(rows_a, rows_b)


def test_each_cli_run_computes_again(chains, tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "src", "bflab",
                        "data", "s3.json")
    argv = ["analyze", "--group", path, "--prime", "2", "--out", "-",
            "--findings-dir", str(tmp_path)]
    reports, counts = [], []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        reports.append(out.getvalue())
        counts.append(len(chains))
    assert reports[0] == reports[1]
    assert counts[0] > 0 and counts[1] == 2 * counts[0]


def test_radical_rows_are_read_only():
    G = GROUPS["S3"]
    A = group_algebra(G, splitting(G, 2))
    for ctx in (A, A.corner(A.unit)):
        rows = radical_rows(ctx)
        assert rows.shape[0] == 1 and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0


def _tensor_algebra(f, products, unit):
    """The algebra on basis b_0.. with b_i.b_j = products[(i, j)] (a basis
    index; absent pairs multiply to 0)."""
    n = len(unit)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), k in products.items():
        tensor[i, j, k] = 1
    return AlgebraContext(f, n, mult_tensor=tensor, unit=unit)


def _matrix_algebra(f):
    # M_2(k) on E_11, E_12, E_21, E_22: E_ij.E_jl = E_il
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return _tensor_algebra(
        f, {(a, b): units.index((i, m)) for a, (i, j) in enumerate(units)
            for b, (l, m) in enumerate(units) if j == l}, [1, 0, 0, 1])


NOT_LOCAL = [
    # k x k: the trace form has rank 2
    ("k x k, p = 2", lambda: _tensor_algebra(field(2), {(0, 0): 0,
                                                        (1, 1): 1}, [1, 1])),
    ("k x k, p = 3", lambda: _tensor_algebra(field(3), {(0, 0): 0,
                                                        (1, 1): 1}, [1, 1])),
    # M_2(k) at p = 2: the trace form is 0, and the guess is no character
    ("M_2(k), p = 2", lambda: _matrix_algebra(field(2))),
    ("M_2(k), p = 3", lambda: _matrix_algebra(field(3))),
    # k x k[x]/(x^2) at p = 2 on e, f, x: the guess is the projection to
    # k, a character whose kernel k[x]/(x^2) is not nilpotent
    ("k x k[x]/x^2", lambda: _tensor_algebra(
        field(2), {(0, 0): 0, (1, 1): 1, (1, 2): 2, (2, 1): 2}, [1, 1, 0])),
]


@pytest.mark.parametrize("build", [b for _, b in NOT_LOCAL],
                         ids=[name for name, _ in NOT_LOCAL])
def test_certificate_refuses_algebras_that_are_not_local(build):
    A = build()
    assert radical._local_radical(A) is None
    rows = radical_rows(A)
    assert np.array_equal(rows, radical._radical_rows_impl(A))
    assert A.dim - rows.shape[0] > 1


@pytest.mark.parametrize("name", ["C4", "D8"])
def test_certificate_proves_the_radical_of_a_p_group_algebra(name):
    # p = 2 divides dim kP = |P|, so the guess reads c_|P| of each L_x
    A = group_algebra(GROUPS[name], field(2))
    rows = radical._local_radical(A)
    assert rows is not None and rows.shape[0] == A.dim - 1
    assert np.array_equal(rows, radical._radical_rows_impl(A))


def test_certificate_matches_the_chain_on_a_catalog_pass(monkeypatch,
                                                          tmp_path):
    # a `check` pass over the catalog runs the chain zero times, and every
    # radical the certificate proves in it is the chain's
    local, chain = radical._local_radical, radical._radical_rows_impl
    certified, chains = [], []

    def recorded_local(A):
        rows = local(A)
        if rows is not None:
            certified.append((A, rows))
        return rows

    def recorded_chain(A):
        chains.append(A)
        return chain(A)
    monkeypatch.setattr(radical, "_local_radical", recorded_local)
    monkeypatch.setattr(radical, "_radical_rows_impl", recorded_chain)
    for name in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, name)
        for p in _prime_factors(load_group(path).order):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(["check", "--group", path, "--prime", str(p),
                             "--seed", "1", "--out", "-", "--findings-dir",
                             str(tmp_path)]) == 0
    assert chains == [] and certified
    for A, rows in certified:
        assert np.array_equal(rows, chain(A))


@pytest.mark.parametrize("doc,p", catalog_pairs())
def test_fitting_pieces_are_primitive_by_the_chain(doc, p):
    # for every P <= S, the pieces of 1 in (kG)^P are orthogonal
    # idempotents summing to 1, each with a local corner by the chain;
    # each associate class has as many pieces as its simple module has
    # dimensions, dim F.e - dim J(F).e (split case), and by Krull-Schmidt
    # the points, from a second decomposition on other draws, have the
    # same multiplicities
    G = load_group(doc)
    A = build_group_algebra(G, p)
    S = sylow_subgroup(G, p)
    ia = InteriorAlgebra(A, S)
    rng = np.random.default_rng(1)
    for P in all_subgroups(S):
        F = ia.fixed_subalgebra(P)
        pieces = decompose_unit(F, rng)
        assert _is_orthogonal_decomposition(F, pieces, F.unit)
        for e in pieces:
            C = F.corner(e)
            assert C.dim - radical._radical_rows_impl(C).shape[0] == 1
        J = radical._radical_rows_impl(F)
        classes = []
        for e in pieces:
            for cls in classes:
                if are_associate(F, cls[0], e):
                    cls.append(e)
                    break
            else:
                classes.append([e])
        for cls in classes:
            right = F.rmul_matrix(cls[0])
            top = linalg.rank(F.field, right) - \
                linalg.rank(F.field, linalg.matmul(F.field, right, J.T))
            assert len(cls) == top
        assert sorted(len(cls) for cls in classes) == sorted(
            pt.multiplicity for pt in points(ia, P, rng))


@pytest.mark.parametrize("doc,p", catalog_pairs())
def test_block_radicals_count_p_regular_classes(doc, p):
    # l(b) = dim Z(B/J(B)) counts the simple modules of the block B, so
    # the l(b) sum to the p-regular classes (Brauer); each radical is of
    # a corner of kG, by the certificate or by the chain
    G = load_group(doc)
    A = group_algebra(G, splitting(G, p))
    regular = [c for c in G.conjugacy_classes() if G.orders[G.index[c[0]]] % p]
    counts = []
    for b in block_idempotents(A, np.random.default_rng(1)):
        B = A.corner(b)
        counts.append(quotient_algebra(B, radical_rows(B))
                      .center_rows().shape[0])
    assert min(counts) >= 1 and sum(counts) == len(regular)


def _determinant(m):
    """Exact integer determinant, by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] *
               _determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _elementary_divisors(m):
    """The Smith form diagonal of a nonsingular integer matrix: d_k /
    d_(k-1), with d_k the gcd of its k x k minors."""
    n = len(m)
    d = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, _determinant([[m[i][j] for j in cols]
                                              for i in rows]))
        d.append(g)
    return [d[k] // d[k - 1] for k in range(1, n + 1)]


def test_elementary_divisors_of_a_known_matrix():
    # [[2, 4], [6, 8]] has minors gcd 2 and determinant -8: divisors 2, 4
    assert _elementary_divisors([[2, 4], [6, 8]]) == [2, 4]
    assert _elementary_divisors([[2, 1], [1, 2]]) == [1, 3]


@pytest.mark.parametrize("doc,p", catalog_pairs())
def test_cartan_matrix_elementary_divisors(doc, p):
    # c_ij = dim e_i.kG.e_j over one primitive idempotent per associate
    # class is the Cartan matrix: symmetric, with elementary divisors the
    # p-parts |C_G(x)|_p over the p-regular classes (Brauer).  Nothing
    # here goes through the Brauer-pair or block code.
    G = load_group(doc)
    A = group_algebra(G, splitting(G, p))
    reps = []
    for e in primitive_decomposition(A, A.unit, np.random.default_rng(1)):
        if not any(are_associate(A, e, r) for r in reps):
            reps.append(e)
    basis = A.basis_matrix()
    cartan = [[linalg.rank(A.field, sandwich_rows(A, a, basis, b))
               for b in reps] for a in reps]
    assert cartan == [list(row) for row in zip(*cartan)]
    regular = [c for c in G.conjugacy_classes() if G.orders[G.index[c[0]]] % p]
    assert _elementary_divisors(cartan) == sorted(
        p_part(G.order // len(c), p) for c in regular)
