import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from bflab import conjecture, linalg
from bflab.algebra import group_algebra, group_element_vector
from bflab.blocks import analyze_block, build_group_algebra
from bflab.fusion import BrauerPairs
from bflab.gf import _prime_factors, field, make_field
from bflab.groups import (TwistedDiagonal, all_subgroups, diagonal,
                          group_from_generators, injective_maps,
                          load_group, maximal_subgroups, sylow_subgroup,
                          twisted_classes)
from bflab.interior import (BrauerQuotient, InteriorAlgebra, OrbitQuotient,
                            decode_pair, pair_subgroup)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "bflab", "data")
A5_DOC = os.path.join(ROOT, "perfbench", "groups", "a5.json")

C2 = group_from_generators(2, [(1, 0)], "C2")
C3 = group_from_generators(3, [(1, 2, 0)], "C3")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")


def interior(G, p, D=None):
    e = G.exponent()
    while e % p == 0:
        e //= p
    A = group_algebra(G, make_field(p, e))
    D = D if D is not None else sylow_subgroup(G, p)
    return InteriorAlgebra(A, D)


def test_fixed_subspace_abelian_is_everything():
    ia = interior(C2, 2)
    rows = ia.fixed_rows([(g, g) for g in ia.D.elements])
    assert rows.shape[0] == 2


def test_fixed_subspace_trivial_group():
    ia = interior(C2, 2)
    triv = ia.D.subgroup([ia.D.identity])
    rows = ia.fixed_rows([(triv.identity, triv.identity)])
    assert rows.shape[0] == 2


def test_fixed_subspace_s3_conjugation_by_c3():
    ia = interior(S3, 3)
    rows = ia.fixed_rows([(g, g) for g in ia.D.generating_sequence()])
    assert rows.shape[0] == 4     # three C3-singletons + transposition orbit


def test_relative_trace_char2_vanishes():
    ia = interior(C2, 2)
    tm = ia.trace_map([(ia.D.identity, ia.D.identity)],
                      diagonal(ia.D).pairs)
    assert not tm.any()           # x + gxg^{-1} = 2x = 0


def test_relative_trace_identity_when_equal():
    ia = interior(C2, 2)
    d = diagonal(ia.D).pairs
    tm = ia.trace_map(d, d)
    assert np.array_equal(tm, linalg.eye(ia.A.field, 2))


def test_trace_map_needs_subgroup():
    ia = interior(C2, 2)
    triv = [(ia.D.identity, ia.D.identity)]
    with pytest.raises(ValueError):
        ia.trace_map(diagonal(ia.D).pairs, triv)


def test_relative_trace_matches_coset_sum_oracle():
    # tr_V^U(x) = sum of coset-representative actions, checked on basis
    # vectors of kD8 against a direct enumeration
    D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")
    ia = interior(D8, 2)
    D = ia.D
    r = (1, 2, 3, 0)
    V_pairs = [(g, g) for g in [D.identity, (2, 3, 0, 1)]]   # Delta(Z)
    U_pairs = diagonal(D).pairs
    tm = ia.trace_map(V_pairs, U_pairs)
    from bflab.interior import pair_subgroup, decode_pair
    U = pair_subgroup(D, U_pairs)
    V = pair_subgroup(D, V_pairs)
    reps = [decode_pair(D, e) for e in U.left_coset_reps(V)]
    assert len(reps) == 4
    for h in D.elements:
        x = group_element_vector(ia.A, h)
        got = linalg.matvec(ia.A.field, tm, x)
        expect = ia.A.zero()
        for d1, d2 in reps:
            expect = ia.A.field.add(expect, ia.act(d1, d2, x))
        assert np.array_equal(got, expect)


def trace_rows(bq):
    """RREF rows spanning the traces of A(U), apart from the quotient:
    Tr_V^U of the V-fixed rows for each maximal subgroup V of U."""
    ia, f = bq.interior, bq.interior.A.field
    images = [linalg.zeros(0, ia.A.dim)] + [linalg.matmul(
        f, ia.trace_map(pairs, bq.pairs), ia.fixed_rows(pairs).T).T
        for pairs in ([decode_pair(ia.D, e) for e in V.elements]
                      for V in maximal_subgroups(
                          pair_subgroup(ia.D, bq.pairs)))]
    return linalg.rref(f, np.concatenate(images))[0]


def test_brauer_quotient_dims_kc2():
    ia = interior(C2, 2)
    assert ia.brauer_at(ia.D).dim == 2       # traces vanish
    triv = ia.D.subgroup([ia.D.identity])
    assert ia.brauer_at(triv).dim == 2       # no proper subgroups


def test_brauer_dim_equals_centralizer_order():
    for G, p in ((S3, 3), (S3, 2), (A4, 2), (A4, 3)):
        ia = interior(G, p)
        from bflab.groups import centralizer
        for P in all_subgroups(ia.D):
            bq = ia.brauer_at(P)
            assert bq.dim == centralizer(G, P).order


def test_brauer_algebra_is_centralizer_algebra():
    ia = interior(S3, 3)
    bq = ia.brauer_at(ia.D)
    Q = bq.algebra()
    assert Q.dim == 3
    # brauer map is multiplicative on the fixed algebra
    f = ia.A.field
    rng = np.random.default_rng(3)
    rows = bq.fixed.basis
    for _ in range(25):
        a = linalg.vecmat(f, f.random_elements(rng, rows.shape[0]), rows)
        b = linalg.vecmat(f, f.random_elements(rng, rows.shape[0]), rows)
        lhs = bq.project(ia.A.mul(a, b))
        rhs = Q.mul(bq.project(a), bq.project(b))
        assert np.array_equal(lhs, rhs)


def test_projection_well_defined_modulo_traces():
    ia = interior(S3, 3)
    bq = ia.brauer_at(ia.D)
    f = ia.A.field
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = linalg.vecmat(f, f.random_elements(rng, bq.fixed.dim),
                          bq.fixed.basis)
        traces = trace_rows(bq)
        if traces.shape[0]:
            noise = linalg.vecmat(
                f, f.random_elements(rng, traces.shape[0]), traces)
            assert np.array_equal(bq.project(v),
                                  bq.project(f.add(v, noise)))
    # a transposition is not fixed by conjugation with C3
    with pytest.raises(ValueError):
        bq.project(group_element_vector(ia.A, (1, 0, 2)))


def test_brauer_of_is_memoized_by_graph(monkeypatch):
    # A(phi) comes from the one pair-set cache, and a second call builds
    # no twisted diagonal
    from bflab import interior as interior_mod
    ia = interior(S3, 3)
    inv = [m for m in injective_maps(ia.D, ia.D) if m.graph !=
           frozenset((x, x) for x in ia.D.elements)][0]
    bq = ia.brauer_of(inv)
    assert bq is ia.brauer(TwistedDiagonal(inv))
    monkeypatch.setattr(interior_mod, "TwistedDiagonal", None)
    assert ia.brauer_of(inv) is bq


def _product(ia, bq_left, bq_right, x, y):
    """The class of lift(x).lift(y) under the pairing, with the quotient
    it lies in."""
    t, bq_out = ia.pairing(bq_left, bq_right)
    return conjecture._product(ia.A.field, t, x, y), bq_out


def test_quotient_product_kc2():
    # br(g).br(g) = br(1) under Delta(C2) in kC2 char 2
    ia = interior(C2, 2)
    bq = ia.brauer_at(ia.D)
    g = group_element_vector(ia.A, (1, 0))
    cg = bq.project(g)
    c1 = bq.project(ia.A.unit)
    out, bq_out = _product(ia, bq, bq, cg, cg)
    assert bq_out is bq
    assert np.array_equal(out, c1)
    zero = np.zeros(bq.dim, dtype=np.int64)
    out, _ = _product(ia, bq, bq, cg, zero)
    assert not out.any()


def test_pairing_is_cached_and_read_only():
    # off the orbit path, A(P)'s algebra multiplies by the cached tensor
    for ia in orbit_and_eliminated(S3, 3):
        bq = ia.brauer_at(ia.D)
        t, bq_out = ia.pairing(bq, bq)
        assert ia.pairing(bq, bq)[0] is t and bq_out is bq
        assert (bq.algebra().mult_tensor is t) != ia._permutes_basis
        with pytest.raises(ValueError):
            t[0, 0, 0] = 1


def test_quotient_product_rejects_a_pairing_that_does_not_compose():
    # 1_C maps C into D, but 1_D maps D outside the domain of 1_C
    ia = interior(A4, 2)
    C = next(P for P in all_subgroups(ia.D) if P.order == 2)
    bq_C, bq_D = ia.brauer_at(C), ia.brauer_at(ia.D)
    _, bq_out = ia.pairing(bq_D, bq_C)
    assert bq_out is bq_C
    with pytest.raises(ValueError):
        ia.pairing(bq_C, bq_D)


def test_quotient_product_independent_of_lifts():
    ia = interior(S3, 3)
    D = ia.D
    maps = injective_maps(D, D)
    inv = [m for m in maps if m.graph !=
           frozenset((x, x) for x in D.elements)][0]
    bq_phi = ia.brauer(TwistedDiagonal(inv))
    bq_p = ia.brauer_at(D)
    f = ia.A.field
    rng = np.random.default_rng(8)
    u = f.random_elements(rng, bq_phi.dim)
    v = f.random_elements(rng, bq_p.dim)
    base, bq_out = _product(ia, bq_phi, bq_p, u, v)
    # perturb the lifts by trace elements and recompute by hand
    lift_u = bq_phi.lift(u)
    lift_v = bq_p.lift(v)
    for bq_side, lift in ((bq_phi, lift_u), (bq_p, lift_v)):
        traces = trace_rows(bq_side)
        if traces.shape[0] == 0:
            continue
        noise = linalg.vecmat(f, f.random_elements(rng, traces.shape[0]),
                              traces)
        if bq_side is bq_phi:
            w = ia.A.mul(f.add(lift_u, noise), lift_v)
        else:
            w = ia.A.mul(lift_u, f.add(lift_v, noise))
        assert np.array_equal(bq_out.project(w), base)


def test_quotient_product_associative_on_composables():
    ia = interior(S3, 3)
    D = ia.D
    maps = injective_maps(D, D)
    rng = np.random.default_rng(13)
    f = ia.A.field
    for chi in maps:
        for psi in maps:
            for phi in maps:
                bq_chi = ia.brauer(TwistedDiagonal(chi))
                bq_psi = ia.brauer(TwistedDiagonal(psi))
                bq_phi = ia.brauer(TwistedDiagonal(phi))
                a = f.random_elements(rng, bq_chi.dim)
                b = f.random_elements(rng, bq_psi.dim)
                c = f.random_elements(rng, bq_phi.dim)
                ab, bq_ab = _product(ia, bq_chi, bq_psi, a, b)
                ab_c, bq_tot = _product(ia, bq_ab, bq_phi, ab, c)
                bc, bq_bc = _product(ia, bq_psi, bq_phi, b, c)
                a_bc, bq_tot2 = _product(ia, bq_chi, bq_bc, a, bc)
                assert bq_tot is bq_tot2
                assert np.array_equal(ab_c, a_bc)


def test_quotient_product_rejects_bad_pairs():
    ia = interior(S3, 3)
    D = ia.D
    triv = D.subgroup([D.identity])
    bq_1 = ia.brauer_at(triv)
    bq_D = ia.brauer_at(D)
    # Delta(1) after Delta(D): D is not inside the trivial subgroup
    with pytest.raises(ValueError):
        ia.pairing(bq_1, bq_D)
    # D x 1 is not a twisted diagonal
    d_by_1 = ia.brauer(frozenset((g, D.identity) for g in D.elements))
    for left, right in ((d_by_1, bq_D), (bq_D, d_by_1)):
        with pytest.raises(ValueError, match="twisted diagonals"):
            ia.pairing(left, right)
    # the quotients of another interior algebra
    other = interior(S3, 3)
    with pytest.raises(ValueError, match="another interior algebra"):
        ia.pairing(bq_D, other.brauer_at(other.D))


def _composable_pairings(data):
    """(A(psi), A(c_g o phi)) of every composable class triple of the
    block's source algebra."""
    ia = data.ia_S
    triples = conjecture._composable_triples(
        ia.D, data.source_presystem.outer_class_reps())
    return [(ia.brauer_of(psi), ia.brauer_of(gphi))
            for _, _, gphi, psi in triples]


@pytest.mark.parametrize("doc,p", [(os.path.join(DATA, "s4.json"), 2),
                                   (A5_DOC, 3)], ids=["S4-p2", "A5-p3"])
def test_pairing_matches_the_product_of_lifts(doc, p):
    # the tensor, a gather on kG (S4, l = 1) or a fill by elimination on
    # the principal source algebra of A5 (l != 1), against multiplying
    # the lifts in the algebra and projecting
    rng = np.random.default_rng(1)
    pairs = BrauerPairs(build_group_algebra(load_group(doc), p), rng)
    data = next(analyze_block(pairs, b, i, rng)
                for i, b in enumerate(pairs.blocks)
                if np.any(pairs.quotient(pairs.S).project(b)))
    ia = data.ia_S
    assert ia._permutes_basis == (p == 2)
    composable = _composable_pairings(data)
    assert composable
    for bq_left, bq_right in composable:
        t, bq_out = ia.pairing(bq_left, bq_right)
        assert t.shape == (bq_left.dim, bq_right.dim, bq_out.dim)
        for a in range(bq_left.dim):
            for b in range(bq_right.dim):
                e_a = np.eye(bq_left.dim, dtype=np.int64)[a]
                e_b = np.eye(bq_right.dim, dtype=np.int64)[b]
                want = bq_out.project(ia.A.mul(bq_left.lift(e_a),
                                               bq_right.lift(e_b)))
                assert np.array_equal(t[a, b], want)


@pytest.mark.parametrize("doc,p", [(os.path.join(DATA, "s4.json"), 3),
                                   (A5_DOC, 3)], ids=["S4-p3", "A5-p3"])
def test_every_eliminated_quotient_matches_solve(monkeypatch, tmp_path, doc,
                                                 p):
    # every quotient that `check` builds by elimination, against the
    # reference: its traces span the trace images, its reps are the fixed
    # rows independent of the traces and of the fixed rows before them,
    # and a class is the reps part of the coordinates over [traces; reps]
    # by `solve`
    from bflab.cli import main
    built, init = [], BrauerQuotient.__init__

    def recorded(self, *args):
        init(self, *args)
        if type(self) is BrauerQuotient:
            built.append(self)
    monkeypatch.setattr(BrauerQuotient, "__init__", recorded)
    assert main(["check", "--group", doc, "--prime", str(p), "--seed", "1",
                 "--out", str(tmp_path / "report.json"),
                 "--findings-dir", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert built
    rng = np.random.default_rng(2)
    for bq in built:
        f = bq.interior.A.field
        traces = trace_rows(bq)
        assert np.array_equal(traces, linalg.rref(f, linalg.matmul(
            f, bq.classes.rows, bq.fixed.basis))[0])
        t = traces.shape[0]
        cols = linalg.rref(f, np.concatenate([traces, bq.fixed.basis]).T)[1]
        assert np.array_equal(
            bq.reps, bq.fixed.basis[[c - t for c in cols if c >= t]])
        basis = np.concatenate([traces, bq.reps]).T
        vs = linalg.matmul(f, bq.fixed.basis.T,
                           f.random_elements(rng, (bq.fixed.dim, 3)))
        want = np.array([linalg.solve(f, basis, v)[t:] for v in vs.T]).T
        assert np.array_equal(bq.project(vs), want.reshape(bq.dim, 3))


def test_bifreeness_of_group_algebras():
    from bflab.bisets import check_bifree
    for G, p in ((C2, 2), (S3, 3), (A4, 2)):
        assert check_bifree(interior(G, p))


def test_structural_map_validation():
    A = group_algebra(C2, field(2))
    D = C2.full_subgroup()
    bad = {g: A.unit.copy() for g in D.elements}  # not multiplicative image
    bad[(1, 0)] = np.array([1, 1])                # 1+g is not a unit
    with pytest.raises(ValueError):
        InteriorAlgebra(A, D, structural=bad)


def test_corner_interior_structure():
    ia = interior(S3, 2)
    # principal block idempotent of kS3 char 2
    from bflab.idempotents import block_idempotents
    rng = np.random.default_rng(1)
    blocks = block_idempotents(ia.A, rng)
    principal = [b for b in blocks
                 if np.any(ia.brauer_at(ia.D).project(b))][0]
    corner = ia.corner(principal)
    assert corner.A.dim == 2
    for g in ia.D.elements:
        assert corner.A.is_unit(corner.structural[g])


def test_brauer_quotient_shares_the_cached_fixed_rows():
    # one read-only Subspace per pair subgroup: every quotient at it, and
    # fixed_rows, hand out the same array
    ia = interior(A4, 2)
    td = diagonal(ia.D)
    bq = ia.brauer(td)
    rows = ia.fixed_rows(td.pairs)
    assert bq.fixed.basis is rows
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    with pytest.raises(ValueError):
        bq.fixed.basis[...] = 0


def _d8_structural():
    D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")
    A = group_algebra(D8, field(2))
    D = D8.full_subgroup()
    return A, D, {g: group_element_vector(A, g) for g in D.elements}


def test_structural_check_catches_each_tampered_image():
    # the check multiplies only by generators, yet a change of any one
    # image, generator or not, breaks some f(g.h) = f(g).f(h)
    A, D, good = _d8_structural()
    InteriorAlgebra(A, D, structural=good)
    others = [g for g in D.elements if g != D.identity]
    for g in others:
        for h in others:
            if h == g:
                continue
            bad = dict(good)
            bad[g] = good[h]
            with pytest.raises(ValueError, match="not multiplicative"):
                InteriorAlgebra(A, D, structural=bad)


def test_structural_check_catches_an_image_of_one_that_is_not_one():
    A, D, good = _d8_structural()
    bad = dict(good)
    bad[D.identity] = good[D.elements[1]]
    with pytest.raises(ValueError, match="1 to 1"):
        InteriorAlgebra(A, D, structural=bad)


# -- kG with its group basis: quotients read off the orbits --------------


def catalog_pairs():
    for name in sorted(os.listdir(DATA)):
        G = load_group(os.path.join(DATA, name))
        for p in _prime_factors(G.order):
            yield pytest.param(name[:-5], p, id=f"{name[:-5]}-p{p}")


def orbit_and_eliminated(G, p):
    """kG over a Sylow subgroup twice: on its group basis, and as the whole
    of kG viewed as a subalgebra, which keeps kG's tables and structural
    images but not its group labels, so that its quotients are built by
    elimination."""
    A = build_group_algebra(G, p)
    fast = InteriorAlgebra(A, sylow_subgroup(G, p))
    view = A.subalgebra(linalg.eye(A.field, A.dim))
    slow = InteriorAlgebra(view, fast.D, structural=fast.structural)
    return fast, slow


def test_another_structural_map_on_kg_is_eliminated():
    # d -> its inverse's basis element is multiplicative on C3 but is not
    # the group basis map, so kG with it takes the elimination path
    fast, _ = orbit_and_eliminated(S3, 3)
    swapped = dict(fast.structural)
    a, b = [g for g in fast.D.elements if g != fast.D.identity]
    swapped[a], swapped[b] = fast.structural[b], fast.structural[a]
    other = InteriorAlgebra(fast.A, fast.D, structural=swapped)
    assert not other._permutes_basis
    assert type(other.brauer(diagonal(fast.D))) is BrauerQuotient


def _oracle_pair_sets(S):
    subgroups = all_subgroups(S)
    one = S.identity
    out = [diagonal(P, S).pairs for P in subgroups]
    out += [td.pairs for td in twisted_classes(S).reps]
    for P in subgroups[1:]:
        out.append(frozenset((g, one) for g in P.elements))    # P x 1
        out.append(frozenset((one, g) for g in P.elements))    # 1 x P
    return out


def zero_class(bq, x):
    """Whether x is U-fixed with class 0, a sum of traces."""
    try:
        return not bq.project(x).any()
    except ValueError:
        return False


@pytest.mark.parametrize("name,p", catalog_pairs())
def test_orbit_quotients_match_elimination(name, p):
    G = load_group(os.path.join(DATA, f"{name}.json"))
    fast, slow = orbit_and_eliminated(G, p)
    f, n = fast.A.field, fast.A.dim
    rng = np.random.default_rng(20)
    diagonals = {diagonal(P, fast.D).pairs for P in all_subgroups(fast.D)}
    unit_vectors = linalg.eye(f, n)
    for pairs in _oracle_pair_sets(fast.D):
        q, r = fast.brauer(pairs), slow.brauer(pairs)
        assert type(q) is OrbitQuotient and type(r) is BrauerQuotient
        assert q.dim == r.dim
        for a, b in ((q.fixed.basis, r.fixed.basis), (q.reps, r.reps)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert q.fixed.pivots == r.fixed.pivots
        # T' is the unit rows at the non-singleton orbit sums
        assert not r.classes.rows[:, r.classes.rest].any()
        rows = q.fixed.basis
        v = linalg.vecmat(f, f.random_elements(rng, rows.shape[0]), rows)
        m = linalg.matmul(f, rows.T, f.random_elements(rng, (rows.shape[0],
                                                             3)))
        for x in (v, m, unit_vectors[:, :0]):
            assert np.array_equal(q.project(x), r.project(x))
        c = f.random_elements(rng, q.dim)
        cm = f.random_elements(rng, (q.dim, 2))
        for x in (c, cm):
            assert np.array_equal(q.lift(x), r.lift(x))
        traces = trace_rows(q)
        t = linalg.vecmat(f, f.random_elements(rng, traces.shape[0]),
                          traces) if traces.shape[0] else v
        for x in [v, t, fast.A.zero(), fast.A.unit, *unit_vectors]:
            assert zero_class(q, x) == zero_class(r, x)
        for x in unit_vectors:
            if not q.fixed.contains(x):
                for bq in (q, r):
                    with pytest.raises(ValueError):
                        bq.project(x)
        if pairs in diagonals:
            qa, ra = q.algebra(), r.algebra()
            assert np.array_equal(qa.basis_lmuls(), ra.basis_lmuls())
            assert np.array_equal(qa.unit, ra.unit)


def test_both_paths_reject_an_unfixed_vector_under_python_O():
    # the U-fixed check is a raise, not an assert
    script = textwrap.dedent("""
        import sys
        from bflab import conjecture, linalg
        from bflab.algebra import group_algebra, group_element_vector
        from bflab.gf import make_field
        from bflab.groups import group_from_generators, sylow_subgroup
        from bflab.interior import InteriorAlgebra
        if __debug__:
            sys.exit("not running under -O")
        S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
        A = group_algebra(S3, make_field(3, 2))
        fast = InteriorAlgebra(A, sylow_subgroup(S3, 3))
        view = A.subalgebra(linalg.eye(A.field, A.dim))
        slow = InteriorAlgebra(view, fast.D, structural=fast.structural)
        transposition = group_element_vector(A, (1, 0, 2))
        for ia in (fast, slow):
            try:
                ia.brauer_at(ia.D).project(transposition)
            except ValueError:
                continue
            sys.exit("an unfixed vector was projected")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _counted(monkeypatch):
    """Counts of linalg.nullspace and InteriorAlgebra.trace_map calls."""
    counts = {"nullspace": 0, "trace_map": 0}
    nullspace, trace_map = linalg.nullspace, InteriorAlgebra.trace_map

    def counted_nullspace(*args):
        counts["nullspace"] += 1
        return nullspace(*args)

    def counted_trace_map(*args):
        counts["trace_map"] += 1
        return trace_map(*args)
    monkeypatch.setattr(linalg, "nullspace", counted_nullspace)
    monkeypatch.setattr(InteriorAlgebra, "trace_map", counted_trace_map)
    return counts


def _every_quotient(ia):
    for P in all_subgroups(ia.D):
        ia.brauer_at(P)
    for td in twisted_classes(ia.D).reps:
        ia.brauer(td)


def test_engine_and_defect_kg_take_the_orbit_path(monkeypatch):
    G = load_group(os.path.join(DATA, "s4.json"))
    pairs = BrauerPairs(build_group_algebra(G, 2), np.random.default_rng(1))
    counts = _counted(monkeypatch)
    for ia in [pairs.ia] + [InteriorAlgebra(pairs.A, D)
                            for D in all_subgroups(pairs.S)]:
        assert ia._permutes_basis
        _every_quotient(ia)
    assert counts == {"nullspace": 0, "trace_map": 0}


@pytest.mark.parametrize("doc,p,which", [
    ("s4.json", 3, "blocks"), (A5_DOC, 2, "principal"),
    (A5_DOC, 3, "source")], ids=["S4-p3-blocks", "A5-p2-principal",
                                 "A5-p3-source"])
def test_corners_and_source_algebras_keep_elimination(monkeypatch, doc, p,
                                                       which):
    G = load_group(os.path.join(DATA, doc))
    rng = np.random.default_rng(1)
    pairs = BrauerPairs(build_group_algebra(G, p), rng)
    if which == "source":
        data = next(analyze_block(pairs, b, i, rng)
                    for i, b in enumerate(pairs.blocks)
                    if np.any(pairs.quotient(pairs.S).project(b)))
        assert data.ia_S.A.dim < data.ia_B.A.dim
        algebras = [data.ia_S]
    else:
        blocks = pairs.blocks if which == "blocks" else [
            b for b in pairs.blocks
            if np.any(pairs.quotient(pairs.S).project(b))]
        assert len(blocks) == (3 if which == "blocks" else 1)
        algebras = [pairs.ia.corner(b) for b in blocks]
    for ia in algebras:
        assert not ia._permutes_basis
        counts = _counted(monkeypatch)
        _every_quotient(ia)
        assert counts["nullspace"] > 0 and counts["trace_map"] > 0
        monkeypatch.undo()
