import numpy as np

from bflab.algebra import group_algebra
from bflab.gf import field, make_field
from bflab.groups import all_subgroups, group_from_generators, sylow_subgroup
from bflab.idempotents import is_primitive
from bflab.interior import InteriorAlgebra
from bflab.points import (local_invariant_decomposition, local_points,
                          point_multiplicity, points,
                          refine_idempotent, relative_multiplicity,
                          unit_decomposition)


import os

from bflab.groups import load_group

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "bflab", "data")

C2 = group_from_generators(2, [(1, 0)], "C2")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")
D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")
Q8 = load_group(os.path.join(DATA, "q8.json"))


def rng():
    return np.random.default_rng(42)


def interior(G, p, D=None):
    e = G.exponent()
    while e % p == 0:
        e //= p
    A = group_algebra(G, make_field(p, e))
    return InteriorAlgebra(A, D if D is not None else sylow_subgroup(G, p))


def test_p_group_algebra_single_local_point_everywhere():
    for G in (D8, Q8):
        ia = interior(G, 2)
        r = rng()
        for P in all_subgroups(ia.D):
            pts = points(ia, P, r)
            assert len(pts) == 1
            assert pts[0].local and pts[0].multiplicity == 1


def test_points_at_trivial_subgroup_are_all_points():
    ia = interior(S3, 2)
    r = rng()
    triv = ia.D.subgroup([ia.D.identity])
    pts = points(ia, triv, r)
    assert all(pt.local for pt in pts)     # br_1 is the identity
    assert sum(pt.multiplicity for pt in pts) == \
        len(unit_decomposition(ia, triv, r))


def test_fixed_subalgebra_has_one_owner():
    ia = interior(S3, 2)
    for P in all_subgroups(ia.D):
        ctx = ia.fixed_subalgebra(P)
        assert ia.fixed_subalgebra(P) is ctx
        # a second Subgroup object for the same P reads the same context
        assert ia.fixed_subalgebra(P.subgroup(P.elements)) is ctx
    assert set(ia._points_cache) == {"points", "decomp"}


def test_unit_decomposition_is_the_refinement_of_one():
    # the decomposition of 1 is the cached refinement of the unit, drawn
    # with the same rng draws
    for G, p in ((S3, 2), (S3, 3), (A4, 2)):
        ia, ia2 = interior(G, p), interior(G, p)
        for P in all_subgroups(ia.D):
            r = np.random.default_rng(5)
            parts = unit_decomposition(ia, P, r)
            assert refine_idempotent(ia, P, ia.A.unit, r) is parts
            fresh = refine_idempotent(ia2, P, ia2.A.unit,
                                      np.random.default_rng(5))
            assert [v.tolist() for v in fresh] == [v.tolist() for v in parts]


def test_point_multiplicity_of_one_is_the_multiplicity():
    for G, p in ((S3, 2), (A4, 2), (S3, 3)):
        ia = interior(G, p)
        r = rng()
        for P in all_subgroups(ia.D):
            for pt in points(ia, P, r):
                assert point_multiplicity(ia, P, pt, ia.A.unit, r) == \
                    pt.multiplicity


def test_multiplicity_in_k_times_k():
    A = group_algebra(C2, field(3))
    D = C2.full_subgroup().subgroup([C2.identity])
    ia = InteriorAlgebra(A, D)
    r = rng()
    pts = points(ia, D, r)
    assert len(pts) == 2
    assert all(pt.multiplicity == 1 for pt in pts)


def test_principal_block_has_local_point_at_defect():
    # kS3 char 2, principal block, P = C2 Sylow
    ia = interior(S3, 2)
    r = rng()
    lps = local_points(ia, ia.D, r)
    assert len(lps) >= 1


def test_multiplicity_independent_of_seed():
    ia = interior(S3, 3)
    r1 = np.random.default_rng(1)
    r2 = np.random.default_rng(999)
    ia2 = interior(S3, 3)
    m1 = sorted(pt.multiplicity for pt in points(ia, ia.D, r1))
    m2 = sorted(pt.multiplicity for pt in points(ia2, ia2.D, r2))
    assert m1 == m2


def test_pointed_leq_reflexive_and_chain():
    # Q_delta <= P_gamma for Q <= P: some summand of i_P in A^Q lies in delta
    ia = interior(S3, 3)
    r = rng()
    P = ia.D
    for pt in points(ia, P, r):
        assert relative_multiplicity(ia, P, pt, P, pt, r) > 0
    triv = P.subgroup([P.identity])
    for pt in local_points(ia, P, r):
        under = [q for q in points(ia, triv, r)
                 if relative_multiplicity(ia, triv, q, P, pt, r) > 0]
        assert under, "maximal pointed group has no refinement chain"


def test_relative_multiplicity_of_self_is_one():
    ia = interior(S3, 3)
    r = rng()
    P = ia.D
    for pt in points(ia, P, r):
        assert relative_multiplicity(ia, P, pt, P, pt, r) == 1


def test_lid_on_p_group_algebra_is_trivial():
    ia = interior(D8, 2)
    r = rng()
    for P in all_subgroups(ia.D):
        lid = local_invariant_decomposition(ia, P, r)
        assert len(lid) == 1
        v, H = lid[0]
        assert np.array_equal(v, ia.A.unit) and H.key == P.key


def test_lid_swap_orbit_in_matrix_algebra():
    # M_2(GF(2)) with C2 embedded as the swap matrix: the diagonal
    # idempotents E11, E22 form a free orbit; 1 is primitive non-local
    # in the fixed algebra, and the LID must produce the orbit
    f = field(2)
    from bflab.algebra import AlgebraContext
    import itertools
    tensor = np.zeros((4, 4, 4), dtype=np.int64)
    # basis E11, E12, E21, E22 with E_ab E_cd = delta_bc E_ad
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {c: i for i, c in enumerate(cells)}
    for (a, b), (c, d) in itertools.product(cells, repeat=2):
        if b == c:
            tensor[index[(a, b)], index[(c, d)], index[(a, d)]] = 1
    unit = np.zeros(4, dtype=np.int64)
    unit[index[(0, 0)]] = unit[index[(1, 1)]] = 1
    A = AlgebraContext(f, 4, mult_tensor=tensor, unit=unit)
    D = C2.full_subgroup()
    swap = np.zeros(4, dtype=np.int64)
    swap[index[(0, 1)]] = swap[index[(1, 0)]] = 1
    ia = InteriorAlgebra(A, D, structural={D.identity: unit,
                                           (1, 0): swap})
    r = rng()
    lid = local_invariant_decomposition(ia, D, r)
    assert sorted(h.order for _, h in lid) == [1, 1]
    vs = sorted(tuple(int(c) for c in v) for v, _ in lid)
    e11 = [0] * 4
    e11[index[(0, 0)]] = 1
    e22 = [0] * 4
    e22[index[(1, 1)]] = 1
    assert vs == sorted([tuple(e11), tuple(e22)])
    # orbit sum is the unit, primitive in the fixed algebra
    ia4 = interior(A4, 2)
    lid4 = local_invariant_decomposition(ia4, ia4.D, r)
    total = ia4.A.zero()
    for v, H in lid4:
        total = ia4.A.add(total, v)
    assert np.array_equal(total, ia4.A.unit)


def test_lid_at_trivial_subgroup_is_primitive_decomposition():
    ia = interior(S3, 3)
    r = rng()
    triv = ia.D.subgroup([ia.D.identity])
    lid = local_invariant_decomposition(ia, triv, r)
    assert len(lid) == len(unit_decomposition(ia, triv, r))


def test_lid_orbit_sums_primitive_in_fixed_algebra():
    # the orbit sums of a local invariant decomposition are orthogonal
    # primitive idempotents of A^P summing to 1
    for G, p in ((A4, 2), (S3, 3)):
        ia = interior(G, p)
        r = rng()
        P = ia.D
        lid = local_invariant_decomposition(ia, P, r)
        seen = set()
        sums = []
        for v, H in lid:
            vb = np.asarray(v).tobytes()
            if vb in seen:
                continue
            orbit = {np.asarray(ia.conj(g, v)).tobytes()
                     for g in P.elements}
            seen.update(orbit)
            acc = ia.A.zero()
            done = set()
            for g in P.elements:
                w = ia.conj(g, v)
                wb = np.asarray(w).tobytes()
                if wb not in done:
                    done.add(wb)
                    acc = ia.A.add(acc, w)
            sums.append(acc)
        ctx = ia.fixed_subalgebra(P)
        total = ia.A.zero()
        for s in sums:
            assert is_primitive(ctx, ctx.from_parent(s))
            total = ia.A.add(total, s)
        assert np.array_equal(total, ia.A.unit)


def test_lid_nontrivial_descend_path():
    # kS4 at C2 subgroups exercises the free-orbit descend machinery
    S4 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4")
    ia = interior(S4, 2)
    r = rng()
    found_split = False
    for P in all_subgroups(ia.D):
        if P.order != 2:
            continue
        lid = local_invariant_decomposition(ia, P, r)
        if len(lid) > 1:
            found_split = True
            stabs = sorted(h.order for _, h in lid)
            assert any(h < P.order for h in stabs)
    assert found_split, "expected at least one genuinely split LID"


def test_lid_odd_prime_free_orbit():
    # the fixed algebra of C3 on kS4 at p = 3 contains primitive
    # non-local pieces, forcing the order-3 free-orbit construction;
    # the result must contain genuine stabilizer-1 orbits
    S4 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4")
    ia = interior(S4, 3)
    r = rng()
    lid = local_invariant_decomposition(ia, ia.D, r)
    stabs = sorted(h.order for _, h in lid)
    assert stabs == [1, 1, 1, 1, 1, 1, 3]
    # the six free pieces split into two full C3-orbits
    free = [v for v, h in lid if h.order == 1]
    orbits = set()
    for v in free:
        orbit = frozenset(np.asarray(ia.conj(g, v)).tobytes()
                          for g in ia.D.elements)
        assert len(orbit) == 3
        orbits.add(orbit)
    assert len(orbits) == 2


def _nilpotent_matrix_block():
    """M_3(GF(3)) tensor k[t]/(t^2): semisimple quotient M_3, radical
    M_3.t, with the order-3 inner twist by the cyclic permutation."""
    import itertools
    from bflab.algebra import AlgebraContext
    from bflab.gf import field as gf_field
    f = gf_field(3)
    cells = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    index = {c: t for t, c in enumerate(cells)}
    n = len(cells)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for (i, j, k), (a, b, l) in itertools.product(cells, repeat=2):
        if j == a and k + l <= 1:
            tensor[index[(i, j, k)], index[(a, b, l)],
                   index[(i, b, k + l)]] = 1
    unit = np.zeros(n, dtype=np.int64)
    for i in range(3):
        unit[index[(i, i, 0)]] = 1
    B = AlgebraContext(f, n, mult_tensor=tensor, unit=unit)
    g = np.zeros(n, dtype=np.int64)
    for i in range(3):
        g[index[((i + 1) % 3, i, 0)]] = 1
    return B, g, index


def test_orbit_idempotent_odd_prime_with_radical():
    from bflab import linalg
    from bflab.points import _orbit_idempotent, _sigma_powers, _verify_orbit
    B, g, index = _nilpotent_matrix_block()
    f = B.field
    # twist the action by a radical unit so the canonical lift is inexact
    u = B.unit.copy()
    u[index[(0, 1, 1)]] = 1
    gp = B.mul(B.mul(u, g), B.inv(u))
    S = linalg.matmul(f, B.lmul_matrix(gp), B.rmul_matrix(B.inv(gp)))
    j = _orbit_idempotent(B, S, 3, np.random.default_rng(3))
    assert _verify_orbit(B, _sigma_powers(f, S, 3)[0], j)


def test_odd_orbit_correction_recovers_perturbations():
    from bflab import linalg
    from bflab.points import (_odd_orbit_correction, _sigma_powers,
                              _sum_exact_radical_shifts, _verify_orbit)
    from bflab.radical import radical_rows
    B, g, index = _nilpotent_matrix_block()
    f = B.field
    S = linalg.matmul(f, B.lmul_matrix(g), B.rmul_matrix(B.inv(g)))
    p = 3
    powers, tsum = _sigma_powers(f, S, p)
    j = np.zeros(B.dim, dtype=np.int64)
    j[index[(0, 0, 0)]] = 1
    assert _verify_orbit(B, powers, j)
    shifts = _sum_exact_radical_shifts(f, tsum, radical_rows(B))
    assert shifts.shape[0] == 6

    def trace(v):
        acc = np.asarray(v)
        out = acc
        for _ in range(p - 1):
            acc = linalg.matvec(f, S, acc)
            out = f.add(out, acc)
        return out

    r = np.random.default_rng(0)
    recovered = tried = 0
    while tried < 20:
        coeffs = f.random_elements(r, shifts.shape[0])
        x = f.add(j, linalg.vecmat(f, coeffs, shifts))
        if _verify_orbit(B, powers, x):
            continue
        assert np.array_equal(trace(x), B.unit)
        tried += 1
        for _ in range(40):
            if _verify_orbit(B, powers, x):
                recovered += 1
                break
            x = _odd_orbit_correction(f, B, powers, tsum, x)
            if x is None:
                break
    assert recovered >= 18        # Newton may hit isolated degeneracies


def test_sigma_matrix_matches_column_loop():
    # one coordinate call over a matrix of columns against the column
    # loop it replaced: conjugate each basis vector, read its coordinates
    from bflab.points import _fixed_corner, _sigma_matrix
    S4 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], "S4")
    ia = interior(S4, 2)
    for R in all_subgroups(ia.D):
        B = _fixed_corner(ia, R, ia.A.unit)
        for x in ia.D.elements:
            if R.conjugate(x).key != R.key:
                continue
            want = [B.from_parent(ia.conj(x, B.to_parent(B.basis_vector(i))))
                    for i in range(B.dim)]
            assert np.array_equal(_sigma_matrix(ia, B, x), np.array(want).T)
