import dataclasses
import itertools

import numpy as np
import pytest

from bflab import conjecture
from bflab.algebra import group_algebra
from bflab.blocks import analyze_block, build_group_algebra
from bflab.conjecture import (ambient_balance_report, build_unital_basis,
                              equivalence_report, has_all_twisted_units,
                              intrinsic_balance_report, isofusion,
                              lift_to_global_unit, theta_map,
                              theta_structure_report,
                              twisted_unit_exists, twisted_unit_laws_report,
                              unit_in_subspace, unital_basis_exists)
from bflab.fusion import BrauerPairs, fixed_point_presystem
from bflab.gf import field, make_field
from bflab.groups import (TwistedDiagonal, group_from_generators,
                          identity_injection, sylow_subgroup)
from bflab.idempotents import block_idempotents
from bflab.interior import InteriorAlgebra
from bflab.points import local_points, points


C2 = group_from_generators(2, [(1, 0)], "C2")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")
D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")


def rng():
    return np.random.default_rng(606)


def interior(G, p):
    e = G.exponent()
    while e % p == 0:
        e //= p
    A = group_algebra(G, make_field(p, e))
    return InteriorAlgebra(A, sylow_subgroup(G, p))


def test_unit_in_subspace_finds_one():
    ia = interior(C2, 2)
    rows = ia.A.basis_matrix()
    u, record = unit_in_subspace(ia, rows, rng())
    assert u is not None and ia.A.is_unit(u)


def test_unit_in_subspace_certain_negative():
    # span(1+g) in kC2 char 2 contains no unit; exhaustive over GF(2)
    ia = interior(C2, 2)
    rows = np.array([[1, 1]], dtype=np.int64)
    u, record = unit_in_subspace(ia, rows, rng(), exhaustive=True)
    assert u is None and record["exhaustive"]


def test_unit_in_subspace_group_translates():
    ia = interior(D8, 2)
    for g in ia.D.elements:
        rows = np.array([ia.structural[g]], dtype=np.int64)
        u, _ = unit_in_subspace(ia, rows, rng())
        assert u is not None


def test_build_unital_basis_on_group_algebra():
    for G, p in ((D8, 2), (C2, 2)):
        ia = interior(G, p)
        basis, neg = build_unital_basis(ia, rng())
        assert neg is None and basis.is_unital()
        assert len(basis) == ia.A.dim


def test_unital_basis_exists_criterion():
    ia = interior(A4, 2)
    F = fixed_point_presystem(ia)
    ok, table = unital_basis_exists(ia, F, rng())
    assert ok


def test_isofusion_identity():
    ia = interior(S3, 3)
    r = rng()
    P = ia.D
    for gamma in local_points(ia, P, r):
        pair = isofusion(ia, identity_injection(P), P, gamma, P, gamma)
        assert pair is not None
        s, t = pair
        assert np.array_equal(ia.A.mul(t, s), gamma.rep)
        assert np.array_equal(ia.A.mul(s, t), gamma.rep)


def test_isofusion_rejects_non_associate_points():
    # kC2 over GF(3) is k x k: the two points of the trivial subgroup do
    # not fuse under the identity map
    A = group_algebra(C2, field(3))
    triv_parent = group_from_generators(1, [], "1")
    A1 = group_algebra(C2, field(3))
    D = C2.full_subgroup().subgroup([C2.identity])
    ia = InteriorAlgebra(A1, D)
    r = rng()
    pts = points(ia, D, r)
    assert len(pts) == 2
    pair = isofusion(ia, identity_injection(D), D, pts[0], D, pts[1])
    assert pair is None


def test_twisted_unit_identity_map():
    ia = interior(S3, 3)
    P = ia.D
    tu = twisted_unit_exists(ia, identity_injection(P), rng())
    assert tu is not None


def test_twisted_unit_kc2_full_diagonal():
    ia = interior(C2, 2)
    tu = twisted_unit_exists(ia, identity_injection(ia.D), rng())
    assert tu is not None


def test_twisted_unit_dimension_obstruction():
    # inversion on C3 is outside fF_{C3}(kC3): its twisted quotient has
    # dimension 0 against dim A(C3) = 3, so no twisted unit can exist
    C3 = group_from_generators(3, [(1, 2, 0)], "C3")
    ia = interior(C3, 3)
    from bflab.groups import injective_maps
    inv = [phi for phi in injective_maps(ia.D, ia.D)
           if phi.graph != frozenset((x, x) for x in ia.D.elements)][0]
    assert ia.brauer(TwistedDiagonal(inv)).dim == 0
    assert twisted_unit_exists(ia, inv.corestrict(), rng()) is None
    # the trivial subgroup's identity map always has one (A(1) = A)
    triv = ia.D.subgroup([ia.D.identity])
    assert twisted_unit_exists(ia, identity_injection(triv), rng()) \
        is not None


def test_has_all_twisted_units_group_algebras():
    for G, p in ((D8, 2), (S3, 3), (A4, 2)):
        ia = interior(G, p)
        F = fixed_point_presystem(ia)
        ok, table = has_all_twisted_units(ia, F, rng())
        assert ok, table


def test_theta_identity_is_identity():
    ia = interior(S3, 3)
    r = rng()
    P = ia.D
    tm = theta_map(ia, identity_injection(P).corestrict(), P, P, r)
    assert tm == {pt.index: pt.index for pt in local_points(ia, P, r)}


def test_theta_is_searched_once_and_a_finding_raised_each_time(monkeypatch):
    ia = interior(S3, 3)
    r = rng()
    P = ia.D
    phi = identity_injection(P).corestrict()
    gamma = local_points(ia, P, r)[0]
    tests = []
    real = conjecture.isofusion
    monkeypatch.setattr(conjecture, "isofusion",
                        lambda *args: tests.append(args) or real(*args))
    delta = conjecture.theta_of_point(ia, phi, P, gamma, P, r)
    assert delta is not None
    assert len(tests) == len(local_points(ia, P, r))
    assert conjecture.theta_of_point(ia, phi, P, gamma, P, r) is delta
    assert len(tests) == len(local_points(ia, P, r))
    # two targets: the finding is raised again on the next call
    fresh = interior(S3, 3)
    monkeypatch.setattr(conjecture, "local_points",
                        lambda ia, Q, rng: [gamma, gamma])
    monkeypatch.setattr(conjecture, "isofusion", lambda *args: (1, 1))
    for _ in range(2):
        with pytest.raises(conjecture.Finding):
            conjecture.theta_of_point(fresh, phi, P, gamma, P, r)


def test_theta_inner_is_conjugation_transport():
    ia = interior(D8, 2)
    r = rng()
    g = (1, 2, 3, 0)
    Z = ia.D.subgroup([ia.D.identity, (2, 3, 0, 1)])
    from bflab.groups import conjugation_injection
    phi = conjugation_injection(Z, g, ia.D).corestrict()
    tm = theta_map(ia, phi, Z, phi.image(), r)
    assert tm is not None and len(tm) == len(local_points(ia, Z, r))


def test_theta_structure_s3_inversion():
    ia = interior(S3, 3)
    r = rng()
    F = fixed_point_presystem(ia)
    P = ia.D
    inv = [phi for _, _, phi in F.all_isomorphisms()
           if phi.domain.key == P.key and
           phi.graph != frozenset((x, x) for x in P.elements)][0]
    rep = theta_structure_report(ia, inv, P, P, r)
    assert rep["all"], rep
    tu = twisted_unit_exists(ia, inv, r)
    tm = theta_map(ia, inv, P, P, r, tu=tu)   # transport agreement check
    assert tm is not None


def test_lift_to_global_unit_cross_validates():
    for G, p in ((S3, 3), (A4, 2), (D8, 2)):
        ia = interior(G, p)
        F = fixed_point_presystem(ia)
        r = rng()
        for P, Q, phi in F.all_isomorphisms():
            u, v = lift_to_global_unit(ia, phi, P, Q, r)
            assert ia.A.is_unit(u)
            assert np.array_equal(ia.A.mul(v, u), ia.A.unit)
            rows = ia.brauer(TwistedDiagonal(phi)).fixed
            assert rows.contains(u)
            w, _ = unit_in_subspace(ia, rows.basis, r)
            assert w is not None and ia.A.is_unit(w)


def test_intrinsic_balance_group_algebras():
    for G, p in ((D8, 2), (S3, 3)):
        ia = interior(G, p)
        F = fixed_point_presystem(ia)
        rep = intrinsic_balance_report(ia, F, rng())
        assert rep["balanced"]


def test_intrinsic_and_ambient_balance_agree():
    A = build_group_algebra(S3, 3)
    r = rng()
    d = analyze_block(BrauerPairs(A, r), block_idempotents(A, r)[0], 0, r)
    F = d.source_presystem
    intrinsic = intrinsic_balance_report(d.ia_S, F, r)
    ambient = ambient_balance_report(d.ia_B, d.ia_B.A.from_parent(d.ell), F,
                                     r)
    assert intrinsic["balanced"]
    assert ambient["balanced"]
    assert intrinsic["balanced"] == ambient["balanced"]


def test_equivalence_report_catalog_blocks():
    for G, p in ((S3, 3), (S3, 2), (A4, 2)):
        A = build_group_algebra(G, p)
        r = rng()
        pairs = BrauerPairs(A, r)
        for i, b in enumerate(block_idempotents(A, r)):
            d = analyze_block(pairs, b, i, r)
            rep = equivalence_report(d, r)
            assert rep["conditions_agree"]
            assert rep["unital_basis"] and rep["all_twisted_units"] and \
                rep["intrinsic_balance"]
            assert rep["ambient_matches_intrinsic"]
            assert rep.get("unital_shape_stable", True)
            assert rep.get("iso_realized_by_basis", True)


def test_twisted_unit_laws_small():
    ia = interior(S3, 3)
    F = fixed_point_presystem(ia)
    rep = twisted_unit_laws_report(ia, F, rng())
    assert all(rep.values()), rep


def test_twisted_unit_laws_catch_a_wrong_twisted_inverse(monkeypatch):
    # with 2.udag in place of the twisted inverse, transport becomes
    # c -> 2 u.c.udag, which is not multiplicative: 2 * 2 != 2 in GF(3)
    ia = interior(S3, 3)
    F = fixed_point_presystem(ia)
    exact = conjecture.twisted_unit_exists

    def tampered(*args, **kwargs):
        tu = exact(*args, **kwargs)
        return dataclasses.replace(tu, udag=ia.A.field.mul(2, tu.udag))
    monkeypatch.setattr(conjecture, "twisted_unit_exists", tampered)
    rep = twisted_unit_laws_report(ia, F, rng())
    assert rep["all_twisted_units"]
    assert not rep["conjugation_multiplicative"], rep
    # the units cached on the algebra are still the exact ones
    monkeypatch.undo()
    assert all(twisted_unit_laws_report(ia, F, rng()).values())


def test_thorough_checks_all_source_candidates():
    # the defect-zero block of kS3 at p=2 is a 2x2 matrix algebra with
    # two source-idempotent candidates; thorough mode re-runs the three
    # conditions on each and must find agreement
    A = build_group_algebra(S3, 2)
    r = rng()
    blocks = block_idempotents(A, r)
    pairs = BrauerPairs(A, r)
    datas = [analyze_block(pairs, b, i, r) for i, b in enumerate(blocks)]
    dz = [d for d in datas if d.D.order == 1][0]
    assert len(dz.source_candidates) == 2
    rep = equivalence_report(dz, r, thorough=True)
    assert rep["thorough_candidates_agree"]
    assert rep["conditions_agree"]


def test_thorough_exhaustive_reaches_every_search(monkeypatch):
    # under --thorough --exhaustive every source candidate's unital-basis
    # search, and every unit search of the run, takes the run's flag
    A = build_group_algebra(S3, 2)
    r = rng()
    blocks = block_idempotents(A, r)
    pairs = BrauerPairs(A, r)
    datas = [analyze_block(pairs, b, i, r) for i, b in enumerate(blocks)]
    dz = [d for d in datas if d.D.order == 1][0]
    seen = {"build_unital_basis": [], "unit_in_subspace": []}
    for name, calls in seen.items():
        def wrapped(*args, _real=getattr(conjecture, name), _calls=calls,
                    **kwargs):
            _calls.append(kwargs.get("exhaustive"))
            return _real(*args, **kwargs)
        monkeypatch.setattr(conjecture, name, wrapped)
    rep = equivalence_report(dz, r, thorough=True, exhaustive=True)
    assert rep["thorough_candidates_agree"]
    assert seen["build_unital_basis"] == [True, True]   # ell, then the other
    assert seen["unit_in_subspace"]
    assert all(seen["unit_in_subspace"])


class _Tested:
    """A search test that records its inputs and accepts a predicate."""

    def __init__(self, accept=lambda c: False):
        self.accept = accept
        self.inputs = []

    def __call__(self, c):
        self.inputs.append(c.copy())
        return c if self.accept(c) else None


def _code(f, c):
    return sum(int(x) * f.q ** i for i, x in enumerate(c))


def test_search_limit_is_inclusive():
    f = field(2)
    test = _Tested()
    hit, record = conjecture._search(f, 3, test, rng(), 8, 5)
    assert hit is None and len(test.inputs) == 7
    assert record == {"dim": 3, "samples": 0, "exhaustive": True}
    test = _Tested()
    hit, record = conjecture._search(f, 3, test, rng(), 7, 5)
    assert hit is None and not record["exhaustive"]
    assert record["samples"] == 5 and len(test.inputs) <= 5


def test_search_exhaustive_returns_least_code_hit():
    f = field(3)
    accept = lambda c: int(c[1]) == 2 and int(c[2]) != 0   # noqa: E731
    test = _Tested(accept)
    hit, record = conjecture._search(f, 3, test, rng(), 27, 64)
    assert record["exhaustive"]
    # every nonzero vector in code order, up to the least accepted one
    codes = [_code(f, c) for c in test.inputs]
    assert codes == list(range(1, len(codes) + 1))
    least = min(_code(f, c) for c in itertools.product(range(3), repeat=3)
                if accept(np.array(c)))
    assert _code(f, hit) == least == codes[-1]


class _ScriptedRng:
    """Stands in for a numpy Generator: integers() returns scripted draws."""

    def __init__(self, draws):
        self.draws = [np.array(d, dtype=np.int64) for d in draws]

    def integers(self, low, high, size, dtype):
        return self.draws.pop(0)


def test_search_counts_zero_draws_without_testing_them():
    f = field(2)
    test = _Tested(lambda c: True)
    scripted = _ScriptedRng([[0, 0], [0, 0], [1, 0]])
    hit, record = conjecture._search(f, 2, test, scripted, 0, 4)
    assert np.array_equal(hit, [1, 0])
    assert record["samples"] == 3
    assert len(test.inputs) == 1


def test_search_draws_exactly_the_samples():
    f = field(2, 2)
    searched, fresh = rng(), rng()
    hit, record = conjecture._search(f, 5, _Tested(), searched, 16, 9)
    assert hit is None and record["samples"] == 9
    for _ in range(9):
        f.random_elements(fresh, 5)
    assert searched.bit_generator.state == fresh.bit_generator.state
