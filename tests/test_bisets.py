import numpy as np
import pytest

from bflab.algebra import group_algebra
from bflab.bisets import (BisetError, BisetShape, InvariantBasis,
                          characteristic_report, explicit_invariant_basis,
                          opposite_shape, shape_from_brauer_dims,
                          twisted_classes)
from bflab.blocks import group_basis_invariant
from bflab.fusion import fusion_from_group
from bflab.gf import make_field
from bflab.groups import (TwistedDiagonal, diagonal, group_from_generators,
                          injective_maps, pmul, sylow_subgroup)
from bflab.interior import InteriorAlgebra


C2 = group_from_generators(2, [(1, 0)], "C2")
C3 = group_from_generators(3, [(1, 2, 0)], "C3")
S3 = group_from_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
A4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")
D8 = group_from_generators(4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D8")


def rng():
    return np.random.default_rng(31)


def interior(G, p, D=None):
    e = G.exponent()
    while e % p == 0:
        e //= p
    A = group_algebra(G, make_field(p, e))
    return InteriorAlgebra(A, D if D is not None else sylow_subgroup(G, p))


def test_shape_of_kc2():
    ia = interior(C2, 2)
    shape = shape_from_brauer_dims(ia)
    tc = twisted_classes(ia.D)
    top = tc.class_index(diagonal(ia.D))
    assert shape.multiplicities == {top: 1}
    assert shape.size() == 2


def test_shape_of_trivial_algebra():
    triv = group_from_generators(1, [], "1")
    ia = interior(triv, 2)
    shape = shape_from_brauer_dims(ia)
    assert shape.size() == 1 and list(shape.multiplicities.values()) == [1]


def test_shape_of_p_group_algebra_is_single_diagonal_orbit():
    for G in (D8, C3):
        p = 2 if G.order % 2 == 0 else 3
        ia = interior(G, p)
        shape = shape_from_brauer_dims(ia)
        tc = twisted_classes(ia.D)
        assert shape.multiplicities == {tc.class_index(diagonal(ia.D)): 1}


def test_shape_matches_group_orbit_count_directly():
    # acceptance-style oracle: stabilizer of g is Delta(c_g, D cap D^g)
    for G, p in ((S3, 3), (S3, 2), (A4, 2)):
        ia = interior(G, p)
        shape = shape_from_brauer_dims(ia)
        basis = group_basis_invariant(ia)
        assert basis.shape() == shape
        assert shape.size() == G.order


def test_fixed_counts_match_direct_enumeration():
    for G, p in ((S3, 3), (A4, 2)):
        ia = interior(G, p)
        shape = shape_from_brauer_dims(ia)
        D = ia.D
        for P in (D, D.subgroup([D.identity])):
            for phi in injective_maps(P, D):
                td = TwistedDiagonal(phi)
                direct = sum(
                    1 for g in G.elements
                    if all(pmul(phi(u), g) == pmul(g, u)
                           for u in P.elements))
                assert shape.fixed_count(td) == direct


def test_opposite_shape_involution_and_selfpaired_examples():
    ia = interior(C3, 3)
    shape = shape_from_brauer_dims(ia)
    assert opposite_shape(opposite_shape(shape)) == shape
    assert opposite_shape(shape) == shape     # {Delta(id, C3): 1}
    # inversion twisted class is self-opposite
    tc = twisted_classes(ia.D)
    inv = [phi for phi in injective_maps(ia.D, ia.D)
           if phi.graph != frozenset((x, x) for x in ia.D.elements)][0]
    i = tc.class_index(TwistedDiagonal(inv))
    s2 = BisetShape(ia.D, {i: 1})
    assert opposite_shape(s2) == s2
    # trivial-stabilizer orbits are self-paired
    triv = tc.class_index(TwistedDiagonal(
        injective_maps(ia.D.subgroup([ia.D.identity]), ia.D)[0]))
    s3 = BisetShape(ia.D, {triv: 5})
    assert opposite_shape(s3) == s3


def test_negative_multiplicity_rejected():
    ia = interior(C2, 2)
    with pytest.raises(BisetError):
        BisetShape(ia.D, {0: -1})


def test_explicit_basis_matches_shape_and_brauer_dims():
    # explicit-basis fixed counts must equal the quotient dimensions
    for G, p in ((S3, 3), (S3, 2), (A4, 2)):
        ia = interior(G, p)
        shape = shape_from_brauer_dims(ia)
        basis = explicit_invariant_basis(ia, rng())
        assert basis.shape() == shape
        assert len(basis) == ia.A.dim
        tc = twisted_classes(ia.D)
        f = ia.A.field
        for td in tc.reps:
            bq = ia.brauer(td)
            fixed_vectors = [v for v in basis.vectors
                             if _is_fixed(ia, td, v)]
            assert len(fixed_vectors) == bq.dim
            # their Brauer classes are linearly independent
            if fixed_vectors:
                img = np.array([bq.project(v) for v in fixed_vectors])
                from bflab import linalg
                assert linalg.rank(f, img) == bq.dim


def _is_fixed(ia, td, v):
    for d1, d2 in td.pairs:
        if not np.array_equal(ia.act(d1, d2, v), np.asarray(v)):
            return False
    return True


def test_characteristic_report_nilpotent_true():
    ia = interior(C2, 2)
    shape = shape_from_brauer_dims(ia)
    F = fusion_from_group(ia.D, C2)
    rep = characteristic_report(shape, F, 2)
    assert rep["all"]


def test_characteristic_report_sylow_failure():
    # one free orbit on C2: size 4, |Omega|/|D| = 2 is even
    ia = interior(C2, 2)
    tc = twisted_classes(ia.D)
    triv_idx = [i for i, td in enumerate(tc.reps) if td.order == 1][0]
    shape = BisetShape(ia.D, {triv_idx: 1}, bifree_certified=True)
    F = fusion_from_group(ia.D, C2)
    rep = characteristic_report(shape, F, 2)
    assert not rep["sylow"]
    assert rep["bifree"] and rep["symmetric"]


def test_characteristic_report_generation_failure():
    # the inversion orbit on C3 is not F_{C3}(C3)-generated
    ia = interior(C3, 3)
    tc = twisted_classes(ia.D)
    inv = [phi for phi in injective_maps(ia.D, ia.D)
           if phi.graph != frozenset((x, x) for x in ia.D.elements)][0]
    i = tc.class_index(TwistedDiagonal(inv))
    d = tc.class_index(diagonal(ia.D))
    shape = BisetShape(ia.D, {i: 1, d: 1}, bifree_certified=True)
    F = fusion_from_group(ia.D, C3)
    rep = characteristic_report(shape, F, 3)
    assert not rep["f_generated"]
    F2 = fusion_from_group(ia.D, S3)
    rep2 = characteristic_report(shape, F2, 3)
    assert rep2["f_generated"] and rep2["all"]


def test_is_unital_is_false_on_an_orbit_of_non_units():
    # kV4 over GF(2) as an interior <a>-algebra: the orbits {1, a} and
    # {b, ab} of the group basis are units; {1 + b, a + ab}, the orbit
    # of the nilpotent 1 + b with the same stabilizer Delta(<a>), is not
    V4 = group_from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)], "V4")
    A = group_algebra(V4, make_field(2, 1))
    a, b = (1, 0, 3, 2), (2, 3, 0, 1)
    D = V4.subgroup([V4.identity, a])
    ia = InteriorAlgebra(A, D)
    one, va, vb, vab = (A.basis_vector(A.element_index[g])
                        for g in (V4.identity, a, b, pmul(a, b)))
    stabs = [diagonal(D), diagonal(D)]
    units = InvariantBasis(ia, [one, va, vb, vab], [(0, 2), (2, 2)], stabs)
    assert units.is_unital()
    for first in (False, True):
        orbit = [A.add(one, vb), A.add(va, vab)]
        vectors = orbit + [vb, vab] if first else [one, va] + orbit
        mixed = InvariantBasis(ia, vectors, [(0, 2), (2, 2)], stabs)
        assert not mixed.is_unital()
        assert not all(A.is_unit(v) for v in vectors)
