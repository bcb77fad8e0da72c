import numpy as np
import pytest

from bflab.gf import FiniteField, field, make_field, p_part

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    f = field(p, m)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 1), (2, 3)])
def test_associativity_distributivity(p, m):
    f = field(p, m)
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = (int(x) for x in f.random_elements(rng, 3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_vectorized_matches_scalar():
    f = field(3, 2)
    rng = np.random.default_rng(11)
    a = f.random_elements(rng, 50)
    b = f.random_elements(rng, 50)
    for i in range(50):
        assert int(f.add(a, b)[i]) == f.add(int(a[i]), int(b[i]))
        assert int(f.mul(a, b)[i]) == f.mul(int(a[i]), int(b[i]))
        assert int(f.sub(a, b)[i]) == f.sub(int(a[i]), int(b[i]))


def test_make_field_examples():
    # minimal m with e | p^m - 1, scanned directly
    assert (make_field(2, 3).p, make_field(2, 3).m) == (2, 2)   # GF(4)
    assert (make_field(3, 1).p, make_field(3, 1).m) == (3, 1)   # GF(3)
    assert (make_field(2, 7).p, make_field(2, 7).m) == (2, 3)   # GF(8)


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 3)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 2)  # e not prime to p


def test_order_overflow():
    with pytest.raises(ValueError):
        FiniteField(2, 70)


def test_modulus_is_deterministic_lowest():
    # GF(4): x^2 + x + 1 is the only (hence lowest) irreducible quadratic
    assert field(2, 2).modulus == (1, 1, 1)
    # GF(8): x^3 + x + 1 comes before x^3 + x^2 + 1 in code order
    assert field(2, 3).modulus == (1, 1, 0, 1)


def test_frobenius_roots():
    f = field(3, 2)
    for a in f.elements():
        assert f.frobenius(f.frobenius_inv(a)) == a
        assert f.pow(a, 3) == f.frobenius(a)
    # the unique p^k-th root, for every k up to m (k = 0 and k = m: a)
    for p, m in ((2, 2), (3, 2), (3, 4)):
        f = field(p, m)
        for k in range(m + 1):
            for a in f.elements():
                root = f.frobenius_inv(a, k)
                assert f.pow(root, p ** k) == a
                if k in (0, m):
                    assert root == a


def test_p_part_rejects_p_below_two():
    assert p_part(48, 2) == 16 and p_part(48, 3) == 3 and p_part(5, 7) == 1
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            p_part(12, p)
