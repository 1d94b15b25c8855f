import itertools

import pytest
from hypothesis import given, strategies as st

from liegeom.gf import GF, FieldError, FieldSpec, field, is_irreducible

ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", ORDERS)
def test_field_axioms_exhaustive(q):
    F = field(q)
    els = list(F.elements)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", ORDERS)
def test_frobenius_is_homomorphism(q):
    F = field(q)
    for e in range(F.k + 1):
        for a, b in itertools.product(F.elements, repeat=2):
            fa, fb = F.frobenius(a, e), F.frobenius(b, e)
            assert F.frobenius(F.add(a, b), e) == F.add(fa, fb)
            assert F.frobenius(F.mul(a, b), e) == F.mul(fa, fb)
    for a in F.elements:
        assert F.frobenius(a, F.k) == a
        assert F.frobenius(a, 0) == a


def test_gf2_gf3_basics():
    F2, F3 = field(2), field(3)
    assert F2.add(1, 1) == 0
    assert F3.add(2, 2) == 1
    assert F3.mul(2, 2) == 1
    assert F3.inv(2) == 2
    assert F2.inv(1) == 1


def test_gf4_defining_relation():
    F = field(4)
    g = 2  # the residue class of x
    g_plus_1 = 3
    assert F.add(g, 1) == g_plus_1
    assert F.mul(g, g) == g_plus_1          # x^2 = x + 1
    assert F.inv(g) == g_plus_1             # x(x+1) = x^2 + x = 1
    assert F.frobenius(g, 1) == F.mul(g, g)


def test_gf9_frobenius_matches_cubing_oracle():
    F = field(9)
    # an element with h^2 = h + 1 exists for the fixed modulus
    hs = [h for h in F.elements if F.mul(h, h) == F.add(h, 1)]
    assert hs
    for h in hs:
        cube = F.mul(F.mul(h, h), h)
        assert F.frobenius(h, 1) == cube


def test_subfield_of_gf4_is_gf2():
    F = field(4)
    assert F.subfield_elements(2) == [0, 1]
    assert len(field(16).subfield_elements(4)) == 4
    with pytest.raises(FieldError):
        field(8).subfield_elements(4)


def test_fixed_moduli():
    assert field(4).spec.modulus == (1, 1, 1)
    assert field(8).spec.modulus == (1, 1, 0, 1)
    assert field(9).spec.modulus == (1, 0, 1)
    assert field(16).spec.modulus == (1, 1, 0, 0, 1)


def test_irreducibility_checked():
    assert is_irreducible([1, 1, 1], 2)
    assert not is_irreducible([1, 0, 1], 2)      # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (1, 0, 1))
    with pytest.raises(FieldError):
        GF(32)                                   # beyond the order bound
    with pytest.raises(FieldError):
        GF(6)


def test_element_encoding_base_p():
    F = field(9)
    assert F.vec(5) == (2, 1)                    # 5 = 2 + 1*3
    assert F.unvec((2, 1)) == 5
    with pytest.raises(FieldError):
        F.inv(0)


# -- properties, drawn per field ------------------------------------------------


def _draw(data, F, count):
    return data.draw(st.tuples(*[st.integers(0, F.q - 1)] * count))


@pytest.mark.parametrize("q", ORDERS)
@given(data=st.data())
def test_ring_laws(q, data):
    F = field(q)
    a, b, c = _draw(data, F, 3)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", ORDERS)
@given(data=st.data())
def test_identities_and_inverses(q, data):
    F = field(q)
    (a,) = _draw(data, F, 1)
    assert F.add(a, 0) == F.add(0, a) == a
    assert F.mul(a, 1) == F.mul(1, a) == a
    assert F.mul(a, 0) == 0
    assert F.add(a, F.neg(a)) == 0
    assert F.neg(F.neg(a)) == a
    if a:
        assert F.mul(a, F.inv(a)) == 1
        assert F.inv(F.inv(a)) == a


@pytest.mark.parametrize("q", ORDERS)
@given(data=st.data())
def test_sub_is_add_of_neg(q, data):
    F = field(q)
    a, b = _draw(data, F, 2)
    assert F.sub(a, b) == F.add(a, F.neg(b))
    assert F.add(F.sub(a, b), b) == a
    assert F.sub(a, a) == 0


@pytest.mark.parametrize("q", ORDERS)
@given(data=st.data())
def test_frobenius_is_additive_and_multiplicative(q, data):
    F = field(q)
    a, b = _draw(data, F, 2)
    e = data.draw(st.integers(0, F.k))
    fa, fb = F.frobenius(a, e), F.frobenius(b, e)
    assert F.frobenius(F.add(a, b), e) == F.add(fa, fb)
    assert F.frobenius(F.mul(a, b), e) == F.mul(fa, fb)


@pytest.mark.parametrize("q", [0, 1])
def test_orders_below_two_raise(q):
    # 0 is divisible by every prime, so it is refused before it is split
    with pytest.raises(FieldError):
        field(q)
