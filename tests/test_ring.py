"""Chain-ring arithmetic, the character, and the A/B partition machinery."""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mspotty.code import parse_matrix_text
from mspotty.errors import ParameterError
from mspotty.ring import (
    RingElement,
    chi,
    elements,
    format_element,
    ideal_elements,
    monomial,
    mul_bits,
    one,
    parse_element,
    partition,
    satisfies_partition_axioms,
    units,
    zero,
)


def test_add_is_self_inverse():
    for x in elements(4):
        assert (x + x).is_zero()
        assert x - x == x + x


def test_mul_examples():
    m = 4
    u = monomial(m, 1)
    assert (one(m) + u) * (one(m) + u) == one(m) + monomial(m, 2)
    assert monomial(m, 3) * u == zero(m)  # u^4 = 0
    assert monomial(m, 2) * monomial(m, 1) == monomial(m, 3)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randrange(1, 7)
        a, b, c = (RingElement(m, rng.randrange(1 << m)) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one(m) == a
        assert (a * zero(m)).is_zero()


def test_units_are_odd_masks_and_invertible():
    for m in range(1, 9):
        us = list(units(m))
        assert len(us) == 1 << (m - 1)
        assert sum(x.is_unit() for x in elements(m)) == 1 << (m - 1)
        for x in us:
            assert any((x * y) == one(m) for y in us)


def test_nonunits_are_nilpotent():
    for m in range(1, 6):
        for x in elements(m):
            if x.is_unit():
                continue
            p = x
            for _ in range(m):
                p = p * x
            assert p.is_zero()


def test_ideal_chain():
    m = 5
    sizes = [len(ideal_elements(m, k)) for k in range(m + 1)]
    assert sizes == [32, 16, 8, 4, 2, 1]
    for k in range(m):
        assert ideal_elements(m, k + 1) < ideal_elements(m, k)
    assert ideal_elements(m, m) == frozenset({zero(m)})
    with pytest.raises(ParameterError):
        ideal_elements(m, m + 1)


def test_ideals_absorb_multiplication():
    m = 4
    for k in range(m + 1):
        ideal = ideal_elements(m, k)
        for x in ideal:
            for r in elements(m):
                assert x * r in ideal


def test_chi_is_multiplicative_over_addition():
    for m in range(1, 6):
        for x in elements(m):
            for y in elements(m):
                assert chi(x + y) == chi(x) * chi(y)
        assert chi(zero(m)) == 1
        assert chi(monomial(m, m - 1)) == -1


def test_chi_m1_is_classical():
    assert chi(zero(1)) == 1
    assert chi(one(1)) == -1


def test_partition_satisfies_axioms():
    for m in range(2, 9):
        A, B = partition(m)
        assert len(A) == len(B) == 1 << (m - 1)
        assert A | B == frozenset(elements(m))
        assert satisfies_partition_axioms(m, A)
        # chi is exactly the indicator of the split
        assert all(chi(x) == 1 for x in A)
        assert all(chi(x) == -1 for x in B)


def test_partition_m1_rejected():
    with pytest.raises(ParameterError):
        partition(1)
    assert not satisfies_partition_axioms(1, frozenset({zero(1)}))


def test_partition_axioms_reject_wrong_sets():
    m = 3
    A, B = partition(m)
    # swap one element across the split: closure must break
    a = next(iter(A - {zero(m), one(m)}))
    b = next(iter(B))
    tampered = (A - {a}) | {b}
    assert not satisfies_partition_axioms(m, tampered)
    # wrong size
    assert not satisfies_partition_axioms(m, A | {b})


def test_partition_m4_canonical_set():
    A, B = partition(4)
    assert A == frozenset(RingElement(4, i) for i in range(8))
    assert B == frozenset(RingElement(4, i) for i in range(8, 16))


def test_mul_bits_matches_table_and_formula():
    # the product vs the carry-less definition, for small and larger m
    for m in (2, 3, 8, 9, 12):
        rng = random.Random(m)
        for _ in range(50):
            a, b = rng.randrange(1 << m), rng.randrange(1 << m)
            acc = 0
            for i in range(m):
                if (a >> i) & 1:
                    acc ^= (b << i) & ((1 << m) - 1)
            assert mul_bits(a, b, m) == acc


def test_element_ordering_and_hash():
    xs = sorted(elements(3), reverse=True)
    assert [x.bits for x in sorted(xs)] == list(range(8))
    assert len({x for x in elements(3)} | {x for x in elements(3)}) == 8


def test_immutability():
    x = one(4)
    with pytest.raises(AttributeError):
        x.bits = 3


def test_format_parse_round_trip():
    for m in (1, 2, 4, 7):
        for x in elements(m):
            assert parse_element(format_element(x), m) == x


def test_parse_aliases_and_whitespace():
    assert parse_element("u^2", 4) == monomial(4, 2)
    assert parse_element(" 1 + u3 ", 4) == one(4) + monomial(4, 3)
    assert parse_element("u2+1", 4) == parse_element("1+u2", 4)
    assert format_element(one(4) + monomial(4, 1)) == "1+u"
    # leading zeros are read as text, past the digits int() would take
    assert parse_element("u" + "0" * 5000 + "3", 4) == monomial(4, 3)


@pytest.mark.parametrize(
    "bad",
    ["", "0+1", "1+1", "u+u", "u4", "u^4", "u0", "2", "x", "1++u", "-1", "0 0"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParameterError):
        parse_element(bad, 4)


def test_parse_zero():
    assert parse_element("0", 4).is_zero()
    assert format_element(zero(4)) == "0"


def test_m_bounds():
    with pytest.raises(ParameterError):
        zero(0)
    with pytest.raises(ParameterError):
        zero(17)
    # the top of the supported range still works
    x = monomial(16, 15)
    assert (x * monomial(16, 1)).is_zero()


def test_ring_parameters_are_read_through_operator_index():
    """m, a coefficient mask and an exponent follow the package's integer
    rule: numpy integers pass and are stored as ints, and a float is
    refused with ParameterError, where it used to be kept (so that `repr`
    raised TypeError) or to raise a bare TypeError."""
    x = RingElement(np.int64(2), np.uint8(3))
    assert x == RingElement(2, 3) and repr(x) == "RingElement(m=2, '1+u')"
    assert type(x.m) is int and type(x.bits) is int
    assert monomial(np.int64(4), np.int64(1)) == monomial(4, 1)
    assert ideal_elements(np.int64(3), np.int64(1)) == ideal_elements(3, 1)
    assert [type(y.m) for y in elements(np.int64(1))] == [int, int]
    for bad in (lambda: RingElement(2, 1.0), lambda: RingElement(2.0, 1),
                lambda: monomial(4, 1.0), lambda: monomial(4.0, 1),
                lambda: ideal_elements(3, 1.0), lambda: zero("2")):
        with pytest.raises(ParameterError, match="must be an int"):
            bad()


_any_element = st.integers(1, 16).flatmap(
    lambda m: st.integers(0, (1 << m) - 1).map(lambda bits: RingElement(m, bits))
)


@given(_any_element)
def test_format_parse_round_trip_property(x):
    text = format_element(x)
    assert parse_element(text, x.m) == x
    G = parse_matrix_text(f"m={x.m} b=1 t=1\n{text}\n")
    assert G.rows == ((x,),)


def test_ring_element_round_trips_through_pickle_and_copy():
    for x in (zero(1), one(4), monomial(16, 15), RingElement(8, 0xA5)):
        for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(back) is RingElement
            assert back == x and back.m == x.m and back.bits == x.bits
