"""Exact sparse polynomials with arbitrary-precision coefficients."""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspotty.errors import IntegrityError, ParameterError
from mspotty.polynomial import Polynomial


def _random_poly(rng, max_deg=6, max_coeff=50):
    return Polynomial(
        {
            e: rng.randint(-max_coeff, max_coeff)
            for e in rng.sample(range(max_deg + 1), rng.randrange(max_deg + 1))
        }
    )


def test_construction_drops_zeros():
    p = Polynomial({0: 1, 3: 0, 5: 2})
    assert p.coeff(3) == 0
    assert list(p.terms()) == [(0, 1), (5, 2)]
    assert Polynomial({2: 0}) == Polynomial.zero()


def test_negative_exponent_rejected():
    with pytest.raises(ParameterError):
        Polynomial({-1: 3})


def test_exponents_coefficients_and_divisors_are_ints():
    """Terms and divisors are read through `operator.index`: numpy integers
    pass, a float or str is refused rather than kept or rounded."""
    p = Polynomial({np.int64(2): np.uint8(4)}).exact_div(np.int64(2))
    assert p == Polynomial({2: 2})
    assert all(type(x) is int for term in p.terms() for x in term)
    for terms in [{0.5: 1}, {0: 4.0}, {"1": 1}, {1: "1"}]:
        with pytest.raises(ParameterError):
            Polynomial(terms)
    for bad in [0.5, 2.0]:
        with pytest.raises(ParameterError):
            Polynomial({0: 1}).scale(bad)
    for bad in [2.0, "2"]:
        with pytest.raises(ParameterError):
            Polynomial({0: 4}).exact_div(bad)
        with pytest.raises(ParameterError):
            Polynomial({1: 1}) ** bad
        with pytest.raises(ParameterError):
            Polynomial({1: 1})(bad)
    assert Polynomial({1: 1}) ** np.int64(2) == Polynomial({2: 1})
    assert Polynomial({40: 1})(np.int64(3)) == 3**40  # wraps in int64


def test_basics():
    p = Polynomial({0: 1, 2: -3})
    assert p.degree() == 2
    assert Polynomial.zero().degree() == -1
    assert not Polynomial.zero()
    assert Polynomial.one()(123) == 1
    assert Polynomial.monomial(4, 7) == Polynomial({4: 7})


def test_ring_identities_random():
    rng = random.Random(7)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p - q) + q == p
        assert p * Polynomial.one() == p
        assert (p * Polynomial.zero()).is_zero()


_polys = st.dictionaries(
    st.integers(0, 12), st.integers(-(1 << 80), 1 << 80), max_size=6
).map(Polynomial)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_laws_property(p, q, r):
    zero, one = Polynomial.zero(), Polynomial.one()
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert (p - p).is_zero()


@settings(max_examples=200, deadline=None)
@given(
    _polys,
    _polys,
    st.integers(-(1 << 40), 1 << 40) | st.integers(1, 400).map(lambda k: 1 << k),
)
def test_evaluation_is_a_ring_homomorphism(p, q, x):
    # the packed MacWilliams transform evaluates at x = 2^K and relies on this
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def test_pow_matches_repeated_mul():
    rng = random.Random(13)
    for _ in range(50):
        p = _random_poly(rng, max_deg=3)
        acc = Polynomial.one()
        for k in range(5):
            assert p**k == acc
            acc = acc * p
    with pytest.raises(ParameterError):
        _random_poly(rng) ** -1


def test_eval_matches_terms():
    rng = random.Random(3)
    for _ in range(100):
        p = _random_poly(rng)
        for x in (-2, -1, 0, 1, 3):
            assert p(x) == sum(c * x**e for e, c in p.terms())


def test_eval_at_one_is_coefficient_sum():
    p = Polynomial({0: 1, 1: 85, 2: 3153, 3: 9707, 4: 19822})
    assert p(1) == 32768


def test_scale_and_exact_div():
    rng = random.Random(29)
    for _ in range(100):
        p = _random_poly(rng)
        assert p.scale(6).exact_div(6) == p
        assert p.scale(0).is_zero()
    with pytest.raises(IntegrityError):
        Polynomial({0: 3, 1: 2}).exact_div(2)
    with pytest.raises(ParameterError):
        Polynomial({0: 2}).exact_div(0)
    with pytest.raises(ParameterError):
        Polynomial({0: 2}).exact_div(-2)


def test_big_coefficients_stay_exact():
    p = Polynomial({0: 10**40 + 1})
    q = p * p
    assert q.coeff(0) == (10**40 + 1) ** 2
    assert q.exact_div(10**40 + 1) == p


def test_str_formatting():
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.one()) == "1"
    assert str(Polynomial({1: 1})) == "z"
    assert str(Polynomial({0: 1, 1: -1})) == "1 - z"
    assert str(Polynomial({0: 1, 1: 224, 2: -225})) == "1 + 224z - 225z^2"
    assert str(Polynomial({2: -1})) == "-z^2"
    assert str(Polynomial({0: -5, 3: 7})) == "-5 + 7z^3"


def test_json_terms_round_trip():
    rng = random.Random(41)
    for _ in range(50):
        p = _random_poly(rng)
        terms = p.to_json_terms()
        assert all(isinstance(t["coeff"], str) for t in terms)
        assert Polynomial.from_json_terms(terms) == p
    assert Polynomial.from_json_terms([]) == Polynomial.zero()


def test_hash_and_eq():
    a = Polynomial({0: 1, 2: 2})
    b = Polynomial([(2, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Polynomial({0: 1})
    assert a != "1 + 2z^2"


def test_round_trips_through_pickle_and_copy():
    for p in (Polynomial(), Polynomial({0: 1, 3: -(1 << 90), 7: 5})):
        for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert type(back) is Polynomial
            assert back == p and list(back.terms()) == list(p.terms())
