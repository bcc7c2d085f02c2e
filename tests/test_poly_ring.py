"""The integer-numerator Poly against the Fraction-dict reference.

Both hold the same exact values, so every operation must agree to the
last rational: the same variables, the same coefficients and the same
text.  The order of the terms is not part of a polynomial's value.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit.polynomials import Poly

import poly_path as ref

NAMES = ("s", "t", "x1", "x2")

tiny = st.fractions(min_value=-3, max_value=3, max_denominator=4)
large = st.builds(Fraction,
                  st.integers(-2 ** 90, 2 ** 90),
                  st.integers(1, 2 ** 70))
rationals = st.one_of(tiny, large, st.integers(-5, 5))


@st.composite
def pairs(draw, max_terms=5):
    """The same polynomial in both rings, over a random subset of NAMES
    (possibly empty), with exponents that may leave a variable unused."""
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES), max_size=3))))
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, 2)) for _ in names)
        terms[e] = draw(rationals)
    return Poly(names, terms), ref.Poly(names, terms)


def same(p, q):
    """p (package) and q (reference) agree exactly."""
    assert type(p) is Poly
    assert p.vars == q.vars
    assert p.terms == q.terms
    assert str(p) == str(q)


@settings(max_examples=150, deadline=None)
@given(pairs(), pairs())
def test_ring_operations(a, b):
    (p, rp), (q, rq) = a, b
    same(p + q, rp + rq)
    same(p - q, rp - rq)
    same(p * q, rp * rq)
    same(-p, -rp)
    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)


@settings(max_examples=150, deadline=None)
@given(pairs(), rationals)
def test_scalars_on_both_sides(a, c):
    p, rp = a
    for x, rx in ((c, c), (Poly.const(c), ref.Poly.const(c))):
        same(p + x, rp + rx)
        same(x + p, rx + rp)
        same(p - x, rp - rx)
        same(x - p, rx - rp)
        same(p * x, rp * rx)
        same(x * p, rx * rp)
    if c:
        same(p / c, rp / c)
    else:
        with pytest.raises(ZeroDivisionError):
            p / c
    assert (p == c) == (rp == c)


@settings(max_examples=100, deadline=None)
@given(pairs(max_terms=3), st.integers(0, 4))
def test_powers(a, n):
    p, rp = a
    same(p ** n, rp ** n)


@settings(max_examples=150, deadline=None)
@given(pairs(), st.sampled_from(NAMES), st.integers(0, 2))
def test_structure(a, name, power):
    p, rp = a
    assert p.degree(name) == rp.degree(name)
    same(p.coefficient(name, power), rp.coefficient(name, power))
    assert p.is_zero() == rp.is_zero()
    assert p.is_constant() == rp.is_constant()
    if rp.is_constant():
        assert p.constant_value() == rp.constant_value()


@st.composite
def substitutions(draw):
    keys = draw(st.sets(st.sampled_from(NAMES), max_size=3))
    out, out_ref = {}, {}
    for k in sorted(keys):
        if draw(st.booleans()):
            c = draw(rationals)
            out[k], out_ref[k] = c, c
        else:
            out[k], out_ref[k] = draw(pairs(max_terms=3))
    return out, out_ref


@settings(max_examples=150, deadline=None)
@given(pairs(), substitutions())
def test_subs(a, mapping):
    p, rp = a
    same(p.subs(mapping[0]), rp.subs(mapping[1]))


@settings(max_examples=100, deadline=None)
@given(pairs(), st.sampled_from(NAMES), st.integers(1, 3), pairs(max_terms=3))
def test_reduce_power(a, name, order, rep):
    p, rp = a
    same(p.reduce_power(name, order, rep[0]), rp.reduce_power(name, order, rep[1]))


@settings(max_examples=100, deadline=None)
@given(pairs(), pairs())
def test_cancellation_is_canonical(a, b):
    p, _ = a
    q, _ = b
    for zero in (p - p, p + (-p), (p + q) - q - p, p * 0):
        assert zero.is_zero() and zero == 0
        assert (zero._nums, zero._den) == ({}, 1)
        assert hash(zero) == hash(0)
    # one common denominator, reduced against every numerator
    for r in (p + q, p * q, p - q):
        assert r._den > 0 and math.gcd(r._den, *r._nums.values()) == 1


@settings(max_examples=150, deadline=None)
@given(pairs(), st.sampled_from(NAMES))
def test_hash_ignores_zero_degree_variables(a, extra):
    p, _ = a
    if extra in p.vars:
        return
    names = tuple(sorted(p.vars + (extra,)))
    i = names.index(extra)
    q = Poly(names, {e[:i] + (0,) + e[i:]: c for e, c in p.terms.items()})
    assert p == q and q == p
    assert hash(p) == hash(q)


@given(rationals)
def test_constants_hash_like_their_scalar(c):
    for p in (Poly.const(c), Poly(("t",), {(0,): c}), Poly(("s", "t"), {(0, 0): c})):
        assert p == c
        assert hash(p) == hash(c) == hash(Fraction(c))
    assert hash(Poly.const(Fraction(c)) + Poly.var("t") - Poly.var("t")) == hash(c)


def test_terms_cannot_change_the_polynomial():
    p = Poly.var("t") + 1
    p.terms[(0,)] = Fraction(2)
    assert p == Poly.var("t") + 1
    with pytest.raises(AttributeError):
        p.vars = ("s",)
