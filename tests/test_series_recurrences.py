"""The graded series kernel against the product-loop reference.

exp, log, reciprocal and pow run degree recurrences, products and
substitution work on homogeneous parts, and reversion uses precision
doubling.  All of it is exact, so it must agree with tests/series_path.py
to the last rational.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.polynomials import Poly
from umbrakit.series import (TruncatedSeries, reciprocal, series_exp,
                             series_log, series_pow, series_reversion,
                             series_subst, vector_reversion)

import series_path as sp
from oracles import lagrange_reversion

r, t, s = Poly.var("r"), Poly.var("t"), Poly.var("s")

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
linear_in_r = st.builds(lambda a, b: a + b * r, rationals, rationals)


@st.composite
def rings(draw):
    d = draw(st.integers(1, 3))
    return d, draw(st.integers(0, 6))


@st.composite
def series(draw, ring=None, constant=None, coefficients=rationals):
    """A series with sparse random coefficients; constant fixes g_0."""
    d, order = ring or draw(rings())
    cs = {}
    for v in mi.iter_indices(d, order):
        if any(v) or constant is None:
            c = draw(st.none() | coefficients)
            if c is not None:
                cs[v] = c
    if constant is not None:
        cs[(0,) * d] = constant
    return TruncatedSeries(d, order, cs)


coefficient_kinds = st.sampled_from([rationals, linear_in_r])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exp_matches_product_loop(data):
    f = data.draw(series(constant=0, coefficients=data.draw(coefficient_kinds)))
    assert series_exp(f) == sp.exp(f)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_log_and_reciprocal_match_product_loop(data):
    f = data.draw(series(constant=1, coefficients=data.draw(coefficient_kinds)))
    assert series_log(f) == sp.log(f)
    assert reciprocal(f) == sp.reciprocal(f)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(-7, 3),
                                   Fraction(0), Fraction(3), t, -t, t - s]))
def test_pow_matches_exp_of_log(data, e):
    f = data.draw(series(constant=1, coefficients=data.draw(coefficient_kinds)))
    assert series_pow(f, e) == sp.pow(f, e)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mul_matches_pairwise_product(data):
    ring = data.draw(rings())
    kind = data.draw(coefficient_kinds)
    a = data.draw(series(ring, coefficients=kind))
    b = data.draw(series(ring, coefficients=kind))
    assert a * b == sp.mul(a, b)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_subst_matches_full_powers(data):
    d, order = data.draw(rings())
    target = (data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6)))
    kind = data.draw(coefficient_kinds)
    f = data.draw(series((d, order), coefficients=kind))
    inners = [data.draw(series(target, constant=0, coefficients=kind))
              for _ in range(d)]
    assert series_subst(f, inners) == sp.subst(f, inners)


def test_bad_constant_terms_keep_their_errors():
    f = TruncatedSeries(2, 3, {(0, 0): 2, (1, 0): 1})
    with pytest.raises(ValueError, match="series_exp needs zero constant term"):
        series_exp(f)
    with pytest.raises(ValueError, match="series_log needs constant term 1"):
        series_log(f)
    with pytest.raises(ValueError, match="reciprocal needs constant term 1"):
        reciprocal(f)
    with pytest.raises(ValueError, match="series_pow needs constant term 1"):
        series_pow(f, t)


def random_univariate(rnd, order):
    cs = {(0,): Fraction(1), (1,): Fraction(rnd.choice([1, -1, 2, -3]), rnd.randint(1, 3))}
    for k in range(2, order + 1):
        cs[(k,)] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
    return TruncatedSeries(1, order, cs)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12, 24])
def test_reversion_round_trips_at_every_schedule(order):
    # orders off the powers of two end the doubling on a partial step
    rnd = random.Random(order)
    one = TruncatedSeries.one(1, order)
    z = TruncatedSeries.variable(1, order, 0)
    for _ in range(2):
        f = random_univariate(rnd, order)
        g = series_reversion(f)
        assert sp.subst(f - one, [g - one]) == z
        assert sp.subst(g - one, [f - one]) == z
        F = [Fraction(0)] + [f.ordinary().get((k,), Fraction(0))
                             for k in range(1, order + 1)]
        got = (g - one).ordinary()
        assert [got.get((k,), Fraction(0)) for k in range(1, order + 1)] == \
            lagrange_reversion(F, order)[1:]


def test_vector_reversion_round_trip_d3():
    d, order = 3, 5
    rnd = random.Random(3)
    one = TruncatedSeries.one(d, order)
    for _ in range(2):
        fs = []
        for i in range(d):
            # unit lower-triangular Jacobian, dense higher terms
            cs = {v: Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
                  for v in mi.iter_indices(d, order) if mi.total(v) >= 2}
            cs[(0,) * d] = Fraction(1)
            for j in range(d):
                e = tuple(int(k == j) for k in range(d))
                cs[e] = Fraction(1) if i == j else \
                    Fraction(rnd.randint(-2, 2)) if j < i else Fraction(0)
            fs.append(TruncatedSeries(d, order, cs))
        gs = vector_reversion(fs)
        for i in range(d):
            assert sp.subst(fs[i] - one, [g - one for g in gs]) == \
                TruncatedSeries.variable(d, order, i)
