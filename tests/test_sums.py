"""Tuple and disjoint sums from the generating function against the
moment-wise reference in sum_path.py.

Both paths are exact, so they must agree to the last rational.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.polynomials import Poly
from umbrakit.series import OrderMismatchError
from umbrakit.umbrae import UmbraTuple

import sum_path as sp

r = Poly.var("r")
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)
# moments that are rationals or polynomials in a parameter r
MOMENTS = st.one_of(RATIONALS, st.builds(lambda a, b: a + b * r, RATIONALS, RATIONALS))


@st.composite
def pairs(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))

    def array():
        ms = {(0,) * d: Fraction(1)}
        for v in mi.iter_indices(d, order):
            if any(v):
                ms[v] = draw(MOMENTS)
        return UmbraTuple(d, order, ms)

    return array(), array()


@settings(max_examples=25, deadline=None)
@given(pairs())
def test_tuple_sum_is_the_gf_product(pair):
    mu, nu = pair
    assert mu.tuple_sum(nu) == sp.tuple_sum(mu, nu)
    assert mu + nu == sp.tuple_sum(nu, mu)


@settings(max_examples=25, deadline=None)
@given(pairs())
def test_disjoint_sum_is_the_gf_sum_less_one(pair):
    mu, nu = pair
    assert mu.disjoint_sum(nu) == sp.disjoint_sum(mu, nu)


def test_sums_need_one_ring():
    mu = UmbraTuple(1, 3, {(0,): 1, (1,): 2})
    for other in (UmbraTuple(1, 2, {(0,): 1}), UmbraTuple(2, 3, {(0, 0): 1})):
        with pytest.raises(OrderMismatchError):
            mu.tuple_sum(other)
        with pytest.raises(OrderMismatchError):
            mu.disjoint_sum(other)
