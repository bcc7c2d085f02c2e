"""A series is stored as its homogeneous parts; these tests check it from
outside, against the plain-dict kernel of tests/series_path.py.

Every op must give the reference's exponential coefficients, the
coefficient views must equal the reference dict and refuse writes, and a
series built from a dict must equal the same values produced by an op.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.polynomials import Poly
from umbrakit.series import (TruncatedSeries, exp_at, exp_table, series_exp,
                             series_log, series_pow, series_subst,
                             vector_reversion)
from umbrakit.umbrae import UmbraTuple

import series_path as sp

t, s = Poly.var("t"), Poly.var("s")

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
in_t_and_s = st.builds(lambda a, b, c: a + b * t + c * s, rationals, rationals, rationals)
coefficient_kinds = st.sampled_from([rationals, in_t_and_s])
rings = st.tuples(st.integers(1, 3), st.integers(0, 6))
exponents = st.sampled_from([Fraction(-1, 2), Fraction(3), t, t - s])


@st.composite
def arrays(draw, ring, coefficients, constant=None):
    """A sparse coefficient dict over the ring; constant fixes g_0."""
    d, order = ring
    cs = {}
    for v in mi.iter_indices(d, order):
        if any(v) or constant is None:
            c = draw(st.none() | coefficients)
            if c is not None:
                cs[v] = c
    if constant is not None:
        cs[(0,) * d] = constant
    return cs


def small(ring):
    """Rings where the dict reference's N full products stay fast."""
    d, order = ring
    return (d, min(order, {1: 6, 2: 4, 3: 3}[d]))


def coeffs_of(f):
    return dict(f.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_ops_match_the_dict_reference(data):
    ring = data.draw(rings)
    d, order = ring
    kind = data.draw(coefficient_kinds)
    A, B = data.draw(arrays(ring, kind)), data.draw(arrays(ring, kind))
    c = data.draw(kind)
    a, b = TruncatedSeries(d, order, A), TruncatedSeries(d, order, B)
    A, B = sp.d_canonical(A, order), sp.d_canonical(B, order)
    assert coeffs_of(a) == A
    assert coeffs_of(a + b) == sp.d_add(A, B, order)
    assert coeffs_of(a - b) == sp.d_sub(A, B, order)
    assert coeffs_of(-a) == sp.d_scale(A, -1, order)
    assert coeffs_of(a.scale(c)) == sp.d_scale(A, c, order)
    assert coeffs_of(a * b) == sp.d_mul(A, B, order)
    assert (a == b) == (A == B)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_recurrences_match_the_dict_reference(data):
    d, order = ring = small(data.draw(rings))
    kind = data.draw(coefficient_kinds)
    H = data.draw(arrays(ring, kind, constant=0))
    F = data.draw(arrays(ring, kind, constant=1))
    e = data.draw(exponents)
    h, f = TruncatedSeries(d, order, H), TruncatedSeries(d, order, F)
    H, F = sp.d_canonical(H, order), sp.d_canonical(F, order)
    assert coeffs_of(series_exp(h)) == sp.d_exp(H, d, order)
    assert coeffs_of(series_log(f)) == sp.d_log(F, d, order)
    assert coeffs_of(series_pow(f, -1)) == sp.d_reciprocal(F, d, order)
    assert coeffs_of(series_pow(f, e)) == sp.d_pow(F, e, d, order)
    p = data.draw(st.sampled_from([Fraction(2), Fraction(-1, 3), t, t - s]))
    got = exp_at(exp_table(h), p, d, order)
    assert coeffs_of(got) == sp.d_exp(sp.d_scale(H, p, order), d, order)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_subst_matches_the_dict_reference(data):
    d, order = data.draw(rings)
    target = small(data.draw(rings))
    kind = data.draw(coefficient_kinds)
    F = data.draw(arrays((d, order), kind))
    inners = [data.draw(arrays(target, kind, constant=0)) for _ in range(d)]
    got = series_subst(TruncatedSeries(d, order, F),
                       [TruncatedSeries(*target, G) for G in inners])
    want = sp.d_subst(sp.d_canonical(F, order),
                      [sp.d_canonical(G, target[1]) for G in inners], *target)
    assert coeffs_of(got) == want


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_vector_reversion_inverts_under_the_dict_reference(data):
    d, order = ring = small(data.draw(rings))
    Fs = []
    for i in range(d):
        F = data.draw(arrays(ring, rationals, constant=1))
        # a unit lower-triangular Jacobian, so the map is invertible
        for j in range(d):
            e = tuple(int(k == j) for k in range(d))
            F[e] = 1 if i == j else data.draw(rationals) if j < i else 0
        Fs.append(F)
    gs = vector_reversion([TruncatedSeries(d, order, F) for F in Fs])
    one = sp.d_one(d)
    inners = [sp.d_sub(coeffs_of(g), one, order) for g in gs]
    for i, F in enumerate(Fs):
        F = sp.d_sub(sp.d_canonical(F, order), one, order)
        unit = tuple(int(k == i) for k in range(d))
        assert sp.d_subst(F, inners, d, order) == sp.d_canonical({unit: 1}, order)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_views_equal_the_reference_and_refuse_writes(data):
    d, order = ring = data.draw(rings)
    M = data.draw(arrays(ring, data.draw(coefficient_kinds), constant=1))
    f = TruncatedSeries(d, order, M)
    mu = UmbraTuple(d, order, M)
    want = sp.d_canonical(M, order)
    assert f.coeffs == want and mu.moments == want
    assert f.ordinary() == {v: c / mi.mi_factorial(v) for v, c in want.items()}
    for v in mi.iter_indices(d, order):
        assert f.get(v) == mu.eval_power(v) == want.get(v, 0)
    zero = (0,) * d
    for view in (f.coeffs, mu.moments, mu.tuple_sum(mu).moments):
        with pytest.raises(TypeError):
            view[zero] = 2
        with pytest.raises(AttributeError):
            view.pop(zero)
    assert f.get(zero) == 1 and mu.eval_power(zero) == 1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_series_from_a_dict_equals_the_same_values_from_an_op(data):
    d, order = ring = small(data.draw(rings))
    kind = data.draw(coefficient_kinds)
    a = TruncatedSeries(d, order, data.draw(arrays(ring, kind)))
    b = TruncatedSeries(d, order, data.draw(arrays(ring, kind)))
    for op in (a * b, a + b, a.scale(t)):
        assert TruncatedSeries(d, order, op.coeffs) == op
        assert TruncatedSeries(d, order, dict(op.coeffs)).coeffs == op.coeffs


def test_a_poly_constant_equals_a_rational():
    as_poly = TruncatedSeries(2, 3, {(0, 0): Poly(("t",), {(0,): 3}),
                                     (1, 1): Poly(("s", "t"), {(0, 0): Fraction(-1, 2)})})
    as_rational = TruncatedSeries(2, 3, {(0, 0): 3, (1, 1): Fraction(-1, 2)})
    assert as_poly == as_rational
    assert as_poly.coeffs == as_rational.coeffs
    assert all(type(c) is Fraction for c in as_poly.coeffs.values())
    # an op whose parameter terms cancel gives the same canonical values
    with_t = TruncatedSeries(2, 3, {(0, 0): 3 + t, (1, 1): t - Fraction(1, 2)})
    cancelled = with_t - TruncatedSeries(2, 3, {(0, 0): t, (1, 1): t})
    assert cancelled == as_rational
    assert cancelled.coeffs == as_rational.coeffs
    assert all(type(c) is Fraction for c in cancelled.coeffs.values())
    assert TruncatedSeries.one(2, 3).scale(Poly(("t",), {(0,): 3})) == \
        TruncatedSeries(2, 3, {(0, 0): 3})
