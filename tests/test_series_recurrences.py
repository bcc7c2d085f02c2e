"""The graded series kernel against the product-loop reference.

exp, log and pow, the reciprocal being pow at -1, run degree
recurrences, products and substitution work on homogeneous parts, and
reversion is solved degree by degree.  All of it is exact, so it must
agree with tests/series_path.py to the last rational.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.polynomials import Poly, as_poly, parse_poly
from umbrakit.processes import ig_quadratic
from umbrakit.series import (TruncatedSeries, _z_vars, series_exp, series_log,
                             series_pow, series_reversion, series_subst,
                             vector_reversion)

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
    assert series_pow(f, -1) == sp.reciprocal(f)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(-7, 3),
                                   Fraction(0), Fraction(3), t, -t, t - s]))
def test_pow_matches_exp_of_log(data, e):
    f = data.draw(series(constant=1, coefficients=data.draw(coefficient_kinds)))
    assert series_pow(f, e) == sp.pow(f, e)


# The two checks below use products and f**-1 only, never exp or log.
linear_in_a = st.builds(lambda x, y: x + y * Poly.var("a"), rationals, rationals)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_variable_pow_is_the_integer_powers_at_t_equals_n(data):
    # each coefficient of f**t is a polynomial in t of degree <= N, so it
    # is fixed by its values at t = 0..N, and those are f**n
    f = data.draw(series(constant=1, coefficients=rationals | linear_in_a))
    g = series_pow(f, t)
    assert all(as_poly(c).degree("t") <= f.order for c in g.coeffs.values())
    for n in range(f.order + 1):
        assert g.map_coeffs(lambda c: as_poly(c).subs({"t": n})) == f ** n


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(-3, 3), st.integers(1, 3))
def test_rational_pow_to_the_denominator_is_an_integer_power(data, p, q):
    f = data.draw(series(constant=1, coefficients=data.draw(coefficient_kinds)))
    g = series_pow(f, Fraction(p, q))
    # g^q = f^p, written with products only: g^q f^-p = 1 for p < 0
    assert g ** q * f ** max(-p, 0) == f ** max(p, 0)
    assert series_pow(f, 0) == TruncatedSeries.one(f.dim, f.order)
    assert series_pow(f, 1) == f
    assert series_pow(f, -1) == sp.reciprocal(f)


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


# Coefficients that mix Fractions with Polys over different variable sets,
# constant Polys that carry a variable, and names that look like the
# reserved series variables.
VARIABLE_SETS = [("t",), ("s", "t"), ("t", "x1"), ("Z1", "_z1", "z1")]


@st.composite
def mixed_coefficients(draw):
    kind = draw(st.integers(0, len(VARIABLE_SETS) + 1))
    if kind == len(VARIABLE_SETS):
        return draw(rationals)
    if kind > len(VARIABLE_SETS):
        return Poly(("t",), {(0,): draw(rationals)})
    names = VARIABLE_SETS[kind]
    exponents = st.tuples(*[st.integers(0, 2)] * len(names))
    return Poly(names, draw(st.dictionaries(exponents, rationals, max_size=3)))


small_rings = st.sampled_from([(1, 5), (2, 0), (2, 3), (2, 4), (3, 2), (3, 3)])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mixed_rings_mul_and_subst(data):
    ring = data.draw(small_rings)
    a = data.draw(series(ring, coefficients=mixed_coefficients()))
    b = data.draw(series(ring, coefficients=mixed_coefficients()))
    assert a * b == sp.mul(a, b)
    target = data.draw(small_rings)
    inners = [data.draw(series(target, constant=0, coefficients=mixed_coefficients()))
              for _ in range(ring[0])]
    assert series_subst(a, inners) == sp.subst(a, inners)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mixed_rings_exp_log_reciprocal(data):
    ring = data.draw(small_rings)
    f0 = data.draw(series(ring, constant=0, coefficients=mixed_coefficients()))
    f1 = data.draw(series(ring, constant=1, coefficients=mixed_coefficients()))
    assert series_exp(f0) == sp.exp(f0)
    assert series_log(f1) == sp.log(f1)
    assert series_pow(f1, -1) == sp.reciprocal(f1)


@settings(max_examples=25, deadline=None)
@given(st.data(), st.sampled_from([Fraction(-5, 2), t, t - s, Poly.var("z1"),
                                   Poly(("t",), {(0,): Fraction(1, 3)})]))
def test_mixed_rings_pow(data, e):
    f = data.draw(series(data.draw(small_rings), constant=1,
                         coefficients=mixed_coefficients()))
    assert series_pow(f, e) == sp.pow(f, e)


def test_parse_poly_never_makes_a_reserved_series_variable():
    for name in _z_vars(8) + _z_vars(12):
        for text in (name, f"2*{name}^2 + t", f"t*{name}"):
            with pytest.raises(ValueError, match="malformed factor"):
                parse_poly(text)


@pytest.mark.parametrize("name", ["~z1", "~z9", "~zz", "\u00e9"])
def test_kernel_rejects_a_variable_that_does_not_sort_first(name):
    # the constructor grades its dict, so it rejects the coefficient itself
    with pytest.raises(ValueError, match="reserved series variables"):
        TruncatedSeries(1, 2, {(0,): 1, (1,): Poly.var(name)})
    with pytest.raises(ValueError, match="reserved series variables"):
        TruncatedSeries.one(1, 2).scale(Poly.var(name))


def test_bad_constant_terms_keep_their_errors():
    f = TruncatedSeries(2, 3, {(0, 0): 2, (1, 0): 1})
    with pytest.raises(ValueError, match="series_exp needs zero constant term"):
        series_exp(f)
    with pytest.raises(ValueError, match="series_log needs constant term 1"):
        series_log(f)
    for e in (t, -1):
        with pytest.raises(ValueError, match="series_pow needs constant term 1"):
            series_pow(f, e)


def random_univariate(rnd, order):
    cs = {(0,): Fraction(1), (1,): Fraction(rnd.choice([1, -1, 2, -3]), rnd.randint(1, 3))}
    for k in range(2, order + 1):
        cs[(k,)] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
    return TruncatedSeries(1, order, cs)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12, 24])
def test_reversion_round_trips_at_every_schedule(order):
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


def test_series_reversion_needs_constant_term_1():
    with pytest.raises(ValueError, match="component series must have constant term 1"):
        series_reversion(TruncatedSeries(1, 4, {(0,): 2, (1,): 1}))


def lagrange_series(f):
    """1 + the Lagrange-inversion oracle's reversion of f - 1, univariate f."""
    F = [Fraction(0)] + [f.ordinary().get((k,), Fraction(0))
                         for k in range(1, f.order + 1)]
    G = lagrange_reversion(F, f.order)
    return TruncatedSeries.from_ordinary(
        1, f.order, {(0,): 1, **{(k,): G[k] for k in range(1, f.order + 1)}})


# vector_reversion builds G^v only for the monomials of the f_i and their
# chains of parents; these series leave most monomials out
SPARSE_UNIVARIATE = {
    "ig_quadratic": lambda: ig_quadratic(Fraction(1), Fraction(2), 24).to_series(),
    "z_and_z5": lambda: TruncatedSeries(1, 16, {(0,): 1, (1,): Fraction(-2, 3),
                                                (5,): 7}),
}


@pytest.mark.parametrize("name", SPARSE_UNIVARIATE)
def test_reversion_of_a_sparse_series_matches_lagrange(name):
    f = SPARSE_UNIVARIATE[name]()
    assert series_reversion(f) == lagrange_series(f)


def test_vector_reversion_of_marginal_pure_powers_matches_lagrange():
    # the shape multivariate_comp_inverse passes: f_i lives in z_i alone
    order = 10
    marginals = [TruncatedSeries(1, order, {(0,): 1, (1,): 2, (3,): -1, (4,): Fraction(1, 3)}),
                 TruncatedSeries(1, order, {(0,): 1, (1,): -1, (2,): 5, (7,): 2})]
    fs = [TruncatedSeries(2, order, {(k, 0): c for (k,), c in marginals[0].coeffs.items()}),
          TruncatedSeries(2, order, {(0, k): c for (k,), c in marginals[1].coeffs.items()})]
    gs = vector_reversion(fs)
    want = [lagrange_series(f) for f in marginals]
    assert gs[0] == TruncatedSeries(2, order, {(k, 0): c for (k,), c in want[0].coeffs.items()})
    assert gs[1] == TruncatedSeries(2, order, {(0, k): c for (k,), c in want[1].coeffs.items()})


@pytest.mark.parametrize("higher", [
    [{(3, 0): 1, (0, 2): Fraction(-1, 2)}, {(0, 4): 3, (2, 0): 1}],
    [{(2, 1): 2}, {(0, 3): Fraction(1, 2)}],
], ids=["pure_powers", "mixed_2_1"])
def test_vector_reversion_of_sparse_coupled_series_round_trips(higher):
    d, order = 2, 7
    linear = [{(1, 0): 1, (0, 1): 2}, {(1, 0): -1, (0, 1): 1}]
    fs = [TruncatedSeries(d, order, {(0, 0): 1, **linear[i], **higher[i]})
          for i in range(d)]
    gs = vector_reversion(fs)
    one = TruncatedSeries.one(d, order)
    for i in range(d):
        assert sp.subst(fs[i] - one, [g - one for g in gs]) == \
            TruncatedSeries.variable(d, order, i)
