import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit.polynomials import Poly
from umbrakit.series import (OrderMismatchError, TruncatedSeries,
                             series_compose, series_exp, series_log,
                             series_pow, series_reversion, series_subst,
                             vector_reversion)

from oracles import binomial_series, lagrange_reversion


def u_series(order):
    """e^z: all exponential coefficients 1."""
    return TruncatedSeries(1, order, {(k,): 1 for k in range(order + 1)})


def test_product_examples():
    N = 6
    u = u_series(N)
    prod = u * u
    assert all(prod.get((k,)) == 2 ** k for k in range(N + 1))
    one = TruncatedSeries.one(1, N)
    assert u * one == u
    chi = TruncatedSeries(1, N, {(0,): 1, (1,): 1})
    sq = chi * chi
    assert [sq.get((k,)) for k in range(4)] == [1, 2, 2, 0]


def test_exp_log_examples():
    N = 4
    ez1 = u_series(N) - TruncatedSeries.one(1, N)
    bell = series_exp(ez1)
    assert [bell.get((k,)) for k in range(5)] == [1, 1, 2, 5, 15]
    assert series_log(u_series(N)) == TruncatedSeries.variable(1, N, 0)
    assert series_exp(TruncatedSeries(1, N)) == TruncatedSeries.one(1, N)
    with pytest.raises(ValueError):
        series_exp(u_series(N))
    with pytest.raises(ValueError):
        series_log(TruncatedSeries(1, N))


def test_compose_examples():
    N = 5
    u = u_series(N)
    z = TruncatedSeries.variable(1, N, 0)
    assert series_compose(u, z) == u
    assert series_compose(u, u - TruncatedSeries.one(1, N)) == \
        series_exp(u - TruncatedSeries.one(1, N))
    chi = TruncatedSeries(1, N, {(0,): 1, (1,): 1})
    h = TruncatedSeries(1, N, {(1,): 2, (3,): 5})
    assert series_compose(chi, h) == TruncatedSeries.one(1, N) + h


def test_reciprocal():
    N = 6
    u = u_series(N)
    inv = series_pow(u, -1)
    assert all(inv.get((k,)) == (-1) ** k for k in range(N + 1))
    assert u * inv == TruncatedSeries.one(1, N)


def test_reversion_examples():
    N = 8
    chi = TruncatedSeries(1, N, {(0,): 1, (1,): 1})
    assert series_reversion(chi) == chi
    g = series_reversion(u_series(N))
    # 1 + log(1+z): g_k = (-1)^(k-1) (k-1)!
    assert g.get((0,)) == 1
    for k in range(1, N + 1):
        assert g.get((k,)) == Fraction((-1) ** (k - 1) * factorial(k - 1))
    with pytest.raises(ValueError):
        series_reversion(TruncatedSeries.one(1, N))


def test_reversion_vs_lagrange_oracle():
    N = 8
    rnd = random.Random(2024)
    for _ in range(5):
        coeffs = {(0,): Fraction(1),
                  (1,): Fraction(rnd.choice([1, -1, 2]), rnd.randint(1, 3))}
        for k in range(2, N + 1):
            coeffs[(k,)] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        f = TruncatedSeries(1, N, coeffs)
        g = series_reversion(f)
        F = [Fraction(0)] + [f.ordinary().get((k,), Fraction(0)) * 1
                             for k in range(1, N + 1)]
        expected = lagrange_reversion(F, N)
        got = (g - TruncatedSeries.one(1, N)).ordinary()
        for k in range(1, N + 1):
            assert got.get((k,), Fraction(0)) == expected[k]


def test_reversion_roundtrip_both_sides():
    N = 8
    f = TruncatedSeries(1, N, {(0,): 1, (1,): 2, (2,): -1, (3,): Fraction(1, 3),
                               (5,): 4})
    g = series_reversion(f)
    one = TruncatedSeries.one(1, N)
    z = TruncatedSeries.variable(1, N, 0)
    assert series_compose(f - one, g - one) == z
    assert series_compose(g - one, f - one) == z


def test_ig_style_quadratic_roundtrip():
    # f = (1 - bz) + a z^2 / 2 with a = b = 1
    N = 8
    f = TruncatedSeries(1, N, {(0,): 1, (1,): -1, (2,): 1})
    g = series_reversion(f)
    one = TruncatedSeries.one(1, N)
    assert series_compose(f - one, g - one) == TruncatedSeries.variable(1, N, 0)


def test_series_pow_rational_exponent():
    N = 6
    # (1 - z)^(-1/2), ordinary coefficients binom(-1/2, k)(-1)^k
    base = TruncatedSeries.from_ordinary(1, N, {(0,): 1, (1,): -1})
    got = series_pow(base, Fraction(-1, 2)).ordinary()
    expected = binomial_series(Fraction(-1, 2), -1, N)
    for k in range(N + 1):
        assert got.get((k,), Fraction(0)) == expected[k]


def test_series_pow_poly_exponent():
    N = 5
    tpow = series_pow(u_series(N), Poly.var("t"))
    t = Poly.var("t")
    for k in range(N + 1):
        assert tpow.get((k,)) == t ** k


@pytest.mark.parametrize("n, products", [(0, 0), (1, 1), (4, 3), (5, 4)])
def test_integer_power_squares_only_what_it_uses(monkeypatch, n, products):
    # binary powering: one product per set bit and one squaring per bit
    # after the lowest, none after the highest
    f = TruncatedSeries(2, 5, {(0, 0): 1, (1, 0): Fraction(1, 2), (1, 1): 3})
    want = TruncatedSeries.one(2, 5)
    for _ in range(n):
        want = want * f
    calls = []
    mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    got = f ** n
    monkeypatch.undo()
    assert got == want
    assert len(calls) == products


def test_subst_multivariate():
    N = 5
    f = TruncatedSeries(2, N, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 3})
    z1 = TruncatedSeries.variable(2, N, 0)
    z2 = TruncatedSeries.variable(2, N, 1)
    assert series_subst(f, [z1, z2]) == f
    swapped = series_subst(f, [z2, z1])
    assert swapped.get((1, 0)) == 1 and swapped.get((1, 1)) == 3
    with pytest.raises(ValueError):
        series_subst(f, [z1])
    with pytest.raises(ValueError):
        series_subst(f, [TruncatedSeries.one(2, N), z2])


def test_vector_reversion_identity_and_d1():
    N = 6
    chi2 = [TruncatedSeries(2, N, {(0, 0): 1, (1, 0): 1}),
            TruncatedSeries(2, N, {(0, 0): 1, (0, 1): 1})]
    inv = vector_reversion(chi2)
    assert inv[0] == chi2[0] and inv[1] == chi2[1]

    f = TruncatedSeries(1, N, {(0,): 1, (1,): 1, (2,): 3, (4,): -2})
    F = [Fraction(0)] + [f.ordinary().get((k,), Fraction(0)) for k in range(1, N + 1)]
    got = (vector_reversion([f])[0] - TruncatedSeries.one(1, N)).ordinary()
    assert [got.get((k,), Fraction(0)) for k in range(1, N + 1)] == \
        lagrange_reversion(F, N)[1:]


def test_vector_reversion_componentwise_exponentials():
    N = 6
    fs = [TruncatedSeries(2, N, {(k, 0): 1 for k in range(N + 1)}),
          TruncatedSeries(2, N, {(0, k): 1 for k in range(N + 1)})]
    inv = vector_reversion(fs)
    # each component is 1 + log(1 + z_i)
    for i in range(2):
        for k in range(1, N + 1):
            e = (k, 0) if i == 0 else (0, k)
            assert inv[i].get(e) == Fraction((-1) ** (k - 1) * factorial(k - 1))


def test_vector_reversion_random_roundtrip():
    N = 6
    rnd = random.Random(5)
    for _ in range(3):
        fs = []
        for i in range(2):
            coeffs = {(0, 0): Fraction(1)}
            for v in [(1, 0), (0, 1)]:
                coeffs[v] = Fraction(rnd.randint(-2, 2))
            # ensure invertible linear part
            coeffs[(1, 0) if i == 0 else (0, 1)] = Fraction(rnd.choice([1, 2]))
            coeffs[(0, 1) if i == 0 else (1, 0)] = \
                Fraction(rnd.randint(0, 1)) if i == 0 else Fraction(0)
            for v in [(2, 0), (1, 1), (0, 2), (2, 1), (3, 0)]:
                coeffs[v] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
            fs.append(TruncatedSeries(2, N, coeffs))
        gs = vector_reversion(fs)
        one = TruncatedSeries.one(2, N)
        for i in range(2):
            res = series_subst(fs[i] - one, [g - one for g in gs])
            assert res == TruncatedSeries.variable(2, N, i)


@pytest.mark.parametrize("dim,coeffs", [(1, {(-1,): 1}), (2, {(2, -1): 1}),
                                        (1, {(0,): 1, (-1,): 5})])
def test_negative_index_is_rejected(dim, coeffs):
    with pytest.raises(ValueError, match="negative entry"):
        TruncatedSeries(dim, 3, coeffs)


def test_get_rejects_an_index_of_the_wrong_length():
    f = TruncatedSeries(1, 3, {(0,): 1})
    with pytest.raises(ValueError, match="wrong dimension"):
        f.get((1, 2))


def test_reversions_at_order_zero_give_the_unit_series():
    assert series_reversion(TruncatedSeries.one(1, 0)) == TruncatedSeries.one(1, 0)
    one = TruncatedSeries.one(2, 0)
    assert vector_reversion([one, one]) == [one, one]


def test_vector_reversion_needs_a_component():
    with pytest.raises(ValueError, match="at least one component"):
        vector_reversion([])


def test_ring_mismatch_errors():
    a = TruncatedSeries.one(1, 4)
    b = TruncatedSeries.one(1, 5)
    with pytest.raises(OrderMismatchError):
        a + b
    with pytest.raises(OrderMismatchError):
        a.get((5,))


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=1, max_size=5))
def test_exp_log_roundtrip(cs):
    N = 6
    f = TruncatedSeries(1, N, {(k + 1,): c for k, c in enumerate(cs)})
    assert series_log(series_exp(f)) == f


def test_get_rejects_a_negative_entry():
    f = TruncatedSeries(2, 3, {(0, 0): 1, (1, 2): 5})
    for v in ((-1, 2), (0, -1)):
        with pytest.raises(ValueError, match=r"has a negative entry") as err:
            f.get(v)
        assert "\n" not in str(err.value)
    assert f.get((1, 2)) == 5


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_variable_rejects_a_slot_outside_the_dimension(i):
    with pytest.raises(ValueError, match=rf"slot {i} is not in \[0, 2\)"):
        TruncatedSeries.variable(2, 3, i)
    assert TruncatedSeries.variable(2, 3, 1).coeffs == {(0, 1): 1}


def test_truncate_keeps_the_parts_up_to_the_order():
    f = TruncatedSeries(2, 4, {(0, 0): 1, (1, 0): 2, (1, 1): Fraction(1, 3), (3, 1): 5})
    assert f.truncate(4) is f
    assert f.truncate(2) == TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): 2, (1, 1): Fraction(1, 3)})
    assert f.truncate(0) == TruncatedSeries.one(2, 0)
    for order in (5, -1):
        with pytest.raises(ValueError):
            f.truncate(order)
