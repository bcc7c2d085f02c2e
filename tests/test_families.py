from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.families import (_shift_family_tsh_check, bernoulli, bernoulli_gf_oracle,
                               bernoulli_tsh_check, bernoulli_tuple, euler,
                               euler_difference_tuple, euler_gf_oracle,
                               euler_tsh_check, hermite,
                               hermite_gf_oracle, hermite_scaling_identity,
                               levy_sheffer, levy_sheffer_gf_oracle,
                               levy_sheffer_process_one_step,
                               levy_sheffer_tsh_check)
from umbrakit.harmonic import poly_to_coeff_map, tsh_polynomial
from umbrakit.polynomials import Poly
from umbrakit.processes import (ProcessSpec, bernoulli_neg_one_step, build,
                                euler_half_one_step, poisson_one_step)
from umbrakit.series import TruncatedSeries, series_subst, vector_reversion
from umbrakit.umbrae import (UmbraTuple, augmentation, bell, comonotone_tuple,
                             singleton, unity)

t = Poly.var("t")
x1, x2 = Poly.var("x1"), Poly.var("x2")

I1 = [[Fraction(1)]]
I2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_hermite_d1_closed_forms():
    assert hermite((2,), I1) == x1 ** 2 - t
    assert hermite((3,), I1) == x1 ** 3 - 3 * t * x1
    assert hermite((2,), I1, 1) == x1 ** 2 - 1
    # t = 0 gives plain monomials
    assert hermite((3,), I1, 0) == x1 ** 3


def test_hermite_d2():
    assert hermite((1, 1), I2) == x1 * x2   # Sigma off-diagonal is zero
    C = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    got = hermite((1, 1), C)
    assert got == hermite_gf_oracle((1, 1), C)
    assert got.coefficient("t", 1) == Poly.const(-1)  # Sigma_12 = 1


@pytest.mark.parametrize("v,C", [((2,), I1), ((3,), I1), ((4,), I1),
                                 ((2, 0), I2), ((1, 1), I2), ((2, 2), I2),
                                 ((2, 1), [[Fraction(2), Fraction(1)],
                                           [Fraction(0), Fraction(1)]])])
def test_hermite_matches_gf_oracle(v, C):
    assert hermite(v, C) == hermite_gf_oracle(v, C)


@pytest.mark.parametrize("fn", [hermite, hermite_gf_oracle])
def test_hermite_factor_shape_must_match_v(fn):
    for v, C in [((2, 1), I1), ((2,), I2), ((1, 1), [[1, 0]]),
                 ((1, 1), [[1, 0], [1]])]:
        with pytest.raises(ValueError, match="hermite C"):
            fn(v, C)


@pytest.mark.parametrize("v,C", [((2,), I1), ((0,), I1), ((2, 0), I2),
                                 ((1, 1), [[Fraction(1), Fraction(1)],
                                           [Fraction(0), Fraction(2)]])])
def test_hermite_scaling_identity(v, C):
    assert hermite_scaling_identity(v, C)


def test_bernoulli_classical_values():
    assert bernoulli((1,), 1) == x1 - Fraction(1, 2)
    assert bernoulli((2,), 1) == x1 ** 2 - x1 + Fraction(1, 6)
    assert bernoulli((3,), 0) == x1 ** 3
    # B_v(0) at x = 0 are the Bernoulli numbers themselves at t = 1
    b4 = bernoulli((4,), 1).subs({"x1": 0})
    assert b4 == Fraction(-1, 30)


def test_euler_classical_values():
    assert euler((1,), 1) == x1 - Fraction(1, 2)
    assert euler((2,), 1) == x1 ** 2 - x1
    assert euler((2,), 0) == x1 ** 2


@pytest.mark.parametrize("v", [(1,), (2,), (3,), (4,)])
def test_bernoulli_euler_match_gf_oracles_d1(v):
    assert bernoulli(v) == bernoulli_gf_oracle(v)
    assert euler(v) == euler_gf_oracle(v)


@pytest.mark.parametrize("v", [(1, 1), (2, 1), (2, 2)])
def test_bernoulli_euler_match_gf_oracles_d2(v):
    assert bernoulli(v) == bernoulli_gf_oracle(v)
    assert euler(v) == euler_gf_oracle(v)


def test_bernoulli_tuple_moments():
    bt = bernoulli_tuple(4, 2)
    # comonotone: joint moments collapse to Bernoulli numbers by |v|
    assert bt.eval_power((1, 1)) == Fraction(1, 6)
    assert bt.eval_power((1, 0)) == Fraction(-1, 2)


def test_family_harmonicity_checks():
    assert bernoulli_tsh_check(4, 1)
    assert euler_tsh_check(4, 1)
    assert bernoulli_tsh_check(2, 2)
    assert euler_tsh_check(2, 2)


@pytest.mark.parametrize("d,order", [(1, 10), (2, 7), (3, 5)])
def test_family_members_are_the_basis_of_their_process(d, order):
    # B_v = E[(x + t.B)^v] = E[(x - t.B^-1)^v] = Q_v, and likewise for
    # Euler, which is what lets the family checks read basis_identity
    for member, one_step in ((bernoulli, bernoulli_neg_one_step(order, d)),
                             (euler, euler_half_one_step(order, d))):
        for v in mi.iter_indices(d, order):
            assert member(v, "t") == tsh_polynomial(one_step, v).as_polynomial()


def test_a_shift_family_with_the_wrong_driver_fails():
    assert _shift_family_tsh_check(bernoulli_neg_one_step(4, 1), bernoulli_tuple(4, 1), 2)
    assert not _shift_family_tsh_check(bernoulli_neg_one_step(4, 1),
                                       euler_difference_tuple(4, 1), 2)
    assert not _shift_family_tsh_check(euler_half_one_step(3, 1), bernoulli_tuple(3, 1), 3)


@pytest.mark.parametrize("order", [0, 1, 4, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_family_laws_are_the_inverses_of_their_drivers(order, d):
    # the uniform and Bernoulli(1/2) laws are built from their moments, so
    # nothing makes them the drivers' inverses by construction
    assert bernoulli_neg_one_step(order, d) == bernoulli_tuple(order, d).inverse_umbra()
    assert euler_half_one_step(order, d) == euler_difference_tuple(order, d).inverse_umbra()


def test_levy_sheffer_examples():
    N = 4
    eps, chi, u = augmentation(N), singleton(N), unity(N)
    # mu = eps, nu = chi: V_k = x^k
    for k in range(4):
        assert levy_sheffer(eps, chi, (k,)) == x1 ** k
    # mu = nu = u: V_1 = t + x
    assert levy_sheffer(u, u, (1,)) == t + x1
    # mu = eps, nu = u: V_2 = x^2 + x
    assert levy_sheffer(eps, u, (2,)) == x1 ** 2 + x1


@pytest.mark.parametrize("pair", ["gamma-chi", "u-u", "eps-u"])
def test_levy_sheffer_matches_gf_oracle(pair):
    N = 4
    mus = {
        "gamma-chi": (build(ProcessSpec("gamma", 1, N, {"shape": Fraction(2),
                                                        "scale": Fraction(1)})).one_step,
                      singleton(N)),
        "u-u": (unity(N), unity(N)),
        "eps-u": (augmentation(N), unity(N)),
    }
    mu, nu = mus[pair]
    for k in range(N + 1):
        assert levy_sheffer(mu, nu, (k,)) == levy_sheffer_gf_oracle(mu, nu, (k,))


def test_levy_sheffer_tsh_d1():
    N = 4
    mu = build(ProcessSpec("gamma", 1, N, {"shape": Fraction(1),
                                           "scale": Fraction(1)})).one_step
    assert levy_sheffer_tsh_check(mu, singleton(N), 3)
    assert levy_sheffer_tsh_check(unity(N), unity(N), 3)


def test_levy_sheffer_tsh_d2():
    N = 3
    u2 = unity(N, 2)
    # comonotone chi-like tuple: joint gf 1 + z1 + z2
    chi2 = comonotone_tuple(singleton(N), 2)
    assert levy_sheffer_tsh_check(u2, chi2, 3)
    # comonotone Poisson-style pair also collapses and verifies
    pois = comonotone_tuple(
        build(ProcessSpec("poisson", 1, N, {"rate": Fraction(1)})).one_step, 2)
    assert levy_sheffer_tsh_check(pois, comonotone_tuple(unity(N), 2), 2)


def test_levy_sheffer_d2_requires_comonotone_arrays():
    # with product-independent components (gf (1+z1)(1+z2)) the family
    # members V_(0,2) and V_(1,1) differ by x1 + x2, so no Levy process
    # can make both harmonic; the construction refuses such inputs
    N = 3
    prod_chi = UmbraTuple(2, N, {v: Fraction(1) for v in mi.iter_indices(2, N)
                                 if all(e <= 1 for e in v)})
    with pytest.raises(ValueError):
        levy_sheffer_process_one_step(unity(N, 2), prod_chi)


def test_levy_sheffer_process_reduction():
    # nu = chi makes the driving process t.mu itself (inverse of inverse)
    N = 4
    mu = build(ProcessSpec("poisson", 1, N, {"rate": Fraction(1)})).one_step
    pi = levy_sheffer_process_one_step(mu, singleton(N))
    assert pi == mu.inverse_umbra()


@pytest.mark.parametrize("d", [3, 4])
def test_levy_sheffer_one_step_keeps_its_comonotone_base(d):
    # the lift commutes with z -> z/d, so scaling the d = 1 driver before
    # the lift gives the array of scaling the lift, and keeps a base
    N = 4
    m, n = poisson_one_step(Fraction(1), N), bell(N)
    got = levy_sheffer_process_one_step(comonotone_tuple(m, d), comonotone_tuple(n, d))
    assert got.base is not None
    assert got == comonotone_tuple(levy_sheffer_process_one_step(m, n), d).scale(Fraction(1, d))


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def univariate_pairs(draw):
    """(mu, nu) at one order N <= 5, each moment rational or linear in a,
    with a rational g_1(nu) != 0 so that nu has a compositional inverse."""
    order = draw(st.integers(0, 5))
    a = Poly.var("a")

    def moment():
        return draw(RATIONALS) + draw(RATIONALS) * a

    mu = {(k,): moment() for k in range(1, order + 1)}
    nu = {(k,): moment() for k in range(2, order + 1)}
    if order:
        nu[(1,)] = draw(RATIONALS.filter(bool))
    return (UmbraTuple(1, order, {(0,): 1, **mu}),
            UmbraTuple(1, order, {(0,): 1, **nu}))


@settings(max_examples=40, deadline=None)
@given(univariate_pairs())
def test_levy_sheffer_d1_driver_is_the_reversion_substituted_into_mu(pair):
    # the driver built with the reversion of nu's component series
    # substituted into mu's gf, and inverted, written out here
    mu, nu = pair
    inv = vector_reversion([nu.component_series(0)])
    one = TruncatedSeries.one(1, nu.order)
    pi = UmbraTuple.from_series(series_subst(mu.to_series(), [g - one for g in inv]))
    assert levy_sheffer_process_one_step(mu, nu) == pi.inverse_umbra()
    assert levy_sheffer_tsh_check(mu, nu, min(mu.order, 3))


def _exchangeable(m, d):
    """The d-dimensional moments g_v = m_|v| of a univariate umbra m,
    written out index by index."""
    return {v: m.eval_power((mi.total(v),)) for v in mi.iter_indices(d, m.order)}


@settings(max_examples=30, deadline=None)
@given(univariate_pairs(), st.integers(2, 3), st.data())
def test_levy_sheffer_collapses_exactly_the_exchangeable_comonotone_pairs(pair, d, data):
    # g_v = m_|v| in both arrays gives the lift of the d = 1 driver, scaled
    # by 1/d; one moved moment g_w, w != 0, leaves no driving process
    mu, nu = pair
    arrays = [_exchangeable(mu, d), _exchangeable(nu, d)]
    want = comonotone_tuple(levy_sheffer_process_one_step(mu, nu), d).scale(Fraction(1, d))
    assert levy_sheffer_process_one_step(*(UmbraTuple(d, mu.order, g) for g in arrays)) == want
    if mu.order:
        moved = arrays[data.draw(st.integers(0, 1))]
        w = data.draw(st.sampled_from([v for v in moved if any(v)]))
        moved[w] += data.draw(RATIONALS.filter(bool))
        with pytest.raises(ValueError, match="exchangeable-comonotone"):
            levy_sheffer_process_one_step(*(UmbraTuple(d, mu.order, g) for g in arrays))


def test_poly_to_coeff_map():
    p = x1 ** 2 * x2 + 3 * t * x1 - 1
    m = poly_to_coeff_map(p, 2)
    assert m[(2, 1)] == 1
    assert m[(1, 0)] == 3 * t
    assert m[(0, 0)] == -1
    assert poly_to_coeff_map(Poly.const(0), 1) == {(0,): Poly.const(0)}
