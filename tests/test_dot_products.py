"""The series path of dot_t, dot_t_beta and dot_n against the partition sum.

Both paths are exact, so they must agree to the last rational.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import tsh_polynomial
from umbrakit.polynomials import Poly
from umbrakit.processes import ProcessSpec, build
from umbrakit.series import TruncatedSeries, exp_at, exp_table, series_pow
from umbrakit.umbrae import UmbraTuple

import partition_path as pp
from test_acceptance import PROCESS_SWEEP, rand_tuple

t, s = Poly.var("t"), Poly.var("s")


def assert_paths_agree(mu, time_args, ns):
    for p in time_args:
        assert mu.dot_t(p) == pp.dot_t(mu, p), f"dot_t({p})"
        assert mu.dot_t_beta(p) == pp.dot_t_beta(mu, p), f"dot_t_beta({p})"
    for n in ns:
        assert mu.dot_n(n) == pp.dot_n(mu, n), f"dot_n({n})"


def test_falling_factorial():
    assert pp.falling_factorial(t, 0) == 1
    assert pp.falling_factorial(t, 2) == t * t - t
    assert pp.falling_factorial(Fraction(4), 3) == 24


def test_criterion_2_arrays():
    # the draws of test_criterion_2_dot_product_consistency, in its order
    rnd = random.Random(20240601)
    for _ in range(5):
        d = rnd.randint(1, 3)
        mu = rand_tuple(rnd, d, 6)
        n = rnd.randint(1, 4)
        assert_paths_agree(mu, [t], [0, n])


def test_process_sweep_one_steps():
    for kind, params in PROCESS_SWEEP:
        for d in (1, 2, 3):
            proc = build(ProcessSpec(kind, d, 4, params))
            mu = proc.one_step
            assert proc.time_tuple == pp.dot_t(mu, t)
            assert_paths_agree(mu, [t, -t, t - s], [2])


@st.composite
def arrays(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6 if d < 3 else 4))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = draw(values)
    return UmbraTuple(d, order, ms)


@settings(max_examples=20, deadline=None)
@given(arrays(), st.sampled_from([t, -t, t - s, Fraction(-3, 2)]),
       st.integers(0, 4))
def test_random_arrays(mu, p, n):
    assert_paths_agree(mu, [p], [n])


@settings(max_examples=20, deadline=None)
@given(arrays(), st.integers(0, 4))
def test_random_arrays_against_series_recurrences(mu, n):
    # exp_table/exp_at against series_pow (exp of log for t, Miller's recurrence
    # for an int n), and the exp recurrence against exp_at
    f = mu.to_series()
    for p in (t, -t, t - s):
        assert mu.dot_t(p).to_series() == series_pow(f, p), f"dot_t({p})"
    assert mu.dot_n(n).to_series() == series_pow(f, n), f"dot_n({n})"
    # dot_t_beta is series_exp(t h); the exp_table of h is summed independently
    h = f - TruncatedSeries.one(mu.dim, mu.order)
    assert mu.dot_t_beta(t).to_series() == exp_at(exp_table(h), t, mu.dim, mu.order)


def test_parameterised_moments():
    # moments that are themselves polynomials in a parameter
    r = Poly.var("r")
    mu = UmbraTuple(2, 3, {(0, 0): 1, (1, 0): r, (0, 1): 1 - r, (1, 1): r * r,
                           (2, 0): Fraction(1, 2), (0, 3): r})
    assert_paths_agree(mu, [t, -t, Fraction(2)], [3])


def test_memo_returns_the_same_tuple():
    mu = rand_tuple(random.Random(5), 2, 4)
    first = mu.dot_t(-t)
    again = mu.dot_t(-Poly.var("t"))
    assert again is first and again == pp.dot_t(mu, -t)
    assert mu.dot_t("t") is mu.dot_t(t)
    # a constant Poly is the same time argument as its scalar
    assert mu.dot_t(Poly.const(3)) is mu.dot_n(3)
    assert mu.dot_t_beta("t") is mu.dot_t_beta(t)
    # the two kinds share no entries
    assert mu.dot_t_beta(t) != mu.dot_t(t)
    assert mu.dot_t_beta(t) == pp.dot_t_beta(mu, t)


def test_arrays_of_one_shape_share_no_table():
    rnd = random.Random(6)
    mu, nu = rand_tuple(rnd, 2, 4), rand_tuple(rnd, 2, 4)
    assert mu != nu
    a, b = mu.dot_t(t), nu.dot_t(t)
    assert a != b
    assert a == pp.dot_t(mu, t) and b == pp.dot_t(nu, t)
    assert nu.dot_t_beta(-t) == pp.dot_t_beta(nu, -t)


def test_tsh_coefficients_are_shared_read_only():
    mu = rand_tuple(random.Random(7), 2, 4)
    q = tsh_polynomial(mu, (2, 1))
    with pytest.raises(TypeError):
        q.coeffs[(0, 0)] = Poly.const(0)
    again = tsh_polynomial(mu, (2, 1))
    assert again == q
    # Q_v = E[(x - t.mu)^v], with the moments of -t.mu from the partition sum
    neg = pp.dot_t(mu, -t)
    assert again.coeffs == {(a, b): mi.multi_binomial((2, 1), (a, b))
                            * neg.eval_power((2 - a, 1 - b))
                            for a in range(3) for b in range(2)}
