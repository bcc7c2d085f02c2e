import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.polynomials import Poly
from umbrakit.series import TruncatedSeries, series_compose, vector_reversion
from umbrakit.umbrae import (UmbraTuple, augmentation, bell, bernoulli_umbra,
                             comonotone_tuple, compositional_inverse,
                             dot_beta_tuple, dot_umbra, euler_umbra,
                             gaussian_delta, gaussian_delta_tuple,
                             multivariate_comp_inverse,
                             singleton, singleton_component, unity)

from oracles import binomial_series, dot_moments_by_set_partitions


def rand_tuple(rnd, d, order, unit_first=False):
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 4))
    if unit_first:
        for i in range(d):
            ms[tuple(1 if j == i else 0 for j in range(d))] = Fraction(1)
    return UmbraTuple(d, order, ms)


def test_special_umbra_moments():
    chi = singleton(5)
    assert [chi.eval_power((k,)) for k in range(6)] == [1, 1, 0, 0, 0, 0]
    b = bell(4)
    assert [b.eval_power((k,)) for k in range(5)] == [1, 1, 2, 5, 15]
    eps = augmentation(4)
    assert [eps.eval_power((k,)) for k in range(5)] == [1, 0, 0, 0, 0]
    u = unity(4, 2)
    assert all(u.eval_power(v) == 1 for v in u.indices())
    d = gaussian_delta(4)
    assert [d.eval_power((k,)) for k in range(5)] == [1, 0, 1, 0, 0]


def test_bernoulli_and_euler_numbers():
    iota = bernoulli_umbra(6)
    assert [iota.eval_power((k,)) for k in range(7)] == \
        [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
    eta = euler_umbra(6)
    assert [eta.eval_power((k,)) for k in range(7)] == [1, 0, -1, 0, 5, 0, -61]


def test_unital_requirement():
    with pytest.raises(ValueError):
        UmbraTuple(1, 3, {(1,): 1})


def test_tuple_sum_examples():
    N = 5
    chi = singleton(N)
    s = chi.tuple_sum(chi)
    assert [s.eval_power((k,)) for k in range(4)] == [1, 2, 2, 0]
    mu = rand_tuple(random.Random(0), 2, 4)
    assert mu + augmentation(4, 2) == mu
    d = gaussian_delta(N)
    assert (d + d).eval_power((2,)) == 2


def test_disjoint_sum_examples():
    N = 4
    eps = augmentation(N)
    assert eps.disjoint_sum(eps) == eps
    chi = singleton(N)
    ds = chi.disjoint_sum(chi)
    assert [ds.eval_power((k,)) for k in range(4)] == [1, 2, 0, 0]


def test_scale_and_linear_map():
    N = 4
    mu = rand_tuple(random.Random(1), 1, N)
    assert mu.scale(1) == mu
    s = Poly.var("s")
    scaled = gaussian_delta(N).scale(s)
    m2 = scaled.eval_power((2,))
    assert m2.reduce_power("s", 2, Poly.const(Fraction(7))) == 7

    C = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    mapped = gaussian_delta_tuple(N, 2).linear_map(C)
    # gf 1 + z Sigma z^T / 2 with Sigma = C C^T
    sigma = [[5, 2], [2, 1]]
    assert mapped.eval_power((2, 0)) == sigma[0][0]
    assert mapped.eval_power((1, 1)) == sigma[0][1]
    assert mapped.eval_power((0, 2)) == sigma[1][1]
    assert mapped.eval_power((3, 0)) == 0


def test_dot_n_examples():
    N = 4
    mu = rand_tuple(random.Random(2), 1, N)
    assert mu.dot_n(0) == augmentation(N)
    un = unity(N).dot_n(3)
    assert [un.eval_power((k,)) for k in range(5)] == [1, 3, 9, 27, 81]
    a1, a2 = mu.eval_power((1,)), mu.eval_power((2,))
    n = 3
    assert mu.dot_n(n).eval_power((2,)) == n * a2 + n * (n - 1) * a1 ** 2


def test_dot_n_vs_set_partition_oracle():
    rnd = random.Random(3)
    for d in (1, 2):
        mu = rand_tuple(rnd, d, 4)
        for n in (1, 2, 4):
            dn = mu.dot_n(n)
            for v in mi.iter_indices(d, 4):
                assert dn.eval_power(v) == \
                    dot_moments_by_set_partitions(mu.moments, v, n)


def test_dot_t_additivity_and_specialization():
    rnd = random.Random(4)
    mu = rand_tuple(rnd, 2, 4)
    ts = mu.dot_t("t")
    ss = mu.dot_t("s")
    both = ts.tuple_sum(ss)
    merged = mu.dot_t(Poly.var("t") + Poly.var("s"))
    assert both == merged
    # specializing t = n recovers dot_n
    spec = ts.specialize({"t": 3})
    assert spec == mu.dot_n(3)


def test_dot_t_of_bell_umbra():
    t = Poly.var("t")
    b = bell(4).dot_t("t")
    assert b.eval_power((1,)) == t
    assert b.eval_power((2,)) == t ** 2 + t
    assert b.eval_power((3,)) == t ** 3 + 3 * t ** 2 + t


def test_dot_t_beta_examples():
    t = Poly.var("t")
    tb = singleton(4).dot_t_beta("t")
    for k in range(1, 5):
        assert tb.eval_power((k,)) == t ** k
    tbu = unity(4).dot_t_beta("t")
    assert tbu.eval_power((2,)) == t ** 2 + t


def test_dot_umbra_composition():
    N = 5
    alpha = rand_tuple(random.Random(6), 1, N, unit_first=True)
    chi = singleton(N)
    cum = dot_umbra(chi, alpha)
    assert cum == alpha.cumulant_tuple()
    u = unity(N)
    assert dot_umbra(u, alpha) == alpha


def test_inverse_umbra():
    N = 5
    u = unity(N)
    inv = u.inverse_umbra()
    assert [inv.eval_power((k,)) for k in range(6)] == [1, -1, 1, -1, 1, -1]
    mu = rand_tuple(random.Random(7), 2, 4)
    assert mu.tuple_sum(mu.inverse_umbra()) == augmentation(4, 2)


def test_compositional_inverse_examples():
    N = 8
    chi = singleton(N)
    assert compositional_inverse(chi) == chi
    uinv = compositional_inverse(unity(N))
    # gf 1 + log(1+z)
    import math
    for k in range(1, N + 1):
        assert uinv.eval_power((k,)) == (-1) ** (k - 1) * math.factorial(k - 1)


def test_compositional_inverse_roundtrip_random():
    # alpha . beta . alpha^<-1> has gf f(alpha, f(inv, z) - 1) = 1 + z
    rnd = random.Random(8)
    N = 8
    for _ in range(5):
        alpha = rand_tuple(rnd, 1, N, unit_first=True)
        inv = compositional_inverse(alpha)
        assert dot_beta_tuple(alpha, inv) == singleton(N)
        assert dot_beta_tuple(inv, alpha) == singleton(N)


def test_minus_branch_quadratic_inverse():
    # reversion of (1 - bz) + a z^2/2 equals 1 + (b/a)[1 - sqrt(1 + 2az/b^2)]
    N = 8
    a, b = Fraction(1), Fraction(2)
    quad = UmbraTuple(1, N, {(0,): 1, (1,): -b, (2,): a})
    inv = compositional_inverse(quad).to_series().ordinary()
    root = binomial_series(Fraction(1, 2), 2 * a / b ** 2, N)
    for k in range(1, N + 1):
        assert inv.get((k,), Fraction(0)) == -root[k] * b / a


def test_multivariate_comp_inverse():
    N = 6
    # chi-like tuple with independent components is self-inverse
    chi2 = UmbraTuple(2, N, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert multivariate_comp_inverse(chi2) == chi2
    # d = 1 consistency
    alpha = rand_tuple(random.Random(9), 1, N, unit_first=True)
    assert multivariate_comp_inverse(alpha) == compositional_inverse(alpha)


def test_component_inverse_roundtrip_random():
    # (f_i - 1) composed with the inverse components gives back z_i
    rnd = random.Random(10)
    N = 8
    for _ in range(5):
        nu = rand_tuple(rnd, 2, N, unit_first=True)
        comps = [nu.component_series(i) for i in range(2)]
        inv = vector_reversion(comps)
        one = TruncatedSeries.one(2, N)
        for i in range(2):
            res = series_compose(
                TruncatedSeries(1, N, {(k,): comps[i].get(
                    tuple(k if j == i else 0 for j in range(2)))
                    for k in range(N + 1)}),
                inv[i] - one)
            assert res == one + TruncatedSeries.variable(2, N, i)


def test_cumulant_examples():
    mu = rand_tuple(random.Random(11), 1, 4)
    c = mu.cumulant_tuple()
    g1, g2 = mu.eval_power((1,)), mu.eval_power((2,))
    assert c.eval_power((2,)) == g2 - g1 ** 2
    nu = rand_tuple(random.Random(12), 2, 4)
    cc = nu.cumulant_tuple()
    assert cc.eval_power((1, 1)) == \
        nu.eval_power((1, 1)) - nu.eval_power((1, 0)) * nu.eval_power((0, 1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cumulant_roundtrip(seed):
    rnd = random.Random(seed)
    d = rnd.randint(1, 3)
    mu = rand_tuple(rnd, d, 4 if d == 3 else 6)
    assert UmbraTuple.from_cumulants(mu.cumulant_tuple()) == mu


def test_comonotone_tuple():
    N = 4
    mono = comonotone_tuple(bell(N), 3)
    assert mono.eval_power((1, 1, 0)) == 2   # Bell number B_2
    assert mono.eval_power((1, 1, 1)) == 5
    assert comonotone_tuple(unity(N), 2) == unity(N, 2)
    with pytest.raises(ValueError):
        comonotone_tuple(unity(N, 2), 2)


def test_singleton_component():
    s = singleton_component(4, 3, 1)
    assert s.eval_power((0, 1, 0)) == 1
    assert s.eval_power((0, 2, 0)) == 0
    assert s.eval_power((1, 0, 0)) == 0


def test_negative_moment_index_is_rejected():
    with pytest.raises(ValueError, match="negative entry"):
        UmbraTuple(1, 3, {(0,): 1, (-1,): 5})


def test_eval_power_guards():
    mu = rand_tuple(random.Random(13), 2, 3)
    with pytest.raises(Exception):
        mu.eval_power((2, 2))
    with pytest.raises(ValueError):
        mu.eval_power((1,))


def test_eval_power_rejects_a_negative_entry():
    mu = rand_tuple(random.Random(13), 2, 3)
    with pytest.raises(ValueError, match="negative entry"):
        mu.eval_power((-1, 2))


@pytest.mark.parametrize("i", [-1, 2, 7])
def test_singleton_component_rejects_a_slot_outside_the_dimension(i):
    with pytest.raises(ValueError, match=rf"slot {i} is not in \[0, 2\)"):
        singleton_component(3, 2, i)
    assert singleton_component(3, 2, 1).moments == {(0, 0): 1, (0, 1): 1}
