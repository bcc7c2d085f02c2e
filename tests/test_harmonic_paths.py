"""shifted and decompose against the references in harmonic_path."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import (decompose, shifted, tsh_polynomial,
                               verify_harmonicity)
from umbrakit.polynomials import Poly, as_coefficient, as_poly
from umbrakit.umbrae import UmbraTuple

import harmonic_path as ref

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
NONZERO = RATIONALS.filter(lambda c: c != 0)
t, s = Poly.var("t"), Poly.var("s")


@st.composite
def cases(draw):
    """A random array (d <= 3, N <= 4) and P = sum_k c_k Q_k.  When drawn,
    one coefficient of P, at one of its indices or at a new one, is moved
    by a rational multiple of t^a, and constant coefficients are given as
    Fractions."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4 if d < 3 else 3))
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = draw(RATIONALS)
    mu = UmbraTuple(d, order, ms)
    indices = list(mi.iter_indices(d, order))
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4, unique=True))
    p: dict = {}
    for v in chosen:
        c = draw(NONZERO)
        for k, q_k in tsh_polynomial(mu, v).coeffs.items():
            p[k] = p.get(k, Poly.const(0)) + c * q_k
    if draw(st.booleans()):
        j = draw(st.sampled_from(indices))
        p[j] = p.get(j, Poly.const(0)) + draw(NONZERO) * t ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        p = {k: as_coefficient(c) for k, c in p.items()}
    return mu, p


@settings(max_examples=40, deadline=None)
@given(cases())
def test_shifted_matches_umbral_substitution(case):
    mu, p = case
    for tup in (mu, mu.dot_t(t), mu.dot_t(-t), mu.dot_t(t - s)):
        got = shifted(p, tup)
        assert got == ref.shifted(p, tup)
        assert not any(c.is_zero() for c in got.values())


@settings(max_examples=60, deadline=None)
@given(cases())
def test_decompose_matches_back_substitution(case):
    mu, p = case
    got, want = decompose(p, mu), ref.decompose(p, mu)
    assert list(got.coefficients.items()) == list(want.coefficients.items())
    assert list(got.residual.items()) == list(want.residual.items())


@settings(max_examples=40, deadline=None)
@given(cases())
def test_verdicts_agree(case):
    # P is harmonic iff its shift by (t - s).mu is P with t -> s
    mu, p = case
    at_s = {k: as_poly(c).subs({"t": s}) for k, c in p.items()}
    by_shift = ref.shifted(p, mu.dot_t(t - s)) == {k: c for k, c in at_s.items() if not c.is_zero()}
    ok, cert = verify_harmonicity(mu, p)
    assert ok == by_shift == decompose(p, mu).exact == ref.decompose(p, mu).exact
    assert (cert is None) == ok
