"""shifted and decompose against the references in harmonic_path, and
the shift-derived entries on sparse and parametric arrays against
harmonic_path and the partition sums of partition_path."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import (decompose, expectation, expected_value_zero,
                               shifted, tsh_polynomial, verify_harmonicity)
from umbrakit.polynomials import Poly, as_coefficient, as_poly
from umbrakit.umbrae import UmbraTuple

import harmonic_path as ref
import partition_path as pp

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


A = Poly.var("a")
MOMENTS = ("zero", "zero", "zero", "rational", "poly")   # mostly zero: a sparse view


@st.composite
def sparse_cases(draw):
    """An array that cases() never draws, with a P over its indices.
    Most moments are 0, so absent from the moment view; the others are
    rationals or Polys in a parameter a.  The coefficients of P are ints,
    Fractions, Polys in t and a, and zeros of each type."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4 if d < 3 else 3))
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        kind = draw(st.sampled_from(MOMENTS)) if any(v) else "one"
        if kind == "rational":
            ms[v] = draw(NONZERO)
        elif kind == "poly":
            ms[v] = draw(NONZERO) * A ** draw(st.integers(1, 2)) + draw(RATIONALS)
    mu = UmbraTuple(d, order, ms)
    indices = list(mi.iter_indices(d, order))
    p = {}
    for k in draw(st.lists(st.sampled_from(indices), min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(("zero", "int", "fraction", "poly")))
        if kind == "zero":
            p[k] = draw(st.sampled_from((0, Fraction(0), Poly.const(0), t - t)))
        elif kind == "int":
            p[k] = draw(st.integers(-4, 4))
        elif kind == "fraction":
            p[k] = draw(RATIONALS)
        else:
            p[k] = draw(NONZERO) * t ** draw(st.integers(0, 2)) + draw(RATIONALS) * A
    return mu, p, draw(st.sampled_from([v for v in indices if any(v)]))


@settings(max_examples=30, deadline=None)
@given(sparse_cases())
def test_shifts_of_sparse_and_parametric_arrays(case):
    mu, p, _ = case
    zero = (0,) * mu.dim
    for time in (None, t, -t, t - s):
        # the shifted tuple from the partition sums, so no package dot product
        tup = mu if time is None else pp.dot_t(mu, time)
        want = ref.shifted(p, tup)
        got = shifted(p, tup)
        assert got == want
        assert not any(c.is_zero() for c in got.values())
        assert expectation(p, tup) == want.get(zero, 0)


@settings(max_examples=30, deadline=None)
@given(sparse_cases())
def test_basis_and_zero_mean_of_sparse_and_parametric_arrays(case):
    mu, _, v = case
    q = tsh_polynomial(mu, v)
    # every k <= v has an entry, zeros included, and the map is read-only
    assert set(q.coeffs) == set(mi.sub_indices(v))
    want = ref.shifted({v: 1}, pp.dot_t(mu, -t))
    assert {k: c for k, c in q.coeffs.items() if not c.is_zero()} == want
    with pytest.raises(TypeError):
        q.coeffs[v] = Poly.const(2)
    # E[Q_v(t.mu, t)] is the x^0 term of the shift of Q_v by t.mu
    assert ref.shifted(want, pp.dot_t(mu, t)).get((0,) * mu.dim, 0) == 0
    assert expected_value_zero(mu, v) is True


@st.composite
def perturbed_basis(draw):
    """Q_v for an array (d <= 3, N <= 4) of rationals or of Polys in a,
    and Q_v with t, t^2 or a constant added at one random index."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    parametric = draw(st.booleans())
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = draw(RATIONALS) + (draw(RATIONALS) * A if parametric else 0)
    mu = UmbraTuple(d, order, ms)
    indices = list(mi.iter_indices(d, order))
    p = dict(tsh_polynomial(mu, draw(st.sampled_from(indices[1:]))).coeffs)
    bump = draw(st.sampled_from((None, t, t ** 2, Poly.const(draw(NONZERO)))))
    if bump is not None:
        j = draw(st.sampled_from(indices))
        p[j] = p.get(j, Poly.const(0)) + bump
    return mu, p


@settings(max_examples=60, deadline=None)
@given(perturbed_basis())
def test_the_slot_path_matches_the_references(case):
    # every shift, residual and verdict is one accumulation with a slot per
    # index; the references sum each index on its own
    mu, p = case
    for tup in (mu, mu.dot_t(-t), mu.dot_t(t - s)):
        assert shifted(p, tup) == ref.shifted(p, tup)
    got, want = decompose(p, mu), ref.decompose(p, mu)
    assert list(got.coefficients.items()) == list(want.coefficients.items())
    assert list(got.residual.items()) == list(want.residual.items())
    assert verify_harmonicity(mu, p) == ref.verify_harmonicity(mu, p)
