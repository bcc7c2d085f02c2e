"""Round trips through the coefficient-map converter and the TSH basis."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import (decompose, poly_to_coeff_map, to_poly,
                               tsh_polynomial, verify_harmonicity, x_names)
from umbrakit.polynomials import Poly
from umbrakit.umbrae import UmbraTuple

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polys_in_x_and_t(draw):
    d = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * (d + 1))
    terms = draw(st.dictionaries(exponents, RATIONALS, max_size=8))
    return d, Poly(("t",) + x_names(d), terms)


@settings(max_examples=60, deadline=None)
@given(polys_in_x_and_t())
def test_coeff_map_roundtrip(case):
    d, p = case
    coeffs = poly_to_coeff_map(p, d)
    assert all(len(k) == d for k in coeffs)
    assert all(not any(name in c.vars and c.degree(name) for name in x_names(d))
               for c in coeffs.values())
    assert to_poly(coeffs) == p


@st.composite
def combinations(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 4))
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = draw(RATIONALS)
    mu = UmbraTuple(d, order, ms)
    indices = list(mi.iter_indices(d, order))
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=5, unique=True))
    nonzero = RATIONALS.filter(lambda c: c != 0)
    return mu, {k: draw(nonzero) for k in chosen}


@settings(max_examples=40, deadline=None)
@given(combinations())
def test_decompose_recovers_random_combinations(case):
    mu, cs = case
    combo: dict = {}
    for v, c in cs.items():
        for k, q_k in tsh_polynomial(mu, v).coeffs.items():
            combo[k] = combo.get(k, Poly.const(0)) + c * q_k
    result = decompose(combo, mu)
    assert result.coefficients == cs
    assert result.residual == {}


@st.composite
def verdict_cases(draw):
    """A random array (d <= 2, N <= 4) and P = sum_k c_k Q_k, with one
    coefficient p_j(t) of P moved by a rational multiple of t^a when drawn."""
    d = draw(st.integers(1, 2))
    order = draw(st.integers(1, 4))
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = draw(RATIONALS)
    mu = UmbraTuple(d, order, ms)
    indices = list(mi.iter_indices(d, order))
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4, unique=True))
    nonzero = RATIONALS.filter(lambda c: c != 0)
    p: dict = {}
    for v in chosen:
        c = draw(nonzero)
        for k, q_k in tsh_polynomial(mu, v).coeffs.items():
            p[k] = p.get(k, Poly.const(0)) + c * q_k
    if draw(st.booleans()):
        j = draw(st.sampled_from(sorted(p)))
        p[j] = p[j] + draw(nonzero) * Poly.var("t") ** draw(st.integers(0, 2))
    return mu, p


@settings(max_examples=60, deadline=None)
@given(verdict_cases())
def test_verify_and_decompose_give_the_same_verdict(case):
    # decompose proves TSH-ness through the basis: P is TSH iff its
    # residual is empty; verify_harmonicity checks the definition
    mu, p = case
    assert verify_harmonicity(mu, p)[0] == decompose(p, mu).exact
