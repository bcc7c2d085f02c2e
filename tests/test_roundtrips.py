"""Round trips through the coefficient-map converter and the TSH basis."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import (decompose, poly_to_coeff_map, to_poly,
                               tsh_polynomial, x_names)
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
