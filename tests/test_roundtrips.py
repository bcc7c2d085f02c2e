"""Round trips through the coefficient-map converter and the TSH basis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import (decompose, poly_to_coeff_map, to_poly,
                               tsh_polynomial, verify_harmonicity, x_names)
from umbrakit.polynomials import Poly, from_coeff_map, to_coeff_map
from umbrakit.processes import ProcessSpec, build
from umbrakit.umbrae import UmbraTuple

import poly_path as ref

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
    assert coeffs == ref.poly_to_coeff_map(p, x_names(d))
    assert all(type(c) is Poly for c in coeffs.values())


# Parameter sets around the names: "a" sorts before x1 and ~z1, "y" after
# x1 and "~zz" after ~z1, so the converter must interleave the variables.
PARAMETERS = [(), ("t",), ("s", "t"), ("a", "y"), ("t", "~zz")]
nonzero = RATIONALS.filter(bool)


@st.composite
def coeff_maps(draw):
    """(names, map, weight): a map over x1..xd or ~z1..~zd whose values are
    nonzero ints, Fractions and Polys, possibly constant, in parameters."""
    d = draw(st.integers(1, 3))
    names = draw(st.sampled_from([x_names(d), tuple(f"~z{i}" for i in range(1, d + 1))]))
    params = draw(st.sampled_from(PARAMETERS))
    poly = st.builds(Poly, st.just(params),
                     st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(params)),
                                     nonzero, min_size=1, max_size=3))
    value = st.one_of(st.integers(-4, 4).filter(bool), nonzero, poly)
    m = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * d), value, max_size=6))
    return names, m, draw(st.sampled_from([None, mi.mi_factorial]))


@settings(max_examples=150, deadline=None)
@given(coeff_maps())
def test_converter_round_trip(case):
    names, m, weight = case
    back = to_coeff_map(from_coeff_map(m, names, weight), names, weight)
    assert back == m
    assert all(type(c) is Fraction or not c.is_constant() for c in back.values())


@settings(max_examples=150, deadline=None)
@given(coeff_maps())
def test_converter_matches_the_ring_reference(case):
    names, m, weight = case
    p = from_coeff_map(m, names, weight)
    want = ref.to_poly({k: c * Fraction(1, weight(k) if weight else 1)
                        for k, c in m.items()}, names)
    assert p == want and str(p) == str(want)
    assert to_coeff_map(p, names) == \
        ({} if p.is_zero() else ref.poly_to_coeff_map(want, names))


def test_converter_empty_map_and_zero():
    assert from_coeff_map({}, x_names(2)) == 0
    assert to_coeff_map(Poly.const(0), x_names(2)) == {}
    assert to_coeff_map(Poly(("t",), {(2,): 3}), ()) == {(): 3 * Poly.var("t") ** 2}


def test_converter_rejects_a_coefficient_in_the_names():
    x1 = Poly.var("x1")
    with pytest.raises(ValueError, match="uses one of the variables"):
        from_coeff_map({(1,): x1}, x_names(1))
    with pytest.raises(ValueError, match="does not match the variables"):
        from_coeff_map({(1, 0): 1}, x_names(1))


def test_dot_t_coefficients_share_one_key_per_parameter_exponent():
    """All coefficients of one dot_t result hold each monomial key over
    (s, t) as one object, so a moment array does not repeat them."""
    mu = build(ProcessSpec("gamma", 2, 5)).one_step
    seen: dict = {}
    for c in mu.dot_t(Poly.var("t") - Poly.var("s")).moments.values():
        if type(c) is Poly:
            for e in c._nums:
                assert seen.setdefault(e, e) is e
    assert len(seen) > 10


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
