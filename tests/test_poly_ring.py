"""The integer-numerator Poly against the Fraction-dict reference.

Both hold the same exact values, so every operation must agree to the
last rational: the same variables, the same coefficients and the same
text.  The order of the terms is not part of a polynomial's value.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit.polynomials import (Poly, _alignment, _dot, parse_poly, slot_sums,
                                  sum_of_products)

import poly_path as ref

NAMES = ("s", "t", "x1", "x2")

tiny = st.fractions(min_value=-3, max_value=3, max_denominator=4)
large = st.builds(Fraction,
                  st.integers(-2 ** 90, 2 ** 90),
                  st.integers(1, 2 ** 70))
rationals = st.one_of(tiny, large, st.integers(-5, 5))


@st.composite
def pairs(draw, max_terms=5):
    """The same polynomial in both rings, over a random subset of NAMES
    (possibly empty), with exponents that may leave a variable unused."""
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES), max_size=3))))
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, 2)) for _ in names)
        terms[e] = draw(rationals)
    return Poly(names, terms), ref.Poly(names, terms)


def same(p, q):
    """p (package) and q (reference) agree exactly."""
    assert type(p) is Poly
    assert p.vars == q.vars
    assert p.terms == q.terms
    assert str(p) == str(q)


@settings(max_examples=150, deadline=None)
@given(pairs(), pairs())
def test_ring_operations(a, b):
    (p, rp), (q, rq) = a, b
    same(p + q, rp + rq)
    same(p - q, rp - rq)
    same(p * q, rp * rq)
    same(-p, -rp)
    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)


@settings(max_examples=150, deadline=None)
@given(pairs(), rationals)
def test_scalars_on_both_sides(a, c):
    p, rp = a
    for x, rx in ((c, c), (Poly.const(c), ref.Poly.const(c))):
        same(p + x, rp + rx)
        same(x + p, rx + rp)
        same(p - x, rp - rx)
        same(x - p, rx - rp)
        same(p * x, rp * rx)
        same(x * p, rx * rp)
    if c:
        same(p / c, rp / c)
    else:
        with pytest.raises(ZeroDivisionError):
            p / c
    assert (p == c) == (rp == c)


@settings(max_examples=100, deadline=None)
@given(pairs(max_terms=3), st.integers(0, 4))
def test_powers(a, n):
    p, rp = a
    same(p ** n, rp ** n)


@settings(max_examples=150, deadline=None)
@given(pairs(), st.sampled_from(NAMES), st.integers(0, 2))
def test_structure(a, name, power):
    p, rp = a
    assert p.degree(name) == rp.degree(name)
    same(p.coefficient(name, power), rp.coefficient(name, power))
    assert p.is_zero() == rp.is_zero()
    assert p.is_constant() == rp.is_constant()
    if rp.is_constant():
        assert p.constant_value() == rp.constant_value()


@st.composite
def substitutions(draw):
    keys = draw(st.sets(st.sampled_from(NAMES), max_size=3))
    out, out_ref = {}, {}
    for k in sorted(keys):
        if draw(st.booleans()):
            c = draw(rationals)
            out[k], out_ref[k] = c, c
        else:
            out[k], out_ref[k] = draw(pairs(max_terms=3))
    return out, out_ref


@settings(max_examples=150, deadline=None)
@given(pairs(), substitutions())
def test_subs(a, mapping):
    p, rp = a
    same(p.subs(mapping[0]), rp.subs(mapping[1]))


def test_a_rename_drops_the_variables_that_do_not_occur():
    # the rename keeps its own path only when every variable occurs
    for names, terms, want in ((("t", "x1"), {(1, 0): 3}, ("s",)),
                               (("t",), {(0,): 3}, ()),
                               (("t", "x1"), {(1, 2): 3}, ("s", "x1"))):
        got = Poly(names, terms).subs({"t": Poly.var("s")})
        same(got, ref.Poly(names, terms).subs({"t": ref.Poly.var("s")}))
        assert got.vars == want


@settings(max_examples=100, deadline=None)
@given(pairs(), st.sampled_from(NAMES), st.integers(1, 3), pairs(max_terms=3))
def test_reduce_power(a, name, order, rep):
    p, rp = a
    same(p.reduce_power(name, order, rep[0]), rp.reduce_power(name, order, rep[1]))


@settings(max_examples=100, deadline=None)
@given(pairs(), pairs())
def test_cancellation_is_canonical(a, b):
    p, _ = a
    q, _ = b
    for zero in (p - p, p + (-p), (p + q) - q - p, p * 0):
        assert zero.is_zero() and zero == 0
        assert (zero._nums, zero._den) == ({}, 1)
        assert hash(zero) == hash(0)
    # one common denominator, reduced against every numerator
    for r in (p + q, p * q, p - q):
        assert r._den > 0 and math.gcd(r._den, *r._nums.values()) == 1


@settings(max_examples=150, deadline=None)
@given(pairs(), st.sampled_from(NAMES))
def test_hash_ignores_zero_degree_variables(a, extra):
    p, _ = a
    if extra in p.vars:
        return
    names = tuple(sorted(p.vars + (extra,)))
    i = names.index(extra)
    q = Poly(names, {e[:i] + (0,) + e[i:]: c for e, c in p.terms.items()})
    assert p == q and q == p
    assert hash(p) == hash(q)


@given(rationals)
def test_constants_hash_like_their_scalar(c):
    for p in (Poly.const(c), Poly(("t",), {(0,): c}), Poly(("s", "t"), {(0, 0): c})):
        assert p == c
        assert hash(p) == hash(c) == hash(Fraction(c))
    assert hash(Poly.const(Fraction(c)) + Poly.var("t") - Poly.var("t")) == hash(c)


def test_terms_cannot_change_the_polynomial():
    p = Poly.var("t") + 1
    p.terms[(0,)] = Fraction(2)
    assert p == Poly.var("t") + 1
    with pytest.raises(AttributeError):
        p.vars = ("s",)


# -- packed exponent keys ----------------------------------------------------

TOP = 2 ** 31 - 1   # the largest exponent a key holds

# pairs of variable tuples whose union interleaves them, nests one in the
# other, or puts one after the other as a series part's ~z names do
LAYOUTS = [(("t", "~z1"), ("x1", "~z1")), (("a", "c"), ("b",)), (("b",), ("a", "c")),
           (("t",), ("~z1", "~z2")), ((), ("s", "t")), (("s", "t"), ("t", "x1", "~z1")),
           (("a", "b", "c"), ("a", "c"))]

exponents = st.one_of(st.integers(0, 2), st.sampled_from([TOP - 1, TOP]))


@st.composite
def over(draw, names, exps=exponents):
    """The same polynomial in both rings over names, some of which may
    have degree 0, with exponents drawn from exps (up to TOP)."""
    dead = draw(st.sets(st.sampled_from(names))) if names else set()
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(0 if x in dead else draw(exps) for x in names)
        terms[e] = draw(rationals)
    return Poly(names, terms), ref.Poly(names, terms)


@st.composite
def layout_pairs(draw):
    a, b = draw(st.sampled_from(LAYOUTS))
    return draw(over(a)), draw(over(b))


def agree(p, q):
    """p (package) and q (reference) are the same polynomial, over
    variable tuples that may differ by variables of degree 0."""
    assert type(p) is Poly
    as_package = Poly(q.vars, q.terms)
    assert p == as_package and as_package == p
    assert hash(p) == hash(as_package)
    assert str(p) == str(q)


@settings(max_examples=200, deadline=None)
@given(layout_pairs(), st.sampled_from([0, 1, -1, Fraction(-2, 3)]))
def test_packed_keys_agree_with_the_reference(pair, c):
    (p, rp), (q, rq) = pair
    same(p, rp)
    same(p + q, rp + rq)
    same(p - q, rp - rq)
    same(p + c, rp + c)
    same(c - p, c - rp)
    product = rp * rq
    if any(x > TOP for e in product.terms for x in e):
        with pytest.raises(ValueError, match=r"2\^31"):
            p * q
    else:
        same(p * q, product)
    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)
    for name in sorted(set(p.vars) | set(q.vars)):
        assert p.degree(name) == rp.degree(name)
        for power in {0, 1, rp.degree(name)}:
            same(p.coefficient(name, power), rp.coefficient(name, power))
    for name in p.vars:
        # renames that move the variable past others, and scalars whose
        # powers stay small however large the exponent
        for new in ("A", "w", "~z9"):
            if new not in p.vars:
                agree(p.subs({name: Poly.var(new)}), rp.subs({name: ref.Poly.var(new)}))
        for x in (0, 1, -1):
            agree(p.subs({name: x}), rp.subs({name: x}))


def test_suffix_and_constant_keys_need_no_re_keying():
    # a series part over ~z1..~zd meets a coefficient in t without a copy
    assert _alignment(("t",), ("~z1", "~z2"))[2] is None
    # a scalar's key is 0 over any variables
    assert _alignment((), ("s", "t"))[1] is None
    assert _alignment(("t", "~z1"), ("x1", "~z1"))[1] is not None


def test_exponents_stop_below_2_to_the_31():
    x, y = Poly.var("x"), Poly.var("y")
    top = x ** TOP
    assert top.degree("x") == TOP and top.terms == {(TOP,): 1}
    for overflowing in (lambda: top * x, lambda: x * top, lambda: top * top,
                        lambda: Poly(("x", "y"), {(TOP, 0): 1}) * x,
                        lambda: (top + y) * (x + 1), lambda: top ** 2):
        with pytest.raises(ValueError, match=r"2\^31") as err:
            overflowing()
        assert "\n" not in str(err.value)
    # the low field of (x^TOP) * x never spills into y
    assert (Poly(("x", "y"), {(TOP - 1, 0): 1}) * x).terms == {(TOP, 0): 1}
    for bad in ((TOP + 1,), (-1,)):
        with pytest.raises(ValueError, match=r"not in \[0, 2\^31\)"):
            Poly(("x",), {bad: 1})


@pytest.mark.parametrize("text", ["x^2147483648", "3*t^99999999999999 + 1"])
def test_parse_poly_rejects_exponents_of_2_to_the_31(text):
    with pytest.raises(ValueError, match=r"is 2\^31 or more") as err:
        parse_poly(text)
    assert "\n" not in str(err.value)
    assert parse_poly("x^2147483647") == Poly.var("x") ** TOP


# -- one accumulation for a sum of products ------------------------------------

weights = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                      max_denominator=6), large)


@st.composite
def products(draw):
    """Up to five terms (a, b, w), each pair over one of the LAYOUTS, in
    both rings: a and b as package and reference Polys, w a rational."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        names_a, names_b = draw(st.sampled_from(LAYOUTS))
        a, b = draw(over(names_a, st.integers(0, 2))), draw(over(names_b, st.integers(0, 2)))
        out.append((a, b, Fraction(draw(weights))))
    return out


def reference_sum(terms):
    out = ref.Poly.const(0)
    for (_, ra), (_, rb), w in terms:
        out = out + ra * rb * w
    return out


def canonical(p):
    assert p._den > 0 and math.gcd(p._den, *p._nums.values()) == 1


@settings(max_examples=200, deadline=None)
@given(products())
def test_one_accumulation_is_the_sum_of_its_products(terms):
    got = _dot([(a, b, w.numerator, w.denominator) for (a, _), (b, _), w in terms])
    same(got, reference_sum(terms))
    canonical(got)
    pairs = [(a, b) for (a, _), (b, _), _ in terms] + [(w, a) for (a, _), _, w in terms]
    want = reference_sum([(a, b, 1) for a, b, _ in terms] +
                         [((None, ref.Poly.const(w)), a, 1) for a, _, w in terms])
    same(sum_of_products([(a, b, 1) for a, b in pairs]), want)


@settings(max_examples=100, deadline=None)
@given(products())
def test_an_accumulation_that_cancels_is_the_canonical_zero(terms):
    both = [(a, b, w.numerator, w.denominator) for (a, _), (b, _), w in terms]
    both += [(b, a, -n, d) for a, b, n, d in both]
    zero = _dot(both)
    assert zero.is_zero() and zero == 0 and hash(zero) == hash(0)
    assert (zero._nums, zero._den) == ({}, 1)
    assert zero.vars == reference_sum(terms).vars


def test_an_overflowing_product_raises_even_when_another_term_cancels_it():
    x = Poly.var("x")
    top, wide = x ** TOP, Poly(("x", "y"), {(TOP, 0): 1})
    for terms in ([(top, x, 1, 1), (top, x, -1, 1)],
                  [(x, top, 2, 3), (top, x, -2, 3)],
                  [(x, x, 1, 1), (wide, x, 1, 2), (x, wide, -1, 2)]):
        with pytest.raises(ValueError, match=r"2\^31") as err:
            _dot(terms)
        assert "\n" not in str(err.value)
    with pytest.raises(ValueError, match=r"2\^31"):
        sum_of_products([(top, x, 1), (-top, x, 1)])
    # up to 2^31 - 1 the same cancellation is an exact zero
    assert _dot([(x ** (TOP - 1), x, 1, 1), (x, x ** (TOP - 1), -1, 1)]) == 0


@st.composite
def factors(draw):
    """A factor of a weighted term, as itself and as a reference Poly: an
    int, a Fraction, a constant Poly or a Poly over NAMES."""
    kind = draw(st.sampled_from(("int", "fraction", "constant", "poly")))
    if kind == "poly":
        return draw(pairs(max_terms=3))
    c = draw(st.integers(-5, 5)) if kind == "int" else Fraction(draw(rationals))
    return (Poly.const(c) if kind == "constant" else c), ref.Poly.const(c)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(factors(), factors(), st.integers(-3, 3)), max_size=6))
def test_a_weighted_accumulation_is_the_naive_sum(terms):
    got = sum_of_products([(a, b, w) for (a, _), (b, _), w in terms])
    naive, want = Fraction(0), ref.Poly.const(0)
    for (a, ra), (b, rb), w in terms:
        naive = naive + w * a * b
        want = want + ra * rb * w
    assert type(got) is Poly
    canonical(got)
    assert 0 not in got._nums.values()
    assert got == naive
    # a dropped zero term may leave fewer variables; the text is the value
    assert str(got) == str(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(factors(), factors(), st.integers(-3, 3)), max_size=4),
                max_size=4))
def test_one_slotted_accumulation_is_a_sum_of_products_per_slot(slots):
    got = slot_sums([[(a, b, w) for (a, _), (b, _), w in terms] for terms in slots])
    want = {}
    for i, terms in enumerate(slots):
        p = sum_of_products([(a, b, w) for (a, _), (b, _), w in terms])
        if not p.is_zero():
            want[i] = p
    assert list(got) == list(want)
    for i, p in got.items():
        assert type(p) is Poly
        canonical(p)
        assert p == want[i] and str(p) == str(want[i])


def test_an_overflowing_product_raises_in_any_slot_even_when_another_term_cancels_it():
    x, y = Poly.var("x"), Poly.var("y")
    top = x ** TOP
    for slots in ([[(top, x, 1), (top, x, -1)], [(y, y, 1)]],
                  [[(y, y, 1)], [], [], [(x, top, 1), (top, x, -1)]],
                  [[(x, x, 1)], [(y ** TOP, y, 1), (y, y ** TOP, -1)]]):
        with pytest.raises(ValueError, match=r"2\^31") as err:
            slot_sums(slots)
        assert "\n" not in str(err.value)
    # up to 2^31 - 1 the same cancellation leaves every slot empty
    assert slot_sums([[], [], [(x ** (TOP - 1), x, 1), (x, x ** (TOP - 1), -1)]]) == {}
