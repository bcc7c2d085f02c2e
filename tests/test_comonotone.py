"""A comonotone tuple computes on its univariate base; these tests check it
against the same moment array built from a dict, which computes on the
d-variate gf.

comonotone_tuple(F, d) keeps F and forms the gf F(z1 + ... + zd) only
when to_series is read.  Every op must give the dict array's moments,
errors and gf, whether it ran on the base (dot_t, dot_n, a sum of two
lifts, truncate) or on the lifted gf (a sum with a plain tuple), and the
basis sweep must give the same verdicts and certificates, also on arrays
with one moment of a dot product moved.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import basis_sweep
from umbrakit.polynomials import Poly
from umbrakit.processes import ProcessSpec, build
from umbrakit.umbrae import UmbraTuple, comonotone_tuple, time_argument, unity

import harmonic_path as ref

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
t, s, a = Poly.var("t"), Poly.var("s"), Poly.var("a")
TIMES = (t, -t, t - s, -s, 1)
LIFT = type(comonotone_tuple(unity(1), 2))


@st.composite
def pairs(draw):
    """A lift of a drawn univariate array (d 2-4, N <= 5, rational or in a)
    and the plain tuple with the same moments g_v = m_|v|."""
    d = draw(st.integers(2, 4))
    order = draw(st.integers(0, {2: 5, 3: 4, 4: 3}[d]))
    parametric = draw(st.booleans())
    return [lifted(draw, d, order, parametric) for _ in range(2)]


def lifted(draw, d, order, parametric):
    m = [Fraction(1)] + [draw(RATIONALS) + (draw(RATIONALS) * a if parametric else 0)
                         for _ in range(order)]
    base = UmbraTuple(1, order, {(k,): c for k, c in enumerate(m)})
    plain = UmbraTuple(d, order, {v: m[mi.total(v)] for v in mi.iter_indices(d, order)})
    return comonotone_tuple(base, d), plain


def outcome(fn):
    """What fn() returns, or its error's type and message."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def same(lift, plain):
    """The lift holds plain's array: moments, gf and both equalities."""
    assert dict(lift.moments) == dict(plain.moments)
    assert lift.to_series() == plain.to_series()
    assert lift == plain and plain == lift


@settings(max_examples=40, deadline=None)
@given(pairs())
def test_a_lift_reads_what_the_dict_array_reads(pair):
    (mu, plain), (nu, other) = pair
    d, order = mu.dim, mu.order
    assert mu.base is not None and plain.base is None
    assert dict(mu.moments) == dict(plain.moments)
    for v in mi.iter_indices(d, order):
        assert mu.eval_power(v) == plain.eval_power(v)
    for v in [(0,) * (d + 1), (-1,) + (0,) * (d - 1), (order + 1,) + (0,) * (d - 1), [0] * d]:
        assert outcome(lambda: mu.eval_power(v)) == outcome(lambda: plain.eval_power(v))
    assert (mu == nu) == (plain == other) == (mu == other) == (plain == nu)
    same(mu, plain)


@settings(max_examples=25, deadline=None)
@given(pairs())
def test_a_lift_computes_what_the_dict_array_computes(pair):
    (mu, plain), (nu, other) = pair
    for p in TIMES:
        got = mu.dot_t(p)
        assert got.base is not None
        same(got, plain.dot_t(p))
    assert mu.dot_t(1) == mu
    for n in (0, 2):
        same(mu.dot_n(n), plain.dot_n(n))
    # two lifts add on their bases; a lift and a plain tuple on the gf
    assert (mu + nu).base is not None
    for got in (mu + nu, mu + other, other + mu, mu.tuple_sum(other)):
        same(got, plain + other)
    same(mu.dot_sum(-t, t), plain.dot_sum(-t, t))
    same(mu.dot_sum(-t, t - s), plain.dot_sum(-t, t - s))
    for n in range(mu.order + 1):
        got = mu.truncate(n)
        assert got.base is not None
        same(got, plain.truncate(n))
    assert mu.truncate(mu.order) is mu
    for n in (-1, mu.order + 1):
        assert outcome(lambda: mu.truncate(n)) == outcome(lambda: plain.truncate(n))
    # a sum across orders fails as the plain sum does
    if mu.order:
        low = mu.truncate(mu.order - 1)
        assert outcome(lambda: mu + low) == outcome(lambda: plain + plain.truncate(mu.order - 1))


class MovedLift(LIFT):
    """A lift whose dot_t at one time argument has one moment moved, as
    harmonic_path.MovedArray is for a plain tuple."""

    def __init__(self, base, dim, time, w, bump):
        super().__init__(base, dim)
        self.move = (time, w, bump)

    def dot_t(self, t):
        out = super().dot_t(t)
        time, w, bump = self.move
        return ref.moved(out, w, bump) if time_argument(t) == time else out


@settings(max_examples=30, deadline=None)
@given(pairs(), st.data())
def test_a_lift_sweeps_as_the_dict_array_sweeps(pair, data):
    (mu, plain), _ = pair
    assert list(basis_sweep(mu)) == list(basis_sweep(plain))
    if mu.order:
        time = data.draw(st.sampled_from((t - s, t, -t, -s)))
        w = data.draw(st.sampled_from([v for v in mi.iter_indices(mu.dim, mu.order) if any(v)]))
        bump = data.draw(st.sampled_from((t, s, Poly.const(1))))
        got = list(basis_sweep(MovedLift(mu.base, mu.dim, time, w, bump)))
        assert got == list(basis_sweep(ref.MovedArray(plain, time, w, bump)))


@pytest.mark.parametrize("kind", ["poisson", "gamma", "inverse_gaussian", "bernoulli_neg",
                                  "euler_half"])
def test_comonotone_processes_keep_a_base(kind):
    proc = build(ProcessSpec(kind, 3, 4, {}))
    assert proc.one_step.base is not None and proc.time_tuple.base is not None
    want = UmbraTuple(3, 4, dict(proc.one_step.moments)).dot_t("t")
    same(proc.time_tuple, want)
