"""The basis sweep read off one series identity, against the sweep that
builds and checks every Q_v on its own.

basis_identity(mu) gives step = (-t).mu + (t - s).mu and zero = (-t).mu
+ t.mu; basis_sweep reads each verdict off them, and takes the
certificate of a Q_v the identity finds not harmonic from
verify_harmonicity.  The reference is harmonic_path.per_index_sweep, on
the same arrays, true or with one moment of dot_t(t - s), dot_t(t),
dot_t(-t) or dot_t(-s) moved: the identity is algebra on these arrays,
so it must agree on any of them.  expected_value_zero reads entry v of
zero, the tuple sum the sweep reads, and is checked on the same arrays
against harmonic_path.expected_value_zero, the former per-index sum.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import basis_identity, basis_sweep, expected_value_zero
from umbrakit.polynomials import Poly
from umbrakit.processes import ProcessSpec, build
from umbrakit.umbrae import UmbraTuple, augmentation

import harmonic_path as ref

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
t, s, a = Poly.var("t"), Poly.var("s"), Poly.var("a")


@st.composite
def arrays(draw):
    """An array (d <= 3, N <= 5) of rationals or of Polys in a, as it is
    or with one moment of dot_t(t - s), dot_t(t), dot_t(-t) or dot_t(-s)
    moved by t, s or 1."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 5 if d < 3 else 4))
    parametric = draw(st.booleans())
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = draw(RATIONALS) + (draw(RATIONALS) * a if parametric else 0)
    mu = UmbraTuple(d, order, ms)
    time = draw(st.sampled_from((None, t - s, t - s, t, -t, -s)))
    if time is not None:
        w = draw(st.sampled_from([v for v in mi.iter_indices(d, order) if any(v)]))
        mu = ref.MovedArray(mu, time, w, draw(st.sampled_from((t, s, Poly.const(1)))))
    return mu


@settings(max_examples=60, deadline=None)
@given(arrays())
def test_the_identity_sweep_matches_the_per_index_sweep(mu):
    # the sweep covers every v != 0 with |v| <= the array's order
    indices = [v for v in mi.iter_indices(mu.dim, mu.order) if any(v)]
    got = list(basis_sweep(mu))
    assert got == list(ref.per_index_sweep(mu, indices))
    # a moved moment of dot_t(t - s) at w fails Q_w, one of dot_t(t) its
    # mean, and one of dot_t(-s) neither
    if isinstance(mu, ref.MovedArray) and mu.move[0] != -t:
        time, w, _ = mu.move
        verdict = {v: (ok, zero) for v, ok, _, zero in got}[w]
        assert verdict == {t - s: (False, True), t: (True, False), -s: (True, True)}[time]


def test_the_identity_holds_for_every_process():
    for kind in ("brownian", "poisson", "gamma", "inverse_gaussian", "bernoulli_neg",
                 "euler_half"):
        for d, order in ((1, 8), (2, 5), (3, 4)):
            mu = build(ProcessSpec(kind, d, order, {})).one_step
            step, zero = basis_identity(mu)
            assert step == mu.dot_t(-s)
            assert zero == augmentation(order, d)


@settings(max_examples=60, deadline=None)
@given(arrays())
def test_the_zero_mean_verdict_matches_the_per_index_sum(mu):
    for v in mi.iter_indices(mu.dim, mu.order):
        if any(v):
            assert expected_value_zero(mu, v) is ref.expected_value_zero(mu, v)


class SumSpy(UmbraTuple):
    """A tuple that records every tuple sum it hands out."""

    def __init__(self, mu):
        self._adopt(mu.to_series())
        self.handed = []

    def dot_sum(self, p, q):
        self.handed.append(super().dot_sum(p, q))
        return self.handed[-1]


def test_expected_value_zero_reads_the_zero_sum_of_the_identity():
    mu = SumSpy(build(ProcessSpec("gamma", 2, 4, {})).one_step)
    assert expected_value_zero(mu, (1, 2)) and expected_value_zero(mu, (3, 0))
    zero = basis_identity(mu)[1]
    # both calls read the one product the identity hands out, not a copy
    assert mu.handed[0] is mu.handed[1] is zero
    assert zero == augmentation(4, 2)
