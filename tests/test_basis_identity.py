"""The basis sweep read off one series identity, against the sweep that
builds and checks every Q_v on its own.

basis_identity(mu) gives step = (-t).mu + (t - s).mu and zero = (-t).mu
+ t.mu; basis_sweep reads each verdict off them, and takes the
certificate of a Q_v the identity finds not harmonic from
verify_harmonicity.  The reference is harmonic_path.per_index_sweep, on
the same arrays, true or with one moment of dot_t(t - s), dot_t(t) or
dot_t(-t) moved: the identity is algebra on the three arrays, so it must
agree on any of them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbrakit import multiindex as mi
from umbrakit.harmonic import basis_identity, basis_sweep
from umbrakit.polynomials import Poly
from umbrakit.processes import ProcessSpec, build
from umbrakit.umbrae import UmbraTuple, augmentation

import harmonic_path as ref

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
t, s, a = Poly.var("t"), Poly.var("s"), Poly.var("a")


@st.composite
def arrays(draw):
    """An array (d <= 3, N <= 5) of rationals or of Polys in a, as it is
    or with one moment of dot_t(t - s), dot_t(t) or dot_t(-t) moved by t,
    s or 1."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 5 if d < 3 else 4))
    parametric = draw(st.booleans())
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = draw(RATIONALS) + (draw(RATIONALS) * a if parametric else 0)
    mu = UmbraTuple(d, order, ms)
    time = draw(st.sampled_from((None, t - s, t - s, t, -t)))
    if time is not None:
        w = draw(st.sampled_from([v for v in mi.iter_indices(d, order) if any(v)]))
        mu = ref.MovedArray(mu, time, w, draw(st.sampled_from((t, s, Poly.const(1)))))
    return mu, draw(st.integers(1, order))


@settings(max_examples=60, deadline=None)
@given(arrays())
def test_the_identity_sweep_matches_the_per_index_sweep(case):
    # the sweep over |v| <= top reads the identity at the array's full order
    mu, top = case
    indices = [v for v in mi.iter_indices(mu.dim, top) if any(v)]
    got = list(basis_sweep(mu, indices))
    assert got == list(ref.per_index_sweep(mu, indices))
    # a moved moment of dot_t(t - s) at w fails Q_w, one of dot_t(t) its mean
    if isinstance(mu, ref.MovedArray) and mu.move[0] != -t and mi.total(mu.move[1]) <= top:
        time, w, _ = mu.move
        verdict = {v: (ok, zero) for v, ok, _, zero in got}[w]
        assert verdict == ((False, True) if time == t - s else (True, False))


def test_a_sweep_checks_its_indices_as_the_per_index_sweep_does():
    mu = build(ProcessSpec("gamma", 2, 3, {})).one_step
    assert list(basis_sweep(mu, [])) == []
    for bad in ([(1, 0), (2, 2)], [(-1, 0)], [(1,)]):
        with pytest.raises(ValueError) as got:
            list(basis_sweep(mu, bad))
        with pytest.raises(ValueError) as want:
            list(ref.per_index_sweep(mu, bad))
        assert str(got.value) == str(want.value)


def test_the_identity_holds_for_every_process():
    for kind in ("brownian", "poisson", "gamma", "inverse_gaussian", "bernoulli_neg",
                 "euler_half"):
        for d, order in ((1, 8), (2, 5), (3, 4)):
            mu = build(ProcessSpec(kind, d, order, {})).one_step
            step, zero = basis_identity(mu)
            assert step == mu.dot_t(-s)
            assert zero == augmentation(order, d)
