"""Moment-wise tuple and disjoint sums, kept as a test reference for the
generating-function path in umbrakit.umbrae.

    tuple sum:    E[(mu + nu)^v] = sum_{k <= v} C(v, k) g_k h_{v-k}
    disjoint sum: g_v + h_v for v != 0, and 1 at v = 0

Both loop over moments directly, so they share no code with the series
product f g and the sum f + g - 1.
"""

from fractions import Fraction
from itertools import product

from umbrakit import multiindex as mi
from umbrakit.umbrae import UmbraTuple


def tuple_sum(mu, nu):
    out = {}
    for v in mu.indices():
        acc = Fraction(0)
        for k in product(*(range(e + 1) for e in v)):
            acc = acc + mi.multi_binomial(v, k) * (
                mu.eval_power(k) * nu.eval_power(mi.sub(v, k)))
        out[v] = acc
    return UmbraTuple(mu.dim, mu.order, out)


def disjoint_sum(mu, nu):
    out = dict(mu.moments)
    zero = (0,) * mu.dim
    for v, c in nu.moments.items():
        if v != zero:
            out[v] = out.get(v, Fraction(0)) + c
    return UmbraTuple(mu.dim, mu.order, out)
