"""The multi-index partition sum behind the dot products, kept as a test
reference for the generating-function path in umbrakit.umbrae.

    E[(p . mu)^v] = sum over partitions lambda of v of
        v! / (m(lambda)! lambda!) * w(l(lambda)) * prod_j g_{lambda_j}^{r_j}

with w(l) = (p)_l for dot_t and dot_n, and w(l) = p^l for dot_t_beta.
It walks mi.partitions, so it shares no code with the series path.
"""

from fractions import Fraction

from umbrakit import multiindex as mi
from umbrakit.umbrae import UmbraTuple


def falling_factorial(p, length):
    """(p)_l = p (p - 1) ... (p - l + 1), with (p)_0 = 1."""
    out = Fraction(1)
    for i in range(length):
        out = out * (p - i)
    return out


def _partition_sum(mu, weight_of_length):
    out = {}
    for v in mu.indices():
        acc = Fraction(0)
        for lam in mi.partitions(v):
            prod = mi.partition_weight(lam, v) * weight_of_length(lam.length())
            for col, r in zip(lam.columns, lam.multiplicities):
                prod = prod * mu.eval_power(col) ** r
            acc = acc + prod
        out[v] = acc
    return UmbraTuple(mu.dim, mu.order, out)


def dot_t(mu, p):
    return _partition_sum(mu, lambda length: falling_factorial(p, length))


def dot_t_beta(mu, p):
    return _partition_sum(mu, lambda length: p ** length)


def dot_n(mu, n):
    return dot_t(mu, Fraction(n))
