"""Independent answers for the benchmark's known-answer gate.

Closed-form moments are written here with plain Fraction arithmetic and
no umbrakit import, so agreement with the package is evidence.  The
series-path forms of the dot products use the package's series module,
a code path separate from the partition sums they check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial


def indices(d: int, order: int):
    """Every multi-index of dimension d with total at most order."""
    return [v for v in product(range(order + 1), repeat=d) if sum(v) <= order]


def gaussian_moments(sigma, order: int) -> dict:
    """E[X^v] for X ~ N(0, sigma), by Stein's recurrence
    E[X^(v+e_i)] = sum_j sigma_ij v_j E[X^(v-e_j)]."""
    d = len(sigma)
    out = {(0,) * d: Fraction(1)}
    for n in range(1, order + 1):
        for w in indices(d, n):
            if sum(w) != n:
                continue
            i = next(k for k, e in enumerate(w) if e)
            v = w[:i] + (w[i] - 1,) + w[i + 1:]
            acc = Fraction(0)
            for j in range(d):
                if v[j]:
                    acc += sigma[i][j] * v[j] * out[v[:j] + (v[j] - 1,) + v[j + 1:]]
            out[w] = acc
    return out


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** (k - j) * comb(k, j) * j ** n for j in range(k + 1)) // factorial(k)


def poisson_moments(rate: Fraction, order: int) -> list:
    """Touchard polynomials: E[X^n] = sum_j S(n, j) rate^j."""
    return [sum((stirling2(n, j) * rate ** j for j in range(n + 1)), Fraction(0))
            for n in range(order + 1)]


def gamma_moments(shape: Fraction, scale: Fraction, order: int) -> list:
    """E[X^n] = scale^n * shape (shape + 1) ... (shape + n - 1)."""
    out = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(out[-1] * scale * (shape + n - 1))
    return out


def inverse_gaussian_moments(a: Fraction, b: Fraction, order: int) -> list:
    """IG with mean a and shape b:
    E[X^n] = a^n sum_{k<n} (n-1+k)! / (k! (n-1-k)!) (a / 2b)^k."""
    out = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(a ** n * sum(Fraction(factorial(n - 1 + k),
                                         factorial(k) * factorial(n - 1 - k))
                                * (a / (2 * b)) ** k for k in range(n)))
    return out


def uniform_moments(order: int) -> list:
    """Moments of uniform(0, 1): one step of the negated Bernoulli process."""
    return [Fraction(1, n + 1) for n in range(order + 1)]


def bernoulli_half_moments(order: int) -> list:
    """Moments of a Bernoulli(1/2) variable: one step of the Euler process."""
    return [Fraction(1)] + [Fraction(1, 2)] * order


def comonotone(univariate: list, d: int) -> dict:
    """Joint moments of d identical copies of one variable: g_v = m_|v|."""
    return {v: univariate[sum(v)] for v in indices(d, len(univariate) - 1)}


def one_step_moments(kind: str, params: dict, d: int, order: int) -> dict:
    """Joint moments of the unit-time marginal of a named process."""
    if kind == "brownian":
        sigma = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        return gaussian_moments(sigma, order)
    univariate = {
        "poisson": lambda: poisson_moments(params["rate"], order),
        "gamma": lambda: gamma_moments(params["shape"], params["scale"], order),
        "inverse_gaussian": lambda: inverse_gaussian_moments(
            params["a"], params["b"], order),
        "bernoulli_neg": lambda: uniform_moments(order),
        "euler_half": lambda: bernoulli_half_moments(order),
    }[kind]()
    return comonotone(univariate, d)


def same_moments(got: dict, want: dict) -> bool:
    """Moment maps agree, a missing entry counting as zero."""
    return all(got.get(v, 0) == want.get(v, 0) for v in set(got) | set(want))
