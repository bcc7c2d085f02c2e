"""Closed-form generation of the classical polynomial families.

Generalized Hermite, multivariate Bernoulli, multivariate Euler, and
Levy-Sheffer systems, each with an independent generating-function
expansion oracle and a harmonicity check against its driving process.

A Bernoulli or Euler member is E[(x + t.nu)^v] for a driver nu whose
inverse is the family's process mu, so it is the basis polynomial Q_v
of mu: its check is the tuple equality nu.dot_t(t) = mu.dot_t(-t) at
d = 1, which the lift z -> z1 + ... + zd carries to every d, and then
the verdicts harmonic.basis_sweep reads off the basis identity of mu's
lift, with no member built.  That lift is the bernoulli_neg or
euler_half process of processes.build, so the checks share its memo
with every other check of the process, and ProcessSpec's order and
dimension caps apply to them.  A Levy-Sheffer member carries x through
x1 + ... + xd and a composition dot-product, so it is no shift of x^k
by a tuple, and each member is checked on its own with
verify_harmonicity.  Only the closed forms bernoulli, euler and hermite
take a time (gen-family --t); the oracles and Levy-Sheffer use t itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import multiindex as mi
from .harmonic import (MINUS_T, T, basis_sweep, check_anchor, expectation,
                       poly_to_coeff_map, shift_coeffs, to_poly, verify_harmonicity,
                       x_names)
from .polynomials import Coefficient, Poly, as_poly
from .processes import ProcessSpec, brownian_one_step, build, check_square
from .series import TruncatedSeries, series_exp, series_pow
from .umbrae import (UmbraTuple, bernoulli_umbra, comonotone_tuple,
                     compositional_inverse, dot_beta_tuple, euler_umbra,
                     time_argument, unity)


def _shift_family(one_step: UmbraTuple, v: tuple[int, ...],
                  t: Coefficient | str) -> Poly:
    """E[(x + t . mu)^v] expanded into a Poly in x1..xd (and t)."""
    return to_poly(shift_coeffs(one_step.dot_t(t), v))


def _x_sum(d: int) -> Poly:
    """x1 + ... + xd."""
    return sum(map(Poly.var, x_names(d)), Poly.const(0))


def _x_dot_z(d: int) -> dict[tuple[int, ...], Poly]:
    """x1 z1 + ... + xd zd as exponential series coefficients."""
    return {tuple(int(j == i) for j in range(d)): Poly.var(name)
            for i, name in enumerate(x_names(d))}


def covariance_from_factor(C: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    d = len(C)
    return [
        [sum((Fraction(C[i][k]) * Fraction(C[j][k]) for k in range(d)), Fraction(0))
         for j in range(d)]
        for i in range(d)]


def hermite(v: tuple[int, ...], C: Sequence[Sequence[Fraction]],
            t: Coefficient | str = "t") -> Poly:
    """Generalized Hermite polynomial for covariance CC^T, as a Poly."""
    v = tuple(v)
    check_square(C, len(v), f"hermite C for v = {v}")
    C = [
        [Fraction(x) for x in row] for row in C]
    one_step = brownian_one_step(C, mi.total(v))
    # E[(x - t.mu)^v]: shift by the process with t negated
    return _shift_family(one_step, v, -time_argument(t))


def hermite_gf_oracle(v: tuple[int, ...], C: Sequence[Sequence[Fraction]]) -> Poly:
    """Coefficient of z^v/v! in exp{x z^T - (t/2) z Sigma z^T}."""
    v = tuple(v)
    check_square(C, len(v), f"hermite C for v = {v}")
    d = len(C)
    order = mi.total(v)
    sigma = covariance_from_factor(C)
    arg = _x_dot_z(d)
    for i in range(d):
        for j in range(d):
            if sigma[i][j]:
                e = tuple((2 if k == i else 0) if i == j else
                          (1 if k in (i, j) else 0) for k in range(d))
                arg[e] = arg.get(e, Poly.const(0)) \
                    - T * sigma[i][j] * Fraction(mi.mi_factorial(e), 2)
    return as_poly(series_exp(TruncatedSeries(d, order, arg)).get(v))


def hermite_scaling_identity(v: tuple[int, ...],
                             C: Sequence[Sequence[Fraction]]) -> bool:
    """The t . beta . (delta C^T) form equals 1 . beta . (delta (sqrt(t) C^T)).

    sqrt(t) is a declared symbol r with the rewrite r^2 -> t.
    """
    v = tuple(v)
    direct = hermite(v, C, T)
    r = Poly.var("r")
    Cr = [
        [r * Fraction(x) for x in row] for row in C]
    scaled = _shift_family(brownian_one_step(Cr, max(mi.total(v), 1)), v, -1)
    return direct == scaled.reduce_power("r", 2, T)


def bernoulli_tuple(order: int, d: int) -> UmbraTuple:
    """The d-tuple of identical Bernoulli-number umbrae."""
    return comonotone_tuple(bernoulli_umbra(order), d)


def euler_difference_tuple(order: int, d: int) -> UmbraTuple:
    """The tuple (1/2)(eta - u) driving the Euler family shift."""
    eta = euler_umbra(order)
    diff = eta.tuple_sum(unity(order).inverse_umbra()).scale(Fraction(1, 2))
    return comonotone_tuple(diff, d)


def bernoulli(v: tuple[int, ...], t: Coefficient | str = "t") -> Poly:
    """Multivariate Bernoulli polynomial E[(x + t . iota)^v]."""
    v = tuple(v)
    return _shift_family(bernoulli_tuple(mi.total(v), len(v)), v, t)


def euler(v: tuple[int, ...], t: Coefficient | str = "t") -> Poly:
    """Multivariate Euler polynomial E[(x + (t/2) . (eta - u))^v]."""
    v = tuple(v)
    return _shift_family(euler_difference_tuple(mi.total(v), len(v)), v, t)


def _classical_gf_oracle(base: TruncatedSeries, v: tuple[int, ...]) -> Poly:
    """Coefficient of z^v/v! in f(base, z)^t exp(x1 z1 + ... + xd zd)."""
    x_dot_z = TruncatedSeries(base.dim, base.order, _x_dot_z(base.dim))
    f = series_pow(base, T) * series_exp(x_dot_z)
    return as_poly(f.get(v))


def bernoulli_gf_oracle(v: tuple[int, ...]) -> Poly:
    v = tuple(v)
    return _classical_gf_oracle(bernoulli_tuple(mi.total(v), len(v)).to_series(), v)


def euler_gf_oracle(v: tuple[int, ...]) -> Poly:
    v = tuple(v)
    return _classical_gf_oracle(euler_difference_tuple(mi.total(v), len(v)).to_series(), v)


# -- Levy-Sheffer systems ---------------------------------------------

def levy_sheffer(mu: UmbraTuple, nu: UmbraTuple, k: tuple[int, ...]) -> Poly:
    """V_k(x, t) = E[(t . mu + (x1 + ... + xd) . beta . nu)^k].

    The x-sum enters as one auxiliary scalar parameter through the
    composition dot-product and is re-expanded afterwards.
    """
    mu._check(nu)
    b = nu.dot_t_beta("_xsum")
    return expectation(shift_coeffs(mu.dot_t(T), k), b).subs({"_xsum": _x_sum(mu.dim)})


def levy_sheffer_gf_oracle(mu: UmbraTuple, nu: UmbraTuple, k: tuple[int, ...]) -> Poly:
    """Coefficient of z^k/k! in [g(z)]^t exp{(x1+...+xd)[h(z) - 1]}."""
    g_t = series_pow(mu.to_series(), T)
    h1 = nu.to_series() - TruncatedSeries.one(mu.dim, mu.order)
    return as_poly((g_t * series_exp(h1.scale(_x_sum(mu.dim)))).get(tuple(k)))


def _collapse_exchangeable(tup: UmbraTuple) -> UmbraTuple | None:
    """The marginal m, m_k = g_(k,0,...,0), if tup is its comonotone lift
    (g_v = m_|v| at every v), else None."""
    pad = (0,) * (tup.dim - 1)
    m = UmbraTuple(1, tup.order, {(k,): tup.eval_power((k, *pad)) for k in range(tup.order + 1)})
    return m if comonotone_tuple(m, tup.dim) == tup else None


def levy_sheffer_process_one_step(mu: UmbraTuple, nu: UmbraTuple) -> UmbraTuple:
    """One step of the process that makes the Levy-Sheffer family harmonic.

    For d = 1 the driver is mu . beta . nu^<-1>; the family carries the
    x-shift with a plus sign, so the harmonic process is the driver's
    inverse (exactly as the Bernoulli family is harmonic for the negated
    Bernoulli process).

    For d > 1 the family depends on x only through x1 + ... + xd, so a
    driving process exists only when both moment arrays are exchangeable
    and comonotone (joint moments depend on |v| alone).  Everything then
    collapses to the univariate pair, and the one step is the comonotone
    lift of the univariate driver rescaled by 1/d, so that the component
    sum carries the full drift; the lift commutes with z -> z/d, so the
    one step keeps that driver as its base.  Outside that class no Levy
    process makes the family harmonic: already for f(nu, z) =
    (1+z1)(1+z2) and f(mu, z) = exp(z1+z2) the members V_(0,2) and
    V_(1,1) differ by x1 + x2, so their expectations cannot both vanish.
    """
    if mu.dim == 1:
        return dot_beta_tuple(mu, compositional_inverse(nu)).inverse_umbra()
    m = _collapse_exchangeable(mu)
    n = _collapse_exchangeable(nu)
    if m is None or n is None:
        raise ValueError(
            "no driving process exists for d > 1 unless both moment arrays "
            "are exchangeable-comonotone (joint moments depend only on |v|)")
    return comonotone_tuple(levy_sheffer_process_one_step(m, n).scale(Fraction(1, mu.dim)), mu.dim)


def levy_sheffer_tsh_check(mu: UmbraTuple, nu: UmbraTuple, max_order: int) -> bool:
    """Harmonicity and zero mean of every V_k, |k| <= max_order, for the pair.

    V_k is not the shift of x^k by a tuple, so each member is checked on
    its own: harmonic for the driving process and, for k != 0, with zero
    expectation along it."""
    one_step = levy_sheffer_process_one_step(mu, nu)
    forward = one_step.dot_t(T)
    for k in mi.iter_indices(mu.dim, max_order):
        coeffs = poly_to_coeff_map(levy_sheffer(mu, nu, k), mu.dim)
        ok, _ = verify_harmonicity(one_step, coeffs)
        if not ok or (any(k) and not expectation(coeffs, forward).is_zero()):
            return False
    return True


def _shift_family_tsh_check(one_step: UmbraTuple, driver: UmbraTuple) -> bool:
    """Every member E[(x + t.driver)^v], |v| <= the order, of the d-variate
    lift of the univariate driver is harmonic for one_step, the lift of a
    univariate tuple, and, for v != 0, has zero mean along it: the tuple
    equality, decided on the d = 1 base as the lift is a ring
    homomorphism, makes each member Q_v of the lift.  Both univariate
    tuples are anchored first: harmonic.AnchorError unless each one's
    dot_t(1) is itself."""
    base = one_step if one_step.base is None else one_step.base
    check_anchor(base, "one_step")
    check_anchor(driver, "driver")
    if driver.dot_t(T) != base.dot_t(MINUS_T):
        return False
    return all(ok and zero for _, ok, _, zero in basis_sweep(one_step))


def bernoulli_tsh_check(max_order: int, d: int = 1) -> bool:
    """Harmonicity and zero mean of B_v^(t) along the negated Bernoulli family."""
    return _shift_family_tsh_check(build(ProcessSpec("bernoulli_neg", d, max_order)).one_step,
                                   bernoulli_tuple(max_order, 1))


def euler_tsh_check(max_order: int, d: int = 1) -> bool:
    """Harmonicity and zero mean of the Euler polynomials along their process."""
    return _shift_family_tsh_check(build(ProcessSpec("euler_half", d, max_order)).one_step,
                                   euler_difference_tuple(max_order, 1))
