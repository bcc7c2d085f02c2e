import json
import random
from fractions import Fraction

import pytest

from umbrakit import multiindex as mi
from umbrakit.harmonic import (coefficient_recursion_check, conditional_eval,
                               decompose, expected_value_zero, shift_coeffs,
                               tsh_from_json, tsh_polynomial, tsh_to_json,
                               tsh_to_latex, verify_harmonicity)
from umbrakit.polynomials import Poly
from umbrakit.processes import ProcessSpec, build
from umbrakit.series import OrderMismatchError
from umbrakit.umbrae import UmbraTuple, unity

t, s = Poly.var("t"), Poly.var("s")
x1 = Poly.var("x1")


def proc(kind, d=1, order=6, **params):
    return build(ProcessSpec(kind, d, order, params)).one_step


def test_q1_generic():
    mu = proc("gamma", shape=Fraction(2), scale=Fraction(1, 2))
    q = tsh_polynomial(mu, (1,))
    g1 = mu.eval_power((1,))
    assert q.as_polynomial() == x1 - t * g1


def test_known_q2_examples():
    brownian = tsh_polynomial(proc("brownian"), (2,))
    assert brownian.as_polynomial() == x1 ** 2 - t
    poisson = tsh_polynomial(proc("poisson", rate=Fraction(1)), (2,))
    assert poisson.as_polynomial() == x1 ** 2 - 2 * t * x1 + t ** 2 - t


def test_coeff_map_contains_all_lower_indices():
    q = tsh_polynomial(proc("brownian"), (2,))
    assert set(q.coeffs) == {(0,), (1,), (2,)}
    assert q.coefficient((1,)).is_zero()
    assert q.coefficient((2,)) == 1
    assert q.coefficient((0,)) == -t


def test_coefficient_laws_and_t0():
    for kind in ("poisson", "gamma", "bernoulli_neg"):
        mu = proc(kind)
        for v in [(1,), (3,), (4,)]:
            q = tsh_polynomial(mu, v)
            assert q.coefficient(v) == 1
            for k in q.coeffs:
                if k != v:
                    assert q.coefficient(k).subs({"t": 0}).is_zero()
            # Q_v(x, 0) = x^v
            assert q.as_polynomial().subs({"t": 0}) == x1 ** v[0]


def test_conditional_eval_examples():
    mu = proc("gamma")
    g1 = mu.eval_power((1,))
    c = conditional_eval(mu, (1,))
    assert c.coefficient((1,)) == 1
    assert c.coefficient((0,)) == (t - s) * g1
    # t = s leaves only the identity term
    c2 = conditional_eval(mu, (3,))
    for j in mi.iter_indices(1, 3):
        expected = Poly.const(1 if j == (3,) else 0)
        assert c2.coefficient(j).subs({"t": s}) == expected
    # s = 0: conditioning on 0.mu leaves E[(t.mu)^v] in the j = 0 slot
    forward = mu.dot_t("t")
    assert c2.coefficient((0,)).subs({"s": 0}) == forward.eval_power((3,))


def test_verify_harmonicity_positive_and_negative():
    mu = proc("poisson")
    for v in [(1,), (2,), (3,), (4,)]:
        q = tsh_polynomial(mu, v)
        ok, cert = verify_harmonicity(mu, q.coeffs)
        assert ok and cert is None
    # x^2 alone is not harmonic when g1 != 0
    ok, cert = verify_harmonicity(mu, {(2,): Poly.const(1)})
    assert not ok
    assert cert is not None and "index" in cert
    # constants are trivially harmonic
    ok, _ = verify_harmonicity(mu, {(0,): Poly.const(1)})
    assert ok


def test_verify_harmonicity_d2():
    mu = proc("brownian", d=2, order=3)
    for v in [(1, 1), (2, 1)]:
        q = tsh_polynomial(mu, v)
        ok, _ = verify_harmonicity(mu, q.coeffs)
        assert ok


def test_expected_value_zero():
    mu = proc("poisson")
    for v in [(1,), (2,), (3,)]:
        assert expected_value_zero(mu, v)
    with pytest.raises(ValueError):
        expected_value_zero(mu, (0,))


def test_recursion_check_proof_version():
    mu = unity(4)
    rep = coefficient_recursion_check(mu, (2,))
    assert rep.proof_version_holds
    assert rep.first_mismatch is None
    # the alternative printed form fails in general; document it
    mu2 = proc("poisson", order=4)
    rep2 = coefficient_recursion_check(mu2, (4,))
    assert rep2.proof_version_holds
    assert not rep2.printed_version_holds


def test_recursion_check_claims_the_printed_form_below_v_only():
    # for v = (1) the printed form holds at k = 0 whatever g_1 is, and at
    # k = v it would need g_1 = 1
    mu = UmbraTuple(1, 2, {(0,): 1, (1,): 2, (2,): 5})
    rep = coefficient_recursion_check(mu, (1,))
    assert (rep.proof_version_holds, rep.printed_version_holds) == (True, True)
    assert rep.first_mismatch is None


@pytest.mark.parametrize("kind, d, v, params, cert", [
    ("gamma", 1, (3,), {"shape": Fraction(2), "scale": Fraction(1, 2)},
     {"index": (0,), "conditional": "-s^4 + 3/2*s^3 - s^2*t + s*t^2 - 1/2*s^2",
      "expected": "-s^4 + 3/2*s^3 - 1/2*s^2"}),
    ("poisson", 2, (2, 1), {},
     {"index": (0, 0), "conditional": "-s^4 + 3*s^3 - s^2*t + s*t^2 - s^2",
      "expected": "-s^4 + 3*s^3 - s^2"}),
])
def test_verify_with_s_in_the_coefficients(kind, d, v, params, cert):
    # p_k holds both t and s, so t -> s is no rename and Poly.subs expands
    # term by term; the certificates were recorded before the rename path
    mu = proc(kind, d=d, order=4, **params)
    scaled = {k: s * q for k, q in tsh_polynomial(mu, v).coeffs.items()}
    assert verify_harmonicity(mu, scaled) == (True, None)
    low = (1,) + (0,) * (d - 1)
    scaled[low] = scaled[low] + t * s
    assert verify_harmonicity(mu, scaled) == (False, cert)


def test_decompose_basis_element_and_combination():
    mu = proc("brownian")
    q2 = tsh_polynomial(mu, (2,))
    d = decompose(q2.coeffs, mu)
    assert d.exact and d.coefficients == {(2,): 1}
    # P = Q_2 + 3 Q_1 = x^2 + 3x - t
    combo = {(2,): Poly.const(1), (1,): Poly.const(3), (0,): -t}
    d2 = decompose(combo, mu)
    assert d2.exact
    assert d2.coefficients == {(2,): 1, (1,): 3}
    # x^2 alone leaves a residual in t
    d3 = decompose({(2,): Poly.const(1)}, proc("poisson"))
    assert not d3.exact


def test_decompose_random_combinations():
    rnd = random.Random(99)
    mu = proc("gamma", order=5)
    basis = {v: tsh_polynomial(mu, (v,)) for v in range(5)}
    for _ in range(100):
        cs = {v: Fraction(rnd.randint(-6, 6), rnd.randint(1, 3))
              for v in rnd.sample(range(5), rnd.randint(1, 4))}
        combo: dict = {}
        for v, c in cs.items():
            for k, qk in basis[v].coeffs.items():
                combo[k] = combo.get(k, Poly.const(0)) + c * qk
        d = decompose(combo, mu)
        assert d.exact
        assert d.coefficients == {(v,): c for v, c in cs.items() if c != 0}


def test_json_roundtrip_and_latex():
    mu = proc("poisson")
    q = tsh_polynomial(mu, (3,))
    data = tsh_to_json(q)
    json.dumps(data)
    back = tsh_from_json(data)
    assert back.index == q.index
    for k in q.coeffs:
        assert back.coefficient(k) == q.coefficient(k)
    tex = tsh_to_latex(q)
    assert "x_{1}^{3}" in tex


def test_specialize_time():
    q = tsh_polynomial(proc("brownian"), (2,))
    at2 = q.specialize_time(2)
    assert at2[(0,)] == -2 and at2[(2,)] == 1


@pytest.mark.parametrize("check", [
    lambda mu: tsh_polynomial(mu, (-1,)),
    lambda mu: expected_value_zero(mu, (-1,)),
    lambda mu: verify_harmonicity(mu, {(-1,): t}),
    lambda mu: conditional_eval(mu, (-1,)),
    lambda mu: decompose({(-1,): t}, mu),
    lambda mu: decompose({(2,): Poly.const(1), (-1,): Poly.const(0)}, mu),
    lambda mu: shift_coeffs(mu, (-1,)),
], ids=["tsh_polynomial", "expected_value_zero", "verify_harmonicity",
        "conditional_eval", "decompose", "decompose_zero_coefficient", "shift_coeffs"])
def test_a_negative_index_is_rejected(check):
    # an empty expansion of (-1,) used to prove Q_{-1} = 0 harmonic
    with pytest.raises(ValueError, match="negative entry") as err:
        check(proc("poisson"))
    assert "\n" not in str(err.value)


ENTRIES = {
    "tsh_polynomial": tsh_polynomial,
    "expected_value_zero": expected_value_zero,
    "verify_harmonicity": lambda mu, k: verify_harmonicity(mu, {k: t}),
    "conditional_eval": conditional_eval,
    "decompose": lambda mu, k: decompose({k: 1}, mu),
    "shift_coeffs": shift_coeffs,
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("index, error, message", [
    ((1, 1), ValueError, r"has (wrong dimension \(d=1\)|2 entries, not d = 1)"),
    ((7,), OrderMismatchError, r"exceeds truncation order 6"),
], ids=["wrong_length", "above_order"])
def test_a_wrong_length_or_above_order_index_is_rejected(entry, index, error, message):
    # mu is d = 1 at N = 6: (1, 1) has two entries and |(7,)| = 7 > 6
    with pytest.raises(error, match=message) as err:
        ENTRIES[entry](proc("poisson"), index)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("check", ["verify_harmonicity", "decompose"])
@pytest.mark.parametrize("coeffs, error, message", [
    ({(-1,): 0, (9,): Poly.const(0)}, ValueError, r"negative entry"),
    ({(1,): 1, (9,): Poly.const(0)}, OrderMismatchError, r"exceeds truncation order 6"),
    ({(9,): t}, OrderMismatchError, r"exceeds truncation order 6"),
    ({(1, 2): 0, (1,): 1}, ValueError, r"has (wrong dimension \(d=1\)|2 entries, not d = 1)"),
], ids=["negative_zero", "above_order_zero", "above_order_t", "wrong_length_zero"])
def test_an_index_is_checked_whatever_its_coefficient(check, coeffs, error, message):
    # a zero p_k, or one with p_k(0) = 0, adds no term to the shift, but
    # its index must still fit mu (d = 1, N = 6)
    mu = proc("poisson")
    with pytest.raises(error, match=message) as err:
        if check == "verify_harmonicity":
            verify_harmonicity(mu, coeffs)
        else:
            decompose(coeffs, mu)
    assert "\n" not in str(err.value)
