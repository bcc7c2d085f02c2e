"""The univariate basis identity re-derived with sympy, a second path that
shares no code with umbrakit.polynomials.

From the moments m_n(t) that `umbrakit moments` prints for gamma and
poisson, sympy forms the egf F_t(z) = sum m_n(t) z^n / n! and expands
F_{-t} F_{t-s} and F_{-t} F_t through z^N: the first must be F_{-s} and
the second 1, which is what makes every Q_v, |v| <= N, harmonic with
zero mean.  The coefficients of the first must also be the printed step
moments of harmonic.basis_identity, and the verify sweep must pass.
"""

import json

import pytest
import sympy

from umbrakit.cli import _process_spec, main, make_parser
from umbrakit.harmonic import basis_identity
from umbrakit.processes import build

t, s, z = sympy.symbols("t s z")
ORDER = 6


def printed_moments(capsys, argv):
    assert main(["moments", *argv]) == 0
    moments = json.loads(capsys.readouterr().out)["moments"]["moments"]
    return [sympy.sympify(moments[f"({n})"].replace("^", "**")) for n in range(ORDER + 1)]


def egf(moments, time):
    return sum(m.subs(t, time) * z ** n / sympy.factorial(n) for n, m in enumerate(moments))


def coefficients(f):
    """The exponential coefficients n! [z^n] f for n <= ORDER."""
    poly = sympy.Poly(sympy.expand(f), z)
    return [sympy.expand(poly.coeff_monomial(z ** n) * sympy.factorial(n))
            for n in range(ORDER + 1)]


@pytest.mark.parametrize("process,params", [
    ("gamma", '{"shape": "2", "scale": "1/3"}'),
    ("gamma", '{"shape": "1/2", "scale": "3"}'),
    ("poisson", '{"rate": "3/2"}'),
])
def test_the_identity_from_printed_moments(capsys, process, params):
    argv = ["--process", process, "--d", "1", "--order", str(ORDER), "--params", params]
    m = printed_moments(capsys, argv)
    back = egf(m, -t)
    step = coefficients(back * egf(m, t - s))
    assert step == coefficients(egf(m, -s))
    assert coefficients(back * egf(m, t)) == [1] + [0] * ORDER
    mu = build(_process_spec(make_parser().parse_args(["moments", *argv]))).one_step
    package_step, _ = basis_identity(mu)
    assert [sympy.sympify(str(package_step.eval_power((n,))).replace("^", "**"))
            for n in range(ORDER + 1)] == step
    assert main(["verify", *argv, "--max-order", str(ORDER)]) == 0
    assert capsys.readouterr().out.count("PASS") == ORDER
