import json
from fractions import Fraction

import pytest

from umbrakit import processes
from umbrakit.multiindex import OrderOverflowError
from umbrakit.polynomials import Poly
from umbrakit.processes import (ProcessSpec, UnsupportedProcessError,
                                bernoulli_neg_one_step, brownian_one_step,
                                build, euler_half_one_step, gamma_one_step,
                                ig_gf_check, ig_quadratic,
                                inverse_gaussian_closed_form,
                                inverse_gaussian_one_step,
                                load_custom_moments, moments_from_json,
                                moments_to_json, poisson_one_step)
from umbrakit.umbrae import UmbraTuple, comonotone_tuple

from oracles import touchard

t = Poly.var("t")


def test_spec_validation():
    with pytest.raises(UnsupportedProcessError):
        ProcessSpec("m_stable", 1, 4, {})
    with pytest.raises(ValueError):
        ProcessSpec("weird", 1, 4, {})
    with pytest.raises(ValueError):
        ProcessSpec("brownian", 0, 4, {})


def test_spec_owns_parameter_names_and_defaults():
    with pytest.raises(ValueError, match=r"'sclae' does not apply to gamma "
                                         r"\(takes: shape, scale\)"):
        ProcessSpec("gamma", 1, 3, {"shape": 2, "sclae": 3})
    with pytest.raises(ValueError, match=r"\(takes: none\)"):
        ProcessSpec("euler_half", 1, 3, {"rate": 1})
    with pytest.raises(ValueError, match="needs a 'path'"):
        ProcessSpec("custom", 1, 3)
    given = {"shape": "2"}
    spec = ProcessSpec("gamma", 1, 3, given)
    assert spec.params == {"shape": 2, "scale": 1}
    assert given == {"shape": "2"}
    assert ProcessSpec("brownian", 2, 2).params == {"C": [[1, 0], [0, 1]]}
    with pytest.raises(ValueError, match="has shape 1x1, need 2x2"):
        ProcessSpec("brownian", 2, 2, {"C": [[1]]})
    assert build(ProcessSpec("inverse_gaussian", 1, 4, {"b": 2})).one_step == \
        build(ProcessSpec("inverse_gaussian", 1, 4, {"a": 1, "b": 2})).one_step


def test_a_row_added_to_kinds_is_a_process(monkeypatch):
    # a point mass at m: its defaults come from the row, its one step from
    # the row's constructor, and no other table names it
    made = []

    def point_mass(p, order, d):
        made.append(comonotone_tuple(
            UmbraTuple(1, order, {(k,): p["m"] ** k for k in range(order + 1)}), d))
        return made[-1]

    monkeypatch.setitem(processes.KINDS, "point", ({"m": Fraction(2)}, point_mass))
    assert ProcessSpec("point", 2, 3).params == {"m": 2}
    spec = ProcessSpec("point", 2, 3, {"m": "1/2"})
    assert spec.params == {"m": Fraction(1, 2)}
    with pytest.raises(ValueError, match=r"^parameter 'rate' does not apply to point "
                                         r"\(takes: m\)$"):
        ProcessSpec("point", 1, 3, {"rate": 1})
    proc = build(spec)
    assert proc.one_step is made[-1]
    assert proc.one_step.eval_power((2, 1)) == Fraction(1, 8)
    assert proc.time_tuple == proc.one_step.dot_t("t")


def test_equal_specs_hash_equal_and_key_a_dict():
    pairs = [(ProcessSpec("gamma", 1, 2), ProcessSpec("gamma", 1, 2, {"shape": "1"})),
             (ProcessSpec("brownian", 2, 3),
              ProcessSpec("brownian", 2, 3, {"C": [[1, 0], [0, 1]]})),
             (ProcessSpec("custom", 1, 2, {"path": "m.json"}),
              ProcessSpec("custom", 1, 2, {"path": "m.json"}))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert {a: "cached"}[b] == "cached"
    skewed = ProcessSpec("brownian", 2, 3, {"C": [[1, 0], [1, 1]]})
    assert len({pairs[1][0], pairs[1][1], skewed}) == 2
    # reads through params still see the parsed values
    assert pairs[1][1].params["C"][1] == [0, 1]


def test_spec_dimension_cap():
    with pytest.raises(OrderOverflowError, match=r"dimension 9 outside \[1, 8\]"):
        ProcessSpec("brownian", 9, 2, {})
    assert ProcessSpec("brownian", 8, 2, {}).dim == 8


def test_spec_order_cap(monkeypatch):
    with pytest.raises(OrderOverflowError):
        ProcessSpec("poisson", 1, 21, {})
    monkeypatch.setenv("UMBRA_MAX_ORDER", "3")
    ProcessSpec("poisson", 1, 3, {})
    with pytest.raises(OrderOverflowError):
        ProcessSpec("poisson", 1, 4, {})


def test_brownian_time_moments():
    proc = build(ProcessSpec("brownian", 1, 4, {}))
    g = proc.time_tuple
    assert g.eval_power((1,)) == 0
    assert g.eval_power((2,)) == t
    assert g.eval_power((3,)) == 0
    assert g.eval_power((4,)) == 3 * t ** 2
    at2 = proc.at_time(2)
    assert at2.eval_power((4,)) == 12


def test_brownian_correlated_covariance():
    C = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    one = brownian_one_step(C, 2)
    # Sigma = CC^T = [[1,1],[1,2]]
    assert one.eval_power((2, 0)) == 1
    assert one.eval_power((1, 1)) == 1
    assert one.eval_power((0, 2)) == 2


def test_poisson_moments_are_touchard_polynomials():
    one = poisson_one_step(Fraction(1), 5)
    assert [one.eval_power((k,)) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    proc = build(ProcessSpec("poisson", 1, 4, {"rate": Fraction(1)}))
    g = proc.time_tuple
    assert g.eval_power((1,)) == t
    assert g.eval_power((2,)) == t ** 2 + t
    for k in range(5):
        mk = g.eval_power((k,))
        at3 = mk.subs({"t": 3}) if isinstance(mk, Poly) else mk
        assert at3 == touchard(k, 3)
    with pytest.raises(ValueError):
        poisson_one_step(Fraction(0), 4)


def test_gamma_moments():
    shape, scale = Fraction(3), Fraction(1, 2)
    one = gamma_one_step(shape, scale, 4)
    rising = Fraction(1)
    for k in range(1, 5):
        rising *= shape + k - 1
        assert one.eval_power((k,)) == rising * scale ** k
    with pytest.raises(ValueError):
        gamma_one_step(Fraction(-1), Fraction(1), 4)


def test_ig_quadratic_series():
    a, b = Fraction(2), Fraction(3)
    q = ig_quadratic(a, b, 4)
    assert q.eval_power((1,)) == Fraction(1) / a
    assert q.eval_power((2,)) == Fraction(-1) / b
    assert q.eval_power((3,)) == 0


def test_ig_mean_and_gf_check():
    a, b = Fraction(1), Fraction(1)
    one = inverse_gaussian_one_step(a, b, 6)
    assert one.eval_power((1,)) == a
    assert ig_gf_check(Fraction(1), Fraction(1), 6)
    assert ig_gf_check(Fraction(2), Fraction(3), 5)
    # t = 0 specialization of both sides is trivially 1
    closed = inverse_gaussian_closed_form(a, b, 6)
    assert closed.constant_term() == 1
    with pytest.raises(ValueError):
        inverse_gaussian_one_step(Fraction(-1), b, 4)


def test_bernoulli_neg_and_euler_half_moments():
    one = bernoulli_neg_one_step(5, 1)
    assert [one.eval_power((k,)) for k in range(6)] == \
        [1] + [Fraction(1, k + 1) for k in range(1, 6)]
    two = euler_half_one_step(5, 1)
    assert [two.eval_power((k,)) for k in range(6)] == \
        [1] + [Fraction(1, 2)] * 5
    # comonotone lift for d > 1
    lifted = bernoulli_neg_one_step(4, 2)
    assert lifted.eval_power((1, 1)) == Fraction(1, 3)


def test_moments_json_roundtrip():
    proc = build(ProcessSpec("poisson", 1, 3, {"rate": Fraction(2)}))
    data = moments_to_json(proc.time_tuple, params=["t"])
    assert data["params"] == ["t"]
    back = moments_from_json(data)
    assert back == proc.time_tuple
    # rational-only payloads round-trip too
    data2 = moments_to_json(proc.one_step)
    assert moments_from_json(data2) == proc.one_step
    json.dumps(data)  # serializable as-is


def test_custom_process(tmp_path):
    proc = build(ProcessSpec("gamma", 1, 4, {"shape": Fraction(2),
                                             "scale": Fraction(1)}))
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(moments_to_json(proc.one_step)))
    loaded = load_custom_moments(path)
    assert loaded == proc.one_step
    custom = build(ProcessSpec("custom", 1, 4, {"path": str(path)}))
    assert custom.one_step == proc.one_step
    bad = build  # custom spec with mismatched dimension fails
    with pytest.raises(ValueError):
        bad(ProcessSpec("custom", 2, 4, {"path": str(path)}))


def test_build_defaults():
    proc = build(ProcessSpec("brownian", 2, 3, {}))
    assert proc.one_step.eval_power((2, 0)) == 1
    assert proc.one_step.eval_power((1, 1)) == 0


def test_brownian_factor_shape_must_match_dim():
    for C in ([[1]], [[1, 0]], [[1, 0], [0]], []):
        with pytest.raises(ValueError, match=r"brownian C for --d 2 has shape"):
            build(ProcessSpec("brownian", 2, 2, {"C": C}))
