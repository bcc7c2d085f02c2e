import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from umbrakit import cli, processes
from umbrakit import multiindex as mi
from umbrakit.cli import _process_spec, main, make_parser
from umbrakit.polynomials import parse_poly
from umbrakit.processes import build
from umbrakit.umbrae import UmbraTuple, time_argument

import harmonic_path as ref


@pytest.fixture
def fresh_builds():
    """Empty build's memo before and after a test that patches kernel
    code: the test must build under its patch, and no later test may
    read a process built under it."""
    processes._built.cache_clear()
    yield
    processes._built.cache_clear()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_partitions_command(capsys):
    code, out, _ = run(capsys, "partitions", "--v", "(1,1)")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["schema"] == "1"


def test_gen_tsh_brownian_example(capsys):
    code, out, _ = run(capsys, "gen-tsh", "--process", "brownian",
                       "--d", "1", "--v", "(2)")
    assert code == 0
    data = json.loads(out)
    assert data["tsh"]["coeffs"] == {"(0)": "-t", "(1)": "0", "(2)": "1"}


def test_gen_tsh_raises_a_given_c_to_the_order_of_v(capsys):
    # --order 1 is below |v| = 2, so the spec is rebuilt at order 2 from its
    # stored C; the output is that of the spec asked for at order 2
    argv = ["gen-tsh", "--process", "brownian", "--d", "2",
            "--params", '{"C": [[1,0],[1,1]]}', "--v", "(1,1)"]
    outs = [run(capsys, *argv, "--order", order) for order in ("1", "2")]
    assert outs[0] == outs[1] and outs[0][0] == 0
    # the covariance of x1 and x2 under C C^T is 1, not the identity's 0
    assert json.loads(outs[0][1])["tsh"]["coeffs"]["(0,0)"] == "-t"


def test_gen_tsh_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "q.json"
    code, out, _ = run(capsys, "gen-tsh", "--process", "poisson", "--d", "1",
                       "--v", "(3)")
    assert code == 0
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--process", "poisson", "--d", "1",
                       "--tsh", str(path))
    assert code == 0
    assert "PASS" in out


def test_verify_family(capsys):
    code, out, _ = run(capsys, "verify", "--family", "bernoulli",
                       "--d", "1", "--max-order", "4")
    assert code == 0
    assert "PASS" in out


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--process", "gamma", "--d", "1",
                       "--max-order", "3")
    assert code == 0
    assert out.count("PASS") == 3


def test_moments_and_cumulants(capsys):
    code, out, _ = run(capsys, "moments", "--process", "poisson", "--d", "1",
                       "--order", "3", "--params", '{"rate": "2"}')
    assert code == 0
    data = json.loads(out)
    assert data["moments"]["moments"]["(1)"] == "2*t"
    code, out, _ = run(capsys, "cumulants", "--process", "brownian",
                       "--d", "1", "--order", "4")
    assert code == 0
    data = json.loads(out)
    assert data["cumulants"]["moments"]["(2)"] == "1"
    assert data["cumulants"]["moments"]["(4)"] == "0"


def test_gen_family(capsys):
    code, out, _ = run(capsys, "gen-family", "--family", "bernoulli",
                       "--v", "(2)", "--t", "1")
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == "x1^2 - x1 + 1/6"
    code, out, _ = run(capsys, "gen-family", "--family", "hermite",
                       "--v", "(2)", "--latex")
    assert code == 0
    assert "x_{1}^{2}" in out


def test_ig_check(capsys):
    code, out, _ = run(capsys, "ig-check", "--a", "2", "--b", "3",
                       "--order", "6")
    assert code == 0
    assert "PASS" in out


def test_inverse_gaussian_at_order_zero(capsys):
    code, out, err = run(capsys, "moments", "--process", "inverse_gaussian",
                         "--d", "1", "--order", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["moments"]["moments"] == {"(0)": "1"}
    code, out, err = run(capsys, "ig-check", "--order", "0")
    assert (code, err) == (0, "")
    assert "PASS" in out


@pytest.mark.parametrize("perturbed", [False, True])
def test_verify_tsh_passes_iff_decompose_leaves_no_residual(capsys, tmp_path, perturbed):
    process = ("--process", "gamma", "--d", "2", "--order", "3")
    code, out, _ = run(capsys, "gen-tsh", *process, "--v", "(2,1)")
    assert code == 0
    tsh = json.loads(out)["tsh"]
    if perturbed:
        tsh["coeffs"]["(1,0)"] += " + t"
    path = tmp_path / "q.json"
    path.write_text(json.dumps(tsh))
    verify_code, _, _ = run(capsys, "verify", *process, "--tsh", str(path))
    decompose_code, out, _ = run(capsys, "decompose", *process, "--poly", str(path))
    residual = json.loads(out)["residual"]
    assert (verify_code == 0) == (residual == {})
    assert verify_code == decompose_code == (1 if perturbed else 0)


def test_tsh_coefficient_using_s_exits_3(capsys, tmp_path):
    # s is the conditioning time of the check: Q_(2) with "-2*t + s" at
    # (1) once failed with exit 1 and "conditional": "s*t - s"
    process = ("--process", "gamma", "--d", "1")
    code, out, _ = run(capsys, "gen-tsh", *process, "--v", "(2)")
    assert code == 0
    tsh = json.loads(out)["tsh"]
    tsh["coeffs"]["(1)"] = "-2*t + s"
    path = tmp_path / "q.json"
    path.write_text(json.dumps(tsh))
    code, out, err = run(capsys, "verify", *process, "--tsh", str(path))
    assert code == 3 and out == ""
    assert err == "error: coeffs index (1) uses s, the conditioning time of the harmonic check\n"


def test_decompose_command(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": {"(2)": "1", "(1)": "3", "(0)": "-t"}}))
    code, out, _ = run(capsys, "decompose", "--process", "brownian",
                       "--d", "1", "--poly", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is True
    assert data["coefficients"] == {"(2)": "1", "(1)": "3"}
    # non-harmonic input exits 1 with a residual
    path.write_text(json.dumps({"coeffs": {"(2)": "1"}}))
    code, out, _ = run(capsys, "decompose", "--process", "poisson",
                       "--d", "1", "--poly", str(path))
    assert code == 1
    assert json.loads(out)["exact"] is False


def test_unknown_process_exits_3(capsys):
    code, _, err = run(capsys, "gen-tsh", "--process", "nope", "--v", "(2)")
    assert code == 3
    assert "error" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen-tsh"])  # missing required --v
    assert exc.value.code == 2


def test_mc_verify_small(capsys):
    code, out, err = run(capsys, "mc-verify", "--process", "brownian",
                         "--d", "1", "--max-order", "2", "--paths", "10000",
                         "--seed", "1", "--times", "1/2,1")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "zero_mean" in err


def test_max_order_env(capsys, monkeypatch):
    monkeypatch.setenv("UMBRA_MAX_ORDER", "3")
    code, _, err = run(capsys, "partitions", "--v", "(4)")
    assert code == 3
    assert "exceeds" in err


def test_order_above_cap_exits_3(capsys):
    code, out, err = run(capsys, "moments", "--process", "poisson",
                         "--order", "21")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "exceeds" in err


def test_max_order_env_caps_gen_tsh(capsys, monkeypatch):
    monkeypatch.setenv("UMBRA_MAX_ORDER", "3")
    code, out, err = run(capsys, "gen-tsh", "--process", "gamma", "--v", "(6)")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "exceeds" in err


def test_zero_denominator_parameter_exits_3(capsys):
    code, out, err = run(capsys, "moments", "--process", "poisson",
                         "--params", '{"rate": "1/0"}')
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "rate" in err


def test_verify_max_order_above_order_names_both_flags(capsys):
    code, out, err = run(capsys, "verify", "--process", "gamma",
                         "--max-order", "8", "--order", "4")
    assert code == 3 and out == ""
    assert "--max-order 8" in err and "--order 4" in err


def test_brownian_factor_shape_must_match_d(capsys):
    code, out, err = run(capsys, "moments", "--process", "brownian", "--d", "2",
                         "--order", "2", "--params", '{"C": [[1]]}')
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "--d 2" in err and "1x1" in err


def test_hermite_factor_shape_must_match_v(capsys):
    code, out, err = run(capsys, "gen-family", "--family", "hermite",
                         "--v", "(2,1)", "--C", "[[1]]")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "1x1" in err


@pytest.mark.parametrize("argv", [
    ("moments", "--process", "brownian", "--params", '{"C": 5}'),
    ("gen-family", "--family", "hermite", "--v", "(1)", "--C", "[1]"),
])
def test_matrix_that_is_not_a_list_of_rows_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "list of rows" in err


def test_python_m_umbrakit_help():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "umbrakit", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: umbrakit" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("moments", "--process", "brownian", "--d", "9", "--order", "1"),
    ("verify", "--family", "bernoulli", "--d", "9", "--max-order", "1"),
    ("mc-verify", "--process", "gamma", "--d", "9", "--order", "1",
     "--max-order", "1", "--paths", "10000"),
    ("verify", "--family", "euler", "--d", "0", "--max-order", "2"),
])
def test_dimension_outside_the_cap_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "dimension" in err and "[1, 8]" in err


@pytest.mark.parametrize("times", ["1", "1,2,3"])
def test_times_needs_two_values(capsys, times):
    code, out, err = run(capsys, "mc-verify", "--process", "gamma",
                         "--paths", "10000", "--times", times)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "--times" in err and "s,t" in err


BAD_MAPS = {
    "file is a list": ([1, 2], [1, 2]),
    "map is a list": ({"v": "(1)", "d": 1, "coeffs": ["1"]},
                      {"d": 1, "order": 2, "moments": ["1"]}),
    "value is not a string": ({"v": "(1)", "d": 1, "coeffs": {"(1)": 1}},
                              {"d": 1, "order": 2, "moments": {"(0)": 1}}),
    "zero denominator": ({"v": "(1)", "d": 1, "coeffs": {"(1)": "1/0"}},
                         {"d": 1, "order": 2, "moments": {"(0)": "1", "(1)": "1/0"}}),
    # exponents are below 2^31, whether read or reached by a product
    "exponent 2^31": ({"v": "(1)", "d": 1, "coeffs": {"(1)": "1", "(0)": "t^2147483648"}},
                      {"d": 1, "order": 2, "moments": {"(0)": "1", "(1)": "a^2147483648"}}),
    "exponent 2^31 by a product": (
        {"v": "(1)", "d": 1, "coeffs": {"(1)": "1", "(0)": "t^2147483647*t"}},
        {"d": 1, "order": 2, "moments": {"(0)": "1", "(1)": "a^2147483647*a"}}),
}


@pytest.mark.parametrize("shape", sorted(BAD_MAPS))
@pytest.mark.parametrize("command", ["decompose", "verify --tsh", "custom process"])
def test_malformed_coefficient_map_exits_3(capsys, tmp_path, command, shape):
    coeffs, moments = BAD_MAPS[shape]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(moments if command == "custom process" else coeffs))
    argv = {
        "decompose": ("decompose", "--process", "brownian", "--poly", str(path)),
        "verify --tsh": ("verify", "--process", "brownian", "--tsh", str(path)),
        "custom process": ("moments", "--process", f"custom:{path}", "--order", "2"),
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tsh_factor_that_is_not_a_name_exits_3(capsys, tmp_path):
    # "-t/2" once read as a variable named "t/2", and x - t/2 passed
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"v": "(1)", "coeffs": {"(1)": "1", "(0)": "-t/2"}}))
    code, out, err = run(capsys, "verify", "--process", "brownian", "--d", "1",
                         "--tsh", str(path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "malformed factor 't/2'" in err


def test_tsh_dimension_must_match_its_index(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"v": "(1)", "d": 3, "coeffs": {"(1)": "1"}}))
    code, out, err = run(capsys, "verify", "--process", "brownian", "--d", "1",
                         "--tsh", str(path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "'d' is 3" in err


@pytest.mark.parametrize("v, d", [("(2)", "2"), ("(1,1)", "1")])
def test_tsh_file_dimension_must_match_the_process(capsys, tmp_path, v, d):
    # a correct d = 1 file under --d 2 once failed deep in the shift with
    # "index (2,) has wrong dimension (d=2)"
    coeffs = {"(2)": {"(2)": "1", "(0)": "-t"}, "(1,1)": {"(1,1)": "1"}}[v]
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"v": v, "coeffs": coeffs}))
    code, out, err = run(capsys, "verify", "--process", "brownian", "--d", d,
                         "--tsh", str(path))
    assert code == 3 and out == ""
    file_d = len(v.split(","))
    assert err == f"error: the --tsh file has d = {file_d}, but the process has --d {d}\n"


@pytest.mark.parametrize("data, message", [
    # once checked as a d = 1 polynomial and reported as "(1,1): PASS"
    ({"v": "(1,1)", "coeffs": {"(1)": "1"}}, "coeffs index (1) has 1 entries, not d = 2"),
    ({"v": "(1)", "coeffs": {"(1)": "1", "(0,1)": "3"}},
     "coeffs index (0,1) has 2 entries, not d = 1"),
    ({"coeffs": {"(1)": "1"}}, "missing key 'v'"),
    ({"v": 11, "coeffs": {"(1)": "1"}}, "'v' must be a string"),
    # once "(3): PASS": x1 is harmonic for brownian motion, but it is not Q_(3)
    ({"v": "(3)", "coeffs": {"(1)": "1"}}, "the coefficient at v = (3) is 0, not 1"),
    # once "(2): PASS": 5 Q_(2) is harmonic, but it is not Q_(2)
    ({"v": "(2)", "coeffs": {"(2)": "5", "(0)": "-5*t"}},
     "the coefficient at v = (2) is 5, not 1"),
    ({"v": "(2)", "coeffs": {"(2)": "1", "(0)": "-t", "(3)": "0"}},
     "coeffs index (3) is not <= v = (2)"),
    ({"v": "(1,1)", "coeffs": {"(1,1)": "1", "(2,0)": "t"}},
     "coeffs index (2,0) is not <= v = (1,1)"),
], ids=["short index", "long index", "no v", "v not a string", "x1 as Q_(3)", "5 Q_(2)",
        "index above v", "index beside v"])
@pytest.mark.parametrize("d", ["1", "2"])
def test_tsh_file_indices_must_match_v(capsys, tmp_path, data, message, d):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--process", "brownian", "--d", d,
                         "--tsh", str(path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("coeffs, d, message", [
    # once "exact": false with exit 1: p_(1,1)(0) = 0, so no Q_(1,1) was built
    ({"(1,1)": "t"}, "1", "coeffs index (1,1) has 2 entries, not d = 1"),
    ({"(1)": "1", "(0,1)": "t"}, "1", "coeffs index (0,1) has 2 entries, not d = 1"),
    ({"(2)": "1", "(0)": "-t"}, "2", "coeffs index (2) has 1 entries, not d = 2"),
], ids=["long t index", "long index beside a short one", "short index"])
def test_decompose_indices_must_have_d_entries(capsys, tmp_path, coeffs, d, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": coeffs}))
    code, out, err = run(capsys, "decompose", "--process", "brownian", "--d", d,
                         "--poly", str(path))
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["t", "0", "1"])
def test_decompose_index_above_the_order_exits_3(capsys, tmp_path, value):
    # p_(9)(0) = 0 for "t" and "0", so no Q_(9) is ever built for them
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": {"(9)": value}}))
    code, out, err = run(capsys, "decompose", "--process", "gamma", "--d", "1",
                         "--order", "8", "--poly", str(path))
    assert code == 3 and out == ""
    assert err == "error: |(9,)| exceeds truncation order 8\n"


def test_decompose_double_star_exits_3(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": {"(0)": "x1**2"}}))
    code, out, err = run(capsys, "decompose", "--process", "brownian",
                         "--d", "1", "--poly", str(path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "malformed factor ''" in err


@pytest.mark.parametrize("value,at_0", [("a", "a"), ("-2*t + s", "s")])
def test_decompose_value_at_0_not_rational_names_the_index(capsys, tmp_path, value, at_0):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": {"(1)": value}}))
    code, out, err = run(capsys, "decompose", "--process", "brownian", "--d", "1",
                         "--order", "4", "--poly", str(path))
    assert code == 3 and out == ""
    assert err == f"error: coeffs index (1): {parse_poly(value)} is {at_0} at t = 0, not a rational\n"


@pytest.mark.parametrize("process,d,time,w,bump,order,top", [
    pytest.param("gamma", 2, None, None, None, 4, 4, id="gamma-2-None-None-None"),
    pytest.param("gamma", 2, "t - s", (1, 0), "t", 4, 4, id="gamma-2-t - s-w1-t"),
    pytest.param("poisson", 1, "t - s", (2,), "s", 4, 4, id="poisson-1-t - s-w2-s"),
    pytest.param("ig", 3, "t - s", (0, 1, 1), "1", 4, 4, id="ig-3-t - s-w3-1"),
    pytest.param("brownian", 2, "t", (1, 1), "1", 4, 4, id="brownian-2-t-w4-1"),
    # a sweep below --order runs on the one-step tuple cut to --max-order
    pytest.param("gamma", 2, None, None, None, 6, 3, id="gamma-2-order6-top3"),
    pytest.param("ig", 3, None, None, None, 6, 3, id="ig-3-order6-top3"),
    pytest.param("gamma", 2, "t - s", (1, 0), "t", 6, 3, id="gamma-2-t - s-order6-top3"),
    pytest.param("ig", 3, "t - s", (0, 1, 1), "1", 6, 3, id="ig-3-t - s-order6-top3"),
    pytest.param("brownian", 2, "t", (1, 1), "1", 6, 3, id="brownian-2-t-order6-top3"),
    pytest.param("poisson", 1, "-t", (2,), "s", 6, 3, id="poisson-1--t-order6-top3"),
])
def test_verify_sweep_prints_what_the_per_index_loop_prints(capsys, monkeypatch, fresh_builds,
                                                           process, d, time, w, bump, order,
                                                           top):
    # the sweep reads its lines off basis_identity; the per-index loop builds
    # and checks each Q_v at the full order, here on the same arrays with
    # one moment moved
    if time is not None:
        dot_t, time, bump = UmbraTuple.dot_t, parse_poly(time), parse_poly(bump)
        monkeypatch.setattr(UmbraTuple, "dot_t", lambda self, t: (
            ref.moved(dot_t(self, t), w, bump) if time_argument(t) == time
            else dot_t(self, t)))
    argv = ["verify", "--process", process, "--d", str(d), "--order", str(order),
            "--max-order", str(top)]
    code, out, err = run(capsys, *argv)
    mu = build(_process_spec(make_parser().parse_args(argv))).one_step
    lines, certs = [], []
    indices = [v for v in mi.iter_indices(d, top) if any(v)]
    for v, ok, cert, zero in ref.per_index_sweep(mu, indices):
        lines.append(f"{mi.format_index(v)}: harmonic={ok} zero_mean={zero} "
                     f"{'PASS' if ok and zero else 'FAIL'}\n")
        if cert:
            certs.append(json.dumps(cert) + "\n")
    assert (out, err) == ("".join(lines), "".join(certs))
    assert code == (1 if "FAIL" in out else 0) == (0 if time is None else 1)


@pytest.mark.parametrize("value", [[1], 1.5, True], ids=["list", "float", "bool"])
@pytest.mark.parametrize("command,key", [("custom process", "d"),
                                         ("custom process", "order"),
                                         ("verify --tsh", "d")])
def test_dimension_and_order_must_be_json_integers(capsys, tmp_path, command, key, value):
    path = tmp_path / "in.json"
    if command == "custom process":
        data = {"d": 1, "order": 2, "moments": {"(0)": "1", "(1)": "1", "(2)": "2"}}
        argv = ("moments", "--process", f"custom:{path}", "--order", "2")
    else:
        data = {"v": "(1)", "d": 1, "coeffs": {"(1)": "1", "(0)": "0"}}
        argv = ("verify", "--process", "brownian", "--tsh", str(path))
    data[key] = value
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and f"'{key}' must be a JSON integer" in err


@pytest.mark.parametrize("cap, order", [(None, 21), ("5", 10)])
def test_custom_moment_file_obeys_the_order_cap(capsys, tmp_path, monkeypatch, cap, order):
    if cap:
        monkeypatch.setenv("UMBRA_MAX_ORDER", cap)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": 1, "order": order, "moments": {"(0)": "1", "(1)": "1"}}))
    code, out, err = run(capsys, "moments", "--process", f"custom:{path}", "--order", "2")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and f"order {order} exceeds the cap" in err


# Every subcommand with a malformed --v, --d, --order or --params: the
# documented exit code (2 usage, 3 spec), one line on stderr, nothing on
# stdout and no traceback.
MALFORMED = {
    "--v": [("a", 3), ("(1,,2)", 3), ("(-1)", 3), ("()", 3), ("(1.5)", 3),
            ("((1)", 3), ("(1)(2)", 3), ("(1,1,1,1,1,1,1,1,1)", 3), ("(21)", 3)],
    "--d": [("x", 2), ("1.5", 2), ("0", 3), ("-1", 3), ("9", 3)],
    "--order": [("x", 2), ("1.5", 2), ("-1", 3), ("21", 3)],
    "--params": [("{", 3), ("[1]", 3), ('{"rate": "x"}', 3), ('{"rate": [1]}', 3),
                 ('{"rate": "1/0"}', 3), ('{"rate": null}', 3), ('{"Rate": 2}', 3),
                 ('{"C": [[1]]}', 3)],
}
SUBCOMMANDS = {
    "partitions": ((), ("--v",)),
    "moments": (("--process", "poisson"), ("--d", "--order", "--params")),
    "cumulants": (("--process", "poisson"), ("--d", "--order", "--params")),
    "gen-tsh": (("--process", "poisson", "--v", "(1)"),
                ("--v", "--d", "--order", "--params")),
    "gen-family": (("--family", "hermite"), ("--v",)),
    "verify": (("--process", "poisson", "--max-order", "1"),
               ("--d", "--order", "--params")),
    "ig-check": ((), ("--order",)),
    "decompose": (("--process", "poisson", "--poly", "{poly}"),
                  ("--d", "--order", "--params")),
    "mc-verify": (("--process", "poisson", "--max-order", "1", "--paths", "10000"),
                  ("--d", "--order", "--params")),
}
SWEEP = [(cmd, flag, value, code)
         for cmd, (_, flags) in SUBCOMMANDS.items()
         for flag in flags for value, code in MALFORMED[flag]]


@pytest.mark.parametrize("cmd,flag,value,want", SWEEP)
def test_malformed_arguments_exit_with_one_line(capsys, tmp_path, cmd, flag, value, want):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"coeffs": {"(1)": "1"}}))
    base = [a.format(poly=poly) for a in SUBCOMMANDS[cmd][0]]
    if flag in base:
        i = base.index(flag)
        del base[i:i + 2]
    argv = [cmd, *base, flag, value]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == want, out.err
    assert out.out == ""
    assert out.err.count("\n") == 1 and "error" in out.err


def test_custom_moment_file_is_cut_to_the_order(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": 1, "order": 10,
                                "moments": {f"({k})": "1" for k in range(11)}}))
    code, out, err = run(capsys, "moments", "--process", f"custom:{path}", "--order", "2")
    assert code == 0 and err == ""
    moments = json.loads(out)["moments"]
    assert moments["order"] == 2 and len(moments["moments"]) == 3


@pytest.mark.parametrize("moments, message", [
    ({"(1)": "t", "(2)": "s + 1", "(3)": "a"}, "moments index (1) uses t"),
    ({"(1)": "a", "(2)": "a^2 - 2*s", "(3)": "a"}, "moments index (2) uses s"),
], ids=["t", "s"])
def test_custom_moment_file_using_t_or_s_exits_3(capsys, tmp_path, moments, message):
    # a one-step array in t or s was read as time-dependent: every Q_v
    # failed with certificates such as "conditional": "-s*t"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": 1, "order": 3, "moments": {"(0)": "1", **moments}}))
    code, out, err = run(capsys, "verify", "--process", f"custom:{path}",
                         "--order", "3", "--max-order", "3")
    assert code == 3 and out == ""
    assert err == f"error: {message}, which the checks read as time\n"


def test_custom_moment_file_may_use_a_parameter(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": 1, "order": 2,
                                "moments": {"(0)": "1", "(1)": "a", "(2)": "a^2 + 1"}}))
    code, out, err = run(capsys, "verify", "--process", f"custom:{path}",
                         "--order", "2", "--max-order", "2")
    assert code == 0 and err == ""
    assert out == "(1): harmonic=True zero_mean=True PASS\n(2): harmonic=True zero_mean=True PASS\n"


@pytest.mark.parametrize("command", ["verify", "mc-verify"])
def test_negative_order_is_named_before_max_order(capsys, command):
    code, out, err = run(capsys, command, "--process", "poisson", "--order", "-1")
    assert code == 3 and out == ""
    assert err == "error: order -1 is negative\n"


@pytest.mark.parametrize("argv", [["moments"], ["cumulants"], ["gen-tsh", "--v", "(1)"],
                                  ["verify"]], ids=lambda a: a[0])
def test_m_stable_names_its_divergent_mgf(capsys, argv):
    code, out, err = run(capsys, *argv, "--process", "m_stable", "--order", "3")
    assert code == 3 and out == ""
    assert err == ("error: m-stable processes have divergent moment generating "
                   "functions; no moment-level construction exists\n")


@pytest.mark.parametrize("order", ["-1", "-3"])
def test_gen_tsh_names_a_negative_order_before_raising_it_to_v(capsys, order):
    code, out, err = run(capsys, "gen-tsh", "--process", "poisson", "--order", order,
                         "--v", "(2)")
    assert code == 3 and out == ""
    assert err == f"error: order {order} is negative\n"


@pytest.mark.parametrize("order", ["-1", "-3"])
def test_ig_check_names_a_negative_order(capsys, order):
    assert run(capsys, "ig-check", "--order", order) == \
        (3, "", f"error: order {order} is negative\n")


def test_a_custom_file_with_a_negative_order_is_named(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": 1, "order": -1, "moments": {"(0)": "1"}}))
    assert run(capsys, "moments", "--process", f"custom:{path}", "--order", "0") == \
        (3, "", "error: order -1 is negative\n")


@pytest.mark.parametrize("argv, d, order", [
    (("moments",), 1, 6),
    (("cumulants", "--order", "3"), 1, 3),
    (("verify", "--d", "2", "--order", "2", "--max-order", "2"), 2, 2),
], ids=["default order", "higher order", "other d"])
def test_a_custom_file_that_does_not_fit_names_both_shapes(capsys, tmp_path, monkeypatch,
                                                           argv, d, order):
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps({"d": 1, "order": 2,
                                          "moments": {"(0)": "1", "(1)": "1", "(2)": "3"}}))
    code, out, err = run(capsys, argv[0], "--process", "custom:m.json", *argv[1:])
    assert code == 3 and out == ""
    assert err == (f"error: custom moment file m.json has d = 1 and order 2, "
                   f"but d = {d} and order {order} were asked for\n")


@pytest.mark.parametrize("command", ["moments", "verify", "mc-verify"])
def test_an_empty_custom_path_is_named(capsys, command):
    # an empty path names no file, not the working directory
    assert run(capsys, command, "--process", "custom:") == \
        (3, "", "error: the custom moment file path is empty\n")


REUSE_ARGVS = [
    ["partitions", "--v", "(2,1)"],
    ["mc-verify", "--process", "poisson", "--max-order", "1", "--paths", "10000",
     "--seed", "3", "--json"],
    ["gen-tsh"],                                        # usage error: no --v
    ["mc-verify", "--process", "poisson", "--max-order", "1", "--paths", "10000",
     "--seed", "3"],
    ["gen-tsh", "--process", "gamma", "--d", "2", "--v", "(1,1)"],
    ["verify", "--process", "poisson", "--order", "-1"],
    ["moments", "--process", "poisson", "--order", "2"],
    ["gen-tsh", "--process", "poisson", "--v", "(3)"],  # --order raised to |v| on args
    ["gen-tsh", "--process", "poisson", "--v", "(1)"],
]


def run_all(capsys, fresh):
    results = []
    for argv in REUSE_ARGVS:
        if fresh:
            make_parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        results.append((code, out.out, out.err))
    return results


def test_one_parser_serves_every_call(capsys):
    assert make_parser() is make_parser()
    shared = run_all(capsys, fresh=False)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 3, 0, 0, 0]
    assert shared == run_all(capsys, fresh=True)


# Each option a command or its mode does not read: once accepted and
# ignored with exit 0, now a usage error (2), or for --params with a
# custom process the error ProcessSpec gives every kind (3).
REFUSED = [
    (("verify", "--family", "euler", "--process", "gamma"), 2, "verify --family takes no --process"),
    (("verify", "--family", "euler", "--params", "{}"), 2, "verify --family takes no --params"),
    (("verify", "--family", "euler", "--order", "99"), 2, "verify --family takes no --order"),
    (("verify", "--family", "bernoulli", "--tsh", "{q}"), 2, "verify --family takes no --tsh"),
    (("verify", "--process", "brownian", "--tsh", "{q}", "--max-order", "3"), 2,
     "verify --tsh takes no --max-order"),
    (("gen-family", "--family", "bernoulli", "--v", "(1)", "--C", "[[1]]"), 2,
     "gen-family --family bernoulli takes no --C"),
    (("gen-family", "--family", "euler", "--v", "(1)", "--C", "[[1]]"), 2,
     "gen-family --family euler takes no --C"),
    *[((cmd, "--process", "custom:{m}", "--order", "2", *rest, "--params", '{"rate": "2"}'), 3,
       "parameter 'rate' does not apply to custom (takes: path)")
      for cmd, rest in [("moments", ()), ("cumulants", ()), ("gen-tsh", ("--v", "(1)")),
                        ("verify", ("--max-order", "2")), ("decompose", ("--poly", "{p}"))]],
    (("moments", "--process", "custom:{m}", "--order", "2", "--params", '{"path": "{q}"}'), 3,
     "a custom process takes its path from --process custom:PATH"),
    *[((*argv, "--output", "{out}"), 2, "unrecognized arguments: --output")
      for argv in [("partitions", "--v", "(1)"), ("moments",), ("cumulants",),
                   ("gen-tsh", "--v", "(1)"), ("gen-family", "--family", "euler", "--v", "(1)"),
                   ("verify", "--max-order", "1"), ("decompose", "--poly", "{p}"),
                   ("mc-verify", "--max-order", "1", "--paths", "10000")]],
]


@pytest.mark.parametrize("argv,want,message", REFUSED, ids=lambda x: " ".join(x)
                         if isinstance(x, tuple) else None)
def test_an_option_the_mode_does_not_read_is_refused(capsys, tmp_path, argv, want, message):
    files = {"m": tmp_path / "m.json", "p": tmp_path / "p.json", "q": tmp_path / "q.json",
             "out": tmp_path / "out.json"}
    files["m"].write_text(json.dumps({"d": 1, "order": 2,
                                      "moments": {"(0)": "1", "(1)": "a", "(2)": "a^2 + 1"}}))
    files["p"].write_text(json.dumps({"coeffs": {"(1)": "1"}}))
    files["q"].write_text(json.dumps({"v": "(2)", "coeffs": {"(2)": "1", "(0)": "-t"}}))
    for key, path in files.items():
        argv = [a.replace(f"{{{key}}}", str(path)) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (want, "")
    assert out.err.count("\n") == 1 and message in out.err
    assert not files["out"].exists()


def args_read(fn, seen):
    """The names n of every args.n that fn and the cli functions it calls read."""
    seen.add(fn)
    names = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            names.add(node.attr)
        callee = getattr(cli, getattr(node, "id", ""), None)
        if inspect.isfunction(callee) and callee.__module__ == cli.__name__ \
                and callee not in seen:
            names |= args_read(callee, seen)
    return names


SUBPARSERS = next(a for a in make_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_every_option_is_read_by_its_command(command):
    parser = SUBPARSERS[command]
    declared = {a.dest for a in parser._actions if a.dest != "help"}
    assert declared <= args_read(parser.get_default("fn"), set())


@pytest.mark.parametrize("argv,flag,value,want,message", [
    (("gen-family", "--family", "bernoulli", "--v", "(2)"), "--t", "-1/3", 0, ""),
    (("gen-family", "--family", "hermite", "--v", "(1,1)"), "--t", "-2/5", 0, ""),
    (("ig-check",), "--a", "-1/2", 3, "error: inverse Gaussian parameters must be positive\n"),
    (("mc-verify", "--max-order", "1", "--paths", "10000"), "--times", "-1/2,1", 3,
     "error: need 0 < s < t, got s=-1/2, t=1\n"),
], ids=["bernoulli --t", "hermite --t", "ig-check --a", "mc-verify --times"])
def test_a_negative_rational_is_a_value(capsys, argv, flag, value, want, message):
    # argparse took only -\d+ and -\d*.\d+ as values: --t -1/3 exited 2
    # with "expected one argument", and only --t=-1/3 was read
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out, err) == run(capsys, *argv, f"{flag}={value}")
    assert (code, err) == (want, message)


@pytest.mark.parametrize("argv", [
    ("verify", "--max-order", "-1"),
    ("verify", "--process", "gamma", "--d", "2", "--max-order", "-1"),
    ("verify", "--family", "euler", "--max-order", "-1"),
    ("verify", "--family", "bernoulli", "--d", "2", "--max-order", "-1"),
    ("mc-verify", "--max-order", "-1", "--paths", "10000"),
], ids=" ".join)
def test_a_negative_max_order_exits_3(capsys, argv):
    # the sweeps exited 0 having checked nothing, mc-verify printing
    # {"passed": true}, and a family sweep exited 3 naming its ring
    assert run(capsys, *argv) == (3, "", "error: --max-order -1 is negative\n")


@pytest.mark.parametrize("argv,want,message", [
    (("verify", "--tsh", ""), 3, "error: [Errno 2] No such file or directory: ''\n"),
    (("verify", "--tsh", "", "--max-order", "2"), 2,
     "umbrakit: error: verify --tsh takes no --max-order\n"),
    (("gen-family", "--family", "hermite", "--v", "(1,1)", "--C", ""), 3,
     "error: Expecting value: line 1 column 1 (char 0)\n"),
    (("moments", "--params", ""), 3, "error: Expecting value: line 1 column 1 (char 0)\n"),
    (("verify", "--process", "gamma", "--params", ""), 3,
     "error: Expecting value: line 1 column 1 (char 0)\n"),
], ids=["verify --tsh", "verify --tsh --max-order", "gen-family --C", "moments --params",
        "verify --params"])
def test_an_empty_option_is_given_not_absent(capsys, argv, want, message):
    # each was read as absent: the sweep ran, the identity factor was used,
    # the defaults were taken, and each exited 0
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (want, "", message)


DEEP = '{"a": ' * 1000 + "1" + "}" * 1000      # JSON nested 1000 deep


@pytest.mark.parametrize("argv,source", [
    (("verify", "--process", "gamma", "--params", DEEP), "--params"),
    (("gen-family", "--family", "hermite", "--v", "(1)", "--C", DEEP), "--C"),
    (("verify", "--tsh", "deep.json"), "deep.json"),
    (("decompose", "--poly", "deep.json"), "deep.json"),
    (("moments", "--process", "custom:deep.json"), "deep.json"),
], ids=["--params", "--C", "--tsh", "--poly", "custom"])
def test_json_nested_too_deeply_exits_3(capsys, tmp_path, monkeypatch, argv, source):
    # the decoder's RecursionError escaped main with a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    Path("deep.json").write_text(DEEP)
    assert run(capsys, *argv) == \
        (3, "", f"error: the JSON of {source} is nested too deeply to read\n")


def test_a_long_error_line_is_cut(capsys, tmp_path):
    # a moment of 3000 nested parentheses was echoed whole, 12,045 characters
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": 1, "order": 1,
                                "moments": {"(0)": "1", "(1)": "(" * 3000 + "1" + ")" * 3000}}))
    code, out, err = run(capsys, "moments", "--process", f"custom:{path}", "--order", "1")
    assert (code, out) == (3, "")
    assert err.endswith("…\n") and len(err) == cli.ERROR_WIDTH + 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value, shown", [("a\nb", "a\\nb"), ("a\rb", "a\\rb"),
                                          ("a\u2028b", "a\\u2028b")])
def test_a_line_break_in_an_argument_stays_on_one_line(capsys, value, shown):
    # argparse echoes an unrecognized argument as given, so a line break in
    # it split the usage error over two lines
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--bogus", value])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err == f"umbrakit: error: unrecognized arguments: --bogus {shown}\n"


ANCHORED = {
    "sweep": (("verify", "--process", "gamma", "--d", "2", "--order", "6", "--max-order", "6"),
              {"anchor": "dot_t(1) == one_step", "index": [0, 1], "dot_t(1)": "2",
               "one_step": "1"}),
    "tsh": (("verify", "--process", "brownian", "--tsh", "q.json"),
            {"anchor": "dot_t(1) == one_step", "index": [2], "dot_t(1)": "2", "one_step": "1"}),
    "family": (("verify", "--family", "euler", "--d", "2", "--max-order", "3"),
               {"anchor": "dot_t(1) == one_step", "index": [1], "dot_t(1)": "1",
                "one_step": "1/2"}),
}


@pytest.mark.parametrize("mode", sorted(ANCHORED))
def test_a_wrong_log_fails_the_anchor(capsys, tmp_path, monkeypatch, fresh_builds, mode):
    # with log f doubled every dot_t(p) is f^(2p), which keeps the exponent
    # law that the checks decide, so verify passed in every mode; the anchor
    # dot_t(1) == one_step is what fails
    from umbrakit import umbrae
    log = umbrae.series_log
    monkeypatch.setattr(umbrae, "series_log", lambda f: log(f).scale(2))
    monkeypatch.chdir(tmp_path)
    # Q_(2) of the doubled log, which is harmonic for the doubled process
    code, out, _ = run(capsys, "gen-tsh", "--process", "brownian", "--v", "(2)")
    Path("q.json").write_text(out)
    argv, cert = ANCHORED[mode]
    assert run(capsys, *argv) == (1, "", json.dumps(cert) + "\n")
