import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from umbrakit.cli import main
from umbrakit.harmonic import tsh_polynomial
from umbrakit.montecarlo import (MAX_PATHS, MIN_PATHS, SamplerError, SimConfig,
                                 _poly_evaluator, _power, _zscore,
                                 sample_increment, sample_marginals,
                                 simulate_and_test)
from umbrakit.polynomials import Poly
from umbrakit.processes import ProcessSpec, build


def cfg_for(kind, d=1, paths=MIN_PATHS, seed=7, **params):
    spec = ProcessSpec(kind, d, 4, params)
    return spec, SimConfig(spec, paths, Fraction(1, 2), Fraction(1), seed)


def test_config_validation():
    spec = ProcessSpec("brownian", 1, 4, {})
    with pytest.raises(SamplerError):
        SimConfig(spec, MIN_PATHS, Fraction(1), Fraction(1, 2), 0)
    with pytest.raises(SamplerError):
        SimConfig(spec, 100, Fraction(1, 2), Fraction(1), 0)


@pytest.mark.parametrize("paths, seed, flag", [
    (MAX_PATHS + 1, 0, "--paths"), (10 ** 13, 0, "--paths"),
    (MIN_PATHS, -1, "--seed"), (MIN_PATHS, 2 ** 128, "--seed")])
def test_config_bounds_paths_and_seed(paths, seed, flag):
    # refused by the constructor alone: no path array is ever allocated
    spec = ProcessSpec("gamma", 1, 4, {})
    with pytest.raises(SamplerError, match=flag):
        SimConfig(spec, paths, Fraction(1, 2), Fraction(1), seed)


def test_config_accepts_the_bounds():
    spec = ProcessSpec("gamma", 1, 4, {})
    SimConfig(spec, MAX_PATHS, Fraction(1, 2), Fraction(1), 2 ** 128 - 1)
    SimConfig(spec, MIN_PATHS, Fraction(1, 2), Fraction(1), 0)


def test_no_sampler_for_formal_processes():
    rng = np.random.default_rng(0)
    for kind in ("bernoulli_neg", "euler_half"):
        spec = ProcessSpec(kind, 1, 4, {})
        with pytest.raises(SamplerError):
            sample_increment(spec, 1.0, 100, rng)


def test_poly_evaluator():
    p = Poly.var("x1") ** 2 + 3 * Poly.var("x2") - 1
    ev = _poly_evaluator(p, 2)
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert np.allclose(ev(x), [6.0, -4.0])
    with pytest.raises(SamplerError):
        _poly_evaluator(Poly.var("t"), 1)
    # one x laid out C-ordered, F-ordered and, with equal columns, as one
    # column shared at stride 0 (a comonotone sample): the same bytes
    q = 3 * Poly.var("x1") ** 3 * Poly.var("x2") - Poly.var("x2") ** 2 / 7 + 5
    ev = _poly_evaluator(q, 2)
    col = heavy_tailed(10_001, 5)
    for x in (heavy_tailed(20_002, 6).reshape(-1, 2), np.tile(col[:, None], (1, 2))):
        want = ev(np.ascontiguousarray(x)).tobytes()
        assert ev(np.asfortranarray(x)).tobytes() == want
    assert ev(np.broadcast_to(col[:, None], (col.shape[0], 2))).tobytes() == want


def test_equal_polys_evaluate_to_equal_floats():
    # 1 + 1e16 x - 1e16 x^2 at x = 1 is 0.0 or 1.0 by summation order
    terms = {(0,): 1, (1,): 10 ** 16, (2,): -10 ** 16}
    p = Poly(("x1",), terms)
    q = Poly(("x1",), dict(reversed(terms.items())))
    assert p == q
    x = np.array([[1.0], [-1.0], [0.5]])
    assert _poly_evaluator(p, 1)(x).tobytes() == _poly_evaluator(q, 1)(x).tobytes()


def heavy_tailed(n, seed):
    """Cubed Cauchy and Student-t draws, normals and a few exact zeros, shuffled:
    sums that lose digits to cancellation."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.standard_cauchy(n) ** 3, rng.standard_t(2.5, n) ** 3,
                        rng.standard_normal(n), np.zeros(3)])
    return x[rng.permutation(x.shape[0])[:n]]


@pytest.mark.parametrize("n", [2, 3, 7, 9, 127, 129, 1001, 8193, 100_003])
def test_zscore_matches_numpy_mean_and_std_bit_for_bit(n):
    for seed in range(4):
        a = heavy_tailed(n, seed)
        want_mean, want_sd = float(np.mean(a)), float(np.std(a, ddof=1))
        mean, se, _ = _zscore(a)
        assert mean.hex() == want_mean.hex()
        assert se.hex() == float(want_sd / np.sqrt(n)).hex()
        # with the deviations written over the samples themselves
        assert _zscore(a.copy(), work=None) == _zscore(a.copy(), work=np.empty(n))
        b = a.copy()
        assert _zscore(b, work=b)[:2] == (mean, se)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_is_numpy_pow_bit_for_bit(k):
    x = heavy_tailed(30_001, k).reshape(-1, 1)
    x = np.hstack([x, -x])
    for col in (x[:, 0], x[:, 1], np.ascontiguousarray(x[:, 0])):
        got = _power(col, k, np.empty(col.shape[0]))
        assert got.tobytes() == (col ** k).tobytes()


def test_evaluator_into_buffers_equals_fresh_arrays():
    p = (3 * Poly.var("x1") ** 3 * Poly.var("x2") - Poly.var("x2") ** 2 / 7
         + Poly.var("x1") * Poly.var("x2") + 5)
    x = heavy_tailed(20_002, 9).reshape(-1, 2)
    ev = _poly_evaluator(p, 2)
    out, scratch = np.full(10_001, np.nan), [np.full(10_001, np.nan) for _ in range(2)]
    assert ev(x, out, scratch) is out
    assert out.tobytes() == ev(x).tobytes()
    x1, x2 = x[:, 0], x[:, 1]
    # the sum in sorted exponent order, each term (c * x1^a) * x2^b
    terms = [np.full(10_001, 5.0), (-1 / 7) * x2 ** 2,
             (1.0 * x1 ** 1) * x2 ** 1, (3.0 * x1 ** 3) * x2 ** 1]
    want = np.zeros(10_001)
    for term in terms:
        want += term
    assert out.tobytes() == want.tobytes()


def test_determinism_same_seed():
    spec, cfg = cfg_for("brownian")
    a, _ = sample_marginals(cfg)
    b, _ = sample_marginals(cfg)
    assert np.array_equal(a, b)
    spec2, cfg2 = cfg_for("brownian", seed=8)
    c, _ = sample_marginals(cfg2)
    assert not np.array_equal(a, c)


def test_increment_shapes_and_comonotone_tiling():
    rng = np.random.default_rng(1)
    spec = ProcessSpec("gamma", 3, 4, {"shape": Fraction(1), "scale": Fraction(1)})
    inc = sample_increment(spec, 0.5, 50, rng)
    assert inc.shape == (50, 3)
    assert np.array_equal(inc[:, 0], inc[:, 1])


LAYOUT_SPECS = [
    ProcessSpec("brownian", 1, 4, {"C": [[Fraction(2, 3)]]}),
    ProcessSpec("brownian", 2, 4, {}),
    # two terms in every row, so the sum order of the matmul shows
    pytest.param(ProcessSpec("brownian", 2, 4, {"C": [[2, Fraction(1, 3)],
                                                     [Fraction(-1, 7), Fraction(5, 3)]]}),
                 id="brownian-2-dense"),
    *(ProcessSpec(kind, d, 4, params) for d in (1, 2) for kind, params in [
        ("gamma", {"shape": Fraction(3, 2), "scale": Fraction(2)}),
        ("poisson", {"rate": Fraction(3)}),
        ("inverse_gaussian", {"a": Fraction(2), "b": Fraction(3)})]),
]


def tiled_increment(spec, dt, paths, rng):
    """The increment as a C-ordered (paths, d) array: the matmul into a fresh
    array for brownian, one draw tiled over d columns otherwise."""
    p, d = spec.params, spec.dim
    if spec.kind == "brownian":
        C = np.array([[float(x) for x in row] for row in p["C"]])
        return np.sqrt(dt) * rng.standard_normal((paths, d)) @ C.T
    draw = {"gamma": lambda: rng.gamma(float(p["shape"]) * dt, float(p["scale"]), size=paths),
            "poisson": lambda: rng.poisson(float(p["rate"]) * dt, size=paths).astype(float),
            "inverse_gaussian": lambda: rng.wald(float(p["a"]) * dt,
                                                 float(p["b"]) * dt * dt, size=paths)}
    return np.tile(draw[spec.kind]()[:, None], (1, d))


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=lambda s: f"{s.kind}-{s.dim}")
def test_samples_are_contiguous_columns_with_the_tiled_bytes(spec):
    # the reference: C-ordered arrays, tiled draws, X_t added over all d columns
    cfg = SimConfig(spec, MIN_PATHS, Fraction(1, 2), Fraction(1), 11)
    rng = np.random.Generator(np.random.Philox(key=11))
    want_s = tiled_increment(spec, 0.5, MIN_PATHS, rng)
    want_t = tiled_increment(spec, 0.5, MIN_PATHS, rng)
    want_t += want_s
    inc = sample_increment(spec, 0.5, MIN_PATHS, np.random.Generator(np.random.Philox(key=11)))
    samples = [(inc, want_s), *zip(sample_marginals(cfg), (want_s, want_t))]
    for x, want in samples:
        assert x.shape == want.shape and not x.flags.writeable
        assert np.ascontiguousarray(x).tobytes() == want.tobytes()
        for i in range(spec.dim):
            assert x[:, i].flags.c_contiguous
            if spec.kind != "brownian":     # comonotone: one column, shared
                assert np.shares_memory(x[:, i], x[:, 0])
    xs, xt = samples[1][0], samples[2][0]
    assert not np.shares_memory(xs, xt)


def test_brownian_zscores_small_run():
    proc = build(ProcessSpec("brownian", 1, 4, {}))
    _, cfg = cfg_for("brownian")
    polys = [tsh_polynomial(proc.one_step, (v,)) for v in (1, 2)]
    report = simulate_and_test(cfg, polys)
    assert report.passed
    kinds = {r.kind for r in report.rows}
    assert "zero_mean" in kinds
    assert any(k.startswith("martingale:") for k in kinds)


def test_poisson_and_ig_sample_means():
    rng = np.random.default_rng(2)
    pois = sample_increment(ProcessSpec("poisson", 1, 4, {"rate": Fraction(2)}),
                            1.0, 200_00, rng)
    assert abs(pois.mean() - 2.0) < 0.1
    ig = sample_increment(ProcessSpec("inverse_gaussian", 1, 4,
                                      {"a": Fraction(2), "b": Fraction(3)}),
                          1.0, 200_00, rng)
    assert abs(ig.mean() - 2.0) < 0.15


def test_report_json_and_table():
    proc = build(ProcessSpec("poisson", 1, 3, {"rate": Fraction(1)}))
    _, cfg = cfg_for("poisson", rate=Fraction(1))
    report = simulate_and_test(cfg, [tsh_polynomial(proc.one_step, (1,))])
    data = report.to_json()
    json.dumps(data)
    assert data["paths"] == MIN_PATHS
    assert all("z" in row for row in data["tests"])
    table = report.table()
    assert "zero_mean" in table and ("PASS" in table or "FAIL" in table)


# sha256 of `mc-verify --process gamma --d 2 --max-order 3 --order 3
# --paths 10000 --seed 34 --json`, recorded with the Fraction-dict Poly.
# The evaluator sums float terms in sorted exponent order.  At this
# seed, summing them in reverse order moves a statistic in its 12th
# digit, so the digest sees a change of that order as well as of any
# coefficient.
GAMMA_D2_DIGEST = "cb636a911306e94e435a2831a56f12238420fc403b25181af2983ec8612152d3"


def canonical_digest(text: str) -> str:
    """sha256 of a JSON report with floats cut to 12 significant digits."""
    def fix(x):
        if isinstance(x, float):
            return float(f"{x:.12g}")
        if isinstance(x, dict):
            return {k: fix(v) for k, v in x.items()}
        if isinstance(x, list):
            return [fix(v) for v in x]
        return x
    body = json.dumps(fix(json.loads(text)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def test_mc_verify_report_is_pinned(capsys):
    code = main(["mc-verify", "--process", "gamma", "--d", "2", "--max-order", "3",
                 "--order", "3", "--paths", "10000", "--seed", "34", "--json"])
    assert code == 0
    assert canonical_digest(capsys.readouterr().out) == GAMMA_D2_DIGEST


# The other three processes at the default seed, copied from
# perfbench/mc_digests.json.  Each process pins its own basis and
# sampler.
DEFAULT_SEED_DIGESTS = {
    ("brownian", "2"): "055b7c4b532c532abc391d93fad785a7b4bfebbe66cce3aded17a7156d338d5e",
    ("poisson", "1"): "bb71f43d814c7cd7c5cfce85e0cfd54a21e85d29b655ed62e825a9044bcf7648",
    ("ig", "1"): "34d825da1c3331b79c8dad3ccfa8d8c549bff0e3b4b31403f6d27f39ba0bea64",
}


@pytest.mark.parametrize("process, d", DEFAULT_SEED_DIGESTS)
def test_mc_verify_default_seed_is_pinned(capsys, process, d):
    code = main(["mc-verify", "--process", process, "--d", d, "--max-order", "3",
                 "--order", "3", "--paths", "100000", "--json"])
    assert code == 0
    assert canonical_digest(capsys.readouterr().out) == DEFAULT_SEED_DIGESTS[process, d]


# sha256 of the raw standard output (not the canonical digest) of
# `mc-verify --process P --d D --max-order 3 --order 3 --paths 10000
# --seed 34 --json`, recorded before the float pass moved to in-place
# buffers and the one-pass z-score.  Any change to an IEEE operation's
# operands or order shows here in the last bit.  The bytes are those of
# numpy 2.4 on x86-64 with AVX-512, whose vector pow rounds x ** 3
# differently from libm's pow for about 5% of positive x; another numpy
# or CPU may need its own pins.
RAW_STDOUT_SHA256 = {
    ("brownian", "2"): "a77eab94a40a97d93bec2619042930c6247b84c6be620ec6e8c6246d08306069",
    ("poisson", "1"): "57a644b4007402b6f9c8994ebd60d10eb9c659ab3896b01c76e7eead43edf96a",
    ("gamma", "2"): "f9358a78f01c156679a0f329e78b3b582afd57d9edf56036fcf2f4b0a93b7c36",
    ("ig", "1"): "133d9b91fd7e733c072a60795e82dcbcdda24b0f99a4dde5ba84495ef3b21200",
}


@pytest.mark.parametrize("process, d", RAW_STDOUT_SHA256)
def test_mc_verify_raw_stdout_is_pinned(capsys, process, d):
    code = main(["mc-verify", "--process", process, "--d", d, "--max-order", "3",
                 "--order", "3", "--paths", "10000", "--seed", "34", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RAW_STDOUT_SHA256[process, d]


@pytest.mark.parametrize("process", ["bernoulli", "euler"])
def test_mc_verify_refuses_an_unsampled_process_before_the_build(capsys, monkeypatch, process):
    def no_build(spec):
        raise AssertionError("mc-verify built a process it cannot sample")
    monkeypatch.setattr("umbrakit.cli.build", no_build)
    code = main(["mc-verify", "--process", process, "--d", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"error: mc-verify has no sampler for --process {process} "
                   "(choices: brownian, gamma, ig, poisson)\n")


@pytest.mark.parametrize("flag, value", [("--paths", "10000000000000"), ("--seed", "-1")])
def test_mc_verify_names_a_bad_paths_or_seed_before_the_build(capsys, monkeypatch, flag, value):
    def no_build(spec):
        raise AssertionError("mc-verify built the process before checking " + flag)
    monkeypatch.setattr("umbrakit.cli.build", no_build)
    code = main(["mc-verify", "--process", "gamma", flag, value])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith(f"error: {flag} {value} ")


# Every argv recorded in perfbench/mc_digests.json (16 seeds x 4
# processes at 10^5 paths), against its canonical digest.  The file is
# only read here.
MC_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "mc_digests.json").read_text())


@pytest.mark.parametrize("argv", MC_DIGESTS)
def test_mc_verify_matches_every_recorded_digest(capsys, argv):
    assert main(argv.split()) == 0
    assert canonical_digest(capsys.readouterr().out) == MC_DIGESTS[argv]
