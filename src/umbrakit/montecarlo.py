"""Numerical sanity layer: simulate paths, test the symbolic identities.

The only floating-point module.  Samples genuine Levy increments with a
counter-based generator (Philox keyed by the seed, so runs are exactly
reproducible) and checks that generated polynomials have zero mean and
uncorrelated martingale increments within CLT bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import multiindex as mi
from .harmonic import TshPolynomial, to_poly, x_names
from .polynomials import Poly, to_coeff_map
from .processes import ProcessSpec

Z_THRESHOLD = 4.0
MIN_PATHS = 10_000


class SamplerError(ValueError):
    """Process has no known sampler or invalid simulation config."""


@dataclass(frozen=True)
class SimConfig:
    process: ProcessSpec
    paths: int
    s: Fraction
    t: Fraction
    seed: int
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 0 < self.s < self.t:
            raise SamplerError(f"need 0 < s < t, got s={self.s}, t={self.t}")
        if self.paths < MIN_PATHS:
            raise SamplerError(f"need at least {MIN_PATHS} paths for acceptance runs")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_increment(spec: ProcessSpec, dt: float, paths: int,
                     rng: np.random.Generator) -> np.ndarray:
    """I.i.d. increments of length dt, shape (paths, d)."""
    d, p = spec.dim, spec.params
    if spec.kind == "brownian":
        C = np.array([[float(x) for x in row] for row in p["C"]])
        z = rng.standard_normal((paths, d))
        return np.sqrt(dt) * z @ C.T
    if spec.kind == "poisson":
        x = rng.poisson(float(p["rate"]) * dt, size=paths).astype(float)
        return np.tile(x[:, None], (1, d))
    if spec.kind == "gamma":
        x = rng.gamma(float(p["shape"]) * dt, float(p["scale"]), size=paths)
        return np.tile(x[:, None], (1, d))
    if spec.kind == "inverse_gaussian":
        a, b = float(p["a"]), float(p["b"])
        # X_dt ~ IG(mean a*dt, shape b*dt^2)
        x = rng.wald(a * dt, b * dt * dt, size=paths)
        return np.tile(x[:, None], (1, d))
    raise SamplerError(f"no sampler for process kind {spec.kind!r}")


def sample_marginals(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(X_s, X_t) with stationary independent increments, fixed seed."""
    rng = _rng(cfg.seed)
    xs = sample_increment(cfg.process, float(cfg.s), cfg.paths, rng)
    xt = xs + sample_increment(cfg.process, float(cfg.t - cfg.s), cfg.paths, rng)
    return xs, xt


def _poly_evaluator(p: Poly, d: int):
    """Compile a Poly in x1..xd into a vectorized evaluator.

    The float terms are summed in sorted order of their exponent tuples
    over x1..xd, so equal polynomials give bitwise-equal values whatever
    order their terms were built in.
    """
    coeffs = to_coeff_map(p, x_names(d))
    # a coefficient left a Poly has a parameter in it, a bug in the caller
    left = [x for c in coeffs.values() if type(c) is Poly for x in c.vars if c.degree(x)]
    if left:
        raise SamplerError(f"polynomial still contains parameter {min(left)!r}")
    terms = [(k, float(c)) for k, c in sorted(coeffs.items())]

    def ev(x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[0])
        for exps, c in terms:
            term = np.full(x.shape[0], c)
            for i, k in enumerate(exps):
                if k:
                    term = term * x[:, i] ** k
            out += term
        return out

    return ev


@dataclass(frozen=True)
class TestRow:
    index: tuple[int, ...]
    kind: str                 # "zero_mean" or "martingale:<w>"
    statistic: float
    stderr: float
    zscore: float

    @property
    def passed(self) -> bool:
        return abs(self.zscore) < Z_THRESHOLD


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    rows: tuple[TestRow, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "seed": self.config.seed,
            "paths": self.config.paths,
            "times": [str(self.config.s), str(self.config.t)],
            "process": self.config.process.kind,
            "passed": self.passed,
            "tests": [
                {"v": mi.format_index(r.index), "test": r.kind,
                 "statistic": r.statistic, "stderr": r.stderr,
                 "z": r.zscore, "passed": r.passed}
                for r in self.rows
            ],
        }

    def table(self) -> str:
        lines = [f"{'index':>10} {'test':>18} {'stat':>12} {'z':>8}  verdict"]
        for r in self.rows:
            lines.append(f"{mi.format_index(r.index):>10} {r.kind:>18} "
                         f"{r.statistic:>12.5g} {r.zscore:>8.3f}  "
                         f"{'PASS' if r.passed else 'FAIL'}")
        return "\n".join(lines)


def _zscore(samples: np.ndarray) -> tuple[float, float, float]:
    n = samples.shape[0]
    mean = float(np.mean(samples))
    sd = float(np.std(samples, ddof=1))
    se = float(sd / np.sqrt(n)) if sd > 0 else 0.0
    z = mean / se if se > 0 else 0.0
    return mean, se, z


def simulate_and_test(cfg: SimConfig, polys: list[TshPolynomial]) -> SimReport:
    """Zero-expectation and martingale-increment tests for the polynomials."""
    xs, xt = sample_marginals(cfg)
    d = cfg.process.dim
    rows: list[TestRow] = []
    test_indices = [w for w in mi.iter_indices(d, 2)]
    for q in polys:
        at_t = to_poly(q.specialize_time(cfg.t))
        at_s = to_poly(q.specialize_time(cfg.s))
        yt = _poly_evaluator(at_t, d)(xt)
        ys = _poly_evaluator(at_s, d)(xs)

        mean, se, z = _zscore(yt)
        rows.append(TestRow(q.index, "zero_mean", mean, se, z))

        diff = yt - ys
        for w in test_indices:
            phi = np.ones(cfg.paths)
            for i, k in enumerate(w):
                if k:
                    phi = phi * xs[:, i] ** k
            mean, se, z = _zscore(diff * phi)
            rows.append(TestRow(q.index, f"martingale:{mi.format_index(w)}",
                                mean, se, z))
    return SimReport(cfg, tuple(rows))

