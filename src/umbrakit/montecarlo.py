"""Numerical sanity layer: simulate paths, test the symbolic identities.

The only floating-point module.  Samples genuine Levy increments with a
counter-based generator (Philox keyed by the seed, so runs are exactly
reproducible) and checks that generated polynomials have zero mean and
uncorrelated martingale increments within CLT bounds.

Float contract.  Every report is pinned byte for byte (tests and
perfbench/mc_digests.json), so each IEEE operation keeps its operands and
its order: a term is (c·x_i^a)·x_j^b with x^k as numpy's ``**`` computes
it, terms are summed in sorted exponent order, and the mean and standard
deviation are np.mean and np.std(ddof=1) op for op (``_zscore``).  A change
may move where a result lands (in-place buffers) or when it is computed
(hoisting); it may not reorder a sum, write x*x*x for x**3 (libm pow
rounds differently), split a reduction into chunks (numpy sums pairwise
over the whole array), or keep a power table across polynomials (it
costs more peak memory than it saves time).

Each path costs about 8·(2d + 6) bytes of float arrays, so ``MAX_PATHS``
(10^7 paths, about 0.8 GB at d = 2) is refused before any is allocated.
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
MAX_PATHS = 10_000_000


class SamplerError(ValueError):
    """Process has no known sampler or invalid simulation config."""


@dataclass(frozen=True)
class SimConfig:
    """A run: the process, the path count, the times 0 < s < t, the seed."""

    process: ProcessSpec
    paths: int
    s: Fraction
    t: Fraction
    seed: int

    def __post_init__(self):
        if not 0 < self.s < self.t:
            raise SamplerError(f"need 0 < s < t, got s={self.s}, t={self.t}")
        if not MIN_PATHS <= self.paths <= MAX_PATHS:
            raise SamplerError(f"--paths {self.paths} outside [{MIN_PATHS}, {MAX_PATHS}]")
        if not 0 <= self.seed < 2 ** 128:       # a Philox key
            raise SamplerError(f"--seed {self.seed} outside [0, 2**128)")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _brownian(p: dict, d: int, dt: float, paths: int,
              rng: np.random.Generator) -> np.ndarray:
    C = np.array([
        [float(x) for x in row] for row in p["C"]])
    z = rng.standard_normal((paths, d))
    return np.sqrt(dt) * z @ C.T


def _comonotone(draw):
    """A sampler tiling one univariate draw over all d coordinates."""
    def sample(p: dict, d: int, dt: float, paths: int,
               rng: np.random.Generator) -> np.ndarray:
        return np.tile(draw(p, dt, paths, rng)[:, None], (1, d))
    return sample


# process kind -> sampler(params, d, dt, paths, rng)
SAMPLERS = {
    "brownian": _brownian,
    "poisson": _comonotone(lambda p, dt, paths, rng: rng.poisson(
        float(p["rate"]) * dt, size=paths).astype(float)),
    "gamma": _comonotone(lambda p, dt, paths, rng: rng.gamma(
        float(p["shape"]) * dt, float(p["scale"]), size=paths)),
    # X_dt ~ IG(mean a*dt, shape b*dt^2)
    "inverse_gaussian": _comonotone(lambda p, dt, paths, rng: rng.wald(
        float(p["a"]) * dt, float(p["b"]) * dt * dt, size=paths)),
}


def sample_increment(spec: ProcessSpec, dt: float, paths: int,
                     rng: np.random.Generator) -> np.ndarray:
    """I.i.d. increments of length dt, shape (paths, d)."""
    if spec.kind not in SAMPLERS:
        raise SamplerError(f"no sampler for process kind {spec.kind!r}")
    return SAMPLERS[spec.kind](spec.params, spec.dim, dt, paths, rng)


def sample_marginals(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(X_s, X_t) with stationary independent increments, fixed seed."""
    rng = _rng(cfg.seed)
    xs = sample_increment(cfg.process, float(cfg.s), cfg.paths, rng)
    xt = sample_increment(cfg.process, float(cfg.t - cfg.s), cfg.paths, rng)
    xt += xs
    return xs, xt


def _power(col: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """col ** k as numpy's ** computes it for an int k >= 1, into out:
    x ** 1 is x itself and x ** 2 is np.square."""
    if k == 1:
        return col
    if k == 2:
        return np.square(col, out=out)
    return np.power(col, k, out=out)


def _poly_evaluator(p: Poly, d: int):
    """Compile a Poly in x1..xd into a vectorized evaluator.

    The float terms are summed in sorted order of their exponent tuples
    over x1..xd, so equal polynomials give bitwise-equal values whatever
    order their terms were built in.  The evaluator ``ev(x, out, scratch)``
    writes into ``out`` and uses the two arrays of ``scratch`` as work
    space; each is allocated when not given.
    """
    coeffs = to_coeff_map(p, x_names(d))
    # a coefficient left a Poly has a parameter in it, a bug in the caller
    left = [x for c in coeffs.values() if type(c) is Poly for x in c.vars if c.degree(x)]
    if left:
        raise SamplerError(f"polynomial still contains parameter {min(left)!r}")
    terms = [(float(c),
              [(i, k) for i, k in enumerate(exps) if k])
             for exps, c in sorted(coeffs.items())]

    def ev(x: np.ndarray, out: np.ndarray | None = None,
           scratch: list[np.ndarray] | None = None) -> np.ndarray:
        n = x.shape[0]
        out = np.empty(n) if out is None else out
        term, pw = (np.empty(n), np.empty(n)) if scratch is None else scratch
        out.fill(0.0)
        for c, factors in terms:
            if not factors:
                out += c
                continue
            (i, k), *rest = factors
            np.multiply(_power(x[:, i], k, pw), c, out=term)
            for i, k in rest:
                term *= _power(x[:, i], k, pw)
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


def _zscore(samples: np.ndarray, work: np.ndarray | None = None) -> tuple[float, float, float]:
    """(mean, stderr, z) of the samples, with the mean and sd of np.mean and
    np.std(ddof=1) bit for bit: numpy's own ufuncs in numpy's order, but one
    sum for the mean where the pair takes two.  The squared deviations go
    into ``work``, which may be ``samples`` itself."""
    n = samples.shape[0]
    mean = np.add.reduce(samples) / n
    dev = np.subtract(samples, mean, out=work)
    np.multiply(dev, dev, out=dev)
    sd = float(np.sqrt(np.add.reduce(dev) / (n - 1)))
    se = float(sd / np.sqrt(n)) if sd > 0 else 0.0
    mean = float(mean)
    z = mean / se if se > 0 else 0.0
    return mean, se, z


def simulate_and_test(cfg: SimConfig, polys: list[TshPolynomial]) -> SimReport:
    """Zero-expectation and martingale-increment tests for the polynomials.

    The martingale increment Q(X_t, t) − Q(X_s, s) is tested against
    φ_w = X_s^w for |w| <= 2: φ_0 = 1 and φ_{e_i} = x_i need no array, and
    x_i·x_j (also for i = j, where it is x_i ** 2) is one product.
    """
    xs, xt = sample_marginals(cfg)
    d = cfg.process.dim
    yt, ys, prod, phi, *scratch = (np.empty(cfg.paths) for _ in range(6))
    tests = [(f"martingale:{mi.format_index(w)}",
              [xs[:, i] for i, k in enumerate(w) for _ in range(k)])
             for w in mi.iter_indices(d, 2)]
    rows: list[TestRow] = []
    for q in polys:
        _poly_evaluator(to_poly(q.specialize_time(cfg.t)), d)(xt, yt, scratch)
        _poly_evaluator(to_poly(q.specialize_time(cfg.s)), d)(xs, ys, scratch)
        rows.append(TestRow(q.index, "zero_mean", *_zscore(yt, prod)))
        diff = np.subtract(yt, ys, out=yt)
        for kind, cols in tests:
            if not cols:
                samples = diff
            elif len(cols) == 1:
                samples = np.multiply(diff, cols[0], out=prod)
            else:
                samples = np.multiply(diff, np.multiply(*cols, out=phi), out=prod)
            rows.append(TestRow(q.index, kind, *_zscore(samples, prod)))
    return SimReport(cfg, tuple(rows))
