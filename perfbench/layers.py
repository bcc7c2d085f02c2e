"""Per-layer numbers of one traced pass.

A layer is a module of the package, plus the stdlib ``fractions``
arithmetic and numpy beneath them.  cProfile's per-function stats are
summed by the module that defines each function, so a call through a
name rebound by ``from .series import series_exp`` still lands in
``series``.  Time spent in builtins is charged to the module of the
calling function.  cProfile counts each resumption of a generator as a
call.
"""

from __future__ import annotations

import dataclasses
import fractions
import sys
from fractions import Fraction
from pathlib import Path

# metric -> (module, qualified name, cProfile field); field is "calls" or "cum_s"
ENTRY_POINTS = {
    "umbrae.dot_t.calls": ("umbrae", "UmbraTuple.dot_t", "calls"),
    "umbrae.dot_t.cum_s": ("umbrae", "UmbraTuple.dot_t", "cum_s"),
    "umbrae.dot_n.cum_s": ("umbrae", "UmbraTuple.dot_n", "cum_s"),
    "umbrae.dot_t_beta.cum_s": ("umbrae", "UmbraTuple.dot_t_beta", "cum_s"),
    "multiindex.partitions.calls": ("multiindex", "partitions", "calls"),
    "polynomials.Poly.__init__.calls": ("polynomials", "Poly.__init__", "calls"),
    "polynomials.Poly.__mul__.calls": ("polynomials", "Poly.__mul__", "calls"),
    "polynomials.Poly.__add__.calls": ("polynomials", "Poly.__add__", "calls"),
    "polynomials.Poly.subs.calls": ("polynomials", "Poly.subs", "calls"),
    "fractions.Fraction.calls": ("fractions", "Fraction.__new__", "calls"),
    "series.TruncatedSeries.__mul__.calls": ("series", "TruncatedSeries.__mul__", "calls"),
    "series.series_subst.calls": ("series", "series_subst", "calls"),
    "series.series_exp.cum_s": ("series", "series_exp", "cum_s"),
    "series.series_log.cum_s": ("series", "series_log", "cum_s"),
    "series.series_reversion.cum_s": ("series", "series_reversion", "cum_s"),
    "series.vector_reversion.cum_s": ("series", "vector_reversion", "cum_s"),
    "processes.build.cum_s": ("processes", "build", "cum_s"),
    "harmonic.tsh_polynomial.calls": ("harmonic", "tsh_polynomial", "calls"),
    "harmonic.tsh_polynomial.cum_s": ("harmonic", "tsh_polynomial", "cum_s"),
    "harmonic.verify_harmonicity.cum_s": ("harmonic", "verify_harmonicity", "cum_s"),
    "harmonic.expected_value_zero.cum_s": ("harmonic", "expected_value_zero", "cum_s"),
    "harmonic.decompose.cum_s": ("harmonic", "decompose", "cum_s"),
    "montecarlo.sample_marginals.cum_s": ("montecarlo", "sample_marginals", "cum_s"),
    "montecarlo.simulate_and_test.cum_s": ("montecarlo", "simulate_and_test", "cum_s"),
    "cli.main.cum_s": ("cli", "main", "cum_s"),
}
SELF_TIMES = ("umbrae", "multiindex", "polynomials", "fractions", "series",
              "processes", "harmonic", "families", "montecarlo", "numpy", "cli")
CALL_COUNTS = ("umbrae", "polynomials", "series")

UNITS = {"self_s": "s", "cum_s": "s", "wall_s": "s", "calls": "count",
         "repeat_frac": "ratio", "max_coeff_bits": "bits", "overhead": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def metric_names() -> list[str]:
    """Every per-layer metric, in the order of BENCHMARK.json."""
    names = [f"{m}.self_s" for m in SELF_TIMES] + [f"{m}.calls" for m in CALL_COUNTS]
    names += list(ENTRY_POINTS)
    names += ["umbrae.dot_t.repeat_frac", "polynomials.max_coeff_bits", "trace.wall_s",
              "trace.overhead"]
    return names


class _ModuleOf:
    """Maps a code object's file name to its layer, or None."""

    def __init__(self, package_dir: Path):
        self.package = package_dir.resolve()
        self.fractions = Path(fractions.__file__).resolve()
        numpy = sys.modules.get("numpy")
        self.numpy = Path(numpy.__file__).resolve().parent if numpy else None
        self.cache: dict = {}

    def __call__(self, filename: str) -> str | None:
        if filename not in self.cache:
            self.cache[filename] = self._lookup(filename)
        return self.cache[filename]

    def _lookup(self, filename: str) -> str | None:
        if filename == "~":
            return None
        path = Path(filename).resolve()
        if path.parent == self.package:
            return path.stem
        if path == self.fractions:
            return "fractions"
        if self.numpy and self.numpy in path.parents:
            return "numpy"
        return None


def _code_key(module: str, qualname: str):
    """(file, first line, name) of a function as cProfile keys it, or None
    when the module was never imported in this pass."""
    mod = sys.modules.get("fractions" if module == "fractions" else f"umbrakit.{module}")
    if mod is None:
        return None
    obj = mod
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def aggregate(stats: dict, package_dir: Path) -> dict:
    """Per-layer self time, call counts and entry-point figures from the
    ``stats`` dict of a cProfile.Profile after ``create_stats()``."""
    module_of = _ModuleOf(package_dir)
    self_s = dict.fromkeys(SELF_TIMES, 0.0)
    calls = dict.fromkeys(CALL_COUNTS, 0)
    for (filename, _, _), (_, nc, tt, _, callers) in stats.items():
        mod = module_of(filename)
        if mod is not None:
            if mod in self_s:
                self_s[mod] += tt
            if mod in calls:
                calls[mod] += nc
        elif filename == "~":
            for caller, edge in callers.items():
                owner = module_of(caller[0])
                if owner in self_s:
                    self_s[owner] += edge[2]
    out = {f"{m}.self_s": v for m, v in self_s.items()}
    out.update({f"{m}.calls": v for m, v in calls.items()})
    for metric, (module, qualname, field) in ENTRY_POINTS.items():
        key = _code_key(module, qualname)
        row = stats.get(key) if key else None
        out[metric] = 0 if row is None else (row[1] if field == "calls" else row[3])
    return out


class RepeatCounter:
    """Thin wrapper on UmbraTuple.dot_t that counts calls whose moment
    content and t were already seen in this pass."""

    def __init__(self, cls):
        self.cls, self.original = cls, cls.dot_t
        self.seen: set = set()
        self.calls = self.repeats = 0

    def __enter__(self):
        original, seen = self.original, self.seen

        def dot_t(tup, t):
            key = (tup.dim, tup.order, frozenset(tup.moments.items()), str(t))
            self.calls += 1
            if key in seen:
                self.repeats += 1
            seen.add(key)
            return original(tup, t)

        self.cls.dot_t = dot_t
        return self

    def __exit__(self, *exc):
        self.cls.dot_t = self.original

    @property
    def fraction(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


def max_coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length among the rationals
    held by a result (Poly coefficients, moments, series coefficients)."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, dict):
        return max(map(max_coeff_bits, obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max(map(max_coeff_bits, obj), default=0)
    if dataclasses.is_dataclass(obj):
        return max((max_coeff_bits(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)), default=0)
    for attr in ("terms", "moments", "coeffs"):       # Poly, UmbraTuple, TruncatedSeries
        if hasattr(type(obj), attr):
            return max_coeff_bits(getattr(obj, attr))
    return 0
