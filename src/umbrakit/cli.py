"""Command-line front end; prints to stdout, and an unread option exits 2.

Exit codes: 0 all checks pass, 1 verification failure (a failed anchor
of verify included), 2 usage error, 3 invalid spec or parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

from . import multiindex as mi
from .families import (bernoulli, bernoulli_tsh_check, euler, euler_tsh_check,
                       hermite)
from .harmonic import (AnchorError, TshPolynomial, basis_sweep, check_anchor, decompose,
                       poly_to_coeff_map, tsh_from_json, tsh_polynomial, tsh_to_json,
                       tsh_to_latex, verify_harmonicity)
from .polynomials import parse_coeff_map, parse_matrix, parse_rational, read_json
from .processes import ProcessSpec, build, ig_gf_check, moments_to_json

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SPEC = 3
ERROR_WIDTH = 500   # characters; a longer error line is cut to end in "…"

PROCESS_ALIASES = {
    "brownian": "brownian",
    "poisson": "poisson",
    "gamma": "gamma",
    "ig": "inverse_gaussian",
    "inverse_gaussian": "inverse_gaussian",
    "bernoulli": "bernoulli_neg",
    "euler": "euler_half",
    "m_stable": "m_stable",
}

def _process_spec(args) -> ProcessSpec:
    name = "brownian" if args.process is None else args.process
    kind = "custom" if name.startswith("custom:") else PROCESS_ALIASES.get(name)
    if kind is None:
        raise ValueError(f"unknown process {name!r} "
                         f"(choices: {', '.join(PROCESS_ALIASES)})")
    params = read_json("--params", args.params) if args.params is not None else {}
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    if kind == "custom":
        if "path" in params:
            raise ValueError("a custom process takes its path from --process custom:PATH")
        params = {**params, "path": name.split(":", 1)[1]}
    return ProcessSpec(kind, args.d, 6 if args.order is None else args.order, params)


def _check_max_order(n: int, order: int | None = None) -> None:
    """Raise unless 0 <= --max-order n <= --order, or the order cap when
    no process gives an order; --max-order 0 is an empty sweep."""
    if n < 0:
        raise ValueError(f"--max-order {n} is negative")
    if order is None:
        mi.check_order(n)
    elif n > order:
        raise ValueError(f"--max-order {n} exceeds --order {order}")


def _error_line(text: str) -> str:
    """text as one stderr line: each break str.splitlines sees escaped as
    repr writes it, and a line longer than ERROR_WIDTH cut to end in "…"."""
    line = text.translate({ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})
    return (line if len(line) <= ERROR_WIDTH else line[:ERROR_WIDTH - 1] + "…") + "\n"


def _emit(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2))


def cmd_partitions(args) -> int:
    v = mi.parse_index(args.v)
    items = []
    for lam in mi.partitions(v):
        items.append({
            "columns": [mi.format_index(c) for c in lam.columns],
            "multiplicities": list(lam.multiplicities),
            "length": lam.length(),
            "weight": str(mi.partition_weight(lam, v)),
        })
    _emit({"v": mi.format_index(v), "count": len(items), "partitions": items})
    return EXIT_OK


def cmd_moments(args) -> int:
    proc = build(_process_spec(args))
    _emit({"kind": proc.spec.kind,
           "moments": moments_to_json(proc.time_tuple, params=["t"])})
    return EXIT_OK


def cmd_cumulants(args) -> int:
    proc = build(_process_spec(args))
    cum = proc.one_step.cumulant_tuple()
    _emit({"kind": proc.spec.kind, "cumulants": moments_to_json(cum)})
    return EXIT_OK


def cmd_gen_tsh(args) -> int:
    v = mi.parse_index(args.v)
    # checks --order as given, before |v| raises it
    spec = _process_spec(args)
    proc = build(dataclasses.replace(spec, order=max(spec.order, mi.total(v))))
    q = tsh_polynomial(proc.one_step, v)
    _emit({"process": proc.spec.kind, "tsh": tsh_to_json(q)})
    return EXIT_OK


def cmd_gen_family(args) -> int:
    if args.family != "hermite" and args.C is not None:
        make_parser().error(f"gen-family --family {args.family} takes no --C")
    v = mi.parse_index(args.v)
    t = parse_rational("t", args.t) if args.t is not None else "t"
    if args.family == "hermite":
        if args.C is not None:
            C = parse_matrix("--C", read_json("--C", args.C))
        else:
            C = [
                [1 if i == j else 0 for j in range(len(v))] for i in range(len(v))]
        p = hermite(v, C, t)
    elif args.family == "bernoulli":
        p = bernoulli(v, t)
    else:
        p = euler(v, t)
    if args.latex:
        coeffs = poly_to_coeff_map(p, len(v))
        print(tsh_to_latex(TshPolynomial(v, coeffs)))
    else:
        _emit({"family": args.family, "v": mi.format_index(v),
               "polynomial": str(p)})
    return EXIT_OK


def cmd_verify(args) -> int:
    max_order = 4 if args.max_order is None else args.max_order
    if args.family:
        for flag, value in {"--process": args.process, "--params": args.params,
                            "--order": args.order, "--tsh": args.tsh}.items():
            if value is not None:
                make_parser().error(f"verify --family takes no {flag}")
        mi.check_dimension(args.d)
        _check_max_order(max_order)
        ok = {"bernoulli": bernoulli_tsh_check,
              "euler": euler_tsh_check}[args.family](max_order, args.d)
        print(f"family {args.family}: {'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_VERIFY_FAILED
    if args.tsh is not None and args.max_order is not None:
        make_parser().error("verify --tsh takes no --max-order")
    spec = _process_spec(args)
    if args.tsh is None:
        _check_max_order(max_order, spec.order)
    proc = build(spec)
    if args.tsh is not None:
        data = read_json(args.tsh)
        q = tsh_from_json(data.get("tsh", data) if isinstance(data, dict) else data)
        if q.dim != proc.one_step.dim:
            raise ValueError(f"the --tsh file has d = {q.dim}, but the process "
                             f"has --d {proc.one_step.dim}")
        check_anchor(proc.one_step, "one_step")
        ok, cert = verify_harmonicity(proc.one_step, q.coeffs)
        print(f"{mi.format_index(q.index)}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            print(json.dumps(cert), file=sys.stderr)
        return EXIT_OK if ok else EXIT_VERIFY_FAILED
    mu = proc.one_step.truncate(max_order)
    check_anchor(mu, "one_step")
    failures = 0
    for v, ok, cert, zero in basis_sweep(mu):
        verdict = "PASS" if (ok and zero) else "FAIL"
        print(f"{mi.format_index(v)}: harmonic={ok} zero_mean={zero} {verdict}")
        if not (ok and zero):
            failures += 1
            if cert:
                print(json.dumps(cert), file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_ig_check(args) -> int:
    mi.check_order(args.order)
    ok = ig_gf_check(parse_rational("a", args.a), parse_rational("b", args.b), args.order)
    print(f"inverse-Gaussian gf check (a={args.a}, b={args.b}, N={args.order}): "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_decompose(args) -> int:
    proc = build(_process_spec(args))
    result = decompose(parse_coeff_map(read_json(args.poly), "coeffs"), proc.one_step)
    _emit({
        "exact": result.exact,
        "coefficients": {mi.format_index(k): str(c)
                         for k, c in result.coefficients.items()},
        "residual": {mi.format_index(k): str(p)
                     for k, p in result.residual.items()},
    })
    return EXIT_OK if result.exact else EXIT_VERIFY_FAILED


def cmd_mc_verify(args) -> int:
    from .montecarlo import SAMPLERS, SimConfig, simulate_and_test
    spec = _process_spec(args)
    if spec.kind not in SAMPLERS:
        sampled = sorted(
            next(a for a, k in PROCESS_ALIASES.items() if k == kind) for kind in SAMPLERS)
        raise ValueError(f"mc-verify has no sampler for --process {args.process} "
                         f"(choices: {', '.join(sampled)})")
    _check_max_order(args.max_order, spec.order)
    times = args.times.split(",")
    if len(times) != 2:
        raise ValueError(f"--times {args.times!r} must have the form s,t")
    s, t = (parse_rational("times", x) for x in times)
    indices = tuple(v for v in mi.iter_indices(args.d, args.max_order) if any(v))
    # checks --paths and --seed before the build and before any path array
    cfg = SimConfig(spec, args.paths, s, t, args.seed)
    proc = build(spec)
    polys = [tsh_polynomial(proc.one_step, v) for v in indices]
    report = simulate_and_test(cfg, polys)
    if args.json:
        _emit(report.to_json())
    else:
        print(report.table(), file=sys.stderr)
        print(json.dumps({"passed": report.passed}))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, like every other error, and reads
    any -<digit>... token as a value: no option here starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        self.exit(EXIT_USAGE, _error_line(f"{self.prog}: error: {message}"))


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args reads
    it and leaves it unchanged, so every call of main can share it."""
    ap = _Parser(
        prog="umbrakit",
        description="Exact time-space harmonic polynomials for symbolic "
                    "Levy processes")
    sub = ap.add_subparsers(dest="command", required=True)

    # _process_spec defaults --process and --order, so verify can tell them given
    def common(p):
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--order", type=int)
        p.add_argument("--process")
        p.add_argument("--params", help="process parameters as JSON")

    p = sub.add_parser("partitions", help="enumerate multi-index partitions")
    p.add_argument("--v", required=True)
    p.set_defaults(fn=cmd_partitions)

    p = sub.add_parser("moments", help="moments of X_t as polynomials in t")
    common(p)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("cumulants", help="cumulants of the one-step tuple")
    common(p)
    p.set_defaults(fn=cmd_cumulants)

    p = sub.add_parser("gen-tsh", help="generate a harmonic basis polynomial")
    common(p)
    p.add_argument("--v", required=True)
    p.set_defaults(fn=cmd_gen_tsh)

    p = sub.add_parser("gen-family", help="generate a classical family member")
    p.add_argument("--family", required=True,
                   choices=["hermite", "bernoulli", "euler"])
    p.add_argument("--v", required=True)
    p.add_argument("--t", help="numeric time value (default symbolic t)")
    p.add_argument("--C", help="matrix factor for hermite, JSON")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(fn=cmd_gen_family)

    p = sub.add_parser("verify", help="verify harmonicity and zero expectation")
    common(p)
    p.add_argument("--max-order", type=int)
    p.add_argument("--family", choices=["bernoulli", "euler"])
    p.add_argument("--tsh", help="re-verify a gen-tsh JSON file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ig-check", help="inverse-Gaussian gf cross-check")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--order", type=int, default=6)
    p.set_defaults(fn=cmd_ig_check)

    p = sub.add_parser("decompose", help="expand a polynomial in the harmonic basis")
    common(p)
    p.add_argument("--poly", required=True, help="JSON file with a coeffs map")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("mc-verify", help="Monte Carlo martingale checks")
    common(p)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--times", default="1/2,1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_mc_verify)

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except AnchorError as exc:
        print(json.dumps(exc.certificate), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(_error_line(f"error: {exc}"))
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
