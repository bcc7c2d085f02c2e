"""A fixed corpus of umbrakit command lines and a digest of what each prints.

Runs every argv below through umbrakit.cli.main in this process and
prints one line per argv: the sha256 of its exit code, stdout and
stderr, two spaces, and the argv.  The corpus covers all nine
subcommands, custom moment files (rational and in a parameter a), and
the refused and error cases.  The input files are written into a
temporary working directory and named relatively, so no digest depends
on where the checkout is.  pytest does not collect this file.

To check that a change keeps every output, run it once against each
tree and compare:

    PYTHONPATH=<parent>/src python tests/cli_corpus.py > parent.txt
    PYTHONPATH=src python tests/cli_corpus.py > change.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile

from umbrakit.cli import main

KINDS = ("brownian", "poisson", "gamma", "ig", "bernoulli", "euler")

FILES = {
    # one-step moment arrays for --process custom:PATH
    "m1.json": {"d": 1, "order": 6, "moments": {
        "(0)": "1", "(1)": "1/2", "(2)": "3", "(3)": "-1", "(4)": "7/3", "(5)": "2", "(6)": "11"}},
    "m2.json": {"d": 2, "order": 4, "moments": {
        "(0,0)": "1", "(1,0)": "1", "(0,1)": "-1/2", "(2,0)": "2", "(1,1)": "1/3", "(0,2)": "5",
        "(3,0)": "1", "(2,1)": "0", "(1,2)": "-2", "(0,3)": "4", "(2,2)": "3", "(4,0)": "9"}},
    "a1.json": {"d": 1, "order": 4, "moments": {
        "(0)": "1", "(1)": "a", "(2)": "a^2 + 1", "(3)": "a^3 + 3*a", "(4)": "2*a"}},
    "a2.json": {"d": 2, "order": 3, "moments": {
        "(0,0)": "1", "(1,0)": "a", "(0,1)": "a", "(1,1)": "a^2", "(2,0)": "a^2 + 1",
        "(0,2)": "1", "(3,0)": "a"}},
    "uses_t.json": {"d": 1, "order": 3, "moments": {"(0)": "1", "(1)": "t", "(2)": "1"}},
    "not_unital.json": {"d": 1, "order": 2, "moments": {"(0)": "2", "(1)": "1"}},
    "no_order.json": {"d": 1, "moments": {"(0)": "1"}},
    # gen-tsh objects for verify --tsh: Q_(2) and Q_(1,1) of brownian, and misses
    "q2.json": {"tsh": {"v": "(2)", "d": 1, "coeffs": {"(2)": "1", "(0)": "-t"}}},
    "q11.json": {"v": "(1,1)", "d": 2, "coeffs": {"(1,1)": "1"}},
    "q2_bad.json": {"v": "(2)", "coeffs": {"(2)": "1", "(0)": "t"}},
    "q3_gamma.json": {"v": "(3)", "coeffs": {"(3)": "1", "(2)": "-3*t", "(1)": "3*t^2 - 6*t",
                                            "(0)": "-t^3 + 6*t^2 - 2*t"}},
    "q_uses_s.json": {"v": "(1)", "coeffs": {"(1)": "1", "(0)": "s"}},
    "q_not_leq.json": {"v": "(1)", "coeffs": {"(1)": "1", "(2)": "1"}},
    "q_list.json": [1, 2],
    # coefficient maps for decompose
    "p_x2.json": {"coeffs": {"(2)": "1"}},
    "p_tsh.json": {"coeffs": {"(2)": "3", "(0)": "-3*t", "(1)": "1"}},
    "p_mixed.json": {"coeffs": {"(1,1)": "1", "(2,0)": "t", "(0,0)": "2"}},
    "p_above.json": {"coeffs": {"(9)": "t"}},
    "p_in_a.json": {"coeffs": {"(1)": "a"}},
}
RAW = {"broken.json": "{not json"}


def argvs():
    """Every argv of the corpus, in a fixed order."""
    out = []
    # partitions
    for v in ("(0)", "(3)", "(1,1)", "(2,1)", "(1,1,1)", "(2,2)", "(3,0,1)", "()", "(-1)",
              "(1,x)", "1,1"):
        out.append(["partitions", "--v", v])
    # moments and cumulants of every kind at d <= 3
    for cmd in ("moments", "cumulants"):
        for kind in KINDS:
            for d in (1, 2, 3):
                out.append([cmd, "--process", kind, "--d", str(d), "--order", "3"])
        out += [[cmd], [cmd, "--order", "0"], [cmd, "--process", "m_stable"],
                [cmd, "--process", "nonsense"], [cmd, "--d", "0"], [cmd, "--order", "-1"],
                [cmd, "--order", "99"], [cmd, "--process", "poisson", "--params", '{"rate": "2"}'],
                [cmd, "--process", "gamma", "--params", '{"shape": "1/2", "scale": "3"}'],
                [cmd, "--process", "ig", "--params", '{"a": "2", "b": "3"}'],
                [cmd, "--process", "brownian", "--d", "2", "--params", '{"C": [[1, 0], [1, 2]]}'],
                [cmd, "--process", "poisson", "--params", '{"rate": "-1"}'],
                [cmd, "--process", "poisson", "--params", '{"shape": "1"}'],
                [cmd, "--process", "poisson", "--params", "[1]"],
                [cmd, "--process", "poisson", "--params", "{"],
                [cmd, "--process", "poisson", "--params", ""]]
        for f, d, order in (("m1", 1, 6), ("m2", 2, 4), ("a1", 1, 4), ("a2", 2, 3)):
            out.append([cmd, "--process", f"custom:{f}.json", "--d", str(d), "--order", str(order)])
        out += [[cmd, "--process", "custom:m1.json", "--order", "7"],
                [cmd, "--process", "custom:missing.json"],
                [cmd, "--process", "custom:broken.json"],
                [cmd, "--process", "custom:uses_t.json", "--order", "3"],
                [cmd, "--process", "custom:not_unital.json", "--order", "2"],
                [cmd, "--process", "custom:no_order.json", "--order", "0"]]
    # gen-tsh
    for kind in KINDS:
        for v in ("(1)", "(3)", "(1,1)", "(2,1)", "(1,0,1)"):
            out.append(["gen-tsh", "--process", kind, "--d", str(v.count(",") + 1), "--v", v])
    out += [["gen-tsh", "--v", "(2)"], ["gen-tsh", "--v", "(8)", "--order", "2"],
            ["gen-tsh", "--v", "(1,1)"], ["gen-tsh", "--v", "(-1)"], ["gen-tsh", "--v", "(25)"],
            ["gen-tsh", "--process", "custom:a1.json", "--order", "4", "--v", "(3)"],
            ["gen-tsh", "--process", "custom:m2.json", "--d", "2", "--order", "4", "--v", "(2,1)"],
            ["gen-tsh", "--process", "m_stable", "--v", "(1)"], ["gen-tsh"]]
    # gen-family
    for family in ("hermite", "bernoulli", "euler"):
        for v in ("(0)", "(1)", "(3)", "(1,1)", "(2,1)", "(1,1,1)"):
            for t in (None, "2", "-1/3", "1/2"):
                for latex in (False, True):
                    argv = ["gen-family", "--family", family, "--v", v]
                    argv += [] if t is None else ["--t", t]
                    out.append(argv + (["--latex"] if latex else []))
    out += [["gen-family", "--family", "hermite", "--v", "(1,1)", "--C", "[[1, 0], [2, 3]]"],
            ["gen-family", "--family", "hermite", "--v", "(2)", "--C", "[[2]]", "--latex"],
            ["gen-family", "--family", "hermite", "--v", "(1,1)", "--C", "[[1]]"],
            ["gen-family", "--family", "hermite", "--v", "(1,1)", "--C", ""],
            ["gen-family", "--family", "hermite", "--v", "(1,1)", "--C", "[["],
            ["gen-family", "--family", "bernoulli", "--v", "(1)", "--C", "[[1]]"],
            ["gen-family", "--family", "euler", "--v", "(1)", "--t", "x"],
            ["gen-family", "--family", "laguerre", "--v", "(1)"]]
    # verify: the basis sweep of every kind at d <= 3
    for kind in KINDS:
        for d in (1, 2, 3):
            for order in (None, "3", "5", "6"):
                for top in (None, "1", "2", "3", "5"):
                    argv = ["verify", "--process", kind, "--d", str(d)]
                    argv += [] if order is None else ["--order", order]
                    out.append(argv + ([] if top is None else ["--max-order", top]))
    out += [["verify"], ["verify", "--max-order", "0"], ["verify", "--max-order", "-1"],
            ["verify", "--process", "gamma", "--d", "2", "--max-order", "-1"],
            ["verify", "--process", "m_stable"], ["verify", "--process", "nonsense"],
            ["verify", "--process", "poisson", "--order", "-1"],
            ["verify", "--process", "gamma", "--params", '{"shape": "2", "scale": "1/3"}'],
            ["verify", "--process", "ig", "--d", "2", "--params", '{"a": "1/2", "b": "2"}'],
            ["verify", "--process", "brownian", "--d", "2", "--params", '{"C": [[1, 1], [0, 1]]}']]
    for f, d, order in (("m1", 1, 6), ("m2", 2, 4), ("a1", 1, 4), ("a2", 2, 3)):
        for top in (None, "1", "2", "3"):
            argv = ["verify", "--process", f"custom:{f}.json", "--d", str(d), "--order", str(order)]
            out.append(argv + ([] if top is None else ["--max-order", top]))
    out += [["verify", "--process", "custom:uses_t.json", "--order", "3", "--max-order", "3"],
            ["verify", "--process", "custom:m1.json", "--order", "6", "--max-order", "7"]]
    # verify --family
    for family in ("bernoulli", "euler"):
        for d in (1, 2, 3):
            for top in (None, "0", "1", "2", "3"):
                argv = ["verify", "--family", family, "--d", str(d)]
                out.append(argv + ([] if top is None else ["--max-order", top]))
        out += [["verify", "--family", family, "--max-order", "-1"],
                ["verify", "--family", family, "--max-order", "25"],
                ["verify", "--family", family, "--d", "0"],
                ["verify", "--family", family, "--process", "gamma"],
                ["verify", "--family", family, "--order", "3"],
                ["verify", "--family", family, "--params", "{}"],
                ["verify", "--family", family, "--tsh", "q2.json"]]
    out.append(["verify", "--family", "hermite"])
    # verify --tsh
    for kind in KINDS:
        for q, d in (("q2", 1), ("q11", 2), ("q2_bad", 1), ("q3_gamma", 1)):
            out.append(["verify", "--process", kind, "--d", str(d), "--tsh", f"{q}.json"])
    for q in ("q_uses_s", "q_not_leq", "q_list", "broken", "missing"):
        out.append(["verify", "--tsh", f"{q}.json"])
    out += [["verify", "--d", "2", "--tsh", "q2.json"],
            ["verify", "--tsh", "q2.json", "--max-order", "2"],
            ["verify", "--tsh", ""], ["verify", "--tsh", "", "--max-order", "2"],
            ["verify", "--process", "custom:a1.json", "--order", "4", "--tsh", "q2.json"]]
    # ig-check
    for a, b in (("1", "1"), ("2", "3"), ("1/2", "5"), ("-1/2", "1"), ("0", "1"), ("x", "1")):
        for order in ("0", "4", "8"):
            out.append(["ig-check", "--a", a, "--b", b, "--order", order])
    out += [["ig-check"], ["ig-check", "--order", "99"]]
    # decompose
    for kind in KINDS:
        out.append(["decompose", "--process", kind, "--poly", "p_x2.json"])
        out.append(["decompose", "--process", kind, "--poly", "p_tsh.json"])
        out.append(["decompose", "--process", kind, "--d", "2", "--poly", "p_mixed.json"])
    out += [["decompose", "--process", "gamma", "--order", "8", "--poly", "p_above.json"],
            ["decompose", "--poly", "p_in_a.json"], ["decompose", "--poly", "missing.json"],
            ["decompose", "--poly", "broken.json"], ["decompose", "--d", "2", "--poly", "p_x2.json"],
            ["decompose", "--process", "custom:a1.json", "--order", "4", "--poly", "p_in_a.json"]]
    # mc-verify at the fewest paths it takes, so the corpus stays quick
    for kind in ("brownian", "poisson", "gamma", "ig"):
        for d in (1, 2):
            for json_out in (False, True):
                argv = ["mc-verify", "--process", kind, "--d", str(d), "--max-order", "2",
                        "--paths", "10000"]
                out.append(argv + (["--json"] if json_out else []))
    out += [["mc-verify", "--max-order", "-1", "--paths", "10000"],
            ["mc-verify", "--max-order", "0", "--paths", "10000"],
            ["mc-verify", "--max-order", "7", "--paths", "10000"],
            ["mc-verify", "--process", "bernoulli", "--paths", "10000"],
            ["mc-verify", "--process", "custom:m1.json", "--paths", "10000"],
            ["mc-verify", "--paths", "9999"], ["mc-verify", "--seed", "-1", "--paths", "10000"],
            ["mc-verify", "--times", "1", "--paths", "10000"],
            ["mc-verify", "--times", "1,1/2", "--paths", "10000"],
            ["mc-verify", "--times", "-1/2,1", "--paths", "10000"],
            ["mc-verify", "--max-order", "2", "--paths", "10000", "--seed", "7",
             "--times", "1/3,2"]]
    # usage errors
    out += [[], ["nonsense"], ["partitions"], ["verify", "--output", "f.json"],
            ["moments", "--d", "x"], ["gen-family", "--v", "(1)"]]
    return out


def digest(argv):
    """sha256 of the exit code, stdout and stderr of umbrakit argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:     # an escaped error is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def run():
    os.environ.pop("UMBRA_MAX_ORDER", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in FILES.items():
                with open(name, "w") as fh:
                    json.dump(data, fh)
            for name, text in RAW.items():
                with open(name, "w") as fh:
                    fh.write(text)
            for argv in argvs():
                print(f"{digest(argv)}  {shlex.join(argv)}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    sys.exit(run())
