"""Every command line ends in a documented exit code with a short report.

Hypothesis draws argv for each subcommand with values that are wrong in
type, shape, JSON depth (up to 2000) or the polynomial and index
grammars, next to well-formed ones, and runs umbrakit.cli.main in this
process, as tests/cli_corpus.py does.  Whatever it draws, the exit code
is 0, 1, 2 or 3 (argparse's SystemExit read as the code), nothing prints
a traceback, an error (2 or 3) is one line on stderr, and stderr on
exit 1 holds only JSON certificates (mc-verify without --json prints
its report table there).  Valid sizes stay small (d <= 3, orders <= 9,
an index entry <= 3, 10^4 paths), so each case meets a short deadline.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from umbrakit.cli import main
from umbrakit.multiindex import iter_indices


def mostly(good, bad):
    """good five draws in six, else bad."""
    return st.one_of(good, good, good, good, good, bad)


# values, well-formed and wrong in type, shape or grammar
JUNK = st.sampled_from(["", " ", "x", "1.5", "1e3", "--", "\n", "\r", "\u2028", "é", "(", "[",
                        "{", "~z1"])
INTS = mostly(st.integers(0, 5).map(str),
              st.one_of(st.sampled_from(["-1", "-2", "9", "21", "99", "0x10"]), JUNK))
DIMS = mostly(st.integers(1, 3).map(str), st.one_of(st.sampled_from(["-1", "0", "9"]), JUNK))
RATIONALS = mostly(st.sampled_from(["1", "2", "1/2", "-1/3", "3/4", "1e400", "0.25"]),
                   st.one_of(st.sampled_from(["0", "-1", "1/0", "nan", "inf"]), JUNK))


def index_text(entries):
    return "(" + ",".join(map(str, entries)) + ")"


INDICES = mostly(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(index_text),
    st.one_of(st.lists(st.sampled_from(["-1", "", "a", "1.5", " 1"]), max_size=4).map(index_text),
              st.sampled_from(["1,1", "((1))", "(1)(2)", "(1,1,1,1,1,1,1,1,1)", "(21)",
                               "(2)x"]), JUNK))
NAMES = st.sampled_from(["t", "s", "a", "x1", "t^2", "a^3", "t^99999", "a^3000000000",
                         "~z1", "é", "t/2", "2t"])
FACTORS = st.one_of(NAMES, RATIONALS)
TERMS = st.lists(FACTORS, min_size=1, max_size=3).map("*".join)
POLYS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["+", "-", " + ", ""]), TERMS), min_size=1, max_size=3)
    .map(lambda ts: "".join(sign + term for sign, term in ts)),
    st.sampled_from(["**", "t^", "t^-1", "1/0*t", "2 3", "t++s", "-"]))


def nested(depth):
    """A JSON text nested depth deep, as a list or an object chain."""
    return st.sampled_from(["[" * depth + "]" * depth,
                            '{"a":' * depth + "1" + "}" * depth])


DEEP = st.integers(1, 2000).flatmap(nested)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["1", "x", ""]))
JSONS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["a", "d", "v"]), inner,
                                                 max_size=3)), max_leaves=6)
COEFF_MAPS = st.dictionaries(INDICES, mostly(POLYS, SCALARS), max_size=4)
MATRICES = st.one_of(
    st.lists(st.lists(st.one_of(st.integers(-2, 2), RATIONALS), max_size=3), max_size=3),
    JSONS)
PARAMS = st.one_of(
    st.fixed_dictionaries({}, optional={
        key: st.one_of(RATIONALS, JSONS) for key in ("rate", "shape", "scale", "a", "b", "path")
    }),
    st.fixed_dictionaries({"C": MATRICES}),
    JSONS)
JSON_TEXT = st.one_of(PARAMS.map(json.dumps), DEEP, JUNK, st.sampled_from(["null", "[1]", "{"]))


@st.composite
def moment_files(draw):
    """A moment file of d <= 2 and order <= 3 whose moments are drawn
    polynomials, g_0 mostly 1, with d, order or moments at times wrong."""
    d, order = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    moments = {index_text(v): draw(POLYS) for v in iter_indices(d, order)
               if any(v) and draw(st.booleans())}
    moments[index_text((0,) * d)] = draw(mostly(st.just("1"), POLYS))
    data = {"d": d, "order": order, "moments": moments}
    for key, bad in (("d", st.one_of(st.integers(-1, 3), SCALARS)),
                     ("order", st.one_of(st.integers(-1, 4), st.just(21), SCALARS)),
                     ("moments", st.one_of(COEFF_MAPS, JSONS))):
        if draw(st.integers(0, 5)) == 0:
            data[key] = draw(bad)
    return data


MOMENT_FILES = moment_files()


@st.composite
def coeff_files(draw, tsh):
    """A coefficient map over indices k <= v for a drawn v of d <= 2, with
    q_v mostly 1 and v and d given when tsh, and a key at times wrong."""
    v = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)))
    coeffs = {index_text(k): draw(POLYS) for k in iter_indices(len(v), sum(v))
              if all(a <= b for a, b in zip(k, v)) and draw(st.booleans())}
    data = {"coeffs": coeffs}
    if tsh:
        coeffs[index_text(v)] = draw(mostly(st.just("1"), POLYS))
        data.update(v=index_text(v), d=len(v))
    for key, bad in (("coeffs", st.one_of(COEFF_MAPS, JSONS)), ("v", INDICES),
                     ("d", st.one_of(st.integers(-1, 3), SCALARS))):
        if draw(st.integers(0, 5)) == 0:
            data[key] = draw(bad)
    return data


@st.composite
def files(draw, contents):
    """A file argument: a JSON file of contents (maybe wrapped in "tsh" or
    nested deep), raw text, a directory, or a path that does not exist,
    as (name, text) with None for no file to write."""
    kind = draw(st.sampled_from(["json", "json", "deep", "raw", "dir", "missing"]))
    if kind == "json":
        data = draw(contents)
        if draw(st.booleans()):
            data = {"tsh": data}
        return "in.json", json.dumps(data)
    if kind == "deep":
        return "in.json", draw(DEEP)
    if kind == "raw":
        return "in.json", draw(st.one_of(JUNK, st.text(max_size=20)))
    return (".", None) if kind == "dir" else ("missing.json", None)


PROCESSES = st.sampled_from(["brownian", "poisson", "gamma", "ig", "inverse_gaussian",
                             "bernoulli", "euler", "m_stable", "nonsense", "", "custom:",
                             "custom:FILE"])

# the options of each subcommand and the values each takes; a flag
# foreign to a command draws an exit 2
COMMON = {"--d": DIMS, "--order": INTS, "--process": PROCESSES, "--params": JSON_TEXT}
OPTIONS = {
    "partitions": {"--v": INDICES},
    "moments": COMMON,
    "cumulants": COMMON,
    "gen-tsh": {**COMMON, "--v": INDICES},
    "gen-family": {"--family": st.sampled_from(["hermite", "bernoulli", "euler", "x"]),
                   "--v": INDICES, "--t": RATIONALS, "--C": JSON_TEXT, "--latex": None},
    "verify": {**COMMON, "--max-order": INTS, "--family": st.sampled_from(
        ["bernoulli", "euler", "x"]), "--tsh": st.just("FILE")},
    "ig-check": {"--a": RATIONALS, "--b": RATIONALS, "--order": INTS},
    "decompose": {**COMMON, "--poly": st.just("FILE")},
    "mc-verify": {**COMMON, "--max-order": INTS,
                  "--paths": st.sampled_from(["10000", "0", "x", "10000000000", "-5"]),
                  "--seed": st.sampled_from(["1", "-1", str(2 ** 128), "x"]),
                  "--times": st.sampled_from(["1/2,1", "1,1/2", "0,1", "1", "1,2,3", ",",
                                              "x,1", "-1/2,1", "1/2,1/0"]),
                  "--json": None},
}
FOREIGN = {"--bogus": JUNK, "--output": JUNK, "--C": JSON_TEXT, "--tsh": st.just("FILE")}
FILE_CONTENTS = {"--process": MOMENT_FILES, "--tsh": coeff_files(True),
                 "--poly": coeff_files(False)}
REQUIRED = {"partitions": ["--v"], "gen-tsh": ["--v"], "gen-family": ["--family", "--v"],
            "decompose": ["--poly"]}


@st.composite
def command_lines(draw):
    """(argv, file) for one subcommand: its required options (mostly), up
    to four more of its own and at times one foreign one, and the file
    that FILE names."""
    cmd = draw(st.sampled_from(sorted(OPTIONS)))
    own = OPTIONS[cmd]
    flags = [f for f in REQUIRED.get(cmd, []) if draw(st.integers(0, 9))]
    flags += [f for f in draw(st.lists(st.sampled_from(sorted(own)), max_size=4, unique=True))
              if f not in flags]
    if draw(st.integers(0, 7)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(FOREIGN) - set(own)))))
    argv, file = [cmd], None
    for flag in flags:
        values = own.get(flag, FOREIGN.get(flag))
        argv.append(flag)
        if values is None:
            continue
        value = draw(values)
        if "FILE" in value:
            file = draw(files(FILE_CONTENTS.get(flag, MOMENT_FILES)))
            value = value.replace("FILE", file[0])
        argv.append(value)
    return argv, file


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=timedelta(seconds=3),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command_lines())
def test_any_command_line_exits_with_a_documented_code_and_one_line(tmp_path, monkeypatch,
                                                                    case):
    argv, file = case
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("UMBRA_MAX_ORDER", raising=False)
    if file is not None and file[1] is not None:
        (tmp_path / file[0]).write_text(file[1])
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in out + err
    lines = err.splitlines()
    table = argv[0] == "mc-verify" and "--json" not in argv and code in (0, 1)
    if code in (2, 3):
        assert len(lines) == 1 and err.endswith("\n"), err
    elif not table:
        assert all(isinstance(json.loads(line), dict) for line in lines), err
        assert code == 1 or not lines, err
