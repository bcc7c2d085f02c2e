"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "umbrakit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "UmbraTuple" names what it uses
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


def referenced_names(nodes):
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


TREES = {p: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_function_is_referenced_in_the_package(path):
    """A module-level _name that nothing in the package calls is dead code;
    a test that still calls it keeps it alive only by mistake."""
    others = referenced_names(t for p, t in TREES.items() if p != path)
    body = TREES[path].body
    dead = [node.name for node in body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")
            and node.name not in others
            and node.name not in referenced_names(n for n in body if n is not node)]
    assert not dead, f"{path.name} defines {dead}, which nothing in the package uses"


LAYOUT = {"_alignment", "_embedded", "_embedding", "_make", "_reduced", "_den",
          "_pack", "_unpack", "_offsets", "_guard", "_WIDTH", "_FIELD", "_LIMIT"}


@pytest.mark.parametrize("path", sorted(p for p in TREES if p.name != "polynomials.py"),
                         ids=lambda p: p.name)
def test_only_polynomials_knows_the_numerator_layout(path):
    """A Poly's numerators over one denominator, keyed by packed exponents,
    are private to polynomials: every other module converts through
    from_coeff_map and to_coeff_map, imports none of the layout helpers
    and reads no ._den."""
    names = referenced_names([TREES[path]])
    assert not names & LAYOUT, f"{path.name} uses {sorted(names & LAYOUT)}"


SERIES_LAYOUT = {"_parts", "_view", "_from_parts", "_read"}


def test_series_defines_its_layout():
    assert SERIES_LAYOUT <= referenced_names([TREES[PACKAGE / "series.py"]])


@pytest.mark.parametrize("path", sorted(p for p in TREES if p.name != "series.py"),
                         ids=lambda p: p.name)
def test_only_series_knows_the_parts_layout(path):
    """A series' homogeneous parts are private to series: every other module
    goes through its ops, its constructor and the .coeffs view."""
    names = referenced_names([TREES[path]])
    assert not names & SERIES_LAYOUT, f"{path.name} uses {sorted(names & SERIES_LAYOUT)}"


MEMO = {"_memo", "_derived", "_shifts", "_dots", "_tables", "_log"}


def test_umbrae_defines_the_memo():
    assert {"_memo", "_derived"} <= referenced_names([TREES[PACKAGE / "umbrae.py"]])


@pytest.mark.parametrize("path", sorted(p for p in TREES if p.name != "umbrae.py"),
                         ids=lambda p: p.name)
def test_only_umbrae_knows_a_tuples_memo(path):
    """What a tuple derives from its gf (log f, its exp table, the dot
    products) sits in one memo private to umbrae: every other module asks
    the tuple, and writes nothing."""
    names = referenced_names([TREES[path]])
    assert not names & MEMO, f"{path.name} uses {sorted(names & MEMO)}"


def called_names(fn):
    """The names that fn calls, as f(...) or as module.f(...)."""
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


def test_only_the_shift_plan_expands_binomials():
    """Every shift is a weighted sum over one binomial plan: in the
    package, only multiindex.shift_plan calls multi_binomial, so nothing
    else expands (x + y)^k or builds a term per (k, j) pair of its own."""
    callers = callers_of("multi_binomial")
    assert callers == {("multiindex.py", "shift_plan")}, f"{sorted(callers)} call multi_binomial"


def callers_of(name):
    """The (module, function) pairs in the package whose body calls name."""
    return {(path.name, fn.name) for path, tree in TREES.items() for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and name in called_names(fn)}


def test_only_exp_and_pow_run_the_degree_recurrence():
    """The reciprocal is series_pow(f, -1), whose weight at p = -1, q = 1
    is -n over n, so no third function passes _recurrence those terms."""
    assert callers_of("_recurrence") == {("series.py", "series_exp"),
                                         ("series.py", "series_pow")}


def outer_callers_of(name):
    """The (module, function) pairs in the package, a method named
    Class.method, whose body, nested functions included, calls name."""
    out = set()
    for path, tree in TREES.items():
        for node in tree.body:
            fns = [(node.name, node)] if isinstance(node, ast.FunctionDef) else \
                [(f"{node.name}.{fn.name}", fn) for fn in node.body
                 if isinstance(fn, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else []
            out.update((path.name, qual) for qual, fn in fns if name in called_names(fn))
    return out


def test_every_exponential_is_a_beta_dot_product():
    """exp(f - 1) is 1.beta over f, so the package's exponentials (Bell,
    Poisson, Brownian, inverse Gaussian, from_cumulants) are dot_t_beta
    calls; series_pow takes exp(e log f) for a Poly e, and the gf oracles
    expand exp on their own, as independent references."""
    assert outer_callers_of("series_exp") == {
        ("umbrae.py", "UmbraTuple.dot_t_beta"), ("series.py", "series_pow"),
        ("families.py", "hermite_gf_oracle"), ("families.py", "_classical_gf_oracle"),
        ("families.py", "levy_sheffer_gf_oracle"),
        ("processes.py", "inverse_gaussian_closed_form")}


@pytest.mark.parametrize("text", ["has wrong dimension", "exceeds truncation order"])
def test_one_function_checks_an_index(text):
    """Whether an index fits a ring (d, N) is decided in series.index_in,
    which the series constructor and get, eval_power and every harmonic
    check call: no other function raises its errors."""
    owners = {(path.name, fn.name) for path, tree in TREES.items() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and text in n.value for n in ast.walk(fn))}
    assert owners == {("series.py", "index_in")}


def test_a_sum_takes_its_ring_from_common():
    """A single sum and a slot of slot_sums unite their variables and
    denominators by one rule: _dot reaches the union through _common and
    aligns no variable tuples of its own."""
    dot = next(fn for fn in TREES[PACKAGE / "polynomials.py"].body
               if isinstance(fn, ast.FunctionDef) and fn.name == "_dot")
    assert "_common" in called_names(dot)
    assert "_alignment" not in called_names(dot)


CODE_NAMES = {ast.Lambda: "<lambda>", ast.ListComp: "<listcomp>", ast.SetComp: "<setcomp>",
              ast.DictComp: "<dictcomp>", ast.GeneratorExp: "<genexpr>"}


def profile_labels(tree):
    """The (line, name) of each code object in a module, as cProfile labels
    it with the file: a def or class starts at its first decorator, and a
    lambda or comprehension at its own first line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield min([node.lineno] + [d.lineno for d in node.decorator_list]), node.name
        elif type(node) in CODE_NAMES:
            yield node.lineno, CODE_NAMES[type(node)]


@pytest.mark.parametrize("path", sorted(TREES), ids=lambda p: p.name)
def test_every_profile_label_names_one_code_object(path):
    """cProfile keys its statistics by (file, line, name), so two code
    objects with one label, such as nested comprehensions on one line,
    share one entry, and the benchmark's per-layer figures for them would
    depend on which one it kept."""
    labels = list(profile_labels(TREES[path]))
    shared = sorted({label for label in labels if labels.count(label) > 1})
    assert not shared, f"{path.name} has more than one code object at {shared}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_guards_a_module(path):
    """python -O strips every assert, so each guard in the package is an
    if that raises."""
    lines = [node.lineno for node in ast.walk(TREES[path]) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"
