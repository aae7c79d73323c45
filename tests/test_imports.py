"""Every name a library or test module imports is used in that module,
library imports sit at module level unless an allowlist entry says why not,
every function reads each of its parameters, every private module-level name
is used somewhere under src/, every public function and class is used
somewhere under src/ or tests/, no module keeps a cache of its own, only
subgroups.py touches a subgroup's memo, only groups.cached touches a
context's memo, only core.py knows the bit
layout of a packed code, groups.py multiplies no decoded matrices,
only genus_report walks cosets (coset_space), only subgroups._lift_walk
and all_subgroups grow a list while they walk it, and only six functions
catch FeasibilityError, none of them to return None, and only four catch
PreconditionError, ValueError or Exception.  Every "# pragma: no cover"
under src/ gives its reason on its line.  Every name the benchmark's
tracer wraps (perfbench/spans.py) still exists in the library.

No linter is part of the toolchain, so this walks the syntax tree with the
standard library.  A cold ``import sl2genus.cli`` loads core and sequences
alone, each CLI verb in a fresh interpreter loads only the modules it runs,
and no cold call loads ``dataclasses``.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sl2genus"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as "ElementSet" name a type without a Name node
    for node in ast.walk(tree):
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    src = "from typing import List, Tuple\nimport os\n\ndef f(x: 'List[int]'):\n    return os.sep\n"
    assert _unused_imports(src) == [(1, "Tuple")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _local_imports(source: str):
    """(function, name) for each name imported inside a function body, under
    the innermost function."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if fn and isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((fn, alias.asname or alias.name) for alias in child.names)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(ast.parse(source), None)
    return sorted(out)


def test_the_check_sees_a_function_local_import():
    src = (
        "import os\n\ndef f():\n    from math import gcd as g\n\n    def inner():\n        import json\n"
        "    return g\n\nclass C:\n    def m(self):\n        from . import suites\n"
    )
    assert _local_imports(src) == [("f", "g"), ("inner", "json"), ("m", "suites")]


# A function-local import hides a dependency from the top of its module; each
# one kept names its reason.  An entry whose import is gone fails too.
_LOCAL_IMPORTS_ALLOWED = {
    ("cli.py", "_cmd_verify", "suites"): "only verify reads suites.py; at module level every cold CLI call "
    "would compile it",
    ("cli.py", "_cmd_verify", "bounds"): "only verify reads bounds.py (the section-7 audit); the bounds command "
    "reads sequences.py, so genus, count, class-table and bounds calls never compile bounds.py",
    ("cli.py", "_cmd_class_table", "enumerate_group"): "groups.py is read by the class-table, count and genus "
    "verbs; the bounds verb never compiles it",
    ("cli.py", "_cmd_class_table", "partition_into_classes"): "as enumerate_group: groups.py, for class-table",
    ("cli.py", "_cmd_count", "ConjClassRef"): "as enumerate_group: groups.py, for count",
    ("cli.py", "_cmd_count", "conj_class_size_formula"): "as enumerate_group: groups.py, for count",
    ("cli.py", "_cmd_count", "count_in_subgroup"): "genus.py is read by the count and genus verbs only; the "
    "bounds and class-table verbs never compile it",
    ("cli.py", "_cmd_genus", "genus_report"): "as count_in_subgroup: genus.py, for genus",
    ("cli.py", "_subgroup", "parse_subgroup_spec"): "subgroups.py is read by the count and genus verbs only (the "
    "two that take --subgroup); the bounds and class-table verbs never compile it",
}


def test_imports_sit_at_module_level():
    found = {(p.name, fn, name) for p in SRC.glob("*.py") for fn, name in _local_imports(p.read_text())}
    assert found == set(_LOCAL_IMPORTS_ALLOWED)


def _loaded_after(statement: str):
    """The sl2genus modules in sys.modules after statement, run in a fresh
    interpreter on this checkout's src/."""
    code = statement + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('sl2genus.'))))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


_BOUNDS_VERB = {"sl2genus.cli", "sl2genus.core", "sl2genus.sequences"}
_CLASS_TABLE_VERB = _BOUNDS_VERB | {"sl2genus.groups"}
_SUBGROUP_VERBS = _CLASS_TABLE_VERB | {"sl2genus.subgroups", "sl2genus.genus"}


# Every CLI call starts a fresh interpreter and, without bytecode, compiles each
# module it imports: importing the front end loads only what every verb runs.
def test_a_cold_cli_import_leaves_out_what_only_verify_runs():
    assert _loaded_after("import sl2genus.cli") == _BOUNDS_VERB


# The README's CLI calls, each with the sl2genus modules it loads (None for
# verify, the one verb that may load bounds, fibers and suites).
_README_CALLS = (
    (["genus", "--p", "13", "--n", "1", "--subgroup", "B"], _SUBGROUP_VERBS),
    (["count", "--p", "13", "--n", "1", "--subgroup", "B", "--class", "u"], _SUBGROUP_VERBS),
    (["class-table", "--p", "2", "--n", "2"], _CLASS_TABLE_VERB),
    (["bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3"], _BOUNDS_VERB),
    (["verify", "--suite", "section7", "--case", "P7.2"], None),
)


def _cold_call(argv):
    """(exit code, stdout, loaded) of the sl2genus console script with argv, in a
    fresh interpreter on this checkout's src/ without bytecode, as a cold call
    runs; loaded holds the sl2genus modules, and dataclasses, in sys.modules at exit."""
    code = (
        "import sys\nimport sl2genus.cli\ntry:\n    sl2genus.cli.main()\nfinally:\n    print(' '.join(sorted("
        "m for m in sys.modules if m == 'dataclasses' or m.startswith('sl2genus.'))), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, set(proc.stderr.split())


def _json_without_elapsed(text: str):
    return json.loads(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text))


# An in-process test cannot see a verb that lacks an import of its own: an
# earlier test has loaded the module already.  A fresh interpreter can.
@pytest.mark.parametrize("argv, modules", _README_CALLS, ids=[a[0] for a, _ in _README_CALLS])
def test_a_cold_cli_call_loads_only_what_its_verb_runs(capsys, argv, modules):
    from sl2genus import cli

    argv = argv + ["--output", "json"]
    code, out, loaded = _cold_call(argv)
    assert code == cli.run(argv) == 0
    assert _json_without_elapsed(out) == _json_without_elapsed(capsys.readouterr().out)
    assert "dataclasses" not in loaded
    if modules is not None:
        assert loaded == modules


# The benchmark's workloads.lib reads library modules from sys.modules after
# ``import sl2genus; import sl2genus.cli; import sl2genus.suites``: importing
# suites must load every module it resolves.
def test_importing_suites_loads_every_library_module():
    loaded = _loaded_after("import sl2genus.suites")
    names = ("core", "groups", "subgroups", "genus", "fibers", "bounds")
    assert {"sl2genus." + m for m in names} <= loaded


def _suite_functions(tree):
    """Names of the values of the module-level SUITES dict."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "SUITES":
            return {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return set()


def _unread_parameters(source: str):
    """(line, function, parameter) for each parameter the body never reads.
    The SUITES values all take ``seed`` whether or not they use it."""
    tree = ast.parse(source)
    suites = _suite_functions(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for arg in params:
            if arg.arg not in read and not (name in suites and arg.arg == "seed"):
                out.append((node.lineno, name, arg.arg))
    return out


def test_the_check_sees_an_unread_parameter():
    src = (
        "def f(a, b=0, *args, c, **kw):\n    return a + c + len(args)\n\n"
        "def suite_x(seed=0, cap=1):\n    return True\n\n"
        "SUITES: dict = {'x': suite_x}\n"
        "g = lambda x, y: x\n"
    )
    assert sorted(_unread_parameters(src)) == [
        (1, "f", "b"),
        (1, "f", "kw"),
        (4, "suite_x", "cap"),
        (8, "<lambda>", "y"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert _unread_parameters(path.read_text()) == []


def _unreferenced(sources, select):
    """(module, line, name) for each module-level function, class or constant
    that select(module, statement, name) picks and that no other top-level
    statement of any module in sources refers to."""
    defs = []
    uses = []
    for mod, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                names = []
            defs += [(mod, i, stmt.lineno, n) for n in names if select(mod, stmt, n)]
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
            uses.append((mod, i, used))
    return sorted(
        (mod, line, name)
        for mod, i, line, name in defs
        if not any(name in used for m, j, used in uses if (m, j) != (mod, i))
    )


def _unreferenced_privates(sources):
    """The private module-level names of sources that nothing refers to."""
    return _unreferenced(sources, lambda mod, stmt, name: name.startswith("_") and not name.startswith("__"))


def _unreferenced_publics(sources, library):
    """The public module-level functions and classes of the modules in library
    that no other top-level statement of sources (library and tests) refers to."""
    return _unreferenced(
        sources,
        lambda mod, stmt, name: mod in library
        and not name.startswith("_")
        and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)),
    )


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n\n"
        "_K = 1\n_STALE: int = 2\nx = _used()\n",
        "b.py": "from a import _K\n",
    }
    assert _unreferenced_privates(sources) == [("a.py", 4, "_recursive"), ("a.py", 8, "_STALE")]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unreferenced_privates(sources) == []


def test_the_check_sees_an_unused_public_name():
    sources = {
        "src/a.py": "def tested():\n    pass\n\ndef orphan():\n    return orphan()\n\n"
        "class Called:\n    pass\n\nLIMIT = 3\nx = Called()\n",
        "tests/test_a.py": "from a import tested\n\ndef test_untouched():\n    tested()\n",
    }
    assert _unreferenced_publics(sources, {"src/a.py"}) == [("src/a.py", 4, "orphan")]


# Every public function and class of the library has a caller, in the library
# or in a test; a name that only its own definition mentions gets deleted.
def test_no_unused_public_names():
    library = {"src/" + p.name: p.read_text() for p in SRC.glob("*.py")}
    tests = {"tests/" + p.name: p.read_text() for p in Path(__file__).resolve().parent.glob("*.py")}
    assert _unreferenced_publics({**library, **tests}, set(library)) == []


# Caches live in the memo of a group context (groups.cached) or of a
# subgroup; the two lru_caches left are the context and encoder factories.
_LRU_ALLOWED = {"make_ctx", "_packers"}
_CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
_MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
    "remove", "setdefault", "update",
}


def _module_state(source: str):
    """(line, name) for each module-level dict, set or list that a function
    mutates, and for each function other than make_ctx and _packers that an
    lru_cache or cache decorates."""
    tree = ast.parse(source)
    containers = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        v = stmt.value
        if isinstance(v, _CONTAINERS) or getattr(getattr(v, "func", None), "id", None) in ("dict", "set", "list"):
            containers.update((t.id, stmt.lineno) for t in targets if isinstance(t, ast.Name))
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                hit = node.func.value
            else:
                continue
            if isinstance(hit, ast.Name) and hit.id in containers and hit.id not in local:
                out.add((containers[hit.id], hit.id))
        for dec in getattr(fn, "decorator_list", ()):
            d = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(d, "attr", getattr(d, "id", None)) in ("lru_cache", "cache") and fn.name not in _LRU_ALLOWED:
                out.add((fn.lineno, fn.name))
    return sorted(out)


def test_the_check_sees_module_state():
    src = (
        "import functools\nfrom functools import lru_cache\n\n"
        "_MEMO = {}\n_SEEN: set = set()\nTABLE = {'a': 1}\n\n"
        "def f(k):\n    _MEMO[k] = 1\n    _SEEN.add(k)\n    out = []\n    out.append(k)\n"
        "    return TABLE[k]\n\n"
        "@lru_cache(maxsize=None)\ndef g(x):\n    return x\n\n"
        "@functools.cache\ndef h(x):\n    return x\n\n"
        "@lru_cache\ndef make_ctx(p):\n    return p\n"
    )
    assert _module_state(src) == [(4, "_MEMO"), (5, "_SEEN"), (16, "g"), (20, "h")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_caches(path):
    assert _module_state(path.read_text()) == []


def _subgroup_memo_uses(source: str):
    """Lines that read or write a subgroup's private memo, ``._reduced``."""
    tree = ast.parse(source)
    return sorted({n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_reduced"})


def test_the_check_sees_a_subgroup_memo_use():
    src = (
        "def f(h):\n    h._reduced['level'] = 1\n    return h.reduced(1).codes()\n\n"
        "g = lambda h: h._reduced.get(2)\n"
    )
    assert _subgroup_memo_uses(src) == [2, 5]


# subgroups.py alone reads and writes the subgroup memo: what it holds
# (reductions, H_s, the level) is derived there and only there.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "subgroups.py"], ids=lambda p: p.name)
def test_only_subgroups_uses_the_subgroup_memo(path):
    assert _subgroup_memo_uses(path.read_text()) == []


def test_the_check_sees_a_context_memo_use():
    src = (
        "def cached(ctx, key):\n    return ctx.memo.get(key)\n\n"
        "def fill(ctx):\n    ctx.memo['G'] = 1\n    del ctx.memo['G']\n\n"
        "peek = lambda ctx: ctx.memo\n"
    )
    assert _referrers(src, "memo") == [("<module>", 8), ("cached", 2), ("fill", 5), ("fill", 6)]


# groups.cached alone reads and writes a context's memo, so every entry is
# built once and every read checks the caller's cap; GroupCtx's constructor
# creates the memo empty, and nothing else in core.py touches it.
def test_only_cached_uses_the_context_memo():
    found = {(p.name, fn) for p in SRC.glob("*.py") for fn, _ in _referrers(p.read_text(), "memo")}
    assert found == {("groups.py", "cached"), ("core.py", "__init__")}
    core = (SRC / "core.py").read_text()
    stores = [n for n in ast.walk(ast.parse(core)) if getattr(getattr(n, "target", None), "attr", None) == "memo"]
    assert len(_referrers(core, "memo")) == len(stores) == 1
    assert isinstance(stores[0].value, ast.Dict) and not stores[0].value.keys


def _decodes(node) -> bool:
    """node is dec(...) or decoder(...)(...)."""
    f = node.func if isinstance(node, ast.Call) else None
    return getattr(f, "id", None) == "dec" or (isinstance(f, ast.Call) and getattr(f.func, "id", None) == "decoder")


def _packed_format_uses(source: str):
    """Lines that shift bits (<<, >>, <<=, >>=) or reduce a decoded code by
    reduce_mat(dec(...), ...) rather than through core.reducer."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, (ast.LShift, ast.RShift)):
            out.add(n.lineno)
        elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "reduce_mat" and n.args and _decodes(n.args[0]):
            out.add(n.lineno)
    return sorted(out)


def test_the_check_sees_a_packed_format_use():
    src = (
        "def f(code, k, dec, x):\n    return code >> k, (code & 1) << k\n\n"
        "def g(c, q, dec, ctx):\n    c >>= 1\n    y = reduce_mat(dec(c), q)\n    return y, reduce_mat(decoder(ctx)(c), q)\n\n"
        "h = lambda x, q: reduce_mat(x, q) if x else 1 + 2\n"
    )
    assert _packed_format_uses(src) == [2, 5, 6, 7]


# core.py alone knows how a matrix is packed: the encoding, the reduction
# between levels (core.reducer) and the map x -> x s on codes (core.right_mul).
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_knows_the_packed_format(path):
    assert _packed_format_uses(path.read_text()) == []


def _matrix_products_imported(source: str):
    """The names _mul and _inv wherever source imports them, aliased or not."""
    return sorted(
        alias.name
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
        if alias.name in ("_mul", "_inv")
    )


def test_the_check_sees_a_matrix_product_import():
    src = "from .core import _inv, encoder\n\ndef f():\n    from .core import _mul as m\n    return m\n"
    assert _matrix_products_imported(src) == ["_inv", "_mul"]


# The orbit and coset kernels walk packed codes through core's maps
# (right_mul, conjugator); a decoded product in groups.py would bring back
# the decode/multiply/encode loop they replaced.
def test_groups_multiplies_no_decoded_matrices():
    assert _matrix_products_imported((SRC / "groups.py").read_text()) == []


def _referrers(source: str, name: str):
    """(function, line) for each read of name, as a bare name or an attribute,
    under the innermost enclosing function ("<module>" outside any)."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load)) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                out.append((fn, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(ast.parse(source), "<module>")
    return sorted(out)


def test_the_check_sees_a_second_coset_walk():
    src = (
        "def coset_space(h):\n    return h\n\ndef genus_report(h):\n    return coset_space(h)\n\n"
        "def fix_points(h, walk=coset_space):\n    return genus.coset_space(h)\n\nx = list(map(coset_space, []))\n"
    )
    found = [("<module>", 10), ("fix_points", 7), ("fix_points", 8), ("genus_report", 5)]
    assert _referrers(src, "coset_space") == found


# genus_report is the one coset cross-check of the genus counts: any other
# reader of coset_space would be a second place where the two routes meet.
def test_only_genus_report_walks_cosets():
    found = {(p.name, fn) for p in SRC.glob("*.py") for fn, _ in _referrers(p.read_text(), "coset_space")}
    assert found == {("genus.py", "genus_report")}


def _growing_walks(source: str):
    """(function, list) for each for-loop over a bare name whose body appends
    to, extends or inserts into that same list, under the innermost function."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.For) and isinstance(child.iter, ast.Name):
                grows = any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("append", "extend", "insert")
                    and getattr(n.func.value, "id", None) == child.iter.id
                    for n in ast.walk(child)
                )
                if grows:
                    out.append((fn, child.iter.id))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(ast.parse(source), "<module>")
    return sorted(out)


def test_the_check_sees_a_second_lift_walk():
    src = (
        "def _lift_walk(gens, lifts):\n    for t in lifts:\n        for g in gens:\n            lifts.append(t * g)\n\n"
        "def sides(gens):\n    lifts = [1]\n    for t, d in lifts:\n        pass\n    for t in lifts:\n"
        "        if t:\n            lifts.extend(gens)\n    out = []\n    for t in gens:\n        out.append(t)\n\n"
        "queue = [0]\nfor x in queue:\n    queue.insert(0, x)\n"
    )
    assert _growing_walks(src) == [("<module>", "queue"), ("_lift_walk", "lifts"), ("sides", "lifts")]


# subgroups._lift_walk is the one lift-and-reduce loop: the Schreier walk and
# section 2's L2_5 read its pairs.  The other lists that grow while they are
# walked are all_subgroups' table walk, its walk of a new subgroup's conjugacy
# orbit and its queue of class representatives.
def test_only_the_lift_walk_and_the_lattice_grow_what_they_walk():
    found = {(p.name, fn, name) for p in MODULES for fn, name in _growing_walks(p.read_text())}
    assert found == {
        ("subgroups.py", "_lift_walk", "lifts"),
        ("subgroups.py", "all_subgroups", "walk"),
        ("subgroups.py", "all_subgroups", "orbit"),
        ("subgroups.py", "all_subgroups", "reps"),
    }


def _handlers(source: str, errors=("FeasibilityError",)):
    """(function, line, returns None) for each except clause that names one of
    errors (a bare ``except`` names them all), under the innermost function;
    returns None when its body holds a bare ``return`` or ``return None``."""
    out = []

    def names(t):
        caught = t.elts if isinstance(t, ast.Tuple) else [t]
        return {getattr(e, "id", None) or getattr(e, "attr", None) for e in caught}

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and (child.type is None or names(child.type) & set(errors)):
                returns = [n.value for stmt in child.body for n in ast.walk(stmt) if isinstance(n, ast.Return)]
                none = any(v is None or (isinstance(v, ast.Constant) and v.value is None) for v in returns)
                out.append((fn, child.lineno, none))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(ast.parse(source), "<module>")
    return sorted(out)


def test_the_check_sees_a_feasibility_handler():
    src = (
        "def walk(gens):\n    try:\n        return run(gens)\n    except FeasibilityError:\n        return None\n\n"
        "def order(h):\n    try:\n        h.walk()\n    except (ValueError, core.FeasibilityError):\n        return\n\n"
        "def run(argv):\n    try:\n        go(argv)\n    except FeasibilityError as e:\n        return 2\n"
        "    except Exception:\n        return None\n"
    )
    assert _handlers(src) == [("order", 10, True), ("run", 16, False), ("walk", 4, True)]


# A passed cap raises one FeasibilityError where it is passed, and it reaches
# the user as raised; each function that catches it says what the error means
# there.  None of them turns it into None for a caller to turn back.
_FEASIBILITY_CATCHERS = {
    ("groups.py", "_group_closure"): "a closure of <u, t(u)> past #SL2 is a bug: ConsistencyError",
    ("subgroups.py", "all_subgroups"): "a subgroup above k/2 elements is the whole universe (Lagrange)",
    ("subgroups.py", "exceptional_subgroup"): "a pair that closes past #E is not the group sought",
    ("subgroups.py", "sample_slim_subgroups"): "a candidate whose lifts pass the slim cap is not slim",
    ("cli.py", "run"): "the refusal is the user's to lift: exit 2 with its one line",
}


def test_only_the_named_functions_catch_feasibility_errors():
    found = [(p.name, fn, none) for p in MODULES for fn, _, none in _handlers(p.read_text())]
    assert {(name, fn) for name, fn, _ in found} == set(_FEASIBILITY_CATCHERS)
    assert [entry for entry in found if entry[2]] == []


_BROAD = ("PreconditionError", "ValueError", "Exception")


def test_the_check_sees_a_broad_handler():
    src = (
        "def plan(kinds):\n    for k in kinds:\n        try:\n            k()\n        except core.PreconditionError:\n"
        "            continue\n\ndef parse(s):\n    try:\n        return int(s)\n    except (KeyError, ValueError):\n"
        "        return None\n    except:\n        raise\n\ndef go(f):\n    try:\n        f()\n    except KeyError:\n"
        "        pass\n    except Exception:\n        pass\n"
    )
    assert _handlers(src, _BROAD) == [("go", 21, False), ("parse", 11, True), ("parse", 13, False), ("plan", 5, False)]
    # bound_reports with its old try/except back: every class asked, a PreconditionError read as "no bound here"
    source = (SRC / "bounds.py").read_text()
    old = "        plan = _bound_plan(ref)\n        if plan.bounds:\n            yield _report(h, ref, plan)\n"
    new = "        try:\n            rep = slim_bound_report(h, ref)\n        except PreconditionError:\n"
    assert source.count(old) == 1
    source = source.replace(old, new + "            continue\n        yield rep\n")
    assert "bound_reports" in {fn for fn, _, _ in _handlers(source, _BROAD)}


# A PreconditionError says that an input is outside what the paper states;
# each function that catches it (or its base ValueError, or any Exception)
# says what it means there.  Elsewhere it reaches the caller as raised, so a
# non-slim subgroup handed to bound_reports is refused, not skipped.
_BROAD_CATCHERS = {
    ("bounds.py", "build"): "_bound_plan's: a bound or fiber whose preconditions fail has no place at this depth",
    ("cli.py", "_parsed"): "a ValueError while reading command-line input is a usage error",
    ("cli.py", "run"): "a PreconditionError is the user's (exit 2); any other Exception is a bug (exit 3)",
    ("core.py", "_inv"): "pow's ValueError on a non-unit determinant is a NotInvertibleError",
}


def test_only_the_named_functions_catch_precondition_errors():
    assert {(p.name, fn) for p in MODULES for fn, _, _ in _handlers(p.read_text(), _BROAD)} == set(_BROAD_CATCHERS)


def test_the_check_sees_a_read_of_codes():
    src = (
        "def count_in_subgroup(h, ref):\n    return len(h.codes() & class_codes(ref))\n\n"
        "def genus_report(h):\n    return len(h.codes), h.reduced(1)\n"
    )
    assert _referrers(src, "codes") == [("count_in_subgroup", 2), ("genus_report", 5)]


# genus_report reads H at its level: below level n it reports H_m =
# h.reduced(m), so H's code set is read by the label counter (once per H, on
# the level-n route) and by coset_space, which genus_report calls only on H at
# its own level; no other reader can quietly close H at level n inside a report.
def test_only_the_label_counter_and_the_coset_walk_read_codes_in_genus():
    found = {fn for fn, _ in _referrers((SRC / "genus.py").read_text(), "codes")}
    assert found == {"_class_counts", "coset_space"}


SPANS = SRC.parent.parent / "perfbench" / "spans.py"


def _traced_names(source: str):
    """The (module, attribute) pairs of TRACED and the names of SUITE_NAMES in
    the tracer's source, read from its syntax tree (nothing there is run)."""
    pairs, suites = [], []
    for node in ast.parse(source).body:
        target = getattr(node, "target", None) or (node.targets[0] if isinstance(node, ast.Assign) else None)
        if getattr(target, "id", None) == "TRACED":
            pairs = [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
        elif getattr(target, "id", None) == "SUITE_NAMES":
            suites = list(ast.literal_eval(node.value))
    return pairs, suites


def _untraceable(pairs, suites):
    """The traced names the library lacks, looked up as the tracer does: a
    function in its module's namespace, a method in its own class's."""
    out = []
    for modname, attr in pairs:
        owner = importlib.import_module(modname)
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(owner, cls_name, None) if cls_name else owner
        if owner is None or name not in vars(owner):
            out.append("%s.%s" % (modname, attr))
    known = importlib.import_module("sl2genus.suites").SUITES
    return out + ["suites.%s" % s for s in suites if s not in known]


def test_the_check_sees_an_untraceable_name():
    src = (
        'TRACED: Tuple = (\n    ("sl2genus.genus", "coset_space", lambda a, r: len(r[0])),\n'
        '    ("sl2genus.genus", "walk", None),\n    ("sl2genus.subgroups", "Subgroup.close", None),\n'
        '    ("sl2genus.subgroups", "Closure.codes", None),\n)\nSUITE_NAMES = ("cor6.5", "lemma9.9")\n'
    )
    pairs, suites = _traced_names(src)
    assert len(pairs) == 4 and suites == ["cor6.5", "lemma9.9"]
    assert _untraceable(pairs, suites) == [
        "sl2genus.genus.walk",
        "sl2genus.subgroups.Subgroup.close",
        "sl2genus.subgroups.Closure.codes",
        "suites.lemma9.9",
    ]


# Renaming or deleting a traced kernel would otherwise null its per-layer metrics without failing anything.
def test_every_traced_name_resolves():
    pairs, suites = _traced_names(SPANS.read_text())
    assert pairs and suites
    assert _untraceable(pairs, suites) == []


def _bare_pragmas(source: str):
    """The lines whose "# pragma: no cover" gives no reason after it on the same line."""
    return [i for i, line in enumerate(source.splitlines(), 1) if re.search(r"# pragma: no cover\W*$", line)]


def test_the_check_sees_a_pragma_without_its_reason():
    src = "x = 1  # pragma: no cover\ny = 2  # pragma: no cover: only a child process runs it\n"
    assert _bare_pragmas(src) == [1]


# .github/linecov.py leaves a line marked "# pragma: no cover" off its list of
# lines that no test reaches, so the mark says on its line why no test can.
def test_every_pragma_names_its_reason():
    assert {p.name: _bare_pragmas(p.read_text()) for p in MODULES if _bare_pragmas(p.read_text())} == {}


# ROADMAP item 7 budgets the lines under src/: the library may not grow past
# its last count of 3,877 lines.  The count per module is printed too, so that
# a change can read its delta module by module.
def test_src_stays_within_the_line_budget():
    counts = {p.name: len(p.read_text().splitlines()) for p in MODULES}
    for name, count in counts.items():
        print("src/sl2genus/%s: %d lines" % (name, count))
    total = sum(counts.values())
    print("src/sl2genus: %d lines, budget 3,877" % total)
    assert total <= 3_877, "src/sl2genus holds %d lines, above the budget of 3,877" % total
