"""Every name a library module imports is used in that module, and every
function reads each of its parameters.

No linter is part of the toolchain, so this walks the syntax tree with the
standard library.  ``__init__.py`` is skipped by the import check: its imports
are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sl2genus"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


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
