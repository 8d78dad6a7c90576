"""No module under ``src/`` imports a name it never uses.

A stdlib-only scan (``ast``): every name an ``import`` binds must appear
in the module as a name, in a string annotation or in ``__all__``, unless
the import statement carries ``# noqa: F401`` (or a bare ``# noqa``).
Package ``__init__`` modules are skipped: their imports are re-exports.
"""

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _suppressed(lines: List[str], node: ast.stmt) -> bool:
    for line in lines[node.lineno - 1 : node.end_lineno]:
        match = _NOQA.search(line)
        if match and (
            match.group("codes") is None
            or "F401" in match.group("codes").upper()
        ):
            return True
    return False


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> Set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return used


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        if _suppressed(lines, node):
            continue
        unused.extend((node.lineno, name) for name in bound
                      if name not in used)
    return sorted(unused)


#: (source, what the scan must report): a scan that reports nothing
#: would pass any tree.
SCANNER_CASES = [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.getcwd()\n", []),
    ("import numpy as np\n", [(1, "np")]),
    ("from typing import List, Tuple\nx: List[int] = []\n", [(1, "Tuple")]),
    ("from a import (\n    b,\n    c,\n)\nc()\n", [(1, "b")]),
    ("from typing import List\ndef f() -> 'List[int]':\n    pass\n", []),
    ("from m import x\n__all__ = ['x']\n", []),
    ("from __future__ import annotations\n", []),
    ("import numpy.random  # noqa: F401\n", []),
    ("import os  # noqa\n", []),
    ("import os  # noqa: E501\n", [(1, "os")]),
    ("from m import x\ndoc = 'x'\n", [(1, "x")]),
]


def test_src_has_no_unused_imports():
    for source, expected in SCANNER_CASES:
        assert unused_imports(source) == expected, source
    modules = sorted(
        path for path in SRC.rglob("*.py") if path.name != "__init__.py"
    )
    assert len(modules) > 50
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
