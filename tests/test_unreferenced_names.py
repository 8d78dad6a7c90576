"""Every function, class and method under ``src/repro`` has a caller.

A stdlib-only scan (``ast``). The definitions are the top-level functions
and classes of each ``src/repro`` module and the methods of those classes
(dunder methods skipped). A definition is referenced when its name
appears in program code: a name or attribute in a ``src/`` module, an
example, a benchmark or ``perfbench/``, or a string constant there that
is a dotted ``module:Class.method`` path (``perfbench/ledger.py`` names
its targets that way). Docstrings, ``__all__`` lists and the imports of
package ``__init__`` modules (re-exports) are not references; tests are
not callers. The library contract counts as referenced: every name in
``repro.__all__``, ``repro.core.__all__`` or ``repro.obs.__all__`` and
every method of a class they export. Any other definition without a
caller is in ``ALLOWED`` with the reason it stays.

The scan matches names, not bindings, so it has a blind spot: a method
counts as referenced when any program code uses its name, whichever
object that code calls it on. An uncalled method therefore hides behind
any same-named definition or attribute with a caller; four pack
``canonical()`` methods that nothing called stayed unflagged because
``FleetSpec.canonical`` and ``ScenarioSpec.canonical`` have callers.
"""

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROGRAM_DIRS = [
    SRC, ROOT / "examples", ROOT / "benchmarks", ROOT / "perfbench"
]
#: Packages whose ``__all__`` is the library contract: ``repro`` and
#: ``repro.core``, plus ``repro.obs``, which ``repro.__all__`` exports
#: as a module.
CONTRACT_MODULES = [
    SRC / "repro" / "__init__.py",
    SRC / "repro" / "core" / "__init__.py",
    SRC / "repro" / "obs" / "__init__.py",
]

_PATH = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")

#: Definitions no program calls that stay, with the tests that need them.
ALLOWED = {
    "load_plan": "serialization tests round-trip plans (save_plan's inverse)",
    "rules_to_json": "chaos tests write rule sets (rules_from_json's inverse)",
    "sample_text_subsequence_tokens": "oracle of the vectorized text clamp",
    "sample_image_subsequence_tokens": "distribution tests draw image sizes",
    "brute_force_optimal_makespan": "exhaustive oracle for Algorithm 1",
    "partition_makespan": "reordering tests score partitions",
    "round_robin_partition": "baseline partition of the reordering tests",
    "lpt_partition": "reordering tests check LPT grouping",
    "pack_subsequences": "packing tests check the packing rules",
    "KeyedCache.lookup": "cache tests peek at live entries",
    "ModelOrchestrationPlan.validate": "plan tests check built plans",
    "ParallelismUnit.global_ranks": "unit tests check rank_of's range",
    "MetricsRegistry.counter_value": "obs tests read the live registry",
    "MetricsRegistry.gauge_value": "obs tests read the live registry",
    "JobSimulator.iterations_retained": "memory-bound tests read live jobs",
    "PipelineSimulator.run_reference": "oracle of the pipeline kernel",
    "PipelineTrace.stage_records": "pipeline tests read live traces",
    "PipelineTrace.stage_idle_gaps": "oracle of the kernel's first_stage_gap",
    "PipelineTrace.assert_valid": "invariants the pipeline tests assert",
    "OverlapTimeline.assert_valid": "invariants the StepCCL tests assert",
    "ScenarioPack.materialize": "pack tests and golden regen serialize packs",
    "clear_kernel_cache": "obs golden regen resets process caches",
}


def _docstrings(tree: ast.AST) -> Set[int]:
    """ids of the string constants that stand alone as statements."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


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


def _all_lists(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            yield node.value


def _words(text: str) -> Set[str]:
    return set(re.split(r"[.:]", text)) if _PATH.fullmatch(text) else set()


def references(source: str, package_init: bool = False) -> Set[str]:
    """Every name ``source``'s code uses, as described in the module doc."""
    tree = ast.parse(source)
    skipped = _docstrings(tree)
    for value in _all_lists(tree):
        skipped.update(id(node) for node in ast.walk(value))
    if package_init:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skipped.update(id(alias) for alias in node.names)
    used: Set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _words(node.value)
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
    return used


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str) -> List[Tuple[int, str]]:
    """(line, name) of each top-level function and class of ``source``
    and each of its classes' methods, as ``Class.method``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, _FUNCTIONS) and not _is_dunder(node.name):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.ClassDef):
            found.append((node.lineno, node.name))
            found.extend(
                (item.lineno, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, _FUNCTIONS) and not _is_dunder(item.name)
            )
    return found


def contract(source: str) -> Set[str]:
    """The names a package ``__init__`` lists in ``__all__``."""
    return {
        node.value
        for value in _all_lists(ast.parse(source))
        for node in ast.walk(value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unreferenced(
    defined: List[Tuple[int, str]], used: Set[str], exported: Set[str]
) -> List[Tuple[int, str]]:
    """The definitions whose name is not ``used`` and that are neither
    ``exported`` nor a method of an ``exported`` class."""
    return [
        (line, name)
        for line, name in defined
        if name.split(".")[-1] not in used
        and name.split(".")[0] not in exported
    ]


F = "def f():\n    pass\n"
C = "class C:\n    def m(self):\n        pass\n"

#: (defining source, referencing source, what the scan must report): a
#: scan that reports nothing would pass any tree.
SCANNER_CASES = [
    (F, "", [(1, "f")]),
    (F, "f()\n", []),
    (F, "import m\nm.f()\n", []),
    (F, "from m import f\nf()\n", []),
    ("def f():\n    '''f'''\n", "'''f'''\n", [(1, "f")]),
    (F, "# f()\n", [(1, "f")]),
    (F, "__all__ = ['f']\n", [(1, "f")]),
    (F, "LAYERS = ['m:f']\n", []),
    (F, "x = 'call f first'\n", [(1, "f")]),
    (F, "f = 1\nprint(f)\n", []),
    ("class C:\n    def __init__(self):\n        pass\n", "C()\n", []),
    (C, "C()\n", [(2, "C.m")]),
    (C, "C().m()\n", []),
    ("class C:\n    @property\n    def m(self):\n        pass\n", "C().m\n",
     []),
    (C, "x: 'C'\ngetattr(x, 'm')\n", []),
    (C, "def g() -> 'Optional[C]':\n    pass\n", [(2, "C.m")]),
    ("def f():\n    def g():\n        pass\n    return g\n", "f()\n", []),
    ("X = 1\n", "", []),
    ("def __getattr__(name):\n    pass\n", "", []),
    (C.replace("C", "E"), "", []),  # exported below
]


def test_scanner_cases():
    for defining, referencing, expected in SCANNER_CASES:
        used = references(defining) | references(referencing)
        found = unreferenced(definitions(defining), used, {"E"})
        assert found == expected, (defining, referencing)
    reexport = "from repro.m import f\n__all__ = ['f']\n"
    assert "f" not in references(reexport, package_init=True)
    assert "f" in references(reexport)
    assert contract("__all__ = ['a', 'b']\n") == {"a", "b"}


def _program_files() -> Iterator[Path]:
    for directory in PROGRAM_DIRS:
        yield from sorted(directory.rglob("*.py"))


def test_src_has_no_unreferenced_names():
    used: Set[str] = set()
    for path in _program_files():
        used |= references(
            path.read_text(encoding="utf-8"), path.name == "__init__.py"
        )
    exported = set().union(
        *(contract(path.read_text(encoding="utf-8"))
          for path in CONTRACT_MODULES)
    )
    assert {"DistTrainConfig", "MetricsRegistry"} <= exported
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert len(modules) > 50
    defined = {
        path: definitions(path.read_text(encoding="utf-8")) for path in modules
    }
    names = {name for found in defined.values() for _, name in found}
    stale = sorted(set(ALLOWED) - names)
    assert not stale, f"ALLOWED names no definition: {stale}"
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path, found in defined.items()
        for line, name in unreferenced(found, used, exported)
        if name not in ALLOWED
    ]
    assert not found, "no program references:\n" + "\n".join(found)
