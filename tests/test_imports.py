"""Every import under `src/mtsc/` is used, exported, or marked with a reason,
every name it defines has a reader, and every parameter it takes is read.

No linter ships with the project, so this reads each module's syntax tree
with `ast`. An imported name must be read somewhere in its module, be
listed in the module's `__all__`, or sit on a line marked
`# noqa: F401` followed by the reason it stays (a re-export, say).

A module-level function, class or assigned name, and a method that is not
a dunder, must occur as a whole word somewhere besides its definition: in
any `.py` file of the program, its tests, its scripts or its benchmark.

A parameter of a `def` must be read in its body, nested functions
included, unless an underscore starts its name: a function that takes
an argument only to fit a signature says so by that prefix.

The packages are layered: a module under `vm/` imports from the program
only what `mtsc.vm`, `mtsc.minisol` and `mtsc.inputs` hold, and one under
`minisol/` only what `mtsc.minisol` holds. `detector.py` imports only
from `mtsc.inputs`, `mtsc.relations` and `mtsc.vm`, so `mr_engine`, which
imports it, never closes a cycle. A module outside `vm/` imports the VM
through `mtsc.vm` alone, never from a submodule such as `mtsc.vm.interp`. The README's repository layout names
every module and subpackage of `src/mtsc/`.

The one call in `src/mtsc/` of a builtin that compiles or runs source
(`exec`, `eval` or `compile`) is the one that makes the AST nodes'
initializers; a method of the same name, such as `re.compile`, is no
such call.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mtsc"
MODULES = sorted(SRC.rglob("*.py"))
READERS = sorted(path for folder in ("src", "tests", "scripts", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))
MARKED = re.compile(r"#\s*noqa:\s*F401\s+\S")  # the marker, then a reason


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(text: str) -> list:
    """(line, name) of each import in `text` that nothing reads, exports
    or marks."""
    tree = ast.parse(text)
    lines = text.splitlines()
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept |= _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(MARKED.search(line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in kept:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used_exported_or_marked(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_import_left_behind():
    text = ("from __future__ import annotations\n"
            "from enum import Enum\n"
            "import os.path\n"
            "from typing import Optional  # noqa: F401\n"
            "from .vm import execute as run  # noqa: F401  re-exported\n"
            "from .vm import deploy\n"
            "__all__ = ['deploy']\n"
            "def f(x):\n"
            "    return os.path.join(x)\n")
    assert unused_imports(text) == [(2, "Enum"), (4, "Optional")]


def definitions(text: str) -> list:
    """The names a module defines at its top level, and the names of the
    methods of its classes, dunders left out."""
    names = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.append(node.name)
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unread(defined: list, texts) -> list:
    """The names in `defined` that occur in `texts` no more often than
    they are defined: each definition holds one occurrence of its name."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    counts = Counter(defined)
    return sorted(name for name, n in counts.items() if words[name] <= n)


def test_every_definition_has_a_reader():
    defined = [name for path in MODULES for name in definitions(path.read_text(encoding="utf-8"))]
    assert unread(defined, (path.read_text(encoding="utf-8") for path in READERS)) == []


def test_the_check_finds_a_definition_left_behind():
    text = ("import os\n"
            "LIMIT, SPARE = 3, 4\n"
            "Alias = int\n"
            "def helper():\n"
            "    return LIMIT\n"
            "class Record:\n"
            "    def __repr__(self):\n"
            "        return 'Record'\n"
            "    def unused(self):\n"
            "        return helper()\n")
    assert unread(definitions(text), [text]) == ["Alias", "SPARE", "unused"]


def unread_parameters(text: str) -> list:
    """(line, function, parameter) of each parameter of a `def` in `text`
    that its body never reads. Dunders, `self`, `cls` and parameters named
    with a leading underscore, kept for a fixed signature, are exempt."""
    unread = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread += [(node.lineno, node.name, param.arg) for param in params
                   if param.arg not in read and param.arg not in ("self", "cls")
                   and not param.arg.startswith("_")]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_parameter_left_behind():
    text = ("def f(a, b, *rest, c=1, _fixed=2, **extra):\n"
            "    b = 2\n"
            "    return lambda: a + c\n"
            "class Record:\n"
            "    def __deepcopy__(self, memo):\n"
            "        return self\n"
            "    @classmethod\n"
            "    def make(cls, value):\n"
            "        def inner(unused):\n"
            "            return value\n"
            "        return inner\n")
    assert unread_parameters(text) == [(1, "f", "b"), (1, "f", "rest"), (1, "f", "extra"),
                                       (9, "inner", "unused")]


# what the program's modules under each package, or one top-level module,
# may import from the program
LAYERS = {"vm": ("mtsc.vm", "mtsc.minisol", "mtsc.inputs"), "minisol": ("mtsc.minisol",),
          "detector": ("mtsc.inputs", "mtsc.relations", "mtsc.vm")}


def layer(path: Path) -> str:
    """The row of LAYERS for `path`: its package, or a top-level module's name."""
    return path.stem if path.parent == SRC else path.parent.name


def imported_modules(text: str, package: str) -> list:
    """(line, module) of each import in `text`, a module of `package`,
    with a relative import made absolute."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1])
                name = f"{base}.{name}" if name else base
            found.append((node.lineno, name))
    return found


def layer_breaches(text: str, package: str, allowed) -> list:
    """(line, module) of each import in `text` of a program module that
    lies in none of the `allowed` packages."""
    return [(line, name) for line, name in imported_modules(text, package)
            if name.split(".")[0] == "mtsc"
            and not any(name == a or name.startswith(a + ".") for a in allowed)]


@pytest.mark.parametrize("path", [path for path in MODULES if layer(path) in LAYERS],
                         ids=lambda p: str(p.relative_to(SRC)))
def test_each_package_imports_only_from_the_layers_below_it(path):
    package = ".".join(path.relative_to(SRC.parent).parent.parts)
    assert layer_breaches(path.read_text(encoding="utf-8"), package,
                          LAYERS[layer(path)]) == []


def test_the_check_finds_an_import_across_layers():
    text = ("import sys\n"
            "from . import ast\n"
            "from .state import WorldState\n"
            "from ..minisol import ast as tree\n"
            "from mtsc.inputs import InputError\n"
            "from ..scenario import Environment\n"
            "import mtsc.cli\n"
            "from ..vmx import y\n"
            "from .. import agents\n")
    assert layer_breaches(text, "mtsc.vm", LAYERS["vm"]) == [
        (6, "mtsc.scenario"), (7, "mtsc.cli"), (8, "mtsc.vmx"), (9, "mtsc")]
    assert layer_breaches(text, "mtsc.minisol", LAYERS["minisol"]) == [
        (5, "mtsc.inputs"), (6, "mtsc.scenario"), (7, "mtsc.cli"), (8, "mtsc.vmx"), (9, "mtsc")]


def vm_submodule_imports(text: str, package: str) -> list:
    """(line, module) of each import in `text` of a submodule of `mtsc.vm`."""
    return [(line, name) for line, name in imported_modules(text, package)
            if name.startswith("mtsc.vm.")]


@pytest.mark.parametrize("path", [path for path in MODULES if layer(path) != "vm"],
                         ids=lambda p: str(p.relative_to(SRC)))
def test_the_vm_is_imported_only_through_its_package(path):
    package = ".".join(path.relative_to(SRC.parent).parent.parts)
    assert vm_submodule_imports(path.read_text(encoding="utf-8"), package) == []


def test_the_check_finds_an_import_from_inside_the_vm():
    text = ("from .vm import execute\n"
            "from .vm.interp import STILLBORN\n"
            "import mtsc.vm.state\n"
            "from ..vm.types import Outcome\n"
            "from .vmx import y\n")
    assert vm_submodule_imports(text, "mtsc") == [(2, "mtsc.vm.interp"), (3, "mtsc.vm.state")]
    assert vm_submodule_imports(text, "mtsc.minisol") == [(3, "mtsc.vm.state"),
                                                           (4, "mtsc.vm.types")]


SOURCE_RUNNERS = ("exec", "eval", "compile")


def source_runner_calls(text: str) -> list:
    """(line, top-level definition or None, builtin) of each call in `text`
    of a builtin in SOURCE_RUNNERS by its bare name."""
    found = []
    for top in ast.parse(text).body:
        found += [(node.lineno, getattr(top, "name", None), node.func.id)
                  for node in ast.walk(top) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id in SOURCE_RUNNERS]
    return found


def test_only_the_node_initializer_generator_runs_source():
    found = [(path.relative_to(SRC).as_posix(), where, name) for path in MODULES
             for _, where, name in source_runner_calls(path.read_text(encoding="utf-8"))]
    assert found == [("minisol/ast.py", "_initializer", "exec")]


def test_the_check_finds_a_call_that_runs_source():
    text = ("import re\n"
            "PATTERN = re.compile('x')\n"
            "CODE = compile('1', '<s>', 'eval')\n"
            "def run(vm, source):\n"
            "    vm.eval(source)\n"
            "    return eval(source)\n"
            "class Loader:\n"
            "    def load(self, source):\n"
            "        exec(source, {})\n")
    assert source_runner_calls(text) == [(3, None, "compile"), (6, "run", "eval"),
                                         (9, "Loader", "exec")]


def test_the_readme_layout_names_every_module_and_subpackage():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Repository layout\n", 1)[1].split("```")[1]
    listed = {m.group(1) for m in re.finditer(r"^  (\S+)", block, re.MULTILINE)}
    parts = {path.name + "/" for path in SRC.iterdir() if (path / "__init__.py").is_file()}
    parts |= {path.name for path in SRC.glob("*.py") if not path.name.startswith("__")}
    assert sorted(parts - listed) == []
