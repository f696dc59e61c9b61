"""Every name a module imports is used in that module, every private
function or class and every module-level constant is used somewhere, and
importing the package loads no module that no command needs.

Each module under src/paradim and tests is parsed; a name bound by an
import statement must appear somewhere in the module as a name.
`__init__.py` files are skipped (their imports are re-exports), and so
are `__future__` imports.  A private (single-underscore) module-level
function or class of src/paradim must be named, outside its own
definition, somewhere in src/paradim or tests: one that is not is a
leftover copy of something done elsewhere.  So must every module-level
constant assigned in src/paradim, outside its own assignment: one that
is not is a leftover of a design that is gone.  A public module-level
function or class of src/paradim must be named in the code (not the
docstrings) of src/paradim outside its own definition, or be exported in
`paradim.__all__`, or be a function that perfbench/tracer.py times: else
it is an entry point that nothing calls.  An oracle, an independent route
that only the tests call, lives in tests/ (tests/naive_kernels.py,
tests/character_oracles.py).  When the tracer drops a target, this asks
for that function's deletion or its move to tests/.

An `lru_cache` on a function of two or more parameters must be
`typed=True`: an untyped key (7, 4.0) equals (7, 4), so a warm entry
would answer a float that the function itself refuses.

No module of src/paradim but kernels.py keeps state at module level: no
module-level assignment holds an empty (or nested-empty) `{}`, `[]` or
`set()`, or calls `dict`, `list`, `set`, `defaultdict` or `array`.  A
memo is an `lru_cache`, which `cache_info()` reports and `cache_clear()`
empties; kernels.py keeps its five growable tables `_spf`, `_primes`,
`_root_counts`, `_squares` and `_sigma`.  Nor does a cached function
return a fresh empty container for its callers to fill: that is module
state too, held in the cache where the assignments above cannot show it.

No `assert` statement appears in src/paradim: `python -O` strips them,
so a mathematical invariant is checked by raising a typed ParadimError.

Every import of src/paradim is relative or names a module of
`sys.stdlib_module_names`: the package depends on nothing outside the
standard library, and never on the oracles of tests/.

Every command runs in a fresh process, so import time is paid on every
call: `import paradim, paradim.cli` must not load dataclasses or inspect
(with ast, dis and tokenize, inspect was about 40 % of the import).  Nor
may it load, before or after running `search zero3`, `bias`, `dim` or
`table`, any of UNNEEDED: fractions (which loads decimal and numbers) is
imported only where a value is rational, on an error path or in
`arith.bernoulli_b2_chi`; json and csv only where a command reads the
data files or prints JSON or CSV; pathlib only where a command reads a
data file; typing not at all.  That check runs under `python -S`, since
`site` may load typing or pathlib itself through a `.pth` file and would
hide an import of it.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import paradim
from test_perfbench_targets import _targets

ROOT = Path(__file__).resolve().parent.parent


def _modules():
    for folder in (ROOT / "src" / "paradim", ROOT / "tests"):
        for path in sorted(folder.rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def unused_imports(source):
    """Names bound by the imports of `source` that it never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector():
    source = "import os\nimport re\nfrom a import b as c, d\nprint(re, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _modules()
             for line, name in unused_imports(path.read_text())]
    assert found == []


def _named(node):
    """Every name the node refers to: as a variable, an attribute or an
    imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _bound(stmt):
    """The names a top-level statement defines: a function or a class, or
    the names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _unnamed(sources, checked, wanted):
    """(label, line, name) of each module-level name, of the sources
    labelled in `checked`, bound by a statement for which `wanted(stmt,
    name)` holds, that no top-level statement of any source names, its
    own apart.  `sources` maps labels to source text."""
    defs, named = [], set()
    for label, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _bound(stmt)
            named.update(n for n in _named(stmt) if n not in own)
            if label in checked:
                defs.extend((label, stmt.lineno, name) for name in sorted(own)
                            if not name.startswith("__") and wanted(stmt, name))
    return [d for d in defs if d[2] not in named]


def unnamed_private_defs(sources, checked):
    """The private module-level functions and classes that nothing names."""
    return _unnamed(sources, checked, lambda stmt, name: (
        name.startswith("_") and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))))


def unnamed_constants(sources, checked):
    """The module-level assigned names that nothing names."""
    return _unnamed(sources, checked,
                    lambda stmt, name: isinstance(stmt, (ast.Assign, ast.AnnAssign)))


def test_private_detector():
    lib = ("def _used():\n    pass\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
           "\n\nclass _Gone:\n    pass\n\n\ndef __getattr__(name):\n    pass\n")
    test = "from lib import _used\n"
    assert unnamed_private_defs({"lib": lib, "test": test}, {"lib"}) == [
        ("lib", 5, "_recursive"), ("lib", 9, "_Gone")]


def test_no_unnamed_private_defs():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in _modules()}
    checked = {label for label in sources if label.startswith("src/")}
    assert unnamed_private_defs(sources, checked) == []


def uncalled_public_defs(sources, checked):
    """The public module-level functions and classes that nothing names."""
    return _unnamed(sources, checked, lambda stmt, name: (
        not name.startswith("_") and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))))


def test_public_detector():
    lib = ('def used():\n    """Not `gone`."""\n\n\ndef recursive(n):\n'
           '    return recursive(n - 1)\n\n\nclass Gone:\n    pass\n\n\n'
           'def _private():\n    return used()\n')
    assert uncalled_public_defs({"lib": lib}, {"lib"}) == [
        ("lib", 5, "recursive"), ("lib", 9, "Gone")]


def test_every_public_name_has_a_caller():
    sources = {f"paradim.{path.stem}": path.read_text()
               for path in sorted((ROOT / "src" / "paradim").glob("*.py"))
               if path.name != "__init__.py"}
    kept = {(getattr(paradim, name).__module__, name) for name in paradim.__all__}
    kept.update((module, name) for _, module, name, _ in _targets())
    found = [f"{module}:{line}: {name}"
             for module, line, name in uncalled_public_defs(sources, set(sources))
             if (module, name) not in kept]
    assert found == []


def test_constant_detector():
    lib = ("A = 1\nB, _C = 2, 3\nD: int = 4\nE = E_F = 5\n__all__ = []\n"
           "\n\ndef f():\n    return A + _C\n")
    test = "from lib import E_F\n"
    assert unnamed_constants({"lib": lib, "test": test}, {"lib"}) == [
        ("lib", 2, "B"), ("lib", 3, "D"), ("lib", 4, "E")]


def test_no_unnamed_constants():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in _modules()}
    checked = {label for label in sources if label.startswith("src/")}
    assert unnamed_constants(sources, checked) == []


def untyped_multi_arg_caches(source):
    """(line, name) of each function of `source` with two or more
    parameters under an `lru_cache` that is not `typed=True`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        n_params = (len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
                    + (args.vararg is not None) + (args.kwarg is not None))
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = getattr(target, "attr", getattr(target, "id", None))
            if name != "lru_cache" or n_params < 2:
                continue
            typed = any(kw.arg == "typed" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True for kw in (call.keywords if call else ()))
            if not typed:
                found.append((node.lineno, node.name))
    return found


def test_typed_cache_detector():
    source = ("@lru_cache(maxsize=None)\ndef one(p):\n    pass\n\n"
              "@lru_cache(maxsize=None)\ndef two(p, k):\n    pass\n\n"
              "@functools.lru_cache\ndef bare(p, *k):\n    pass\n\n"
              "@lru_cache(typed=False)\ndef off(p, k):\n    pass\n\n"
              "@lru_cache(maxsize=None, typed=True)\ndef ok(p, k):\n    pass\n")
    assert untyped_multi_arg_caches(source) == [(6, "two"), (10, "bare"), (14, "off")]


def test_multi_arg_caches_are_typed():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "paradim").rglob("*.py"))
             for line, name in untyped_multi_arg_caches(path.read_text())]
    assert found == []


# the calls that build a mutable container
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "array"}


def module_state(source):
    """(line, name) of each name of `source` that a module-level assignment
    binds to a value holding an empty `{}`, `[]` or `set()`, or a call of
    one of CONTAINER_CALLS."""
    found = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            continue
        for node in ast.walk(stmt.value):
            empty = ((isinstance(node, ast.Dict) and not node.keys)
                     or (isinstance(node, ast.List) and not node.elts))
            call = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in CONTAINER_CALLS
            if empty or call:
                found.extend((stmt.lineno, name) for name in sorted(_bound(stmt)))
                break
    return found


def test_module_state_detector():
    source = ("_held = [None, []]\nSPACES = ('M', 'A')\n_c = {}\nX = dict()\n"
              "T: list = array.array('i', [0])\nS = set()\nN = {'a': ([],)}\n"
              "DEN = [[4, 6], [1]]\nK = {1: 2}\nF = frozenset()\n\n\n"
              "def f():\n    cache = []\n    return cache\n")
    assert module_state(source) == [(1, "_held"), (3, "_c"), (4, "X"), (5, "T"),
                                    (6, "S"), (7, "N")]


def test_no_module_state_outside_the_kernels():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "paradim").rglob("*.py"))
             if path.name != "kernels.py"
             for line, name in module_state(path.read_text())]
    assert found == []
    kernels = (ROOT / "src" / "paradim" / "kernels.py").read_text()
    assert {name for _, name in module_state(kernels)} == {"_spf", "_primes", "_root_counts",
                                                             "_squares", "_sigma"}


def _empty_container(node):
    """Whether `node` builds an empty `[]` or `{}`, or calls one of
    CONTAINER_CALLS without arguments."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        return name in CONTAINER_CALLS and not (node.args or node.keywords)
    return ((isinstance(node, ast.List) and not node.elts)
            or (isinstance(node, ast.Dict) and not node.keys))


def cached_empty_containers(source):
    """(line, name) of each function of `source` under `lru_cache` or
    `cache` that returns a value holding a fresh empty container."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        targets = (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
        names = {getattr(t, "attr", getattr(t, "id", None)) for t in targets}
        if not names & {"lru_cache", "cache"}:
            continue
        if any(isinstance(ret, ast.Return) and ret.value is not None
               and any(map(_empty_container, ast.walk(ret.value)))
               for ret in ast.walk(node)):
            found.append((node.lineno, node.name))
    return found


def test_cached_empty_container_detector():
    source = ("@lru_cache(maxsize=1, typed=True)\ndef held(base, p):\n    return []\n\n"
              "@functools.cache\ndef table():\n    return {}\n\n"
              "@lru_cache\ndef fresh(p):\n    if p:\n        return list()\n"
              "    return dict(), 0\n\n"
              "@cache\ndef bag(p):\n    return [p], set()\n\n"
              "@lru_cache(maxsize=64)\ndef full(p):\n"
              "    return [p], list(range(p)), {p: 1}, tuple()\n\n"
              "def plain():\n    return []\n\n"
              "@lru_cache\ndef frozen(p):\n    return frozenset(), ()\n")
    assert cached_empty_containers(source) == [(2, "held"), (6, "table"), (10, "fresh"),
                                               (16, "bag")]


def test_no_cached_function_returns_an_empty_container():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "paradim").rglob("*.py"))
             for line, name in cached_empty_containers(path.read_text())]
    assert found == []


def assert_lines(source):
    """The line of each `assert` statement of `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_detector():
    source = ("def f(x):\n    assert x > 0, 'x'\n    if x:\n        assert x\n"
              "    return 'assert x'\n")
    assert assert_lines(source) == [2, 4]


def test_no_asserts_in_the_package():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src" / "paradim").rglob("*.py"))
             for line in assert_lines(path.read_text())]
    assert found == []


def foreign_imports(source):
    """(line, module) of each absolute import of `source` whose top-level
    module is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found.extend((node.lineno, module) for module in modules
                     if module.split(".")[0] not in sys.stdlib_module_names)
    return found


def test_foreign_import_detector():
    source = ("import os.path, naive_kernels\nfrom . import kernels\n"
              "from .arith import a_p\nfrom hypothesis import given\n"
              "from __future__ import annotations\n\n\ndef f():\n"
              "    from character_oracles import chi_series\n")
    assert foreign_imports(source) == [(1, "naive_kernels"), (4, "hypothesis"),
                                       (9, "character_oracles")]


def test_package_imports_only_itself_and_the_standard_library():
    found = [f"{path.relative_to(ROOT)}:{line}: {module}"
             for path in sorted((ROOT / "src" / "paradim").rglob("*.py"))
             for line, module in foreign_imports(path.read_text())]
    assert found == []


def test_import_loads_no_dataclasses_or_inspect():
    code = ("import sys, paradim, paradim.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


# stdlib modules that none of COMMANDS needs in its default text output
UNNEEDED = ("fractions", "decimal", "numbers", "json", "csv", "typing", "dataclasses",
            "inspect", "pathlib")
COMMANDS = (("search", "zero3", "--pmax", "50"), ("bias", "--pmax", "50", "--kmax", "20"),
            ("dim", "--p", "7", "--k", "4"), ("table", "--k", "4", "--pmax", "50"))
# after the import and after each command: (label, exit code, which of
# UNNEEDED are loaded), with the command's output kept off the report
CHILD = """\
import io, sys
import paradim, paradim.cli
unneeded, commands = {unneeded!r}, {commands!r}
report = [("import", 0, [m for m in unneeded if m in sys.modules])]
for argv in commands:
    sys.stdout = io.StringIO()
    rc = paradim.cli.main(list(argv))
    sys.stdout = sys.__stdout__
    report.append((" ".join(argv), rc, [m for m in unneeded if m in sys.modules]))
print(report)
"""


def test_commands_load_no_unneeded_module_without_site():
    code = CHILD.format(unneeded=UNNEEDED, commands=COMMANDS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    labels = ["import"] + [" ".join(argv) for argv in COMMANDS]
    assert ast.literal_eval(out) == [(label, 0, []) for label in labels]
