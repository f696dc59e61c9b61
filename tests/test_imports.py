"""Every name a module imports is used in that module.

Each module under src/paradim and tests is parsed; a name bound by an
import statement must appear somewhere in the module as a name.
`__init__.py` files are skipped (their imports are re-exports), and so
are `__future__` imports.
"""
import ast
from pathlib import Path

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
