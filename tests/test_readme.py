"""The `>>>` examples of README.md, run with doctest, and its `paradim`
command lines, run through the CLI, so that the documented calls cannot
drift from the API.

README.md states the interface only.  Every dotted `paradim` name it
cites (`paradim.x.y`, or `x.y` for a module x of the package) must
resolve.  No name it cites, dotted or in code, may have a private
component, one that starts with a single underscore: the internals are
told in the module docstrings.
Every name of `paradim.__all__` must appear in it.  The same resolution
check runs over the dotted names cited in the docstrings and comments of
src/paradim, where private names are allowed.
"""
import ast
import doctest
import importlib
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import paradim
from paradim.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "paradim"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))
# paradim, paradim.x.y or x.y for a module x of the package; a call's
# argument list ends the name, and so does a file suffix
DOTTED = re.compile(r"(?<![\w./])(?:paradim(?:\.\w+)*|(?:%s)(?:\.\w+)+)(?!\w|/)"
                    % "|".join(MODULES))


def dotted_names(text):
    """The dotted paradim names cited in `text`, without file names."""
    names = {m.group() for m in DOTTED.finditer(text)}
    return sorted(name for name in names if not name.endswith(".py"))


def resolves(name):
    """Whether `name` is an attribute path from the paradim package."""
    parts = name.split(".")
    if parts[0] != "paradim":
        parts.insert(0, "paradim")
    obj = paradim
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:  # importing a submodule binds it on its package
                return False
        obj = getattr(obj, part)
    return True


def is_private(name):
    return any(re.match(r"_[^_]", part) for part in name.split("."))


def code_spans(text):
    """The inline code spans and fenced blocks of Markdown text."""
    return re.findall(r"`+([^`]+)`+", text)


def cited_text(path):
    """The docstrings and comments of a Python source file."""
    source = path.read_text(encoding="utf-8")
    nodes = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    texts = [ast.get_docstring(node) or "" for node in nodes]
    texts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.COMMENT]
    return "\n".join(texts)


def test_readme_examples():
    text = "\n".join(re.findall(r"```python\n(.*?)```", README.read_text(), re.S))
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_readme_command_lines(capsys):
    block = "\n".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S))
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("paradim ")]
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_name_pattern():
    assert dotted_names("`paradim.compact.level(p)`, compact.DEN and paradim") == [
        "compact.DEN", "paradim", "paradim.compact.level"]
    assert dotted_names("tests/test_compact.py, compact.py and tests/naive_kernels") == []
    assert resolves("paradim.compact.level") and resolves("exactmath.RationalGF")
    assert not resolves("paradim.arith._elliptic_symbols")
    assert not resolves("paradim.nowhere") and not resolves("compact.level.nowhere")
    assert is_private("arith._split_symbols") and not is_private("paradim.__all__")


def test_readme_names_resolve():
    assert [name for name in dotted_names(README.read_text()) if not resolves(name)] == []


def test_readme_cites_no_private_name():
    text = README.read_text()
    names = dotted_names(text) + re.findall(r"[\w.]+", " ".join(code_spans(text)))
    assert sorted({name for name in names if is_private(name)}) == []


def test_readme_names_every_export():
    cited = set(re.findall(r"\w+", " ".join(code_spans(README.read_text()))))
    assert [name for name in paradim.__all__ if name not in cited] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_docstring_names_resolve(path):
    assert [name for name in dotted_names(cited_text(path)) if not resolves(name)] == []
