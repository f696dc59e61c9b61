"""The `>>>` examples of README.md, run with doctest, and its `paradim`
command lines, run through the CLI, so that the documented calls cannot
drift from the API."""
import doctest
import re
import shlex
from pathlib import Path

from paradim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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
