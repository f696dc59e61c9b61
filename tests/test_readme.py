"""The `>>>` examples of README.md, run with doctest, so that the
documented library calls cannot drift from the API."""
import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    text = "\n".join(re.findall(r"```python\n(.*?)```", README.read_text(), re.S))
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
