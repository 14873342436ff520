"""The package root is exactly the README's library surface, and its example runs."""

import re
from pathlib import Path

import factorcast
from factorcast.backtest import BacktestResult

from _support import FIXTURES

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The Python code block of README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_root_exports_exactly_the_readme_names():
    used = set(re.findall(r"\bfc\.(\w+)", library_block()))
    assert sorted(factorcast.__all__) == sorted({"__version__", *used})


def test_readme_library_example_runs_on_the_worked_example(capsys):
    code = library_block()
    assert code.count('"series.csv"') == 1
    namespace = {}
    exec(code.replace('"series.csv"', repr(str(FIXTURES / "worked_example.csv"))), namespace)
    # The selected line is 9: criticals 2001 and 2003 give the envelope [5, 6],
    # which also takes in 2006 (5.5).
    assert capsys.readouterr().out == "2 1 0.6666666666666666\n"
    assert isinstance(namespace["backtest"], BacktestResult)
